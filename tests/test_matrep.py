"""Matrix models, standard polynomials, and multilinear identity search."""

import pytest

from orepi import (
    FieldCtx,
    MatAlgebra,
    multilinear_identity_search,
    quantum_plane_rep,
    standard_poly_eval,
)
from orepi.errors import (
    CtxMismatch,
    DegreeTooLarge,
    NotPrimitiveRoot,
    SizeMismatch,
)
from orepi.fields import Coeff
from orepi.matrep import mat_identity, mat_is_zero, mat_scale


def m2_units(ctx):
    z, o = ctx.zero(), ctx.one()
    return {"e11": ((o, z), (z, z)), "e12": ((z, o), (z, z)),
            "e21": ((z, z), (o, z)), "e22": ((z, z), (z, o))}


@pytest.fixture
def m2(QQ):
    return MatAlgebra(2, QQ, m2_units(QQ))


def test_quantum_plane_rep_examples(QQ, cyclo3):
    rep = quantum_plane_rep(QQ, 2, QQ.from_int(-1))
    X, Y = rep.gens["x"], rep.gens["y"]
    o, z = QQ.one(), QQ.zero()
    assert X == ((z, o), (o, z))
    assert Y == ((o, z), (z, -o))
    rep3 = quantum_plane_rep(cyclo3, 3, cyclo3.generator())
    assert rep3.dim == 9
    rep1 = quantum_plane_rep(QQ, 1, QQ.one())
    assert rep1.dim == 1


def test_quantum_plane_rep_rejects_non_primitive(cyclo3):
    with pytest.raises(NotPrimitiveRoot):
        quantum_plane_rep(cyclo3, 3, cyclo3.one())


def test_standard_poly_s2(QQ, m2):
    A = m2_units(QQ)["e12"]
    assert mat_is_zero(standard_poly_eval([mat_identity(2, QQ), A]))
    assert mat_is_zero(standard_poly_eval([A, A]))
    B = m2_units(QQ)["e21"]
    s2 = standard_poly_eval([A, B])
    # AB - BA = diag(1, -1)
    assert s2 == ((QQ.one(), QQ.zero()), (QQ.zero(), -QQ.one()))


def test_standard_poly_s4_amitsur_levitzki(QQ):
    units = list(m2_units(QQ).values())
    assert mat_is_zero(standard_poly_eval(units))


def test_s2n_vanishes_on_small_reps(QQ):
    # exhaustive basis tuples: s_2 on the order-1 model, s_4 on order 2
    rep1 = quantum_plane_rep(QQ, 1, QQ.one())
    for a in rep1.basis:
        for b in rep1.basis:
            assert mat_is_zero(standard_poly_eval([a, b]))
    rep2 = quantum_plane_rep(QQ, 2, QQ.from_int(-1))
    from itertools import product
    for tup in product(rep2.basis, repeat=4):
        assert mat_is_zero(standard_poly_eval(list(tup)))


def test_standard_poly_alternating(QQ, rng):
    from conftest import random_coeff
    mats = []
    for _ in range(3):
        mats.append(tuple(tuple(random_coeff(QQ, rng) for _ in range(2))
                          for _ in range(2)))
    swapped = [mats[1], mats[0], mats[2]]
    a = standard_poly_eval(mats)
    b = standard_poly_eval(swapped)
    assert a == mat_scale(b, -QQ.one())


def test_size_mismatch(QQ):
    with pytest.raises(SizeMismatch):
        standard_poly_eval([mat_identity(2, QQ), mat_identity(3, QQ)])


def test_identity_search_m2(m2):
    assert multilinear_identity_search(m2, 3).dim == 0
    sp4 = multilinear_identity_search(m2, 4)
    assert sp4.dim >= 1
    assert sp4.contains_standard()


def test_mat_algebra_holds_one_field(QQ, cyclo3):
    # the span tracker takes bare payloads, so a generator of another
    # field is caught by the Coeff arithmetic of the basis closure
    with pytest.raises(CtxMismatch):
        MatAlgebra(2, QQ, m2_units(cyclo3))
    with pytest.raises(CtxMismatch):
        MatAlgebra(2, cyclo3, m2_units(QQ))
    # an equal field that is a distinct object is accepted
    other = FieldCtx.cyclotomic(3)
    assert other is not cyclo3
    alg = MatAlgebra(2, cyclo3, m2_units(other))
    assert alg.dim == 4
    assert multilinear_identity_search(alg, 3).dim == 0
    assert multilinear_identity_search(alg, 4).contains_standard()


def test_identity_search_qplane_rep(QQ):
    rep = quantum_plane_rep(QQ, 2, QQ.from_int(-1))
    sp = multilinear_identity_search(rep, 4)
    assert sp.contains_standard()


def test_identity_space_annihilates_random_tuples(QQ, m2, rng):
    from conftest import random_coeff
    sp4 = multilinear_identity_search(m2, 4)
    vec = sp4.basis[0]
    for _ in range(25):
        mats = []
        for _ in range(4):
            mats.append(tuple(tuple(random_coeff(QQ, rng) for _ in range(2))
                              for _ in range(2)))
        assert mat_is_zero(sp4.evaluate(vec, mats))


def test_degree_guard(m2):
    with pytest.raises(DegreeTooLarge):
        multilinear_identity_search(m2, 7)


# ---------------------------------------------------------------------------
# differential checks against the per-tuple search and a dense product

def _mat_mul_dense(a, b):
    n = len(a)
    return tuple(tuple(sum((a[i][k] * b[k][j] for k in range(1, n)),
                           a[i][0] * b[0][j])
                       for j in range(n)) for i in range(n))


def _reference_rows(alg, d):
    """The rows of the per-tuple search, basis tuple by basis tuple and
    cell by cell in row-major order: every permuted product of the tuple
    multiplied out, one Coeff per permutation (itertools order)."""
    from itertools import permutations, product
    perms = list(permutations(range(d)))
    for t in product(alg.basis, repeat=d):
        prods = []
        for perm in perms:
            prod = t[perm[0]]
            for idx in perm[1:]:
                prod = _mat_mul_dense(prod, t[idx])
            prods.append(prod)
        for r in range(alg.n):
            for c in range(alg.n):
                yield [m[r][c] for m in prods]


def _search_reference(alg, d):
    """The per-tuple search: all rows eliminated at once."""
    from math import factorial

    from orepi.linalg import dense_kernel
    return dense_kernel(list(_reference_rows(alg, d)), factorial(d), alg.ctx)


def _conjugated_m2(ctx, a):
    """Matrix units conjugated by diag(a, 1)."""
    z, o = ctx.zero(), ctx.one()
    return MatAlgebra(2, ctx, {"e11": ((o, z), (z, z)),
                               "e12": ((z, a), (z, z)),
                               "e21": ((z, z), (a.inv(), z)),
                               "e22": ((z, z), (z, o))})


def _conjugated_b2(ctx, a):
    """span{e11, a e12}: a subalgebra without the identity whose
    identities are not closed under reversing words ([x1,x2] x3 = 0
    holds on it, x3 [x1,x2] = 0 does not)."""
    alg = _conjugated_m2(ctx, a)
    alg.basis = [alg.gens["e11"], alg.gens["e12"]]
    return alg


def _search_cases():
    from fractions import Fraction
    QQ = FieldCtx.rational()
    gf49 = FieldCtx.galois(7, (3, 1, 1))  # x^2 + x + 3 over GF(7)
    gf3 = FieldCtx.galois_prime(3)
    z3 = FieldCtx.cyclotomic(3)
    algebras = [
        ("M2[a=3/7]@Q",
         lambda: _conjugated_m2(QQ, QQ.from_fraction(Fraction(3, 7))), 4),
        ("M2[a=g+2]@GF(49)",
         lambda: _conjugated_m2(gf49, gf49.generator() + 2), 4),
        ("B2[a=-2]@Q",
         lambda: _conjugated_b2(QQ, QQ.from_int(-2)), 5),
        ("B2[a=g]@GF(49)",
         lambda: _conjugated_b2(gf49, gf49.generator()), 4),
        ("qplane1@Q", lambda: quantum_plane_rep(QQ, 1, QQ.one()), 4),
        ("qplane2@Q", lambda: quantum_plane_rep(QQ, 2, QQ.from_int(-1)), 4),
        ("qplane3@Q(z3)", lambda: quantum_plane_rep(z3, 3, z3.generator()), 3),
        # characteristic 3: the rows stream one by one from d = 3 on
        ("M2[a=2]@GF(3)", lambda: _conjugated_m2(gf3, gf3.from_int(2)), 4),
        ("B2[a=2]@GF(3)", lambda: _conjugated_b2(gf3, gf3.from_int(2)), 4),
    ]
    return [pytest.param(build, d, id=f"{name}-d{d}")
            for name, build, d_max in algebras
            for d in range(1, d_max + 1)]


@pytest.mark.parametrize("build,d", _search_cases())
def test_identity_search_matches_per_tuple_reference(build, d):
    alg = build()
    space = multilinear_identity_search(alg, d)
    ref = _search_reference(alg, d)
    assert space.dim == len(ref)
    assert space.basis == ref


@pytest.mark.parametrize("build,d", _search_cases())
def test_search_feeds_the_tracker_the_reference_rows(build, d, monkeypatch):
    # sum_l d_l r_l over the partitions l of d (r_l the rank of l's
    # tracker) is the rank R of the per-tuple search's rows, in either
    # tuple order (a walk stops once every r_l = d_l, which is then rank
    # d!).  The rows fanned out from the nonzero words reach the per-tuple
    # tracker as the per-tuple search's nonzero rows, in its (tuple, cell)
    # order: in characteristic at most d up to the early exit at rank d!,
    # above it (or in characteristic 0) only when the identity space is
    # larger than R, up to the row that reaches rank R.  No product
    # extends a zero prefix
    from itertools import combinations_with_replacement, permutations
    from math import factorial

    from orepi import matrep, symmetric
    from orepi.linalg import SpanTracker
    alg = build()
    ctx = alg.ctx
    want = [row for row in ({k: c.val for k, c in enumerate(r)
                             if not c.is_zero()}
                            for r in _reference_rows(alg, d)) if row]
    full, reached = SpanTracker(lambda k: k, ctx), {}
    for n, row in enumerate(want, 1):
        if full.insert(row):
            reached[full.rank] = n
    rank = full.rank
    if (ctx.char or d + 1) <= d:
        want = want[:reached.get(factorial(d), len(want))]
    elif factorial(d) - rank > rank:
        want = want[:reached[rank]]
    else:
        want = []
        basis = [matrep._payloads(m, ctx) for m in alg.basis]
        tuples = list(combinations_with_replacement(range(len(basis)), d))
        for order in (tuples, tuples[::-1]):
            comps = symmetric._walk(ctx, basis, d,
                                    list(permutations(range(d))), order)
            assert sum(n * tracker.rank for _, n, tracker in comps) == rank
    fed, prefixes = [], []
    real_mul = matrep.mat_mul

    class Tracker(SpanTracker):
        def insert(self, row):
            fed.append(dict(row))
            return super().insert(row)

    def mat_mul(ctx, a, b):
        prefixes.append(a)
        return real_mul(ctx, a, b)
    monkeypatch.setattr(matrep, "mat_mul", mat_mul)
    monkeypatch.setattr(symmetric, "mat_mul", mat_mul)
    monkeypatch.setattr(matrep, "SpanTracker", Tracker)
    multilinear_identity_search(alg, d)
    assert len(fed) == len(want)
    for got, row in zip(fed, want):
        assert got.keys() == row.keys()
        assert all(ctx.eq(got[k], v) for k, v in row.items())
    assert len(prefixes) > 0 or d == 1
    assert not any(all(map(ctx.is_zero, (x for r in a for x in r)))
                   for a in prefixes)


def _contains_reference(space, vec):
    """Is vec (one payload per permutation) in the span of the space's
    basis?  Decided by a SpanTracker holding the whole basis."""
    from orepi.linalg import SpanTracker
    tracker = SpanTracker(lambda k: k, space.ctx)
    for v in space.basis:
        tracker.insert({i: c.val for i, c in enumerate(v)})
    return tracker.contains(dict(enumerate(vec)))


@pytest.mark.parametrize("build,d", _search_cases())
def test_contains_standard_matches_a_tracker(build, d):
    # on the whole basis, and on the spaces its subsets without one
    # vector span: s_d is 1 or -1 at every vector's last nonzero column,
    # so it drops out of each
    from orepi.matrep import IdentitySpace, _parity
    space = multilinear_identity_search(build(), d)
    ctx = space.ctx
    sgn = [ctx.embed(_parity(p)) for p in space.perms]
    cuts = [space.basis[:k] + space.basis[k + 1:] for k in range(space.dim)]
    answers = []
    for basis in [space.basis] + cuts[:40]:
        part = IdentitySpace(d, space.perms, basis, ctx)
        answers.append(_contains_reference(part, sgn))
        assert part.contains_standard() == answers[-1]
    assert not all(answers)


@pytest.mark.parametrize("d", range(2, 7))
def test_seminormal_form_is_a_representation(d):
    # each rho_l(s_i) is an involution, s_i s_(i+1) s_i = s_(i+1) s_i
    # s_(i+1), distant generators commute, and sum_l d_l^2 = d!
    from math import factorial

    from orepi.symmetric import _partitions, _seminormal, _times
    QQ = FieldCtx.rational()
    dims = []
    for shape in _partitions(d):
        n, gens, _ = _seminormal(shape, QQ)
        dims.append(n)
        one = [[int(i == j) for j in range(n)] for i in range(n)]

        def word(*idx):
            m = one
            for i in reversed(idx):
                m = _times(QQ, gens[i], m)
            return m
        for i in range(d - 1):
            assert word(i, i) == one
            if i + 2 < d:
                assert word(i, i + 1, i) == word(i + 1, i, i + 1)
            for j in range(i + 2, d - 1):
                assert word(i, j) == word(j, i)
    assert sum(n * n for n in dims) == factorial(d)


@pytest.mark.parametrize("ctx", [
    FieldCtx.rational(), FieldCtx.cyclotomic(12), FieldCtx.galois_prime(13),
    FieldCtx.rational_functions(("q",)),
], ids=["Q", "Q(z12)", "GF(13)", "Q(q)"])
def test_mat_mul_matches_dense_product(ctx, rng):
    # mat_mul multiplies payload matrices; the dense reference multiplies
    # Coeff matrices, and the product is compared entry by entry as values
    from conftest import random_coeff
    from orepi.matrep import mat_mul

    def sparse_matrix(n):
        return tuple(tuple(random_coeff(ctx, rng) if rng.random() < 0.5
                           else ctx.zero() for _ in range(n))
                     for _ in range(n))

    def payloads(m):
        return tuple(tuple(x.val for x in row) for row in m)
    for n in (1, 2, 3, 4):
        for _ in range(6):
            a, b = sparse_matrix(n), sparse_matrix(n)
            prod = mat_mul(ctx, payloads(a), payloads(b))
            assert not any(isinstance(x, Coeff) for row in prod for x in row)
            assert tuple(tuple(Coeff(ctx, x) for x in row) for row in prod) \
                == _mat_mul_dense(a, b)


@pytest.mark.parametrize("d", [0, -1])
def test_degree_below_one_is_typed(m2, d):
    from orepi.errors import DegreeTooSmall, OrepiError
    with pytest.raises(DegreeTooSmall) as exc:
        multilinear_identity_search(m2, d)
    assert isinstance(exc.value, OrepiError)


@pytest.mark.parametrize("d", ["0", "-1"])
def test_cli_degree_below_one_reports_error(d):
    from orepi.cli import run_command
    code, doc = run_command(["identity-search", "--algebra", "m2",
                             "--degree", d])
    assert code == 1
    [check] = doc["checks"]
    assert check["status"] == "error"
    assert check["detail"].startswith("DegreeTooSmall")

