"""Centrality, candidate sets, automorphism order, fixed rings, spanning."""

import random
from collections import Counter
from itertools import product
from math import lcm, prod
from operator import add, le

import pytest

from orepi import (
    CentralSet,
    FieldCtx,
    NCPoly,
    Presentation,
    RewriteRule,
    build_family,
    center,
    central_candidates,
    coeff_to_str,
    downup_center_generators,
    fields,
    fixed_polynomials,
    gwa_auto_order,
    is_central,
    multiply,
    normal_form,
    pi_decide,
    spanning_check,
    spec_bh,
    spec_bqf,
    spec_downup,
    spec_hpq,
    spec_m2,
    spec_quantum_plane,
    spec_three_cyclic,
    spec_uqb2,
    spec_weyl,
)
from orepi.center import (
    OMEGA_EXPONENT_BOUND,
    _downup_roots,
    central_products,
    cp_pow,
    downup_from_xy,
    downup_phi,
    exact_sqrt,
    irreducible_words,
)
from orepi.cli import run_command
from orepi.errors import (
    BetaZero,
    DegreeTooSmall,
    HypothesisNotMet,
    NonConfluentPresentation,
    PreconditionViolation,
    RootsRequired,
    TrivialCenter,
)
from orepi.linalg import SpanTracker
from orepi.rewrite import word_poly

from conftest import random_coeff
from test_rewrite import (
    LEFT_FIELDS,
    confluent_zoo,
    confluent_zoo_specs,
    family_zoo_specs,
)


def test_z_central_in_uqb2_symbolic(rat_q):
    U = build_family(spec_uqb2(rat_q, rat_q.param("q")))
    ok, witness = is_central(U, word_poly(U, "z"))
    assert ok and witness is None


def test_t_not_central_in_symbolic_h(rat_pq):
    H = build_family(spec_hpq(rat_pq, rat_pq.param("p"), rat_pq.param("q")))
    ok, witness = is_central(H, word_poly(H, "t"))
    assert not ok
    assert witness[0] == "x"
    assert not witness[1].is_zero()


def test_x6_central_in_h_at_roots(cyclo3):
    H = build_family(spec_hpq(cyclo3, cyclo3.from_int(-1),
                              cyclo3.generator()))
    x6 = NCPoly.monomial(cyclo3.one(), (H.gen("x"),) * 6)
    assert is_central(H, x6)[0]


def test_non_confluent_presentation_rejected(QQ):
    from orepi import spec_biquad3
    z = QQ.zero()
    spec = spec_biquad3(QQ, (QQ.from_int(2), QQ.from_int(3), QQ.from_int(5)),
                        ((z, z, z), (z, z, z), (QQ.one(), z, z)), (z, z, z))
    p = build_family(spec)
    with pytest.raises(NonConfluentPresentation):
        is_central(p, word_poly(p, "x1"))


def test_uqb2_candidates_need_order_five(cyclo3):
    with pytest.raises(HypothesisNotMet):
        central_candidates(spec_uqb2(cyclo3, cyclo3.generator()))


def test_m2_candidates_use_lcm(cyclo12):
    z3 = cyclo12.root_of_unity(3)
    z4 = cyclo12.root_of_unity(4)
    cs = central_candidates(spec_m2(cyclo12, z3, z4))
    assert cs.names() == ["X11^12", "X12^12", "X21^12", "X22^12"]


def test_bqf_candidate_routes(cyclo3):
    z3 = cyclo3.generator()
    cs = central_candidates(spec_bqf(cyclo3, z3, (cyclo3.zero(),
                                                  cyclo3.one())))
    assert cs.names() == ["u^3", "v^3"]
    f3 = (cyclo3.zero(),) * 3 + (cyclo3.one(),)
    cs2 = central_candidates(spec_bqf(cyclo3, z3, f3))
    assert set(cs2.names()) == {"u^3", "v^3", "f(u)", "f(v)", "w^3"}
    with pytest.raises(HypothesisNotMet):
        central_candidates(spec_bqf(cyclo3, z3, (cyclo3.zero(),) * 8
                                    + (cyclo3.one(),)))


def test_char_p_route_and_its_boundary():
    g3 = FieldCtx.galois_prime(3)
    # the corrected instance: f = t^2, q = -1 over GF(3)
    spec = spec_bqf(g3, g3.from_int(-1), (g3.zero(), g3.zero(), g3.one()))
    p = build_family(spec)
    cs = central_candidates(spec)
    assert {"u^2", "v^2"} <= set(cs.names())
    assert all(is_central(p, el)[0] for _, el in cs)
    # f = t with q = -1 fails the n | (j+1) hypothesis, and u^2 really is
    # not central there (w u^2 - u^2 w = 2 v u != 0 in GF(3))
    bad = spec_bqf(g3, g3.from_int(-1), (g3.zero(), g3.one()))
    with pytest.raises(HypothesisNotMet):
        central_candidates(bad)
    pb = build_family(bad)
    u2 = NCPoly.monomial(g3.one(), (pb.gen("u"),) * 2)
    ok, witness = is_central(pb, u2)
    assert not ok and witness[0] == "w"


def test_central_closure_under_products(cyclo3):
    spec = spec_m2(cyclo3, cyclo3.generator(), cyclo3.generator())
    p = build_family(spec)
    cs = central_candidates(spec)
    a = cs.elements[0][1]
    b = cs.elements[3][1]
    assert is_central(p, multiply(p, a, b))[0]
    assert is_central(p, a + b)[0]


# -- automorphism order ------------------------------------------------------


def test_gwa_order_case_table(QQ):
    i = QQ.from_int
    assert gwa_auto_order(QQ, i(2), i(-1), i(1)).case == "RepeatedRoot1"
    assert gwa_auto_order(QQ, i(2), i(-1), i(0)).case == "RepeatedRoot1"
    r = gwa_auto_order(QQ, i(0), i(1), i(0))
    assert r.finite and r.order == 2
    assert gwa_auto_order(QQ, i(-2), i(-1), i(0)).case == \
        "RepeatedRootJordanBlock"
    assert gwa_auto_order(QQ, i(0), i(1), i(1)).case == "Lambda1GammaNonzero"
    assert gwa_auto_order(QQ, i(3), i(-2), i(0)).case == \
        "DistinctRootsNotUnity"  # roots 1, 2 with gamma = 0


def test_gwa_order_lcm(cyclo12):
    lam = cyclo12.root_of_unity(3)
    mu = cyclo12.root_of_unity(4)
    r = gwa_auto_order(cyclo12, lam + mu, -(lam * mu), cyclo12.one(),
                       roots=(lam, mu))
    assert r.finite and r.order == 12


def test_gwa_order_errors(QQ):
    i = QQ.from_int
    with pytest.raises(BetaZero):
        gwa_auto_order(QQ, i(1), i(0), i(0))
    with pytest.raises(RootsRequired):
        gwa_auto_order(QQ, i(1), i(1), i(0))  # discriminant 5


@pytest.mark.parametrize("wrong,message", [
    (lambda m: m + 1, "case table gave a wrong finite order"),
    (lambda m: 2 * m, "finite order is not minimal"),
], ids=["not-an-order", "a-proper-multiple"])
def test_gwa_order_self_check(monkeypatch, wrong, message):
    # roots z12 and z12^-1 give phi of order 12; a case table that gave
    # 13 (phi^13 = phi) or 24 (phi^12 = id too) is caught on the orbit
    ctx = FieldCtx.cyclotomic(12)
    z = ctx.generator()
    args = (ctx, z + z.inv(), -ctx.one(), ctx.one())
    assert gwa_auto_order(*args).order == 12
    monkeypatch.setattr(center, "lcm", lambda *a: wrong(lcm(*a)))
    with pytest.raises(AssertionError, match=f"^{message}$"):
        gwa_auto_order(*args)


def _orbit_order(phi, bound):
    """The least k in 1..bound with phi^k = id, read off the orbit of x:
    phi^k(x) = x and phi^(k+1)(x) = y; None when there is none."""
    one = phi.ctx.one()
    x, y = {(1, 0): one}, {(0, 1): one}
    orbit = [x]
    for _ in range(bound + 1):
        orbit.append(phi.apply_poly(orbit[-1]))
    return next((k for k in range(1, bound + 1)
                 if orbit[k] == x and orbit[k + 1] == y), None)


def test_beta_zero_is_a_precondition_violation(QQ):
    # every spec entry point reports beta = 0 as DownUpNotNoetherian, a
    # PreconditionViolation; gwa_auto_order, which takes field values,
    # raises BetaZero, caught by the same class
    i = QQ.from_int
    with pytest.raises(PreconditionViolation):
        gwa_auto_order(QQ, i(1), i(0), i(0))


def test_wrong_roots_are_a_precondition_violation(QQ):
    # t^2 - t - 2 = (t - 2)(t + 1): the pair (3, -2) sums to alpha, but
    # minus its product is not beta
    i = QQ.from_int
    spec = spec_downup(QQ, i(1), i(2), i(0))
    assert downup_center_generators(spec, roots=(i(2), i(-1)))
    for call in (lambda r: gwa_auto_order(QQ, i(1), i(2), i(0), roots=r),
                 lambda r: downup_center_generators(spec, roots=r)):
        with pytest.raises(PreconditionViolation,
                           match=r"t\^2 - alpha t - beta"):
            call((i(3), i(-2)))


@pytest.mark.parametrize("p,abg,order,case", [
    (7, (2, -1, 0), 7, "RepeatedRoot1"),
    (7, (2, -1, 1), 7, "RepeatedRoot1"),
    (5, (4, -4, 0), 20, "RepeatedRootJordanBlock"),
    (7, (0, 1, 1), 14, "Lambda1GammaNonzero"),
])
def test_gwa_infinite_cases_need_characteristic_zero(p, abg, order, case):
    # over GF(p) these maps have finite order (a multiple of p), so the
    # characteristic-zero verdict "infinite" would be wrong: it is refused
    ctx = FieldCtx.galois_prime(p)
    a, b, g = (ctx.from_int(v) for v in abg)
    assert _orbit_order(downup_phi(ctx, a, b, g), order) == order
    with pytest.raises(PreconditionViolation, match=case):
        gwa_auto_order(ctx, a, b, g)
    with pytest.raises(PreconditionViolation, match=case):
        pi_decide(spec_downup(ctx, a, b, g))
    # the same scalars over Q keep the characteristic-zero case
    QQ = FieldCtx.rational()
    assert gwa_auto_order(QQ, *(QQ.from_int(v) for v in abg)).case == case


def test_gwa_finite_cases_over_galois_fields():
    # finite verdicts stay; they are checked by iterating phi
    ctx = FieldCtx.galois_prime(7)
    a, b, g = ctx.zero(), ctx.one(), ctx.zero()
    r = gwa_auto_order(ctx, a, b, g)
    assert r.finite and r.order == 2
    assert pi_decide(spec_downup(ctx, a, b, g)).verdict == "PI"


@pytest.mark.parametrize("make_ctx", [
    FieldCtx.rational,
    lambda: FieldCtx.cyclotomic(12),
    lambda: FieldCtx.galois_prime(13),
    lambda: FieldCtx.rational_functions(("q",)),
], ids=["Q", "Q(z12)", "GF(13)", "Q(q)"])
def test_downup_phi_is_a_ring_homomorphism(make_ctx, rng):
    # the orbit check of gwa_auto_order rests on this: phi is determined
    # by phi(x) and phi(y) because apply_poly keeps 1, sums and products
    ctx = make_ctx()
    one = {(0, 0): ctx.one()}

    def rand_poly():
        f = {(i, j): random_coeff(ctx, rng)
             for i in range(3) for j in range(3 - i)}
        return {m: c for m, c in f.items() if not c.is_zero()}

    for _ in range(15):
        al, be, ga = (random_coeff(ctx, rng) for _ in range(3))
        phi = downup_phi(ctx, al, be, ga)
        y = {(1, 0): be, (0, 1): al, (0, 0): ga}
        assert phi.apply_poly({(1, 0): ctx.one()}) == {(0, 1): ctx.one()}
        assert phi.apply_poly({(0, 1): ctx.one()}) == \
            {m: c for m, c in y.items() if not c.is_zero()}
        f, g = rand_poly(), rand_poly()
        fi, gi = phi.apply_poly(f), phi.apply_poly(g)
        assert phi.apply_poly(one) == one
        assert phi.apply_poly(fields._mp_add(f, g)) == fields._mp_add(fi, gi)
        assert phi.apply_poly(fields._mp_mul(f, g)) == fields._mp_mul(fi, gi)


def _same_roots(a, b):
    return (a[0] == b[0] and a[1] == b[1]) or (a[0] == b[1] and a[1] == b[0])


def _check_root_analysis(result, gamma):
    """The one root analysis behind a gwa_auto_order result: the orders of
    its roots, condition (5) as its finiteness, and the automorphism order
    as the lcm of the two orders."""
    lam, mu = result.roots
    assert result.orders == tuple(r.multiplicative_order()
                                  for r in result.roots)
    cond5 = (lam != mu and None not in result.orders
             and (gamma.is_zero() or not (lam.is_one() or mu.is_one())))
    assert result.finite == cond5
    if result.finite:
        assert result.order == lcm(*result.orders)


def _unit_root_pairs(n):
    """Q(zeta_N) and six pairs (lambda, mu) of its roots of unity."""
    ctx = FieldCtx.cyclotomic(n)
    e = ctx.unit_group_exponent()
    w = ctx.root_of_unity(e)
    rng = random.Random(n)
    pairs = [(1, e - 1)] + [(rng.randrange(e), rng.randrange(e))
                            for _ in range(5)]
    return ctx, [(w ** i, w ** j) for i, j in pairs]


@pytest.mark.parametrize("n", range(3, 13))
def test_roots_of_unity_found_without_hand_roots(n):
    # the roots lambda, mu of t^2 - alpha t - beta are found in Q(zeta_N)
    # when both are roots of unity, even where the discriminant has no
    # rational square root; the verdict matches the hand-supplied roots
    ctx, pairs = _unit_root_pairs(n)
    for lam, mu in pairs:
        alpha, beta = lam + mu, -(lam * mu)
        for gamma in (ctx.zero(), ctx.one()):
            got = gwa_auto_order(ctx, alpha, beta, gamma)
            want = gwa_auto_order(ctx, alpha, beta, gamma, roots=(lam, mu))
            assert (got.finite, got.order, got.case) == \
                (want.finite, want.order, want.case)
            assert _same_roots(got.roots, want.roots)
            _check_root_analysis(got, gamma)
            _check_root_analysis(want, gamma)
    # a root that is no root of unity and a discriminant with no rational
    # square root still need hand roots
    with pytest.raises(RootsRequired):
        gwa_auto_order(ctx, ctx.from_int(1), ctx.from_int(1), ctx.zero())


def test_downup_cyclo3_roots_are_cube_roots(cyclo3):
    # alpha = beta = -1: t^2 + t + 1 has the roots z3, z3^2 and a
    # discriminant of -3, which has no rational square root
    m1 = cyclo3.from_int(-1)
    z = cyclo3.generator()
    got = gwa_auto_order(cyclo3, m1, m1, cyclo3.zero())
    assert got.finite and got.order == 3
    assert _same_roots(got.roots, (z, z * z))
    spec = spec_downup(cyclo3, m1, m1, cyclo3.zero())
    auto = downup_center_generators(spec)
    hand = downup_center_generators(spec, roots=(z, z * z))
    assert auto.caps == hand.caps
    assert len(auto.elements) == len(hand.elements)


def _outcome(call):
    """A call's result, or the type of the OrepiError it raised."""
    try:
        return call()
    except (PreconditionViolation, RootsRequired, TrivialCenter) as e:
        return type(e)


@pytest.mark.parametrize("make_ctx", [
    lambda: FieldCtx.galois(2, (1, 1, 0, 1)),
    lambda: FieldCtx.cyclotomic(3),
    lambda: FieldCtx.rational_functions(("q",)),
], ids=["GF(8)", "Q(z3)", "Q(q)"])
def test_cp_pow_products_past_the_packing_threshold(make_ctx):
    # center's commutative polynomials hold Coeff values, so their
    # products stay the schoolbook loop past the size from which integer
    # numerators of rational functions are packed
    from orepi import fields
    from orepi.center import cp_pow
    ctx = make_ctx()
    one = ctx.one()
    c = ctx.param("q") if ctx.kind == "ratfunc" else ctx.generator()
    lin = {(1, 0): one, (0, 1): c, (0, 0): one}
    a, b = cp_pow(lin, 7, one), cp_pow(lin, 3, c)
    assert len(a) * len(b) >= fields._KRONECKER_MIN
    got = fields._mp_mul(a, b)
    want = {}
    for (i, j), u in a.items():
        for (k, m), v in b.items():
            key = (i + k, j + m)
            want[key] = want.get(key, ctx.zero()) + u * v
    want = {key: v for key, v in want.items() if not v.is_zero()}
    power = cp_pow(lin, 10, c)
    assert got.keys() == want.keys() == power.keys()
    assert all(got[key] == want[key] == power[key] for key in want)


@pytest.mark.parametrize("modulus", [(0, 1), (1, 1, 1), (1, 1, 0, 1)],
                         ids=["GF(2)", "GF(4)", "GF(8)"])
def test_downup_roots_in_characteristic_two(modulus):
    # t^2 - alpha t - beta cannot be solved by halving in GF(2^k); its
    # roots are found among the units, and an irreducible one has none
    ctx = FieldCtx.galois(2, modulus)
    k = len(modulus) - 1
    g = ctx.generator() if k > 1 else ctx.one()
    elements = [sum((g ** i for i, bit in enumerate(bits) if bit), ctx.zero())
                for bits in product((0, 1), repeat=k)]
    split = 0
    for alpha in elements:
        for beta in elements:
            if beta.is_zero():
                continue
            by_hand = [r for r in elements
                       if (r * r - alpha * r - beta).is_zero()]
            spec = spec_downup(ctx, alpha, beta, ctx.zero())
            if not by_hand:
                with pytest.raises(RootsRequired, match="no root"):
                    gwa_auto_order(ctx, alpha, beta, ctx.zero())
                with pytest.raises(RootsRequired, match="no root"):
                    downup_center_generators(spec)
                continue
            split += 1
            hand = (by_hand[0], alpha - by_hand[0])
            auto = _outcome(lambda: gwa_auto_order(ctx, alpha, beta, ctx.zero()))
            want = _outcome(lambda: gwa_auto_order(ctx, alpha, beta, ctx.zero(),
                                                   roots=hand))
            if isinstance(want, type):
                assert auto is want
            else:
                lam, mu = auto.roots
                assert lam + mu == alpha and -(lam * mu) == beta
                assert _same_roots(auto.roots, hand)
                assert (auto.finite, auto.order, auto.case) == \
                    (want.finite, want.order, want.case)
                _check_root_analysis(auto, ctx.zero())
                _check_root_analysis(want, ctx.zero())
            auto = _outcome(lambda: downup_center_generators(spec))
            want = _outcome(lambda: downup_center_generators(spec, roots=hand))
            if isinstance(want, type):
                assert auto is want
            else:
                assert auto.caps == want.caps
                assert len(auto.elements) == len(want.elements)
    # a split quadratic is fixed by its two nonzero roots, equal or not
    q = 2 ** k
    assert split == q * (q - 1) // 2


def test_exact_sqrt(QQ, cyclo12):
    assert exact_sqrt(QQ.from_int(4)) == QQ.from_int(2)
    assert exact_sqrt(QQ.from_int(5)) is None
    # sqrt(-4) = 2i in a field with a 4th root of unity
    v = exact_sqrt(cyclo12.from_int(-4))
    assert v is not None and v * v == cyclo12.from_int(-4)


def _small_galois_fields(max_size):
    """One GF(p^k) for each p^k <= max_size the field class takes (p <=
    101, k <= 6), with the first monic irreducible modulus in counting
    order."""
    fields = []
    for p in (n for n in range(2, 102) if all(n % d for d in range(2, n))):
        for k in range(1, 7):
            if p ** k > max_size:
                break
            for code in range(p ** k):
                try:
                    low = [code // p ** i % p for i in range(k)]
                    fields.append(FieldCtx.galois(p, low + [1]))
                    break
                except ValueError:  # a reducible modulus
                    continue
    return fields


def test_galois_sqrt_matches_exhaustive_search():
    # the reference is an exhaustive search over the units: squares
    # and non-squares alike
    fields = _small_galois_fields(343)
    assert len(fields) == 26 + 16
    for ctx in fields:
        squares = {}
        for r in ctx.units():
            squares.setdefault((r * r).val, r)
        q = ctx.unit_group_exponent() + 1
        assert len(squares) == (q - 1 if ctx.char == 2 else (q - 1) // 2)
        assert exact_sqrt(ctx.zero()) == ctx.zero()
        for c in ctx.units():
            root = exact_sqrt(c)
            if c.val in squares:
                assert root is not None and root * root == c, (ctx, c)
            else:
                assert root is None, (ctx, c)


def test_galois_sqrt_beyond_the_old_search_bound():
    F = FieldCtx.galois(101, (1, 1, 0, 1))
    a = F.generator()
    c = (a + 3) ** 2
    root = exact_sqrt(c)
    assert root in (a + 3, -(a + 3))
    # 2 is no square mod 101 (101 = 5 mod 8), nor in the odd-degree
    # extension GF(101^3)
    assert exact_sqrt(2 * c) is None
    # t^2 - 9t - 10 has discriminant 121 and roots -1 and 10 (orders 2
    # and 4): they are found, and give the verdict the supplied roots give
    al, be = F.from_int(9), F.from_int(10)
    found = gwa_auto_order(F, al, be, F.zero())
    given = gwa_auto_order(F, al, be, F.zero(),
                           roots=(F.from_int(-1), F.from_int(10)))
    assert (found.finite, found.order) == (given.finite, given.order) == \
        (True, 4)
    assert {coeff_to_str(r) for r in found.roots} == {"100", "10"}


# -- fixed polynomials -------------------------------------------------------


def test_fixed_polynomials_swap(QQ):
    swap = downup_phi(QQ, QQ.zero(), QQ.one(), QQ.zero())  # x <-> y
    basis = fixed_polynomials(swap, 1)
    assert len(basis) == 2  # constants and x + y
    assert any(set(f) == {(1, 0), (0, 1)} and f[(1, 0)] == f[(0, 1)]
               for f in basis)


def test_fixed_polynomials_downup_remark_case(QQ):
    # alpha + beta = 1, gamma = 0, mu = -2 not a root of unity:
    # beta x + y is fixed
    phi = downup_phi(QQ, QQ.from_int(-1), QQ.from_int(2), QQ.zero())
    basis = fixed_polynomials(phi, 1)
    hits = [f for f in basis if (1, 0) in f]
    assert len(hits) == 1
    f = hits[0]
    assert f[(1, 0)] / f[(0, 1)] == QQ.from_int(2)


def test_fixed_polynomials_casimir(QQ):
    phi = downup_phi(QQ, QQ.from_int(2), QQ.from_int(-1), QQ.one())
    basis = fixed_polynomials(phi, 2)
    nonconst = [f for f in basis if set(f) != {(0, 0)}]
    assert len(nonconst) == 1
    # phi really fixes it
    assert phi.apply_poly(nonconst[0]) == nonconst[0]


def test_fixed_outputs_are_fixed(QQ, rng):
    phi = downup_phi(QQ, QQ.from_int(3), QQ.from_int(-2), QQ.from_int(5))
    for f in fixed_polynomials(phi, 3):
        assert phi.apply_poly(f) == f


# -- down-up center generators ----------------------------------------------


def test_downup_generators_three_listed_cases(QQ, cyclo3):
    i = QQ.from_int
    z3 = cyclo3.generator()
    # lambda = 1, mu = z3, gamma = 1 -> k[omega^3]
    spec = spec_downup(cyclo3, cyclo3.one() + z3, -z3, cyclo3.one())
    cs = downup_center_generators(spec, roots=(cyclo3.one(), z3))
    p = build_family(spec)
    assert cs.names() == ["omega^3"]
    assert all(is_central(p, el)[0] for _, el in cs)
    # lambda = mu = 1, gamma = 0 -> omega = du - ud
    spec2 = spec_downup(QQ, i(2), i(-1), i(0))
    cs2 = downup_center_generators(spec2)
    p2 = build_family(spec2)
    assert cs2.names() == ["omega^1"]
    du_ud = cs2.elements[0][1]
    assert du_ud == NCPoly({p2.word("d", "u"): QQ.one(),
                            p2.word("u", "d"): -QQ.one()})
    assert is_central(p2, du_ud)[0]
    # alpha + beta = 1, gamma = 0, mu = -1 -> {w2 = omega_lambda,
    # w1^2 = omega_mu^2, u^2, d^2}
    spec3 = spec_downup(QQ, i(0), i(1), i(0))
    cs3 = downup_center_generators(spec3)
    p3 = build_family(spec3)
    assert set(cs3.names()) == {"w1^0*w2^1", "w1^2*w2^0", "u^2", "d^2"}
    assert all(is_central(p3, el)[0] for _, el in cs3)
    # omega_lambda = beta ud + du
    w2 = dict(cs3.elements)["w1^0*w2^1"]
    assert w2 == NCPoly({p3.word("u", "d"): QQ.one(),
                         p3.word("d", "u"): QQ.one()})


def test_downup_trivial_center(QQ):
    # lambda = 1, gamma != 0, mu = 2 not a root of unity
    with pytest.raises(TrivialCenter):
        downup_center_generators(spec_downup(QQ, QQ.from_int(3),
                                             QQ.from_int(-2), QQ.one()))


def _downup_instances():
    """(spec, roots handed to the call, or None) for every DownUp instance
    of the family zoos and of the root sweeps above, over Q, Q(zeta_N),
    GF(p^k) in characteristic 2 and others, and Q(q), where the roots q,
    1/q give a central w1 w2 and the roots q, q^2 none.  The sweep of
    Q(zeta_N) takes the levels whose roots of unity have order at most 8:
    a central set at order 22 takes a minute to build and check."""
    out = []
    for n in (3, 4, 6, 8):
        ctx, pairs = _unit_root_pairs(n)
        out += [(spec_downup(ctx, lam + mu, -(lam * mu), g), None)
                for lam, mu in pairs for g in (ctx.zero(), ctx.one())]
    specs = family_zoo_specs() + [c.values[0] for c in _root_cases()]
    specs += [s for ctx in LEFT_FIELDS.values()
              for s in confluent_zoo_specs(ctx)]
    out += [(s, None) for s in specs if s.family == "DownUp"]
    for modulus in ((0, 1), (1, 1, 1), (1, 1, 0, 1)):
        ctx = FieldCtx.galois(2, modulus)
        units = list(ctx.units())
        out += [(spec_downup(ctx, lam + mu, -(lam * mu), ctx.zero()), None)
                for k, lam in enumerate(units) for mu in units[k:]]
    rq = FieldCtx.rational_functions(("q",))
    q = rq.param("q")
    out += [(spec_downup(rq, lam + mu, -(lam * mu), g), (lam, mu))
            for lam, mu in ((q, q.inv()), (q, q * q))
            for g in (rq.zero(), rq.one())]
    # trivial centers over Q: lambda = 1 with gamma != 0 and mu = 2, and
    # the repeated root 2
    QQ = FieldCtx.rational()
    out += [(spec_downup(QQ, *map(QQ.from_int, abg)), None)
            for abg in ((3, -2, 1), (4, -4, 0))]
    return out


def _exponents(name):
    """The exponent vector of an omega-monomial's name."""
    return tuple(int(part.split("^")[1]) for part in name.split("*"))


def _scalar_multiple(a, b):
    """Is a = c b for a nonzero scalar c?"""
    w = next(iter(b.vals))
    c = a.coeff(w)
    return c is not None and a == b.scale(c / b.coeff(w))


def _decompositions(listed, bound):
    """Each sum of listed vectors with entries at most bound, mapped to
    one tuple of listed vectors that adds up to it."""
    zero = (0,) * len(listed[0])
    out, stack = {zero: ()}, [zero]
    while stack:
        e = stack.pop()
        for f in listed:
            g = tuple(map(add, e, f))
            if max(g) <= bound and g not in out:
                out[g] = out[e] + (f,)
                stack.append(g)
    return out


def test_downup_central_sets_are_minimal_and_generate_the_full_search():
    # the omega-monomials listed are central and minimal, and they generate
    # every central omega-monomial of the whole exponent box: each is a
    # scalar multiple of a product of listed ones; the test builds phi's
    # eigenvectors in a scaling of its own
    kinds = Counter()
    for spec, roots in _downup_instances():
        ctx, one = spec.ctx, spec.ctx.one()
        al, be, ga = (spec.params[k] for k in ("alpha", "beta", "gamma"))
        lam, mu, ml, mm = _downup_roots(ctx, al, be, roots)
        p = build_family(spec)
        if lam == mu == one and not ga.is_zero():
            cs = downup_center_generators(spec, roots=roots)
            assert set(cs.names()) == {"casimir"} and cs.caps is None
            assert all(is_central(p, el)[0] for _, el in cs)
            kinds["casimir"] += 1
            continue
        nus = [mu] if lam == mu or (lam == one and not ga.is_zero()) \
            else [mu, lam]
        bound = OMEGA_EXPONENT_BOUND if None in (ml, mm) else lcm(ml, mm)
        full = [e for e in product(range(bound + 1), repeat=len(nus))
                if any(e) and prod((nu ** k for nu, k in zip(nus, e)),
                                   start=one) == one]
        cond5 = lam != mu and None not in (ml, mm) and \
            (ga.is_zero() or lam != one)
        if not (full or cond5):
            with pytest.raises(TrivialCenter):
                downup_center_generators(spec, roots=roots)
            kinds["trivial"] += 1
            continue
        cs = downup_center_generators(spec, roots=roots)
        powers = []
        if cond5:
            m = lcm(ml, mm)
            powers = [(f"u^{m}", p.word("u") * m), (f"d^{m}", p.word("d") * m)]
            assert cs.caps == dict.fromkeys("ud", m + min(map(sum, full)) - 1)
        else:
            assert cs.caps is None
        assert [(n, tuple(el.vals)) for n, el in cs][:len(powers)] == \
            [(n, (w,)) for n, w in powers]
        listed = {_exponents(n): el for n, el in cs.elements[len(powers):]}
        assert listed and set(listed) <= set(full)
        assert not any(f != e and all(map(le, f, e))
                       for e in listed for f in listed), cs.names()
        prefix = "w1^" if len(nus) == 2 else "omega^"
        assert all(n.startswith(prefix) for n in cs.names()[len(powers):])
        assert all(is_central(p, el)[0] for _, el in cs), spec.params

        phi = downup_phi(ctx, al, be, ga)
        omegas = []
        for nu in nus:
            w = {(1, 0): be, (0, 1): one} if nu == one else \
                {(1, 0): be * (nu - 1), (0, 1): nu * (nu - 1), (0, 0): ga * nu}
            w = {k: c for k, c in w.items() if not c.is_zero()}
            assert phi.apply_poly(w) == {k: nu * c for k, c in w.items()}
            omegas.append(w)

        def monomial(e):
            cp = {(0, 0): one}
            for w, k in zip(omegas, e):
                cp = fields._mp_mul(cp, cp_pow(w, k, one))
            return downup_from_xy(p, cp)
        assert all(_scalar_multiple(el, monomial(e))
                   for e, el in listed.items())
        # x = ud and y = du commute, so the omega-monomial of a sum of
        # listed vectors is a scalar multiple of the product of their
        # listed elements; checked outright up to degree 4
        x, y = (word_poly(p, *w) for w in ("ud", "du"))
        assert multiply(p, x, y) == multiply(p, y, x)
        sums = _decompositions(list(listed), bound)
        for e in full:
            if sum(e) > 4:
                assert e in sums
                continue
            product_of_listed = NCPoly.monomial(one, ())
            for f in sums[e]:
                product_of_listed = multiply(p, product_of_listed, listed[f])
            assert _scalar_multiple(product_of_listed, monomial(e)), e
        kinds[len(nus)] += 1
    assert all(kinds[k] for k in ("trivial", "casimir", 1, 2)), kinds


# -- spanning ----------------------------------------------------------------


def _brute_force_words(p, max_len):
    """Every word of length <= max_len in which no left-hand side occurs,
    shortest first and lexicographic within a length."""
    lhss = [r.lhs for r in p.rules]
    return [w for n in range(max_len + 1)
            for w in product(range(len(p.names)), repeat=n)
            if not any(w[s:s + len(l)] == l
                       for l in lhss for s in range(len(w)))]


def _reference_spanning(p, centrals, caps, degree):
    """(ok, rank, missing, degree) with each row straightened from
    scratch: multiply(p, c, m) for every central product c and every
    residual monomial m, and every word swept for membership.  The
    tracker takes payload rows, so each product is unwrapped here."""
    one = p.ctx.one().val
    cap = [caps[name] for name in p.names]
    words = _brute_force_words(p, degree)
    residuals = [w for w in words
                 if all(w.count(g) < cap[g] for g in range(len(p.names)))]
    tracker = SpanTracker(p.order_key, p.ctx)
    for m in residuals:
        tracker.insert({m: one})
    for cpoly in central_products(p, centrals, degree):
        base = min(map(len, cpoly.terms))
        for m in residuals:
            if base + len(m) > degree:
                continue
            row = multiply(p, cpoly, NCPoly.monomial(p.one, m))
            if not row.is_zero():
                tracker.insert({w: c.val for w, c in row.terms.items()})
    missing = [w for w in words if not tracker.contains({w: one})]
    return not missing, tracker.rank, missing, degree


def _same_report(p, cs, caps, degree):
    r = spanning_check(p, cs, caps, degree)
    assert (r.ok, r.rank, r.missing, r.degree) == \
        _reference_spanning(p, cs, caps, degree)
    assert r.caps == caps
    return r


def test_irreducible_words_downup(QQ):
    p = build_family(spec_downup(QQ, QQ.from_int(2), QQ.from_int(-1),
                                 QQ.one()))
    words = irreducible_words(p, 5)
    expected = sum(1 for i in range(6) for j in range(3) for k in range(6)
                   if i + 2 * j + k <= 5)
    assert len(words) == expected
    lhss = [r.lhs for r in p.rules]
    for w in words:
        assert not any(w[s:s + len(l)] == l
                       for l in lhss for s in range(len(w)))


@pytest.mark.parametrize("p", confluent_zoo(FieldCtx.rational()),
                         ids=lambda p: p.family)
def test_irreducible_words_brute_force(p):
    assert irreducible_words(p, 6) == _brute_force_words(p, 6)


def _wide_lhs_presentations(QQ):
    """Left sides of other lengths than the zoo's 2 and 3 letters: t -> 3
    beside y x -> 2 x y, and the self-overlapping y x y x -> 2 x x y y
    beside t y -> 3 y t."""
    two, three = QQ.from_int(2), QQ.from_int(3)
    x, y, t = 0, 1, 2
    names = ("x", "y", "t")
    return [Presentation(QQ, names, (1, 1, 1), names, [
                RewriteRule((y, x), [(two, (x, y))]),
                RewriteRule((t,), [(three, ())])]),
            Presentation(QQ, names, (1, 1, 1), names, [
                RewriteRule((y, x, y, x), [(two, (x, x, y, y))]),
                RewriteRule((t, y), [(three, (y, t))])])]


def test_irreducible_words_with_one_and_four_letter_left_sides(QQ):
    # the letters that may follow a word depend on its last (longest
    # left side - 1) letters: a table keyed on fewer lets y x y x through
    one_letter, four_letters = _wide_lhs_presentations(QQ)
    assert max(len(r.lhs) for r in four_letters.rules) == 4
    assert min(len(r.lhs) for r in one_letter.rules) == 1
    for p in (one_letter, four_letters):
        assert irreducible_words(p, 7) == _brute_force_words(p, 7)
    words = irreducible_words(four_letters, 7)
    assert (1, 0, 1) in words and (1, 0, 1, 0) not in words


def test_spanning_h_at_roots(cyclo3):
    spec = spec_hpq(cyclo3, cyclo3.from_int(-1), cyclo3.generator())
    p = build_family(spec)
    cs = central_candidates(spec)
    assert _same_report(p, cs, {"x": 6, "y": 6, "t": 2}, 8).ok


def _root_specs(ctx, q):
    """Each family with a candidate table, at the root of unity q."""
    i = ctx.from_int
    one = ctx.one()
    lam = ((one, one), (one, one))
    specs = [spec_quantum_plane(ctx, q), spec_m2(ctx, q, q), spec_bh(ctx, q),
             spec_bqf(ctx, q, (one,)), spec_weyl(ctx, (q, q), lam),
             spec_weyl(ctx, (q, q), lam, variant="aj"),
             spec_downup(ctx, i(0), one, i(0))]
    if q ** 2 != one:
        specs += [spec_hpq(ctx, i(-1), q),
                  spec_three_cyclic(ctx, q, one, i(2), i(3))]
    if q ** 3 == one:
        # roots of t^2 + t + 1, the cube roots of unity other than 1
        specs.append(spec_downup(ctx, i(-1), i(-1), i(0)))
    if q ** 5 == one:
        specs.append(spec_uqb2(ctx, q))
    return specs


def _root_cases():
    c3, c5 = FieldCtx.cyclotomic(3), FieldCtx.cyclotomic(5)
    QQ, g7 = FieldCtx.rational(), FieldCtx.galois_prime(7)
    g11 = FieldCtx.galois_prime(11)
    cases = []
    for ctx, q in ((c3, c3.generator()), (c5, c5.generator()),
                   (QQ, QQ.from_int(-1)), (g7, g7.from_int(2)),
                   (g11, g11.from_int(3))):
        for k, spec in enumerate(_root_specs(ctx, q)):
            cases.append(pytest.param(spec, id=f"{spec.family}{k}-{ctx!r}"))
    return cases


@pytest.mark.parametrize("spec", _root_cases())
def test_spanning_rows_match_rows_from_scratch(spec):
    cs = central_candidates(spec)
    caps = cs.caps
    degree = min(2 * max(caps.values()), 6)
    _same_report(build_family(spec), cs, caps, degree)


def test_spanning_fails_without_centrals(rat_q):
    p = build_family(spec_quantum_plane(rat_q, rat_q.param("q")))
    r = spanning_check(p, CentralSet([]), {"x": 2, "y": 2}, degree=2)
    assert not r.ok
    assert p.word("x", "x") in r.missing


def test_spanning_rejects_non_central_candidates(rat_pq):
    H = build_family(spec_hpq(rat_pq, rat_pq.param("p"), rat_pq.param("q")))
    fake = CentralSet([("t", word_poly(H, "t"))])
    with pytest.raises(HypothesisNotMet):
        spanning_check(H, fake, {"x": 2, "y": 2, "t": 2}, degree=4)


def test_spanning_negative_for_infinite_order_downup(QQ):
    # U(sl2): never finitely generated over a central subalgebra
    spec = spec_downup(QQ, QQ.from_int(2), QQ.from_int(-1), QQ.one())
    p = build_family(spec)
    cs = downup_center_generators(spec)
    for cap in (2, 3, 4):
        r = _same_report(p, cs, {"u": cap, "d": cap}, 6)
        assert not r.ok


def test_spanning_names_every_missing_cap(cyclo3):
    spec = spec_hpq(cyclo3, cyclo3.from_int(-1), cyclo3.generator())
    p = build_family(spec)
    cs = central_candidates(spec)
    with pytest.raises(PreconditionViolation) as exc:
        spanning_check(p, cs, {"y": 6}, degree=8)
    assert all(name in str(exc.value) for name in ("x", "t"))
    with pytest.raises(PreconditionViolation):
        spanning_check(p, cs, {})


def test_spanning_names_every_cap_for_no_generator(cyclo3):
    spec = spec_hpq(cyclo3, cyclo3.from_int(-1), cyclo3.generator())
    p = build_family(spec)
    cs = central_candidates(spec)
    with pytest.raises(PreconditionViolation) as exc:
        spanning_check(p, cs, {"x": 6, "y": 6, "t": 2, "u": 9, "v": 1},
                       degree=8)
    assert "u" in str(exc.value) and "v" in str(exc.value)


def test_default_degree_is_twice_cap_plus_two(rat_q):
    p = build_family(spec_quantum_plane(rat_q, rat_q.param("q")))
    r = spanning_check(p, CentralSet([]), {"x": 2, "y": 2})
    assert r.degree == 6


def test_spanning_negative_degree_is_typed(cyclo3):
    spec = spec_hpq(cyclo3, cyclo3.from_int(-1), cyclo3.generator())
    p = build_family(spec)
    cs = central_candidates(spec)
    caps = {"x": 6, "y": 6, "t": 2}
    with pytest.raises(DegreeTooSmall):
        spanning_check(p, cs, caps, degree=-1)
    r = spanning_check(p, cs, caps, degree=0)
    assert r.ok and r.rank == 1 and r.degree == 0
    code, doc = run_command(["spanning", "--family", "Hpq", "--field",
                             "cyclo:3", "--params", "p=-1,q=z3", "--caps",
                             "x=6,y=6,t=2", "--degree", "-1"])
    assert code == 1
    assert doc["checks"][0]["status"] == "error"
    assert doc["checks"][0]["detail"].startswith("DegreeTooSmall")


def test_spanning_with_constant_terms_in_centrals(QQ, cyclo3):
    # B_q(f) with f = 1 at q = -1: the candidates include f(u) = f(v) = 1,
    # whose constant terms used to stall the product walk forever
    spec = spec_bqf(QQ, QQ.from_int(-1), (QQ.one(),))
    cs = central_candidates(spec)
    assert ("f(u)", NCPoly.monomial(QQ.one(), ())) in cs.elements
    r = _same_report(build_family(spec), cs, {"u": 2, "v": 2, "w": 2}, 4)
    assert r.ok and r.rank == 35
    # a central with a constant term spans what it spans without it
    p = build_family(spec_quantum_plane(cyclo3, cyclo3.generator()))
    one = cyclo3.one()
    x3 = NCPoly.monomial(one, p.word("x", "x", "x"))
    y3 = NCPoly.monomial(one, p.word("y", "y", "y"))
    unit = NCPoly.monomial(one, ())
    caps = {"x": 3, "y": 3}
    plain = _same_report(p, CentralSet([("x^3", x3), ("y^3", y3)]), caps, 8)
    shifted = _same_report(p, CentralSet([("1+x^3", unit + x3),
                                          ("y^3", y3), ("1", unit)]), caps, 8)
    assert plain.ok and shifted.ok
    assert shifted.rank == plain.rank


def _criterion_4_checks():
    """The spanning checks of acceptance criterion 4 and one of a DownUp
    algebra that is no finite module: (spec, centrals, caps, degree)."""
    c3, QQ = FieldCtx.cyclotomic(3), FieldCtx.rational()
    z = c3.generator()
    sd = spec_downup(QQ, QQ.from_int(2), QQ.from_int(-1), QQ.one())
    return [
        (spec_hpq(c3, c3.from_int(-1), z), None, {"x": 6, "y": 6, "t": 2}, 8),
        (spec_bh(QQ, QQ.from_int(-1)), None,
         {"x1": 8, "x2": 4, "y1": 8, "y2": 4}, 6),
        (spec_m2(c3, z, z), None,
         dict.fromkeys(("X11", "X12", "X21", "X22"), 3), 8),
        (sd, downup_center_generators(sd), {"u": 3, "d": 3}, 6),
    ]


@pytest.mark.parametrize("k", range(4), ids=["Hpq", "Bh", "M2", "DownUp"])
def test_spanning_ignores_the_order_and_scale_of_centrals(k, rng):
    spec, cs, caps, degree = _criterion_4_checks()[k]
    cs = cs or central_candidates(spec)
    p = build_family(spec)
    want = spanning_check(p, cs, caps, degree)
    assert want.ok == (spec.family != "DownUp")
    for _ in range(2):
        elements = list(cs)
        rng.shuffle(elements)
        scaled = []
        for name, el in elements:
            c = random_coeff(p.ctx, rng)
            scaled.append((name, el.scale(p.one if c.is_zero() else c)))
        r = spanning_check(p, CentralSet(scaled, cs.condition), caps, degree)
        assert (r.ok, r.rank, r.missing) == (want.ok, want.rank, want.missing)


def test_spanning_with_a_central_not_in_normal_form(cyclo3):
    # y^3 x^3 = x^3 y^3 at q = z3, written out in the order the rule
    # y x -> q x y rewrites: the products of the centrals put it on either
    # side of a multiply, and each is the normal form of the product
    p = build_family(spec_quantum_plane(cyclo3, cyclo3.generator()))
    one = cyclo3.one()
    x3, y3, yyyxxx = (NCPoly.monomial(one, p.word(*w)) for w in
                      ("xxx", "yyy", "yyyxxx"))
    caps = {"x": 3, "y": 3}
    written = CentralSet([("x^3", x3), ("y^3", y3), ("y^3x^3", yyyxxx)])
    normal = CentralSet([("x^3", x3), ("y^3", y3),
                         ("y^3x^3", multiply(p, x3, y3))])
    assert normal_form(p, yyyxxx) != yyyxxx
    products = central_products(p, written, 12)
    assert products == central_products(p, normal, 12)
    assert all(normal_form(p, c) == c for c in products)
    r = _same_report(p, written, caps, 12)
    assert r.ok
    assert r.rank == spanning_check(p, normal, caps, 12).rank


def test_spanning_rows_split_no_word_and_multiply_by_no_one(monkeypatch,
                                                             cyclo3):
    # each row is a generator times a row in normal form, so the
    # straightener takes it as it is: no redex search, and no product
    # with a coefficient equal to 1 (only rule coefficients multiply).
    # The straightener multiplies bare payloads with the field's own mul,
    # so the spy sits there; the presentation binds it when it is built.
    from orepi import center, rewrite
    inside, seen, built, products = [False], [], [], [0]
    field = type(cyclo3)
    real_left, real_split, real_mul = (center.left_multiply, rewrite._split,
                                       field.mul)
    one = cyclo3.one().val

    def left_multiply(*args):
        inside[0] = True
        built.extend(args[1])
        try:
            return real_left(*args)
        finally:
            inside[0] = False

    def split(p, word):
        if inside[0]:
            seen.append(("split", word))
        return real_split(p, word)

    def mul(self, a, b):
        if inside[0]:
            products[0] += 1
            if self.eq(a, one) or self.eq(b, one):
                seen.append(("mul", a, b))
        return real_mul(self, a, b)

    monkeypatch.setattr(center, "left_multiply", left_multiply)
    monkeypatch.setattr(rewrite, "_split", split)
    monkeypatch.setattr(field, "mul", mul)
    z3 = cyclo3.generator()
    spec = spec_m2(cyclo3, z3, z3)
    caps = {"X11": 3, "X12": 3, "X21": 3, "X22": 3}
    r = spanning_check(build_family(spec), central_candidates(spec), caps, 9)
    assert r.ok and r.rank == 715
    assert len(built) == 600 and seen == []
    # the spy saw the straightener's products: the check is not vacuous
    assert products[0] > 0


def test_spanning_rows_build_and_unwrap_no_coeff(monkeypatch, cyclo3):
    # a spanning row stays a payload dict from the straightener to the
    # tracker: left_multiply, SpanTracker.insert and SpanTracker.contains
    # build no Coeff and unwrap none, apart from the payload of p.one (the
    # straightener's 1), which the straightener reads on each call
    from orepi import center
    from orepi.fields import Coeff
    slot = Coeff.__dict__["val"]
    inside, built, read, calls = [False], [], [], Counter()

    def spy(owner, name):
        real = getattr(owner, name)

        def wrapped(*args):
            # a left_multiply batch counts its rows
            calls[name] += len(args[1]) if name == "left_multiply" else 1
            was, inside[0] = inside[0], True
            try:
                return real(*args)
            finally:
                inside[0] = was
        monkeypatch.setattr(owner, name, wrapped)

    real_init = Coeff.__init__

    def init(self, ctx, val):
        if inside[0]:
            built.append(val)
        real_init(self, ctx, val)

    def get_val(self):
        if inside[0]:
            read.append(self)
        return slot.__get__(self, Coeff)

    spy(center, "left_multiply")
    spy(SpanTracker, "insert")
    spy(SpanTracker, "contains")
    monkeypatch.setattr(Coeff, "__init__", init)
    monkeypatch.setattr(Coeff, "val", property(get_val, slot.__set__))
    z3 = cyclo3.generator()
    spec = spec_m2(cyclo3, z3, z3)
    p = build_family(spec)
    caps = {"X11": 3, "X12": 3, "X21": 3, "X22": 3}
    r = spanning_check(p, central_candidates(spec), caps, 9)
    assert (r.ok, r.rank, r.missing) == (True, 715, [])
    assert calls["left_multiply"] == 600
    # the residual columns are dropped, not eliminated, and every dropped
    # row is independent here, so the rank proves the span full: one
    # insert per rank beyond the residuals, and no membership sweep
    residuals = [w for w in _brute_force_words(p, 9)
                 if all(w.count(g) < 3 for g in range(4))]
    assert calls["insert"] == r.rank - len(residuals) == 634
    assert calls["contains"] == 0
    assert built == []
    assert read and all(c is p.one for c in read)
