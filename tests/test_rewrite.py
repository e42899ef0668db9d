"""Normal forms, products, commutators, and confluence analysis."""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from orepi import (
    FieldCtx,
    NCPoly,
    Presentation,
    RewriteRule,
    build_family,
    multiply,
    normal_form,
    overlap_check,
    q_commutator,
    spec_bh,
    spec_biquad3,
    spec_bqf,
    spec_downup,
    spec_hpq,
    spec_m2,
    spec_quantum_plane,
    spec_three_cyclic,
    spec_uqb2,
    spec_weyl,
)
from orepi.errors import CtxMismatch, DownUpNotNoetherian, ZeroParameter
from orepi.fields import Coeff
from orepi.identities import biquad3_consistent_instance, pq_number
from orepi.presentations import FamilySpec, biquad3_conditions
from orepi.rewrite import (
    left_multiply,
    product_memo,
    specialize_poly,
    word_poly,
)

from conftest import random_coeff


def random_formal(p, rng, terms=3, max_len=4):
    out = []
    for _ in range(rng.randint(1, terms)):
        w = tuple(rng.randrange(len(p.names))
                  for _ in range(rng.randint(0, max_len)))
        out.append((random_coeff(p.ctx, rng), w))
    return out


@pytest.fixture
def H(rat_pq):
    return build_family(spec_hpq(rat_pq, rat_pq.param("p"), rat_pq.param("q")))


def test_normal_form_yx(H, rat_pq):
    nf = normal_form(H, word_poly(H, "y", "x").as_formal())
    assert nf == NCPoly({H.word("x", "y"): rat_pq.param("q"),
                         H.word("t"): rat_pq.one()})


def test_normal_form_yxx_matches_pq_number(H, rat_pq):
    p_, q_ = rat_pq.param("p"), rat_pq.param("q")
    nf = normal_form(H, word_poly(H, "y", "x", "x").as_formal())
    # yx^2 = q^2 x^2 y + [2]_{p,q} x t, and x t = p t x
    assert nf == NCPoly({H.word("x", "x", "y"): q_ ** 2,
                         H.word("t", "x"): pq_number(2, p_, q_) * p_})


def test_normal_form_irreducible_word_is_fixed(H, rat_pq):
    x = word_poly(H, "x")
    assert normal_form(H, x.as_formal()) == x


def test_normal_form_uqb2_e2e1(rat_q):
    U = build_family(spec_uqb2(rat_q, rat_q.param("q")))
    q2i = (rat_q.param("q") ** 2).inv()
    nf = normal_form(U, word_poly(U, "e2", "e1").as_formal())
    assert nf == NCPoly({U.word("e1", "e2"): q2i, U.word("e3"): -q2i})


def test_multiply_quantum_plane(rat_q):
    QP = build_family(spec_quantum_plane(rat_q, rat_q.param("q")))
    x, y = word_poly(QP, "x"), word_poly(QP, "y")
    assert multiply(QP, x, y) == NCPoly({QP.word("x", "y"): rat_q.one()})
    assert multiply(QP, y, x) == NCPoly({QP.word("x", "y"): rat_q.param("q")})
    # bilinearity: (x + y) x = x^2 + q x y
    assert multiply(QP, x + y, x) == NCPoly({
        QP.word("x", "x"): rat_q.one(),
        QP.word("x", "y"): rat_q.param("q")})


def test_commutator_examples(H, rat_pq):
    x, y = word_poly(H, "x"), word_poly(H, "y")
    assert q_commutator(H, y, x, rat_pq.param("q")) == \
        NCPoly({H.word("t"): rat_pq.one()})
    assert q_commutator(H, x, x, rat_pq.one()).is_zero()


def test_downup_nested_commutator_identity(QQ):
    # with lam, mu the roots of t^2 - alpha t - beta and gamma = 1:
    # [d, [d,u]_lam]_mu = d and [[d,u]_lam, u]_mu = u
    lam, mu = QQ.from_int(1), QQ.from_int(-1)
    al, be = lam + mu, -(lam * mu)
    p = build_family(spec_downup(QQ, al, be, QQ.one()))
    d, u = word_poly(p, "d"), word_poly(p, "u")
    inner = q_commutator(p, d, u, lam)
    assert q_commutator(p, d, inner, mu) == d
    assert q_commutator(p, inner, u, mu) == u


IDEMPOTENCE_CASES = 60


def family_zoo_specs():
    QQ = FieldCtx.rational()
    rpq = FieldCtx.rational_functions(("p", "q"))
    c12 = FieldCtx.cyclotomic(12)
    rq = FieldCtx.rational_functions(("q",))
    lam = ((rpq.one(), rpq.param("p")), (rpq.param("p").inv(), rpq.one()))
    return [
        spec_hpq(rpq, rpq.param("p"), rpq.param("q")),
        spec_bh(rq, rq.param("q")),
        spec_m2(rpq, rpq.param("p"), rpq.param("q")),
        spec_uqb2(rq, rq.param("q")),
        spec_weyl(rpq, (rpq.param("q"), rpq.param("q")), lam),
        spec_three_cyclic(rq, rq.param("q"), rq.one(), rq.from_int(2),
                          rq.from_int(3)),
        spec_downup(QQ, QQ.from_int(2), QQ.from_int(-1), QQ.one()),
        spec_bqf(rq, rq.param("q"), (rq.zero(), rq.one(), rq.one())),
        spec_quantum_plane(rq, rq.param("q")),
        biquad3_consistent_instance(c12, random.Random(7)),
    ]


def family_zoo():
    return [build_family(spec) for spec in family_zoo_specs()]


@pytest.mark.parametrize("p", family_zoo(),
                         ids=lambda p: p.family or "custom")
def test_idempotence_and_linearity(p, rng):
    for _ in range(IDEMPOTENCE_CASES):
        fa = random_formal(p, rng)
        fb = random_formal(p, rng)
        nfa = normal_form(p, fa)
        assert normal_form(p, nfa.as_formal()) == nfa
        assert normal_form(p, fa + fb) == nfa + normal_form(p, fb)


@pytest.mark.parametrize("p", [f for f in family_zoo()],
                         ids=lambda p: p.family or "custom")
def test_associativity_on_confluent_families(p, rng):
    assert overlap_check(p).confluent
    for _ in range(12):
        a = normal_form(p, random_formal(p, rng, terms=2, max_len=3))
        b = normal_form(p, random_formal(p, rng, terms=2, max_len=3))
        c = normal_form(p, random_formal(p, rng, terms=2, max_len=3))
        assert multiply(p, multiply(p, a, b), c) == \
            multiply(p, a, multiply(p, b, c))


def test_bh_grading_preserved(rng, rat_q):
    # every defining relation is degree-homogeneous
    p = build_family(spec_bh(rat_q, rat_q.param("q")))
    for _ in range(40):
        L = rng.randint(1, 6)
        w = tuple(rng.randrange(4) for _ in range(L))
        nf = normal_form(p, [(rat_q.one(), w)])
        assert all(len(m) == L for m in nf.terms)


def test_overlap_check_hpq(H, rat_pq):
    rep = overlap_check(H)
    assert rep.confluent
    assert len(rep.pairs) == 1
    cp = rep.pairs[0]
    assert cp.word == H.word("y", "x", "t")
    # both one-step reducts meet at q t x y + t^2
    expected = NCPoly({H.word("t", "x", "y"): rat_pq.param("q"),
                       H.word("t", "t"): rat_pq.one()})
    assert cp.nf_a == expected and cp.nf_b == expected


def test_overlap_check_quantum_affine_space(QQ):
    # all tails zero, arbitrary units: scalar rules always resolve
    z = QQ.zero()
    spec = spec_biquad3(QQ, (QQ.from_int(2), QQ.from_int(3), QQ.from_int(5)),
                        ((z, z, z), (z, z, z), (z, z, z)), (z, z, z))
    assert overlap_check(build_family(spec)).confluent


def test_overlap_check_biquad3_violation(QQ):
    z = QQ.zero()
    spec = spec_biquad3(QQ, (QQ.from_int(2), QQ.from_int(3), QQ.from_int(5)),
                        ((z, z, z), (z, z, z), (QQ.one(), z, z)), (z, z, z))
    p = build_family(spec)
    rep = overlap_check(p)
    assert not rep.confluent
    bad = rep.failing()[0]
    assert bad.word == p.word("x3", "x2", "x1")
    # the x1^2 coefficient of the residual is the violated condition value
    assert bad.residual.coeff(p.word("x1", "x1")) is not None


def test_biquad3_conditions_match_engine_residual():
    # symbolic cross-check: residual coefficients == unit multiples of the
    # ten conditions
    names = ("q1", "q2", "q3", "a", "b", "c", "al", "be", "ga",
             "la", "mu", "nu", "b1", "b2", "b3")
    ctx = FieldCtx.rational_functions(names)
    P = {n: ctx.param(n) for n in names}
    spec = spec_biquad3(
        ctx, (P["q1"], P["q2"], P["q3"]),
        ((P["a"], P["b"], P["c"]), (P["al"], P["be"], P["ga"]),
         (P["la"], P["mu"], P["nu"])),
        (P["b1"], P["b2"], P["b3"]))
    p = build_family(spec)
    res = overlap_check(p).pairs[0].residual
    conds = dict(biquad3_conditions(spec))
    expected = {
        p.word("x1", "x3"): -(P["q2"] * conds["C2"]),
        p.word("x2", "x3"): -(P["q3"] * conds["C3"]),
        p.word("x1", "x2"): -(P["q1"] * conds["C1"]),
        p.word("x1", "x1"): conds["C4"],
        p.word("x2", "x2"): -conds["C5"],
        p.word("x3", "x3"): -conds["C6"],
        p.word("x1"): -conds["C7"],
        p.word("x2"): -conds["C8"],
        p.word("x3"): -conds["C9"],
        (): -conds["C10"],
    }
    assert set(res.terms) <= set(expected)
    for w, v in expected.items():
        got = res.coeff(w)
        if got is None:
            assert v.is_zero()
        else:
            assert got == v


def test_conditions_match_confluence_in_characteristic_two(rng):
    # the ten conditions were derived over a field with no characteristic
    # hypothesis; check the equivalence empirically over GF(16)
    from orepi.identities import (biquad3_consistent_instance,
                                  biquad3_violating_instance)
    ctx = FieldCtx.galois(2, (1, 1, 0, 0, 1))  # x^4 + x + 1
    for _ in range(6):
        spec = biquad3_consistent_instance(ctx, rng, root_order=15)
        assert all(v.is_zero() for _, v in biquad3_conditions(spec))
        assert overlap_check(build_family(spec)).confluent
        bad = biquad3_violating_instance(ctx, rng, root_order=15)
        assert not overlap_check(build_family(bad)).confluent


def test_containment_critical_pairs_synthetic(QQ):
    # rule lhs nested inside another lhs: handled and resolving
    names = ("x", "y")
    one = QQ.one()
    r_small = RewriteRule((1, 0), [(one, (0, 1))])          # yx -> xy
    r_big = RewriteRule((1, 0, 0), [(one, (0, 0, 1))])       # yxx -> xxy
    p = Presentation(QQ, names, (1, 1), names, [r_big, r_small])
    rep = overlap_check(p)
    kinds = {cp.kind for cp in rep.pairs}
    assert "containment" in kinds
    assert rep.confluent
    # and a non-resolving containment
    r_big2 = RewriteRule((1, 0, 0), [(QQ.from_int(2), (0, 0, 1))])
    p2 = Presentation(QQ, names, (1, 1), names, [r_big2, r_small])
    assert not overlap_check(p2).confluent


def test_specialization_commutes_with_normal_form(H, rng, cyclo3):
    assign = {"p": cyclo3.from_int(-1), "q": cyclo3.generator()}
    Hs = build_family(spec_hpq(cyclo3, assign["p"], assign["q"]))
    from orepi.errors import DenominatorVanishes
    done = 0
    while done < 20:
        fa = random_formal(H, rng)
        try:
            lhs = specialize_poly(normal_form(H, fa), assign, cyclo3)
            fa_spec = [(c.specialize(assign, cyclo3), w) for c, w in fa]
        except DenominatorVanishes:
            continue
        assert lhs == normal_form(Hs, fa_spec)
        done += 1


def _biquad3_family(R, q, s, t):
    # q1 = q2 = q3 = q with these tails and constants meets all ten
    # consistency conditions for every q, s and t
    i = R.from_int
    return spec_biquad3(R, (q, q, q),
                        ((s * (q - 1), t, i(0)), (i(5), i(1), t),
                         (i(0), i(5), s * (q - 1))), (s * t, i(2), 5 * s))


def _weyl_family(variant):
    def make(R, q1, q2, lam):
        one = R.one()
        return spec_weyl(R, (q1, q2), ((one, lam), (lam.inv(), one)),
                         variant=variant)
    return make


# family -> (its parameters over Q(params), the spec they give, the
# parameter that build_family requires nonzero, or None)
GENERIC_FAMILIES = {
    "Bh": (("h",), spec_bh, "h"),
    "Hpq": (("p", "q"), spec_hpq, "p"),
    "M2": (("a", "b"), spec_m2, "a"),
    "UqB2": (("q",), spec_uqb2, "q"),
    "WeylMalt": (("q1", "q2", "l"), _weyl_family("maltsiniotis"), "q1"),
    "WeylAJ": (("q1", "q2", "l"), _weyl_family("aj"), "q2"),
    "BiQuad3": (("q", "s", "t"), _biquad3_family, "q"),
    "ThreeCyclic": (("q", "a", "b"),
                    lambda R, q, a, b: spec_three_cyclic(R, q, a, b, R.one()),
                    "q"),
    "DownUp": (("a", "b", "g"), spec_downup, None),
    "Bqf": (("q", "c"),
            lambda R, q, c: spec_bqf(R, q, (R.zero(), c, R.one())), "q"),
    "QuantumPlane": (("q",), spec_quantum_plane, "q"),
}
SPECIALIZE_TARGETS = [FieldCtx.rational(), FieldCtx.cyclotomic(5),
                      FieldCtx.cyclotomic(12), FieldCtx.galois_prime(7),
                      FieldCtx.galois_prime(13)]


def _generic_spec(family):
    names, make, _ = GENERIC_FAMILIES[family]
    R = FieldCtx.rational_functions(names)
    return make(R, *map(R.param, names))


def _specialize_spec(spec, assign, target):
    """spec with every coefficient specialized at the point assign."""
    def at(x):
        if isinstance(x, tuple):
            return tuple(map(at, x))
        return x.specialize(assign, target)
    return FamilySpec(spec.family, target,
                      **{k: at(v) for k, v in spec.params.items()})


def _nonzero_value(ctx):
    """A strategy for nonzero values of ctx: small rationals, m zeta^k in
    Q(zeta_N), nonzero residues in GF(p)."""
    if ctx.kind == "galois":
        return st.integers(1, ctx.char - 1).map(ctx.from_int)
    m = st.integers(-3, 3).filter(bool)
    if ctx.kind == "cyclotomic":
        return st.tuples(m, st.integers(0, ctx.level - 1)).map(
            lambda mk: mk[0] * ctx.generator() ** mk[1])
    return st.tuples(m, st.integers(1, 4)).map(
        lambda nd: ctx.from_fraction(Fraction(*nd)))


@pytest.mark.parametrize("family", list(GENERIC_FAMILIES))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_specialization_commutes_with_normal_form_on_every_family(family,
                                                                  data):
    # from Q(params) to Q, Q(zeta_N) and GF(p), at a point where no
    # parameter vanishes (the inputs' denominators are monomials); every
    # generic presentation is confluent, so both sides are normal forms
    spec = _generic_spec(family)
    p = build_family(spec)
    assert p.is_confluent()
    target = data.draw(st.sampled_from(SPECIALIZE_TARGETS), label="target")
    assign = {name: data.draw(_nonzero_value(target), label=name)
              for name in p.ctx.params}
    ps = build_family(_specialize_spec(spec, assign, target))
    rng = random.Random(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    fa = random_formal(p, rng)
    fa_spec = [(c.specialize(assign, target), w) for c, w in fa]
    assert specialize_poly(normal_form(p, fa), assign, target) == \
        normal_form(ps, fa_spec)


@pytest.mark.parametrize("family", list(GENERIC_FAMILIES))
def test_specialization_at_a_vanishing_unit_is_typed(family):
    names, _, unit = GENERIC_FAMILIES[family]
    spec = _generic_spec(family)
    for target in SPECIALIZE_TARGETS:
        # DownUp has no unit parameter; its beta = 0 has its own error
        zero = unit or "b"
        assign = {name: target.zero() if name == zero else target.from_int(2)
                  for name in names}
        with pytest.raises(ZeroParameter if unit else DownUpNotNoetherian):
            build_family(_specialize_spec(spec, assign, target))


def test_ctx_mismatch_rejected(H, rat_q):
    from orepi.errors import CtxMismatch
    with pytest.raises(CtxMismatch):
        normal_form(H, [(rat_q.one(), H.word("x"))])


# -- the straightener against the former heap strategy -------------------------


def heap_normal_form(p, formal):
    """Reference reducer: rewrite the term-order-largest reducible word at
    its leftmost redex, with the first matching rule, until none is left."""
    acc = {}

    def add(w, c):
        s = acc[w] + c if w in acc else c
        if s.is_zero():
            acc.pop(w, None)
        else:
            acc[w] = s

    def redex(w):
        for i in range(len(w)):
            for rule in p.rules:
                if w[i:i + len(rule.lhs)] == rule.lhs:
                    return i, rule
        return None

    for c, w in formal:
        add(tuple(w), c)
    while True:
        reducible = [w for w in acc if redex(w) is not None]
        if not reducible:
            return NCPoly(acc)
        w = max(reducible, key=p.order_key)
        i, rule = redex(w)
        c = acc.pop(w)
        for rc, rw in rule.rhs:
            add(w[:i] + rw + w[i + len(rule.lhs):], c * rc)


def fresh(call, *args):
    """call(*args) in a product memo of its own, so that every product it
    needs is missing: a presentation's own memo, which the unscoped calls
    of earlier tests warmed, is not read."""
    with product_memo():
        return call(*args)


def payloads(poly):
    """An NCPoly as the payload dict (word -> c.val) left_multiply takes."""
    return {w: c.val for w, c in poly.terms.items()}


def wrapped(p, terms):
    """A payload dict that left_multiply returns, as an NCPoly over p."""
    assert not any(isinstance(v, Coeff) for v in terms.values())
    return NCPoly({w: Coeff(p.ctx, v) for w, v in terms.items()})


def confluent_zoo_specs(ctx):
    """One instance of each of the 11 families, with small integer
    parameters that every test field accepts."""
    i = ctx.from_int
    m1 = -ctx.one()
    lam = ((i(1), i(2)), (i(2).inv(), i(1)))
    # q1 = q2 = q3 = -1 with mu = alpha, nu = a, gamma = b meets all ten
    # consistency conditions and leaves every tail nonzero
    biquad = spec_biquad3(ctx, (m1, m1, m1),
                          ((i(2), i(3), i(1)), (i(5), i(1), i(3)),
                           (i(4), i(5), i(2))), (i(1), i(2), i(3)))
    return [
        spec_bh(ctx, i(2)),
        spec_hpq(ctx, i(2), i(3)),
        spec_m2(ctx, i(2), i(3)),
        spec_uqb2(ctx, i(2)),
        spec_weyl(ctx, (i(2), i(3)), lam),
        spec_weyl(ctx, (i(2), i(3)), lam, variant="aj"),
        biquad,
        spec_three_cyclic(ctx, i(2), i(1), i(2), i(3)),
        spec_downup(ctx, i(2), i(-1), i(1)),
        spec_bqf(ctx, i(2), (i(0), i(1), i(1))),
        spec_quantum_plane(ctx, i(3)),
    ]


def confluent_zoo(ctx):
    return [build_family(spec) for spec in confluent_zoo_specs(ctx)]


ZOO_FIELDS = {
    "Q": FieldCtx.rational(),
    "Q(z12)": FieldCtx.cyclotomic(12),
    "GF(13)": FieldCtx.galois_prime(13),
}
ZOO = [pytest.param(p, id=f"{p.family}-{name}")
       for name, ctx in ZOO_FIELDS.items() for p in confluent_zoo(ctx)]
# every field kind: Q, a cyclotomic field, Q(params), a prime field and
# a proper extension of one
LEFT_FIELDS = dict(ZOO_FIELDS, **{
    "Q(q)": FieldCtx.rational_functions(("q",)),
    "GF(7^2)": FieldCtx.galois(7, (3, 1, 1)),
})
LEFT_ZOO = [pytest.param(p, id=f"{p.family}-{name}")
            for name, ctx in LEFT_FIELDS.items() for p in confluent_zoo(ctx)]


@pytest.mark.parametrize("p", LEFT_ZOO)
def test_straightener_matches_heap_strategy(p, rng):
    # the straightener computes on bare payloads: a number over Q, a
    # coordinate tuple over Q(z12) and the Galois fields, and a pair of
    # polynomial dicts over Q(q)
    assert overlap_check(p).confluent
    for _ in range(8):
        fa = random_formal(p, rng, terms=3, max_len=5)
        assert fresh(normal_form, p, fa) == heap_normal_form(p, fa)
        a = NCPoly({tuple(w): c for c, w in random_formal(p, rng, terms=2)
                    if not c.is_zero()})
        b = NCPoly({tuple(w): c for c, w in random_formal(p, rng, terms=2)
                    if not c.is_zero()})
        concat = [(ca * cb, wa + wb) for wa, ca in a.terms.items()
                  for wb, cb in b.terms.items()]
        assert fresh(multiply, p, a, b) == heap_normal_form(p, concat)
    # g*x^k for each rule g*x -> ...: along a one-term rule c*x*g each
    # product is c*x times the one before it, missing from a fresh memo,
    # and memoized before it in one scope
    chains = [[(random_coeff(p.ctx, rng), rule.lhs[:1] + rule.lhs[1:] * k)]
              for rule in p.rules for k in (1, 2, 3, 5)]
    for fa in chains:
        assert fresh(normal_form, p, fa) == heap_normal_form(p, fa)
    with product_memo():
        for fa in chains:
            assert normal_form(p, fa) == heap_normal_form(p, fa)


def test_multiply_accepts_non_normal_operands(rng, QQ):
    # the product is the normal form of the concatenation, also when the
    # right factor holds reducible words and the presentation is not
    # confluent (then the representative is the straightener's own)
    z = QQ.zero()
    bad = build_family(spec_biquad3(
        QQ, (QQ.from_int(2), QQ.from_int(3), QQ.from_int(5)),
        ((z, z, z), (z, z, z), (QQ.one(), z, z)), (z, z, z)))
    assert not overlap_check(bad).confluent
    for p in confluent_zoo(QQ) + [bad]:
        for _ in range(10):
            a = NCPoly({tuple(w): c for c, w in random_formal(p, rng, terms=2)
                        if not c.is_zero()})
            b = NCPoly({tuple(w): c for c, w in random_formal(p, rng, terms=3)
                        if not c.is_zero()})
            concat = [(ca * cb, wa + wb) for wa, ca in a.terms.items()
                      for wb, cb in b.terms.items()]
            assert fresh(multiply, p, a, b) == fresh(normal_form, p, concat)



@pytest.mark.parametrize("p", LEFT_ZOO)
def test_straightener_exact_with_a_one_that_is_not_the_shared_payload(
        p, rng, monkeypatch):
    # a coefficient equal to 1 whose payload is not p.one.val (over Q every
    # payload 1 is the one int): it is exact in the input, where it enters
    # as p.one.val, in the rows left_multiply takes and in a rule
    ctx = p.ctx
    a = random_coeff(ctx, rng)
    while a.is_zero():
        a = random_coeff(ctx, rng)
    unit = a * a.inv()
    assert unit == p.one
    if ctx.kind != "rational":
        assert unit.val is not p.one.val
    for _ in range(6):
        fa = [(unit if i % 2 else c, w) for i, (c, w)
              in enumerate(random_formal(p, rng, terms=4, max_len=5))]
        nf = fresh(normal_form, p, fa)
        assert nf == heap_normal_form(p, fa)
        row = {w: unit.val for w in nf.terms}
        g = rng.randrange(len(p.names))
        assert wrapped(p, fresh(left_multiply, p, [(g, row)])[0]) == \
            heap_normal_form(p, [(unit, (g,) + w) for w in row])
    # a rule whose coefficient 1 is not the object p.one
    q = Presentation(ctx, p.names, p.weights, p.precedence,
                     [RewriteRule(r.lhs, [(unit if c == p.one else c, w)
                                          for c, w in r.rhs])
                      for r in p.rules])
    fa = random_formal(p, rng, terms=4, max_len=5)
    assert normal_form(q, fa) == heap_normal_form(p, fa)
    # a product by the shared 1 gives back its payload p.one.val itself
    assert normal_form(p, [(p.one, (g,))]).vals[(g,)] is p.one.val
    # input coefficients equal to 1 cause no multiplication: a sum of
    # words with coefficient unit takes the products of the same sum with
    # coefficient p.one, each in a fresh memo, and none of them has
    # unit.val as a factor
    add, mul, is_zero = p.field_ops
    factors = []

    def counting(x, y):
        factors.append((x, y))
        return mul(x, y)

    monkeypatch.setattr(p, "field_ops", (add, counting, is_zero))
    words = [w for _, w in random_formal(p, rng, terms=4, max_len=5)]
    nf = fresh(normal_form, p, [(unit, w) for w in words])
    assert not any(x is unit.val or y is unit.val for x, y in factors)
    with_unit, factors[:] = len(factors), []
    assert fresh(normal_form, p, [(p.one, w) for w in words]) == nf
    assert len(factors) == with_unit


def merged_products(p, g, row):
    """g*row, a payload dict, as the terms of each g*u in row order, each
    g*u taken as it is or as its normal form, merged as they come in: a
    word keeps its first place until its terms cancel."""
    out = {}
    for u, c in row.items():
        for w, pc in normal_form(p, [(p.one, (g,) + u)]).terms.items():
            t = pc * Coeff(p.ctx, c)
            s = out[w] = out[w] + t if w in out else t
            if s.is_zero():
                del out[w]
    return out


@pytest.mark.parametrize("p", LEFT_ZOO)
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_left_multiply_matches_multiply(p, data):
    # a batch with repeated generators and rows, a generator that starts
    # no rule and an empty row: each result is g times its own row, and no
    # two rows merge.  With a fresh memo each product is missing; in one
    # scope, after half the batch, some are memoized, and then all of them
    rng = random.Random(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    n = len(p.names)
    idle = [g for g in range(n) if g not in p.by_first]
    g, h = (data.draw(st.integers(0, n - 1), label="generator")
            for _ in range(2))
    rows = [payloads(fresh(normal_form, p, random_formal(p, rng, terms=4,
                                                         max_len=5)))
            for _ in range(3)]
    before = [dict(row) for row in rows]
    pairs = [(g, rows[0]), (h, rows[1]), (g, rows[1]), (idle[0], rows[2]),
             (g, {}), (h, rows[0]), (g, rows[0])]
    want = [fresh(multiply, p, word_poly(p, p.names[g]),
                  NCPoly.from_payloads(p.ctx, row)) for g, row in pairs]
    assert want == [heap_normal_form(p, [(Coeff(p.ctx, c), (g,) + u)
                                         for u, c in row.items()])
                    for g, row in pairs]
    order = [list(merged_products(p, g, row)) for g, row in pairs]
    assert fresh(left_multiply, p, []) == []

    def check(out):
        assert len(out) == len(pairs)
        assert [wrapped(p, row) for row in out] == want
        assert [list(row) for row in out] == order
    check(fresh(left_multiply, p, pairs))
    with product_memo():
        left_multiply(p, pairs[::2])
        for _ in range(2):
            check(left_multiply(p, pairs))
    assert rows == before


@pytest.mark.parametrize("p", LEFT_ZOO)
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_q_commutator_matches_two_products(p, data):
    # one straightening of a*b - lam*b*a against two products and a
    # difference; lam = 1 half the time, the object the builder skips
    rng = random.Random(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    a = normal_form(p, random_formal(p, rng, terms=3, max_len=4))
    b = normal_form(p, random_formal(p, rng, terms=3, max_len=4))
    lam = p.one if data.draw(st.booleans(), label="lam=1") \
        else random_coeff(p.ctx, rng)
    assert fresh(q_commutator, p, a, b, lam) == \
        fresh(multiply, p, a, b) - fresh(multiply, p, b, a).scale(lam)


def sub_merge(x, y):
    """The payload items of x - y, merged over y's terms with the field's
    own sub: a word of y that x lacks comes last, negated."""
    ctx = x.ctx or y.ctx
    out = dict(x.vals)
    for w, c in y.vals.items():
        s = out[w] = ctx.sub(out[w], c) if w in out else ctx.neg(c)
        if ctx.is_zero(s):
            del out[w]
    return list(out.items())


@pytest.mark.parametrize("p", LEFT_ZOO)
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_difference_is_the_sum_with_the_negation(p, data):
    # a - b is a + (-b): the same payloads, written the same way, in the
    # key order of a merge that subtracts with the field's sub.  Half the
    # time b shares words with a, and a - a, a - 0 and 0 - b are taken
    # too, so terms cancel and the field of a zero operand comes from the
    # other
    rng = random.Random(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    a = normal_form(p, random_formal(p, rng, terms=4, max_len=4))
    b = normal_form(p, random_formal(p, rng, terms=4, max_len=4))
    if data.draw(st.booleans(), label="shared words"):
        b = b + a.scale(random_coeff(p.ctx, rng))
    zero = NCPoly.zero()
    for x, y in ((a, b), (b, a), (a, a), (a, zero), (zero, b), (zero, zero)):
        d = x - y
        assert type(d) is NCPoly and d.ctx is (x.ctx or y.ctx)
        assert repr(list(d.vals.items())) == repr(sub_merge(x, y))


@pytest.mark.parametrize("p", LEFT_ZOO)
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_a_warm_memo_gives_what_a_fresh_one_gives(p, data):
    # a memo entry is the normal form of its word under the one strategy,
    # so unscoped calls reading the products that other calls stored in
    # the presentation's memo return what a fresh memo gives: the same
    # words in the same order, with the same payloads
    rng = random.Random(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))

    def draw():
        return random_formal(p, rng, terms=4, max_len=5)
    fa = draw()
    a, b = (fresh(normal_form, p, draw()) for _ in range(2))
    lam = random_coeff(p.ctx, rng)
    g = rng.randrange(len(p.names))
    calls = [(normal_form, p, fa), (multiply, p, a, b),
             (q_commutator, p, a, b, lam), (left_multiply, p, [(g, a.vals)])]

    def items(out):
        return list((out[0] if isinstance(out, list) else out.vals).items())
    cold = [items(fresh(*call)) for call in calls]
    # other calls, on inputs that share words with these
    normal_form(p, fa[:1] + draw())
    multiply(p, b, a)
    q_commutator(p, b, normal_form(p, draw()), lam)
    left_multiply(p, [(h, b.vals) for h in range(len(p.names))])
    assert p.memo
    for _ in range(2):
        assert [items(call[0](*call[1:])) for call in calls] == cold


def test_threads_share_a_presentation_memo(rng):
    # four threads make unscoped calls on the presentations they share,
    # two in one order, so that they miss the same products at once and
    # both store them, and two in orders of their own, so that they read
    # entries the others store: every result is the dict, in the same key
    # order, that one thread gets on a freshly built presentation
    import sys
    import threading
    ctx = FieldCtx.rational_functions(("q",))
    families = ("Bh", "M2", "DownUp", "Bqf")
    specs = [s for s in confluent_zoo_specs(ctx) if s.family in families]
    fresh_specs = [s for s in confluent_zoo_specs(ctx) if s.family in families]
    jobs = []
    for spec, fresh_spec in zip(specs, fresh_specs):
        p = build_family(spec)
        for _ in range(6):
            fa = random_formal(p, rng, terms=4, max_len=6)
            a, b = (fresh(normal_form, p, random_formal(p, rng, terms=3))
                    for _ in range(2))
            jobs += [(p, fresh_spec, normal_form, (fa,)),
                     (p, fresh_spec, multiply, (a, b))]
    want = [list(call(build_family(fresh_spec), *args).vals.items())
            for _, fresh_spec, call, args in jobs]
    got = [[None] * len(jobs) for _ in range(4)]
    start = threading.Barrier(4, timeout=60)

    def work(t):
        order = list(range(len(jobs)))
        random.Random(max(t, 1)).shuffle(order)
        start.wait()
        for i in order:
            p, _, call, args = jobs[i]
            got[t][i] = list(call(p, *args).vals.items())

    threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(build_family(spec).memo for spec in specs)
    assert got == [want] * 4


class _PublishLog(dict):
    """A product memo that records each entry as it is inserted."""

    def __init__(self, one):
        super().__init__()
        self.one, self.published = one, {}

    def __setitem__(self, word, value):
        one = self.one
        assert not any(c is not one and c == one for c in value.values())
        self.published[word] = list(value.items())
        super().__setitem__(word, value)


@pytest.mark.parametrize("name", list(LEFT_FIELDS))
def test_memo_entries_are_published_finished(name, rng):
    # an entry enters a presentation's memo finished, its payloads equal
    # to 1 already the payload one, and is never changed after: another
    # thread may read it from the moment it is inserted
    for p in confluent_zoo(LEFT_FIELDS[name]):
        p.memo = log = _PublishLog(p.one.val)
        for _ in range(4):
            a, b = (normal_form(p, random_formal(p, rng, terms=4, max_len=5))
                    for _ in range(2))
            multiply(p, a, b)
            q_commutator(p, b, a, p.one)
            left_multiply(p, [(rng.randrange(len(p.names)), a.vals)])
        normal_form(p, [(p.one, rule.lhs[:1] + rule.lhs[1:] * 4 + (g,) * 3)
                        for rule in p.rules for g in p.inert])
        assert log and log.published.keys() == log.keys()
        assert all(list(log[w].items()) == items
                   for w, items in log.published.items())


def test_left_multiply_scans_no_word(monkeypatch, QQ):
    # every redex of g*u starts at g, so no word is searched for one
    from orepi import rewrite
    p = build_family(spec_hpq(QQ, QQ.from_int(2), QQ.from_int(3)))
    rows = [normal_form(p, [(QQ.from_int(5), p.word(*w))])
            for w in (("y", "x", "t"), ("y", "x"), ())] + [NCPoly.zero()]
    want = [[multiply(p, word_poly(p, name), row) for name in p.names]
            for row in rows]
    monkeypatch.setattr(rewrite, "_split", None)
    assert [[wrapped(p, out) for out in fresh(
        left_multiply, p, [(g, payloads(row)) for g in range(len(p.names))])]
        for row in rows] == want


def test_long_word_needs_no_deep_recursion(QQ):
    p = build_family(spec_quantum_plane(QQ, QQ.from_int(2)))
    n = 1200
    nf = normal_form(p, [(QQ.one(), p.word("y", *["x"] * n))])
    assert nf == NCPoly({p.word(*["x"] * n, "y"): QQ.from_int(2 ** n)})


# -- trailing runs of inert letters ---------------------------------------------

INERT = {"Bh": {"y2"}, "Hpq": {"y"}, "M2": {"X22"}, "UqB2": {"e2"},
         "WeylMalt": {"x2"}, "WeylAJ": {"x2"}, "BiQuad3": {"x3"},
         "ThreeCyclic": {"z"}, "DownUp": set(), "Bqf": {"w"},
         "QuantumPlane": {"y"}}


def test_inert_generators_of_every_family(QQ):
    # the last-adjoined generator of every family but DownUp is in no left
    # side past its first letter
    for p in confluent_zoo(QQ):
        assert {p.names[g] for g in p.inert} == INERT[p.family], p.family
        assert all(not p.inert & set(rule.lhs[1:]) for rule in p.rules)


def _run_cores(p, rng):
    """Words that trailing runs of an inert letter are appended to."""
    if p.family == "Bqf":
        return [p.word(*["w"] * rng.randint(1, 3), *["v"] * rng.randint(1, 4))
                for _ in range(3)]
    return [tuple(rng.randrange(len(p.names)) for _ in range(rng.randint(1, 4)))
            for _ in range(3)]


@pytest.mark.parametrize("p", [case for case in LEFT_ZOO
                               if case.values[0].inert])
def test_trailing_inert_runs_straighten_as_their_core(p, rng):
    # the normal form of core * run is the core's with the run appended:
    # the same words in the same order, with the same payloads, also when
    # the product memo of one scope already holds the core's products
    letter = max(p.inert)
    for core in _run_cores(p, rng):
        c = random_coeff(p.ctx, rng)
        if c.is_zero():
            c = p.one
        want = fresh(normal_form, p, [(c, core)]).vals
        with product_memo():
            for k in range(1, 7):
                run = (letter,) * k
                nf = normal_form(p, [(c, core + run)])
                assert list(nf.vals.items()) == \
                    [(w + run, v) for w, v in want.items()]
                if k in (1, 6):
                    assert nf == heap_normal_form(p, [(c, core + run)])


def test_a_last_letter_that_is_not_inert(QQ, rng):
    # Hpq with t adjoined last and still lowest in the term order: t
    # follows the first letter of two left sides, so a run of t rewrites
    two, three = QQ.from_int(2), QQ.from_int(3)
    x, y, t = 0, 1, 2
    p = Presentation(QQ, ("x", "y", "t"), (1, 1, 1), ("t", "x", "y"), [
        RewriteRule((x, t), [(two, (t, x))]),
        RewriteRule((y, t), [(two.inv(), (t, y))]),
        RewriteRule((y, x), [(three, (x, y)), (QQ.one(), (t,))]),
    ])
    assert p.is_confluent()
    assert p.inert == {y}
    for _ in range(6):
        word = tuple(rng.randrange(3) for _ in range(rng.randint(1, 4))) \
            + (t,) * rng.randint(2, 5)
        fa = [(random_coeff(QQ, rng), word)] + random_formal(p, rng)
        assert normal_form(p, fa) == heap_normal_form(p, fa)
    with product_memo():
        for k in range(1, 6):
            fa = [(QQ.one(), (y, x) + (t,) * k)]
            assert normal_form(p, fa) == heap_normal_form(p, fa)
    # a one-letter left side is not inert either
    one_letter = Presentation(QQ, ("x", "y", "t"), (1, 1, 1), ("x", "y", "t"),
                              [RewriteRule((y, x), [(two, (x, y))]),
                               RewriteRule((t,), [(three, ())])])
    assert one_letter.inert == {y}


def test_a_one_letter_left_side_rewrites_the_last_letter(QQ, rng):
    # t -> 3 rewrites every t, at the end of a word too: _split scans from
    # the last letter when some left side has one, from the one before it
    # when the shortest has two (every family but DownUp, whose have three)
    two, three = QQ.from_int(2), QQ.from_int(3)
    x, y, t = 0, 1, 2
    p = Presentation(QQ, ("x", "y", "t"), (1, 1, 1), ("x", "y", "t"),
                     [RewriteRule((y, x), [(two, (x, y))]),
                      RewriteRule((t,), [(three, ())])])
    assert p.min_lhs == 1 and p.is_confluent()
    assert {q.family: q.min_lhs for q in confluent_zoo(QQ)} == \
        dict.fromkeys(INERT, 2) | {"DownUp": 3}
    assert normal_form(p, [(QQ.one(), (t,))]) == NCPoly.monomial(three, ())
    assert normal_form(p, [(QQ.one(), (y, x, t, t))]) == \
        NCPoly.monomial(QQ.from_int(18), (x, y))
    for _ in range(8):
        word = tuple(rng.randrange(3) for _ in range(rng.randint(0, 4))) \
            + (t,) * rng.randint(1, 4)
        fa = [(random_coeff(QQ, rng), word)] + random_formal(p, rng)
        assert normal_form(p, fa) == heap_normal_form(p, fa)
    with product_memo():
        for k in range(1, 5):
            fa = [(QQ.one(), (y, t, x) + (t,) * k)]
            assert normal_form(p, fa) == heap_normal_form(p, fa)


def test_straightener_runs_per_wku_check(monkeypatch, QQ):
    # f = t + t^5: each product w*u*w^i is straightened once, at i = 0;
    # with p.inert emptied every product is keyed by its whole word
    from orepi import check_paper_identity
    from orepi import rewrite
    p = build_family(spec_bqf(QQ, QQ.from_int(3),
                              (QQ.zero(), QQ.one()) + (QQ.zero(),) * 3
                              + (QQ.one(),)))
    real = rewrite._straighten
    runs = Counter()

    def counting(*args):
        runs[bool(p.inert)] += 1
        return real(*args)

    monkeypatch.setattr(rewrite, "_straighten", counting)
    assert check_paper_identity("Bqf.wku", p, 4).all_pass
    monkeypatch.setattr(p, "inert", frozenset())
    assert check_paper_identity("Bqf.wku", p, 4).all_pass
    assert runs[True] < 2 * runs[False] / 3


# -- missing products without a straightener frame ---------------------------


def _without_plans(p):
    """p's rule table with every plan taken out: each missing product
    opens a straightener frame."""
    return {g: tuple((k, tail, rhs, None) for k, tail, rhs, _ in rules)
            for g, rules in p.by_first.items()}


def _planned_and_framed(monkeypatch, p, run):
    """run() with p's plans and without them, in a fresh product memo."""
    with product_memo():
        planned = run()
    with monkeypatch.context() as m:
        m.setattr(p, "by_first", _without_plans(p))
        with product_memo():
            framed = run()
    return planned, framed


@pytest.mark.parametrize("p", LEFT_ZOO)
def test_planned_products_equal_framed_products(p, rng, monkeypatch):
    # every family has a plan, and a planned product is the frame's dict:
    # the same words in the same order, with equal payloads, in normal
    # forms, products and rows, the later calls reading the memo the
    # earlier ones filled
    assert any(plan for rules in p.by_first.values()
               for _, _, _, plan in rules)
    inputs = [random_formal(p, rng, terms=4, max_len=6) for _ in range(6)]
    pairs = [(normal_form(p, rng.choice(inputs)),
              normal_form(p, rng.choice(inputs))) for _ in range(3)]

    def run():
        out = [normal_form(p, fa).vals for fa in inputs]
        out += [multiply(p, a, b).vals for a, b in pairs]
        out += left_multiply(p, [(g, a.vals) for a, _ in pairs
                                 for g in range(len(p.names))])
        return [list(vals.items()) for vals in out]

    planned, framed = _planned_and_framed(monkeypatch, p, run)
    assert planned == framed


def test_downup_plans_hold_two_letter_prefixes(QQ, rng, monkeypatch):
    # d*u*u -> al*u*d*u + be*u*u*d + ga*u: a redex begun at the d of
    # u*d*u needs one more u, at the d of u*u*d two more letters
    p = build_family(spec_downup(QQ, QQ.from_int(2), QQ.from_int(-1),
                                 QQ.from_int(1)))
    u, d = p.word("u", "d")
    terms, lengths, heads, prepend = p.by_first[d][0][3]
    assert [w for w, _ in terms] == [(u,), (u, d, u), (u, u, d)]
    assert lengths == (1, 2) and heads == {(u,), (u, u), (d, u)}
    assert prepend is None
    # words past a cubic left side that do and do not start a redex
    words = [(d, u, u) + rest for rest in
             ((), (d,), (u,), (d, d), (d, u), (u, d), (u, u), (d, u, d))]
    words += [(d, d, u) + rest for rest in ((), (u,), (d, u), (u, u))]
    words += [tuple(rng.randrange(2) for _ in range(rng.randint(3, 7)))
              for _ in range(20)]

    def run():
        return [list(normal_form(p, [(QQ.from_int(3), w)]).vals.items())
                for w in words]

    planned, framed = _planned_and_framed(monkeypatch, p, run)
    assert planned == framed
    for nf, word in zip(planned, words):
        assert NCPoly({w: Coeff(QQ, c) for w, c in nf}) == \
            heap_normal_form(p, [(QQ.from_int(3), word)])


def test_a_right_side_holding_a_one_letter_left_side_gets_no_plan(
        rng, monkeypatch):
    # from a presentation file: t -> 3 rewrites the t of y*x -> 2*x*y + t,
    # so that rule never gets a plan; t*u itself is planned as 3*u
    from orepi.cli import presentation_from_json
    p = presentation_from_json({
        "field": {"kind": "rational"}, "generators": ["x", "y", "t"],
        "weights": [1, 1, 1], "precedence": ["x", "y", "t"],
        "rules": [{"lhs": ["y", "x"],
                   "rhs": [{"coeff": "2", "word": ["x", "y"]},
                           {"coeff": "1", "word": ["t"]}]},
                  {"lhs": ["t"], "rhs": [{"coeff": "3", "word": []}]}]})
    x, y, t = p.word("x", "y", "t")
    assert p.min_lhs == 1 and p.is_confluent()
    assert p.by_first[y][0][3] is None
    assert p.by_first[t][0][3] == \
        ((((), p.ctx.from_int(3).val),), (), frozenset(), None)
    inputs = [random_formal(p, rng, terms=3, max_len=6) for _ in range(12)]
    inputs += [[(p.one, (y, x) + (t,) * k)] for k in range(4)]

    def run():
        return [list(normal_form(p, fa).vals.items()) for fa in inputs]

    planned, framed = _planned_and_framed(monkeypatch, p, run)
    assert planned == framed
    for fa in inputs:
        assert normal_form(p, fa) == heap_normal_form(p, fa)


def test_frames_opened_by_missing_products(monkeypatch, QQ):
    # Hpq y*x -> q*x*y + t: both words are irreducible with nothing after
    # them, so only the top-level frame opens; Bh y1*x1*x1 leaves x1 past
    # y1*x1, which x1*y1*x1 rewrites again, so its product opens a frame
    from orepi import rewrite
    real = rewrite._straighten
    frames = []

    def counting(*args):
        frames.append(args[1])
        return real(*args)

    monkeypatch.setattr(rewrite, "_straighten", counting)
    hpq = build_family(spec_hpq(QQ, QQ.from_int(2), QQ.from_int(3)))
    normal_form(hpq, [(QQ.one(), hpq.word("y", "x"))])
    assert len(frames) == 1
    frames.clear()
    bh = build_family(spec_bh(QQ, QQ.from_int(2)))
    normal_form(bh, [(QQ.one(), bh.word("y1", "x1", "x1"))])
    assert len(frames) == 2


def _reachable(root):
    """Every container and presentation reachable from root."""
    import gc
    seen, todo = {}, [root]
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen[id(obj)] = obj
        todo.extend(r for r in gc.get_referents(obj)
                    if isinstance(r, (dict, list, tuple, Presentation,
                                      RewriteRule)))
    return seen


def test_a_presentation_keeps_only_its_unscoped_products(rat_q, QQ, cyclo3,
                                                         monkeypatch):
    # an engine call made outside every product_memo() scope stores each
    # product it straightens in its presentation's memo, as the normal
    # form of its word; every public verdict runs in a scope of its own,
    # which its products share, so on a presentation whose confluence
    # verdict is made it stores nothing and leaves no scope open
    from orepi import (check_paper_identity, central_candidates,
                       downup_center_generators, is_central, pi_decide,
                       spanning_check, verify_witness)
    from orepi import rewrite
    from orepi.rewrite import _SCOPE, power
    hpq = spec_hpq(rat_q, rat_q.param("q"), rat_q.param("q"))
    H = build_family(hpq)
    assert H.memo == {}
    # the confluence verdict is an unscoped overlap check, made once
    H.is_confluent()
    q = rat_q.param("q")
    x, y = word_poly(H, "x"), word_poly(H, "y")
    a = normal_form(H, [(q, H.word("y", "y", "x")),
                        (rat_q.one(), H.word("y", "t", "x", "x"))])
    multiply(H, a, x + y)
    q_commutator(H, y, a, q)
    left_multiply(H, [(H.gen("y"), a.vals)])
    assert len(H.memo) > 5
    for word, vals in H.memo.items():
        assert NCPoly.from_payloads(H.ctx, vals) == \
            heap_normal_form(H, [(H.one, word)]), word
    kept = list(H.memo.items())
    z3, m1 = cyclo3.generator(), cyclo3.from_int(-1)
    bh = spec_bh(cyclo3, z3)
    qplane = spec_quantum_plane(cyclo3, z3)
    downup = spec_downup(cyclo3, m1, m1, cyclo3.zero())
    quotient = spec_hpq(QQ, QQ.from_int(2), QQ.from_int(-1))
    # built on specs of their own
    centrals = central_candidates(spec_quantum_plane(cyclo3, z3))
    witness = pi_decide(spec_hpq(QQ, QQ.from_int(2), QQ.from_int(-1))).witness
    assert witness.kind == "quotient"
    verdicts = [
        (hpq, lambda: check_paper_identity("H.yxn", H, 4).all_pass),
        (hpq, lambda: not is_central(H, x)[0]),
        (hpq, lambda: power(H, x + y, 3).vals),
        (bh, lambda: central_candidates(bh).elements),
        (qplane, lambda: spanning_check(build_family(qplane), centrals,
                                        {"x": 3, "y": 3}, 6).ok),
        (qplane, lambda: pi_decide(qplane).verdict == "PI"),
        (downup, lambda: downup_center_generators(downup).elements),
        (quotient, lambda: verify_witness(quotient, witness)),
    ]
    scopes, calls = [], 0
    real = rewrite._memo
    monkeypatch.setattr(rewrite, "_memo",
                        lambda p: scopes.append(_SCOPE.get()) or real(p))
    for spec, verdict in verdicts:
        p = build_family(spec)
        p.is_confluent()
        before, reachable = list(p.memo.items()), len(_reachable(p))
        scopes.clear()
        assert verdict()
        assert _SCOPE.get() is None
        assert None not in scopes and len(set(map(id, scopes))) <= 1
        calls += len(scopes)
        assert list(p.memo.items()) == before, spec.family
        assert len(_reachable(p)) == reachable
    assert calls > len(verdicts)
    assert list(H.memo.items()) == kept
    with product_memo():
        normal_form(H, [(rat_q.one(), H.word("y", "x", "x", "x"))])
        assert _SCOPE.get()[id(H)][1]
    assert _SCOPE.get() is None and list(H.memo.items()) == kept


def test_confluence_verdict_computed_once(monkeypatch, QQ):
    from orepi import is_central, presentations
    calls = []
    real = presentations.overlap_check
    monkeypatch.setattr(presentations, "overlap_check",
                        lambda p: calls.append(p) or real(p))
    p = build_family(spec_quantum_plane(QQ, QQ.from_int(3)))
    for _ in range(3):
        assert not is_central(p, word_poly(p, "x"))[0]
    assert len(calls) == 1


# -- the Coeff edge of payload polynomials --------------------------------------


def test_mixed_fields_raise_at_the_edge(H, rat_pq, QQ):
    a = normal_form(H, [(rat_pq.param("p"), H.word("y", "x"))])
    other = NCPoly.monomial(QQ.from_int(2), H.word("y"))
    for run in (lambda: NCPoly({H.word("x"): rat_pq.one(),
                                H.word("y"): QQ.one()}),
                lambda: a + other, lambda: other - a, lambda: a == other,
                lambda: a.scale(QQ.one()),
                lambda: normal_form(H, other),
                lambda: normal_form(H, [(rat_pq.one(), H.word("x")),
                                        (QQ.one(), H.word("y"))]),
                lambda: multiply(H, a, other), lambda: multiply(H, other, a),
                lambda: q_commutator(H, a, other, rat_pq.one()),
                lambda: q_commutator(H, a, a, QQ.one())):
        with pytest.raises(CtxMismatch):
            run()
    # a zero with no field meets any field, and an equal field that is a
    # distinct object is the same field
    zero = NCPoly.zero()
    assert zero.ctx is None and zero == NCPoly.monomial(QQ.zero(), ())
    assert a + zero == a == zero + a and (a - a).ctx is rat_pq
    twin = FieldCtx.rational_functions(("p", "q"))
    assert twin is not rat_pq
    assert normal_form(H, [(twin.param("p"), H.word("y", "x"))]) == a


def test_equal_payload_dicts_are_equal_polynomials(rat_pq, monkeypatch):
    w, v = (0, 1), (1,)
    fields = [FieldCtx.rational(), FieldCtx.cyclotomic(12), rat_pq,
              FieldCtx.galois(7, [3, 1, 1])]
    polys = {}
    for ctx in fields:
        c = ctx.from_int(3).val
        polys[ctx] = [NCPoly.from_payloads(ctx, {w: c, (): ctx.one().val})
                      for _ in range(2)]
    # equal dicts are equal at once, with no per-word comparison
    for kind in (FieldCtx, type(rat_pq)):
        monkeypatch.setattr(kind, "eq", lambda *args: pytest.fail())
    for a, b in polys.values():
        assert a.vals is not b.vals and a == b
    monkeypatch.undo()
    # a Q(params) value has several payloads: (p^2 - 1)/(p - 1) = p + 1,
    # compared by the field
    p = rat_pq.param("p")
    quotient = (p * p - 1) / (p - 1)
    assert quotient.val != (p + 1).val
    a = NCPoly({w: quotient, v: p})
    b = NCPoly({v: p, w: p + 1})
    assert a.vals != b.vals and a == b and b == a
    assert a != NCPoly({w: quotient}) and a != NCPoly({w: p + 1, (): p})
    assert NCPoly({w: p}) != NCPoly({v: p})
    # equal or empty dicts of two fields are a CtxMismatch: Q(z3) and
    # Q(z6) share their payloads, as Q(p, q) and Q(q, p) do
    z3, z6 = FieldCtx.cyclotomic(3), FieldCtx.cyclotomic(6)
    qp = FieldCtx.rational_functions(("q", "p"))
    for ctx, other, c in ((z3, z6, z3.generator().val),
                          (rat_pq, qp, rat_pq.param("p").val)):
        for vals in ({w: c}, {}):
            with pytest.raises(CtxMismatch):
                NCPoly.from_payloads(ctx, vals) == \
                    NCPoly.from_payloads(other, dict(vals))


def _pretty_reference(poly, p):
    """pretty as it reads from the Coeffs: each coefficient's repr, in
    term order."""
    terms = poly.terms
    if not terms:
        return "0"
    return " + ".join(f"({terms[w]!r})*{p.word_str(w)}"
                      for w in sorted(terms, key=p.order_key))


@pytest.mark.parametrize("name", list(LEFT_FIELDS))
def test_coeff_edge_round_trips(name, rng):
    ctx = LEFT_FIELDS[name]
    for p in confluent_zoo(ctx)[:4]:
        for _ in range(6):
            poly = normal_form(p, random_formal(p, rng, terms=4, max_len=4))
            assert not any(isinstance(c, Coeff) for c in poly.vals.values())
            terms = poly.terms
            assert all(type(c) is Coeff and c.ctx is ctx
                       for c in terms.values())
            assert NCPoly(terms) == poly
            assert NCPoly({w: c for c, w in poly.as_formal()}) == poly
            assert normal_form(p, poly.as_formal()) == poly
            assert normal_form(p, poly) == poly
            assert list(poly) == sorted(terms.items())
            assert all(poly.coeff(w) == c for w, c in terms.items())
            assert poly.pretty(p) == _pretty_reference(poly, p)


def test_payload_paths_build_and_multiply_no_coeff(monkeypatch, H, rat_pq):
    # normal forms, products, commutators, specialization and the identity
    # search stay on payloads: no Coeff is built or multiplied per term or
    # per monomial, only the one -lam of a commutator and the kernel
    # vectors the search returns
    from orepi.matrep import MatAlgebra, multilinear_identity_search
    a = normal_form(H, [(rat_pq.param("p"), H.word("y", "y", "y", "x", "x")),
                        (rat_pq.param("q"), H.word("y", "x", "t"))])
    b = normal_form(H, [(rat_pq.one(), H.word("y", "y", "x", "x", "x"))])
    lam = rat_pq.param("q") + 1
    c3 = FieldCtx.cyclotomic(3)
    assign = {"p": -c3.one(), "q": c3.generator()}
    QQ = FieldCtx.rational()
    z, o = QQ.zero(), QQ.one()
    m2 = MatAlgebra(2, QQ, {"e11": ((o, z), (z, z)), "e12": ((z, o), (z, z)),
                            "e21": ((z, z), (o, z)), "e22": ((z, z), (z, o))})
    built, products, label = Counter(), Counter(), [None]
    real_init, real_mul = Coeff.__init__, Coeff.__mul__

    def init(self, ctx, val):
        if label[0]:
            built[label[0]] += 1
        real_init(self, ctx, val)

    def mul(self, other):
        if label[0]:
            products[label[0]] += 1
        return real_mul(self, other)
    monkeypatch.setattr(Coeff, "__init__", init)
    monkeypatch.setattr(Coeff, "__mul__", mul)
    monkeypatch.setattr(Coeff, "__rmul__", mul)

    def run(name, f, *args):
        label[0] = name
        try:
            return f(*args)
        finally:
            label[0] = None
    ab = run("multiply", multiply, H, a, b)
    nf = run("normal_form", normal_form, H, ab)
    qc = run("q_commutator", q_commutator, H, a, b, lam)
    sp = run("specialize_poly", specialize_poly, ab, assign, c3)
    space = run("search", multilinear_identity_search, m2, 4)
    assert len(ab) >= 8 and nf == ab and len(qc) >= 8 and len(sp) >= 8
    assert sum(len(c.val[0]) for c in ab.terms.values()) > 2 * len(ab)
    assert space.dim > 0
    entries = sum(not c.is_zero() for v in space.basis for c in v)
    assert dict(built) == {"q_commutator": 1, "search": entries + 1}
    assert not products
