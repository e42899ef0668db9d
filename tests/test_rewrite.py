"""Normal forms, products, commutators, and confluence analysis."""

import pytest

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
    spec_downup,
    spec_hpq,
    spec_quantum_plane,
    spec_uqb2,
)
from orepi.identities import biquad3_consistent_instance, pq_number
from orepi.presentations import biquad3_conditions
from orepi.rewrite import gen_poly, specialize_poly, word_poly

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
    x, y = gen_poly(QP, "x"), gen_poly(QP, "y")
    assert multiply(QP, x, y) == NCPoly({QP.word("x", "y"): rat_q.one()})
    assert multiply(QP, y, x) == NCPoly({QP.word("x", "y"): rat_q.param("q")})
    # bilinearity: (x + y) x = x^2 + q x y
    assert multiply(QP, x + y, x) == NCPoly({
        QP.word("x", "x"): rat_q.one(),
        QP.word("x", "y"): rat_q.param("q")})


def test_commutator_examples(H, rat_pq):
    x, y = gen_poly(H, "x"), gen_poly(H, "y")
    assert q_commutator(H, y, x, rat_pq.param("q")) == \
        NCPoly({H.word("t"): rat_pq.one()})
    assert q_commutator(H, x, x, rat_pq.one()).is_zero()


def test_downup_nested_commutator_identity(QQ):
    # with lam, mu the roots of t^2 - alpha t - beta and gamma = 1:
    # [d, [d,u]_lam]_mu = d and [[d,u]_lam, u]_mu = u
    lam, mu = QQ.from_int(1), QQ.from_int(-1)
    al, be = lam + mu, -(lam * mu)
    p = build_family(spec_downup(QQ, al, be, QQ.one()))
    d, u = gen_poly(p, "d"), gen_poly(p, "u")
    inner = q_commutator(p, d, u, lam)
    assert q_commutator(p, d, inner, mu) == d
    assert q_commutator(p, inner, u, mu) == u


IDEMPOTENCE_CASES = 60


def family_zoo():
    QQ = FieldCtx.rational()
    rpq = FieldCtx.rational_functions(("p", "q"))
    c12 = FieldCtx.cyclotomic(12)
    rq = FieldCtx.rational_functions(("q",))
    from orepi import spec_m2, spec_three_cyclic, spec_weyl, spec_bqf
    lam = ((rpq.one(), rpq.param("p")), (rpq.param("p").inv(), rpq.one()))
    return [
        build_family(spec_hpq(rpq, rpq.param("p"), rpq.param("q"))),
        build_family(spec_bh(rq, rq.param("q"))),
        build_family(spec_m2(rpq, rpq.param("p"), rpq.param("q"))),
        build_family(spec_uqb2(rq, rq.param("q"))),
        build_family(spec_weyl(rpq, (rpq.param("q"), rpq.param("q")), lam)),
        build_family(spec_three_cyclic(rq, rq.param("q"), rq.one(),
                                       rq.from_int(2), rq.from_int(3))),
        build_family(spec_downup(QQ, QQ.from_int(2), QQ.from_int(-1),
                                 QQ.one())),
        build_family(spec_bqf(rq, rq.param("q"),
                              (rq.zero(), rq.one(), rq.one()))),
        build_family(spec_quantum_plane(rq, rq.param("q"))),
        build_family(biquad3_consistent_instance(c12, __import__("random").Random(7))),
    ]


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


def confluent_zoo(ctx):
    """One instance of each of the 11 families, with small integer
    parameters that every test field accepts."""
    from orepi import spec_bqf, spec_m2, spec_three_cyclic, spec_weyl
    i = ctx.from_int
    m1 = -ctx.one()
    lam = ((i(1), i(2)), (i(2).inv(), i(1)))
    # q1 = q2 = q3 = -1 with mu = alpha, nu = a, gamma = b meets all ten
    # consistency conditions and leaves every tail nonzero
    biquad = spec_biquad3(ctx, (m1, m1, m1),
                          ((i(2), i(3), i(1)), (i(5), i(1), i(3)),
                           (i(4), i(5), i(2))), (i(1), i(2), i(3)))
    specs = [
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
    return [build_family(s) for s in specs]


ZOO_FIELDS = {
    "Q": FieldCtx.rational(),
    "Q(z12)": FieldCtx.cyclotomic(12),
    "GF(13)": FieldCtx.galois_prime(13),
}
ZOO = [pytest.param(p, id=f"{p.family}-{name}")
       for name, ctx in ZOO_FIELDS.items() for p in confluent_zoo(ctx)]


@pytest.mark.parametrize("p", ZOO)
def test_straightener_matches_heap_strategy(p, rng):
    assert overlap_check(p).confluent
    for _ in range(8):
        fa = random_formal(p, rng, terms=3, max_len=5)
        assert normal_form(p, fa) == heap_normal_form(p, fa)
        a = NCPoly({tuple(w): c for c, w in random_formal(p, rng, terms=2)
                    if not c.is_zero()})
        b = NCPoly({tuple(w): c for c, w in random_formal(p, rng, terms=2)
                    if not c.is_zero()})
        concat = [(ca * cb, wa + wb) for wa, ca in a.terms.items()
                  for wb, cb in b.terms.items()]
        assert multiply(p, a, b) == heap_normal_form(p, concat)


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
            assert multiply(p, a, b) == normal_form(p, concat)


def test_long_word_needs_no_deep_recursion(QQ):
    p = build_family(spec_quantum_plane(QQ, QQ.from_int(2)))
    n = 1200
    nf = normal_form(p, [(QQ.one(), p.word("y", *["x"] * n))])
    assert nf == NCPoly({p.word(*["x"] * n, "y"): QQ.from_int(2 ** n)})


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


def test_no_product_memo_outlives_a_verdict(rat_q):
    from orepi import check_paper_identity, is_central
    from orepi.rewrite import _SCOPE, product_memo
    H = build_family(spec_hpq(rat_q, rat_q.param("q"), rat_q.param("q")))
    H.is_confluent()
    before = len(_reachable(H))
    assert check_paper_identity("H.yxn", H, 4).all_pass
    assert not is_central(H, gen_poly(H, "x"))[0]
    normal_form(H, [(rat_q.one(), H.word("y", "y", "x"))])
    assert _SCOPE.get() is None
    assert len(_reachable(H)) == before
    with product_memo():
        normal_form(H, [(rat_q.one(), H.word("y", "x", "x"))])
        assert _SCOPE.get()[id(H)][1]
    assert _SCOPE.get() is None


def test_confluence_verdict_computed_once(monkeypatch, QQ):
    from orepi import is_central, presentations
    calls = []
    real = presentations.overlap_check
    monkeypatch.setattr(presentations, "overlap_check",
                        lambda p: calls.append(p) or real(p))
    p = build_family(spec_quantum_plane(QQ, QQ.from_int(3)))
    for _ in range(3):
        assert not is_central(p, gen_poly(p, "x"))[0]
    assert len(calls) == 1
