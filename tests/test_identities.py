"""q-calculus and the straightening-identity oracle corpus."""

import hashlib
import json
import os
from collections import Counter
from itertools import islice

import pytest

from orepi import (
    FieldCtx,
    NCPoly,
    build_family,
    check_paper_identity,
    gauss_binomial,
    identities,
    multiply,
    normal_form,
    oracle_rhs,
    pq_number,
    q_factorial,
    q_number,
    spec_bh,
    spec_bqf,
    spec_hpq,
    spec_m2,
    spec_three_cyclic,
    spec_uqb2,
    spec_weyl,
)
from orepi.cli import (parse_ncpoly, presentation_from_json,
                       presentation_to_json)
from orepi.errors import (
    FamilyMismatch,
    LemmaRangeError,
    ParametersRequired,
    PreconditionViolation,
    QFactorialVanishes,
)
from orepi.fields import Coeff
from orepi.identities import (
    ORACLES,
    b_coeff,
    bh_uvst,
    bqf_delta,
    bqf_f,
    c_a,
    c_coeff,
    cyc3_e,
    d_a,
    theta_element,
    weyl_z,
)

SMOKE_N = 4


def test_q_number_examples(rat_q, cyclo3, QQ):
    q = rat_q.param("q")
    assert q_number(0, q).is_zero()
    assert q_number(3, cyclo3.generator()).is_zero()
    assert q_number(4, QQ.one()) == QQ.from_int(4)
    assert q_number(3, q) == 1 + q + q * q


def test_q_number_recurrence(rat_q):
    q = rat_q.param("q")
    for k in range(8):
        assert q_number(k + 1, q) == 1 + q * q_number(k, q)


def test_pq_number_base_and_recurrence(rat_pq):
    p, q = rat_pq.param("p"), rat_pq.param("q")
    assert pq_number(1, p, q).is_one()
    for n in range(1, 9):
        assert pq_number(n + 1, p, q) == q ** n + p.inv() * pq_number(n, p, q)
    # fraction form agreement away from the singular locus
    for n in range(1, 7):
        assert pq_number(n, p, q) * (q - p.inv()) == q ** n - p.inv() ** n


def test_pq_number_at_p_equal_q_inverse(rat_q):
    # the q = p^-1 degeneration: [n] = n p^-(n-1) = n q^(n-1)
    q = rat_q.param("q")
    assert pq_number(3, q.inv(), q) == 3 * q ** 2


def test_pq_vanishing_lemma(cyclo12):
    p = cyclo12.root_of_unity(2)
    q = cyclo12.root_of_unity(3)
    assert pq_number(6, p, q).is_zero()
    # orders 4 and 6 divide 12
    assert pq_number(12, cyclo12.root_of_unity(4),
                     cyclo12.root_of_unity(6)).is_zero()


def test_q_factorial_and_binomial(rat_q, cyclo3):
    q = rat_q.param("q")
    assert q_factorial(3, q) == (1 + q) * (1 + q + q * q)
    assert gauss_binomial(2, 1, q) == \
        q_factorial(2, q) / (q_factorial(1, q) * q_factorial(1, q))
    assert gauss_binomial(2, 1, q) == 1 + q
    assert gauss_binomial(5, 0, q).is_one()
    # at q = z3 the numerator [3]! vanishes but the denominator does not
    assert gauss_binomial(3, 1, cyclo3.generator()).is_zero()
    # denominator [3]! [1]! vanishes at z3
    with pytest.raises(QFactorialVanishes):
        gauss_binomial(4, 3, cyclo3.generator())
    with pytest.raises(LemmaRangeError):
        gauss_binomial(2, 3, q)


@pytest.mark.parametrize("value", [
    lambda q: q_number(-1, q),
    lambda q: pq_number(-1, q, q),
    lambda q: q_factorial(-1, q),
    lambda q: b_coeff(-1, q),
    lambda q: c_coeff(-1, q),
    lambda q: c_a(-1, q),
    lambda q: d_a(-1, q),
], ids=["q_number", "pq_number", "q_factorial", "b_coeff", "c_coeff", "c_a",
        "d_a"])
def test_a_negative_index_is_refused(rat_q, value):
    # these are sums and products over 0..k-1, defined for k >= 0 only:
    # [-1]_q would be -q^-1, not the empty sum 0
    with pytest.raises(LemmaRangeError, match="^need an index >= 0, got -1$"):
        value(rat_q.param("q"))


def test_bc_coefficient_recurrences(rat_q):
    q = rat_q.param("q")
    q2, q2i = q * q, (q * q).inv()
    assert b_coeff(1, q).is_one()
    assert c_coeff(1, q).is_zero()
    for k in range(1, 7):
        assert b_coeff(k + 1, q) == q2 * b_coeff(k, q) + q2i ** k
        assert c_coeff(k + 1, q) == q2i * b_coeff(k, q) + c_coeff(k, q)
    # closed fraction forms away from roots of unity
    for k in range(1, 6):
        assert b_coeff(k, q) * (q ** 2 - q ** -2) == q ** (2 * k) - q ** (-2 * k)
    assert c_coeff(2, q) == q ** -2


def test_ca_da_recurrences(rat_q):
    q = rat_q.param("q")
    for a in range(1, 7):
        assert c_a(a + 1, q) == q ** (2 * a) + c_a(a, q)
        assert d_a(a + 1, q) == q ** (-2 * a) + d_a(a, q)


@pytest.fixture
def H(rat_pq):
    return build_family(spec_hpq(rat_pq, rat_pq.param("p"), rat_pq.param("q")))


def test_oracle_h_yxn_base_case(H, rat_pq):
    checks = oracle_rhs("H.yxn", H, 1)
    label, lhs, rhs = checks[0]
    assert normal_form(H, lhs) == rhs
    assert rhs == NCPoly({H.word("x", "y"): rat_pq.param("q"),
                          H.word("t"): rat_pq.one()})


def test_oracle_cyc3_display_form(rat_q):
    # a = 1 of the first 3-cyclic identity in its displayed orientation:
    # x y = q^2 y x + alpha
    ctx = FieldCtx.rational_functions(("q", "al", "be", "ga"))
    p = build_family(spec_three_cyclic(ctx, ctx.param("q"), ctx.param("al"),
                                       ctx.param("be"), ctx.param("ga")))
    q2 = ctx.param("q") ** 2
    lhs = normal_form(p, [(ctx.one(), p.word("x", "y"))])
    rhs = normal_form(p, [(q2, p.word("y", "x")), (ctx.param("al"), ())])
    assert lhs == rhs


def test_theta_element_closed_form(H, rat_pq):
    p_, q_ = rat_pq.param("p"), rat_pq.param("q")
    th = theta_element(H)
    assert th == NCPoly({H.word("x", "y"): q_ * (1 - p_ * q_),
                         H.word("t"): -(p_ * q_)})


def test_weyl_z_closed_form(rat_pq):
    lam = ((rat_pq.one(), rat_pq.param("p")),
           (rat_pq.param("p").inv(), rat_pq.one()))
    W = build_family(spec_weyl(rat_pq, (rat_pq.param("q"), rat_pq.param("q")),
                               lam))
    z1 = weyl_z(W, 1)
    assert z1 == NCPoly({(): rat_pq.one(),
                         W.word("y1", "x1"): rat_pq.param("q") - 1})


def test_bqf_delta_base_cases(rat_q):
    f = (rat_q.from_int(2), rat_q.one())  # f = 2 + t
    B = build_family(spec_bqf(rat_q, rat_q.param("q"), f))
    fv = NCPoly({(): rat_q.from_int(2), B.word("v"): rat_q.one()})
    fu = NCPoly({(): rat_q.from_int(2), B.word("u"): rat_q.one()})
    assert bqf_delta(B, B.word("u")) == fv
    assert bqf_delta(B, B.word("v")) == fu
    # derivation property on a product: delta(uv) = sigma(u) delta(v) + delta(u) v
    q = rat_q.param("q")
    lhs = bqf_delta(B, B.word("u", "v"))
    rhs = multiply(B, NCPoly.monomial(q, B.word("u")), fu) + \
        multiply(B, fv, NCPoly.monomial(rat_q.one(), B.word("v")))
    assert lhs == rhs


BQF_LEMMAS = ["Bqf.delta_uk", "Bqf.delta_vk", "Bqf.wuk", "Bqf.wvk",
              "Bqf.wku"]


@pytest.mark.parametrize("f", [(), (0,)], ids=["empty", "zero"])
@pytest.mark.parametrize("lemma", BQF_LEMMAS)
def test_bqf_lemmas_at_f_zero(lemma, f, QQ):
    # f = 0 (no coefficient, or only zero ones): delta vanishes, so every
    # delta(g^k) is 0 and w g^k = sigma(g)^k g^k w has no tail
    q = QQ.from_int(2)
    B = build_family(spec_bqf(QQ, q, tuple(QQ.from_int(c) for c in f)))
    n_max = 5
    rep = check_paper_identity(lemma, B, n_max)
    assert [c.n for c in rep.checks] == list(range(1, n_max + 1))
    assert rep.all_pass, [c for c in rep.checks if not c.ok]
    u, v, w = B.word("u", "v", "w")
    for k in range(1, n_max + 1):
        [(_, lhs, rhs)] = oracle_rhs(lemma, B, k)
        expected = {
            "Bqf.delta_uk": NCPoly.zero(), "Bqf.delta_vk": NCPoly.zero(),
            "Bqf.wuk": NCPoly.monomial(q ** k, (u,) * k + (w,)),
            "Bqf.wvk": NCPoly.monomial(q.inv() ** k, (v,) * k + (w,)),
            "Bqf.wku": NCPoly.monomial(q ** k, (u,) + (w,) * k),
        }[lemma]
        assert rhs == expected
        assert normal_form(B, lhs) == expected


def test_uqb2_iv_range_guard(rat_q):
    U = build_family(spec_uqb2(rat_q, rat_q.param("q")))
    with pytest.raises(LemmaRangeError):
        check_paper_identity("UqB2.iv", U, 1)


def test_family_mismatch(H):
    with pytest.raises(FamilyMismatch):
        check_paper_identity("M2.k1", H, 3)
    with pytest.raises(FamilyMismatch):
        check_paper_identity("no.such", H, 3)


CORPUS = [
    ("H.yxn", "Hpq"), ("H.ynx", "Hpq"), ("H.theta_rel", "Hpq"),
    ("M2.k1", "M2"), ("M2.k2", "M2"), ("M2.power_table", "M2"),
    ("UqB2.i", "UqB2"), ("UqB2.ii", "UqB2"), ("UqB2.iii", "UqB2"),
    ("UqB2.iv", "UqB2"),
    ("Weyl.xky", "WeylMalt"), ("Weyl.xyk", "WeylMalt"),
    ("Weyl.zi_normal", "WeylMalt"),
    ("Cyc3.i", "ThreeCyclic"), ("Cyc3.ii", "ThreeCyclic"),
    ("Cyc3.iii", "ThreeCyclic"), ("Cyc3.iv", "ThreeCyclic"),
    ("Cyc3.v", "ThreeCyclic"), ("Cyc3.vi", "ThreeCyclic"),
    ("Cyc3.e_rel", "ThreeCyclic"),
    ("Bh.commute", "Bh"),
    ("Bqf.delta_uk", "Bqf"), ("Bqf.delta_vk", "Bqf"),
    ("Bqf.wuk", "Bqf"), ("Bqf.wvk", "Bqf"), ("Bqf.wku", "Bqf"),
]


def _presentation_for(family):
    if family == "Hpq":
        ctx = FieldCtx.rational_functions(("p", "q"))
        return build_family(spec_hpq(ctx, ctx.param("p"), ctx.param("q")))
    if family == "M2":
        ctx = FieldCtx.rational_functions(("alpha", "beta"))
        return build_family(spec_m2(ctx, ctx.param("alpha"),
                                    ctx.param("beta")))
    if family == "UqB2":
        ctx = FieldCtx.rational_functions(("q",))
        return build_family(spec_uqb2(ctx, ctx.param("q")))
    if family == "WeylMalt":
        ctx = FieldCtx.rational_functions(("q1", "q2", "l12"))
        lam = ((ctx.one(), ctx.param("l12")),
               (ctx.param("l12").inv(), ctx.one()))
        return build_family(spec_weyl(ctx, (ctx.param("q1"),
                                            ctx.param("q2")), lam))
    if family == "ThreeCyclic":
        ctx = FieldCtx.rational_functions(("q", "al", "be", "ga"))
        return build_family(spec_three_cyclic(ctx, ctx.param("q"),
                                              ctx.param("al"),
                                              ctx.param("be"),
                                              ctx.param("ga")))
    if family == "Bh":
        ctx = FieldCtx.rational_functions(("h",))
        return build_family(spec_bh(ctx, ctx.param("h")))
    ctx = FieldCtx.rational_functions(("q",))
    return build_family(spec_bqf(ctx, ctx.param("q"),
                                 (ctx.zero(), ctx.one(), ctx.one())))


@pytest.mark.parametrize("lemma,family", CORPUS)
def test_identity_corpus_smoke(lemma, family):
    p = _presentation_for(family)
    rep = check_paper_identity(lemma, p, SMOKE_N)
    assert rep.all_pass, [c for c in rep.checks if not c.ok]


# the power-commutation displays b a^k = s^k a^k b + (tail) and their
# mirrors, rows of one table, whose labels print their one-word left sides
TWISTED_POWER_ROWS = [
    ("H.yxn", "Hpq"), ("H.ynx", "Hpq"), ("M2.k1", "M2"), ("M2.k2", "M2"),
    ("UqB2.i", "UqB2"), ("UqB2.ii", "UqB2"), ("UqB2.iii", "UqB2"),
    ("Cyc3.i", "ThreeCyclic"), ("Cyc3.ii", "ThreeCyclic"),
    ("Cyc3.iii", "ThreeCyclic"), ("Cyc3.iv", "ThreeCyclic"),
    ("Cyc3.v", "ThreeCyclic"), ("Cyc3.vi", "ThreeCyclic"),
    ("M2.power_table", "M2"), ("UqB2.iv", "UqB2"),
    ("Weyl.xky", "WeylMalt"), ("Weyl.xyk", "WeylMalt"),
    ("Bqf.wuk", "Bqf"), ("Bqf.wvk", "Bqf"),
]


def _weyl3(ctx, q1, q2, q3, lam):
    """A three-generator Weyl algebra whose commutation scalars are lam,
    lam q1 and lam^-1 above the diagonal."""
    one = ctx.one()
    return spec_weyl(ctx, (q1, q2, q3),
                     ((one, lam, lam * q1), (lam.inv(), one, lam.inv()),
                      ((lam * q1).inv(), lam, one)))


def _label_presentations(family, field):
    """The presentations of family over field: the two- and the
    three-generator Weyl algebras, one of every other family."""
    if field == "Q(params)":
        if family != "WeylMalt":
            return [_presentation_for(family)]
        ctx = FieldCtx.rational_functions(("q1", "q2", "q3", "l"))
        q1, q2, q3, lam = (ctx.param(n) for n in ("q1", "q2", "q3", "l"))
        return [_presentation_for(family),
                build_family(_weyl3(ctx, q1, q2, q3, lam))]
    ctx = FieldCtx.galois(7, [3, 1, 1])
    a = ctx.generator()
    one = ctx.one()
    specs = {
        "Hpq": [spec_hpq(ctx, a, a + 1)],
        "M2": [spec_m2(ctx, a, a + 2)],
        "UqB2": [spec_uqb2(ctx, a)],
        "ThreeCyclic": [spec_three_cyclic(ctx, a, one, a, a + 3)],
        "WeylMalt": [spec_weyl(ctx, (a, a + 1),
                               ((one, a + 2), ((a + 2).inv(), one))),
                     _weyl3(ctx, a, a + 1, a + 3, a + 2)],
        "Bqf": [spec_bqf(ctx, a, (one, a, one))],
    }
    return [build_family(spec) for spec in specs[family]]


@pytest.mark.parametrize("field", ["Q(params)", "GF(49)"])
@pytest.mark.parametrize("lemma,family", TWISTED_POWER_ROWS)
def test_twisted_power_labels_parse_to_their_left_sides(lemma, family, field):
    for p in _label_presentations(family, field):
        # every row of the lemma: ten for M2.power_table, one for each i
        # for Weyl.x*, one for the rest
        if lemma == "M2.power_table":
            n_rows = 10
        else:
            n_rows = len(p.params["q_list"]) if family == "WeylMalt" else 1
        for n in range(ORACLES[lemma].min_n, 7):
            checks = oracle_rhs(lemma, p, n)
            assert len(checks) == n_rows
            for label, lhs, _ in checks:
                (word, c), = lhs.vals.items()
                assert lhs.ctx is p.ctx and p.ctx.eq(c, p.one.val)
                assert parse_ncpoly(label, p) == [(p.one, word)], (label, word)


def test_cyc3_e_relation(rat_q):
    ctx = FieldCtx.rational_functions(("q", "al", "be", "ga"))
    p = build_family(spec_three_cyclic(ctx, ctx.param("q"), ctx.param("al"),
                                       ctx.param("be"), ctx.param("ga")))
    e = cyc3_e(p)
    from orepi import q_commutator
    z = NCPoly.monomial(ctx.one(), p.word("z"))
    assert q_commutator(p, e, z, ctx.param("q") ** -2).is_zero()


@pytest.mark.parametrize("ctx, q", [
    (FieldCtx.rational(), -1), (FieldCtx.rational(), 1),
    (FieldCtx.galois_prime(5), 4), (FieldCtx.cyclotomic(6), "z6^3")],
    ids=["Q-q=-1", "Q-q=1", "GF(5)-q=4", "Q(z6)-q=z6^3"])
def test_cyc3_e_at_q_squared_one(ctx, q):
    # e = xz - q^2 beta / (q^2 - 1) is not defined at q^2 = 1: e, the
    # Cyc3.e_rel check and the PI verdict all refuse it with one
    # PreconditionViolation, before anything divides by q^2 - 1
    from orepi import pi_decide
    q = ctx.generator() ** 3 if q == "z6^3" else ctx.from_int(q)
    i = ctx.from_int
    spec = spec_three_cyclic(ctx, q, i(1), i(2), i(3))
    p = build_family(spec)
    for refused in (lambda: cyc3_e(p),
                    lambda: check_paper_identity("Cyc3.e_rel", p, 1),
                    lambda: pi_decide(spec)):
        with pytest.raises(PreconditionViolation,
                           match=r"^q\^2 = 1 is excluded$"):
            refused()
    spec = spec_three_cyclic(ctx, i(2), i(1), i(2), i(3))
    assert check_paper_identity("Cyc3.e_rel", build_family(spec), 1).all_pass


def test_biquad3_instance_generation(cyclo12, rng):
    from orepi.identities import (biquad3_consistent_instance,
                                  biquad3_violating_instance)
    from orepi.presentations import biquad3_conditions
    for _ in range(5):
        spec = biquad3_consistent_instance(cyclo12, rng)
        assert all(v.is_zero() for _, v in biquad3_conditions(spec))
        bad = biquad3_violating_instance(cyclo12, rng)
        assert any(not v.is_zero() for _, v in biquad3_conditions(bad))


def _specialized_instances(ctx, q, r):
    """One instance of each corpus family at the values q, r: a
    three-generator Weyl algebra among them, and B_q(f) with f having a
    constant term."""
    one, zero, two = ctx.one(), ctx.zero(), ctx.from_int(2)
    qr = q * r
    lam2 = ((one, qr), (qr.inv(), one))
    lam3 = ((one, r, q), (r.inv(), one, qr), (q.inv(), qr.inv(), one))
    return [
        spec_hpq(ctx, r, q), spec_m2(ctx, q, r), spec_uqb2(ctx, q),
        spec_weyl(ctx, (q, r), lam2), spec_weyl(ctx, (q, r, qr), lam3),
        spec_three_cyclic(ctx, q, r, two, -one), spec_bh(ctx, q),
        spec_bqf(ctx, q, (zero, one)),
        spec_bqf(ctx, q, (one, zero, r)),
        spec_bqf(ctx, q, (two, r, zero, one)),
    ]


@pytest.mark.parametrize("field", ["Q(z12)", "GF(13)"])
def test_identity_corpus_at_specialized_parameters(field):
    # over rational-function fields no coefficient of a closed form
    # vanishes; at roots of unity and in characteristic p some do
    if field == "GF(13)":
        ctx = FieldCtx.galois(13, [0, 1])
        q, r = ctx.from_int(5), ctx.from_int(3)
    else:
        ctx = FieldCtx.cyclotomic(12)
        q, r = ctx.root_of_unity(6), ctx.root_of_unity(4)
    n_checks = 0
    for spec in _specialized_instances(ctx, q, r):
        p = build_family(spec)
        n_max = 4 if p.family == "Bh" else 6
        for lemma, family in CORPUS:
            if family != p.family:
                continue
            rep = check_paper_identity(lemma, p, n_max)
            assert rep.all_pass, (spec, [c for c in rep.checks if not c.ok])
            n_checks += len(rep.checks)
    assert n_checks == 359


def _specialized_over(field):
    """The presentations of _specialized_instances over field: at the
    parameters q, r of Q(q, r), at 3, 2 in Q, at z12^2, z12^3 in Q(z12)
    and at a, a + 1 in GF(7^2) = GF(7)[a]."""
    if field == "Q(params)":
        ctx = FieldCtx.rational_functions(("q", "r"))
        q, r = ctx.param("q"), ctx.param("r")
    elif field == "Q":
        ctx = FieldCtx.rational()
        q, r = ctx.from_int(3), ctx.from_int(2)
    elif field == "Q(z12)":
        ctx = FieldCtx.cyclotomic(12)
        q, r = ctx.root_of_unity(6), ctx.root_of_unity(4)
    else:
        ctx = FieldCtx.galois(7, [3, 1, 1])
        q, r = ctx.generator(), ctx.generator() + 1
    return [build_family(spec) for spec in _specialized_instances(ctx, q, r)]


def _instances_over(field):
    """One presentation of each corpus family over Q(params), and the
    specialized instances over Q, Q(z12) and GF(7^2)."""
    if field == "Q(params)":
        return [_presentation_for(family)
                for family in dict.fromkeys(f for _, f in CORPUS)]
    return _specialized_over(field)


@pytest.mark.parametrize("field", ["Q(params)", "Q", "Q(z12)", "GF(49)"])
def test_right_sides_equal_their_monomials_added_one_by_one(field,
                                                            monkeypatch):
    # each right side is built in one payload dict; adding its (word,
    # payload) terms one NCPoly at a time gives the same polynomial, term
    # order included
    cases = [(lemma, p) for p in _instances_over(field)
             for lemma, family in CORPUS
             if family == p.family and not ORACLES[lemma].relation_only]

    def right_sides():
        return {(i, n, label): rhs for i, (lemma, p) in enumerate(cases)
                for n in range(ORACLES[lemma].min_n, 9)
                for label, _, rhs in oracle_rhs(lemma, p, n)}
    built = right_sides()
    monkeypatch.setattr(identities, "_rhs", lambda p, terms: sum(
        (NCPoly.monomial(Coeff(p.ctx, c), w) for w, c in terms),
        NCPoly.zero()))
    added = right_sides()
    assert built.keys() == added.keys() and len(built) > 8 * len(cases)
    for key, rhs in built.items():
        assert rhs == added[key], (cases[key[0]][0], key)
        assert list(rhs.vals) == list(added[key].vals)


def _oracle_digests():
    """A sha256 for each corpus lemma, specialized instance and index n <=
    8 over Q(params), Q, Q(z12) and GF(7^2), of its checks: each label,
    the left side's words and coefficients, the right side printed and
    the right side's word order."""
    out = {}
    for field in ("Q(params)", "Q", "Q(z12)", "GF(49)"):
        for i, p in enumerate(_specialized_over(field)):
            for lemma, family in CORPUS:
                if family != p.family:
                    continue
                info = ORACLES[lemma]
                for n in ([1] if info.relation_only
                          else range(info.min_n, 9)):
                    checks = [
                        (label, [(list(w), p.ctx.to_str(c.val))
                                 for c, w in lhs.as_formal()],
                         rhs.pretty(p), [list(w) for w in rhs.vals])
                        for label, lhs, rhs in oracle_rhs(lemma, p, n)]
                    out[f"{field} {i} {lemma} {n}"] = hashlib.sha256(
                        json.dumps(checks).encode()).hexdigest()
    return out


def test_oracle_checks_match_their_recorded_digests():
    # tests/data/oracle_digests.json holds _oracle_digests() as written
    # before the oracle streams moved onto payloads: every check keeps
    # its label, its left side and its right side, term order included
    path = os.path.join(os.path.dirname(__file__), "data",
                        "oracle_digests.json")
    with open(path, encoding="utf-8") as fh:
        recorded = json.load(fh)
    digests = _oracle_digests()
    assert digests.keys() == recorded.keys()
    changed = [key for key, d in digests.items() if d != recorded[key]]
    assert not changed, changed


# ---------------------------------------------------------------------------
# oracle cost and the running primitives
# ---------------------------------------------------------------------------


def _cost_instance(QQ, lemma):
    i = QQ.from_int
    zero, one = QQ.zero(), QQ.one()
    return build_family({
        "H.yxn": spec_hpq(QQ, i(2), i(3)),
        "UqB2.iv": spec_uqb2(QQ, i(3)),
        "Cyc3.i": spec_three_cyclic(QQ, i(3), i(2), i(5), i(7)),
        "Bqf.delta_vk": spec_bqf(QQ, i(3), (zero, one, zero, zero, zero, one)),
    }[lemma])


@pytest.mark.parametrize("lemma", ["H.yxn", "UqB2.iv", "Cyc3.i",
                                   "Bqf.delta_vk"])
def test_oracle_cost_is_linear_in_the_index(lemma, monkeypatch, QQ):
    # payload multiplications made by the oracle alone (its stream, no
    # normal form of a left side and none inside an engine product), and
    # engine products, for the indices up to n_max
    counts, in_engine = Counter(), []
    mul = type(QQ).mul

    def counted_mul(ctx, a, b):
        if not in_engine:
            counts["mul"] += 1
        return mul(ctx, a, b)

    def counted_multiply(*args):
        counts["multiply"] += 1
        in_engine.append(args)
        try:
            return multiply(*args)
        finally:
            in_engine.pop()

    # before the presentation binds its field operations
    monkeypatch.setattr(type(QQ), "mul", counted_mul)
    monkeypatch.setattr(identities, "multiply", counted_multiply)
    p = _cost_instance(QQ, lemma)
    cost = {}
    for n_max in (8, 16):
        counts.clear()
        for _ in islice(ORACLES[lemma].stream(p), n_max):
            pass
        cost[n_max] = dict(counts)
    assert cost[8]["mul"] > 0
    assert cost[16]["mul"] <= 2.2 * cost[8]["mul"], cost
    if lemma == "Bqf.delta_vk":
        assert 0 < cost[8]["multiply"] <= 2 * 8
        assert cost[16]["multiply"] <= 2 * 16, cost
    else:
        assert "multiply" not in cost[16]


def _wrong_from_3(ctx, seq):
    """seq, a primitive's payloads in ctx, with one added to every item
    (to each part of a pair) from the index k = 3 on."""
    one = ctx.embed(1)
    for k, item in enumerate(seq):
        if k >= 3:
            item = tuple(ctx.add(x, one) for x in item) \
                if isinstance(item, tuple) else ctx.add(item, one)
        yield item


@pytest.mark.parametrize("primitive,some_readers", [
    ("_powers", {"H.yxn", "M2.k1", "M2.power_table", "Cyc3.i", "Bh.commute",
                 "Bqf.delta_vk", "Bqf.wku"}),
    ("_geom", {"UqB2.i", "UqB2.iii", "Weyl.xky", "Cyc3.iv", "Bqf.delta_uk",
               "Bqf.wvk"}),
    ("_pq_numbers", {"H.yxn", "H.ynx"}),
    ("_bc", {"UqB2.iv"}),
])
def test_a_wrong_running_primitive_fails_every_lemma_that_reads_it(
        primitive, some_readers, monkeypatch, QQ):
    # a check fails exactly where the wrong primitive changed its right
    # side: every index before the first changed value still passes, and
    # every lemma that reads the primitive fails at some index <= n_max
    n_max = 6
    cases = []
    for spec in _specialized_instances(QQ, QQ.from_int(3), QQ.from_int(2)):
        p = build_family(spec)
        for lemma, family in CORPUS:
            if family != p.family:
                continue
            info = ORACLES[lemma]
            indices = [1] if info.relation_only \
                else range(info.min_n, n_max + 1)
            cases.append((lemma, p, {
                (n, label): rhs for n in indices
                for label, _, rhs in oracle_rhs(lemma, p, n)}))
    right, readers, reading = getattr(identities, primitive), set(), []

    def wrong(ctx, *args):
        readers.add(reading[-1])
        return _wrong_from_3(ctx, right(ctx, *args))

    monkeypatch.setattr(identities, primitive, wrong)
    for lemma, p, right_rhs in cases:
        reading.append(lemma)
        rep = check_paper_identity(lemma, p, n_max)
        assert len(rep.checks) == len(right_rhs)
        for c in rep.checks:
            (_, lhs, rhs), = [chk for chk in oracle_rhs(lemma, p, c.n)
                              if chk[0] == c.label]
            assert c.ok == (rhs == right_rhs[c.n, c.label]), (lemma, c)
            if c.ok:
                assert c.residual.ctx is p.ctx and c.residual.is_zero()
            else:
                assert c.n >= 3
                assert c.residual == normal_form(p, lhs) - rhs
        if lemma in readers:
            assert not rep.all_pass, (lemma, p.family)
    assert some_readers <= readers


def test_a_presentation_without_values_is_parameters_required(rat_pq):
    # a presentation read back from `build --out` JSON keeps its family
    # tag and rules but carries no parameter values
    a, b = rat_pq.param("p"), rat_pq.param("q")
    one = rat_pq.one()
    specs = {
        "Hpq": spec_hpq(rat_pq, a, b),
        "M2": spec_m2(rat_pq, a, b),
        "ThreeCyclic": spec_three_cyclic(rat_pq, b, a, one, a + 1),
        "Bqf": spec_bqf(rat_pq, b, (one, a)),
        "WeylMalt": spec_weyl(rat_pq, (a, b), ((one, a), (a.inv(), one))),
        "Bh": spec_bh(rat_pq, a),
    }
    built = {fam: build_family(spec) for fam, spec in specs.items()}
    files = {fam: presentation_from_json(presentation_to_json(p))
             for fam, p in built.items()}
    for fam, p in files.items():
        assert p == built[fam] and p.family == fam and p.params == {}
    missing = "needs its parameter values; a presentation file has none$"
    for fam, lemma in (("Hpq", "H.yxn"), ("M2", "M2.k1"),
                       ("ThreeCyclic", "Cyc3.e_rel"), ("Bqf", "Bqf.wuk"),
                       ("WeylMalt", "Weyl.xky"), ("Bh", "Bh.commute")):
        with pytest.raises(ParametersRequired, match=f"^{fam} {missing}"):
            oracle_rhs(lemma, files[fam], 3)
        with pytest.raises(ParametersRequired, match=f"^{fam} {missing}"):
            check_paper_identity(lemma, files[fam], 3)
        assert check_paper_identity(lemma, built[fam], 3).all_pass
    hpq, cyc, bqf, m2 = (files[f] for f in ("Hpq", "ThreeCyclic", "Bqf",
                                            "M2"))
    for element, p in ((theta_element, hpq), (cyc3_e, cyc),
                       (lambda p: bqf_f(p, "u"), bqf),
                       (lambda p: bqf_delta(p, p.word("u", "v")), bqf)):
        with pytest.raises(ParametersRequired, match=missing):
            element(p)
    # a wrong family is a FamilyMismatch first
    for wrong in (lambda: theta_element(m2), lambda: cyc3_e(hpq),
                  lambda: bqf_f(m2, "X11"), lambda: bqf_delta(hpq, ()),
                  lambda: oracle_rhs("H.yxn", m2, 3),
                  lambda: check_paper_identity("M2.k1", hpq, 3)):
        with pytest.raises(FamilyMismatch):
            wrong()
    # z_i and Bh's invariant quadratics read no value
    assert weyl_z(files["WeylMalt"], 2) == weyl_z(built["WeylMalt"], 2)
    assert bh_uvst(files["Bh"]) == bh_uvst(built["Bh"])
