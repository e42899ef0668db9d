"""Family constructors, orientations, and the presentation data model."""

import gc

import pytest

from orepi import (
    FamilySpec,
    FieldCtx,
    Presentation,
    RewriteRule,
    build_family,
    central_candidates,
    normal_form,
    pi_decide,
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
    validate_orientation,
    verify_witness,
)
from orepi.cli import presentation_from_json, presentation_to_json
from orepi.errors import (
    DownUpNotNoetherian,
    FamilyMismatch,
    NonAntisymmetricLambda,
    ParametersRequired,
    PreconditionViolation,
    ZeroParameter,
)
from orepi.presentations import biquad3_conditions

from test_rewrite import LEFT_FIELDS, confluent_zoo_specs, family_zoo_specs


def lam2(ctx, l12):
    return ((ctx.one(), l12), (l12.inv(), ctx.one()))


def test_hpq_shape(rat_pq):
    p = build_family(spec_hpq(rat_pq, rat_pq.param("p"), rat_pq.param("q")))
    assert p.names == ("t", "x", "y")
    assert len(p.rules) == 3
    by_lhs = {r.lhs: r for r in p.rules}
    # x*t -> p t x ; y*t -> p^-1 t y ; y*x -> q x y + t
    assert by_lhs[p.word("x", "t")].rhs == ((rat_pq.param("p"), p.word("t", "x")),)
    assert by_lhs[p.word("y", "t")].rhs == ((rat_pq.param("p").inv(),
                                             p.word("t", "y")),)
    rhs = dict((w, c) for c, w in by_lhs[p.word("y", "x")].rhs)
    assert rhs[p.word("x", "y")] == rat_pq.param("q")
    assert rhs[p.word("t")] == rat_pq.one()


def test_m2_shape(rat_pq):
    a, b = rat_pq.param("p"), rat_pq.param("q")
    p = build_family(spec_m2(rat_pq, a, b))
    assert len(p.names) == 4 and len(p.rules) == 6


def test_uqb2_shape(rat_q):
    p = build_family(spec_uqb2(rat_q, rat_q.param("q")))
    assert p.names == ("z", "e3", "e1", "e2")
    assert len(p.rules) == 6


def test_downup_beta_zero_rejected(QQ):
    with pytest.raises(DownUpNotNoetherian):
        build_family(spec_downup(QQ, QQ.from_int(1), QQ.zero(), QQ.one()))


def test_downup_word_rules(QQ):
    p = build_family(spec_downup(QQ, QQ.from_int(2), QQ.from_int(-1),
                                 QQ.one()))
    assert sorted(r.lhs for r in p.rules) == \
        sorted([p.word("d", "u", "u"), p.word("d", "d", "u")])


def test_zero_parameter_rejected(QQ):
    with pytest.raises(ZeroParameter):
        build_family(spec_hpq(QQ, QQ.zero(), QQ.one()))


def test_lambda_antisymmetry_checked(QQ):
    bad = ((QQ.one(), QQ.from_int(2)), (QQ.from_int(3), QQ.one()))
    with pytest.raises(NonAntisymmetricLambda):
        build_family(spec_weyl(QQ, (QQ.from_int(2), QQ.from_int(3)), bad))


@pytest.mark.parametrize("lam,error,message", [
    (((2, 1), (1, 1)), NonAntisymmetricLambda, "lambda_ii must be 1"),
    (((1, 0), (0, 1)), ZeroParameter, "lambda entries must be nonzero"),
], ids=["lambda11", "lambda12-zero"])
def test_lambda_diagonal_and_zero_entries_refused(QQ, lam, error, message):
    bad = [[QQ.from_int(v) for v in row] for row in lam]
    with pytest.raises(error, match=f"^{message}$"):
        build_family(spec_weyl(QQ, (QQ.from_int(2), QQ.from_int(3)), bad))


def test_validate_orientation_quantum_plane(rat_q):
    p = build_family(spec_quantum_plane(rat_q, rat_q.param("q")))
    assert all(ok for _, ok, _ in validate_orientation(p))


def test_validate_orientation_bqf_weights(rat_q):
    # weight(w) = deg f keeps the f-tails strictly below w*u
    f = (rat_q.zero(), rat_q.zero(), rat_q.zero(), rat_q.one())  # t^3
    p = build_family(spec_bqf(rat_q, rat_q.param("q"), f))
    assert p.weights == (1, 1, 3)
    assert all(ok for _, ok, _ in validate_orientation(p))


def test_validate_orientation_degree_raising_rule_fails(QQ):
    # x*y -> y*x*x has a degree-3 term above the degree-2 lhs
    names = ("x", "y")
    rule = RewriteRule((0, 1), [(QQ.one(), (1, 0, 0))])
    p = Presentation(QQ, names, (1, 1), names, [rule])
    report = validate_orientation(p)
    assert report[0][1] is False
    assert report[0][2] == (1, 0, 0)


def test_build_family_deterministic(rat_pq):
    # two equal specs build equal presentations; one spec builds once
    s, t = (spec_hpq(rat_pq, rat_pq.param("p"), rat_pq.param("q"))
            for _ in range(2))
    assert build_family(s) is not build_family(t)
    assert build_family(s) == build_family(t)
    assert build_family(s) is build_family(s)


def quad_descent_lhss(p):
    """Expected rule left sides for a quadratic family: all descents."""
    rank = {i: p.precedence.index(p.names[i]) for i in range(len(p.names))}
    return sorted((b, a) for a in range(len(p.names))
                  for b in range(len(p.names)) if rank[b] > rank[a])


@pytest.mark.parametrize("builder", [
    lambda ctx: spec_bh(ctx, ctx.param("p")),
    lambda ctx: spec_hpq(ctx, ctx.param("p"), ctx.param("q")),
    lambda ctx: spec_m2(ctx, ctx.param("p"), ctx.param("q")),
    lambda ctx: spec_uqb2(ctx, ctx.param("q")),
    lambda ctx: spec_three_cyclic(ctx, ctx.param("q"), ctx.one(), ctx.one(),
                                  ctx.one()),
])
def test_quadratic_rule_sets_are_exactly_the_descents(builder, rat_pq):
    p = build_family(builder(rat_pq))
    assert sorted(r.lhs for r in p.rules) == quad_descent_lhss(p)


def test_weyl_rule_set_descents(rat_pq):
    lam = lam2(rat_pq, rat_pq.param("p"))
    p = build_family(spec_weyl(rat_pq, (rat_pq.param("q"), rat_pq.param("q")),
                               lam))
    assert sorted(r.lhs for r in p.rules) == quad_descent_lhss(p)


@pytest.mark.parametrize("make", [
    lambda: build_family(spec_hpq(FieldCtx.rational_functions(("p", "q")),
                                  FieldCtx.rational_functions(("p", "q")).param("p"),
                                  FieldCtx.rational_functions(("p", "q")).param("q"))),
    lambda: build_family(spec_uqb2(FieldCtx.cyclotomic(5),
                                   FieldCtx.cyclotomic(5).generator())),
    lambda: build_family(spec_downup(FieldCtx.rational(),
                                     FieldCtx.rational().from_int(2),
                                     FieldCtx.rational().from_int(-1),
                                     FieldCtx.rational().one())),
    lambda: build_family(spec_bqf(FieldCtx.galois(3, (1, 0, 1)),
                                  FieldCtx.galois(3, (1, 0, 1)).from_int(-1),
                                  (FieldCtx.galois(3, (1, 0, 1)).zero(),
                                   FieldCtx.galois(3, (1, 0, 1)).one()))),
])
def test_presentation_json_roundtrip(make):
    p = make()
    doc = presentation_to_json(p)
    assert presentation_from_json(doc) == p


def test_biquad3_condition_violation_example(QQ):
    # q1=2, q2=3, lambda=1, everything else zero: (1 - q1 q2) lambda != 0
    z = QQ.zero()
    spec = spec_biquad3(QQ, (QQ.from_int(2), QQ.from_int(3), QQ.from_int(5)),
                        ((z, z, z), (z, z, z), (QQ.one(), z, z)), (z, z, z))
    conds = dict(biquad3_conditions(spec))
    assert conds["C4"] == QQ.from_int(-5)
    assert any(not v.is_zero() for v in conds.values())


def test_build_family_names_missing_parameters(QQ):
    # every parameter by the name its builder reads
    with pytest.raises(ParametersRequired, match="Hpq needs a value for q$"):
        build_family(FamilySpec("Hpq", QQ, p=QQ.from_int(2)))
    with pytest.raises(ParametersRequired,
                       match="WeylMalt needs a value for q_list, lam$"):
        build_family(FamilySpec("WeylMalt", QQ))
    with pytest.raises(ParametersRequired,
                       match="Bqf needs a value for q, f_coeffs$"):
        build_family(FamilySpec("Bqf", QQ))


def test_weyl_spec_takes_its_size_from_q_list(QQ):
    # no separate n: two values of q make two pairs x_i, y_i
    q1, q2 = QQ.from_int(2), QQ.from_int(3)
    spec = FamilySpec("WeylMalt", QQ, q_list=(q1, q2), lam=lam2(QQ, QQ.one()))
    p = build_family(spec)
    assert p.names == ("x1", "y1", "x2", "y2")
    v = pi_decide(spec)
    assert v.verdict == "NotPI"
    assert v.reason == "q1 is not a root of unity"
    assert v.witness.label == "z1 x1 = q1^-1 x1 z1"
    assert v.witness.param == q1.inv()
    assert verify_witness(spec, v.witness)
    # spec.<name> reads the one dict; a name it lacks is no attribute
    assert spec.q_list is spec.params["q_list"] is p.params["q_list"]
    with pytest.raises(AttributeError):
        spec.n


def test_a_name_the_builder_does_not_read_is_refused(QQ):
    two = QQ.from_int(2)
    lam = lam2(QQ, QQ.one())
    for n in (1, 2, 3):
        with pytest.raises(PreconditionViolation,
                           match="^WeylMalt reads no parameter n$"):
            FamilySpec("WeylMalt", QQ, q_list=(two, two), lam=lam, n=n)
    with pytest.raises(PreconditionViolation,
                       match="^Hpq reads no parameter zz$"):
        FamilySpec("Hpq", QQ, p=two, q=two, zz=two)
    # the presentation's old name for f_coeffs, and a value of another
    # family
    with pytest.raises(PreconditionViolation,
                       match="^Bqf reads no parameter f, h$"):
        FamilySpec("Bqf", QQ, q=two, f=(two,), h=two)
    with pytest.raises(FamilyMismatch, match="^unknown family 'Weyl'$"):
        FamilySpec("Weyl", QQ)


def test_malformed_weyl_and_biquad3_values_are_typed(QQ):
    # a lam of the wrong size, and BiQuad3 values that are not three q's,
    # a 3x3 tails matrix and three consts, are refused by shape
    two, z = QQ.from_int(2), QQ.zero()
    lam = lam2(QQ, QQ.one())
    for qs in ((two, two, two), (two,)):
        with pytest.raises(PreconditionViolation,
                           match=rf"^lam \(for {len(qs)} q_i\) must be "
                                 rf"{len(qs)}x{len(qs)}, got rows of "
                                 r"lengths \[2, 2\]$"):
            build_family(FamilySpec("WeylMalt", QQ, q_list=qs, lam=lam))
    tails = ((z, z, z),) * 3
    with pytest.raises(PreconditionViolation,
                       match="^BiQuad3 needs 3 q values and 3 consts, got 2 "
                             "and 3$"):
        build_family(spec_biquad3(QQ, (two, two), tails, (z, z, z)))
    with pytest.raises(PreconditionViolation,
                       match=r"^tails must be 3x3, got rows of lengths "
                             r"\[3, 2, 3\]$"):
        build_family(spec_biquad3(QQ, (two, two, two),
                                  ((z, z, z), (z, z), (z, z, z)), (z, z, z)))


def test_a_presentation_holds_its_spec_dict():
    # one dict of values, not a copy, for every zoo instance
    specs = family_zoo_specs() + [spec for ctx in LEFT_FIELDS.values()
                                  for spec in confluent_zoo_specs(ctx)]
    for spec in specs:
        assert build_family(spec).params is spec.params, spec


def test_a_spec_and_its_presentation_form_no_reference_cycle():
    # the presentation holds the spec's dict, not the spec, so dropping
    # the spec frees both without the cyclic collector
    c3 = FieldCtx.cyclotomic(3)
    gc.collect()
    gc.disable()
    try:
        spec = spec_hpq(c3, -c3.one(), c3.generator())
        p = build_family(spec)
        assert not normal_form(p, [(p.one, p.word("y", "x", "t"))]).is_zero()
        assert len(central_candidates(spec)) == 3
        del spec, p
        assert gc.collect() == 0
    finally:
        gc.enable()
