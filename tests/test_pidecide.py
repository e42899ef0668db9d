"""PI deciders: verdict table, witnesses, coherence, and the open gaps."""

from fractions import Fraction

import pytest

from orepi import (
    FAMILIES,
    CentralSet,
    FieldCtx,
    NCPoly,
    QPlaneWitness,
    build_family,
    central_candidates,
    is_central,
    pi_decide,
    spanning_check,
    spec_bh,
    spec_bqf,
    spec_downup,
    spec_hpq,
    spec_hq,
    spec_m2,
    spec_quantum_plane,
    spec_three_cyclic,
    spec_uqb2,
    spec_weyl,
    verify_witness,
)
from orepi.errors import (
    FamilyMismatch,
    HypothesisNotMet,
    OrepiError,
    PreconditionViolation,
)
from orepi.identities import theta_element
from orepi.linalg import SpanTracker
from orepi.rewrite import multiply, power, word_poly

from test_rewrite import confluent_zoo_specs, family_zoo_specs


def test_bh_verdicts(QQ):
    c5 = FieldCtx.cyclotomic(5)
    assert pi_decide(spec_bh(c5, c5.generator())).verdict == "PI"
    v = pi_decide(spec_bh(QQ, QQ.from_int(2)))
    assert v.verdict == "NotPI"
    assert verify_witness(spec_bh(QQ, QQ.from_int(2)), v.witness)
    assert v.witness.param.multiplicative_order() is None


def test_hpq_verdicts_and_witness_selection(cyclo3):
    z3, two = cyclo3.generator(), cyclo3.from_int(2)
    assert pi_decide(spec_hpq(cyclo3, cyclo3.from_int(-1), z3)).verdict == "PI"
    # p = 2 not a root, q = z3 a root: the subalgebra on t and x, x t = p t x
    s = spec_hpq(cyclo3, two, z3)
    v = pi_decide(s)
    assert v.verdict == "NotPI"
    assert (v.witness.label, v.witness.param) == ("x * t = p t * x", two)
    assert verify_witness(s, v.witness)
    # q not a root: theta and x, theta x = q x theta, is preferred
    s2 = spec_hpq(cyclo3, z3, two)
    v2 = pi_decide(s2)
    assert (v2.witness.label, v2.witness.param) == \
        ("theta * x = q x * theta", two)
    assert v2.witness.y_elem == theta_element(build_family(s2))
    assert verify_witness(s2, v2.witness)


def test_hpq_precondition(QQ):
    with pytest.raises(PreconditionViolation):
        pi_decide(spec_hpq(QQ, QQ.from_int(2),
                           QQ.from_fraction(Fraction(1, 2))))


def test_m2_verdicts(cyclo12, cyclo3):
    z3, z4 = cyclo12.root_of_unity(3), cyclo12.root_of_unity(4)
    assert pi_decide(spec_m2(cyclo12, z3, z4)).verdict == "PI"
    s = spec_m2(cyclo3, cyclo3.from_int(2), cyclo3.generator())
    v = pi_decide(s)
    assert v.verdict == "NotPI" and verify_witness(s, v.witness)


def test_uqb2_verdicts(rat_q):
    c5 = FieldCtx.cyclotomic(5)
    v = pi_decide(spec_uqb2(c5, c5.generator()))
    assert v.verdict == "PI" and v.witness is not None
    s = spec_uqb2(rat_q, rat_q.param("q"))
    v2 = pi_decide(s)
    assert v2.verdict == "NotPI" and verify_witness(s, v2.witness)


def test_uqb2_low_order_gap_and_empirical_record():
    # The iff-criterion grants PI for any root of unity, but the central
    # powers proposition needs order >= 5, so low orders carry no witness.
    # Frozen empirical outcomes for e_i^l centrality:
    #   l=2: none central; l=3: all central; l=4: only e3^4.
    expected = {2: {"e1": False, "e2": False, "e3": False},
                3: {"e1": True, "e2": True, "e3": True},
                4: {"e1": False, "e2": False, "e3": True}}
    for ell, outcomes in expected.items():
        ctx = FieldCtx.cyclotomic(ell)
        q = ctx.root_of_unity(ell)
        v = pi_decide(spec_uqb2(ctx, q))
        assert v.verdict == "PI" and v.witness is None
        assert v.details.get("gap") == "below-centro2-threshold"
        U = build_family(spec_uqb2(ctx, q))
        for nm, want in outcomes.items():
            el = NCPoly.monomial(ctx.one(), (U.gen(nm),) * ell)
            assert is_central(U, el)[0] is want


def test_weyl_verdicts(QQ):
    i = QQ.from_int
    lam = ((QQ.one(), i(-1)), (i(-1), QQ.one()))
    assert pi_decide(spec_weyl(QQ, (i(-1), i(-1)), lam)).verdict == "PI"
    rw = FieldCtx.rational_functions(("s",))
    lam_r = ((rw.one(), rw.from_int(-1)), (rw.from_int(-1), rw.one()))
    s = spec_weyl(rw, (rw.param("s"), rw.from_int(-1)), lam_r)
    v = pi_decide(s)
    assert v.verdict == "NotPI" and verify_witness(s, v.witness)
    # symbolic lambda: the y_i y_j witness fires
    rl = FieldCtx.rational_functions(("l",))
    lam_s = ((rl.one(), rl.param("l")), (rl.param("l").inv(), rl.one()))
    s2 = spec_weyl(rl, (rl.from_int(-1), rl.from_int(-1)), lam_s)
    v2 = pi_decide(s2)
    assert v2.verdict == "NotPI" and verify_witness(s2, v2.witness)
    assert "lambda" in v2.reason


@pytest.mark.parametrize("variant", ["maltsiniotis", "aj"])
@pytest.mark.parametrize("n,first", [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)])
def test_weyl_q_witnesses_verify(cyclo12, variant, n, first):
    # q_first is the first q_i that is not a root of unity, and every
    # lambda_ij is one, so the verdict rests on a q_i witness
    z = cyclo12.generator()
    qs = ([z ** (2 * i + 1) for i in range(first)] + [cyclo12.from_int(2)]
          + [cyclo12.from_int(3)] * (n - first - 1))
    lam = [[z ** (j - i) for j in range(n)] for i in range(n)]
    spec = spec_weyl(cyclo12, qs, lam, variant=variant)
    v = pi_decide(spec)
    assert v.verdict == "NotPI" and v.reason.startswith(f"q{first + 1} ")
    assert verify_witness(spec, v.witness), v.witness.label
    assert v.witness.param.multiplicative_order() is None


def test_three_cyclic_verdicts(QQ):
    c6 = FieldCtx.cyclotomic(6)
    s = spec_three_cyclic(c6, c6.generator(), c6.one(), c6.from_int(2),
                          c6.from_int(3))
    assert pi_decide(s).verdict == "PI"
    s2 = spec_three_cyclic(QQ, QQ.from_int(2), QQ.one(), QQ.one(), QQ.one())
    v = pi_decide(s2)
    assert v.verdict == "NotPI" and verify_witness(s2, v.witness)
    with pytest.raises(PreconditionViolation):
        pi_decide(spec_three_cyclic(QQ, QQ.from_int(-1), QQ.one(), QQ.one(),
                                    QQ.one()))


def test_three_cyclic_witness_with_zero_beta(QQ):
    # e = xz when beta = 0; the relation e z = q^-2 z e still holds
    s = spec_three_cyclic(QQ, QQ.from_int(2), QQ.one(), QQ.zero(), QQ.one())
    v = pi_decide(s)
    assert v.verdict == "NotPI" and verify_witness(s, v.witness)


def test_downup_verdicts_and_condition_crosscheck(QQ):
    i = QQ.from_int
    v = pi_decide(spec_downup(QQ, i(0), i(1), i(0)))
    assert v.verdict == "PI"
    assert v.details["automorphism_order"].finite
    for args, tag in [((2, -1, 0), "RepeatedRoot1"),
                      ((2, -1, 1), "RepeatedRoot1"),
                      ((0, 1, 1), "Lambda1GammaNonzero")]:
        v = pi_decide(spec_downup(QQ, i(args[0]), i(args[1]), i(args[2])))
        assert v.verdict == "NotPI"
        assert tag in v.reason
    with pytest.raises(PreconditionViolation):
        pi_decide(spec_downup(QQ, i(1), i(0), i(1)))


def test_bqf_verdicts(QQ, cyclo3):
    z3 = cyclo3.generator()
    one, zero = cyclo3.one(), cyclo3.zero()
    assert pi_decide(spec_bqf(cyclo3, z3, (zero, one))).verdict == "PI"
    s = spec_bqf(QQ, QQ.from_int(2), (QQ.zero(), QQ.one()))
    v = pi_decide(s)
    assert v.verdict == "NotPI" and verify_witness(s, v.witness)
    vu = pi_decide(spec_bqf(cyclo3, z3, (zero,) * 8 + (one,)))
    assert vu.verdict == "Unknown"
    assert vu.details["gap_exponents"] == [8]


def test_bqf_monotonicity(cyclo3, rng):
    # whenever the n | j route grants PI, the n not| (j+1) route also
    # applies, and both land on the same verdict
    z3 = cyclo3.generator()
    zero, one = cyclo3.zero(), cyclo3.one()
    for _ in range(10):
        exps = sorted({3 * rng.randint(1, 4) for _ in range(rng.randint(1, 3))})
        coeffs = [zero] * (max(exps) + 1)
        for e in exps:
            coeffs[e] = one
        s = spec_bqf(cyclo3, z3, tuple(coeffs))
        v = pi_decide(s)
        assert v.verdict == "PI"
        assert all((j + 1) % 3 != 0 for j in exps)


def test_bqf_char_p_gate():
    g3 = FieldCtx.galois_prime(3)
    with pytest.raises(PreconditionViolation):
        pi_decide(spec_bqf(g3, g3.from_int(-1), (g3.zero(), g3.one())))


def test_hq_corollary_agrees_with_hpq(cyclo12, QQ, rng):
    # p = q slice: 20 randomized instances
    done = 0
    while done < 20:
        k = rng.randrange(1, 12)
        q = cyclo12.root_of_unity(12) ** k
        if (q * q).is_one():
            continue  # pq = q^2 = 1 excluded by the precondition
        va = pi_decide(spec_hq(cyclo12, q))
        vb = pi_decide(spec_hpq(cyclo12, q, q))
        assert va.verdict == vb.verdict == "PI"
        done += 1
    for n in (2, 3, 5):
        va = pi_decide(spec_hq(QQ, QQ.from_int(n)))
        vb = pi_decide(spec_hpq(QQ, QQ.from_int(n), QQ.from_int(n)))
        assert va.verdict == vb.verdict == "NotPI"


def test_witness_examples_from_proofs(rat_q, cyclo3):
    # 3-cyclic: (z, e) with parameter q^-2
    ctx = FieldCtx.rational_functions(("q", "be"))
    s = spec_three_cyclic(ctx, ctx.param("q"), ctx.one(), ctx.param("be"),
                          ctx.one())
    from orepi.identities import cyc3_e
    p = build_family(s)
    w = QPlaneWitness(ctx.param("q") ** -2, "e z = q^-2 z e",
                      x_elem=word_poly(p, "z"), y_elem=cyc3_e(p))
    assert verify_witness(s, w)
    # Bh: (y1, u) with parameter -h^2
    rh = FieldCtx.rational_functions(("h",))
    sb = spec_bh(rh, rh.param("h"))
    pb = build_family(sb)
    from orepi.rewrite import normal_form
    u = normal_form(pb, [(rh.one(), pb.word("x1", "x2"))])
    wb = QPlaneWitness(-(rh.param("h") ** 2),
                       "y1 u = (-h^2) u y1",
                       x_elem=u, y_elem=word_poly(pb, "y1"))
    assert verify_witness(sb, wb)
    # M2: (X11, X21) with parameter beta
    sm = spec_m2(rat_q, rat_q.param("q").inv(), rat_q.param("q"))
    pm = build_family(sm)
    wm = QPlaneWitness(rat_q.param("q"),
                       "X21 X11 = beta X11 X21",
                       x_elem=word_poly(pm, "X11"), y_elem=word_poly(pm, "X21"))
    assert verify_witness(sm, wm)


def test_pi_witness_central_sets_verify(cyclo3):
    # PI verdicts carry candidates that really are central
    z3 = cyclo3.generator()
    for spec in (spec_hpq(cyclo3, cyclo3.from_int(-1), z3),
                 spec_m2(cyclo3, z3, z3),
                 spec_bqf(cyclo3, z3, (cyclo3.zero(), cyclo3.one()))):
        v = pi_decide(spec)
        assert v.verdict == "PI"
        p = build_family(spec)
        for _, el in v.witness:
            assert is_central(p, el)[0]


def _downup_with_roots(ctx, lam, mu):
    """A(lam + mu, -lam mu, 0): t^2 - alpha t - beta has the roots lam, mu."""
    return spec_downup(ctx, lam + mu, -(lam * mu), ctx.zero())


def test_pi_caps_are_a_spanning_witness(QQ):
    # the caps of a PI verdict are those of its central set, and the
    # central set with those caps spans the algebra as a module
    c3, c4, c5 = (FieldCtx.cyclotomic(n) for n in (3, 4, 5))
    m1, one = QQ.from_int(-1), QQ.one()
    for spec in (spec_quantum_plane(c3, c3.generator()),
                 spec_m2(QQ, m1, m1),
                 spec_three_cyclic(c4, c4.generator(), c4.one(),
                                   c4.from_int(2), c4.one()),
                 spec_weyl(QQ, (m1, m1), ((one, one), (one, one))),
                 spec_uqb2(c5, c5.generator()),
                 # f = 1: the candidate f(u) = 1 is a constant
                 spec_bqf(QQ, m1, (one,))):
        v = pi_decide(spec)
        assert v.verdict == "PI", spec
        assert v.witness.caps is not None, spec
        assert spanning_check(build_family(spec), v.witness,
                              v.witness.caps).ok, spec
    # down-up algebras with distinct roots of unity, lcm of orders m: the
    # caps are m + e - 1, e the least degree in x = ud, y = du of a
    # central omega-monomial: 2 for the first three (w1 w2 for the first
    # two, the square of the omega of the root -1 for the third), and 1
    # (omega1) when lambda = 1, gamma = 0; they span at the default
    # degree and beyond
    c12 = FieldCtx.cyclotomic(12)
    z3, z4 = c3.generator(), c4.generator()
    cases = [
        (_downup_with_roots(c3, z3, z3 * z3), 4),                   # A(-1,-1,0)
        (_downup_with_roots(c4, z4, -z4), 5),                       # A(0,-1,0)
        (_downup_with_roots(c12, c12.root_of_unity(4), -c12.one()), 5),
        (_downup_with_roots(QQ, one, m1), 2),                       # A(0,1,0)
        (_downup_with_roots(c3, c3.one(), z3), 3),
    ]
    for spec, cap in cases:
        v = pi_decide(spec)
        assert v.verdict == "PI", spec.params
        assert v.witness.caps == {"u": cap, "d": cap}
        p = build_family(spec)
        default = 2 * cap + 2
        for degree in (default, default + 4):
            assert spanning_check(p, v.witness, v.witness.caps, degree).ok, \
                (spec.params, degree)


def _not_pi_specs(QQ, cyclo3):
    one, two, z3 = QQ.one(), QQ.from_int(2), cyclo3.generator()
    c1, c2 = cyclo3.one(), cyclo3.from_int(2)
    return [
        spec_bh(QQ, two),
        spec_hpq(cyclo3, c2, z3),
        spec_hpq(cyclo3, z3, c2),
        spec_m2(cyclo3, z3, c2),
        spec_uqb2(QQ, two),
        spec_weyl(QQ, (one, -one), ((one, two), (two.inv(), one))),
        spec_weyl(QQ, (two, -one), ((one, one), (one, one)), variant="aj"),
        spec_three_cyclic(QQ, two, one, QQ.from_int(3), one),
        spec_bqf(QQ, two, (QQ.zero(), one)),
        spec_quantum_plane(cyclo3, c1 + c1 + z3),
    ]


def test_witness_with_one_scalar_changed_fails(QQ, cyclo3):
    # every NotPI witness verifies, and fails once its parameter is moved
    # by 1
    for spec in _not_pi_specs(QQ, cyclo3):
        w = pi_decide(spec).witness
        assert verify_witness(spec, w), spec
        fields = {k: getattr(w, k) for k in QPlaneWitness.__slots__}
        changed = QPlaneWitness(**dict(fields, param=w.param + 1))
        assert not verify_witness(spec, changed), spec


def test_every_not_pi_witness_spans_a_quantum_plane(QQ, cyclo3):
    # a witness pair generates a quantum plane, not a proper quotient of
    # one: the normal forms of x^i y^j, i + j <= 5, are independent
    for spec in _not_pi_specs(QQ, cyclo3):
        w = pi_decide(spec).witness
        p = build_family(spec)
        span = SpanTracker(p.order_key, p.ctx)
        for i in range(6):
            for j in range(6 - i):
                m = multiply(p, power(p, w.x_elem, i), power(p, w.y_elem, j))
                assert span.insert(m.vals), (spec, w.label, i, j)
        assert span.rank == 21


def test_every_family_but_biquad3_gets_a_verdict():
    # one PI criterion per family: a verdict on each family's zoo instance
    # (WeylAJ's from the confluent zoo), and BiQuad3, which has none, is
    # refused by both entry points
    specs = {}
    for spec in family_zoo_specs() + confluent_zoo_specs(FieldCtx.rational()):
        specs.setdefault(spec.family, spec)
    assert set(specs) == set(FAMILIES)
    for family, spec in specs.items():
        if family == "BiQuad3":
            with pytest.raises(FamilyMismatch, match="^no PI decider"):
                pi_decide(spec)
            with pytest.raises(HypothesisNotMet, match="^no candidate table"):
                central_candidates(spec)
        else:
            assert pi_decide(spec).verdict in ("PI", "NotPI", "Unknown")


def test_hpq_pq_one_is_one_error_class():
    # pq = 1 is refused with the same typed error by both entry points,
    # also where p and q are roots of unity
    QQ, c3 = FieldCtx.rational(), FieldCtx.cyclotomic(3)
    z3 = c3.generator()
    half = QQ.from_fraction(Fraction(1, 2))
    for spec in (spec_hpq(QQ, QQ.from_int(2), half), spec_hpq(c3, z3, z3 * z3)):
        for entry in (central_candidates, pi_decide):
            with pytest.raises(PreconditionViolation,
                               match=r"^pq = 1 is excluded$"):
                entry(spec)


def _pi_instances_over_q_z12():
    """(spec, parameters whose orders the decider reads): one PI instance
    of each family with a criterion, at roots of unity of Q(z12)."""
    c = FieldCtx.cyclotomic(12)
    one, m1, z3, z4, z6 = (c.one(), -c.one(), c.root_of_unity(3),
                           c.root_of_unity(4), c.root_of_unity(6))
    lam = ((one, m1), (m1, one))
    return [
        (spec_bh(c, z3), 1),
        (spec_hpq(c, m1, z3), 2),
        (spec_m2(c, z3, z4), 2),
        (spec_uqb2(c, z6), 1),
        (spec_weyl(c, (m1, z4), lam), 3),
        (spec_weyl(c, (m1, z4), lam, variant="aj"), 3),
        (spec_three_cyclic(c, z3, one, c.from_int(2), c.from_int(3)), 1),
        (spec_downup(c, m1, m1, c.zero()), 2),
        (spec_bqf(c, z3, (c.zero(), one)), 1),
        (spec_quantum_plane(c, z3), 1),
    ]


@pytest.mark.parametrize("spec,reads", _pi_instances_over_q_z12(),
                         ids=lambda v: getattr(v, "family", str(v)))
def test_pi_verdict_takes_each_parameter_order_once(monkeypatch, spec, reads):
    # the decider builds its central set from the orders it read, so a PI
    # verdict computes each parameter's order once
    orders = _count_orders(monkeypatch)
    v = pi_decide(spec)
    assert v.verdict == "PI" and v.witness is not None
    assert len(orders) == reads


# the families whose central set is the one of their PI verdict
_VERDICT_SET_FAMILIES = {"Bh", "Hpq", "M2", "UqB2", "WeylMalt", "WeylAJ",
                         "ThreeCyclic", "QuantumPlane"}


def _outcome(entry, spec):
    """The entry point's result on spec, or the OrepiError it raised."""
    try:
        return entry(spec)
    except OrepiError as e:
        return e


def _agreement_specs():
    from test_center import _root_cases
    specs = family_zoo_specs() + [case.values[0] for case in _root_cases()]
    for ctx in (FieldCtx.rational(), FieldCtx.cyclotomic(12),
                FieldCtx.galois(7, (3, 1, 1))):
        specs += confluent_zoo_specs(ctx)
    return [spec for spec in specs if spec.family in _VERDICT_SET_FAMILIES]


def test_central_candidates_is_the_pi_verdicts_central_set():
    # on the eight families whose criterion is their decider alone:
    # the PI verdict's central set, the verdict's reason as a
    # HypothesisNotMet when it has none, or the decider's own error
    specs = _agreement_specs()
    assert {spec.family for spec in specs} == _VERDICT_SET_FAMILIES
    for spec in specs:
        v = _outcome(pi_decide, spec)
        got = _outcome(central_candidates, spec)
        if isinstance(v, OrepiError):
            assert (type(got), str(got)) == (type(v), str(v)), spec
        elif isinstance(v.witness, CentralSet):
            assert isinstance(got, CentralSet), spec
            assert (got.names(), got.condition, got.caps) == \
                (v.witness.names(), v.witness.condition, v.witness.caps)
            assert [el for _, el in got] == [el for _, el in v.witness]
        else:
            assert isinstance(got, HypothesisNotMet), spec
            assert got.reason == v.reason


@pytest.mark.parametrize("make_ctx", [FieldCtx.rational,
                                      lambda: FieldCtx.cyclotomic(4)],
                         ids=["Q", "Q(z4)"])
def test_three_cyclic_q_squared_one_is_one_error_class(make_ctx):
    # q^2 = 1 is refused with the same typed error by both entry points
    ctx = make_ctx()
    one = ctx.one()
    for q in (one, -one):
        spec = spec_three_cyclic(ctx, q, one, ctx.from_int(2),
                                 ctx.from_int(3))
        for entry in (central_candidates, pi_decide):
            with pytest.raises(PreconditionViolation,
                               match=r"^q\^2 = 1 is excluded$"):
                entry(spec)


def _count_orders(monkeypatch):
    """A list that grows by one at each FieldCtx.multiplicative_order
    call."""
    calls = []
    order = FieldCtx.multiplicative_order

    def spy(ctx, c):
        calls.append(c)
        return order(ctx, c)
    monkeypatch.setattr(FieldCtx, "multiplicative_order", spy)
    return calls


def test_downup_pi_verdict_solves_the_quadratic_once(monkeypatch):
    # the decider hands the roots it found, and their orders, to the
    # centre generators, and builds its central set in its own
    # presentation, not through the spec entry point central_candidates
    from orepi import center
    searches, entries, solves = [], [], []
    solve, roots_of = center._quadratic_roots, center._downup_roots

    def spy_roots(ctx, alpha, beta, roots):
        if roots is None:
            searches.append(alpha)
        return solve(ctx, alpha, beta, roots)

    def spy_downup_roots(*args):
        solves.append(args)
        return roots_of(*args)
    monkeypatch.setattr(center, "_quadratic_roots", spy_roots)
    monkeypatch.setattr(center, "_downup_roots", spy_downup_roots)
    monkeypatch.setattr(center, "central_candidates",
                        lambda spec: entries.append(spec))
    orders = _count_orders(monkeypatch)
    c3 = FieldCtx.cyclotomic(3)
    m1 = -c3.one()
    v = pi_decide(spec_downup(c3, m1, m1, c3.one()))
    assert v.verdict == "PI" and v.witness.caps == {"u": 4, "d": 4}
    assert len(searches) == 1 and entries == []
    # each PI verdict: roots z3, z3^2 with gamma = 0 and 1, roots 1, -1
    # with gamma = 0, and roots z4, -z4
    QQ, c4 = FieldCtx.rational(), FieldCtx.cyclotomic(4)
    for spec in (spec_downup(c3, m1, m1, c3.zero()),
                 spec_downup(c3, m1, m1, c3.one()),
                 spec_downup(QQ, QQ.zero(), QQ.one(), QQ.zero()),
                 spec_downup(c4, c4.zero(), -c4.one(), c4.one())):
        del solves[:], orders[:]
        v = pi_decide(spec)
        assert v.verdict == "PI" and v.witness is not None
        assert (len(solves), len(orders)) == (1, 2), spec
