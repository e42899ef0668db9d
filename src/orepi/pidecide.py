"""Per-family PI-property deciders with machine-checkable witnesses.

Each decider evaluates a root-of-unity criterion.  PI verdicts carry the
central-element candidates that drive module-finiteness (when the route
is module-finite); NotPI verdicts carry a quantum-plane witness: a pair
of elements y, x with y x = param * x y in the algebra (subalgebra kind)
or a normal element whose quotient is a quantum plane (quotient kind),
with the witness parameter not a root of unity.  Unknown is reserved for
the genuinely open B_q(f) gap.
"""

from .center import (bqf_routes, central_candidates, gwa_auto_order,
                     irreducible_words)
from .errors import FamilyMismatch, PreconditionViolation
from .identities import bh_uvst, cyc3_e, theta_element, weyl_z
from .linalg import SpanTracker
from .presentations import build_family
from .rewrite import NCPoly, multiply, q_commutator, word_poly

PI, NOT_PI, UNKNOWN = "PI", "NotPI", "Unknown"

DOWNUP_EQUIVALENT_CONDITIONS = (
    "1: automorphism of finite order (roots-of-unity case)",
    "2: finitely generated module over a central subalgebra",
    "3: satisfies a polynomial identity",
    "4: fully bounded Noetherian",
    "5: roots of t^2 - alpha t - beta are distinct roots of unity"
    " (and != 1 when gamma != 0)",
)


class QPlaneWitness:
    """Quantum-plane evidence for a NotPI verdict.

    subalgebra kind: y_elem * x_elem = param * x_elem * y_elem inside the
    algebra.  quotient kind: ``factored`` is a normal element (normality
    holds with the listed per-generator scalars) and the quotient is the
    quantum plane on ``plane_gens`` with the given parameter.
    """

    __slots__ = ("kind", "x_elem", "y_elem", "param", "label",
                 "factored", "factored_name", "normality", "plane_gens")

    def __init__(self, kind, param, label, x_elem=None, y_elem=None,
                 factored=None, factored_name=None, normality=None,
                 plane_gens=None):
        self.kind = kind
        self.param = param
        self.label = label
        self.x_elem = x_elem
        self.y_elem = y_elem
        self.factored = factored
        self.factored_name = factored_name
        self.normality = normality
        self.plane_gens = plane_gens

    def __repr__(self):
        return f"<QPlaneWitness {self.kind}: {self.label}>"


class PiVerdict:
    __slots__ = ("verdict", "reason", "witness", "caps", "details")

    def __init__(self, verdict, reason, witness=None, caps=None, details=None):
        self.verdict = verdict
        self.reason = reason
        self.witness = witness
        self.caps = caps
        self.details = dict(details or {})

    def __repr__(self):
        return f"<PiVerdict {self.verdict}: {self.reason}>"


def pi_decide(spec):
    """The verdict on spec, decided in its one built presentation."""
    handler = _DECIDERS.get(spec.family)
    if handler is None:
        raise FamilyMismatch(f"no PI decider for family {spec.family}")
    return handler(spec, build_family(spec))


def _pi(spec, reason, **details):
    """A PI verdict witnessed by the family's central candidates, with the
    caps of their module-finiteness witness (None when there is none)."""
    cs = central_candidates(spec)
    return PiVerdict(PI, reason, witness=cs, caps=cs.caps, details=details)


def _subalgebra_witness(p, yname_or_poly, xname_or_poly, param, label):
    def as_poly(v):
        if isinstance(v, NCPoly):
            return v
        return word_poly(p, v)
    return QPlaneWitness("subalgebra", param, label,
                         x_elem=as_poly(xname_or_poly),
                         y_elem=as_poly(yname_or_poly))


def _decide_bh(spec, p):
    h = p.params["h"]
    ell = h.multiplicative_order()
    if ell is not None:
        return _pi(spec, f"h is a root of unity of order {ell}")
    u = bh_uvst(p)[0]
    w = QPlaneWitness("subalgebra", -(h * h), "y1 * u = (-h^2) u * y1",
                      x_elem=u,
                      y_elem=word_poly(p, "y1"))
    return PiVerdict(NOT_PI, "h is not a root of unity; the subalgebra on "
                     "y1 and u = x1 x2 is a quantum plane with parameter "
                     "-h^2", witness=w)


def _decide_hpq(spec, p):
    pp, qq = p.params["p"], p.params["q"]
    if (pp * qq).is_one():
        raise PreconditionViolation("pq = 1 is excluded")
    n = pp.multiplicative_order()
    m = qq.multiplicative_order()
    if n is not None and m is not None:
        return _pi(spec, f"p, q roots of unity (orders {n}, {m})")
    one = p.ctx.one()
    if m is None:
        w = QPlaneWitness(
            "quotient", qq, "H/tH is the quantum plane with parameter q",
            factored=word_poly(p, "t"), factored_name="t",
            normality=[("x", pp.inv()), ("y", pp), ("t", one)],
            plane_gens=("x", "y"))
        return PiVerdict(NOT_PI, "q is not a root of unity", witness=w)
    th = theta_element(p)
    w = QPlaneWitness(
        "quotient", pp.inv(),
        "H/theta H is the quantum plane with parameter p^-1",
        factored=th, factored_name="theta = (1-pq) yx - t",
        normality=[("x", qq), ("y", qq.inv()), ("t", one)],
        plane_gens=("x", "y"))
    return PiVerdict(NOT_PI, "p is not a root of unity", witness=w)


def _decide_m2(spec, p):
    a, b = p.params["alpha"], p.params["beta"]
    na, nb = a.multiplicative_order(), b.multiplicative_order()
    if na is not None and nb is not None:
        return _pi(spec, f"alpha, beta roots of unity (orders {na}, {nb})")
    if na is None:
        w = _subalgebra_witness(p, "X12", "X11", a,
                                "X12 * X11 = alpha X11 * X12")
        return PiVerdict(NOT_PI, "alpha is not a root of unity", witness=w)
    w = _subalgebra_witness(p, "X21", "X11", b, "X21 * X11 = beta X11 * X21")
    return PiVerdict(NOT_PI, "beta is not a root of unity", witness=w)


def _decide_uqb2(spec, p):
    q = p.params["q"]
    ell = q.multiplicative_order()
    if ell is None:
        w = _subalgebra_witness(p, "e1", "e3", (q * q).inv(),
                                "e1 * e3 = q^-2 e3 * e1")
        return PiVerdict(NOT_PI, "q is not a root of unity", witness=w)
    if ell >= 5:
        return _pi(spec, f"q root of unity of order {ell} >= 5")
    return PiVerdict(PI, f"q root of unity of order {ell} < 5: the "
                     "central-powers proposition does not apply, no "
                     "module-finiteness witness is attached",
                     details={"gap": "below-centro2-threshold"})


def _decide_weyl(spec, p):
    qs, lam = p.params["q_list"], p.params["lam"]
    n = len(qs)
    orders = {}
    for i, qi in enumerate(qs):
        orders[f"q{i + 1}"] = qi.multiplicative_order()
    for i in range(n):
        for j in range(i + 1, n):
            orders[f"lambda_{i + 1}{j + 1}"] = \
                lam[i][j].multiplicative_order()
    if all(v is not None for v in orders.values()):
        return _pi(spec, "all q_i and lambda_ij are roots of unity")
    for i in range(n):
        for j in range(i + 1, n):
            if orders[f"lambda_{i + 1}{j + 1}"] is None:
                w = _subalgebra_witness(
                    p, f"y{i + 1}", f"y{j + 1}", lam[i][j],
                    f"y{i + 1} y{j + 1} = lambda_{i + 1}{j + 1} "
                    f"y{j + 1} y{i + 1}")
                return PiVerdict(NOT_PI,
                                 f"lambda_{i + 1}{j + 1} is not a root of "
                                 "unity", witness=w)
    for i in range(n):
        if orders[f"q{i + 1}"] is None:
            w = _subalgebra_witness(
                p, weyl_z(p, i + 1), f"x{i + 1}", qs[i].inv(),
                f"z{i + 1} x{i + 1} = q{i + 1}^-1 x{i + 1} z{i + 1}")
            return PiVerdict(NOT_PI, f"q{i + 1} is not a root of unity",
                             witness=w)
    raise AssertionError("unreachable")


def _decide_three_cyclic(spec, p):
    q = p.params["q"]
    q2 = q * q
    if q2.is_one():
        raise PreconditionViolation("q^2 = 1 is excluded")
    ell = q2.multiplicative_order()
    if ell is not None:
        return _pi(spec, f"q^2 is a root of unity of order {ell}")
    e = cyc3_e(p)
    w = QPlaneWitness("subalgebra", q2.inv(), "e z = q^-2 z e with "
                      "e = xz - q^2 beta/(q^2-1)",
                      x_elem=word_poly(p, "z"),
                      y_elem=e)
    return PiVerdict(NOT_PI, "q^2 is not a root of unity", witness=w)


def _decide_downup(spec, p):
    al, be, ga = (p.params[k] for k in ("alpha", "beta", "gamma"))
    order = gwa_auto_order(p.ctx, al, be, ga)
    lam, mu = order.roots
    ol, om = lam.multiplicative_order(), mu.multiplicative_order()
    cond5 = (lam != mu and ol is not None and om is not None
             and (ga.is_zero() or (not lam.is_one() and not mu.is_one())))
    if cond5 != order.finite:
        raise AssertionError("condition (5) disagrees with the "
                             "automorphism-order route")
    details = {
        "equivalent_conditions": DOWNUP_EQUIVALENT_CONDITIONS,
        "roots": (lam, mu),
        "automorphism_order": order,
    }
    if cond5:
        # the candidates' caps u^m, d^m carry m = lcm(ord lam, ord mu),
        # the automorphism order
        return _pi(spec, "condition (5): roots are distinct roots of "
                   f"unity (orders {ol}, {om})", **details)
    why = order.case or "DistinctRootsNotUnity"
    return PiVerdict(NOT_PI, f"condition (5) fails: {why}", details=details)


def _decide_bqf(spec, p):
    if p.ctx.kind == "galois":
        raise PreconditionViolation(
            "the PI decider assumes characteristic zero; over GF(p) only "
            "the centrality route (u^n, v^n) applies")
    q = p.params["q"]
    n = q.multiplicative_order()
    if n is None:
        w = _subalgebra_witness(p, "u", "v", q, "u v = q v u")
        return PiVerdict(NOT_PI, "q is not a root of unity; the quantum "
                         "plane on u, v is not PI", witness=w)
    route_nj1, route_nj, bad = bqf_routes(n, p.params["f_coeffs"])
    if route_nj:
        return _pi(spec, f"ord(q) = {n} divides every exponent in "
                   "supp(f): module-finite over f(u), f(v), w^n and "
                   "u^n, v^n")
    if route_nj1:
        return _pi(spec, f"ord(q) = {n} divides no j+1 for j in "
                   "supp(f): PI by the dimension-counting route "
                   "(u^n, v^n central; no finite spanning witness)",
                   route="gk-dimension-route")
    return PiVerdict(UNKNOWN, f"ord(q) = {n} divides j+1 for j in {bad}: "
                     "outside both sufficient routes and no necessity "
                     "argument applies", details={"gap_exponents": bad})


def _decide_quantum_plane(spec, p):
    q = p.params["q"]
    n = q.multiplicative_order()
    if n is not None:
        return _pi(spec, f"q root of unity of order {n}")
    w = _subalgebra_witness(p, "y", "x", q, "y x = q x y")
    return PiVerdict(NOT_PI, "q is not a root of unity", witness=w)


_DECIDERS = {
    "Bh": _decide_bh,
    "Hpq": _decide_hpq,
    "M2": _decide_m2,
    "UqB2": _decide_uqb2,
    "WeylMalt": _decide_weyl,
    "WeylAJ": _decide_weyl,
    "ThreeCyclic": _decide_three_cyclic,
    "DownUp": _decide_downup,
    "Bqf": _decide_bqf,
    "QuantumPlane": _decide_quantum_plane,
}


def verify_witness(spec, w):
    """Engine-check a NotPI witness's defining relations e f = s f e, and
    a quotient witness's parameter: r = y x - param x y lies in theta A,
    theta the normal factored element, when it is in the span of the
    rows theta * m, m each irreducible word up to deg r - deg theta.
    Sound; complete where deg(theta a) = deg theta + deg a, as in Hpq,
    whose associated graded ring is a domain."""
    p = build_family(spec)
    if w.kind == "subalgebra":
        return q_commutator(p, w.y_elem, w.x_elem, w.param).is_zero()
    if w.kind != "quotient":
        raise FamilyMismatch(f"unknown witness kind {w.kind!r}")
    th = w.factored
    if not all(q_commutator(p, th, word_poly(p, g), s).is_zero()
               for g, s in w.normality):
        return False
    x, y = (word_poly(p, g) for g in w.plane_gens)
    r = q_commutator(p, y, x, w.param).vals
    span = SpanTracker(p.order_key, p.ctx)
    for m in irreducible_words(p, max(map(len, r), default=0)
                               - max(map(len, th.vals))):
        span.insert(multiply(p, th, NCPoly.monomial(p.one, m)).vals)
    return span.contains(r)
