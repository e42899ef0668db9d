"""Centrality testing, and each family's PI criterion: one decider per
family; plus the generalized Weyl automorphism analysis for down-up
algebras.

A decider reads each of the family's parameters once and evaluates its
root-of-unity criterion.  PI verdicts carry the named central elements
that the criterion's propositions promise, built from the orders the
decider read, with the caps of their module-finiteness witness when the
route is module-finite; the decider does not verify them (tests and
callers do, through is_central).  NotPI verdicts carry a quantum-plane
witness: a pair of elements y, x with y x = param * x y in the algebra,
param not a root of unity, whose monomials x^i y^j are independent, so
that they span a quantum plane inside it, and PI passes to subalgebras.
Unknown is reserved for the genuinely open B_q(f) gap.

central_candidates is the central set of the PI verdict.  Only DownUp
and Bqf keep a candidate builder of their own, because their central
sets reach beyond their PI verdicts; their deciders hand it the values
they read.  The down-up analysis works through the polynomial
automorphism phi(x) = y, phi(y) = alpha y + beta x + gamma of k[x,y],
whose eigenvalues are the roots of t^2 - alpha t - beta.
"""

from fractions import Fraction
from functools import cache, reduce
from math import isqrt, lcm

from .errors import (
    BetaZero,
    DegreeTooSmall,
    HypothesisNotMet,
    NonConfluentPresentation,
    PreconditionViolation,
    RootsRequired,
    TrivialCenter,
)
from .fields import _factorize, _mp_add, _mp_mul
from .identities import bh_uvst, bqf_f, cyc3_e, theta_element, weyl_z
from .linalg import SpanTracker, dense_kernel
from .presentations import build_family
from .rewrite import (
    NCPoly,
    left_multiply,
    multiply,
    normal_form,
    power,
    product_memo,
    q_commutator,
    word_poly,
)


def is_central(p, a):
    """(True, None) if a commutes with every generator, else (False,
    (generator name, nonzero residual)).

    Requires a confluent presentation (checked), so that the residual
    does not depend on the rewriting strategy.
    """
    if not p.is_confluent():
        raise NonConfluentPresentation(p.family or "custom")
    with product_memo():
        for name in p.names:
            r = q_commutator(p, a, word_poly(p, name), p.one)
            if not r.is_zero():
                return False, (name, r)
    return True, None


class CentralSet:
    """Named central-element candidates, the condition they rely on, and
    the caps (generator name -> exponent bound) of the residual monomials
    over which the algebra is spanned as a module, or None when no
    module-finiteness witness comes with them."""

    __slots__ = ("elements", "condition", "caps")

    def __init__(self, elements, condition="", caps=None):
        self.elements = list(elements)  # [(name, NCPoly)]
        self.condition = condition
        self.caps = caps

    def names(self):
        return [n for n, _ in self.elements]

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return f"<CentralSet {{{', '.join(self.names())}}}>"


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
    """Quantum-plane evidence for a NotPI verdict: y_elem * x_elem =
    param * x_elem * y_elem inside the algebra, with the monomials
    x_elem^i y_elem^j independent, so that the pair spans a quantum plane
    with parameter param."""

    __slots__ = ("param", "label", "x_elem", "y_elem")

    def __init__(self, param, label, x_elem, y_elem):
        self.param = param
        self.label = label
        self.x_elem = x_elem
        self.y_elem = y_elem

    def __repr__(self):
        return f"<QPlaneWitness: {self.label}>"


class PiVerdict:
    """A verdict, its reason and its witness: the family's CentralSet for
    PI (its caps those of the module-finiteness witness), a
    QPlaneWitness for NotPI."""

    __slots__ = ("verdict", "reason", "witness", "details")

    def __init__(self, verdict, reason, witness=None, details=None):
        self.verdict = verdict
        self.reason = reason
        self.witness = witness
        self.details = dict(details or {})

    def __repr__(self):
        return f"<PiVerdict {self.verdict}: {self.reason}>"


def central_candidates(spec):
    """The named central elements each root-of-unity proposition yields:
    the central set of the family's PI verdict, or, for DownUp and Bqf,
    of the family's candidate builder.  A verdict without a central set is
    a HypothesisNotMet with the verdict's reason, and a decider's own
    errors pass through.  Their products share one product memo."""
    decide = _CRITERIA.get(spec.family)
    if decide is None:
        raise HypothesisNotMet(f"no candidate table for family {spec.family}")
    p = build_family(spec)
    with product_memo():
        build = _CANDIDATES.get(spec.family)
        if build is not None:
            return build(p)
        verdict = decide(p)
    if isinstance(verdict.witness, CentralSet):
        return verdict.witness
    raise HypothesisNotMet(verdict.reason)


def _subalgebra_witness(p, y, x, param, label):
    """The witness y x = param x y, y and x each an element or the name of
    a generator."""
    y, x = (v if isinstance(v, NCPoly) else word_poly(p, v) for v in (y, x))
    return QPlaneWitness(param, label, x, y)


def _powers(p, names, ell):
    """[(name^ell, the word name^ell)] for each generator name."""
    return [(f"{nm}^{ell}", word_poly(p, *[nm] * ell)) for nm in names]


def bqf_routes(n, f):
    """The B_q(f) centrality routes at ord(q) = n, over j in supp f:
    (route 1: n divides no j+1, route 2: n >= 2 divides every j, the bad
    exponents j with n | j+1)."""
    supp = [j for j, cj in enumerate(f) if not cj.is_zero()]
    bad = [j for j in supp if (j + 1) % n == 0]
    return not bad, n >= 2 and all(j % n == 0 for j in supp), bad


def _decide_bh(p):
    h = p.params["h"]
    ell = h.multiplicative_order()
    if ell is not None:
        u, s, v, t = bh_uvst(p)
        els = [
            (f"u^{2 * ell}", power(p, u, 2 * ell)),
            (f"s^{ell}", power(p, s, ell)),
            (f"v^{2 * ell}", power(p, v, 2 * ell)),
            (f"t^{ell}", power(p, t, ell)),
        ]
        caps = {"x1": 4 * ell, "x2": 2 * ell, "y1": 4 * ell, "y2": 2 * ell}
        cs = CentralSet(els, condition=f"h root of unity of order {ell}",
                        caps=caps)
        return PiVerdict(PI, f"h is a root of unity of order {ell}",
                         witness=cs)
    w = _subalgebra_witness(p, "y1", bh_uvst(p)[0], -(h * h),
                            "y1 * u = (-h^2) u * y1")
    return PiVerdict(NOT_PI, "h is not a root of unity; the subalgebra on "
                     "y1 and u = x1 x2 is a quantum plane with parameter "
                     "-h^2", witness=w)


def _decide_hpq(p):
    pp, qq = p.params["p"], p.params["q"]
    if (pp * qq).is_one():
        raise PreconditionViolation("pq = 1 is excluded")
    n = pp.multiplicative_order()
    m = qq.multiplicative_order()
    if n is not None and m is not None:
        els = _powers(p, ("x", "y"), m * n) + _powers(p, ("t",), n)
        cs = CentralSet(els, condition=f"ord(p)={n}, ord(q)={m}",
                        caps={"x": m * n, "y": m * n, "t": n})
        return PiVerdict(PI, f"p, q roots of unity (orders {n}, {m})",
                         witness=cs)
    if m is None:
        # theta's normal form leads with x y, its coefficient (1 - pq) q
        # nonzero, so x^i theta^j leads with x^(i+j) y^j
        w = _subalgebra_witness(p, theta_element(p), "x", qq,
                                "theta * x = q x * theta")
        return PiVerdict(NOT_PI, "q is not a root of unity", witness=w)
    w = _subalgebra_witness(p, "x", "t", pp, "x * t = p t * x")
    return PiVerdict(NOT_PI, "p is not a root of unity", witness=w)


def _decide_m2(p):
    a, b = p.params["alpha"], p.params["beta"]
    na, nb = a.multiplicative_order(), b.multiplicative_order()
    if na is not None and nb is not None:
        ell = lcm(na, nb)
        names = ("X11", "X12", "X21", "X22")
        cs = CentralSet(_powers(p, names, ell),
                        condition=f"alpha, beta are {ell}-th roots of unity",
                        caps=dict.fromkeys(names, ell))
        return PiVerdict(PI, f"alpha, beta roots of unity (orders {na}, "
                         f"{nb})", witness=cs)
    if na is None:
        w = _subalgebra_witness(p, "X12", "X11", a,
                                "X12 * X11 = alpha X11 * X12")
        return PiVerdict(NOT_PI, "alpha is not a root of unity", witness=w)
    w = _subalgebra_witness(p, "X21", "X11", b, "X21 * X11 = beta X11 * X21")
    return PiVerdict(NOT_PI, "beta is not a root of unity", witness=w)


def _decide_uqb2(p):
    q = p.params["q"]
    ell = q.multiplicative_order()
    if ell is None:
        w = _subalgebra_witness(p, "e1", "e3", (q * q).inv(),
                                "e1 * e3 = q^-2 e3 * e1")
        return PiVerdict(NOT_PI, "q is not a root of unity", witness=w)
    if ell >= 5:
        els = [("z", word_poly(p, "z"))]
        els += _powers(p, ("e1", "e2", "e3"), ell)
        cs = CentralSet(els, condition=f"q primitive root of order {ell} >= 5",
                        caps={"z": 1, "e1": ell, "e2": ell, "e3": ell})
        return PiVerdict(PI, f"q root of unity of order {ell} >= 5",
                         witness=cs)
    return PiVerdict(PI, f"q root of unity of order {ell} < 5: the "
                     "central-powers proposition does not apply, no "
                     "module-finiteness witness is attached",
                     details={"gap": "below-centro2-threshold"})


def _decide_weyl(p):
    qs, lam = p.params["q_list"], p.params["lam"]
    n = len(qs)
    # label -> multiplicative order (None off the roots of unity): each
    # q_i, then each lambda_ij with i < j
    orders = {f"q{i + 1}": qi.multiplicative_order()
              for i, qi in enumerate(qs)}
    orders.update((f"lambda_{i + 1}{j + 1}", lam[i][j].multiplicative_order())
                  for i in range(n) for j in range(i + 1, n))
    if None not in orders.values():
        ell = lcm(*orders.values())
        names = [g for i in range(1, n + 1) for g in (f"x{i}", f"y{i}")]
        cs = CentralSet(_powers(p, names, ell), condition="all q_i, "
                        f"lambda_ij roots of unity; lcm {ell}",
                        caps=dict.fromkeys(names, ell))
        return PiVerdict(PI, "all q_i and lambda_ij are roots of unity",
                         witness=cs)
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


def _decide_three_cyclic(p):
    q2 = p.params["q"] ** 2
    ell = q2.multiplicative_order()
    if ell == 1:
        raise PreconditionViolation("q^2 = 1 is excluded")
    if ell is not None:
        names = ("x", "y", "z")
        cs = CentralSet(_powers(p, names, ell),
                        condition=f"q^2 primitive root of order {ell}",
                        caps=dict.fromkeys(names, ell))
        return PiVerdict(PI, f"q^2 is a root of unity of order {ell}",
                         witness=cs)
    w = _subalgebra_witness(p, cyc3_e(p), "z", q2.inv(), "e z = q^-2 z e "
                            "with e = xz - q^2 beta/(q^2-1)")
    return PiVerdict(NOT_PI, "q^2 is not a root of unity", witness=w)


def _bqf_candidates(p, n=None, routes=None):
    """Bqf central candidates at n = ord(q), routes = bqf_routes(n, f),
    both read here unless the PI decider hands them on.

    Route 1 (n not dividing j+1 for all j in supp f): u^n, v^n.
    Route 2 (n dividing j for all j in supp f): f(u), f(v), w^n.
    Over a characteristic-p field the same route-1 test applies; the
    p | n alternative can never trigger because unit orders in GF(p^k)
    divide p^k - 1 and are coprime to p.
    """
    if n is None:
        n = p.params["q"].multiplicative_order()
        if n is None:
            raise HypothesisNotMet("q is not a root of unity")
        routes = bqf_routes(n, p.params["f_coeffs"])
    route1, route2, bad = routes
    if not route1 and not route2:
        msg = f"n={n} divides j+1 for j in {bad}; no centrality route applies"
        if p.ctx.kind == "galois":
            # the characteristic-p alternative "p divides n" can never
            # trigger: unit orders in GF(p^k) divide p^k - 1
            msg += " (VacuousCharPCase: p | n is impossible in GF(p^k))"
        raise HypothesisNotMet(msg)
    els = _powers(p, ("u", "v"), n) if route1 else []
    if route2:
        fu = bqf_f(p, "u")
        if not fu.is_zero():
            els.append(("f(u)", fu))
            els.append(("f(v)", bqf_f(p, "v")))
        els += _powers(p, ("w",), n)
    cond = f"ord(q)={n}; routes: " + \
        ", ".join(r for r, on in (("n∤(j+1)", route1), ("n|j", route2)) if on)
    # only route 2 gives a module-finiteness witness
    caps = {"u": n, "v": n, "w": n} if route2 else None
    return CentralSet(els, condition=cond, caps=caps)


def _decide_bqf(p):
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
    routes = bqf_routes(n, p.params["f_coeffs"])
    route_nj1, route_nj, bad = routes
    if route_nj:
        return PiVerdict(PI, f"ord(q) = {n} divides every exponent in "
                         "supp(f): module-finite over f(u), f(v), w^n and "
                         "u^n, v^n", witness=_bqf_candidates(p, n, routes))
    if route_nj1:
        return PiVerdict(PI, f"ord(q) = {n} divides no j+1 for j in "
                         "supp(f): PI by the dimension-counting route "
                         "(u^n, v^n central; no finite spanning witness)",
                         witness=_bqf_candidates(p, n, routes),
                         details={"route": "gk-dimension-route"})
    return PiVerdict(UNKNOWN, f"ord(q) = {n} divides j+1 for j in {bad}: "
                     "outside both sufficient routes and no necessity "
                     "argument applies", details={"gap_exponents": bad})


def _decide_quantum_plane(p):
    q = p.params["q"]
    n = q.multiplicative_order()
    if n is not None:
        cs = CentralSet(_powers(p, ("x", "y"), n), condition=f"ord(q)={n}",
                        caps={"x": n, "y": n})
        return PiVerdict(PI, f"q root of unity of order {n}", witness=cs)
    w = _subalgebra_witness(p, "y", "x", q, "y x = q x y")
    return PiVerdict(NOT_PI, "q is not a root of unity", witness=w)


# ---------------------------------------------------------------------------
# commutative polynomials in x, y: dicts (i, j) -> Coeff, added and
# multiplied by the sparse polynomial helpers of fields
# ---------------------------------------------------------------------------


def cp_pow(a, e, c):
    """c * a^e for e >= 0 and a coefficient c."""
    out = {(0, 0): c}
    for _ in range(e):
        out = _mp_mul(out, a)
    return out


class _Substitution:
    """The map f(x, y) -> f(ix, iy) of k[x,y], given the images ix, iy of
    x and y."""

    __slots__ = ("ctx", "ix", "iy")

    def __init__(self, ctx, ix, iy):
        self.ctx, self.ix, self.iy = ctx, ix, iy

    def apply_poly(self, poly):
        out = {}
        one = self.ctx.one()
        for (i, j), c in poly.items():
            out = _mp_add(out, _mp_mul(cp_pow(self.ix, i, c),
                                       cp_pow(self.iy, j, one)))
        return out


def downup_phi(ctx, alpha, beta, gamma):
    """phi(x) = y, phi(y) = alpha y + beta x + gamma."""
    iy = {m: c for m, c in (((1, 0), beta), ((0, 1), alpha), ((0, 0), gamma))
          if not c.is_zero()}
    return _Substitution(ctx, {(0, 1): ctx.one()}, iy)


class OrderResult:
    __slots__ = ("finite", "order", "case", "roots", "orders")

    def __init__(self, finite, order, case, roots, orders):
        self.finite = finite
        self.order = order    # int when finite
        self.case = case      # tag for the infinite cases, None when finite
        self.roots = roots    # (lambda, mu)
        self.orders = orders  # (ord lambda, ord mu), None if no root of unity

    def __repr__(self):
        if self.finite:
            return f"<Finite order {self.order}>"
        return f"<Infinite: {self.case}>"


def exact_sqrt(c):
    """A square root of c in its own field, or None.

    Handles rational values (also rationals embedded in a cyclotomic
    field, where sqrt(-r) uses a 4th root of unity when available) and
    every value of a Galois field (Tonelli-Shanks, _GaloisField.sqrt).
    """
    ctx = c.ctx
    if c.is_zero():
        return ctx.zero()
    if ctx.kind == "galois":
        return ctx.sqrt(c)
    rat = c.as_fraction()
    if rat is None:
        return None
    neg = rat < 0
    mag = -rat if neg else rat
    rn, rd = isqrt(mag.numerator), isqrt(mag.denominator)
    if rn * rn != mag.numerator or rd * rd != mag.denominator:
        return None
    root = ctx.from_fraction(Fraction(rn, rd))
    if not neg:
        return root
    if ctx.kind == "cyclotomic" and ctx.unit_group_exponent() % 4 == 0:
        return root * ctx.root_of_unity(4)
    return None


def _quadratic_roots(ctx, alpha, beta, roots):
    if roots is not None:
        lam, mu = roots
        if not ((lam + mu) == alpha and (-(lam * mu)) == beta):
            raise PreconditionViolation("supplied roots do not satisfy "
                                        "t^2 - alpha t - beta")
        return lam, mu
    disc = alpha * alpha + 4 * beta
    s = exact_sqrt(disc)
    if s is None and ctx.kind == "cyclotomic":
        # over Q(zeta_N) the roots may still be roots of unity; the second
        # root of t^2 - alpha t - beta is alpha minus the first
        e = ctx.unit_group_exponent()
        w = ctx.root_of_unity(e)
        r = ctx.one()
        for _ in range(e):
            if (r * r - alpha * r - beta).is_zero():
                return r, alpha - r
            r = r * w
    if s is None:
        raise RootsRequired("discriminant has no square root here; "
                            "pass roots=(lambda, mu)")
    two = ctx.from_int(2)
    if two.is_zero():
        # no halving in GF(2^k), which has at most 64 elements: test each
        # unit (beta != 0, so both roots are units)
        for r in ctx.units():
            if (r * r - alpha * r - beta).is_zero():
                return r, alpha - r
        raise RootsRequired(f"t^2 - alpha t - beta has no root in {ctx!r}")
    return (alpha + s) / two, (alpha - s) / two


def _downup_roots(ctx, alpha, beta, roots):
    """(lambda, mu, ord lambda, ord mu) for the roots of t^2 - alpha t -
    beta, with lambda = 1 whenever one root is 1; an order is None when
    its root is no root of unity."""
    lam, mu = _quadratic_roots(ctx, alpha, beta, roots)
    if mu.is_one():
        lam, mu = mu, lam
    return lam, mu, lam.multiplicative_order(), mu.multiplicative_order()


def gwa_auto_order(ctx, alpha, beta, gamma, roots=None):
    """Order analysis of the down-up automorphism phi.

    Implements the four-way case split on the roots lambda, mu of
    t^2 - alpha t - beta; finite verdicts are re-verified on the orbit
    of x under phi, which also shows that no proper divisor of the order
    works.  The infinite cases assume characteristic zero: over GF(p^k)
    they raise PreconditionViolation.
    """
    if beta.is_zero():
        raise BetaZero("beta must be nonzero")
    lam, mu, ol, om = _downup_roots(ctx, alpha, beta, roots)
    if lam == mu:
        case = "RepeatedRoot1" if lam.is_one() else "RepeatedRootJordanBlock"
    elif lam.is_one() and not gamma.is_zero():
        case = "Lambda1GammaNonzero"
    elif ol is None or om is None:
        case = "DistinctRootsNotUnity"
    else:
        case = None
    result = OrderResult(case is None, None if case else lcm(ol, om), case,
                         (lam, mu), (ol, om))
    if ctx.char and not result.finite:
        # the affine maps of a finite field's plane form a finite group,
        # so phi has finite order here too, one this table does not compute
        raise PreconditionViolation(
            f"{result.case} over {ctx!r}: the case table assumes "
            "characteristic zero; phi has finite order over a finite field")
    if result.finite:
        # phi^k is the identity exactly when it fixes x and y = phi(x), that
        # is when phi^k(x), phi^(k+1)(x) are x, y: the orbit of x up to
        # phi^(m+1)(x) decides phi^m = id and each phi^(m/p) != id
        phi, m = downup_phi(ctx, alpha, beta, gamma), result.order
        orbit = [{(1, 0): ctx.one()}]
        for _ in range(m + 1):
            orbit.append(phi.apply_poly(orbit[-1]))
        is_id = [orbit[k:k + 2] == orbit[:2] for k in range(m + 1)]
        if not is_id[m]:
            raise AssertionError("case table gave a wrong finite order")
        if any(is_id[m // p] for p in _factorize(m)):
            raise AssertionError("finite order is not minimal")
    return result


def fixed_polynomials(phi, d):
    """Basis of the fixed subspace of k[x,y]_{<= d} under phi.

    Returns commutative polynomials (dicts (i,j) -> Coeff) spanning
    {f : phi(f) = f}, constants included.
    """
    ctx = phi.ctx
    monos = [(i, j) for s in range(d + 1) for i in range(s + 1)
             for j in (s - i,)]
    index = {m: k for k, m in enumerate(monos)}
    zero = ctx.zero()
    # rows indexed by output monomial, columns by input monomial
    rows = [[zero] * len(monos) for _ in monos]
    for col, m in enumerate(monos):
        img = phi.apply_poly({m: ctx.one()})
        for out_m, c in img.items():
            rows[index[out_m]][col] = rows[index[out_m]][col] + c
        rows[index[m]][col] = rows[index[m]][col] - ctx.one()
    basis = dense_kernel(rows, len(monos), ctx)
    out = []
    for vec in basis:
        poly = {m: c for m, c in zip(monos, vec) if not c.is_zero()}
        out.append(poly)
    return out


def downup_from_xy(p, cpoly):
    """Push a polynomial in x, y into the down-up algebra via x -> ud, y -> du."""
    u, d = p.gen("u"), p.gen("d")
    formal = []
    for (i, j), c in cpoly.items():
        formal.append((c, (u, d) * i + (d, u) * j))
    return normal_form(p, formal)


# the largest exponent of each omega in the omega-monomial search when the
# roots are not both roots of unity
OMEGA_EXPONENT_BOUND = 12


def downup_center_generators(spec, roots=None):
    """Center generators of a Noetherian down-up algebra A(alpha, beta,
    gamma), the generalized Weyl algebra over k[x, y], x = ud, y = du,
    with phi(x) = y, phi(y) = alpha y + beta x + gamma.

    Each distinct root nu of t^2 - alpha t - beta, nu' the other root
    (nu itself when the root is repeated), gives the eigenvector
    omega_nu = y - nu' x (+ gamma / (nu - 1) when gamma != 0) of phi
    with eigenvalue nu, so d omega = nu omega d and omega u = nu u omega;
    nu omega_nu = beta x + nu y + ..., as beta = -nu nu'.  When
    gamma != 0 the root 1 gives no eigenvector.  An omega-monomial is
    central exactly when the eigenvalues of its factors multiply to 1,
    and the ones listed are the minimal such exponent vectors, the
    generators of that monoid: no other lies below one in every
    coordinate.  Each omega's exponent is at most lcm(ord lambda, ord mu)
    when both roots are roots of unity and OMEGA_EXPONENT_BOUND otherwise
    (every element listed is still central).  With two eigenvectors the
    names are w1^i*w2^j, w1 the omega of mu and w2 that of lambda; with
    one they are omega^i.  When phi has finite order m (condition (5))
    u^m and d^m come first.  lambda = mu = 1 with gamma != 0 has no
    eigenvector: its center is the casimir, phi's fixed polynomials of
    degree <= 2.

    With u^m, d^m central the caps on u and d are m + e - 1, e the least
    degree in x = ud, y = du of a central omega-monomial.  A normal word
    u^i (du)^j d^k of weight w = i - k >= 0 is u^w u^s (du)^t d^s, and
    u^s (du)^t d^s spans k[x, y] in degree s + t.  For s >= m - w it has
    the central factor u^m, so these words make the ideal of
    u^(m-w) d^(m-w), whose leading form is m - w linear forms prime to
    the omegas (x is no eigenvector of g u = u g').  So weight w needs
    only s + t <= (m - w - 1) + (e - 1): at most m + e - 2 letters u and
    as many d.  Weights w < 0 mirror this with d^m.  The products share
    one product memo.
    """
    p = build_family(spec)
    with product_memo():
        return _downup_center(p, roots)


def _central_exponents(ctx, nus, bound):
    """The minimal nonzero exponent vectors e, each entry at most bound,
    with prod nu^e = 1, in lexicographic order, for one or two roots nu.

    Row i of the walk holds the vectors (i, j), or (i,) alone for one
    root; the least j with nu_1^i nu_2^j = 1 gives a minimal vector
    exactly when it is below the last one found, so each row stops there.
    The walk multiplies payloads."""
    mul, eq, one = ctx.mul, ctx.eq, ctx.one().val
    first, last = nus[0].val, nus[-1].val
    found, least = [], bound + 1 if len(nus) == 2 else 1
    row = one
    for i in range(bound + 1):
        val = row
        for j in range(least):
            if (i or j) and eq(val, one):
                found.append((i, j)[:len(nus)])
                least = j
                break
            if j + 1 < least:
                val = mul(val, last)
        if not least:
            break
        row = mul(row, first)
    return found


def _downup_center(p, roots=None, orders=None):
    """downup_center_generators in p, a spec's built presentation.
    Supplied roots alone are only checked against t^2 - alpha t - beta;
    the PI decider hands on the roots its automorphism analysis found
    with their orders, which are taken as they are."""
    ctx = p.ctx
    al, be, ga = (p.params[k] for k in ("alpha", "beta", "gamma"))
    if orders is None:
        lam, mu, ml, mm = _downup_roots(ctx, al, be, roots)
    else:
        (lam, mu), (ml, mm) = roots, orders
    # the root lambda is 1 exactly when its order ml is 1
    if lam == mu and ml == 1 and not ga.is_zero():
        phi = downup_phi(ctx, al, be, ga)
        els = [("casimir", downup_from_xy(p, cp))
               for cp in fixed_polynomials(phi, 2) if set(cp) - {(0, 0)}]
        if not els:
            raise TrivialCenter("no fixed polynomial of degree <= 2")
        return CentralSet(els, condition="repeated root 1, gamma != 0")
    # (nu, the other root) for each eigenvector omega_nu, mu's first;
    # lambda is the root 1 when there is one, which gives none when
    # gamma != 0
    pairs = [(mu, lam)] if lam == mu or (ml == 1 and not ga.is_zero()) \
        else [(mu, lam), (lam, mu)]
    omegas, one = [], ctx.one()
    for nu, other in pairs:
        w = {(1, 0): -other, (0, 1): one}
        if not ga.is_zero():
            w[(0, 0)] = ga / (nu - 1)
        omegas.append(w)
    finite = ml is not None and mm is not None
    bound = lcm(ml, mm) if finite else OMEGA_EXPONENT_BOUND
    exponents = _central_exponents(ctx, [nu for nu, _ in pairs], bound)
    # phi has finite order m, the bound, exactly under condition (5): two
    # eigenvectors, both of roots of unity
    m = bound if finite and len(pairs) == 2 else None
    els = [] if m is None else _powers(p, ("u", "d"), m)
    for e in exponents:
        name = f"w1^{e[0]}*w2^{e[1]}" if len(e) == 2 else f"omega^{e[0]}"
        cp = reduce(_mp_mul, [w for w, i in zip(omegas, e) for _ in range(i)])
        els.append((name, downup_from_xy(p, cp)))
    if not els:
        raise TrivialCenter("no product of powers of the roots is 1")
    caps = None if m is None else \
        dict.fromkeys(("u", "d"), m + min(map(sum, exponents)) - 1)
    return CentralSet(els, condition=f"roots {lam!r}, {mu!r}", caps=caps)


def _decide_downup(p):
    al, be, ga = (p.params[k] for k in ("alpha", "beta", "gamma"))
    order = gwa_auto_order(p.ctx, al, be, ga)
    lam, mu = order.roots
    ol, om = order.orders
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
        return PiVerdict(PI, "condition (5): roots are distinct roots of "
                         f"unity (orders {ol}, {om})",
                         witness=_downup_center(p, order.roots,
                                                order.orders),
                         details=details)
    return PiVerdict(NOT_PI, f"condition (5) fails: {order.case}",
                     details=details)


# each family's PI criterion, its decider: decide(p) -> PiVerdict, p a
# spec's built presentation; BiQuad3 has none, so central_candidates and
# pi_decide refuse it
_CRITERIA = {
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
# the candidate builders of the families whose central sets reach beyond
# their PI verdicts: NotPI down-up algebras, and Bqf's route 1 over GF(p)
_CANDIDATES = {"DownUp": _downup_center, "Bqf": _bqf_candidates}


# ---------------------------------------------------------------------------
# finite-over-center spanning witness
# ---------------------------------------------------------------------------


def irreducible_words(p, max_len):
    """All rule-irreducible words of length <= max_len, shortest first."""
    # a frontier word is irreducible, so a redex of w + (g,) ends at g, and
    # the letters that may follow w depend only on its last `reach` letters
    ending_at = [[] for _ in p.names]
    for r in p.rules:
        ending_at[r.lhs[-1]].append(r.lhs)
    reach = max((len(r.lhs) for r in p.rules), default=1) - 1

    @cache
    def follow(tail):
        return [g for g, lhss in enumerate(ending_at)
                if not any((tail + (g,))[-len(l):] == l
                           for l in lhss if len(l) <= len(tail) + 1)]
    out, frontier = [()], [()]
    for _ in range(max_len):
        frontier = [w + (g,) for w in frontier
                    for g in follow(w[max(len(w) - reach, 0):])]
        out.extend(frontier)
    return out


class SpanningReport:
    __slots__ = ("ok", "missing", "degree", "caps", "rank")

    def __init__(self, ok, missing, degree, caps, rank):
        self.ok = ok
        self.missing = missing
        self.degree = degree
        self.caps = caps
        self.rank = rank

    def __bool__(self):
        return self.ok

    def __repr__(self):
        state = "spans" if self.ok else f"misses {len(self.missing)} monomials"
        return f"<SpanningReport deg<={self.degree}: {state}>"


def spanning_check(p, centrals, caps, degree=None):
    """Do central products times capped monomials span everything up to a degree?

    centrals: CentralSet (each element must actually be central); caps:
    dict generator name -> exponent bound for the residual monomials;
    degree: total-degree bound, at least 0 (default 2 * max cap + 2).
    Exact linear algebra over the coefficient field decides membership;
    the result is the executable form of "finitely generated as a module
    over the central subalgebra generated by ...".  A generator without a
    cap, or a cap for a name that is no generator, raises
    PreconditionViolation naming every such name; a negative degree
    raises DegreeTooSmall.

    Every central is verified with is_central first, and the rows rely on
    it: the row of a central product c at a residual word g*m is g times
    its row at m, since c*g*m = g*c*m, so each row costs one left
    multiplication by a generator.  The rows of one central product and
    word length go through the straightener in one left_multiply batch.

    The residual unit rows span exactly the residual columns, so the rows
    go into the tracker with those columns dropped, and the rank is the
    number of residuals plus the rank of that quotient.  When the quotient
    rank equals the number of columns the rows touch, the missing words
    are the non-residual words they do not touch; otherwise each
    non-residual word is swept for membership.

    A central that is not homogeneous (gamma != 0 in a down-up algebra)
    gives rows that reach words past the degree, and the rank counts
    those columns too: on A(-1, -1, 1) over Q(z3) at degree 6 it is 151,
    though 50 words have length at most 6.  So the rank moves with the
    central set, while ok and missing do not.
    """
    missing = [name for name in p.names if name not in caps]
    if missing:
        raise PreconditionViolation("no cap given for generator(s) "
                                    + ", ".join(missing))
    unknown = [name for name in caps if name not in p.names]
    if unknown:
        raise PreconditionViolation("cap given for non-generator(s) "
                                    + ", ".join(unknown))
    if degree is None:
        degree = 2 * max(caps.values()) + 2
    if degree < 0:
        raise DegreeTooSmall(f"spanning degree must be at least 0, got {degree}")
    if not p.is_confluent():
        raise NonConfluentPresentation(p.family or "custom")
    with product_memo():
        return _spanning_check(p, centrals, caps, degree)


def _min_deg(poly):
    return min((len(w) for w in poly.vals), default=0)


def central_products(p, centrals, degree):
    """The products of the centrals that the spanning check multiplies
    the residual monomials by, 1 excluded, in the order it uses them.

    1 is in the module's span already, so dropping the constant terms of
    the centrals keeps the generated subalgebra; without them each
    central has positive minimal degree, and the walk's degree caps end
    it (a constant term would stall them forever).
    """
    elements = [NCPoly.from_payloads(el.ctx, vals) for _, el in centrals
                if (vals := {w: c for w, c in el.vals.items() if w})]
    n_cent = len(elements)
    cent_min = [_min_deg(el) for el in elements]
    products = []
    seen = {(0,) * n_cent}
    stack = [((0,) * n_cent, NCPoly.monomial(p.one, ()))]
    # grow an exponent vector only while the accumulated minimal degrees
    # fit the bound; for homogeneous centrals this is exactly "product
    # degree <= degree", and it keeps the powers of non-homogeneous
    # centrals (whose minimal degree can stall) finite
    while stack:
        expo, poly = stack.pop()
        base = _min_deg(poly)
        for k in range(n_cent):
            # the formal-degree cap terminates the walk even when the
            # actual minimal degree of powers stalls below the bound
            if sum(e * m for e, m in zip(expo, cent_min)) + cent_min[k] > degree:
                continue
            if base + cent_min[k] > degree:
                continue
            padded = list(expo)
            padded[k] += 1
            new_expo = tuple(padded)
            if new_expo in seen:
                continue
            # the shorter factor goes on the left, the side whose letters
            # the straightener pushes; either order is the same product,
            # as the spanning check verifies every central first
            if cent_min[k] <= base:
                new_poly = multiply(p, elements[k], poly)
            else:
                new_poly = multiply(p, poly, elements[k])
            if new_poly.is_zero() or _min_deg(new_poly) > degree:
                continue
            seen.add(new_expo)
            products.append(new_poly)
            stack.append((new_expo, new_poly))
    return products


def _spanning_check(p, centrals, caps, degree):
    for name, el in centrals:
        ok, witness = is_central(p, el)
        if not ok:
            raise HypothesisNotMet(f"{name} is not central (fails at "
                                   f"generator {witness[0]})")
    cap_by_index = [caps[name] for name in p.names]
    words = irreducible_words(p, degree)
    # the residuals are closed under suffixes: w is one when w[1:] is one
    # and w holds fewer than its cap of its first letter
    residuals = {(): None} if min(cap_by_index, default=1) > 0 else {}
    by_length = [list(residuals)] + [[] for _ in range(degree)]
    for w in words:
        if w and w[1:] in residuals and w.count(w[0]) < cap_by_index[w[0]]:
            residuals[w] = None
            by_length[len(w)].append(w)
    tracker, touched = SpanTracker(p.order_key, p.ctx), set()
    for cpoly in central_products(p, centrals, degree):
        # cpoly is central, so its row at g*m is g times its row at m: the
        # residuals are closed under suffixes, and each length needs only
        # the rows one letter shorter
        rows = {(): cpoly.vals}
        for n in range(degree - _min_deg(cpoly) + 1):
            if n:
                rows = dict(zip(by_length[n], left_multiply(
                    p, [(m[0], rows[m[1:]]) for m in by_length[n]])))
            for m in by_length[n]:
                row = {w: c for w, c in rows[m].items() if w not in residuals}
                if row:
                    touched.update(row)
                    tracker.insert(row)
    if tracker.rank == len(touched):
        missing = [w for w in words if w not in residuals and w not in touched]
    else:
        missing = [w for w in words if w not in residuals
                   and not tracker.contains({w: p.one.val})]
    return SpanningReport(not missing, missing, degree, dict(caps),
                          len(residuals) + tracker.rank)
