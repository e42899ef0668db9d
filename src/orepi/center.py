"""Centrality testing, central-element candidates, and the generalized
Weyl automorphism analysis for down-up algebras.

The candidate constructors return the named elements whose centrality
the root-of-unity hypotheses promise; they do not verify them (tests and
callers do, through is_central).  The down-up analysis works through the
polynomial automorphism phi(x) = y, phi(y) = alpha y + beta x + gamma of
k[x,y], whose eigenvalues are the roots of t^2 - alpha t - beta.
"""

from fractions import Fraction
from math import isqrt

from .errors import (
    BetaZero,
    HypothesisNotMet,
    NonConfluentPresentation,
    RootsRequired,
    TrivialCenter,
)
from .identities import bh_uvst
from .linalg import SpanTracker, dense_kernel
from .presentations import build_family
from .rewrite import NCPoly, multiply, normal_form, product_memo


def _lcm(a, b):
    from math import gcd
    return a * b // gcd(a, b)


def is_central(p, a):
    """(True, None) if a commutes with every generator, else (False,
    (generator name, nonzero residual)).

    Requires a confluent presentation (checked), so that the residual
    does not depend on the rewriting strategy.
    """
    if not p.is_confluent():
        raise NonConfluentPresentation(p.family or "custom")
    one = p.ctx.one()
    with product_memo():
        for i, name in enumerate(p.names):
            g = NCPoly.monomial(one, (i,))
            r = multiply(p, a, g) - multiply(p, g, a)
            if not r.is_zero():
                return False, (name, r)
    return True, None


def poly_pow(p, a, k):
    out = NCPoly.monomial(p.ctx.one(), ())
    for _ in range(k):
        out = multiply(p, out, a)
    return out


class CentralSet:
    """Named central-element candidates plus the condition they rely on."""

    __slots__ = ("elements", "condition")

    def __init__(self, elements, condition=""):
        self.elements = list(elements)  # [(name, NCPoly)]
        self.condition = condition

    def names(self):
        return [n for n, _ in self.elements]

    def polys(self):
        return [e for _, e in self.elements]

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return f"<CentralSet {{{', '.join(self.names())}}}>"


def central_candidates(spec):
    """The named central elements each root-of-unity proposition yields."""
    handler = _CANDIDATES.get(spec.family)
    if handler is None:
        raise HypothesisNotMet(f"no candidate table for family {spec.family}")
    return handler(spec)


def _ord_or_fail(value, what):
    m = value.multiplicative_order()
    if m is None:
        raise HypothesisNotMet(f"{what} is not a root of unity")
    return m


def _cand_bh(spec):
    p = build_family(spec)
    ell = _ord_or_fail(spec.scalars["h"], "h")
    u, s, v, t = bh_uvst(p)
    els = [
        (f"u^{2 * ell}", poly_pow(p, u, 2 * ell)),
        (f"s^{ell}", poly_pow(p, s, ell)),
        (f"v^{2 * ell}", poly_pow(p, v, 2 * ell)),
        (f"t^{ell}", poly_pow(p, t, ell)),
    ]
    return CentralSet(els, condition=f"h root of unity of order {ell}")


def _cand_hpq(spec):
    p = build_family(spec)
    n = _ord_or_fail(spec.scalars["p"], "p")
    m = _ord_or_fail(spec.scalars["q"], "q")
    one = p.ctx.one()
    els = [
        (f"x^{m * n}", NCPoly.monomial(one, (p.gen("x"),) * (m * n))),
        (f"y^{m * n}", NCPoly.monomial(one, (p.gen("y"),) * (m * n))),
        (f"t^{n}", NCPoly.monomial(one, (p.gen("t"),) * n)),
    ]
    return CentralSet(els, condition=f"ord(p)={n}, ord(q)={m}")


def _cand_m2(spec):
    p = build_family(spec)
    la = _ord_or_fail(spec.scalars["alpha"], "alpha")
    lb = _ord_or_fail(spec.scalars["beta"], "beta")
    ell = _lcm(la, lb)
    one = p.ctx.one()
    els = [(f"{nm}^{ell}", NCPoly.monomial(one, (p.gen(nm),) * ell))
           for nm in ("X11", "X12", "X21", "X22")]
    return CentralSet(els, condition=f"alpha, beta are {ell}-th roots of unity")


def _cand_uqb2(spec):
    p = build_family(spec)
    ell = _ord_or_fail(spec.scalars["q"], "q")
    if ell < 5:
        raise HypothesisNotMet(
            f"central powers need a primitive root of order >= 5, got {ell}")
    one = p.ctx.one()
    els = [("z", NCPoly.monomial(one, (p.gen("z"),)))]
    els += [(f"{nm}^{ell}", NCPoly.monomial(one, (p.gen(nm),) * ell))
            for nm in ("e1", "e2", "e3")]
    return CentralSet(els, condition=f"q primitive root of order {ell} >= 5")


def _cand_weyl(spec):
    p = build_family(spec)
    n = spec.n
    orders = [_ord_or_fail(qi, f"q{i + 1}") for i, qi in enumerate(spec.q_list)]
    for i in range(n):
        for j in range(i + 1, n):
            orders.append(_ord_or_fail(spec.lam[i][j], f"lambda_{i + 1}{j + 1}"))
    ell = 1
    for m in orders:
        ell = _lcm(ell, m)
    one = p.ctx.one()
    els = []
    for i in range(1, n + 1):
        els.append((f"x{i}^{ell}", NCPoly.monomial(one, (p.gen(f"x{i}"),) * ell)))
        els.append((f"y{i}^{ell}", NCPoly.monomial(one, (p.gen(f"y{i}"),) * ell)))
    return CentralSet(els, condition=f"all q_i, lambda_ij roots of unity; lcm {ell}")


def _cand_three_cyclic(spec):
    p = build_family(spec)
    q2 = spec.scalars["q"] ** 2
    if q2.is_one():
        raise HypothesisNotMet("q^2 = 1 is excluded")
    ell = _ord_or_fail(q2, "q^2")
    one = p.ctx.one()
    els = [(f"{nm}^{ell}", NCPoly.monomial(one, (p.gen(nm),) * ell))
           for nm in ("x", "y", "z")]
    return CentralSet(els, condition=f"q^2 primitive root of order {ell}")


def _cand_bqf(spec):
    """Bqf central candidates.

    Route 1 (n not dividing j+1 for all j in supp f): u^n, v^n.
    Route 2 (n dividing j for all j in supp f): f(u), f(v), w^n.
    Over a characteristic-p field the same route-1 test applies; the
    p | n alternative can never trigger because unit orders in GF(p^k)
    divide p^k - 1 and are coprime to p.
    """
    p = build_family(spec)
    q = spec.scalars["q"]
    n = _ord_or_fail(q, "q")
    f = spec.f_coeffs
    supp = [j for j, cj in enumerate(f) if not cj.is_zero()]
    one = p.ctx.one()
    route1 = all((j + 1) % n != 0 for j in supp)
    route2 = n >= 2 and all(j % n == 0 for j in supp)
    if not route1 and not route2:
        bad = [j for j in supp if (j + 1) % n == 0]
        msg = f"n={n} divides j+1 for j in {bad}; no centrality route applies"
        if p.ctx.kind == "galois":
            # the characteristic-p alternative "p divides n" can never
            # trigger: unit orders in GF(p^k) divide p^k - 1
            msg += " (VacuousCharPCase: p | n is impossible in GF(p^k))"
        raise HypothesisNotMet(msg)
    els = []
    if route1:
        els.append((f"u^{n}", NCPoly.monomial(one, (p.gen("u"),) * n)))
        els.append((f"v^{n}", NCPoly.monomial(one, (p.gen("v"),) * n)))
    if route2:
        fu = NCPoly({(p.gen("u"),) * j: cj for j, cj in enumerate(f)
                     if not cj.is_zero()})
        fv = NCPoly({(p.gen("v"),) * j: cj for j, cj in enumerate(f)
                     if not cj.is_zero()})
        if not fu.is_zero():
            els.append(("f(u)", fu))
            els.append(("f(v)", fv))
        els.append((f"w^{n}", NCPoly.monomial(one, (p.gen("w"),) * n)))
    cond = f"ord(q)={n}; routes: " + \
        ", ".join(r for r, on in (("n∤(j+1)", route1), ("n|j", route2)) if on)
    return CentralSet(els, condition=cond)


def _cand_quantum_plane(spec):
    p = build_family(spec)
    n = _ord_or_fail(spec.scalars["q"], "q")
    one = p.ctx.one()
    els = [(f"x^{n}", NCPoly.monomial(one, (p.gen("x"),) * n)),
           (f"y^{n}", NCPoly.monomial(one, (p.gen("y"),) * n))]
    return CentralSet(els, condition=f"ord(q)={n}")


def _cand_downup(spec):
    return downup_center_generators(spec)


_CANDIDATES = {
    "Bh": _cand_bh,
    "Hpq": _cand_hpq,
    "M2": _cand_m2,
    "UqB2": _cand_uqb2,
    "WeylMalt": _cand_weyl,
    "WeylAJ": _cand_weyl,
    "ThreeCyclic": _cand_three_cyclic,
    "DownUp": _cand_downup,
    "Bqf": _cand_bqf,
    "QuantumPlane": _cand_quantum_plane,
}


# ---------------------------------------------------------------------------
# commutative polynomials in x, y (dicts (i, j) -> Coeff)
# ---------------------------------------------------------------------------


def cp_add(a, b):
    out = dict(a)
    for k, v in b.items():
        s = out.get(k)
        s = v if s is None else s + v
        if s.is_zero():
            out.pop(k, None)
        else:
            out[k] = s
    return out


def cp_mul(a, b):
    out = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            k = (i1 + i2, j1 + j2)
            s = out.get(k)
            s = c1 * c2 if s is None else s + c1 * c2
            if s.is_zero():
                out.pop(k, None)
            else:
                out[k] = s
    return out


def cp_pow(a, e):
    out = None
    for _ in range(e):
        out = dict(a) if out is None else cp_mul(out, a)
    return out if out is not None else {}


def cp_scale(a, c):
    if c.is_zero():
        return {}
    return {k: v * c for k, v in a.items()}


class AffineAuto:
    """Automorphism of k[x,y] with affine-linear images of x and y."""

    __slots__ = ("ctx", "linear", "translation")

    def __init__(self, ctx, linear, translation):
        self.ctx = ctx
        self.linear = tuple(tuple(row) for row in linear)
        (a, b), (c, d) = self.linear
        if (a * d - b * c).is_zero():
            raise ValueError("linear part must be invertible")
        self.translation = tuple(translation)

    def image(self, gen):
        """Image of x (gen=0) or y (gen=1) as a commutative polynomial."""
        row = self.linear[gen]
        t = self.translation[gen]
        out = {}
        if not row[0].is_zero():
            out[(1, 0)] = row[0]
        if not row[1].is_zero():
            out[(0, 1)] = row[1]
        if not t.is_zero():
            out[(0, 0)] = t
        return out

    def apply_poly(self, poly):
        ix, iy = self.image(0), self.image(1)
        out = {}
        one = self.ctx.one()
        for (i, j), c in poly.items():
            term = {(0, 0): one}
            if i:
                term = cp_mul(term, cp_pow(ix, i))
            if j:
                term = cp_mul(term, cp_pow(iy, j))
            out = cp_add(out, cp_scale(term, c))
        return out

    def compose(self, other):
        """self after other: (self.compose(other))(f) = self(other(f))."""
        imgs = [self.apply_poly(other.image(g)) for g in (0, 1)]
        zero = self.ctx.zero()
        lin = []
        tr = []
        for img in imgs:
            lin.append((img.get((1, 0), zero), img.get((0, 1), zero)))
            tr.append(img.get((0, 0), zero))
        return AffineAuto(self.ctx, lin, tr)

    def is_identity(self):
        one, zero = self.ctx.one(), self.ctx.zero()
        return (self.linear[0][0] == one and self.linear[0][1] == zero
                and self.linear[1][0] == zero and self.linear[1][1] == one
                and self.translation[0] == zero and self.translation[1] == zero)

    def iterate(self, m):
        out = AffineAuto(self.ctx, ((self.ctx.one(), self.ctx.zero()),
                                    (self.ctx.zero(), self.ctx.one())),
                         (self.ctx.zero(), self.ctx.zero()))
        for _ in range(m):
            out = self.compose(out)
        return out


def downup_phi(ctx, alpha, beta, gamma):
    """phi(x) = y, phi(y) = alpha y + beta x + gamma."""
    zero, one = ctx.zero(), ctx.one()
    return AffineAuto(ctx, ((zero, one), (beta, alpha)), (zero, gamma))


class OrderResult:
    __slots__ = ("finite", "order", "case", "roots")

    def __init__(self, finite, order, case, roots):
        self.finite = finite
        self.order = order  # int when finite
        self.case = case    # tag for the infinite cases, None when finite
        self.roots = roots  # (lambda, mu)

    def __repr__(self):
        if self.finite:
            return f"<Finite order {self.order}>"
        return f"<Infinite: {self.case}>"


def exact_sqrt(c):
    """A square root of c in its own field, or None.

    Handles rational values (also rationals embedded in a cyclotomic
    field, where sqrt(-r) uses a 4th root of unity when available) and
    exhaustive search in small Galois fields.
    """
    ctx = c.ctx
    if c.is_zero():
        return ctx.zero()
    if ctx.kind == "galois":
        if ctx.char ** (len(ctx.modulus) - 1) > 20000:
            return None
        from .fields import Coeff, _gf_iterate
        for vec in _gf_iterate(len(ctx.modulus) - 1, ctx.char):
            cand = Coeff(ctx, vec)
            if cand * cand == c:
                return cand
        return None
    rat = _as_rational(c)
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


def _as_rational(c):
    """The Fraction a coefficient equals, or None if it is not rational."""
    ctx = c.ctx
    if ctx.kind == "rational":
        return c.val
    if ctx.kind == "cyclotomic":
        if any(x for x in c.val[1:]):
            return None
        return c.val[0]
    if ctx.kind == "ratfunc":
        if not c.is_constant():
            return None
        num, den = c.val
        zero_key = (0,) * len(next(iter(den)))
        return Fraction(num.get(zero_key, 0), den[zero_key])
    return None


def _quadratic_roots(ctx, alpha, beta, roots):
    if roots is not None:
        lam, mu = roots
        if not ((lam + mu) == alpha and (-(lam * mu)) == beta):
            raise ValueError("supplied roots do not satisfy "
                             "t^2 - alpha t - beta")
        return lam, mu
    disc = alpha * alpha + 4 * beta
    s = exact_sqrt(disc)
    if s is None:
        raise RootsRequired("discriminant has no square root here; "
                            "pass roots=(lambda, mu)")
    two = ctx.from_int(2)
    if two.is_zero():
        raise RootsRequired("cannot halve in characteristic 2; pass roots")
    return (alpha + s) / two, (alpha - s) / two


def gwa_auto_order(ctx, alpha, beta, gamma, roots=None):
    """Order analysis of the down-up automorphism phi.

    Implements the four-way case split on the roots lambda, mu of
    t^2 - alpha t - beta; finite verdicts are re-verified by iterating
    phi directly (and checking that no proper divisor works).
    """
    if beta.is_zero():
        raise BetaZero("beta must be nonzero")
    lam, mu = _quadratic_roots(ctx, alpha, beta, roots)
    one = ctx.one()
    result = None
    if lam == mu:
        if lam == one:
            result = OrderResult(False, None, "RepeatedRoot1", (lam, mu))
        else:
            result = OrderResult(False, None, "RepeatedRootJordanBlock", (lam, mu))
    else:
        if mu == one:  # normalize: the unit root, if any, is lam
            lam, mu = mu, lam
        if lam == one:
            if not gamma.is_zero():
                result = OrderResult(False, None, "Lambda1GammaNonzero", (lam, mu))
            else:
                m = mu.multiplicative_order()
                if m is None:
                    result = OrderResult(False, None, "DistinctRootsNotUnity",
                                         (lam, mu))
                else:
                    result = OrderResult(True, m, None, (lam, mu))
        else:
            ml = lam.multiplicative_order()
            mm = mu.multiplicative_order()
            if ml is None or mm is None:
                result = OrderResult(False, None, "DistinctRootsNotUnity",
                                     (lam, mu))
            else:
                result = OrderResult(True, _lcm(ml, mm), None, (lam, mu))
    if result.finite:
        phi = downup_phi(ctx, alpha, beta, gamma)
        m = result.order
        if not phi.iterate(m).is_identity():
            raise AssertionError("case table gave a wrong finite order")
        for p in _prime_divisors(m):
            if phi.iterate(m // p).is_identity():
                raise AssertionError("finite order is not minimal")
    return result


def _prime_divisors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


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


def downup_center_generators(spec, roots=None, exponent_bound=12):
    """Center generators of a Noetherian down-up algebra, by case analysis.

    Generic case (distinct roots, both not 1): generators u^m, d^m and the
    fixed omega-monomials; when the roots are not both roots of unity the
    omega-monomial search is truncated at exponent_bound (any generator
    returned is still genuinely central).  Jordan cases return a single
    omega power or the fixed polynomials of degree <= 2.
    """
    ctx = spec.ctx
    al, be, ga = (spec.scalars[k] for k in ("alpha", "beta", "gamma"))
    if be.is_zero():
        raise BetaZero("beta must be nonzero")
    p = build_family(spec)
    lam, mu = _quadratic_roots(ctx, al, be, roots)
    one = ctx.one()
    u, d = p.gen("u"), p.gen("d")

    def upow(m):
        return NCPoly.monomial(one, (u,) * m)

    def dpow(m):
        return NCPoly.monomial(one, (d,) * m)

    if lam != mu and not lam.is_one() and not mu.is_one():
        # omega_1 pairs with mu, omega_2 with lam
        w1 = {(1, 0): be * (mu - one), (0, 1): mu * (mu - one)}
        if not ga.is_zero():
            w1[(0, 0)] = ga * mu
        w2 = {(1, 0): be * (lam - one), (0, 1): lam * (lam - one)}
        if not ga.is_zero():
            w2[(0, 0)] = ga * lam
        ml = lam.multiplicative_order()
        mm = mu.multiplicative_order()
        els = []
        if ml is not None and mm is not None:
            m = _lcm(ml, mm)
            els += [(f"u^{m}", upow(m)), (f"d^{m}", dpow(m))]
            bound = m
        else:
            bound = exponent_bound
        for i in range(bound + 1):
            for j in range(bound + 1):
                if i == j == 0:
                    continue
                if ((mu ** i) * (lam ** j)).is_one():
                    cp = cp_mul(cp_pow(w1, i) if i else {(0, 0): one},
                                cp_pow(w2, j) if j else {(0, 0): one})
                    els.append((f"w1^{i}*w2^{j}", downup_from_xy(p, cp)))
        if not els:
            raise TrivialCenter("no power of the roots multiplies to 1")
        return CentralSet(els, condition=f"roots {lam!r}, {mu!r}")

    if lam != mu:  # exactly one root equals 1; normalize lam = 1
        if mu.is_one():
            lam, mu = mu, lam
        m = mu.multiplicative_order()
        if not ga.is_zero():
            if m is None:
                raise TrivialCenter("lambda = 1, gamma != 0, mu not a root "
                                    "of unity")
            # omega = 2(-x + y + gamma/(alpha - 2)); the constant makes
            # phi(omega) = mu omega (alpha - 2 = mu - 1 != 0 here)
            w = {(1, 0): ctx.from_int(-2), (0, 1): ctx.from_int(2),
                 (0, 0): (ga + ga) / (al - 2)}
            wp = downup_from_xy(p, cp_pow(w, m))
            return CentralSet([(f"omega^{m}", wp)],
                              condition=f"lambda=1, gamma!=0, ord(mu)={m}")
        # gamma = 0: omega_1 = beta x + y is fixed
        w1 = {(1, 0): be, (0, 1): one}
        els = [("omega1", downup_from_xy(p, w1))]
        if m is not None:
            w2 = {(1, 0): -one, (0, 1): one}
            els.append((f"omega2^{m}", downup_from_xy(p, cp_pow(w2, m))))
            els.append((f"u^{m}", upow(m)))
            els.append((f"d^{m}", dpow(m)))
        return CentralSet(els, condition=f"lambda=1, gamma=0, mu order {m}")

    # repeated root
    if not lam.is_one():
        m = lam.multiplicative_order()
        if m is None:
            raise TrivialCenter("repeated non-unit root that is not a root "
                                "of unity")
        # omega = (2 beta + alpha) x + (alpha - 2) y + 2 gamma
        w = {(1, 0): be + be + al, (0, 1): al - 2}
        c0 = ga + ga
        if not c0.is_zero():
            w[(0, 0)] = c0
        return CentralSet([(f"omega^{m}", downup_from_xy(p, cp_pow(w, m)))],
                          condition=f"repeated root of order {m}")
    # lam = mu = 1 (alpha = 2, beta = -1)
    if ga.is_zero():
        w = {(1, 0): -one, (0, 1): one}
        return CentralSet([("du-ud", downup_from_xy(p, w))],
                          condition="repeated root 1, gamma = 0")
    phi = downup_phi(ctx, al, be, ga)
    els = []
    for cp in fixed_polynomials(phi, 2):
        if set(cp) == {(0, 0)} or not cp:
            continue
        els.append(("casimir", downup_from_xy(p, cp)))
    if not els:
        raise TrivialCenter("no fixed polynomial of degree <= 2")
    return CentralSet(els, condition="repeated root 1, gamma != 0")


# ---------------------------------------------------------------------------
# finite-over-center spanning witness
# ---------------------------------------------------------------------------


def irreducible_words(p, max_len):
    """All rule-irreducible words of length <= max_len, shortest first."""
    lhss = [r.lhs for r in p.rules]
    out = [()]
    frontier = [()]
    for _ in range(max_len):
        new = []
        for w in frontier:
            for g in range(len(p.names)):
                cand = w + (g,)
                if any(cand[-len(l):] == l for l in lhss if len(l) <= len(cand)):
                    continue
                new.append(cand)
        out.extend(new)
        frontier = new
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
    degree: total-degree bound (default 2 * max cap + 2).  Exact linear
    algebra over the coefficient field decides membership; the result is
    the executable form of "finitely generated as a module over the
    central subalgebra generated by ...".
    """
    if degree is None:
        degree = 2 * max(caps.values()) + 2
    if not p.is_confluent():
        raise NonConfluentPresentation(p.family or "custom")
    with product_memo():
        return _spanning_check(p, centrals, caps, degree)


def _spanning_check(p, centrals, caps, degree):
    for name, el in centrals:
        ok, witness = is_central(p, el)
        if not ok:
            raise HypothesisNotMet(f"{name} is not central (fails at "
                                   f"generator {witness[0]})")
    cap_by_index = [caps[name] for name in p.names]
    words = irreducible_words(p, degree)
    residuals = [w for w in words
                 if all(w.count(g) < cap_by_index[g] for g in range(len(p.names)))]

    def min_deg(poly):
        return min((len(w) for w in poly.terms), default=0)

    one = p.ctx.one()
    unit = NCPoly.monomial(one, ())
    n_cent = len(centrals.elements)
    cent_min = [min_deg(el) for _, el in centrals.elements]
    products = [("1", unit)]
    seen = {(0,) * n_cent}
    stack = [((0,) * n_cent, unit)]
    # product pool: grow an exponent vector only while the accumulated
    # minimal degrees fit the bound; for homogeneous centrals this is
    # exactly "product degree <= degree", and it keeps the powers of
    # non-homogeneous centrals (whose minimal degree can stall) finite
    while stack:
        expo, poly = stack.pop()
        base = min_deg(poly)
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
            new_poly = multiply(p, poly, centrals.elements[k][1])
            if new_poly.is_zero() or min_deg(new_poly) > degree:
                continue
            seen.add(new_expo)
            products.append((str(new_expo), new_poly))
            stack.append((new_expo, new_poly))

    tracker = SpanTracker(col_key=p.order_key)
    for m in residuals:
        tracker.insert({m: one})
    for _, cpoly in products[1:]:
        base = min_deg(cpoly)
        for m in residuals:
            if base + len(m) > degree:
                continue
            row = multiply(p, cpoly, NCPoly.monomial(one, m))
            if not row.is_zero():
                tracker.insert(row.terms)
    missing = [w for w in words if len(w) <= degree
               and not tracker.contains({w: one})]
    return SpanningReport(not missing, missing, degree, dict(caps), tracker.rank)
