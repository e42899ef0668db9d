"""Algebra presentations: ordered generators, weights, oriented rewrite rules.

A presentation fixes a term order on words -- (total weight, length,
left-lexicographic by generator precedence) -- and a finite set of rules
lhs -> sum of (coefficient, word) with every right-hand word strictly
below the left-hand word.  Constructors are provided for each supported
algebra family; all of them produce orientations that the validator
accepts for every legal parameter choice.
"""

from .errors import (
    DownUpNotNoetherian,
    NonAntisymmetricLambda,
    OrientationFailure,
    ZeroParameter,
)
from .rewrite import overlap_check, rule_table

FAMILIES = (
    "Bh", "Hpq", "M2", "UqB2", "WeylMalt", "WeylAJ",
    "BiQuad3", "ThreeCyclic", "DownUp", "Bqf", "QuantumPlane",
)


class RewriteRule:
    """Oriented rule: word lhs (length >= 2) -> formal polynomial rhs."""

    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs, rhs):
        self.lhs = tuple(lhs)
        self.rhs = tuple((c, tuple(w)) for c, w in rhs if not c.is_zero())

    def __eq__(self, other):
        if not isinstance(other, RewriteRule):
            return NotImplemented
        if self.lhs != other.lhs or len(self.rhs) != len(other.rhs):
            return False
        a = sorted(self.rhs, key=lambda t: t[1])
        b = sorted(other.rhs, key=lambda t: t[1])
        return all(wa == wb and ca == cb for (ca, wa), (cb, wb) in zip(a, b))

    def __repr__(self):
        return f"RewriteRule({self.lhs} -> {self.rhs})"


class Presentation:
    """Immutable presentation over one coefficient field."""

    __slots__ = ("ctx", "names", "weights", "precedence", "rules",
                 "family", "params", "one", "by_first", "_rank", "_index",
                 "_confluent")

    def __init__(self, ctx, names, weights, precedence, rules,
                 family=None, params=None):
        self.ctx = ctx
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise ValueError("generator names must be unique")
        self.weights = tuple(weights)
        if any(w < 1 for w in self.weights):
            raise ValueError("weights must be positive")
        self.precedence = tuple(precedence)
        if sorted(self.precedence) != sorted(self.names):
            raise ValueError("precedence must list every generator once")
        self.rules = tuple(rules)
        self.family = family
        self.params = dict(params or {})
        self._index = {n: i for i, n in enumerate(self.names)}
        rank_of_name = {n: r for r, n in enumerate(self.precedence)}
        self._rank = tuple(rank_of_name[n] for n in self.names)
        self.one = ctx.one()
        self.by_first = rule_table(self.rules, self.one)
        self._confluent = None

    def gen(self, name):
        return self._index[name]

    def word(self, *names):
        return tuple(self._index[n] for n in names)

    def word_weight(self, word):
        return sum(self.weights[g] for g in word)

    def order_key(self, word):
        """Sort key for the term order; bigger key = bigger word."""
        return (self.word_weight(word), len(word),
                tuple(self._rank[g] for g in word))

    def is_confluent(self):
        """overlap_check(self).confluent, computed once."""
        if self._confluent is None:
            self._confluent = overlap_check(self).confluent
        return self._confluent

    def word_str(self, word):
        return "*".join(self.names[g] for g in word) if word else "1"

    def __eq__(self, other):
        if not isinstance(other, Presentation):
            return NotImplemented
        return (self.ctx == other.ctx and self.names == other.names
                and self.weights == other.weights
                and self.precedence == other.precedence
                and list(self.rules) == list(other.rules))

    def __repr__(self):
        fam = self.family or "custom"
        return f"<Presentation {fam}: {','.join(self.names)}; {len(self.rules)} rules>"


def validate_orientation(p):
    """Per-rule orientation report.

    Each entry: (rule index, ok, offending word or None).  A rule passes
    when every word on its right side is strictly below the left side.
    """
    report = []
    for i, rule in enumerate(p.rules):
        key = p.order_key(rule.lhs)
        bad = None
        for _, w in rule.rhs:
            if p.order_key(w) >= key:
                bad = w
                break
        report.append((i, bad is None, bad))
    return report


class FamilySpec:
    """Tagged parameter record selecting one algebra family.

    Scalar parameters live in ``scalars``; structured data (a lambda
    matrix, a coefficient list for f, the 3x3 tail matrix) in dedicated
    fields.  Use the ``spec_*`` helpers rather than building directly.
    """

    __slots__ = ("family", "ctx", "scalars", "lam", "q_list", "f_coeffs",
                 "tails", "consts", "n")

    def __init__(self, family, ctx, scalars=None, lam=None, q_list=None,
                 f_coeffs=None, tails=None, consts=None, n=None):
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        self.family = family
        self.ctx = ctx
        self.scalars = dict(scalars or {})
        self.lam = lam
        self.q_list = q_list
        self.f_coeffs = f_coeffs
        self.tails = tails
        self.consts = consts
        self.n = n

    def __repr__(self):
        return f"<FamilySpec {self.family} over {self.ctx!r}>"


def spec_bh(ctx, h):
    return FamilySpec("Bh", ctx, scalars={"h": h})


def spec_hpq(ctx, p, q):
    return FamilySpec("Hpq", ctx, scalars={"p": p, "q": q})


def spec_hq(ctx, q):
    """One-parameter Heisenberg: the p = q slice of Hpq."""
    return spec_hpq(ctx, q, q)


def spec_m2(ctx, alpha, beta):
    return FamilySpec("M2", ctx, scalars={"alpha": alpha, "beta": beta})


def spec_uqb2(ctx, q):
    return FamilySpec("UqB2", ctx, scalars={"q": q})


def spec_weyl(ctx, q_list, lam, variant="maltsiniotis"):
    family = "WeylMalt" if variant == "maltsiniotis" else "WeylAJ"
    return FamilySpec(family, ctx, q_list=tuple(q_list),
                      lam=tuple(tuple(row) for row in lam), n=len(q_list))


def spec_biquad3(ctx, q_triple, tails, consts):
    """q_triple = (q1,q2,q3); tails = 3x3 matrix [[a,b,c],[al,be,ga],[la,mu,nu]];
    consts = (b1,b2,b3)."""
    return FamilySpec("BiQuad3", ctx, q_list=tuple(q_triple),
                      tails=tuple(tuple(row) for row in tails),
                      consts=tuple(consts))


def spec_three_cyclic(ctx, q, alpha, beta, gamma):
    return FamilySpec("ThreeCyclic", ctx,
                      scalars={"q": q, "alpha": alpha, "beta": beta, "gamma": gamma})


def spec_downup(ctx, alpha, beta, gamma):
    return FamilySpec("DownUp", ctx,
                      scalars={"alpha": alpha, "beta": beta, "gamma": gamma})


def spec_bqf(ctx, q, f_coeffs):
    """f_coeffs: ascending coefficients of f in k[t] (may be empty for f = 0)."""
    return FamilySpec("Bqf", ctx, scalars={"q": q},
                      f_coeffs=tuple(f_coeffs))


def spec_quantum_plane(ctx, q):
    return FamilySpec("QuantumPlane", ctx, scalars={"q": q})


# ---------------------------------------------------------------------------
# family constructors
# ---------------------------------------------------------------------------


def _require_units(ctx, named):
    for name, value in named.items():
        if value.is_zero():
            raise ZeroParameter(f"parameter {name} must be nonzero")


def build_family(spec):
    """Oriented presentation for the given family instance."""
    builder = _BUILDERS[spec.family]
    pres = builder(spec)
    for _, ok, bad in validate_orientation(pres):
        if not ok:
            raise OrientationFailure(f"rhs term {bad} not below lhs")
    return pres


def _echo(spec):
    out = dict(spec.scalars)
    if spec.q_list is not None:
        out["q_list"] = spec.q_list
    if spec.lam is not None:
        out["lam"] = spec.lam
    if spec.f_coeffs is not None:
        out["f"] = spec.f_coeffs
    if spec.tails is not None:
        out["tails"] = spec.tails
    if spec.consts is not None:
        out["consts"] = spec.consts
    if spec.n is not None:
        out["n"] = spec.n
    return out


def family_spec_of(p):
    """Recover the FamilySpec a family presentation was built from."""
    if p.family is None:
        raise ValueError("not a family presentation")
    pr = p.params
    return FamilySpec(p.family, p.ctx,
                      scalars={k: v for k, v in pr.items()
                               if k not in ("q_list", "lam", "f", "tails",
                                            "consts", "n")},
                      lam=pr.get("lam"), q_list=pr.get("q_list"),
                      f_coeffs=pr.get("f"), tails=pr.get("tails"),
                      consts=pr.get("consts"), n=pr.get("n"))


def _build_bh(spec):
    ctx = spec.ctx
    h = spec.scalars["h"]
    _require_units(ctx, {"h": h})
    names = ("x1", "x2", "y1", "y2")
    one = ctx.one()
    x1, x2, y1, y2 = 0, 1, 2, 3
    rules = [
        RewriteRule((x2, x1), [(-one, (x1, x2))]),
        RewriteRule((y2, y1), [(-one, (y1, y2))]),
        RewriteRule((y1, x1), [(h, (x1, y1)), (h, (x2, y1)), (h, (x1, y2))]),
        RewriteRule((y1, x2), [(h, (x1, y2))]),
        RewriteRule((y2, x1), [(h, (x2, y1))]),
        RewriteRule((y2, x2), [(-h, (x2, y1)), (-h, (x1, y2)), (h, (x2, y2))]),
    ]
    return Presentation(ctx, names, (1, 1, 1, 1), names, rules,
                        family="Bh", params=_echo(spec))


def _build_hpq(spec):
    ctx = spec.ctx
    p, q = spec.scalars["p"], spec.scalars["q"]
    _require_units(ctx, {"p": p, "q": q})
    names = ("t", "x", "y")
    t, x, y = 0, 1, 2
    one = ctx.one()
    rules = [
        RewriteRule((x, t), [(p, (t, x))]),
        RewriteRule((y, t), [(p.inv(), (t, y))]),
        RewriteRule((y, x), [(q, (x, y)), (one, (t,))]),
    ]
    return Presentation(ctx, names, (1, 1, 1), names, rules,
                        family="Hpq", params=_echo(spec))


def _build_m2(spec):
    ctx = spec.ctx
    a, b = spec.scalars["alpha"], spec.scalars["beta"]
    _require_units(ctx, {"alpha": a, "beta": b})
    names = ("X11", "X12", "X21", "X22")
    X11, X12, X21, X22 = 0, 1, 2, 3
    rules = [
        RewriteRule((X12, X11), [(a, (X11, X12))]),
        RewriteRule((X21, X11), [(b, (X11, X21))]),
        RewriteRule((X21, X12), [(b * a.inv(), (X12, X21))]),
        RewriteRule((X22, X11), [(ctx.one(), (X11, X22)),
                                 (b - a.inv(), (X12, X21))]),
        RewriteRule((X22, X12), [(b, (X12, X22))]),
        RewriteRule((X22, X21), [(a, (X21, X22))]),
    ]
    return Presentation(ctx, names, (1, 1, 1, 1), names, rules,
                        family="M2", params=_echo(spec))


def _build_uqb2(spec):
    ctx = spec.ctx
    q = spec.scalars["q"]
    _require_units(ctx, {"q": q})
    names = ("z", "e3", "e1", "e2")
    z, e3, e1, e2 = 0, 1, 2, 3
    one = ctx.one()
    q2i = (q * q).inv()
    rules = [
        RewriteRule((e3, z), [(one, (z, e3))]),
        RewriteRule((e1, z), [(one, (z, e1))]),
        RewriteRule((e2, z), [(one, (z, e2))]),
        RewriteRule((e1, e3), [(q2i, (e3, e1))]),
        RewriteRule((e2, e3), [(q * q, (e3, e2)), (one, (z,))]),
        RewriteRule((e2, e1), [(q2i, (e1, e2)), (-q2i, (e3,))]),
    ]
    return Presentation(ctx, names, (1, 1, 1, 1), names, rules,
                        family="UqB2", params=_echo(spec))


def _check_lambda(lam, n):
    for i in range(n):
        if not lam[i][i].is_one():
            raise NonAntisymmetricLambda("lambda_ii must be 1")
        for j in range(n):
            if lam[i][j].is_zero():
                raise ZeroParameter("lambda entries must be nonzero")
            if not (lam[i][j] * lam[j][i]).is_one():
                raise NonAntisymmetricLambda(
                    f"lambda_{i+1}{j+1} * lambda_{j+1}{i+1} != 1")


def _build_weyl(spec):
    ctx = spec.ctx
    n = spec.n
    qs = spec.q_list
    lam = spec.lam
    _require_units(ctx, {f"q{i+1}": qi for i, qi in enumerate(qs)})
    _check_lambda(lam, n)
    alternative = spec.family == "WeylAJ"
    names = tuple(f"{s}{i+1}" for i in range(n) for s in ("x", "y"))
    # term-order precedence puts y_i just below x_i: normal monomials are
    # y1^a x1^b y2^c x2^d ...
    precedence = tuple(f"{s}{i+1}" for i in range(n) for s in ("y", "x"))
    X = {i: 2 * i for i in range(n)}
    Y = {i: 2 * i + 1 for i in range(n)}
    one = ctx.one()
    rules = []
    for i in range(n):
        # x_i y_i -> q_i y_i x_i + (1 or z_{i-1} tail)
        rhs = [(qs[i], (Y[i], X[i])), (one, ())]
        if not alternative:
            for k in range(i):
                rhs.append((qs[k] - one, (Y[k], X[k])))
        rules.append(RewriteRule((X[i], Y[i]), rhs))
    for i in range(n):
        for j in range(i + 1, n):
            lij, lji = lam[i][j], lam[j][i]
            if alternative:
                cxx, cyx, cyy, cxy = lji, lam[i][j], lji, lam[i][j]
                # x_j x_i = lam_ji x_i x_j ; y_j x_i = lam_ij x_i y_j ;
                # y_j y_i = lam_ji y_i y_j ; x_j y_i = lam_ij y_i x_j
            else:
                # x_i y_j = lam_ij^-1 y_j x_i: the inverse convention the
                # normality computation for z_i forces (the alternative
                # family's relation list states it this way too)
                cxx = (qs[i] * lij).inv()
                cyx = lij
                cyy = lji
                cxy = qs[i] * lij
            rules.append(RewriteRule((X[j], X[i]), [(cxx, (X[i], X[j]))]))
            rules.append(RewriteRule((Y[j], X[i]), [(cyx, (X[i], Y[j]))]))
            rules.append(RewriteRule((Y[j], Y[i]), [(cyy, (Y[i], Y[j]))]))
            rules.append(RewriteRule((X[j], Y[i]), [(cxy, (Y[i], X[j]))]))
    return Presentation(ctx, names, (1,) * (2 * n), precedence, rules,
                        family=spec.family, params=_echo(spec))


def _build_biquad3(spec):
    ctx = spec.ctx
    q1, q2, q3 = spec.q_list
    _require_units(ctx, {"q1": q1, "q2": q2, "q3": q3})
    (a, b, c), (al, be, ga), (la, mu, nu) = spec.tails
    b1, b2, b3 = spec.consts
    names = ("x1", "x2", "x3")
    x1, x2, x3 = 0, 1, 2
    def tail(u, v, w, const):
        out = [(u, (x1,)), (v, (x2,)), (w, (x3,)), (const, ())]
        return out
    rules = [
        RewriteRule((x2, x1), [(q1, (x1, x2))] + tail(a, b, c, b1)),
        RewriteRule((x3, x1), [(q2, (x1, x3))] + tail(al, be, ga, b2)),
        RewriteRule((x3, x2), [(q3, (x2, x3))] + tail(la, mu, nu, b3)),
    ]
    return Presentation(ctx, names, (1, 1, 1), names, rules,
                        family="BiQuad3", params=_echo(spec))


def _build_three_cyclic(spec):
    ctx = spec.ctx
    q = spec.scalars["q"]
    _require_units(ctx, {"q": q})
    al, be, ga = (spec.scalars[k] for k in ("alpha", "beta", "gamma"))
    names = ("x", "y", "z")
    x, y, z = 0, 1, 2
    q2 = q * q
    q2i = q2.inv()
    rules = [
        RewriteRule((y, x), [(q2i, (x, y)), (-(q2i * al), ())]),
        RewriteRule((z, x), [(q2, (x, z)), (-(q2 * be), ())]),
        RewriteRule((z, y), [(q2i, (y, z)), (-(q2i * ga), ())]),
    ]
    return Presentation(ctx, names, (1, 1, 1), names, rules,
                        family="ThreeCyclic", params=_echo(spec))


def _build_downup(spec):
    ctx = spec.ctx
    al, be, ga = (spec.scalars[k] for k in ("alpha", "beta", "gamma"))
    if be.is_zero():
        raise DownUpNotNoetherian("beta = 0: not Noetherian, no PBW word basis")
    names = ("u", "d")
    u, d = 0, 1
    rules = [
        RewriteRule((d, u, u), [(al, (u, d, u)), (be, (u, u, d)), (ga, (u,))]),
        RewriteRule((d, d, u), [(al, (d, u, d)), (be, (u, d, d)), (ga, (d,))]),
    ]
    return Presentation(ctx, names, (1, 1), names, rules,
                        family="DownUp", params=_echo(spec))


def _build_bqf(spec):
    ctx = spec.ctx
    q = spec.scalars["q"]
    _require_units(ctx, {"q": q})
    f = spec.f_coeffs
    deg = len(f) - 1 if f else 0
    names = ("v", "u", "w")
    v, u, w = 0, 1, 2
    wt = max(deg, 1)
    qi = q.inv()
    def f_of(g):
        return [(cj, (g,) * j) for j, cj in enumerate(f) if not cj.is_zero()]
    rules = [
        RewriteRule((u, v), [(q, (v, u))]),
        RewriteRule((w, u), [(q, (u, w))] + f_of(v)),
        RewriteRule((w, v), [(qi, (v, w))] + f_of(u)),
    ]
    return Presentation(ctx, names, (1, 1, wt), names, rules,
                        family="Bqf", params=_echo(spec))


def _build_quantum_plane(spec):
    ctx = spec.ctx
    q = spec.scalars["q"]
    _require_units(ctx, {"q": q})
    names = ("x", "y")
    rules = [RewriteRule((1, 0), [(q, (0, 1))])]
    return Presentation(ctx, names, (1, 1), names, rules,
                        family="QuantumPlane", params=_echo(spec))


_BUILDERS = {
    "Bh": _build_bh,
    "Hpq": _build_hpq,
    "M2": _build_m2,
    "UqB2": _build_uqb2,
    "WeylMalt": _build_weyl,
    "WeylAJ": _build_weyl,
    "BiQuad3": _build_biquad3,
    "ThreeCyclic": _build_three_cyclic,
    "DownUp": _build_downup,
    "Bqf": _build_bqf,
    "QuantumPlane": _build_quantum_plane,
}


def biquad3_conditions(spec):
    """The ten consistency conditions for the 3-generator bi-quadratic family.

    Returns [(name, value)]; the presentation admits the ordered-monomial
    basis iff every value is zero.  Derived from equating the two
    reductions of x3*x2*x1 (cross-checked against the rewrite engine's
    critical-pair residual in the tests).
    """
    q1, q2, q3 = spec.q_list
    (a, b, c), (al, be, ga), (la, mu, nu) = spec.tails
    b1, b2, b3 = spec.consts
    one = spec.ctx.one()
    conds = [
        ("C1", (one - q3) * al - (one - q2) * mu),
        ("C2", (one - q3) * a - (one - q1) * nu),
        ("C3", (one - q2) * b - (one - q1) * ga),
        ("C4", (one - q1 * q2) * la),
        ("C5", (q1 - q3) * be),
        ("C6", (one - q2 * q3) * c),
        ("C7", ((one - q3) * al - mu) * a + (b + q1 * ga) * la - nu * al
               + (q1 * q2 - one) * b3),
        ("C8", (a - nu) * be + q1 * ga * mu - q3 * al * b + (q1 - q3) * b2),
        ("C9", a * ga + (q1 - one) * nu * ga + b * nu - (mu + q3 * al) * c
               + (one - q2 * q3) * b1),
        ("C10", -(mu + q3 * al) * b1 + (a - nu) * b2 + (b + q1 * ga) * b3),
    ]
    return conds
