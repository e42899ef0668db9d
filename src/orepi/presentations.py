"""Algebra presentations: ordered generators, weights, oriented rewrite rules.

A presentation fixes a term order on words -- (total weight, length,
left-lexicographic by generator precedence) -- and a finite set of rules
lhs -> sum of (coefficient, word) with every right-hand word strictly
below the left-hand word.  Constructors are provided for each supported
algebra family; all of them produce orientations that the validator
accepts for every legal parameter choice.
"""

from collections import namedtuple

from .errors import (
    DownUpNotNoetherian,
    FamilyMismatch,
    NonAntisymmetricLambda,
    OrientationFailure,
    ParametersRequired,
    PreconditionViolation,
    ZeroParameter,
)
from .rewrite import overlap_check, rule_table


class RewriteRule:
    """Oriented rule: nonempty word lhs -> formal polynomial rhs."""

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
    """Immutable presentation over one coefficient field; ``params`` is
    its FamilySpec's dict itself ({} for a file or custom presentation)."""

    __slots__ = ("ctx", "names", "weights", "precedence", "rules",
                 "family", "params", "one", "by_first", "inert", "min_lhs",
                 "field_ops", "memo", "_rank", "_index", "_confluent")

    def __init__(self, ctx, names, weights, precedence, rules,
                 family=None, params=None):
        self.ctx = ctx
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise PreconditionViolation("generator names must be unique")
        self.weights = tuple(weights)
        if len(self.weights) != len(self.names):
            raise PreconditionViolation("one weight per generator")
        if any(w < 1 for w in self.weights):
            raise PreconditionViolation("weights must be positive")
        self.precedence = tuple(precedence)
        if sorted(self.precedence) != sorted(self.names):
            raise PreconditionViolation(
                "precedence must list every generator once")
        self.rules = tuple(rules)
        if not all(rule.lhs for rule in self.rules):
            raise PreconditionViolation("a left side must be nonempty")
        self.family = family
        self.params = {} if params is None else params
        self._index = {n: i for i, n in enumerate(self.names)}
        rank_of_name = {n: r for r, n in enumerate(self.precedence)}
        self._rank = tuple(rank_of_name[n] for n in self.names)
        self.one = ctx.one()
        self.by_first = rule_table(self.rules, self.one)
        # inert: in no left side past its first letter, nor a one-letter one
        later = set()
        for rule in self.rules:
            later.update(rule.lhs[1:] or rule.lhs)
        self.inert = frozenset(range(len(self.names))).difference(later)
        # the shortest left side: no redex starts in a word's last
        # min_lhs - 1 letters
        self.min_lhs = min((len(rule.lhs) for rule in self.rules), default=1)
        # the straightener's payload operations, bound once
        self.field_ops = (ctx.add, ctx.mul, ctx.is_zero)
        # the product memo of the rewrite calls made outside every
        # rewrite.product_memo() scope
        self.memo = {}
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
    """Tagged parameter record selecting one algebra family:
    ``FamilySpec(family, ctx, **params)``, one dict keyed by the names
    the family's builder reads (any other is a PreconditionViolation),
    which its presentation holds too; ``spec.<name>`` reads params[name].
    Use the ``spec_*`` helpers rather than building directly.  A spec is
    fixed once built: build_family stores its presentation on it
    (``_built``) and returns that one object for every later call.
    """

    __slots__ = ("family", "ctx", "params", "_built")

    def __init__(self, family, ctx, **params):
        if family not in _FAMILIES:
            raise FamilyMismatch(f"unknown family {family!r}")
        unknown = [k for k in params if k not in _FAMILIES[family].parameters]
        if unknown:
            raise PreconditionViolation(
                f"{family} reads no parameter {', '.join(unknown)}")
        self.family = family
        self.ctx = ctx
        self.params = params
        self._built = None

    def __getattr__(self, name):
        try:
            return object.__getattribute__(self, "params")[name]
        except KeyError:
            raise AttributeError(name) from None

    def __repr__(self):
        return f"<FamilySpec {self.family} over {self.ctx!r}>"


def spec_bh(ctx, h):
    return FamilySpec("Bh", ctx, h=h)


def spec_hpq(ctx, p, q):
    return FamilySpec("Hpq", ctx, p=p, q=q)


def spec_hq(ctx, q):
    """One-parameter Heisenberg: the p = q slice of Hpq."""
    return spec_hpq(ctx, q, q)


def spec_m2(ctx, alpha, beta):
    return FamilySpec("M2", ctx, alpha=alpha, beta=beta)


def spec_uqb2(ctx, q):
    return FamilySpec("UqB2", ctx, q=q)


def spec_weyl(ctx, q_list, lam, variant="maltsiniotis"):
    family = "WeylMalt" if variant == "maltsiniotis" else "WeylAJ"
    return FamilySpec(family, ctx, q_list=tuple(q_list),
                      lam=tuple(tuple(row) for row in lam))


def spec_biquad3(ctx, q_triple, tails, consts):
    """q_triple = (q1,q2,q3); tails = 3x3 matrix [[a,b,c],[al,be,ga],[la,mu,nu]];
    consts = (b1,b2,b3)."""
    return FamilySpec("BiQuad3", ctx, q_list=tuple(q_triple),
                      tails=tuple(tuple(row) for row in tails),
                      consts=tuple(consts))


def spec_three_cyclic(ctx, q, alpha, beta, gamma):
    return FamilySpec("ThreeCyclic", ctx, q=q, alpha=alpha, beta=beta,
                      gamma=gamma)


def spec_downup(ctx, alpha, beta, gamma):
    return FamilySpec("DownUp", ctx, alpha=alpha, beta=beta, gamma=gamma)


def spec_bqf(ctx, q, f_coeffs):
    """f_coeffs: ascending coefficients of f in k[t] (may be empty for f = 0)."""
    return FamilySpec("Bqf", ctx, q=q, f_coeffs=tuple(f_coeffs))


def spec_quantum_plane(ctx, q):
    return FamilySpec("QuantumPlane", ctx, q=q)


# ---------------------------------------------------------------------------
# family constructors
# ---------------------------------------------------------------------------


def _require_units(named):
    for name, value in named.items():
        if value.is_zero():
            raise ZeroParameter(f"parameter {name} must be nonzero")


def require_parameters(family, missing):
    """Raise ParametersRequired naming the missing parameters, if any."""
    if missing:
        raise ParametersRequired(f"{family} needs a value for "
                                 + ", ".join(missing))


def build_family(spec):
    """Oriented presentation for the given family instance, built on the
    first call and returned by every later one; its params are spec's
    dict itself.  A parameter the family needs and spec lacks is a
    ParametersRequired; the family's builder, which returns names,
    weights, precedence and rules, is the one check of the values (a
    PreconditionViolation for a refused one)."""
    if spec._built is None:
        parameters, build = _FAMILIES[spec.family]
        require_parameters(spec.family, [
            k for k in parameters if spec.params.get(k) is None])
        pres = Presentation(spec.ctx, *build(spec), family=spec.family,
                            params=spec.params)
        for _, ok, bad in validate_orientation(pres):
            if not ok:
                raise OrientationFailure(f"rhs term {bad} not below lhs")
        spec._built = pres
    return spec._built


def _build_bh(spec):
    ctx = spec.ctx
    h = spec.params["h"]
    _require_units({"h": h})
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
    return names, (1, 1, 1, 1), names, rules


def _build_hpq(spec):
    ctx = spec.ctx
    p, q = spec.params["p"], spec.params["q"]
    _require_units({"p": p, "q": q})
    names = ("t", "x", "y")
    t, x, y = 0, 1, 2
    one = ctx.one()
    rules = [
        RewriteRule((x, t), [(p, (t, x))]),
        RewriteRule((y, t), [(p.inv(), (t, y))]),
        RewriteRule((y, x), [(q, (x, y)), (one, (t,))]),
    ]
    return names, (1, 1, 1), names, rules


def _build_m2(spec):
    ctx = spec.ctx
    a, b = spec.params["alpha"], spec.params["beta"]
    _require_units({"alpha": a, "beta": b})
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
    return names, (1, 1, 1, 1), names, rules


def _build_uqb2(spec):
    ctx = spec.ctx
    q = spec.params["q"]
    _require_units({"q": q})
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
    return names, (1, 1, 1, 1), names, rules


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


def _require_square(name, rows, n):
    """Refuse a matrix that is not n x n, naming the shape it has."""
    lengths = [len(row) for row in rows]
    if lengths != [n] * n:
        raise PreconditionViolation(
            f"{name} must be {n}x{n}, got rows of lengths {lengths}")


def _build_weyl(spec):
    ctx = spec.ctx
    qs, lam = spec.params["q_list"], spec.params["lam"]
    n = len(qs)
    _require_square(f"lam (for {n} q_i)", lam, n)
    _require_units({f"q{i+1}": qi for i, qi in enumerate(qs)})
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
    return names, (1,) * (2 * n), precedence, rules


def _build_biquad3(spec):
    qs, tails, consts = (spec.params[k] for k in ("q_list", "tails", "consts"))
    if len(qs) != 3 or len(consts) != 3:
        raise PreconditionViolation(
            f"BiQuad3 needs 3 q values and 3 consts, got {len(qs)} and "
            f"{len(consts)}")
    _require_square("tails", tails, 3)
    q1, q2, q3 = qs
    _require_units({"q1": q1, "q2": q2, "q3": q3})
    (a, b, c), (al, be, ga), (la, mu, nu) = tails
    b1, b2, b3 = consts
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
    return names, (1, 1, 1), names, rules


def _build_three_cyclic(spec):
    q, al, be, ga = (spec.params[k] for k in ("q", "alpha", "beta", "gamma"))
    _require_units({"q": q})
    names = ("x", "y", "z")
    x, y, z = 0, 1, 2
    q2 = q * q
    q2i = q2.inv()
    rules = [
        RewriteRule((y, x), [(q2i, (x, y)), (-(q2i * al), ())]),
        RewriteRule((z, x), [(q2, (x, z)), (-(q2 * be), ())]),
        RewriteRule((z, y), [(q2i, (y, z)), (-(q2i * ga), ())]),
    ]
    return names, (1, 1, 1), names, rules


def _build_downup(spec):
    al, be, ga = (spec.params[k] for k in ("alpha", "beta", "gamma"))
    if be.is_zero():
        raise DownUpNotNoetherian("beta = 0: not Noetherian, no PBW word basis")
    names = ("u", "d")
    u, d = 0, 1
    rules = [
        RewriteRule((d, u, u), [(al, (u, d, u)), (be, (u, u, d)), (ga, (u,))]),
        RewriteRule((d, d, u), [(al, (d, u, d)), (be, (u, d, d)), (ga, (d,))]),
    ]
    return names, (1, 1), names, rules


def _build_bqf(spec):
    q = spec.params["q"]
    _require_units({"q": q})
    f = spec.params["f_coeffs"]
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
    return names, (1, 1, wt), names, rules


def _build_quantum_plane(spec):
    q = spec.params["q"]
    _require_units({"q": q})
    names = ("x", "y")
    rules = [RewriteRule((1, 0), [(q, (0, 1))])]
    return names, (1, 1), names, rules


# each family's record: the parameters its builder reads, and the builder
_Family = namedtuple("_Family", "parameters build")
_FAMILIES = {
    "Bh": _Family(("h",), _build_bh),
    "Hpq": _Family(("p", "q"), _build_hpq),
    "M2": _Family(("alpha", "beta"), _build_m2),
    "UqB2": _Family(("q",), _build_uqb2),
    "WeylMalt": _Family(("q_list", "lam"), _build_weyl),
    "WeylAJ": _Family(("q_list", "lam"), _build_weyl),
    "BiQuad3": _Family(("q_list", "tails", "consts"), _build_biquad3),
    "ThreeCyclic": _Family(("q", "alpha", "beta", "gamma"),
                           _build_three_cyclic),
    "DownUp": _Family(("alpha", "beta", "gamma"), _build_downup),
    "Bqf": _Family(("q", "f_coeffs"), _build_bqf),
    "QuantumPlane": _Family(("q",), _build_quantum_plane),
}
FAMILIES = tuple(_FAMILIES)


def biquad3_conditions(spec):
    """The ten consistency conditions for the 3-generator bi-quadratic family.

    Returns [(name, value)]; the presentation admits the ordered-monomial
    basis iff every value is zero.  Derived from equating the two
    reductions of x3*x2*x1 (cross-checked against the rewrite engine's
    critical-pair residual in the tests).
    """
    q1, q2, q3 = spec.params["q_list"]
    (a, b, c), (al, be, ga), (la, mu, nu) = spec.params["tails"]
    b1, b2, b3 = spec.params["consts"]
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
