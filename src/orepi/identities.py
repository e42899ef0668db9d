"""q-calculus and the identity corpus.

The first half holds the scalar combinatorics: q-numbers, (p,q)-numbers,
q-factorials, Gaussian binomials, and the auxiliary sequences (B_k, C_k,
c_a, d_a, S_k) that appear in the straightening identities of the
supported families.  Everything is computed from sums and recurrences,
never from the fraction closed forms, so root-of-unity and q = 1
evaluations are always defined.

The second half turns each displayed straightening identity into an
executable check: an oracle builds the identity's two sides with
closed-form coefficients, and check_paper_identity pits the rewrite
engine against it for every index up to a bound.
"""

from collections import namedtuple
from math import comb

from .errors import FamilyMismatch, LemmaRangeError, QFactorialVanishes, ZeroInput
from .rewrite import (
    NCPoly,
    multiply,
    normal_form,
    power,
    product_memo,
    q_commutator,
    word_poly,
)

# ---------------------------------------------------------------------------
# scalar combinatorics
# ---------------------------------------------------------------------------


def q_number(k, q):
    """[k]_q = 1 + q + ... + q^(k-1); the empty sum for k = 0."""
    acc = q.ctx.zero()
    pw = q.ctx.one()
    for _ in range(k):
        acc = acc + pw
        pw = pw * q
    return acc


def pq_number(n, p, q):
    """[n]_{p,q} = sum_{i<n} q^i p^-(n-1-i); defined even at q = p^-1.

    This is the factored form of (q^n - p^-n)/(q - p^-1): it gives
    [1] = 1 and satisfies [n+1] = q^n + p^-1 [n].
    """
    if p.is_zero():
        raise ZeroInput("p must be nonzero")
    pi = p.inv()
    acc = q.ctx.zero()
    for i in range(n):
        acc = acc + (q ** i) * (pi ** (n - 1 - i))
    return acc


def q_factorial(k, q):
    acc = q.ctx.one()
    for j in range(1, k + 1):
        acc = acc * q_number(j, q)
    return acc


def gauss_binomial(k, i, q):
    if not 0 <= i <= k:
        raise LemmaRangeError("need 0 <= i <= k")
    den = q_factorial(i, q) * q_factorial(k - i, q)
    if den.is_zero():
        raise QFactorialVanishes(f"[{i}]_q! [{k - i}]_q! = 0")
    return q_factorial(k, q) / den


def b_coeff(k, q):
    """B_k: B_1 = 1, B_{k+1} = q^2 B_k + q^(-2k)."""
    b = q.ctx.one()
    q2 = q * q
    q2i = q2.inv()
    for j in range(1, k):
        b = q2 * b + q2i ** j
    return b


def c_coeff(k, q):
    """C_k: C_1 = 0, C_{k+1} = q^(-2) B_k + C_k."""
    c = q.ctx.zero()
    q2i = (q * q).inv()
    for j in range(1, k):
        c = c + q2i * b_coeff(j, q)
    return c


def c_a(a, q):
    """(1 - q^(2a))/(1 - q^2) in sum form: [a]_{q^2}."""
    return q_number(a, q * q)


def d_a(a, q):
    """(1 - q^(-2a))/(1 - q^(-2)) in sum form: [a]_{q^-2}."""
    return q_number(a, (q * q).inv())


# ---------------------------------------------------------------------------
# named element builders (each formula lives exactly here)
# ---------------------------------------------------------------------------


def theta_element(p):
    """theta = (1-pq) yx - t, as a normal-form element of the Heisenberg family."""
    if p.family != "Hpq":
        raise FamilyMismatch("theta lives in Hpq")
    pp, qq = p.params["p"], p.params["q"]
    one = p.ctx.one()
    return normal_form(p, [(one - pp * qq, p.word("y", "x")),
                           (-one, p.word("t"))])


def weyl_z(p, i):
    """z_i = x_i y_i - y_i x_i (normal form) in either Weyl family; z_0 = 1."""
    if p.family not in ("WeylMalt", "WeylAJ"):
        raise FamilyMismatch("z_i is defined for the Weyl families")
    if i == 0:
        return NCPoly.monomial(p.ctx.one(), ())
    xi, yi = f"x{i}", f"y{i}"
    one = p.ctx.one()
    return normal_form(p, [(one, p.word(xi, yi)), (-one, p.word(yi, xi))])


def cyc3_e(p):
    """e = xz - q^2 beta / (q^2 - 1) in the 3-cyclic family (needs q^2 != 1)."""
    if p.family != "ThreeCyclic":
        raise FamilyMismatch("e lives in the 3-cyclic family")
    q, be = p.params["q"], p.params["beta"]
    q2 = q * q
    shift = q2 * be / (q2 - 1)
    return normal_form(p, [(p.ctx.one(), p.word("x", "z")), (-shift, ())])


def bh_uvst(p):
    """The four invariant quadratics u = x1 x2, s = x1^2 + x2^2, v, t."""
    one = p.ctx.one()
    u = NCPoly.monomial(one, p.word("x1", "x2"))
    s = NCPoly({p.word("x1", "x1"): one, p.word("x2", "x2"): one})
    v = NCPoly.monomial(one, p.word("y1", "y2"))
    t = NCPoly({p.word("y1", "y1"): one, p.word("y2", "y2"): one})
    return u, s, v, t


def bqf_f(p, name):
    """f evaluated at the generator name of a B_q(f) presentation."""
    g = p.gen(name)
    return NCPoly({(g,) * j: cj for j, cj in enumerate(p.params["f"])
                   if not cj.is_zero()})


def bqf_delta(p, word):
    """The skew derivation of the B_q(f) Ore form, by its defining recursion.

    delta(u) = f(v), delta(v) = f(u), delta(ab) = sigma(a) delta(b) +
    delta(a) b with sigma(u) = qu, sigma(v) = q^-1 v.  Only words in u, v
    are allowed; products are reduced inside the quantum plane, so this
    is independent of the w-rules that Lemma-style checks exercise.
    """
    if p.family != "Bqf":
        raise FamilyMismatch("delta is the B_q(f) skew derivation")
    q = p.params["q"]
    v, u = p.gen("v"), p.gen("u")
    sigma_scalar = {u: q, v: q.inv()}
    delta_gen = {u: bqf_f(p, "v"), v: bqf_f(p, "u")}

    word = tuple(word)
    if any(g not in (u, v) for g in word):
        raise FamilyMismatch("delta applies to words in u, v only")
    if not word:
        return NCPoly.zero()
    g, rest = word[0], word[1:]
    if not rest:
        return delta_gen[g]
    tail = bqf_delta(p, rest)
    part1 = multiply(p, NCPoly.monomial(sigma_scalar[g], (g,)), tail)
    part2 = multiply(p, delta_gen[g], NCPoly.monomial(p.one, rest))
    return part1 + part2


# ---------------------------------------------------------------------------
# the oracle corpus
# ---------------------------------------------------------------------------
# Every entry returns a list of (label, lhs, rhs NCPoly) for the given
# index n, lhs a formal polynomial or an NCPoly; check_paper_identity
# asserts normal_form(lhs) == rhs exactly.  Right-hand sides are assembled in
# normal words with closed-form coefficients; where a textbook display
# uses a non-normal monomial, the exact straightening scalar (a pure
# parameter power) is folded in, or the display is solved for its
# non-normal monomial.  The power-commutation displays
# b a^k = s^k a^k b + (tail) and their mirrors are rows of ORACLES, each
# with its own closed forms (_oracle_commute): H, M2, UqB2, Weyl.xky/xyk,
# Cyc3 and Bqf.wuk/wvk.  Outside the table: Bh.commute, whose left sides
# are powers of two-term quadratics; the delta(g^k) closed forms, checked
# against the derivation recursion; Bqf.wku, whose displayed sum has no
# closed normal form, so its right side is normalized once by the engine
# (a two-route consistency test); and the relation checks, where
# e f = s f e is checked as q_commutator(e, f, s), the normal form of
# e f - s f e, against 0.


def _mono(p, coeff, *names):
    return NCPoly.monomial(coeff, p.word(*names))


def _tail(p, k, raised, terms):
    """The monomials c_j t_j r^(k - d_j) of the terms (c_j, t_j, d_j), each
    word listing the letters t_j and the raised letters r in precedence
    order."""
    for c, t, d in terms:
        word = sorted([*t, *[raised] * (k - d)], key=p.precedence.index)
        yield _mono(p, c, *word)


def _oracle_commute(*rows):
    """The lemma whose checks are the rows (b, a, raised, s[, tail]).

    A row is b a^k = s^k a^k b + sum_j c_j t_j a^(k - d_j) when the
    raised letter is a, and its mirror b^k a = s^k a b^k + sum_j c_j t_j
    b^(k - d_j) when it is b.  s(p) is the row's scalar, None meaning 1;
    rows that share s evaluate it once.  tail(p, k, s), given the value
    of s, lists the terms (c_j, t_j, d_j) (_tail).
    """
    def build(p, k):
        svals = {None: p.one}
        out = []
        for b, a, raised, s, *tail in rows:
            if s not in svals:
                svals[s] = s(p)
            bs = [b] * (k if raised == b else 1)
            as_ = [a] * (k if raised == a else 1)
            rhs = _mono(p, p.one if s is None else svals[s] ** k, *as_, *bs)
            if tail:
                rhs = sum(_tail(p, k, raised, tail[0](p, k, svals[s])), rhs)
            label = f"{b}^{k}*{a}" if raised == b else f"{b}*{a}^{k}"
            out.append((label, [(p.one, p.word(*bs, *as_))], rhs))
        return out
    return build


def _q(p):
    return p.params["q"]


def _qi(p):
    return p.params["q"].inv()


def _q2(p):
    return p.params["q"] * p.params["q"]


def _q2i(p):
    return _q2(p).inv()


def _alpha(p):
    return p.params["alpha"]


def _beta(p):
    return p.params["beta"]


def _gamma(p):
    return p.params["gamma"]


def _beta_alpha(p):
    return p.params["beta"] * p.params["alpha"].inv()


def _oracle_h_theta(p, n):
    qq = p.params["q"]
    th = theta_element(p)
    return [(f"theta*{gname} - ({scal!r})*{gname}*theta",
             q_commutator(p, th, word_poly(p, gname), scal), NCPoly.zero())
            for gname, scal in (("x", qq), ("y", qq.inv()), ("t", p.one))]


def _bh_binomial(p, n, a, b, pre=(), post=()):
    """h^(2n) sum_k C(n, k) pre a^(2k) b^(2(n-k)) post: s^n y_i with a, b =
    x1, x2 and x_j t^n with a, b = y1, y2 (the squares commute exactly)."""
    h = p.params["h"]
    rhs = NCPoly.zero()
    for k in range(n + 1):
        rhs = rhs + _mono(p, (h ** (2 * n)) * comb(n, k),
                          *pre, *[a] * (2 * k), *[b] * (2 * (n - k)), *post)
    return rhs


def _oracle_bh_commute(p, n):
    h = p.params["h"]
    one = p.one
    sign = one if (n * (n - 1) // 2) % 2 == 0 else -one
    mh2 = -(h * h)
    _, s, _, t = bh_uvst(p)
    out = []
    for yi in ("y1", "y2"):
        lhs = [(one, p.word(yi, *["x1", "x2"] * n))]
        rhs = _mono(p, (mh2 ** n) * sign, *(["x1"] * n + ["x2"] * n + [yi]))
        out.append((f"{yi}*u^{n}", lhs, rhs))
    # s^n and t^n: the left side multiplies the engine power of the
    # two-term quadratic; the right side is the independent binomial
    # closed form
    spn = power(p, s, n)
    for yi in ("y1", "y2"):
        lhs = [(c, p.word(yi) + w) for c, w in spn.as_formal()]
        out.append((f"{yi}*s^{n}", lhs,
                    _bh_binomial(p, n, "x1", "x2", post=(yi,))))
    for xj in ("x1", "x2"):
        # x_j v = (-h^-2) v x_j, so v^n x_j = (-h^2)^n x_j v^n
        lhs = [(one, p.word(*(["y1", "y2"] * n + [xj])))]
        rhs = _mono(p, (mh2 ** n) * sign, *([xj] + ["y1"] * n + ["y2"] * n))
        out.append((f"v^{n}*{xj}", lhs, rhs))
    tpn = power(p, t, n)
    for xj in ("x1", "x2"):
        lhs = [(c, w + p.word(xj)) for c, w in tpn.as_formal()]
        out.append((f"t^{n}*{xj}", lhs,
                    _bh_binomial(p, n, "y1", "y2", pre=(xj,))))
    return out


def _oracle_weyl(raised):
    """Weyl.xky (raised "x") or Weyl.xyk (raised "y"), one row for each
    i = 1, ..., n: x_i^k y_i = q_i^k y_i x_i^k + [k]_{q_i} z_{i-1} x_i^(k-1),
    or x_i y_i^k the same with y_i raised, where z_{i-1} is its closed
    form 1 + sum_{j<i} (q_j - 1) y_j x_j."""
    def row(i):
        def tail(p, k, qi):
            ck = q_number(k, qi)
            qs = p.params["q_list"]
            z = [(ck, (), 1)]
            for j in range(1, i):
                z.append((ck * (qs[j - 1] - p.one), (f"y{j}", f"x{j}"), 1))
            return z
        return (f"x{i}", f"y{i}", f"{raised}{i}",
                lambda p: p.params["q_list"][i - 1], tail)
    return lambda p, k: _oracle_commute(
        *[row(i) for i in range(1, p.params["n"] + 1)])(p, k)


def _oracle_weyl_zi(p, n_unused):
    qs = p.params["q_list"]
    n = p.params["n"]
    out = []
    zs = {i: weyl_z(p, i) for i in range(1, n + 1)}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for kind in ("x", "y"):
                if j > i:
                    scal = p.one
                elif kind == "x":
                    scal = qs[j - 1].inv()
                else:
                    scal = qs[j - 1]
                out.append((f"z{i}*{kind}{j} - ({scal!r})*{kind}{j}*z{i}",
                            q_commutator(p, zs[i], word_poly(p, f"{kind}{j}"),
                                         scal),
                            NCPoly.zero()))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            out.append((f"[z{i},z{j}]", q_commutator(p, zs[i], zs[j], p.one),
                        NCPoly.zero()))
    return out


def _oracle_cyc3_e(p, n_unused):
    scal = (p.params["q"] * p.params["q"]).inv()
    e_rel = q_commutator(p, cyc3_e(p), word_poly(p, "z"), scal)
    return [("e*z - q^-2*z*e", e_rel, NCPoly.zero())]


def _bqf_delta_terms(p, g, k):
    """delta(g^k) for the generator g = "u" or "v" as tail terms of the
    raised letter g, summed over the terms c_j t^j of f: delta(u^k) =
    sum_j [k]_{q^(j+1)} c_j v^j u^(k-1), and delta(v^k) = sum_j
    [k]_{q^-(j+1)} c_j q^(j(k-1)) v^(k-1) u^j, using u^j v^(k-1) =
    q^(j(k-1)) v^(k-1) u^j.  It is the tail of the rows w g^k =
    sigma(g)^k g^k w + delta(g^k), sigma(u) = q u, sigma(v) = q^-1 v."""
    q = p.params["q"]
    out = []
    for j, cj in enumerate(p.params["f"]):
        if cj.is_zero():
            continue
        if g == "u":
            out.append((q_number(k, q ** (j + 1)) * cj, ("v",) * j, 1))
        else:
            out.append((q_number(k, (q ** (j + 1)).inv()) * cj *
                        q ** (j * (k - 1)), ("u",) * j, 1))
    return out


def _oracle_bqf_delta(g):
    """delta(g^k) by the skew-derivation recursion against its closed form."""
    def build(p, k):
        lhs = bqf_delta(p, p.word(*[g] * k)).as_formal()
        rhs = sum(_tail(p, k, g, _bqf_delta_terms(p, g, k)), NCPoly.zero())
        return [(f"delta({g}^{k})", lhs, rhs)]
    return build


def _oracle_bqf_wku(p, k):
    q = p.params["q"]
    lhs = [(p.one, p.word(*(["w"] * k + ["u"])))]
    formal_rhs = [(q ** k, p.word(*(["u"] + ["w"] * k)))]
    for i in range(k):
        pre = ["w"] * (k - 1 - i)
        for j, cj in enumerate(p.params["f"]):
            if not cj.is_zero():
                formal_rhs.append((cj * q ** i,
                                   p.word(*pre, *["v"] * j, *["w"] * i)))
    rhs = normal_form(p, formal_rhs)
    return [(f"w^{k}*u", lhs, rhs)]


_Oracle = namedtuple("_Oracle", "family min_n build relation_only",
                     defaults=(False,))


ORACLES = {
    "Bh.commute": _Oracle("Bh", 1, _oracle_bh_commute),
    "H.yxn": _Oracle("Hpq", 1, _oracle_commute(("y", "x", "x", _q,
        lambda p, k, q: [(pq_number(k, p.params["p"], q)
                          * p.params["p"] ** (k - 1), ("t",), 1)]))),
    "H.ynx": _Oracle("Hpq", 1, _oracle_commute(("y", "x", "y", _q,
        lambda p, k, q: [(pq_number(k, p.params["p"], q), ("t",), 1)]))),
    "H.theta_rel": _Oracle("Hpq", 1, _oracle_h_theta, relation_only=True),
    "M2.k1": _Oracle("M2", 1, _oracle_commute(("X22", "X11", "X22", None,
        lambda p, k, _: [(_alpha(p).inv() * ((_alpha(p) * _beta(p)) ** k - 1),
                          ("X12", "X21"), 1)]))),
    "M2.k2": _Oracle("M2", 1, _oracle_commute(("X22", "X11", "X11", None,
        lambda p, k, _: [(_beta(p) * (1 - (_alpha(p) * _beta(p)) ** (-k))
                          * (_alpha(p) * _beta(p)) ** (k - 1),
                          ("X12", "X21"), 1)]))),
    "M2.power_table": _Oracle("M2", 1, _oracle_commute(
        ("X12", "X11", "X12", _alpha),
        ("X22", "X12", "X12", _beta),
        ("X21", "X12", "X12", _beta_alpha),
        ("X21", "X11", "X21", _beta),
        ("X22", "X21", "X21", _alpha),
        ("X21", "X12", "X21", _beta_alpha),
        ("X12", "X11", "X11", _alpha),
        ("X21", "X11", "X11", _beta),
        ("X22", "X12", "X22", _beta),
        ("X22", "X21", "X22", _alpha))),
    "UqB2.i": _Oracle("UqB2", 1, _oracle_commute(("e2", "e3", "e3", _q2,
        lambda p, k, q2: [(q_number(k, q2), ("z",), 1)]))),
    "UqB2.ii": _Oracle("UqB2", 1, _oracle_commute(("e2", "e3", "e2", _q2,
        lambda p, k, q2: [(q_number(k, q2), ("z",), 1)]))),
    "UqB2.iii": _Oracle("UqB2", 1, _oracle_commute(("e2", "e1", "e1", _q2i,
        lambda p, k, q2i: [(-(q2i * q_number(k, q2i * q2i)), ("e3",), 1)]))),
    # e2^k e1 = q^-2k e1 e2^k - q^-2 B_k e3 e2^(k-1) - C_k z e2^(k-2)
    "UqB2.iv": _Oracle("UqB2", 2, _oracle_commute(("e2", "e1", "e2", _q2i,
        lambda p, k, q2i: [(-(q2i * b_coeff(k, _q(p))), ("e3",), 1),
                           (-c_coeff(k, _q(p)), ("z",), 2)]))),
    "Weyl.xky": _Oracle("WeylMalt", 1, _oracle_weyl("x")),
    "Weyl.xyk": _Oracle("WeylMalt", 1, _oracle_weyl("y")),
    "Weyl.zi_normal": _Oracle("WeylMalt", 1, _oracle_weyl_zi, relation_only=True),
    # i: x^a y = q^{2a} y x^a + c_a alpha x^{a-1}
    "Cyc3.i": _Oracle("ThreeCyclic", 1, _oracle_commute(("y", "x", "x", _q2i,
        lambda p, a, q2i: [(-(q2i ** a) * c_a(a, _q(p)) * _alpha(p), (), 1)]))),
    # ii: y^a x = q^{-2a} x y^a - q^{-2} d_a alpha y^{a-1}
    "Cyc3.ii": _Oracle("ThreeCyclic", 1, _oracle_commute(("y", "x", "y", _q2i,
        lambda p, a, q2i: [(-(q2i * d_a(a, _q(p)) * _alpha(p)), (), 1)]))),
    # iii: x^a z = q^{-2a} z x^a + d_a beta x^{a-1}
    "Cyc3.iii": _Oracle("ThreeCyclic", 1, _oracle_commute(("z", "x", "x", _q2,
        lambda p, a, q2: [(-(q2 ** a) * d_a(a, _q(p)) * _beta(p), (), 1)]))),
    # iv: z^a x = q^{2a} x z^a - q^2 c_a beta z^{a-1}
    "Cyc3.iv": _Oracle("ThreeCyclic", 1, _oracle_commute(("z", "x", "z", _q2,
        lambda p, a, q2: [(-(q2 * c_a(a, _q(p)) * _beta(p)), (), 1)]))),
    # v: y^a z = q^{2a} z y^a + c_a gamma y^{a-1}
    "Cyc3.v": _Oracle("ThreeCyclic", 1, _oracle_commute(("z", "y", "y", _q2i,
        lambda p, a, q2i: [(-(q2i ** a) * c_a(a, _q(p)) * _gamma(p), (), 1)]))),
    # vi: z^a y = q^{-2a} y z^a - q^{-2} d_a gamma z^{a-1}
    "Cyc3.vi": _Oracle("ThreeCyclic", 1, _oracle_commute(("z", "y", "z", _q2i,
        lambda p, a, q2i: [(-(q2i * d_a(a, _q(p)) * _gamma(p)), (), 1)]))),
    "Cyc3.e_rel": _Oracle("ThreeCyclic", 1, _oracle_cyc3_e, relation_only=True),
    "Bqf.delta_uk": _Oracle("Bqf", 1, _oracle_bqf_delta("u")),
    "Bqf.delta_vk": _Oracle("Bqf", 1, _oracle_bqf_delta("v")),
    "Bqf.wuk": _Oracle("Bqf", 1, _oracle_commute(("w", "u", "u", _q,
        lambda p, k, _: _bqf_delta_terms(p, "u", k)))),
    "Bqf.wvk": _Oracle("Bqf", 1, _oracle_commute(("w", "v", "v", _qi,
        lambda p, k, _: _bqf_delta_terms(p, "v", k)))),
    "Bqf.wku": _Oracle("Bqf", 1, _oracle_bqf_wku),
}

LEMMA_IDS = tuple(sorted(ORACLES))


def oracle_rhs(lemma_id, p, n):
    """(label, lhs, rhs NCPoly) checks for one index."""
    try:
        info = ORACLES[lemma_id]
    except KeyError:
        raise FamilyMismatch(f"unknown lemma id {lemma_id!r}") from None
    if p.family != info.family:
        raise FamilyMismatch(f"{lemma_id} lives in family {info.family}, "
                             f"got {p.family}")
    if n < info.min_n:
        raise LemmaRangeError(f"{lemma_id} needs n >= {info.min_n}")
    return info.build(p, n)


class IdentityCheck:
    __slots__ = ("lemma", "n", "label", "ok", "residual")

    def __init__(self, lemma, n, label, ok, residual):
        self.lemma = lemma
        self.n = n
        self.label = label
        self.ok = ok
        self.residual = residual

    def __repr__(self):
        mark = "pass" if self.ok else "FAIL"
        return f"<{self.lemma} n={self.n} {self.label}: {mark}>"


class IdentityReport:
    __slots__ = ("lemma", "checks",)

    def __init__(self, lemma, checks):
        self.lemma = lemma
        self.checks = list(checks)

    @property
    def all_pass(self):
        return all(c.ok for c in self.checks)

    def __repr__(self):
        n_ok = sum(c.ok for c in self.checks)
        return f"<IdentityReport {self.lemma}: {n_ok}/{len(self.checks)} pass>"


def nf_eval(p, formal):
    # kept as a name: the benchmark's workloads and tracer use identities.nf_eval
    return normal_form(p, formal)


def check_paper_identity(lemma_id, p, n_max):
    """Run the lemma's oracle for every index up to n_max against the engine."""
    info = ORACLES.get(lemma_id)
    if info is None:
        raise FamilyMismatch(f"unknown lemma id {lemma_id!r}")
    if n_max < info.min_n:
        raise LemmaRangeError(f"{lemma_id} needs n_max >= {info.min_n}")
    indices = [1] if info.relation_only else range(info.min_n, n_max + 1)
    checks = []
    with product_memo():
        for n in indices:
            for label, lhs, rhs in oracle_rhs(lemma_id, p, n):
                residual = normal_form(p, lhs) - rhs
                checks.append(IdentityCheck(lemma_id, n, label,
                                            residual.is_zero(), residual))
    return IdentityReport(lemma_id, checks)


# ---------------------------------------------------------------------------
# bi-quadratic instance generation for the confluence property
# ---------------------------------------------------------------------------


def biquad3_consistent_instance(ctx, rng, root_order=12):
    """Random 3-generator bi-quadratic instance satisfying all ten conditions.

    The conditions are triangular in the tails once the forced-zero
    entries are set (lambda = 0 when q1 q2 != 1, beta = 0 when q1 != q3,
    c = 0 when q2 q3 != 1), so b1, b2, b3 can be solved for.
    Requires a context containing primitive root_order-th roots of unity.
    """
    from .presentations import spec_biquad3
    zeta = ctx.root_of_unity(root_order)
    while True:
        e1, e2, e3 = (rng.randrange(1, root_order) for _ in range(3))
        q1, q2, q3 = zeta ** e1, zeta ** e2, zeta ** e3
        ok = not any(v.is_one() for v in (q1, q2, q3, q1 * q2, q2 * q3))
        if ok and q1 != q3:
            break
    one = ctx.one()
    a = ctx.from_int(rng.randrange(-3, 4))
    b = ctx.from_int(rng.randrange(-3, 4))
    al = ctx.from_int(rng.randrange(-3, 4))
    mu = (one - q3) * al / (one - q2)
    nu = (one - q3) * a / (one - q1)
    ga = (one - q2) * b / (one - q1)
    la = ctx.zero()
    be = ctx.zero()
    c = ctx.zero()
    b3 = -(((one - q3) * al - mu) * a + (b + q1 * ga) * la - nu * al) / (q1 * q2 - one)
    b2 = -((a - nu) * be + q1 * ga * mu - q3 * al * b) / (q1 - q3)
    b1 = -(a * ga + (q1 - one) * nu * ga + b * nu - (mu + q3 * al) * c) / (one - q2 * q3)
    return spec_biquad3(ctx, (q1, q2, q3),
                        ((a, b, c), (al, be, ga), (la, mu, nu)),
                        (b1, b2, b3))


def biquad3_violating_instance(ctx, rng, root_order=12):
    """Perturb a consistent instance so at least one condition fails."""
    from .presentations import biquad3_conditions, spec_biquad3
    spec = biquad3_consistent_instance(ctx, rng, root_order=root_order)
    (a, b, c), (al, be, ga), (la, mu, nu) = spec.tails
    b1, b2, b3 = spec.consts
    one = ctx.one()
    choice = rng.randrange(4)
    if choice == 0:
        la = la + one          # breaks (1 - q1 q2) lambda = 0
    elif choice == 1:
        be = be + one          # breaks (q1 - q3) beta = 0
    elif choice == 2:
        c = c + one            # breaks (1 - q2 q3) c = 0
    else:
        b3 = b3 + one          # breaks the x1-coefficient condition
    out = spec_biquad3(ctx, spec.q_list,
                       ((a, b, c), (al, be, ga), (la, mu, nu)), (b1, b2, b3))
    assert any(not v.is_zero() for _, v in biquad3_conditions(out))
    return out
