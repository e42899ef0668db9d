"""q-calculus and the identity corpus.

The first half holds the scalar combinatorics: q-numbers, (p,q)-numbers,
q-factorials, Gaussian binomials, and the auxiliary sequences (B_k, C_k,
c_a, d_a, S_k) that appear in the straightening identities of the
supported families.  Everything is computed from sums and recurrences,
never from the fraction closed forms, so root-of-unity and q = 1
evaluations are always defined.  Each sequence is a running primitive
that yields its items for k = 0, 1, 2, ... from its recurrence, written
once; the k-indexed functions read its k-th item.

The second half turns each displayed straightening identity into an
executable check: an oracle is a stream over the index n that carries
its closed forms from n to n+1, and check_paper_identity walks it,
pitting the rewrite engine against each index up to a bound.
"""

from collections import namedtuple
from functools import reduce
from itertools import accumulate, chain, count, islice, pairwise, repeat
from math import comb
from operator import add, mul

from .errors import (FamilyMismatch, LemmaRangeError, ParametersRequired,
                     QFactorialVanishes, ZeroInput)
from .rewrite import (
    NCPoly,
    multiply,
    normal_form,
    product_memo,
    q_commutator,
    word_poly,
)

# ---------------------------------------------------------------------------
# scalar combinatorics
# ---------------------------------------------------------------------------


def _powers(x):
    """x^k: x^0 = 1, x^(k+1) = x^k x."""
    return accumulate(repeat(x), mul, initial=x.ctx.one())


def _geom(x):
    """[k]_x = 1 + x + ... + x^(k-1): [0] = 0, [k+1] = [k] + x^k."""
    return accumulate(_powers(x), add, initial=x.ctx.zero())


def _pq_numbers(p, q):
    """[n]_{p,q}: [0] = 0, [n+1] = q^n + p^-1 [n]."""
    if p.is_zero():
        raise ZeroInput("p must be nonzero")
    pi = p.inv()
    return accumulate(_powers(q), lambda pqn, qn: qn + pi * pqn,
                      initial=q.ctx.zero())


def _bc(q):
    """(B_k, C_k): B_0 = C_0 = 0, B_{k+1} = q^2 B_k + q^(-2k) and
    C_{k+1} = q^(-2) B_k + C_k, so B_1 = 1 and C_1 = 0."""
    q2, zero = q * q, q.ctx.zero()
    q2i = q2.inv()
    return accumulate(_powers(q2i), lambda bc, q2ik: (q2 * bc[0] + q2ik,
                                                      q2i * bc[0] + bc[1]),
                      initial=(zero, zero))


def _from1(seq):
    return islice(seq, 1, None)


def _nth(seq, k):
    return next(islice(seq, max(k, 0), None))


def q_number(k, q):
    """[k]_q = 1 + q + ... + q^(k-1); the empty sum for k = 0."""
    return _nth(_geom(q), k)


def pq_number(n, p, q):
    """[n]_{p,q} = sum_{i<n} q^i p^-(n-1-i); defined even at q = p^-1.

    This is the factored form of (q^n - p^-n)/(q - p^-1): it gives
    [1] = 1 and is the n-th item of the recurrence _pq_numbers.
    """
    return _nth(_pq_numbers(p, q), n)


def q_factorial(k, q):
    return reduce(mul, islice(_geom(q), 1, max(k, 0) + 1), q.ctx.one())


def gauss_binomial(k, i, q):
    if not 0 <= i <= k:
        raise LemmaRangeError("need 0 <= i <= k")
    den = q_factorial(i, q) * q_factorial(k - i, q)
    if den.is_zero():
        raise QFactorialVanishes(f"[{i}]_q! [{k - i}]_q! = 0")
    return q_factorial(k, q) / den


def b_coeff(k, q):
    """B_k, the k-th item of _bc: B_1 = 1."""
    return _nth(_bc(q), k)[0]


def c_coeff(k, q):
    """C_k, the k-th item of _bc: C_1 = 0."""
    return _nth(_bc(q), k)[1]


def c_a(a, q):
    """(1 - q^(2a))/(1 - q^2) in sum form: [a]_{q^2}."""
    return q_number(a, q * q)


def d_a(a, q):
    """(1 - q^(-2a))/(1 - q^(-2)) in sum form: [a]_{q^-2}."""
    return q_number(a, (q * q).inv())


# ---------------------------------------------------------------------------
# named element builders (each formula lives exactly here)
# ---------------------------------------------------------------------------


def _values(p, family, mismatch):
    """p's parameter values: a FamilyMismatch (message mismatch) unless p
    is of family, a ParametersRequired if it has none (read from a file)."""
    if p.family != family:
        raise FamilyMismatch(mismatch)
    if not p.params:
        raise ParametersRequired(f"{family} needs its parameter values; "
                                 "a presentation file has none")
    return p.params


def theta_element(p):
    """theta = (1-pq) yx - t, as a normal-form element of the Heisenberg family."""
    v = _values(p, "Hpq", "theta lives in Hpq")
    one = p.ctx.one()
    return normal_form(p, [(one - v["p"] * v["q"], p.word("y", "x")),
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
    v = _values(p, "ThreeCyclic", "e lives in the 3-cyclic family")
    q, be = v["q"], v["beta"]
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
    f = _values(p, "Bqf", "f lives in the B_q(f) family")["f_coeffs"]
    g = p.gen(name)
    return NCPoly({(g,) * j: cj for j, cj in enumerate(f)
                   if not cj.is_zero()})


def _bqf_delta_step(p):
    """The defining recursion of the skew derivation of the B_q(f) Ore
    form, as step(g, rest, delta(rest)) = delta(g rest) = sigma(g)
    delta(rest) + delta(g) rest, with delta(u) = f(v), delta(v) = f(u),
    sigma(u) = qu and sigma(v) = q^-1 v.  Products are reduced inside the
    quantum plane, so this is independent of the w-rules that Lemma-style
    checks exercise."""
    q = _values(p, "Bqf", "delta is the B_q(f) skew derivation")["q"]
    u, v = p.gen("u"), p.gen("v")
    sigma = {u: NCPoly.monomial(q, (u,)), v: NCPoly.monomial(q.inv(), (v,))}
    delta = {u: bqf_f(p, "v"), v: bqf_f(p, "u")}

    def step(g, rest, tail):
        return (multiply(p, sigma[g], tail)
                + multiply(p, delta[g], NCPoly.monomial(p.one, rest)))
    return step


def bqf_delta(p, word):
    """The skew derivation of the B_q(f) Ore form on a word in u, v, by
    its defining recursion (_bqf_delta_step) from the last letter on."""
    step = _bqf_delta_step(p)
    word = tuple(word)
    if any(g not in (p.gen("u"), p.gen("v")) for g in word):
        raise FamilyMismatch("delta applies to words in u, v only")
    out = NCPoly.zero()
    for i in reversed(range(len(word))):
        out = step(word[i], word[i + 1:], out)
    return out


# ---------------------------------------------------------------------------
# the oracle corpus
# ---------------------------------------------------------------------------
# Every entry's stream(p) yields, for the index n = 1, 2, ..., the list of
# checks (label, lhs, rhs NCPoly) at n, lhs a formal polynomial or an
# NCPoly; a relation check yields its one list once.  A stream carries its
# closed forms from n to n+1 on the running primitives above, and its
# engine-side sequences (delta(g^n), Bh's s^n and t^n) one product at a
# time, so index n+1 costs a constant number of field operations more
# than index n.  check_paper_identity asserts normal_form(lhs) == rhs
# exactly.  Right-hand sides are assembled in normal words with
# closed-form coefficients; where a textbook display uses a non-normal
# monomial, the exact straightening scalar (a pure parameter power) is
# folded in, or the display is solved for its non-normal monomial.  The
# power-commutation displays b a^k = s^k a^k b + (tail) and their mirrors
# are rows of ORACLES, each with its own closed forms (_oracle_commute):
# H, M2, UqB2, Weyl.xky/xyk, Cyc3 and Bqf.wuk/wvk.  Outside the table:
# Bh.commute, whose left sides are powers of two-term quadratics; the
# delta(g^k) closed forms, checked against the derivation recursion;
# Bqf.wku, whose displayed sum has no closed normal form, so its right
# side is normalized once by the engine (a two-route consistency test);
# and the relation checks, where e f = s f e is checked as
# q_commutator(e, f, s), the normal form of e f - s f e, against 0.


def _rhs(p, monos):
    """The sum of the monomials (c, names), built in one payload dict:
    like words merge and zero sums drop, as in NCPoly.__add__."""
    ctx, out = p.ctx, {}
    for c, names in monos:
        w = p.word(*names)
        s = ctx.add(out[w], c.val) if w in out else c.val
        if ctx.is_zero(s):
            out.pop(w, None)
        else:
            out[w] = s
    return NCPoly.from_payloads(ctx, out)


def _tail(p, k, raised, terms):
    """The monomials (c_j, t_j r^(k - d_j)) of the terms (c_j, t_j, d_j),
    each word listing the letters t_j and the raised letters r in
    precedence order."""
    for c, t, d in terms:
        yield c, sorted([*t, *[raised] * (k - d)], key=p.precedence.index)


def _oracle_commute(*rows):
    """The lemma whose checks are the rows (b, a, raised, s[, tail]).

    A row is b a^k = s^k a^k b + sum_j c_j t_j a^(k - d_j) when the
    raised letter is a, and its mirror b^k a = s^k a b^k + sum_j c_j t_j
    b^(k - d_j) when it is b.  s(p) is the row's scalar, None meaning 1;
    rows that share s evaluate it, and its powers, once.  tail(p, s),
    given the value of s, iterates the lists of terms (c_j, t_j, d_j) for
    k = 1, 2, ... (_tail).
    """
    def stream(p):
        svals = {s: s(p) if s else p.one for s in {row[3] for row in rows}}
        spows = {s: _from1(_powers(v)) if s else repeat(v)
                 for s, v in svals.items()}
        tails = [tail[0](p, svals[s]) if tail else None
                 for _, _, _, s, *tail in rows]
        for k in count(1):
            sk = {s: next(pw) for s, pw in spows.items()}
            out = []
            for (b, a, raised, s, *_), tail in zip(rows, tails):
                bs = [b] * (k if raised == b else 1)
                as_ = [a] * (k if raised == a else 1)
                rhs = _rhs(p, chain([(sk[s], as_ + bs)], () if tail is None
                                    else _tail(p, k, raised, next(tail))))
                label = f"{b}^{k}*{a}" if raised == b else f"{b}*{a}^{k}"
                out.append((label, [(p.one, p.word(*bs, *as_))], rhs))
            yield out
    return stream


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


def _oracle_h_theta(p):
    qq = p.params["q"]
    th = theta_element(p)
    yield [(f"theta*{gname} - ({scal!r})*{gname}*theta",
            q_commutator(p, th, word_poly(p, gname), scal), NCPoly.zero())
           for gname, scal in (("x", qq), ("y", qq.inv()), ("t", p.one))]


def _bh_binomial(p, n, h2n, a, b, pre=(), post=()):
    """h^(2n) sum_k C(n, k) pre a^(2k) b^(2(n-k)) post, given h2n = h^(2n):
    s^n y_i with a, b = x1, x2 and x_j t^n with a, b = y1, y2 (the squares
    commute exactly)."""
    return _rhs(p, ((h2n * comb(n, k),
                     (*pre, *[a] * (2 * k), *[b] * (2 * (n - k)), *post))
                    for k in range(n + 1)))


def _oracle_bh_commute(p):
    h = p.params["h"]
    one = p.one
    _, s, _, t = bh_uvst(p)
    spn = tpn = NCPoly.monomial(one, ())
    for n, mh2n, h2n in zip(count(1), _from1(_powers(-(h * h))),
                            _from1(_powers(h * h))):
        scal = mh2n if (n * (n - 1) // 2) % 2 == 0 else mh2n * -one
        out = []
        for yi in ("y1", "y2"):
            lhs = [(one, p.word(yi, *["x1", "x2"] * n))]
            rhs = _rhs(p, [(scal, ["x1"] * n + ["x2"] * n + [yi])])
            out.append((f"{yi}*u^{n}", lhs, rhs))
        # s^n and t^n: the left side multiplies the engine power of the
        # two-term quadratic, one product per index; the right side is the
        # independent binomial closed form
        spn = multiply(p, spn, s)
        for yi in ("y1", "y2"):
            lhs = [(c, p.word(yi) + w) for c, w in spn.as_formal()]
            out.append((f"{yi}*s^{n}", lhs,
                        _bh_binomial(p, n, h2n, "x1", "x2", post=(yi,))))
        for xj in ("x1", "x2"):
            # x_j v = (-h^-2) v x_j, so v^n x_j = (-h^2)^n x_j v^n
            lhs = [(one, p.word(*(["y1", "y2"] * n + [xj])))]
            rhs = _rhs(p, [(scal, [xj] + ["y1"] * n + ["y2"] * n)])
            out.append((f"v^{n}*{xj}", lhs, rhs))
        tpn = multiply(p, tpn, t)
        for xj in ("x1", "x2"):
            lhs = [(c, w + p.word(xj)) for c, w in tpn.as_formal()]
            out.append((f"t^{n}*{xj}", lhs,
                        _bh_binomial(p, n, h2n, "y1", "y2", pre=(xj,))))
        yield out


def _oracle_weyl(raised):
    """Weyl.xky (raised "x") or Weyl.xyk (raised "y"), one row for each
    i = 1, ..., n: x_i^k y_i = q_i^k y_i x_i^k + [k]_{q_i} z_{i-1} x_i^(k-1),
    or x_i y_i^k the same with y_i raised, where z_{i-1} is its closed
    form 1 + sum_{j<i} (q_j - 1) y_j x_j."""
    def row(i):
        def tail(p, qi):
            qs = p.params["q_list"]
            z = [((f"y{j}", f"x{j}"), qs[j - 1] - p.one) for j in range(1, i)]
            for ck in _from1(_geom(qi)):
                yield [(ck, (), 1)] + [(ck * zj, t, 1) for t, zj in z]
        return (f"x{i}", f"y{i}", f"{raised}{i}",
                lambda p: p.params["q_list"][i - 1], tail)
    return lambda p: _oracle_commute(
        *[row(i) for i in range(1, len(p.params["q_list"]) + 1)])(p)


def _oracle_weyl_zi(p):
    qs = p.params["q_list"]
    n = len(qs)
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
    yield out


def _oracle_cyc3_e(p):
    scal = (p.params["q"] * p.params["q"]).inv()
    e_rel = q_commutator(p, cyc3_e(p), word_poly(p, "z"), scal)
    yield [("e*z - q^-2*z*e", e_rel, NCPoly.zero())]


def _bqf_delta_terms(p, g):
    """delta(g^k) for k = 1, 2, ... and the generator g = "u" or "v", as
    tail terms of the raised letter g, summed over the terms c_j t^j of f:
    delta(u^k) = sum_j [k]_{q^(j+1)} c_j v^j u^(k-1), and delta(v^k) =
    sum_j [k]_{q^-(j+1)} c_j q^(j(k-1)) v^(k-1) u^j, using u^j v^(k-1) =
    q^(j(k-1)) v^(k-1) u^j.  It is the tail of the rows w g^k =
    sigma(g)^k g^k w + delta(g^k), sigma(u) = q u, sigma(v) = q^-1 v."""
    q = p.params["q"]
    seqs = []  # ([k]_x, its cofactor, t^j) for each term c_j t^j of f
    for j, cj in enumerate(p.params["f_coeffs"]):
        if cj.is_zero():
            continue
        if g == "u":
            seqs.append((_from1(_geom(q ** (j + 1))), repeat(cj), ("v",) * j))
        else:
            seqs.append((_from1(_geom((q ** (j + 1)).inv())),
                         map(mul, repeat(cj), _powers(q ** j)), ("u",) * j))
    while True:
        yield [(next(gk) * next(ck), t, 1) for gk, ck, t in seqs]


def _oracle_bqf_delta(g):
    """delta(g^k) by the skew-derivation recursion against its closed form."""
    def stream(p):
        step, gen = _bqf_delta_step(p), p.gen(g)
        lhs = NCPoly.zero()
        for k, terms in enumerate(_bqf_delta_terms(p, g), 1):
            lhs = step(gen, (gen,) * (k - 1), lhs)
            rhs = _rhs(p, _tail(p, k, g, terms))
            yield [(f"delta({g}^{k})", lhs.as_formal(), rhs)]
    return stream


def _oracle_bqf_wku(p):
    f = [(j, cj) for j, cj in enumerate(p.params["f_coeffs"])
         if not cj.is_zero()]
    cq = []  # the (i, j, c_j q^i) for i < k and the terms c_j t^j of f
    for k, (qi, qk) in enumerate(pairwise(_powers(p.params["q"])), 1):
        cq += [(k - 1, j, cj * qi) for j, cj in f]
        formal_rhs = [(qk, p.word("u", *["w"] * k))] + [
            (c, p.word(*["w"] * (k - 1 - i), *["v"] * j, *["w"] * i))
            for i, j, c in cq]
        yield [(f"w^{k}*u", [(p.one, p.word(*["w"] * k, "u"))],
                normal_form(p, formal_rhs))]


_Oracle = namedtuple("_Oracle", "family min_n stream relation_only",
                     defaults=(False,))


ORACLES = {
    "Bh.commute": _Oracle("Bh", 1, _oracle_bh_commute),
    "H.yxn": _Oracle("Hpq", 1, _oracle_commute(("y", "x", "x", _q,
        lambda p, q: ([(c * pk, ("t",), 1)] for c, pk in zip(
            _from1(_pq_numbers(p.params["p"], q)), _powers(p.params["p"])))))),
    "H.ynx": _Oracle("Hpq", 1, _oracle_commute(("y", "x", "y", _q,
        lambda p, q: ([(c, ("t",), 1)]
                      for c in _from1(_pq_numbers(p.params["p"], q)))))),
    "H.theta_rel": _Oracle("Hpq", 1, _oracle_h_theta, relation_only=True),
    "M2.k1": _Oracle("M2", 1, _oracle_commute(("X22", "X11", "X22", None,
        lambda p, _: ([(_alpha(p).inv() * (abk - 1), ("X12", "X21"), 1)]
                      for abk in _from1(_powers(_alpha(p) * _beta(p))))))),
    "M2.k2": _Oracle("M2", 1, _oracle_commute(("X22", "X11", "X11", None,
        lambda p, _: ([(_beta(p) * (1 - abik) * abk1, ("X12", "X21"), 1)]
                      for abik, abk1 in zip(
                          _from1(_powers((_alpha(p) * _beta(p)).inv())),
                          _powers(_alpha(p) * _beta(p))))))),
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
        lambda p, q2: ([(c, ("z",), 1)] for c in _from1(_geom(q2)))))),
    "UqB2.ii": _Oracle("UqB2", 1, _oracle_commute(("e2", "e3", "e2", _q2,
        lambda p, q2: ([(c, ("z",), 1)] for c in _from1(_geom(q2)))))),
    "UqB2.iii": _Oracle("UqB2", 1, _oracle_commute(("e2", "e1", "e1", _q2i,
        lambda p, q2i: ([(-(q2i * c), ("e3",), 1)]
                        for c in _from1(_geom(q2i * q2i)))))),
    # e2^k e1 = q^-2k e1 e2^k - q^-2 B_k e3 e2^(k-1) - C_k z e2^(k-2)
    "UqB2.iv": _Oracle("UqB2", 2, _oracle_commute(("e2", "e1", "e2", _q2i,
        lambda p, q2i: ([(-(q2i * b), ("e3",), 1), (-c, ("z",), 2)]
                        for b, c in _from1(_bc(_q(p))))))),
    "Weyl.xky": _Oracle("WeylMalt", 1, _oracle_weyl("x")),
    "Weyl.xyk": _Oracle("WeylMalt", 1, _oracle_weyl("y")),
    "Weyl.zi_normal": _Oracle("WeylMalt", 1, _oracle_weyl_zi, relation_only=True),
    # i: x^a y = q^{2a} y x^a + c_a alpha x^{a-1}
    "Cyc3.i": _Oracle("ThreeCyclic", 1, _oracle_commute(("y", "x", "x", _q2i,
        lambda p, q2i: ([(-q2ia * ca * _alpha(p), (), 1)] for q2ia, ca in zip(
            _from1(_powers(q2i)), _from1(_geom(_q2(p)))))))),
    # ii: y^a x = q^{-2a} x y^a - q^{-2} d_a alpha y^{a-1}
    "Cyc3.ii": _Oracle("ThreeCyclic", 1, _oracle_commute(("y", "x", "y", _q2i,
        lambda p, q2i: ([(-(q2i * da * _alpha(p)), (), 1)]
                        for da in _from1(_geom(q2i)))))),
    # iii: x^a z = q^{-2a} z x^a + d_a beta x^{a-1}
    "Cyc3.iii": _Oracle("ThreeCyclic", 1, _oracle_commute(("z", "x", "x", _q2,
        lambda p, q2: ([(-q2a * da * _beta(p), (), 1)] for q2a, da in zip(
            _from1(_powers(q2)), _from1(_geom(_q2i(p)))))))),
    # iv: z^a x = q^{2a} x z^a - q^2 c_a beta z^{a-1}
    "Cyc3.iv": _Oracle("ThreeCyclic", 1, _oracle_commute(("z", "x", "z", _q2,
        lambda p, q2: ([(-(q2 * ca * _beta(p)), (), 1)]
                       for ca in _from1(_geom(q2)))))),
    # v: y^a z = q^{2a} z y^a + c_a gamma y^{a-1}
    "Cyc3.v": _Oracle("ThreeCyclic", 1, _oracle_commute(("z", "y", "y", _q2i,
        lambda p, q2i: ([(-q2ia * ca * _gamma(p), (), 1)] for q2ia, ca in zip(
            _from1(_powers(q2i)), _from1(_geom(_q2(p)))))))),
    # vi: z^a y = q^{-2a} y z^a - q^{-2} d_a gamma z^{a-1}
    "Cyc3.vi": _Oracle("ThreeCyclic", 1, _oracle_commute(("z", "y", "z", _q2i,
        lambda p, q2i: ([(-(q2i * da * _gamma(p)), (), 1)]
                        for da in _from1(_geom(q2i)))))),
    "Cyc3.e_rel": _Oracle("ThreeCyclic", 1, _oracle_cyc3_e, relation_only=True),
    "Bqf.delta_uk": _Oracle("Bqf", 1, _oracle_bqf_delta("u")),
    "Bqf.delta_vk": _Oracle("Bqf", 1, _oracle_bqf_delta("v")),
    "Bqf.wuk": _Oracle("Bqf", 1, _oracle_commute(("w", "u", "u", _q,
        lambda p, _: _bqf_delta_terms(p, "u")))),
    "Bqf.wvk": _Oracle("Bqf", 1, _oracle_commute(("w", "v", "v", _qi,
        lambda p, _: _bqf_delta_terms(p, "v")))),
    "Bqf.wku": _Oracle("Bqf", 1, _oracle_bqf_wku),
}

LEMMA_IDS = tuple(sorted(ORACLES))


def _lemma(lemma_id, p):
    info = ORACLES.get(lemma_id)
    if info is None:
        raise FamilyMismatch(f"unknown lemma id {lemma_id!r}; known: "
                             + ", ".join(LEMMA_IDS))
    _values(p, info.family,
            f"{lemma_id} lives in family {info.family}, got {p.family}")
    return info


def oracle_rhs(lemma_id, p, n):
    """(label, lhs, rhs NCPoly) checks for one index: the lemma's stream
    read up to n."""
    info = _lemma(lemma_id, p)
    if n < info.min_n:
        raise LemmaRangeError(f"{lemma_id} needs n >= {info.min_n}")
    return _nth(info.stream(p), 0 if info.relation_only else n - 1)


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
    """Walk the lemma's stream for every index up to n_max against the
    engine; a residual normal_form(lhs) - rhs is formed only for a check
    that fails."""
    info = _lemma(lemma_id, p)
    if n_max < info.min_n:
        raise LemmaRangeError(f"{lemma_id} needs n_max >= {info.min_n}")
    last = 1 if info.relation_only else n_max
    checks = []
    with product_memo():
        for n, batch in zip(range(1, last + 1), info.stream(p)):
            if n < info.min_n:
                continue
            for label, lhs, rhs in batch:
                nf = normal_form(p, lhs)
                ok = nf == rhs
                residual = NCPoly.from_payloads(p.ctx, {}) if ok else nf - rhs
                checks.append(IdentityCheck(lemma_id, n, label, ok, residual))
    return IdentityReport(lemma_id, checks)


# ---------------------------------------------------------------------------
# bi-quadratic instance generation for the confluence property
# ---------------------------------------------------------------------------


def biquad3_consistent_instance(ctx, rng, root_order=12):
    """Random 3-generator bi-quadratic instance satisfying all ten conditions.

    The conditions are triangular in the tails once the forced-zero
    entries are set (lambda = 0 when q1 q2 != 1, beta = 0 when q1 != q3,
    c = 0 when q2 q3 != 1): C1, C2, C3 are linear in mu, nu, gamma, one
    unknown each, and then C7, C8, C9 in b3, b2, b1.  Each unknown is
    read off its condition (``presentations.biquad3_conditions``): the
    value at 0 over the difference of the values at 0 and 1.
    Requires a context containing primitive root_order-th roots of unity.
    """
    from .presentations import biquad3_conditions, spec_biquad3
    zeta = ctx.root_of_unity(root_order)
    while True:
        e1, e2, e3 = (rng.randrange(1, root_order) for _ in range(3))
        q1, q2, q3 = zeta ** e1, zeta ** e2, zeta ** e3
        ok = not any(v.is_one() for v in (q1, q2, q3, q1 * q2, q2 * q3))
        if ok and q1 != q3:
            break
    zero, one = ctx.zero(), ctx.one()
    a, b, al = (ctx.from_int(rng.randrange(-3, 4)) for _ in range(3))
    tails = [[a, b, zero], [al, zero, zero], [zero, zero, zero]]
    consts = [zero, zero, zero]
    for unknowns in ((("C1", tails[2], 1), ("C2", tails[2], 2),
                      ("C3", tails[1], 2)),
                     (("C7", consts, 2), ("C8", consts, 1),
                      ("C9", consts, 0))):
        at = []
        for v in (zero, one):
            for _, row, i in unknowns:
                row[i] = v
            spec = spec_biquad3(ctx, (q1, q2, q3), tails, consts)
            at.append(dict(biquad3_conditions(spec)))
        for name, row, i in unknowns:
            row[i] = at[0][name] / (at[0][name] - at[1][name])
    return spec_biquad3(ctx, (q1, q2, q3), tails, consts)


def biquad3_violating_instance(ctx, rng, root_order=12):
    """Perturb a consistent instance so at least one condition fails."""
    from .presentations import biquad3_conditions, spec_biquad3
    spec = biquad3_consistent_instance(ctx, rng, root_order=root_order)
    (a, b, c), (al, be, ga), (la, mu, nu) = spec.params["tails"]
    b1, b2, b3 = spec.params["consts"]
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
    out = spec_biquad3(ctx, spec.params["q_list"],
                       ((a, b, c), (al, be, ga), (la, mu, nu)), (b1, b2, b3))
    assert any(not v.is_zero() for _, v in biquad3_conditions(out))
    return out
