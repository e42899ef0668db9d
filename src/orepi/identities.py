"""q-calculus and the identity corpus.

The first half holds the scalar combinatorics: q-numbers, (p,q)-numbers,
q-factorials, Gaussian binomials, and the auxiliary sequences (B_k, C_k,
c_a, d_a, S_k) that appear in the straightening identities of the
supported families.  Everything is computed from sums and recurrences,
never from the fraction closed forms, so root-of-unity and q = 1
evaluations are always defined.  Each sequence is a running primitive
that yields its items for k = 0, 1, 2, ... from its recurrence, written
once, on bare payloads of a field ctx with ctx's own operations; the
k-indexed functions take and return Coeff values and read the primitive's
k-th item.

The second half turns each displayed straightening identity into an
executable check: an oracle is a stream over the index n that carries
its closed forms from n to n+1 on payloads, and check_paper_identity
walks it, pitting the rewrite engine against each index up to a bound.
"""

from collections import namedtuple
from itertools import accumulate, chain, count, islice, pairwise, repeat
from math import comb

from .errors import (FamilyMismatch, LemmaRangeError, ParametersRequired,
                     PreconditionViolation, QFactorialVanishes, ZeroInput)
from .fields import Coeff
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


def _inv(ctx, x):
    """The payload 1/x, with Coeff.inv's DivisionByZero when x is zero;
    only setup constants, computed once per stream, are inverted."""
    return Coeff(ctx, x).inv().val


def _powers(ctx, x):
    """x^k: x^0 = 1, x^(k+1) = x^k x."""
    return accumulate(repeat(x), ctx.mul, initial=ctx.embed(1))


def _geom(ctx, x):
    """[k]_x = 1 + x + ... + x^(k-1): [0] = 0, [k+1] = [k] + x^k."""
    return accumulate(_powers(ctx, x), ctx.add, initial=ctx.embed(0))


def _pq_numbers(ctx, p, q):
    """[n]_{p,q}: [0] = 0, [n+1] = q^n + p^-1 [n]."""
    if ctx.is_zero(p):
        raise ZeroInput("p must be nonzero")
    pi, add, mul = _inv(ctx, p), ctx.add, ctx.mul
    return accumulate(_powers(ctx, q), lambda pqn, qn: add(qn, mul(pi, pqn)),
                      initial=ctx.embed(0))


def _bc(ctx, q):
    """(B_k, C_k): B_0 = C_0 = 0, B_{k+1} = q^2 B_k + q^(-2k) and
    C_{k+1} = q^(-2) B_k + C_k, so B_1 = 1 and C_1 = 0."""
    add, mul = ctx.add, ctx.mul
    q2, zero = mul(q, q), ctx.embed(0)
    q2i = _inv(ctx, q2)
    return accumulate(_powers(ctx, q2i),
                      lambda bc, q2ik: (add(mul(q2, bc[0]), q2ik),
                                        add(mul(q2i, bc[0]), bc[1])),
                      initial=(zero, zero))


def _from1(seq):
    return islice(seq, 1, None)


def _nth(seq, k):
    """Item k of seq; a negative k is a LemmaRangeError."""
    if k < 0:
        raise LemmaRangeError(f"need an index >= 0, got {k}")
    return next(islice(seq, k, None))


def q_number(k, q):
    """[k]_q = 1 + q + ... + q^(k-1); the empty sum for k = 0."""
    return Coeff(q.ctx, _nth(_geom(q.ctx, q.val), k))


def pq_number(n, p, q):
    """[n]_{p,q} = sum_{i<n} q^i p^-(n-1-i); defined even at q = p^-1.

    This is the factored form of (q^n - p^-n)/(q - p^-1): it gives
    [1] = 1 and is the n-th item of the recurrence _pq_numbers.
    """
    ctx = q.ctx
    return Coeff(ctx, _nth(_pq_numbers(ctx, q._coerce(p).val, q.val), n))


def q_factorial(k, q):
    """[k]_q! = [1]_q [2]_q ... [k]_q; the empty product for k = 0."""
    ctx = q.ctx
    return Coeff(ctx, _nth(accumulate(_from1(_geom(ctx, q.val)), ctx.mul,
                                      initial=ctx.embed(1)), k))


def gauss_binomial(k, i, q):
    if not 0 <= i <= k:
        raise LemmaRangeError("need 0 <= i <= k")
    den = q_factorial(i, q) * q_factorial(k - i, q)
    if den.is_zero():
        raise QFactorialVanishes(f"[{i}]_q! [{k - i}]_q! = 0")
    return q_factorial(k, q) / den


def b_coeff(k, q):
    """B_k, the k-th item of _bc: B_1 = 1."""
    return Coeff(q.ctx, _nth(_bc(q.ctx, q.val), k)[0])


def c_coeff(k, q):
    """C_k, the k-th item of _bc: C_1 = 0."""
    return Coeff(q.ctx, _nth(_bc(q.ctx, q.val), k)[1])


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
    """e = xz - q^2 beta / (q^2 - 1) in the 3-cyclic family; q^2 = 1 is
    the PreconditionViolation the PI decider reports."""
    v = _values(p, "ThreeCyclic", "e lives in the 3-cyclic family")
    q, be = v["q"], v["beta"]
    q2 = q * q
    if q2 == p.one:
        raise PreconditionViolation("q^2 = 1 is excluded")
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
# checks (label, lhs, rhs) at n, lhs and rhs NCPolys; a relation check
# yields its one list once.  A stream computes on bare payloads of p's
# field: it carries its closed forms from n to n+1 on the running
# primitives above, and its engine-side sequences (delta(g^n), Bh's s^n
# and t^n) one product at a time, so index n+1 costs a constant number of
# field operations more than index n.  Its words are built from letter
# tuples made once per stream, each run of a raised letter longer by one
# letter per index.  check_paper_identity asserts normal_form(lhs) == rhs
# exactly.  Right-hand sides are assembled in normal words with
# closed-form coefficients, each in one payload dict (_rhs); where a
# textbook display uses a non-normal monomial, the exact straightening
# scalar (a pure parameter power) is folded in, or the display is solved
# for its non-normal monomial.  The power-commutation displays b a^k =
# s^k a^k b + (tail) and their mirrors are rows of ORACLES, each with its
# own closed forms (_oracle_commute): H, M2, UqB2, Weyl.xky/xyk, Cyc3 and
# Bqf.wuk/wvk.  Outside the table: Bh.commute, whose left sides are
# powers of two-term quadratics; the delta(g^k) closed forms, checked
# against the derivation recursion; Bqf.wku, whose displayed sum has no
# closed normal form, so its right side is normalized once by the engine
# (a two-route consistency test); and the relation checks, where e f =
# s f e is checked as q_commutator(e, f, s), the normal form of e f - s f
# e, against 0.


def _val(p, name):
    """The payload of p's parameter name."""
    return p.params[name].val


def _rhs(p, terms):
    """The sum of the (word, payload) terms, built in one payload dict:
    like words merge and zero sums drop, as in NCPoly.__add__."""
    add, _, is_zero = p.field_ops
    out = {}
    for w, c in terms:
        s = add(out[w], c) if w in out else c
        if is_zero(s):
            out.pop(w, None)
        else:
            out[w] = s
    return NCPoly.from_payloads(p.ctx, out)


def _monomial(p, word):
    return NCPoly.from_payloads(p.ctx, {word: p.one.val})


def _tail_words(p, raised, terms):
    """For the tail terms (t_j, d_j) of the raised letter r: (before_j,
    d_j, after_j), the letters of t_j up to r and those past it in
    precedence order, so that before_j + r^(k - d_j) + after_j lists the
    letters of t_j r^(k - d_j) in precedence order."""
    rank = p.precedence.index
    r = rank(raised)
    out = []
    for t, d in terms:
        t = sorted(t, key=rank)
        out.append((p.word(*(g for g in t if rank(g) <= r)), d,
                    p.word(*(g for g in t if rank(g) > r))))
    return out


def _tail_terms(words, run, coeffs):
    """The (word, payload) tail terms at the index k = len(run), run the
    raised letter k times: before_j r^(k - d_j) after_j with its c_j."""
    return ((before + run[d:] + after, c)
            for (before, d, after), c in zip(words, coeffs))


def _each(t, coeffs):
    """The tail of one term c_k t r^(k-1), c_k the items of coeffs."""
    return [(t, 1)], zip(coeffs)


def _oracle_commute(*rows):
    """The lemma whose checks are the rows (b, a, raised, s[, tail]).

    A row is b a^k = s^k a^k b + sum_j c_j t_j a^(k - d_j) when the
    raised letter is a, and its mirror b^k a = s^k a b^k + sum_j c_j t_j
    b^(k - d_j) when it is b.  s(p) is the payload of the row's scalar,
    None meaning 1; rows that share s evaluate it, and its powers, once.
    tail(p, s), given the payload of s, is (terms, coeffs): the terms
    (t_j, d_j) and an iterator over k = 1, 2, ... of the tuples of their
    payloads c_j.
    """
    def stream(p):
        one = p.one.val
        svals = {s: s(p) if s else one for s in {row[3] for row in rows}}
        spows = {s: _from1(_powers(p.ctx, v)) if s else repeat(v)
                 for s, v in svals.items()}
        prepared = []
        for b, a, raised, s, *tail in rows:
            terms, coeffs = tail[0](p, svals[s]) if tail else ((), repeat(()))
            prepared.append((b, a, raised == b, p.gen(b), p.gen(a),
                             p.gen(raised), s,
                             _tail_words(p, raised, terms), coeffs))
        runs = [()] * len(prepared)
        for k in count(1):
            sk = {s: next(pw) for s, pw in spows.items()}
            out = []
            for i, (b, a, mirror, bg, ag, rg, s, words, coeffs) in \
                    enumerate(prepared):
                run = runs[i] = runs[i] + (rg,)
                if mirror:
                    label, lhs, lead = f"{b}^{k}*{a}", run + (ag,), (ag,) + run
                else:
                    label, lhs, lead = f"{b}*{a}^{k}", (bg,) + run, run + (bg,)
                rhs = _rhs(p, chain([(lead, sk[s])],
                                    _tail_terms(words, run, next(coeffs))))
                out.append((label, _monomial(p, lhs), rhs))
            yield out
    return stream


def _q(p):
    return _val(p, "q")


def _qi(p):
    return _inv(p.ctx, _q(p))


def _q2(p):
    return p.ctx.mul(_q(p), _q(p))


def _q2i(p):
    return _inv(p.ctx, _q2(p))


def _alpha(p):
    return _val(p, "alpha")


def _beta(p):
    return _val(p, "beta")


def _beta_alpha(p):
    return p.ctx.mul(_beta(p), _inv(p.ctx, _alpha(p)))


def _h_yxn_tail(p, q):
    """[k]_{p,q} p^(k-1) t x^(k-1)."""
    ctx, pv = p.ctx, _val(p, "p")
    return _each(("t",), map(ctx.mul, _from1(_pq_numbers(ctx, pv, q)),
                             _powers(ctx, pv)))


def _h_ynx_tail(p, q):
    """[k]_{p,q} t y^(k-1)."""
    return _each(("t",), _from1(_pq_numbers(p.ctx, _val(p, "p"), q)))


def _m2_k1_tail(p, _):
    """alpha^-1 ((alpha beta)^k - 1) X12 X21 X22^(k-1)."""
    ctx = p.ctx
    mul, sub, one = ctx.mul, ctx.sub, ctx.embed(1)
    ai = _inv(ctx, _alpha(p))
    return _each(("X12", "X21"), (
        mul(ai, sub(abk, one))
        for abk in _from1(_powers(ctx, mul(_alpha(p), _beta(p))))))


def _m2_k2_tail(p, _):
    """beta (1 - (alpha beta)^-k) (alpha beta)^(k-1) X12 X21 X11^(k-1)."""
    ctx = p.ctx
    mul, sub, one = ctx.mul, ctx.sub, ctx.embed(1)
    beta = _beta(p)
    abi = _inv(ctx, mul(_alpha(p), beta))
    return _each(("X12", "X21"), (
        mul(mul(beta, sub(one, abik)), abk1) for abik, abk1 in zip(
            _from1(_powers(ctx, abi)), _powers(ctx, mul(_alpha(p), beta)))))


def _uqb2_z_tail(p, q2):
    """[k]_{q^2} z r^(k-1): UqB2.i and UqB2.ii."""
    return _each(("z",), _from1(_geom(p.ctx, q2)))


def _uqb2_iii_tail(p, q2i):
    """-q^-2 [k]_{q^-4} e3 e1^(k-1)."""
    ctx = p.ctx
    mul, neg = ctx.mul, ctx.neg
    return _each(("e3",), (neg(mul(q2i, c))
                           for c in _from1(_geom(ctx, mul(q2i, q2i)))))


def _uqb2_iv_tail(p, q2i):
    """-q^-2 B_k e3 e2^(k-1) - C_k z e2^(k-2)."""
    ctx = p.ctx
    mul, neg = ctx.mul, ctx.neg
    return [(("e3",), 1), (("z",), 2)], (
        (neg(mul(q2i, b)), neg(c)) for b, c in _from1(_bc(ctx, _q(p))))


def _cyc3_tail(name, geom_base=None):
    """A Cyc3 tail c_a r^(a-1), for v the value of the parameter name and
    s the row's scalar: c_a = -s^a [a]_g v with g = geom_base(p), or
    -(s [a]_s v) when geom_base is None."""
    def tail(p, s):
        ctx, v = p.ctx, _val(p, name)
        mul, neg = ctx.mul, ctx.neg
        if geom_base is None:
            return _each((), (neg(mul(mul(s, c), v))
                              for c in _from1(_geom(ctx, s))))
        return _each((), (mul(mul(neg(sa), c), v) for sa, c in zip(
            _from1(_powers(ctx, s)), _from1(_geom(ctx, geom_base(p))))))
    return tail


def _oracle_h_theta(p):
    qq = p.params["q"]
    th = theta_element(p)
    yield [(f"theta*{gname} - ({scal!r})*{gname}*theta",
            q_commutator(p, th, word_poly(p, gname), scal), NCPoly.zero())
           for gname, scal in (("x", qq), ("y", qq.inv()), ("t", p.one))]


def _bh_binomial(p, n, h2n, a, b, pre=(), post=()):
    """h^(2n) sum_k C(n, k) pre a^(2k) b^(2(n-k)) post, given h2n = h^(2n):
    s^n y_i with a, b = x1, x2 and x_j t^n with a, b = y1, y2 (the squares
    commute exactly).  a, b are letters, pre and post words."""
    ctx = p.ctx
    return _rhs(p, ((pre + (a,) * (2 * k) + (b,) * (2 * (n - k)) + post,
                     ctx.mul(h2n, ctx.embed(comb(n, k))))
                    for k in range(n + 1)))


def _oracle_bh_commute(p):
    ctx = p.ctx
    mul = ctx.mul
    h = _val(p, "h")
    mone = ctx.neg(p.one.val)
    _, s, _, t = bh_uvst(p)
    x1, x2, y1, y2 = p.word("x1", "x2", "y1", "y2")
    spn = tpn = NCPoly.monomial(p.one, ())
    un = vn = x1n = x2n = y1n = y2n = ()
    for n, mh2n, h2n in zip(count(1), _from1(_powers(ctx, ctx.neg(mul(h, h)))),
                            _from1(_powers(ctx, mul(h, h)))):
        scal = mh2n if (n * (n - 1) // 2) % 2 == 0 else mul(mh2n, mone)
        un, vn = un + (x1, x2), vn + (y1, y2)
        x1n, x2n, y1n, y2n = x1n + (x1,), x2n + (x2,), y1n + (y1,), y2n + (y2,)
        out = []
        for yi, name in ((y1, "y1"), (y2, "y2")):
            out.append((f"{name}*u^{n}", _monomial(p, (yi,) + un),
                        _rhs(p, [(x1n + x2n + (yi,), scal)])))
        # s^n and t^n: the left side multiplies the engine power of the
        # two-term quadratic, one product per index; the right side is the
        # independent binomial closed form
        spn = multiply(p, spn, s)
        for yi, name in ((y1, "y1"), (y2, "y2")):
            lhs = NCPoly.from_payloads(ctx, {(yi,) + w: c
                                             for w, c in spn.vals.items()})
            out.append((f"{name}*s^{n}", lhs,
                        _bh_binomial(p, n, h2n, x1, x2, post=(yi,))))
        for xj, name in ((x1, "x1"), (x2, "x2")):
            # x_j v = (-h^-2) v x_j, so v^n x_j = (-h^2)^n x_j v^n
            out.append((f"v^{n}*{name}", _monomial(p, vn + (xj,)),
                        _rhs(p, [((xj,) + y1n + y2n, scal)])))
        tpn = multiply(p, tpn, t)
        for xj, name in ((x1, "x1"), (x2, "x2")):
            lhs = NCPoly.from_payloads(ctx, {w + (xj,): c
                                             for w, c in tpn.vals.items()})
            out.append((f"t^{n}*{name}", lhs,
                        _bh_binomial(p, n, h2n, y1, y2, pre=(xj,))))
        yield out


def _oracle_weyl(raised):
    """Weyl.xky (raised "x") or Weyl.xyk (raised "y"), one row for each
    i = 1, ..., n: x_i^k y_i = q_i^k y_i x_i^k + [k]_{q_i} z_{i-1} x_i^(k-1),
    or x_i y_i^k the same with y_i raised, where z_{i-1} is its closed
    form 1 + sum_{j<i} (q_j - 1) y_j x_j."""
    def row(i):
        def tail(p, qi):
            ctx = p.ctx
            mul = ctx.mul
            qs = p.params["q_list"]
            z = [ctx.sub(qs[j - 1].val, p.one.val) for j in range(1, i)]
            return ([((), 1)] + [((f"y{j}", f"x{j}"), 1) for j in range(1, i)],
                    ((ck, *[mul(ck, zj) for zj in z])
                     for ck in _from1(_geom(ctx, qi))))
        return (f"x{i}", f"y{i}", f"{raised}{i}",
                lambda p: p.params["q_list"][i - 1].val, tail)
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
    the tail (terms, coeffs) of the raised letter g, one term for each
    term c_j t^j of f: delta(u^k) = sum_j [k]_{q^(j+1)} c_j v^j u^(k-1),
    and delta(v^k) = sum_j [k]_{q^-(j+1)} c_j q^(j(k-1)) v^(k-1) u^j,
    using u^j v^(k-1) = q^(j(k-1)) v^(k-1) u^j.  It is the tail of the
    rows w g^k = sigma(g)^k g^k w + delta(g^k), sigma(u) = q u, sigma(v) =
    q^-1 v."""
    ctx, q = p.ctx, p.params["q"]
    mul = ctx.mul
    terms, seqs = [], []  # ([k]_x, its cofactor) for each term c_j t^j of f
    for j, cj in enumerate(p.params["f_coeffs"]):
        if cj.is_zero():
            continue
        if g == "u":
            terms.append((("v",) * j, 1))
            seqs.append((_from1(_geom(ctx, (q ** (j + 1)).val)),
                         repeat(cj.val)))
        else:
            terms.append((("u",) * j, 1))
            seqs.append((_from1(_geom(ctx, (q ** (j + 1)).inv().val)),
                         map(mul, repeat(cj.val), _powers(ctx, (q ** j).val))))
    # f = 0 has no terms: every delta(g^k) is zero, an empty tail at each k
    its = [map(mul, gk, ck) for gk, ck in seqs]
    return terms, zip(*its) if its else repeat(())


def _oracle_bqf_delta(g):
    """delta(g^k) by the skew-derivation recursion against its closed form."""
    def stream(p):
        step, gen = _bqf_delta_step(p), p.gen(g)
        terms, coeffs = _bqf_delta_terms(p, g)
        words = _tail_words(p, g, terms)
        lhs, run = NCPoly.zero(), ()
        for k, cs in enumerate(coeffs, 1):
            lhs = step(gen, run, lhs)
            run += (gen,)
            yield [(f"delta({g}^{k})", lhs,
                    _rhs(p, _tail_terms(words, run, cs)))]
    return stream


def _oracle_bqf_wku(p):
    ctx = p.ctx
    mul = ctx.mul
    f = [(j, cj.val) for j, cj in enumerate(p.params["f_coeffs"])
         if not cj.is_zero()]
    u, v, w = p.word("u", "v", "w")
    cq = []  # the (i, j, c_j q^i) for i < k and the terms c_j t^j of f
    wk = ()
    for k, (qi, qk) in enumerate(pairwise(_powers(ctx, _q(p))), 1):
        cq += [(k - 1, j, mul(cj, qi)) for j, cj in f]
        wk += (w,)
        display = _rhs(p, chain([((u,) + wk, qk)], (
            ((w,) * (k - 1 - i) + (v,) * j + (w,) * i, c) for i, j, c in cq)))
        yield [(f"w^{k}*u", _monomial(p, wk + (u,)), normal_form(p, display))]


_Oracle = namedtuple("_Oracle", "family min_n stream relation_only",
                     defaults=(False,))


ORACLES = {
    "Bh.commute": _Oracle("Bh", 1, _oracle_bh_commute),
    "H.yxn": _Oracle("Hpq", 1, _oracle_commute(("y", "x", "x", _q,
                                                _h_yxn_tail))),
    "H.ynx": _Oracle("Hpq", 1, _oracle_commute(("y", "x", "y", _q,
                                                _h_ynx_tail))),
    "H.theta_rel": _Oracle("Hpq", 1, _oracle_h_theta, relation_only=True),
    "M2.k1": _Oracle("M2", 1, _oracle_commute(("X22", "X11", "X22", None,
                                               _m2_k1_tail))),
    "M2.k2": _Oracle("M2", 1, _oracle_commute(("X22", "X11", "X11", None,
                                               _m2_k2_tail))),
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
                                                  _uqb2_z_tail))),
    "UqB2.ii": _Oracle("UqB2", 1, _oracle_commute(("e2", "e3", "e2", _q2,
                                                   _uqb2_z_tail))),
    "UqB2.iii": _Oracle("UqB2", 1, _oracle_commute(("e2", "e1", "e1", _q2i,
                                                    _uqb2_iii_tail))),
    # e2^k e1 = q^-2k e1 e2^k - q^-2 B_k e3 e2^(k-1) - C_k z e2^(k-2)
    "UqB2.iv": _Oracle("UqB2", 2, _oracle_commute(("e2", "e1", "e2", _q2i,
                                                   _uqb2_iv_tail))),
    "Weyl.xky": _Oracle("WeylMalt", 1, _oracle_weyl("x")),
    "Weyl.xyk": _Oracle("WeylMalt", 1, _oracle_weyl("y")),
    "Weyl.zi_normal": _Oracle("WeylMalt", 1, _oracle_weyl_zi, relation_only=True),
    # i: x^a y = q^{2a} y x^a + c_a alpha x^{a-1}
    "Cyc3.i": _Oracle("ThreeCyclic", 1, _oracle_commute(("y", "x", "x", _q2i,
        _cyc3_tail("alpha", _q2)))),
    # ii: y^a x = q^{-2a} x y^a - q^{-2} d_a alpha y^{a-1}
    "Cyc3.ii": _Oracle("ThreeCyclic", 1, _oracle_commute(("y", "x", "y", _q2i,
        _cyc3_tail("alpha")))),
    # iii: x^a z = q^{-2a} z x^a + d_a beta x^{a-1}
    "Cyc3.iii": _Oracle("ThreeCyclic", 1, _oracle_commute(("z", "x", "x", _q2,
        _cyc3_tail("beta", _q2i)))),
    # iv: z^a x = q^{2a} x z^a - q^2 c_a beta z^{a-1}
    "Cyc3.iv": _Oracle("ThreeCyclic", 1, _oracle_commute(("z", "x", "z", _q2,
        _cyc3_tail("beta")))),
    # v: y^a z = q^{2a} z y^a + c_a gamma y^{a-1}
    "Cyc3.v": _Oracle("ThreeCyclic", 1, _oracle_commute(("z", "y", "y", _q2i,
        _cyc3_tail("gamma", _q2)))),
    # vi: z^a y = q^{-2a} y z^a - q^{-2} d_a gamma z^{a-1}
    "Cyc3.vi": _Oracle("ThreeCyclic", 1, _oracle_commute(("z", "y", "z", _q2i,
        _cyc3_tail("gamma")))),
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
    """(label, lhs, rhs) checks for one index, lhs and rhs NCPolys: the
    lemma's stream read up to n."""
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
