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

from math import comb

from .errors import FamilyMismatch, LemmaRangeError, QFactorialVanishes, ZeroInput
from .rewrite import NCPoly, multiply, normal_form, product_memo

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
    """z_i = x_i y_i - y_i x_i (normal form); z_0 = 1."""
    if p.family != "WeylMalt":
        raise FamilyMismatch("z_i is defined for the Maltsiniotis family")
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
    f = p.params["f"]
    v, u = p.gen("v"), p.gen("u")
    one = p.ctx.one()

    def f_poly(g):
        return NCPoly({(g,) * j: cj for j, cj in enumerate(f) if not cj.is_zero()})

    sigma_scalar = {u: q, v: q.inv()}
    delta_gen = {u: f_poly(v), v: f_poly(u)}

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
    part2 = multiply(p, delta_gen[g], NCPoly.monomial(one, rest))
    return part1 + part2


# ---------------------------------------------------------------------------
# the oracle corpus
# ---------------------------------------------------------------------------
# Every entry returns a list of (label, lhs formal polynomial, rhs NCPoly)
# for the given index n; check_paper_identity asserts
# normal_form(lhs) == rhs exactly.  Right-hand sides are assembled in
# normal words with closed-form coefficients; where a textbook display
# uses a non-normal monomial, the exact straightening scalar (a pure
# parameter power) is folded in, or the display is solved for its
# non-normal monomial.  The one exception is Bqf.wku, whose displayed
# sum has no closed normal form; its right side is normalized once by
# the engine, making that check a two-route engine consistency test.


def _one(p):
    return p.ctx.one()


def _mono(p, coeff, *names):
    return NCPoly.monomial(coeff, p.word(*names))


def _oracle_h_yxn(p, n):
    pp, qq = p.params["p"], p.params["q"]
    lhs = [(_one(p), p.word("y", *["x"] * n))]
    rhs = _mono(p, qq ** n, *(["x"] * n + ["y"])) + \
        _mono(p, pq_number(n, pp, qq) * pp ** (n - 1), *(["t"] + ["x"] * (n - 1)))
    return [(f"y*x^{n}", lhs, rhs)]


def _oracle_h_ynx(p, n):
    pp, qq = p.params["p"], p.params["q"]
    lhs = [(_one(p), p.word(*(["y"] * n + ["x"])))]
    rhs = _mono(p, qq ** n, *(["x"] + ["y"] * n)) + \
        _mono(p, pq_number(n, pp, qq), *(["t"] + ["y"] * (n - 1)))
    return [(f"y^{n}*x", lhs, rhs)]


def _oracle_h_theta(p, n):
    qq = p.params["q"]
    th = theta_element(p)
    out = []
    for gname, scal in (("x", qq), ("y", qq.inv()), ("t", _one(p))):
        g = p.word(gname)
        lhs = [(c, w + g) for w, c in th.terms.items()]
        lhs += [(-(scal * c), g + w) for w, c in th.terms.items()]
        out.append((f"theta*{gname} - ({scal!r})*{gname}*theta", lhs, NCPoly.zero()))
    return out


def _oracle_bh_commute(p, n):
    h = p.params["h"]
    one = _one(p)
    sign = one if (n * (n - 1) // 2) % 2 == 0 else -one
    mh2 = -(h * h)
    out = []
    for yi in ("y1", "y2"):
        lhs = [(one, p.word(yi, *["x1", "x2"] * n))]
        rhs = _mono(p, (mh2 ** n) * sign, *(["x1"] * n + ["x2"] * n + [yi]))
        out.append((f"{yi}*u^{n}", lhs, rhs))
    # s^n and t^n: the left side multiplies the engine power of the
    # two-term quadratic; the right side is the independent binomial
    # closed form (the even squares commute exactly)
    s_pow = NCPoly({p.word("x1", "x1"): one, p.word("x2", "x2"): one})
    spn = NCPoly.monomial(one, ())
    for _ in range(n):
        spn = multiply(p, spn, s_pow)
    for yi in ("y1", "y2"):
        lhs = [(c, p.word(yi) + w) for w, c in spn.terms.items()]
        rhs = NCPoly.zero()
        for k in range(n + 1):
            rhs = rhs + _mono(p, (h ** (2 * n)) * comb(n, k),
                              *(["x1"] * (2 * k) + ["x2"] * (2 * (n - k)) + [yi]))
        out.append((f"{yi}*s^{n}", lhs, rhs))
    for xj in ("x1", "x2"):
        # x_j v = (-h^-2) v x_j, so v^n x_j = (-h^2)^n x_j v^n
        lhs = [(one, p.word(*(["y1", "y2"] * n + [xj])))]
        rhs = _mono(p, (mh2 ** n) * sign, *([xj] + ["y1"] * n + ["y2"] * n))
        out.append((f"v^{n}*{xj}", lhs, rhs))
    t_pow = NCPoly({p.word("y1", "y1"): one, p.word("y2", "y2"): one})
    tpn = NCPoly.monomial(one, ())
    for _ in range(n):
        tpn = multiply(p, tpn, t_pow)
    for xj in ("x1", "x2"):
        lhs = [(c, w + p.word(xj)) for w, c in tpn.terms.items()]
        rhs = NCPoly.zero()
        for k in range(n + 1):
            rhs = rhs + _mono(p, (h ** (2 * n)) * comb(n, k),
                              *([xj] + ["y1"] * (2 * k) + ["y2"] * (2 * (n - k))))
        out.append((f"t^{n}*{xj}", lhs, rhs))
    return out


def _oracle_m2_k1(p, k):
    a, b = p.params["alpha"], p.params["beta"]
    lhs = [(_one(p), p.word(*(["X22"] * k + ["X11"])))]
    coeff = a.inv() * ((a * b) ** k - 1)
    rhs = _mono(p, _one(p), *(["X11"] + ["X22"] * k)) + \
        _mono(p, coeff, *(["X12", "X21"] + ["X22"] * (k - 1)))
    return [(f"X22^{k}*X11", lhs, rhs)]


def _oracle_m2_k2(p, k):
    a, b = p.params["alpha"], p.params["beta"]
    lhs = [(_one(p), p.word(*(["X22"] + ["X11"] * k)))]
    coeff = b * (1 - (a * b) ** (-k)) * (a * b) ** (k - 1)
    rhs = _mono(p, _one(p), *(["X11"] * k + ["X22"])) + \
        _mono(p, coeff, *(["X11"] * (k - 1) + ["X12", "X21"]))
    return [(f"X22*X11^{k}", lhs, rhs)]


def _oracle_m2_power_table(p, m):
    a, b = p.params["alpha"], p.params["beta"]
    one = _one(p)
    ai, bi = a.inv(), b.inv()
    # (label, lhs word, straightening scalar, rhs word)
    rows = [
        ("X12^m*X11", ["X12"] * m + ["X11"], a ** m, ["X11"] + ["X12"] * m),
        ("X22*X12^m", ["X22"] + ["X12"] * m, b ** m, ["X12"] * m + ["X22"]),
        ("X21*X12^m", ["X21"] + ["X12"] * m, (b * ai) ** m, ["X12"] * m + ["X21"]),
        ("X21^m*X11", ["X21"] * m + ["X11"], b ** m, ["X11"] + ["X21"] * m),
        ("X22*X21^m", ["X22"] + ["X21"] * m, a ** m, ["X21"] * m + ["X22"]),
        ("X21^m*X12", ["X21"] * m + ["X12"], (b * ai) ** m, ["X12"] + ["X21"] * m),
        ("X12*X11^m", ["X12"] + ["X11"] * m, a ** m, ["X11"] * m + ["X12"]),
        ("X21*X11^m", ["X21"] + ["X11"] * m, b ** m, ["X11"] * m + ["X21"]),
        ("X22^m*X12", ["X22"] * m + ["X12"], b ** m, ["X12"] + ["X22"] * m),
        ("X22^m*X21", ["X22"] * m + ["X21"], a ** m, ["X21"] + ["X22"] * m),
    ]
    out = []
    for label, lw, scal, rw in rows:
        out.append((label, [(one, p.word(*lw))], _mono(p, scal, *rw)))
    return out


def _oracle_uqb2(which):
    def build(p, k):
        q = p.params["q"]
        one = _one(p)
        q2 = q * q
        if which == "i":
            lhs = [(one, p.word("e2", *["e3"] * k))]
            rhs = _mono(p, q2 ** k, *(["e3"] * k + ["e2"])) + \
                _mono(p, q_number(k, q2), *(["z"] + ["e3"] * (k - 1)))
            return [(f"e2*e3^{k}", lhs, rhs)]
        if which == "ii":
            lhs = [(one, p.word(*(["e2"] * k + ["e3"])))]
            rhs = _mono(p, q2 ** k, *(["e3"] + ["e2"] * k)) + \
                _mono(p, q_number(k, q2), *(["z"] + ["e2"] * (k - 1)))
            return [(f"e2^{k}*e3", lhs, rhs)]
        if which == "iii":
            q4i = (q ** 4).inv()
            lhs = [(one, p.word("e2", *["e1"] * k))]
            rhs = _mono(p, q2.inv() ** k, *(["e1"] * k + ["e2"])) + \
                _mono(p, -(q2.inv() * q_number(k, q4i)),
                      *(["e3"] + ["e1"] * (k - 1)))
            return [(f"e2*e1^{k}", lhs, rhs)]
        lhs = [(one, p.word(*(["e2"] * k + ["e1"])))]
        rhs = _mono(p, q2.inv() ** k, *(["e1"] + ["e2"] * k)) + \
            _mono(p, -(q2.inv() * b_coeff(k, q)), *(["e3"] + ["e2"] * (k - 1))) + \
            _mono(p, -c_coeff(k, q), *(["z"] + ["e2"] * (k - 2)))
        return [(f"e2^{k}*e1", lhs, rhs)]
    return build


def _weyl_z_closed(p, i):
    """z_i as its closed form 1 + sum_{j<=i} (q_j - 1) y_j x_j."""
    one = _one(p)
    qs = p.params["q_list"]
    out = NCPoly.monomial(one, ())
    for j in range(1, i + 1):
        out = out + _mono(p, qs[j - 1] - one, f"y{j}", f"x{j}")
    return out


def _oracle_weyl_xky(p, k):
    qs = p.params["q_list"]
    n = p.params["n"]
    one = _one(p)
    out = []
    for i in range(1, n + 1):
        qi = qs[i - 1]
        sk = q_number(k, qi)
        lhs = [(one, p.word(*(["x" + str(i)] * k + ["y" + str(i)])))]
        rhs = _mono(p, qi ** k, *([f"y{i}"] + [f"x{i}"] * k))
        tail = _weyl_z_closed(p, i - 1)
        for w, c in tail.terms.items():
            rhs = rhs + NCPoly.monomial(sk * c, w + p.word(*[f"x{i}"] * (k - 1)))
        out.append((f"x{i}^{k}*y{i}", lhs, rhs))
    return out


def _oracle_weyl_xyk(p, k):
    qs = p.params["q_list"]
    n = p.params["n"]
    one = _one(p)
    out = []
    for i in range(1, n + 1):
        qi = qs[i - 1]
        sk = q_number(k, qi)
        lhs = [(one, p.word(*(["x" + str(i)] + ["y" + str(i)] * k)))]
        rhs = _mono(p, qi ** k, *([f"y{i}"] * k + [f"x{i}"]))
        tail = _weyl_z_closed(p, i - 1)
        for w, c in tail.terms.items():
            rhs = rhs + NCPoly.monomial(sk * c, w + p.word(*[f"y{i}"] * (k - 1)))
        out.append((f"x{i}*y{i}^{k}", lhs, rhs))
    return out


def _oracle_weyl_zi(p, n_unused):
    qs = p.params["q_list"]
    n = p.params["n"]
    one = _one(p)
    out = []
    zs = {i: weyl_z(p, i) for i in range(1, n + 1)}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for kind in ("x", "y"):
                g = p.word(f"{kind}{j}")
                if j > i:
                    scal = one
                elif kind == "x":
                    scal = qs[j - 1].inv()
                else:
                    scal = qs[j - 1]
                lhs = [(c, w + g) for w, c in zs[i].terms.items()]
                lhs += [(-(scal * c), g + w) for w, c in zs[i].terms.items()]
                out.append((f"z{i}*{kind}{j} - ({scal!r})*{kind}{j}*z{i}",
                            lhs, NCPoly.zero()))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            lhs = []
            for wa, ca in zs[i].terms.items():
                for wb, cb in zs[j].terms.items():
                    lhs.append((ca * cb, wa + wb))
                    lhs.append((-(cb * ca), wb + wa))
            out.append((f"[z{i},z{j}]", lhs, NCPoly.zero()))
    return out


def _oracle_cyc3(which):
    # displays solved for their non-normal monomial where needed
    def build(p, a_idx):
        q = p.params["q"]
        al, be, ga = (p.params[k] for k in ("alpha", "beta", "gamma"))
        one = _one(p)
        q2 = q * q
        q2i = q2.inv()
        a = a_idx
        if which == "i":   # x^a y = q^{2a} y x^a + c_a alpha x^{a-1}
            lhs = [(one, p.word("y", *["x"] * a))]
            rhs = _mono(p, q2i ** a, *(["x"] * a + ["y"])) + \
                _mono(p, -(q2i ** a) * c_a(a, q) * al, *(["x"] * (a - 1)))
            return [(f"y*x^{a}", lhs, rhs)]
        if which == "ii":  # y^a x = q^{-2a} x y^a - q^{-2} d_a alpha y^{a-1}
            lhs = [(one, p.word(*(["y"] * a + ["x"])))]
            rhs = _mono(p, q2i ** a, *(["x"] + ["y"] * a)) + \
                _mono(p, -(q2i * d_a(a, q) * al), *(["y"] * (a - 1)))
            return [(f"y^{a}*x", lhs, rhs)]
        if which == "iii":  # x^a z = q^{-2a} z x^a + d_a beta x^{a-1}
            lhs = [(one, p.word("z", *["x"] * a))]
            rhs = _mono(p, q2 ** a, *(["x"] * a + ["z"])) + \
                _mono(p, -(q2 ** a) * d_a(a, q) * be, *(["x"] * (a - 1)))
            return [(f"z*x^{a}", lhs, rhs)]
        if which == "iv":  # z^a x = q^{2a} x z^a - q^2 c_a beta z^{a-1}
            lhs = [(one, p.word(*(["z"] * a + ["x"])))]
            rhs = _mono(p, q2 ** a, *(["x"] + ["z"] * a)) + \
                _mono(p, -(q2 * c_a(a, q) * be), *(["z"] * (a - 1)))
            return [(f"z^{a}*x", lhs, rhs)]
        if which == "v":   # y^a z = q^{2a} z y^a + c_a gamma y^{a-1}
            lhs = [(one, p.word("z", *["y"] * a))]
            rhs = _mono(p, q2i ** a, *(["y"] * a + ["z"])) + \
                _mono(p, -(q2i ** a) * c_a(a, q) * ga, *(["y"] * (a - 1)))
            return [(f"z*y^{a}", lhs, rhs)]
        # vi: z^a y = q^{-2a} y z^a - q^{-2} d_a gamma z^{a-1}
        lhs = [(one, p.word(*(["z"] * a + ["y"])))]
        rhs = _mono(p, q2i ** a, *(["y"] + ["z"] * a)) + \
            _mono(p, -(q2i * d_a(a, q) * ga), *(["z"] * (a - 1)))
        return [(f"z^{a}*y", lhs, rhs)]
    return build


def _oracle_cyc3_e(p, n_unused):
    q = p.params["q"]
    e = cyc3_e(p)
    z = p.word("z")
    scal = (q * q).inv()
    lhs = [(c, w + z) for w, c in e.terms.items()]
    lhs += [(-(scal * c), z + w) for w, c in e.terms.items()]
    return [("e*z - q^-2*z*e", lhs, NCPoly.zero())]


def _bqf_f_terms(p, gname, extra):
    """[(c_j, word(g^j + extra))] for the defining polynomial f."""
    f = p.params["f"]
    out = []
    for j, cj in enumerate(f):
        if not cj.is_zero():
            out.append((cj, p.word(*([gname] * j + list(extra)))))
    return out


def _oracle_bqf_delta_uk(p, k):
    q = p.params["q"]
    f = p.params["f"]
    lhs = bqf_delta(p, p.word(*["u"] * k)).as_formal()
    rhs = NCPoly.zero()
    for j, cj in enumerate(f):
        if cj.is_zero():
            continue
        rhs = rhs + _mono(p, q_number(k, q ** (j + 1)) * cj,
                          *(["v"] * j + ["u"] * (k - 1)))
    return [(f"delta(u^{k})", lhs, rhs)]


def _oracle_bqf_delta_vk(p, k):
    q = p.params["q"]
    f = p.params["f"]
    lhs = bqf_delta(p, p.word(*["v"] * k)).as_formal()
    rhs = NCPoly.zero()
    for j, cj in enumerate(f):
        if cj.is_zero():
            continue
        # u^j v^{k-1} = q^{j(k-1)} v^{k-1} u^j
        rhs = rhs + _mono(p, q_number(k, (q ** (j + 1)).inv()) * cj *
                          q ** (j * (k - 1)),
                          *(["v"] * (k - 1) + ["u"] * j))
    return [(f"delta(v^{k})", lhs, rhs)]


def _oracle_bqf_wuk(p, k):
    q = p.params["q"]
    f = p.params["f"]
    one = _one(p)
    lhs = [(one, p.word("w", *["u"] * k))]
    rhs = _mono(p, q ** k, *(["u"] * k + ["w"]))
    for j, cj in enumerate(f):
        if not cj.is_zero():
            rhs = rhs + _mono(p, q_number(k, q ** (j + 1)) * cj,
                              *(["v"] * j + ["u"] * (k - 1)))
    return [(f"w*u^{k}", lhs, rhs)]


def _oracle_bqf_wvk(p, k):
    q = p.params["q"]
    f = p.params["f"]
    one = _one(p)
    lhs = [(one, p.word("w", *["v"] * k))]
    rhs = _mono(p, q.inv() ** k, *(["v"] * k + ["w"]))
    for j, cj in enumerate(f):
        if not cj.is_zero():
            rhs = rhs + _mono(p, q_number(k, (q ** (j + 1)).inv()) * cj *
                              q ** (j * (k - 1)),
                              *(["v"] * (k - 1) + ["u"] * j))
    return [(f"w*v^{k}", lhs, rhs)]


def _oracle_bqf_wku(p, k):
    q = p.params["q"]
    one = _one(p)
    lhs = [(one, p.word(*(["w"] * k + ["u"])))]
    formal_rhs = [(q ** k, p.word(*(["u"] + ["w"] * k)))]
    for i in range(k):
        pre = ["w"] * (k - 1 - i)
        for cj, fword in _bqf_f_terms(p, "v", []):
            formal_rhs.append((cj * q ** i, p.word(*pre) + fword +
                               p.word(*["w"] * i)))
    rhs = normal_form(p, formal_rhs)
    return [(f"w^{k}*u", lhs, rhs)]


class _Oracle:
    __slots__ = ("family", "min_n", "relation_only", "build")

    def __init__(self, family, min_n, build, relation_only=False):
        self.family = family
        self.min_n = min_n
        self.build = build
        self.relation_only = relation_only


ORACLES = {
    "Bh.commute": _Oracle("Bh", 1, _oracle_bh_commute),
    "H.yxn": _Oracle("Hpq", 1, _oracle_h_yxn),
    "H.ynx": _Oracle("Hpq", 1, _oracle_h_ynx),
    "H.theta_rel": _Oracle("Hpq", 1, _oracle_h_theta, relation_only=True),
    "M2.k1": _Oracle("M2", 1, _oracle_m2_k1),
    "M2.k2": _Oracle("M2", 1, _oracle_m2_k2),
    "M2.power_table": _Oracle("M2", 1, _oracle_m2_power_table),
    "UqB2.i": _Oracle("UqB2", 1, _oracle_uqb2("i")),
    "UqB2.ii": _Oracle("UqB2", 1, _oracle_uqb2("ii")),
    "UqB2.iii": _Oracle("UqB2", 1, _oracle_uqb2("iii")),
    "UqB2.iv": _Oracle("UqB2", 2, _oracle_uqb2("iv")),
    "Weyl.xky": _Oracle("WeylMalt", 1, _oracle_weyl_xky),
    "Weyl.xyk": _Oracle("WeylMalt", 1, _oracle_weyl_xyk),
    "Weyl.zi_normal": _Oracle("WeylMalt", 1, _oracle_weyl_zi, relation_only=True),
    "Cyc3.i": _Oracle("ThreeCyclic", 1, _oracle_cyc3("i")),
    "Cyc3.ii": _Oracle("ThreeCyclic", 1, _oracle_cyc3("ii")),
    "Cyc3.iii": _Oracle("ThreeCyclic", 1, _oracle_cyc3("iii")),
    "Cyc3.iv": _Oracle("ThreeCyclic", 1, _oracle_cyc3("iv")),
    "Cyc3.v": _Oracle("ThreeCyclic", 1, _oracle_cyc3("v")),
    "Cyc3.vi": _Oracle("ThreeCyclic", 1, _oracle_cyc3("vi")),
    "Cyc3.e_rel": _Oracle("ThreeCyclic", 1, _oracle_cyc3_e, relation_only=True),
    "Bqf.delta_uk": _Oracle("Bqf", 1, _oracle_bqf_delta_uk),
    "Bqf.delta_vk": _Oracle("Bqf", 1, _oracle_bqf_delta_vk),
    "Bqf.wuk": _Oracle("Bqf", 1, _oracle_bqf_wuk),
    "Bqf.wvk": _Oracle("Bqf", 1, _oracle_bqf_wvk),
    "Bqf.wku": _Oracle("Bqf", 1, _oracle_bqf_wku),
}

LEMMA_IDS = tuple(sorted(ORACLES))


def oracle_rhs(lemma_id, p, n):
    """(label, lhs formal polynomial, rhs NCPoly) checks for one index."""
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
