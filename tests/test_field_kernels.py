"""The coefficient kernels' shortcuts against the general formulas.

Rational-function sums and products skip cross-multiplication and
normalization when the denominators allow it, and cyclotomic sums,
products and inverses work over the integers.  Each must return exactly
the value the general formula returns.  The general formulas are kept
here as reference functions, written without any shortcut:
cross-multiplication followed by content stripping for rational
functions, a ``Fraction`` convolution reduced by long division modulo
Phi_N for cyclotomic products, and a fraction-free linear solve for
cyclotomic inverses.  sympy, when installed, gives a third
opinion on the values.

Rational and cyclotomic payloads are canonical: each number is an
``int`` when it is integral and a ``Fraction`` with denominator > 1
otherwise, whatever Rationals the operands were built from.
"""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from orepi import FieldCtx
from orepi import fields
from orepi.errors import DivisionByZero
from orepi.fields import (Coeff, coeff_to_str, cyclotomic_polynomial,
                          parse_coeff)

N_RATFUNC_PAIRS = 150
N_CYCLO_PAIRS = 120
N_SYMPY_PAIRS = 12


# ---------------------------------------------------------------------------
# reference formulas
# ---------------------------------------------------------------------------


def ref_mp_add(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


def ref_mp_mul(a, b):
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            out[k] = out.get(k, 0) + va * vb
    return {k: v for k, v in out.items() if v}


def ref_normalize(num, den):
    nvars = len(next(iter(den)))
    if not num:
        return {}, {(0,) * nvars: 1}
    g = 0
    for v in list(num.values()) + list(den.values()):
        g = gcd(g, v)
    mins = tuple(min(k[i] for k in list(num) + list(den))
                 for i in range(nvars))
    num = {tuple(e - m for e, m in zip(k, mins)): v // g
           for k, v in num.items()}
    den = {tuple(e - m for e, m in zip(k, mins)): v // g
           for k, v in den.items()}
    if den[max(den)] < 0:
        num = {k: -v for k, v in num.items()}
        den = {k: -v for k, v in den.items()}
    return num, den


def ref_ratfunc_add(x, y):
    (a, b), (c, d) = x, y
    return ref_normalize(ref_mp_add(ref_mp_mul(a, d), ref_mp_mul(c, b)),
                         ref_mp_mul(b, d))


def ref_ratfunc_neg(x):
    return {k: -v for k, v in x[0].items()}, x[1]


def ref_ratfunc_mul(x, y):
    (a, b), (c, d) = x, y
    return ref_normalize(ref_mp_mul(a, c), ref_mp_mul(b, d))


def ref_ratfunc_eq(x, y):
    (a, b), (c, d) = x, y
    return ref_mp_mul(a, d) == ref_mp_mul(c, b)


def ref_cyclo_mul(x, y, n):
    phi = cyclotomic_polynomial(n)
    dim = len(phi) - 1
    conv = [Fraction(0)] * (2 * dim - 1)
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            conv[i + j] += a * b
    # long division by the monic Phi_N, from the top coefficient down
    for k in range(len(conv) - 1, dim - 1, -1):
        c = conv[k]
        for j, p in enumerate(phi):
            conv[k - dim + j] -= c * p
    return tuple(conv[:dim])


def ref_cyclo_inv(x, n):
    """The inverse of the nonzero payload x by fraction-free elimination
    (Bareiss 1968).  With x = xs / den, M, the integer matrix of
    multiplication by xs in the power basis, is solved against den * e_0:
    every division is exact, the last pivot is +-det(M), and back
    substitution gives det(M) times the solution in integers."""
    den = lcm(*(Fraction(a).denominator for a in x))
    col, cols, phi = [int(a * den) for a in x], [], cyclotomic_polynomial(n)
    d = len(x)
    for _ in range(d):  # column j is xs t^j modulo Phi_N
        cols.append(col)
        col = [a - col[-1] * c for a, c in zip([0] + col[:-1], phi)]
    rows = [list(r) + [den if i == 0 else 0] for i, r in enumerate(zip(*cols))]
    prev = 1
    for k in range(d):
        piv = next(i for i in range(k, d) if rows[i][k])
        rows[k], rows[piv] = rows[piv], rows[k]
        top = rows[k]
        for r in rows[k + 1:]:
            r[k + 1:] = [(a * top[k] - r[k] * b) // prev
                         for a, b in zip(r[k + 1:], top[k + 1:])]
        prev = top[k]
    sol = [0] * d
    for i in reversed(range(d)):
        r = rows[i]
        sol[i] = (prev * r[d] - sum(r[j] * sol[j]
                                    for j in range(i + 1, d))) // r[i]
    return tuple(Fraction(c, prev) for c in sol)


# ---------------------------------------------------------------------------
# random operands
# ---------------------------------------------------------------------------


def random_mp(rng, nvars, terms):
    out = {}
    for _ in range(terms):
        key = tuple(rng.randint(0, 3) for _ in range(nvars))
        out[key] = out.get(key, 0) + rng.choice((-1, 1)) * rng.randint(1, 6)
    return {k: v for k, v in out.items() if v} or {(0,) * nvars: 1}


def random_den(rng, nvars, shape):
    if shape == "one":
        return {(0,) * nvars: 1}
    if shape == "monomial":
        return random_mp(rng, nvars, 1)
    return random_mp(rng, nvars, rng.randint(2, 3))


def random_ratfunc(rng, ctx, shape):
    nvars = len(ctx.params)
    num = random_mp(rng, nvars, rng.randint(1, 4))
    return Coeff(ctx, ref_normalize(num, random_den(rng, nvars, shape)))


SHAPES = ("one", "monomial", "general")


def ratfunc_pairs(seed):
    """Random operand pairs in 1-4 parameters over every pair of
    denominator shapes, with equal denominators and cancelling sums
    mixed in."""
    rng = random.Random(seed)
    ctxs = [FieldCtx.rational_functions(tuple(f"p{i}" for i in range(n)))
            for n in range(1, 5)]
    pairs = []
    for k in range(N_RATFUNC_PAIRS):
        ctx = ctxs[k % 4]
        x = random_ratfunc(rng, ctx, SHAPES[k % 3])
        y = random_ratfunc(rng, ctx, SHAPES[(k // 3) % 3])
        if k % 5 == 0:
            # the same denominator (one, a monomial or a polynomial)
            num = random_mp(rng, len(ctx.params), rng.randint(1, 3))
            y = Coeff(ctx, ref_normalize(num, x.val[1]))
        if k % 7 == 0:
            y = -x
        pairs.append((x, y))
    return pairs


def random_cyclo(rng, ctx, fractional):
    dim = len(ctx._phi) - 1
    vec = []
    for _ in range(dim):
        num = rng.choice((0, 0, rng.randint(-9, 9)))
        vec.append(Fraction(num, rng.randint(1, 12) if fractional else 1))
    return Coeff(ctx, tuple(vec))


CYCLO_LEVELS = (3, 4, 5, 7, 12)
# 15, 20 and 24 have unit groups that are not cyclic, and phi(11) = 10
INV_LEVELS = (3, 4, 5, 7, 9, 11, 12, 15, 20, 24)


def is_canonical(q):
    """An int when integral, else a Fraction (lowest terms by
    construction) with denominator > 1; in particular never a float."""
    return type(q) is int or (type(q) is Fraction and q.denominator > 1)


def assert_canonical(c):
    coords = (c.val,) if c.ctx.kind == "rational" else c.val
    assert all(is_canonical(q) for q in coords), c.val


def cyclo_pairs(seed):
    rng = random.Random(seed)
    pairs = []
    for k in range(N_CYCLO_PAIRS):
        n = CYCLO_LEVELS[k % len(CYCLO_LEVELS)]
        ctx = FieldCtx.cyclotomic(n)
        pairs.append((n, random_cyclo(rng, ctx, k % 3 == 1),
                      random_cyclo(rng, ctx, k % 3 == 2)))
    return pairs


# ---------------------------------------------------------------------------
# exact payload equality
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_ratfunc_payloads_match_general_formula(seed):
    for x, y in ratfunc_pairs(seed):
        assert (x + y).val == ref_ratfunc_add(x.val, y.val)
        assert (x - y).val == ref_ratfunc_add(x.val, ref_ratfunc_neg(y.val))
        assert (x * y).val == ref_ratfunc_mul(x.val, y.val)
        assert (x == y) == ref_ratfunc_eq(x.val, y.val)
        assert (x == x) and ref_ratfunc_eq(x.val, x.val)


def test_ratfunc_cancelling_sums_are_canonical_zero():
    rng = random.Random(11)
    for nvars in range(1, 5):
        ctx = FieldCtx.rational_functions(tuple(f"p{i}" for i in range(nvars)))
        zero = ({}, {(0,) * nvars: 1})
        for shape in SHAPES:
            x = random_ratfunc(rng, ctx, shape)
            assert (x - x).val == zero
            assert (x + (-x)).val == zero
            y = random_ratfunc(rng, ctx, shape)
            assert (x * y - y * x).val == zero


def test_ratfunc_equality_across_representations():
    # equal values need not share a payload: (f, f) is 1 but not (1, 1)
    ctx = FieldCtx.rational_functions(("p", "q"))
    f = {(1, 0): 1, (0, 1): 1}
    one = ctx.one()
    same = Coeff(ctx, (f, f))
    assert same == one and one == same
    assert same.val != one.val
    half = Coeff(ctx, ({(0, 0): 1}, {(0, 0): 2}))
    assert not half == one and ref_ratfunc_eq(half.val, one.val) is False


@pytest.mark.parametrize("seed", [4, 5])
def test_cyclotomic_products_match_fraction_convolution(seed):
    for n, x, y in cyclo_pairs(seed):
        assert (x * y).val == ref_cyclo_mul(x.val, y.val, n)
        assert (y * x).val == (x * y).val
        assert ((x + y) * x).val == ref_cyclo_mul(
            tuple(a + b for a, b in zip(x.val, y.val)), x.val, n)
        # every coordinate is an int when integral, else a Fraction
        assert_canonical(x * y)


def test_cyclotomic_unit_times_inverse_is_one():
    rng = random.Random(6)
    for n in INV_LEVELS:
        ctx = FieldCtx.cyclotomic(n)
        for k in range(12):
            x = random_cyclo(rng, ctx, k % 2 == 1)
            if x.is_zero():
                continue
            assert (x * x.inv()).val == ctx.one().val
            assert (x.inv() * x) == 1 and x.inv().inv().val == x.val


def test_zero_has_no_cyclotomic_inverse():
    # nor in any other field: the bare inv and Coeff.inv both refuse it
    ctxs = [FieldCtx.cyclotomic(n) for n in (1, 2) + INV_LEVELS] + [
        FieldCtx.rational(), FieldCtx.rational_functions(("q",)),
        FieldCtx.galois_prime(7), FieldCtx.galois(2, [1, 1, 1])]
    for ctx in ctxs:
        with pytest.raises(DivisionByZero):
            ctx.zero().inv()
        with pytest.raises(DivisionByZero):
            ctx.inv(ctx.zero().val)


def test_cyclotomic_scalar_operands():
    # an operand with no coordinate past the first scales the other one
    # coordinatewise and inverts as a rational; the results are the
    # convolution's and the rational inverse's, canonical even for
    # integral Fractions
    rng = random.Random(17)
    scalars = (0, 1, -1, 3, Fraction(-2, 3), Fraction(0, 1), Fraction(1, 1),
               Fraction(-1, 1), Fraction(6, 2))
    for n in (1, 2) + INV_LEVELS:
        ctx = FieldCtx.cyclotomic(n)
        pad = (0,) * (len(ctx._phi) - 2)
        for q in scalars:
            s = Coeff(ctx, (q,) + pad)
            for k in range(4):
                x = random_cyclo(rng, ctx, k % 2 == 1)
                want = ref_cyclo_mul(s.val, x.val, n)
                assert (s * x).val == (x * s).val == want
                assert_canonical(s * x)
                assert_canonical(x * s)
            if q:
                inv = Fraction(1) / q
                assert s.inv().val == (inv,) + pad
                assert (s * s.inv()).val == ctx.one().val
                assert_canonical(s.inv())


def test_cyclotomic_monomial_inverse_matches_bareiss():
    # c zeta^k, one nonzero coordinate, is inverted as c^-1 sigma_-1(zeta^k):
    # the payload must be the Bareiss solve's, canonical
    for n in range(1, 31):
        ctx = FieldCtx.cyclotomic(n)
        d = len(ctx._phi) - 1
        for k in range(d):
            for c in (1, -1, 7, Fraction(-2, 3), Fraction(5, 1)):
                a = (0,) * k + (c,) + (0,) * (d - 1 - k)
                got = ctx.inv(a)
                assert got == ref_cyclo_inv(a, n)
                assert_canonical(Coeff(ctx, got))
                assert ctx.mul(a, got) == ctx.one().val


def test_cyclotomic_dense_inverse_matches_bareiss():
    # any other value is inverted by the norm, den a* / N(xs), a* the
    # product of the conjugates sigma_k(xs), k != 1 a unit mod N
    rng = random.Random(23)
    for n in range(3, 31):
        ctx = FieldCtx.cyclotomic(n)
        d = len(ctx._phi) - 1
        for k in range(8):
            a = [0] * d
            for i in rng.sample(range(d), rng.randint(2, d)):
                a[i] = rng.choice((rng.randint(1, 9), rng.randint(-9, -1)))
                if k % 2:
                    a[i] = Fraction(a[i], rng.randint(1, 6))
            got = ctx.inv(tuple(a))
            assert got == ref_cyclo_inv(a, n)
            assert_canonical(Coeff(ctx, got))
            assert ctx.mul(tuple(a), got) == ctx.one().val


def integral_twin(rng, ctx):
    """(ints, integral Fractions): two payloads of one value, the second
    built the way the benchmark's generators build them."""
    ints = tuple(rng.choice((0, rng.randint(-4, 4)))
                 for _ in range(len(ctx._phi) - 1))
    return Coeff(ctx, ints), Coeff(ctx, tuple(Fraction(c) for c in ints))


def test_integral_fraction_operands_give_equal_values():
    rng = random.Random(13)
    for k in range(36):
        ctx = FieldCtx.cyclotomic(INV_LEVELS[k % len(INV_LEVELS)])
        (a, fa), (b, fb) = integral_twin(rng, ctx), integral_twin(rng, ctx)
        for op in (lambda u, v: u + v, lambda u, v: u - v,
                   lambda u, v: u * v, lambda u, v: -u):
            want = op(a, b)
            got = op(fa, fb)
            assert got.val == want.val and got == want
            assert_canonical(got)
            assert_canonical(want)
            assert op(fa, b).val == op(a, fb).val == want.val
        if not a.is_zero():
            assert fa.inv().val == a.inv().val
            assert_canonical(fa.inv())


@pytest.mark.parametrize("seed", [14, 15])
def test_results_are_canonical(seed):
    rng = random.Random(seed)
    QQ = FieldCtx.rational()
    for n, x, y in cyclo_pairs(seed):
        for z in (x + y, x - y, y - x, -x, x * y, x * x):
            assert_canonical(z)
        if not x.is_zero():
            assert_canonical(x.inv())
        assert_canonical(x - x)
        assert (x - x).val == (0,) * len(x.val)
    for _ in range(200):
        a = QQ.from_fraction(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
        b = QQ.from_fraction(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
        for z in (a, b, a + b, a - b, 2 - a, -a, a * b, a * 2):
            assert_canonical(z)
        if not a.is_zero():
            assert_canonical(a.inv())
            assert_canonical(b / a)
            assert a * a.inv() == 1 and (a * a.inv()).val == 1
    half = Fraction(1, 2)
    assert QQ.from_fraction(half) + QQ.from_fraction(half) == 1
    assert type((QQ.from_fraction(half) * 2).val) is int
    assert type(QQ.from_int(-1).inv().val) is int


def test_no_payload_holds_a_float():
    # a float input is converted exactly, and no operation makes a float
    QQ, c7 = FieldCtx.rational(), FieldCtx.cyclotomic(7)
    base = [QQ.from_fraction(0.5), QQ.from_int(3), c7.from_fraction(0.25),
            c7.generator(), c7.from_int(2)]
    values = list(base)
    for a in base:
        for b in base:
            if a.ctx is b.ctx:
                values += [a + b, a - b, a * b, a / b, a ** -2, -a]
    for v in values:
        coords = (v.val,) if v.ctx is QQ else v.val
        assert not any(isinstance(q, float) for q in coords)
        assert_canonical(v)
    assert QQ.from_fraction(0.5).as_fraction() == Fraction(1, 2)
    assert type(QQ.from_int(2).as_fraction()) is Fraction
    assert type(c7.from_int(2).as_fraction()) is Fraction


# ---------------------------------------------------------------------------
# packed integer products and monomial denominators
# ---------------------------------------------------------------------------


def dense_mp(rng, nvars, terms, span, mag):
    """terms distinct monomials with exponents in [0, span] and nonzero
    coefficients of magnitude at most mag."""
    assert terms <= (span + 1) ** nvars
    out = {}
    while len(out) < terms:
        key = tuple(rng.randint(0, span) for _ in range(nvars))
        out[key] = rng.choice((-1, 1)) * rng.randint(1, mag)
    return out


def kronecker_calls(monkeypatch):
    calls = []
    real = fields._kronecker_mul

    def counting(a, b):
        out = real(a, b)
        calls.append(out is not None)
        return out

    monkeypatch.setattr(fields, "_kronecker_mul", counting)
    return calls


@pytest.mark.parametrize("nvars", [1, 2, 3])
def test_packed_products_match_schoolbook(nvars):
    rng = random.Random(20 + nvars)
    span, lo, hi = {1: (40, 8, 30), 2: (6, 14, 40), 3: (2, 16, 27)}[nvars]
    packed = 0
    for k in range(60):
        a = dense_mp(rng, nvars, rng.randint(lo, hi), span, 10 ** (k % 12))
        b = dense_mp(rng, nvars, rng.randint(lo, hi), span, rng.randint(1, 9))
        # shifted exponents: the packing starts at the lowest exponent
        a = {tuple(e + k % 3 for e in key): v for key, v in a.items()}
        got = fields._kronecker_mul(a, b)
        if got is not None:
            packed += 1
            assert got == ref_mp_mul(a, b)
        assert fields._zp_mul(a, b) == fields._zp_mul(b, a) == ref_mp_mul(a, b)
    assert packed >= 20


@pytest.mark.parametrize("sign", [1, -1])
def test_packed_coefficients_at_the_slot_bound(sign):
    # all-equal coefficients: the middle product coefficient is exactly
    # max|a| * max|b| * min(len a, len b), the bound the slot width is
    # taken from, for m at and next to every third power of two below
    # 2^190, so slots from 1 byte to 48 bytes wide
    for n in (8, 9, 16):
        ones = {(e,): 1 for e in range(n)}
        for bits in range(0, 190, 3):
            for m in (2 ** bits - 1, 2 ** bits, 2 ** bits + 1):
                if m == 0:
                    continue
                a = {k: sign * m for k in ones}
                b = {k: (-1) ** k[0] * m for k in ones}
                for x, y in ((a, ones), (a, a), (a, b)):
                    got = fields._kronecker_mul(x, y)
                    assert got is not None and got == ref_mp_mul(x, y)
                want = ref_mp_mul(a, a)
                assert abs(want[(n - 1,)]) == m * m * n


def test_packed_products_of_large_integers():
    rng = random.Random(31)
    for digits in (19, 20, 40, 200):
        for nvars in (1, 2):
            span = 3 if nvars == 2 else 14
            a = dense_mp(rng, nvars, 12, span, 10 ** digits)
            b = dense_mp(rng, nvars, 12, span, 10 ** digits)
            got = fields._kronecker_mul(a, b)
            assert got is not None and got == ref_mp_mul(a, b)


@pytest.mark.parametrize("shape,packed", [((8, 8), True), ((4, 16), True),
                                          ((7, 9), False), ((9, 7), False),
                                          ((1, 64), False)])
def test_packing_threshold(monkeypatch, shape, packed):
    # 64 term products are packed, 63 and one-term operands are not
    assert fields._KRONECKER_MIN == 64
    calls = kronecker_calls(monkeypatch)
    na, nb = shape
    a = {(e,): (-1) ** e * (e + 1) for e in range(na)}
    b = {(e,): 3 - e for e in range(nb + 1) if e != 3}
    assert fields._zp_mul(a, b) == ref_mp_mul(a, b)
    assert calls == ([True] if packed else [])


def test_sparse_operands_stay_schoolbook(monkeypatch):
    # a packed product with more slots than half the term products is
    # not built: the schoolbook loop is used.  Exponents that step by a
    # common gcd are packed at that step, however far apart.
    calls = kronecker_calls(monkeypatch)
    cubes = {(e ** 3,): e + 1 for e in range(8)}
    steps = {(10 ** 6 * e + 5,): e + 1 for e in range(8)}
    for a in (cubes, steps):
        assert fields._zp_mul(a, a) == ref_mp_mul(a, a)
    assert calls == [False, True]


def monomial_den_operands(rng, nvars):
    """Numerators with negative coefficients over denominators c * m for
    monomials m and ints c, 1 and negative c included, as built outside
    ``_ratfunc_normalize`` too."""
    num = dense_mp(rng, nvars, rng.randint(1, 12), 12, 9)
    key = tuple(rng.choice((0, 0, 1, 3)) for _ in range(nvars))
    return num, {key: rng.choice((1, 1, -1, 2, -3, 6, 12))}


@pytest.mark.parametrize("nvars", [1, 2, 3])
def test_monomial_denominators_match_general_formula(nvars):
    rng = random.Random(40 + nvars)
    ctx = FieldCtx.rational_functions(tuple(f"p{i}" for i in range(nvars)))
    for k in range(200):
        x = monomial_den_operands(rng, nvars)
        y = monomial_den_operands(rng, nvars)
        if k % 4 == 0:
            y = (y[0], dict(x[1]))            # equal denominators
        if k % 6 == 0:
            # packed products
            y = (dense_mp(rng, nvars, 20, (0, 30, 6, 3)[nvars], 9), y[1])
        if k % 5 == 0:
            y = ref_ratfunc_neg(x)              # a sum that cancels
        if k % 7 == 0:
            scale = rng.choice((2, -3))         # the same value, scaled
            y = ({key: -v * scale for key, v in x[0].items()},
                 {key: v * scale for key, v in x[1].items()})
        for got, want in ((ctx.add(x, y), ref_ratfunc_add(x, y)),
                          (ctx.mul(x, y), ref_ratfunc_mul(x, y)),
                          (ctx.sub(x, y),
                           ref_ratfunc_add(x, ref_ratfunc_neg(y)))):
            assert got == want, (x, y)
            assert len(got[1]) == 1 and got[1][max(got[1])] > 0
            c = Coeff(ctx, got)
            back = parse_coeff(coeff_to_str(c), ctx)
            assert back.val == got and coeff_to_str(back) == coeff_to_str(c)


def test_key_order_is_not_part_of_a_value():
    # the packed product lists its terms in ascending order; every
    # consumer of a payload gives the same answer for any key order
    rng = random.Random(50)
    q = FieldCtx.rational_functions(("q",))
    c7 = FieldCtx.cyclotomic(7)
    z7 = c7.generator()
    qq = FieldCtx.rational_functions(("s", "t"))
    s_, t_ = qq.param("s"), qq.param("t")
    general = ({(0,): 1, (2,): 3}, {(1,): 2, (0,): -1})

    def reversed_payload(v):
        return tuple(dict(reversed(list(p.items()))) for p in v)

    for _ in range(40):
        x = ({(e,): c for e, c in zip(range(0, 60, 2), range(-15, 15)) if c},
             {(rng.randint(0, 3),): rng.choice((1, 2))})
        y = (dense_mp(rng, 1, 25, 30, 50), {(0,): 1})
        for v in (q.mul(x, y), q.add(x, y), q.mul(x, general)):
            r = reversed_payload(v)
            assert list(r[0]) != list(v[0]) or len(v[0]) < 2
            assert q.eq(v, r) and r == v
            assert q.to_str(r) == q.to_str(v)
            for w in (x, y, general):
                assert q.add(r, w) == q.add(v, w)
                assert q.mul(r, w) == q.mul(v, w)
            assert q.inv(r) == q.inv(v)
            at = q.specializer({"q": z7 + 2}, c7)
            assert at(r) == at(v)
    # into Q(s, t), at a value with a general denominator, the terms are
    # summed by the general formula in key order
    at = q.specializer({"q": s_ / (t_ + 1)}, qq)
    for _ in range(10):
        v = (dense_mp(rng, 1, 6, 8, 9), {(rng.randint(0, 3),): 1})
        assert at(reversed_payload(v)) == at(v)


# ---------------------------------------------------------------------------
# sympy as an independent check of the values
# ---------------------------------------------------------------------------


def _sym_poly(mp, names, sympy):
    syms = sympy.symbols(names)
    return sum((c * sympy.Mul(*(s ** e for s, e in zip(syms, k)))
                for k, c in mp.items()), sympy.Integer(0))


def _sym_ratfunc(c, sympy):
    names = c.ctx.params
    return _sym_poly(c.val[0], names, sympy) / _sym_poly(c.val[1], names,
                                                          sympy)


def test_ratfunc_values_against_sympy():
    sympy = pytest.importorskip("sympy")
    for x, y in ratfunc_pairs(7)[:N_SYMPY_PAIRS]:
        sx, sy = _sym_ratfunc(x, sympy), _sym_ratfunc(y, sympy)
        for got, want in ((x + y, sx + sy), (x - y, sx - sy),
                          (x * y, sx * sy)):
            assert sympy.cancel(_sym_ratfunc(got, sympy) - want) == 0
        assert (x == y) == (sympy.cancel(sx - sy) == 0)


def _sym_cyclo(c, t, sympy):
    return sum(sympy.Rational(q.numerator, q.denominator) * t ** e
               for e, q in enumerate(c.val))


def test_cyclotomic_products_against_sympy():
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    for n, x, y in cyclo_pairs(8)[:N_SYMPY_PAIRS * 2]:
        A, B = _sym_cyclo(x, t, sympy), _sym_cyclo(y, t, sympy)
        r = sympy.Poly(sympy.rem(sympy.expand(A * B),
                                 sympy.cyclotomic_poly(n, t), t), t)
        want = [Fraction(int(c.p), int(c.q)) for c in reversed(r.all_coeffs())]
        want += [Fraction(0)] * (len(x.val) - len(want))
        assert (x * y).val == tuple(want)


def test_cyclotomic_inverses_against_sympy():
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    rng = random.Random(16)
    for n in INV_LEVELS:
        ctx = FieldCtx.cyclotomic(n)
        for k in range(4):
            x = random_cyclo(rng, ctx, k % 2 == 1)
            if x.is_zero():
                continue
            inv = sympy.invert(_sym_cyclo(x, t, sympy),
                               sympy.cyclotomic_poly(n, t), t)
            want = [Fraction(int(c.p), int(c.q))
                    for c in reversed(sympy.Poly(inv, t).all_coeffs())]
            want += [Fraction(0)] * (len(x.val) - len(want))
            assert x.inv().val == tuple(want)


def _has_root(mod, p):
    for r in range(p):
        acc = 0
        for c in reversed(mod):
            acc = (acc * r + c) % p
        if acc == 0:
            return True
    return False


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_rabin_test_matches_root_search(p):
    # a quadratic or cubic is irreducible exactly when it has no root
    from itertools import product
    from orepi.fields import _gf_irreducible
    for d in (2, 3):
        for tail in product(range(p), repeat=d):
            mod = list(tail) + [1]
            assert _gf_irreducible(mod, p) == (not _has_root(mod, p)), mod
