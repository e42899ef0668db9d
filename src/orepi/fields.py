"""Exact coefficient fields.

Four kinds of field are supported, one ``FieldCtx`` subclass each, and
each subclass owns the payload format of its values:

- ``_Rationals``, Q: a rational number;
- ``_Cyclotomics``, Q(zeta_N): a tuple of phi(N) rational numbers, the
  coordinates in the power basis modulo Phi_N;
- ``_RatFuncs``, rational functions in named parameters over Q: a
  (numerator, denominator) pair of sparse integer polynomials, dicts
  from exponent tuples to nonzero ints;
- ``_GaloisField``, GF(p^k) with p <= 101 and k <= 6: a tuple of k ints
  in [0, p), the coordinates in the power basis modulo the monic
  irreducible modulus.

A context validates its descriptor, embeds rationals, finds roots of
unity and computes on bare payloads (``add``, ``mul``, ``inv``, ...).
``Coeff`` is the one element class: it pairs a context with a payload
and makes one call on its context per operation.  Every value is exact;
there is no floating point anywhere.

Rational-function values are stored as uncanonicalized fractions of
multivariate integer polynomials.  Equality is decided by
cross-multiplication and zero testing by the numerator, so no
multivariate GCD is ever needed; only cheap integer/monomial content is
stripped to keep growth in check (``_ratfunc_normalize``).

Rational numbers, and the coordinates of cyclotomic values in the power
basis, are canonical: an ``int`` when integral, else a ``Fraction``
(lowest terms, denominator > 1).  Operands may hold any Rationals, such
as integral ``Fraction`` objects; every result is canonical, so most
arithmetic at roots of unity never builds a ``Fraction``.

The arithmetic takes exact shortcuts that return the payload the general
formula returns.  For rational functions they rest on one invariant: a
fraction whose denominator is 1 or a single monomial has exactly one
normalized form, so a result of that shape is canonical however it was
computed.

- Rational functions: a sum or product of two fractions whose
  denominators are both single monomials (1 included) takes one path.
  A product multiplies the numerators, adds the denominators'
  exponents and multiplies their coefficients.  A sum lifts each
  numerator to the lcm of the two coefficients times the elementwise
  maximum of the two exponents (the denominator itself when both are
  equal) and adds, with no cross-multiplication.  Either result is
  normalized once by ``_over_monomial``: the content gcd is taken with
  the one denominator coefficient and the exponent minimum with its one
  key, and a denominator 1 is the shared dict ``_RatFuncs._one_den``,
  for which nothing is stripped.  Every other sum or product
  cross-multiplies and runs ``_ratfunc_normalize``.  Equal denominators
  make equality a comparison of numerators.
- Rational-function numerators multiply in ``_zp_mul``: two one-term
  operands give their one term directly, and a one-term operand shifts
  and scales the other.  Operands with at least ``_KRONECKER_MIN`` = 64
  term products are packed into one int each and multiplied once
  (``_kronecker_mul``, Kronecker substitution), unless the packed
  product would have more slots than half the term products; the rest
  is the schoolbook loop of ``_mp_mul``.  The threshold was measured
  with Python 3.11 on a 2-vCPU x86-64 machine, on univariate operands
  of 3 to 32 terms, dense and with every other exponent: packing lost
  below about 36 term products, saved 7-25 % at 48 and 25-42 % at 64.
  A packed product lists its terms in ascending exponent order, and the
  schoolbook loop in the order they arise.  Key order is no part of a
  payload's value: ``_mp_to_str`` sorts the terms, equality compares
  dicts, ``_ratfunc_normalize`` reads the maximum and minimum keys, and
  a sum's payload does not depend on the order of its terms.
  ``_mp_mul`` itself never packs, since ``center`` multiplies
  polynomials with ``Coeff`` coefficients through it.
- Rationals: sums, products and inverses turn an integral result into
  an ``int`` (``_canon``).  An inverse is a ``Fraction`` built from the
  operand's denominator and numerator, never ``1 / v``, which is a float
  when v is an int.
- Cyclotomics: sums and differences add coordinates and canonicalize
  only when some coordinate is not an ``int``.  An operand with no
  coordinate past the first is a rational scalar: a product with one
  scales the other operand coordinatewise (0 gives the zero tuple, +-1
  a canonical copy or negation).  Any other product scales each operand
  to integers over its common denominator, convolves and reduces over
  the integers, and divides by the denominator once at the end.  An
  inverse takes no linear algebra: with a = xs / den and a* a product
  of Galois conjugates sigma_k(xs) (``_Cyclotomics._sigma``, multiplied
  with ``_mul_mod``), xs a* = N(xs) is rational and a^-1 = den a* / N(xs).
- Power bases: Q(zeta_N) and GF(p^k) are both k[x]/(f) with f monic,
  and their products share one integer product, ``_mul_mod``: the
  convolution, with each power x^k past deg f read from f's table of
  reductions (``_reduction_table``).  A Galois product then reduces
  each coordinate modulo p; its inverse, a power, and Rabin's
  irreducibility test square and multiply through the same product.
- Every kind: operands whose context is the same object skip the
  field-descriptor comparison.
"""

import sys
from array import array
from fractions import Fraction
from functools import partial, reduce
from itertools import accumulate, product
from math import gcd, lcm, prod
from operator import add, attrgetter, is_, mul, neg, pos, sub

from .errors import (
    CtxMismatch,
    DenominatorVanishes,
    DivisionByZero,
    InvalidField,
    NumberTooLarge,
    ParseError,
    UnassignedParameter,
    ZeroInput,
)

# ---------------------------------------------------------------------------
# integer polynomial helpers (dense lists, ascending degree)
# ---------------------------------------------------------------------------


def _trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _times_x(vec, phi):
    """vec * x modulo the monic phi, both in the power basis (vec a list)."""
    top = vec[-1]
    vec = [0] + vec[:-1]
    if top:
        vec = [a - top * c for a, c in zip(vec, phi)]
    return vec


def _reduction_table(f):
    """x^k modulo the monic integer polynomial f, for d <= k <= 2d - 2,
    d = deg f: one integer vector of length d for each k."""
    row = [-c for c in f[:-1]]
    table = [row]
    for _ in range(len(f) - 3):
        row = _times_x(row, f)
        table.append(row)
    return table


def _mul_mod(xs, ys, table):
    """The integer vector of xs * ys modulo the monic f of table =
    _reduction_table(f), for integer vectors xs, ys of length deg f: the
    convolution, with each power x^k, k >= deg f, read from the table."""
    d = len(xs)
    conv = [0] * (2 * d - 1)
    for i, x in enumerate(xs):
        if x:
            for j, y in enumerate(ys):
                if y:
                    conv[i + j] += x * y
    out = conv[:d]
    for k in range(d, 2 * d - 1):
        c = conv[k]
        if c:
            for i, r in enumerate(table[k - d]):
                if r:
                    out[i] += c * r
    return out


def cyclotomic_polynomial(n):
    """Coefficients (ascending, monic) of Phi_n.

    Phi_n is the product of (x^d - 1)^mu(n/d) over the divisors d of n.
    The factors with mu = 1 are multiplied in first, then those with
    mu = -1 divided out, each in one O(n) pass.  Every division is exact:
    the first product is Phi_n times the factors still to be divided out.
    """
    # mu(n/d) is nonzero when n/d is a product of distinct primes of n
    ups, downs = [n], []
    for p in _factorize(n):
        ups, downs = ups + [d // p for d in downs], downs + [d // p for d in ups]
    poly = [1]
    for d in ups:
        out = [0] * d + poly
        for i, c in enumerate(poly):
            out[i] -= c
        poly = out
    for d in downs:
        # poly = quo * (x^d - 1), so poly[i] = quo[i - d] - quo[i]
        quo = []
        for i in range(len(poly) - d):
            quo.append((quo[i - d] if i >= d else 0) - poly[i])
        poly = quo
    return poly


# ---------------------------------------------------------------------------
# GF(p) polynomial helpers (dense lists, ascending degree)
# ---------------------------------------------------------------------------


def _gf_powmod(a, e, table, p):
    """a^e modulo the monic f of table = _reduction_table(f) over GF(p),
    for a vector a of deg f ints."""
    result = [1] + [0] * (len(a) - 1)
    while e:
        if e & 1:
            result = [c % p for c in _mul_mod(result, a, table)]
        a = [c % p for c in _mul_mod(a, a, table)]
        e >>= 1
    return result


def _gf_irreducible(mod, p):
    """Is the monic polynomial mod irreducible over GF(p)?

    Rabin's test: a monic f of degree d >= 1 is irreducible exactly when
    f divides x^(p^d) - x and is coprime to x^(p^(d/r)) - x for each
    prime r dividing d.  Once f divides x^(p^d) - x, GF(p)[x]/(f) is a
    product of fields GF(p^e), e | d, so an element of it is a unit
    exactly when its (p^d - 1)-th power is 1: the test is powers only.
    """
    d = len(mod) - 1
    if d <= 1:
        return d == 1
    table = _reduction_table(mod)
    x = [0, 1] + [0] * (d - 2)
    if _gf_powmod(x, p ** d, table, p) != x:
        return False
    one = [1] + [0] * (d - 1)
    for r in _factorize(d):
        diff = _gf_powmod(x, p ** (d // r), table, p)
        diff[1] = (diff[1] - 1) % p
        if _gf_powmod(diff, p ** d - 1, table, p) != one:
            return False
    return True


def _factorize(n):
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


# ---------------------------------------------------------------------------
# sparse multivariate integer polynomials for rational functions
# ---------------------------------------------------------------------------
# representation: dict mapping exponent tuples -> nonzero int


def _mp_add(a, b):
    out = dict(a)
    for k, v in b.items():
        s = out.get(k, 0) + v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def _mp_neg(a):
    return {k: -v for k, v in a.items()}


def _mp_mul(a, b):
    if len(b) == 1:
        a, b = b, a
    if len(a) == 1:
        # a monomial times a polynomial: distinct keys stay distinct
        (ka, va), = a.items()
        return {tuple(map(add, ka, kb)): va * vb for kb, vb in b.items()}
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = tuple(map(add, ka, kb))
            s = out.get(k, 0) + va * vb
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return out


def _mp_const(c, nvars):
    return {(0,) * nvars: c} if c else {}


def _mp_lifted(p, key, top, s):
    """p * s * x^(top - key) for an int s and exponents top >= key."""
    if key != top:
        shift = tuple(map(sub, top, key))
        return {tuple(map(add, k, shift)): v * s for k, v in p.items()}
    if s == 1:
        return p
    return {k: v * s for k, v in p.items()}


# Integer products of at least this many term products, whose packed form
# has at most half as many slots, are packed (``_kronecker_mul``); the
# module docstring gives the timings the threshold was chosen from.
_KRONECKER_MIN = 64
_SLOT_TYPECODES = {array(c).itemsize: c for c in "QLIHB"}


def _kronecker_mul(a, b):
    """a * b for integer polynomials by Kronecker substitution, or None
    when the packed product would have more than len(a) * len(b) / 2 slots.

    In each variable, the exponents of a and of b lie above their minimum
    by multiples of one step, the gcd of all those offsets.  Counted in
    steps, the product's exponents in variable i take spans[i] slots, and
    variable i gets the product of the earlier spans as its slot stride:
    each monomial of the product has its own slot, and one int product
    computes every coefficient (Harvey, "Faster polynomial multiplication
    via multipoint Kronecker substitution", J. Symb. Comp. 44, 2009).  No
    product coefficient exceeds max|a| * max|b| * min(len a, len b) in
    magnitude, so a slot one bit wider holds it as a signed digit: adding
    half a slot to every slot makes each digit nonnegative with no carry,
    and the digits are read back off the bytes, as an array when a slot
    is 1, 2, 4 or 8 bytes wide.  The terms come back in ascending slot
    order.
    """
    cols_a, cols_b = list(zip(*a)), list(zip(*b))
    lo_a, lo_b = list(map(min, cols_a)), list(map(min, cols_b))
    steps, spans = [], []
    for ea, eb, la, lb in zip(cols_a, cols_b, lo_a, lo_b):
        step = gcd(*[e - la for e in ea], *[e - lb for e in eb]) or 1
        steps.append(step)
        spans.append((max(ea) - la + max(eb) - lb) // step + 1)
    size = prod(spans)
    if 2 * size > len(a) * len(b):
        return None
    bound = (max(map(abs, a.values())) * max(map(abs, b.values()))
             * min(len(a), len(b)))
    width = ((2 * bound).bit_length() + 7) // 8   # bytes per slot
    if width <= 8:
        width = 1 << (width - 1).bit_length()     # an array item size
    bits = 8 * width
    shifts = list(accumulate(spans[:-1], mul, initial=bits))

    def packed(p, cols, lows):
        at = [0] * len(p)
        for col, low, step, shift in zip(cols, lows, steps, shifts):
            at = [i + (e - low) // step * shift for i, e in zip(at, col)]
        return sum([v << i for v, i in zip(p.values(), at)])

    half = 1 << (bits - 1)
    offset = int.from_bytes(half.to_bytes(width, "little") * size, "little")
    raw = (packed(a, cols_a, lo_a) * packed(b, cols_b, lo_b)
           + offset).to_bytes(size * width, "little")
    code = _SLOT_TYPECODES.get(width)
    if code:
        digits = array(code, raw)
        if sys.byteorder == "big":
            digits.byteswap()
    else:
        digits = [int.from_bytes(raw[i:i + width], "little")
                  for i in range(0, len(raw), width)]
    lows = list(map(add, lo_a, lo_b))
    if len(lows) == 1:
        (low,), (step,) = lows, steps
        return {(low + step * j,): d - half
                for j, d in enumerate(digits) if d != half}
    out = {}
    for j, d in enumerate(digits):
        if d != half:
            exps = []
            for span, low, step in zip(spans, lows, steps):
                j, r = divmod(j, span)
                exps.append(low + step * r)
            out[tuple(exps)] = d - half
    return out


def _zp_mul(a, b):
    """a * b for integer-coefficient polynomials, the products of
    ``_RatFuncs``: one key for two one-term operands, a packed product
    for large ones, else ``_mp_mul``.  ``_mp_mul`` itself stays the
    schoolbook loop, since ``center`` calls it with ``Coeff`` values."""
    if len(a) == 1 == len(b):
        (ka, va), = a.items()
        (kb, vb), = b.items()
        return {tuple(map(add, ka, kb)): va * vb}
    if len(a) > 1 < len(b) and len(a) * len(b) >= _KRONECKER_MIN:
        out = _kronecker_mul(a, b)
        if out is not None:
            return out
    return _mp_mul(a, b)


def _ratfunc_normalize(num, den):
    """Strip shared integer and monomial content; normalize denominator sign."""
    if not den:
        raise DivisionByZero("zero denominator")
    if not num:
        return {}, _mp_const(1, len(next(iter(den))))
    g = gcd(*num.values(), *den.values())
    mins = tuple(map(min, *num, *den))
    if any(mins) or g > 1:
        num = {tuple(map(sub, k, mins)): v // g for k, v in num.items()}
        den = {tuple(map(sub, k, mins)): v // g for k, v in den.items()}
    if den[max(den)] < 0:
        num, den = _mp_neg(num), _mp_neg(den)
    return num, den


def _over_monomial(num, den, one):
    """``_ratfunc_normalize(num, den)`` for a one-term den, with one the
    field's denominator 1: the content gcd is taken with den's one
    coefficient, the monomial minimum with den's one key, and a
    denominator 1 comes back as one itself."""
    if den is one or not num or den == one:
        return num, one
    (key, c), = den.items()
    g = gcd(c, *num.values()) if c != 1 else 1
    if c < 0:
        g = -g
    mins = tuple(map(min, key, *num))
    if any(mins):
        key = tuple(map(sub, key, mins))
        num = {tuple(map(sub, k, mins)): v // g for k, v in num.items()}
    elif g == 1:
        return num, den
    else:
        num = {k: v // g for k, v in num.items()}
    c //= g
    return num, (one if c == 1 and not any(key) else {key: c})


# ---------------------------------------------------------------------------
# rational numbers and cyclotomic coordinates
# ---------------------------------------------------------------------------

_INT_ONLY = frozenset((int,))
_numerator = attrgetter("numerator")
_denominator = attrgetter("denominator")


def _canon(q):
    """q as an int when it is integral, else q (a Fraction)."""
    return q if type(q) is int or q.denominator != 1 else q.numerator


def _cyclo_scaled(vec):
    """(integer vector, common denominator) with vec = integers / den.

    vec may hold any Rationals; a vector of ints comes back as it is."""
    if {*map(type, vec)} <= _INT_ONLY:
        return vec, 1
    den = lcm(*map(_denominator, vec))
    if den == 1:
        return list(map(_numerator, vec)), 1
    return [x.numerator * (den // x.denominator) for x in vec], den


def _cyclo_unscaled(ints, den):
    """The canonical payload of the integer vector ints over den != 0."""
    if den == 1:
        return tuple(ints)
    return tuple(Fraction(c, den) if c % den else c // den for c in ints)


def _cyclo_map(op, *vecs):
    """op applied coordinatewise, with every integral result as an int."""
    out = tuple(map(op, *vecs))
    if {*map(type, out)} <= _INT_ONLY:
        return out
    return tuple(map(_canon, out))


# ---------------------------------------------------------------------------
# contexts: one class per field kind
# ---------------------------------------------------------------------------

RATIONAL = "rational"
CYCLOTOMIC = "cyclotomic"
RATFUNC = "ratfunc"
GALOIS = "galois"


class FieldCtx:
    """One exact coefficient field and the arithmetic of its payloads.

    Construct through the factory staticmethods; each returns the
    subclass for its kind, which owns the payload format of its values
    (see the module docstring).  Instances are immutable and safe to
    share, and two contexts are equal when they describe the same field.
    The one mutable slot, ``_RatFuncs._last``, keeps the last
    specialization map compiled (``specializer``); it changes no value.

    Each subclass validates its descriptor in ``__init__``, embeds a
    rational as a payload (``embed``) and supplies the payload operations
    ``is_zero``, ``add``, ``neg``, ``sub``, ``mul``, ``inv``, ``eq``,
    ``to_str`` and ``as_fraction``, which take and return bare payloads.
    The defaults here serve the kinds that need nothing special: ``sub``
    adds the negation, ``eq`` compares payloads with ``==``, and only +-1
    are roots of unity.
    """

    __slots__ = ()
    level = params = char = modulus = None

    # -- factories ----------------------------------------------------------

    @staticmethod
    def rational():
        return _Rationals()

    @staticmethod
    def cyclotomic(n):
        return _Cyclotomics(n)

    @staticmethod
    def rational_functions(names):
        return _RatFuncs(tuple(names))

    @staticmethod
    def galois(p, modulus):
        return _GaloisField(p, modulus)

    @staticmethod
    def galois_prime(p):
        return _GaloisField(p, (0, 1))

    def __eq__(self, other):
        if not isinstance(other, FieldCtx):
            return NotImplemented
        return (self.kind, self.level, self.params, self.char, self.modulus) == \
            (other.kind, other.level, other.params, other.char, other.modulus)

    def __hash__(self):
        return hash((self.kind, self.level, self.params, self.char, self.modulus))

    # -- element constructors -------------------------------------------------

    def from_fraction(self, q):
        """The value of q, an int or any Rational (its payload: embed)."""
        return Coeff(self, self.embed(q))

    from_int = from_fraction

    def zero(self):
        return self.from_fraction(0)

    def one(self):
        return self.from_fraction(1)

    def param(self, name):
        raise CtxMismatch("parameters only exist in rational-function fields")

    def generator(self):
        """zeta_N for cyclotomic contexts, the modulus root for Galois ones."""
        raise CtxMismatch("generator() needs a cyclotomic or Galois context")

    # -- roots of unity ---------------------------------------------------------

    def unit_group_exponent(self):
        """A multiple of the order of every root of unity in this field."""
        return 2

    def root_of_unity(self, n):
        """A primitive n-th root of unity, when the field has one."""
        if n == 1:
            return self.one()
        if n == 2:
            return self.from_int(-1)
        raise ZeroInput(f"no primitive {n}-th root in {self!r}")

    def multiplicative_order(self, c):
        """Least m >= 1 with c^m = 1 for a nonzero Coeff c, or None.

        The order of every root of unity in the field divides
        E = unit_group_exponent(): c is a root of unity exactly when
        c^E = 1, and then each prime is stripped from E while the power
        stays 1.
        """
        one = self.one()
        n = self.unit_group_exponent()
        if c ** n != one:
            return None
        for p in _factorize(n):
            while n % p == 0 and c ** (n // p) == one:
                n //= p
        return n

    # -- payload defaults -----------------------------------------------------

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def eq(self, a, b):
        return a == b

    def specializer(self, assignment, target):
        """The payload map of ``Coeff.specialize`` (rational functions only)."""
        raise CtxMismatch("specialize applies to rational-function values")

    def pivot_multiple(self, row, lead, p):
        """How exact elimination (``linalg.SpanTracker``) scales a row.

        row is a dict column -> payload, nonzero at column lead, and may
        be scaled in place.  Given p, the entry at lead of a pivot row,
        returns the multiple of that pivot row whose subtraction clears
        row's entry at lead; given p = None, returns the payload a row
        about to be stored is divided by.  Here rows keep leading
        coefficient 1: p is 1, nothing is scaled, and both answers are
        row[lead].
        """
        return row[lead]


class _Rationals(FieldCtx):
    """Q.  Payload: an int, or a Fraction with denominator > 1."""

    __slots__ = ()
    kind = RATIONAL

    def __repr__(self):
        return "Q"

    def embed(self, q):
        return q if type(q) is int else _canon(Fraction(q))

    def is_zero(self, a):
        return not a

    def add(self, a, b):
        return _canon(a + b)

    def neg(self, a):
        return _canon(-a)

    def sub(self, a, b):
        return _canon(a - b)

    def mul(self, a, b):
        return _canon(a * b)

    def inv(self, a):
        if not a:
            raise DivisionByZero("inverse of zero")
        return _canon(Fraction(a.denominator, a.numerator))

    def pivot_multiple(self, row, lead, p):
        """Rows over Q are primitive integer vectors, so elimination
        builds no Fraction.  row is cleared of denominators and divided
        by its content; then, with a its entry at lead and g = gcd(a, p),
        it is multiplied by p / g and the multiple returned is a / g.  A
        primitive row is stored as it is (p = None returns 1)."""
        try:
            content = gcd(*row.values())
        except TypeError:  # a Fraction entry
            den = lcm(*map(_denominator, row.values()))
            for col, v in row.items():
                row[col] = v.numerator * (den // v.denominator)
            content = gcd(*row.values())
        if content != 1:
            for col, v in row.items():
                row[col] = v // content
        if p is None:
            return 1
        a = row[lead]
        g = gcd(a, p)
        if p != g:
            scale = p // g
            for col, v in row.items():
                row[col] = v * scale
        return a // g

    def to_str(self, a):
        return _decimal(a)

    def as_fraction(self, a):
        return Fraction(a)


# the largest N of a field Q(zeta_N)
MAX_CYCLOTOMIC_LEVEL = 1000


class _Cyclotomics(FieldCtx):
    """Q(zeta_N).  Payload: a tuple of phi(N) rational numbers, each an
    int or a Fraction with denominator > 1, the coordinates in the power
    basis modulo Phi_N."""

    __slots__ = ("level", "_phi", "_dim", "_reduce_table")
    kind = CYCLOTOMIC

    def __init__(self, level):
        if level < 1:
            raise InvalidField("cyclotomic level must be >= 1")
        # checked before Phi_N is built: the reduction table holds phi(N)^2
        # entries, about 8 MB at N = 1009
        if level > MAX_CYCLOTOMIC_LEVEL:
            raise InvalidField("cyclotomic level must be <= "
                               f"{MAX_CYCLOTOMIC_LEVEL}")
        self.level = level
        self._phi = phi = cyclotomic_polynomial(level)
        self._dim = len(phi) - 1
        self._reduce_table = _reduction_table(phi)

    def __repr__(self):
        return f"Q(z{self.level})"

    def embed(self, q):
        q = q if type(q) is int else _canon(Fraction(q))
        return (q,) + (0,) * (self._dim - 1)

    def generator(self):
        if self._dim == 1:
            # Phi_1 = x - 1, Phi_2 = x + 1: zeta is rational
            return self.from_int(1 if self.level == 1 else -1)
        return Coeff(self, (0, 1) + (0,) * (self._dim - 2))

    def unit_group_exponent(self):
        return self.level if self.level % 2 == 0 else 2 * self.level

    def root_of_unity(self, n):
        big = self.unit_group_exponent()
        if n < 1 or big % n != 0:
            raise ZeroInput(f"no primitive {n}-th root in {self!r}")
        zeta = self.generator()
        if self.level % 2 == 1:
            zeta = -(zeta ** ((self.level + 1) // 2))  # order 2N element
        return zeta ** (big // n)

    def is_zero(self, a):
        return not any(a)

    def add(self, a, b):
        return _cyclo_map(add, a, b)

    def neg(self, a):
        return _cyclo_map(neg, a)

    def sub(self, a, b):
        return _cyclo_map(sub, a, b)

    def mul(self, a, b):
        if any(a[1:]):
            if not any(b[1:]):
                return self._scalar_mul(b[0], a)
        else:
            return self._scalar_mul(a[0], b)
        xs, dx = _cyclo_scaled(a)
        ys, dy = _cyclo_scaled(b)
        return _cyclo_unscaled(_mul_mod(xs, ys, self._reduce_table), dx * dy)

    def _scalar_mul(self, s, vec):
        """The payload of the rational s times vec, coordinatewise."""
        if not s:
            return (0,) * self._dim
        if s == 1:
            return _cyclo_map(pos, vec)
        if s == -1:
            return _cyclo_map(neg, vec)
        return _cyclo_map(partial(mul, s), vec)

    def _sigma(self, xs, k):
        """The integer vector of sigma_k(xs), the automorphism zeta ->
        zeta^k: exponent i goes to i k mod N, then the vector is reduced
        modulo Phi_N (monic, degree d) by long division."""
        n, phi, d = self.level, self._phi, self._dim
        vec = [0] * n
        for i, x in enumerate(xs):
            if x:
                vec[i * k % n] += x
        for top in range(n - 1, d - 1, -1):
            c = vec[top]
            if c:
                for j in range(d):
                    vec[top - d + j] -= c * phi[j]
        return vec[:d]

    def inv(self, a):
        """The payload v with a * v = 1, for a = xs / den.

        a^-1 = den a* / N(xs), where a* is a product of Galois conjugates
        sigma_k(xs) and xs a* = N(xs) is rational (the norm).  A payload
        with one nonzero coordinate, c zeta^k, takes a* = sigma_-1(xs),
        so N = c^2; any other takes the product over the units k != 1
        mod N, its norm being the constant coordinate of xs a*."""
        xs, den = _cyclo_scaled(a)
        nonzero = [x for x in xs if x]
        if not nonzero:
            raise DivisionByZero("inverse of zero")
        if len(nonzero) == 1:
            star, norm = self._sigma(xs, -1), nonzero[0] ** 2
        else:
            n, table = self.level, self._reduce_table
            star = reduce(partial(_mul_mod, table=table),
                          [self._sigma(xs, k) for k in range(2, n)
                           if gcd(k, n) == 1])
            norm = _mul_mod(xs, star, table)[0]
        return _cyclo_unscaled([den * x for x in star], norm)

    def to_str(self, a):
        return _power_basis_str(a, f"z{self.level}")

    def as_fraction(self, a):
        return None if any(a[1:]) else Fraction(a[0])


class _RatFuncs(FieldCtx):
    """Q(params).  Payload: (numerator, denominator), two sparse integer
    polynomials in the parameters, normalized by ``_ratfunc_normalize``
    but not reduced by a gcd, so one value can have several payloads.
    A denominator 1 is, where this class builds it, the one dict
    ``_one_den``, which the monomial-denominator path tests by identity
    first.  ``_last`` is the last specialization map compiled, as one
    (target, payloads, map) tuple."""

    __slots__ = ("params", "_one_den", "_last")
    kind = RATFUNC

    def __init__(self, params):
        if len(set(params)) != len(params):
            raise InvalidField("duplicate parameter names")
        self.params = params
        self._one_den = _mp_const(1, len(params))
        self._last = (None, (), None)

    def __repr__(self):
        return "Q(" + ",".join(self.params) + ")"

    def embed(self, q):
        if type(q) is not int:
            q = Fraction(q)
        n = len(self.params)
        if q.denominator == 1:
            return _mp_const(q.numerator, n), self._one_den
        return _mp_const(q.numerator, n), _mp_const(q.denominator, n)

    def param(self, name):
        if name not in self.params:
            raise UnassignedParameter(f"unknown parameter {name!r}")
        i = self.params.index(name)
        n = len(self.params)
        key = tuple(1 if j == i else 0 for j in range(n))
        return Coeff(self, ({key: 1}, self._one_den))

    def is_zero(self, a):
        return not a[0]

    def add(self, x, y):
        (a, b), (c, d) = x, y
        if len(b) == 1 == len(d):
            # over the lcm of the monomials, b itself when d is b: no
            # cross-multiplication
            if b != d:
                (kb, vb), = b.items()
                (kd, vd), = d.items()
                top, m = tuple(map(max, kb, kd)), lcm(vb, vd)
                a, c = (_mp_lifted(a, kb, top, m // vb),
                        _mp_lifted(c, kd, top, m // vd))
                b = {top: m}
            return _over_monomial(_mp_add(a, c), b, self._one_den)
        return _ratfunc_normalize(_mp_add(_zp_mul(a, d), _zp_mul(c, b)),
                                  _zp_mul(b, d))

    def neg(self, x):
        return _mp_neg(x[0]), x[1]

    def mul(self, x, y):
        (a, b), (c, d) = x, y
        if len(b) == 1 == len(d):
            one = self._one_den
            # the shared denominator 1 is the unit of the monomial product
            den = d if b is one else b if d is one else _zp_mul(b, d)
            return _over_monomial(_zp_mul(a, c), den, one)
        return _ratfunc_normalize(_zp_mul(a, c), _zp_mul(b, d))

    def inv(self, x):
        return _ratfunc_normalize(x[1], x[0])

    def eq(self, x, y):
        (a, b), (c, d) = x, y
        if b == d:
            return a == c
        return _zp_mul(a, d) == _zp_mul(c, b)

    def specializer(self, assignment, target):
        """The payload map substituting assignment[name], a Coeff of
        target, for each parameter (``_specialization_map``).

        The field keeps the last map it compiled and returns it again
        for the same target object and the same assigned payload objects,
        so a run of ``Coeff.specialize`` calls at one assignment compiles
        one map.  The assignment is checked on every call, before a map
        is reused."""
        values = [assignment.get(name) for name in self.params]
        # by identity: ``None in values`` would call Coeff.__eq__
        for name, a in zip(self.params, values):
            if a is None:
                raise UnassignedParameter(name)
        if not all(isinstance(a, Coeff)
                   and (a.ctx is target or a.ctx == target) for a in values):
            raise CtxMismatch(f"an assigned value is not in {target!r}")
        payloads = tuple(a.val for a in values)
        last_target, last_payloads, at = self._last
        # by identity: equal payloads can differ in form (Fraction or int
        # coordinates), and the map returns the payloads it was built with
        if last_target is not target or not all(map(is_, payloads,
                                                    last_payloads)):
            at = _specialization_map(self.params, self._one_den, payloads,
                                     target)
            self._last = (target, payloads, at)
        return at

    def to_str(self, x):
        return _ratfunc_str(x, self.params, self._one_den)

    def as_fraction(self, x):
        """The Fraction x equals when it is a rational constant, else None."""
        num, den = x
        keys = self._one_den.keys()
        if (num and num.keys() != keys) or den.keys() != keys:
            return None
        (key,) = keys
        return Fraction(num.get(key, 0), den[key])


def _ratfunc_str(x, params, one_den):
    """A rational-function payload as text (``_RatFuncs.to_str``)."""
    num, den = x
    ns = _mp_to_str(num, params)
    if den == one_den:
        return ns
    return f"({ns})/({_mp_to_str(den, params)})"


def _specialization_map(params, one_den, values, target):
    """The payload map of Q(params) into target that substitutes the
    payload values[i] for params[i].  Each parameter's powers are built
    once, by repeated multiplication, each monomial is evaluated once,
    and a denominator equal to 1 is not inverted.  Every memo writes one
    value per key, so a map shared by threads stays exact; the map
    refers to no field context but target."""
    add, mul, embed = target.add, target.mul, target.embed
    one, zero = embed(1), embed(0)
    # powers[i][e] is values[i]^e, filled in upward from the largest
    # exponent already known
    powers, monomials = [{0: one, 1: a} for a in values], {}

    def power(pw, e):
        v = pw.get(e)
        if v is None:
            k = e - 1
            while k not in pw:
                k -= 1
            v = pw[k]
            while k < e:
                k += 1
                v = mul(v, pw[1])
                pw[k] = v
        return v

    def evaluate(poly):
        total = zero
        for exps, c in poly.items():
            term = monomials.get(exps)
            if term is None:
                factors = [power(pw, e) for pw, e in zip(powers, exps) if e]
                term = reduce(mul, factors) if factors else one
                monomials[exps] = term
            if c != 1:
                term = target.neg(term) if c == -1 else mul(embed(c), term)
            total = term if total is zero else add(total, term)
        return total

    def specialize(x):
        if x[1] == one_den:
            return evaluate(x[0])
        den = evaluate(x[1])
        if target.is_zero(den):
            raise DenominatorVanishes(_ratfunc_str(x, params, one_den))
        return mul(evaluate(x[0]), target.inv(den))
    return specialize


class _GaloisField(FieldCtx):
    """GF(p^k).  Payload: a tuple of k ints in [0, p), the coordinates in
    the power basis modulo the monic irreducible modulus."""

    __slots__ = ("char", "modulus", "_dim", "_unit_order", "_reduce_table")
    kind = GALOIS

    def __init__(self, char, modulus):
        if not (2 <= char <= 101) or _factorize(char) != {char: 1}:
            raise InvalidField("Galois characteristic must be a prime <= 101")
        mod = _trim([c % char for c in modulus])
        if len(mod) - 1 < 1 or len(mod) - 1 > 6:
            raise InvalidField("modulus degree must be between 1 and 6")
        inv_lead = pow(mod[-1], char - 2, char)
        mod = [c * inv_lead % char for c in mod]
        if not _gf_irreducible(mod, char):
            raise InvalidField("modulus is reducible over GF(p)")
        self.char = char
        self.modulus = tuple(mod)
        self._dim = len(mod) - 1
        self._unit_order = char ** self._dim - 1
        self._reduce_table = _reduction_table(mod)

    def __repr__(self):
        return f"GF({self.char}^{self._dim})"

    def embed(self, q):
        if type(q) is not int:
            q = Fraction(q)
        p = self.char
        if q.denominator % p == 0:
            raise DivisionByZero("denominator divisible by the characteristic")
        val = q.numerator * pow(q.denominator, p - 2, p) % p
        return (val,) + (0,) * (self._dim - 1)

    def generator(self):
        if self._dim == 1:
            raise CtxMismatch("prime field has no extension generator")
        return Coeff(self, (0, 1) + (0,) * (self._dim - 2))

    def units(self):
        """Every nonzero element, the first coordinate varying fastest."""
        for vec in product(range(self.char), repeat=self._dim):
            if any(vec):
                yield Coeff(self, vec[::-1])

    def unit_group_exponent(self):
        return self._unit_order

    def _primitive_root(self):
        """The first unit of order q - 1: its (q-1)/p-th power is not 1
        for any prime p of q - 1."""
        order, one = self._unit_order, self.one()
        primes = _factorize(order)
        return next(g for g in self.units()
                    if all(g ** (order // p) != one for p in primes))

    def root_of_unity(self, n):
        """g^((q-1)/n) for the primitive root g, when n divides q - 1."""
        # -1 = 1 in characteristic 2, where q - 1 is odd: no 2-th root
        if n < 1 or self._unit_order % n != 0:
            raise ZeroInput(f"no {n}-th root in {self!r}")
        return self._primitive_root() ** (self._unit_order // n)

    def sqrt(self, c):
        """A square root of the Coeff c, or None when c is no square.

        With q = p^k, squaring is a bijection in characteristic 2, where
        the root is c^(q/2).  Otherwise Tonelli-Shanks: c != 0 is a square
        exactly when c^((q-1)/2) = 1 (Euler's criterion); with q - 1 =
        2^s t, t odd, the guess c^((t+1)/2) is off by a factor whose
        order divides 2^(s-1), cleared one bit at a time by powers of
        z^t for the primitive root z, which is no square.
        """
        order = self._unit_order
        if c.is_zero() or self.char == 2:
            return c ** ((order + 1) // 2)
        one, half = self.one(), order // 2
        if c ** half != one:
            return None
        s, t = 0, order
        while t % 2 == 0:
            s, t = s + 1, t // 2
        z = self._primitive_root()
        # invariant: root^2 = c * err, and err^(2^(s-1)) = 1 = gen^(2^s)
        gen, root, err = z ** t, c ** ((t + 1) // 2), c ** t
        while err != one:
            i, sq = 0, err
            while sq != one:
                i, sq = i + 1, sq * sq
            step = gen ** (1 << (s - i - 1))
            s, gen = i, step * step
            root, err = root * step, err * gen
        return root

    def is_zero(self, a):
        return not any(a)

    def add(self, a, b):
        p = self.char
        return tuple((x + y) % p for x, y in zip(a, b))

    def neg(self, a):
        p = self.char
        return tuple((-x) % p for x in a)

    def mul(self, a, b):
        p = self.char
        return tuple([c % p for c in _mul_mod(a, b, self._reduce_table)])

    def inv(self, a):
        """a^(p^k - 2), the inverse of a nonzero a."""
        if not any(a):
            raise DivisionByZero("inverse of zero")
        return tuple(_gf_powmod(a, self._unit_order - 1, self._reduce_table,
                                self.char))

    def to_str(self, a):
        return _power_basis_str(a, "a")

    def as_fraction(self, a):
        """None: no Fraction names an element of a Galois field."""
        return None


# ---------------------------------------------------------------------------
# coefficients
# ---------------------------------------------------------------------------


class Coeff:
    """One exact field element: a context and a payload.

    ``ctx`` is the ``FieldCtx`` of the value, and its class owns the
    payload format of ``val``.  Each method coerces its operand and
    makes one call on ``ctx``; every result is a ``Coeff`` in the same
    context.  ``Coeff(ctx, val)`` accepts any Rationals where the payload
    holds rational numbers, and ``as_fraction`` answers a Fraction or None.
    """

    __slots__ = ("ctx", "val")

    def __init__(self, ctx, val):
        self.ctx = ctx
        self.val = val

    # -- helpers -------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Coeff):
            if other.ctx is not self.ctx and other.ctx != self.ctx:
                raise CtxMismatch(f"{self.ctx!r} vs {other.ctx!r}")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ctx.from_fraction(other)
        return None

    def is_zero(self):
        return self.ctx.is_zero(self.val)

    def is_one(self):
        return (self - 1).is_zero()

    def __bool__(self):
        return not self.is_zero()

    # -- ring operations -------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Coeff(self.ctx, self.ctx.add(self.val, other.val))

    __radd__ = __add__

    def __neg__(self):
        return Coeff(self.ctx, self.ctx.neg(self.val))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Coeff(self.ctx, self.ctx.sub(self.val, other.val))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Coeff(self.ctx, self.ctx.sub(other.val, self.val))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Coeff(self.ctx, self.ctx.mul(self.val, other.val))

    __rmul__ = __mul__

    def inv(self):
        if self.ctx.is_zero(self.val):
            raise DivisionByZero("inverse of zero")
        return Coeff(self.ctx, self.ctx.inv(self.val))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inv()

    def __pow__(self, e):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return self.inv() ** (-e)
        if not e:
            return self.ctx.one()
        # from the base down the bits of e past the top one
        mul, val = self.ctx.mul, self.val
        for bit in bin(e)[3:]:
            val = mul(val, val)
            if bit == "1":
                val = mul(val, self.val)
        return Coeff(self.ctx, val)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.ctx.eq(self.val, other.val)

    # no __hash__: rational-function equality is by cross-multiplication, so
    # equal values can have different representations
    __hash__ = None

    def __repr__(self):
        return self.ctx.to_str(self.val)

    # -- field-specific queries -------------------------------------------------

    def multiplicative_order(self):
        """Least m >= 1 with self^m = 1, or None if not a root of unity."""
        if self.is_zero():
            raise ZeroInput("zero has no multiplicative order")
        return self.ctx.multiplicative_order(self)

    def as_fraction(self):
        """The Fraction this value equals, or None if it is not a rational
        number (or lives in a Galois field, where no Fraction names it)."""
        return self.ctx.as_fraction(self.val)

    def specialize(self, assignment, target_ctx):
        """Evaluate a rational-function value by substituting parameters:
        assignment maps every parameter name to a Coeff in target_ctx.
        Raises DenominatorVanishes when the point is outside the domain."""
        at = self.ctx.specializer(assignment, target_ctx)
        return Coeff(target_ctx, at(self.val))



# ---------------------------------------------------------------------------
# the coefficient expression grammar
# ---------------------------------------------------------------------------
# integers, + - * / ^ with integer exponents, parameter identifiers, zN for
# the N-th root of unity.  Whitespace insignificant.


class _Tok:
    __slots__ = ("kind", "text")

    def __init__(self, kind, text):
        self.kind = kind
        self.text = text


def _tokenize(s):
    toks, i = [], 0
    while i < len(s):
        c = s[i]
        if c.isspace():
            i += 1
        elif c.isdigit():
            j = i
            while j < len(s) and s[j].isdigit():
                j += 1
            toks.append(_Tok("int", s[i:j]))
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < len(s) and (s[j].isalnum() or s[j] == "_"):
                j += 1
            toks.append(_Tok("ident", s[i:j]))
            i = j
        elif c in "+-*/^()":
            toks.append(_Tok(c, c))
            i += 1
        else:
            raise ParseError(f"unexpected character {c!r}")
    toks.append(_Tok("end", ""))
    return toks


def int_literal(text, what):
    """int(text) for a run of digits, or a ParseError where int refuses
    it: digits that are not ASCII, or more digits than the interpreter's
    limit on integer strings (sys.get_int_max_str_digits())."""
    try:
        return int(text)
    except ValueError:
        shown = text if len(text) <= 20 else \
            f"{text[:20]}... ({len(text)} digits)"
        raise ParseError(f"the {what} {shown} is not a readable "
                         "integer") from None


class _CoeffParser:
    def __init__(self, text, ctx):
        self.toks = _tokenize(text)
        self.pos = 0
        self.ctx = ctx

    def peek(self):
        return self.toks[self.pos]

    def eat(self, kind=None):
        t = self.toks[self.pos]
        if kind and t.kind != kind:
            raise ParseError(f"expected {kind}, got {t.text!r}")
        self.pos += 1
        return t

    def parse(self):
        v = self.expr()
        if self.peek().kind != "end":
            raise ParseError(f"trailing input at {self.peek().text!r}")
        return v

    def expr(self):
        t = self.peek()
        if t.kind == "-":
            self.eat()
            v = -self.term()
        else:
            v = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.eat().kind
            rhs = self.term()
            v = v + rhs if op == "+" else v - rhs
        return v

    def term(self):
        v = self.factor()
        while self.peek().kind in ("*", "/"):
            op = self.eat().kind
            rhs = self.factor()
            v = v * rhs if op == "*" else v / rhs
        return v

    def factor(self):
        t = self.peek()
        if t.kind == "-":
            self.eat()
            return -self.factor()
        v = self.atom()
        while self.peek().kind == "^":
            self.eat()
            sign = 1
            if self.peek().kind == "-":
                self.eat()
                sign = -1
            e = int_literal(self.eat("int").text, "exponent")
            v = v ** (sign * e)
        return v

    def atom(self):
        t = self.peek()
        if t.kind == "int":
            self.eat()
            return self.ctx.from_int(int_literal(t.text, "integer"))
        if t.kind == "(":
            self.eat()
            v = self.expr()
            self.eat(")")
            return v
        if t.kind == "ident":
            self.eat()
            return self.ident_value(t.text)
        raise ParseError(f"unexpected token {t.text!r}")

    def ident_value(self, name):
        if name.startswith("z") and name[1:].isdigit():
            n = int_literal(name[1:], "root-of-unity level")
            return self.ctx.root_of_unity(n)
        if name == "a" and self.ctx.kind == GALOIS:
            return self.ctx.generator()
        if self.ctx.kind == RATFUNC and name in self.ctx.params:
            return self.ctx.param(name)
        raise ParseError(f"unknown identifier {name!r} in {self.ctx!r}")


def parse_coeff(text, ctx):
    return _CoeffParser(text, ctx).parse()


def _decimal(x):
    """str(x) of an int or Fraction, or a NumberTooLarge where the
    interpreter refuses to write it out; every payload number is printed
    through here."""
    try:
        return str(x)
    except ValueError:
        raise NumberTooLarge(
            "a number with more than the interpreter's limit of "
            f"{sys.get_int_max_str_digits()} decimal digits cannot be "
            "printed") from None


def _power_basis_str(coords, name):
    """sum_e coords[e] name^e, lowest power first, e.g. '1-z3+2*z3^2'."""
    parts = []
    for e, c in enumerate(coords):
        if not c:
            continue
        if e == 0:
            body = _decimal(abs(c))
        else:
            mag = "" if abs(c) == 1 else f"{_decimal(abs(c))}*"
            body = f"{mag}{name}" + (f"^{e}" if e > 1 else "")
        parts.append(("-" if c < 0 else "+") + body)
    if not parts:
        return "0"
    out = "".join(parts)
    return out[1:] if out.startswith("+") else out


def _mp_to_str(poly, names):
    if not poly:
        return "0"
    parts = []
    for exps in sorted(poly, reverse=True):
        c = poly[exps]
        factors = []
        if abs(c) != 1 or not any(exps):
            factors.append(_decimal(abs(c)))
        for name, e in zip(names, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        body = "*".join(factors)
        parts.append(("-" if c < 0 else "+") + body)
    out = "".join(parts)
    return out[1:] if out.startswith("+") else out


def coeff_to_str(c):
    """Render a coefficient in the expression grammar (round-trippable)."""
    return c.ctx.to_str(c.val)
