"""Exact coefficient fields.

Four kinds of context are supported: the rationals, cyclotomic fields
Q(zeta_N), fields of rational functions in named parameters over Q, and
Galois fields GF(p^k) with p <= 101 and k <= 6.  Every value is exact;
there is no floating point anywhere.

Rational-function values are stored as uncanonicalized fractions of
multivariate integer polynomials.  Equality is decided by
cross-multiplication and zero testing by the numerator, so no
multivariate GCD is ever needed; only cheap integer/monomial content is
stripped to keep growth in check.
"""

from fractions import Fraction
from math import gcd

from .errors import (
    CtxMismatch,
    DenominatorVanishes,
    DivisionByZero,
    ParseError,
    UnassignedParameter,
    ZeroInput,
)

# ---------------------------------------------------------------------------
# integer polynomial helpers (dense lists, ascending degree) for cyclotomics
# ---------------------------------------------------------------------------


def _trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _polymul_int(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(out)


def _polydiv_int_exact(num, den):
    """Exact division of integer polynomials; raises if not exact."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    lead = den[-1]
    for k in range(len(out) - 1, -1, -1):
        c = num[k + len(den) - 1]
        if c % lead != 0:
            raise ArithmeticError("inexact polynomial division")
        q = c // lead
        out[k] = q
        if q:
            for j, d in enumerate(den):
                num[k + j] -= q * d
    if any(num[: len(den) - 1]):
        raise ArithmeticError("inexact polynomial division")
    return _trim(out)


def _qpoly_divmod(num, den):
    num = list(num)
    quot = [Fraction(0)] * max(0, len(num) - len(den) + 1)
    for k in range(len(quot) - 1, -1, -1):
        c = num[k + len(den) - 1] / den[-1]
        quot[k] = c
        if c:
            for j, x in enumerate(den):
                num[k + j] -= c * x
    while num and num[-1] == 0:
        num.pop()
    return quot, num


def _qpoly_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    while out and out[-1] == 0:
        out.pop()
    return out


def _qpoly_sub(a, b):
    n = max(len(a), len(b))
    out = [(a[i] if i < len(a) else Fraction(0)) -
           (b[i] if i < len(b) else Fraction(0)) for i in range(n)]
    while out and out[-1] == 0:
        out.pop()
    return out


def divisors(n):
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def cyclotomic_polynomial(n):
    """Coefficients (ascending, monic) of Phi_n, by exact recursive division."""
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in divisors(n)[:-1]:
        poly = _polydiv_int_exact(poly, cyclotomic_polynomial(d)) if d > 1 else \
            _polydiv_int_exact(poly, [-1, 1])
    if n == 1:
        return [-1, 1]
    return poly


def euler_phi(n):
    out, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            out *= p - 1
            m //= p
            while m % p == 0:
                out *= p
                m //= p
        p += 1
    if m > 1:
        out *= m - 1
    return out


# ---------------------------------------------------------------------------
# GF(p) polynomial helpers (dense lists, ascending degree)
# ---------------------------------------------------------------------------


def _gf_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _gf_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _gf_trim(out)


def _gf_mod(a, mod, p):
    a = list(a)
    inv_lead = pow(mod[-1], p - 2, p)
    while len(a) >= len(mod):
        c = a[-1] % p
        if c:
            q = c * inv_lead % p
            shift = len(a) - len(mod)
            for j, d in enumerate(mod):
                a[shift + j] = (a[shift + j] - q * d) % p
        a.pop()
        _gf_trim(a)
    return a


def _gf_powmod(a, e, mod, p):
    result = [1]
    base = _gf_mod(a, mod, p)
    while e:
        if e & 1:
            result = _gf_mod(_gf_mul(result, base, p), mod, p)
        base = _gf_mod(_gf_mul(base, base, p), mod, p)
        e >>= 1
    return result


def _gf_gcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        a = _gf_mod(a, b, p)
        a, b = b, a
    return a


def _gf_irreducible(mod, p):
    """Deciding irreducibility of a monic polynomial over GF(p).

    Degrees 2 and 3 are settled by exhaustive root search; degrees 4-6 use
    the deterministic x^(p^d) = x criterion with gcd checks at maximal
    proper divisors.
    """
    d = len(mod) - 1
    if d <= 1:
        return d == 1
    if d <= 3:
        for r in range(p):
            acc = 0
            for c in reversed(mod):
                acc = (acc * r + c) % p
            if acc == 0:
                return False
        if d <= 3:
            return True
    x = [0, 1]
    xm = _gf_mod(x, mod, p)
    if _gf_powmod(x, p ** d, mod, p) != xm:
        return False
    for r in {q for q in (2, 3, 5) if d % q == 0}:
        t = _gf_powmod(x, p ** (d // r), mod, p)
        n = max(len(t), len(xm))
        diff = [((t[i] if i < len(t) else 0) - (xm[i] if i < len(xm) else 0)) % p
                for i in range(n)]
        g = _gf_gcd(list(mod), _gf_trim(diff), p)
        if len(g) > 1:
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
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            s = out.get(k, 0) + va * vb
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return out


def _mp_const(c, nvars):
    return {(0,) * nvars: c} if c else {}


def _ratfunc_normalize(num, den):
    """Strip shared integer and monomial content; normalize denominator sign."""
    if not den:
        raise DivisionByZero("zero denominator")
    if not num:
        return {}, _mp_const(1, len(next(iter(den))))
    g = 0
    for v in num.values():
        g = gcd(g, v)
    for v in den.values():
        g = gcd(g, v)
    mins = None
    for k in list(num) + list(den):
        mins = k if mins is None else tuple(min(a, b) for a, b in zip(mins, k))
    if any(mins) or g > 1:
        num = {tuple(e - m for e, m in zip(k, mins)): v // g for k, v in num.items()}
        den = {tuple(e - m for e, m in zip(k, mins)): v // g for k, v in den.items()}
    if den[max(den)] < 0:
        num, den = _mp_neg(num), _mp_neg(den)
    return num, den


# ---------------------------------------------------------------------------
# contexts
# ---------------------------------------------------------------------------

RATIONAL = "rational"
CYCLOTOMIC = "cyclotomic"
RATFUNC = "ratfunc"
GALOIS = "galois"


class FieldCtx:
    """Descriptor of one exact coefficient field.

    Construct through the factory classmethods; instances are immutable
    and safe to share.
    """

    __slots__ = ("kind", "level", "params", "char", "modulus", "_phi",
                 "_dim", "_reduce_table", "_unit_order")

    def __init__(self, kind, level=None, params=None, char=None, modulus=None):
        self.kind = kind
        self.level = level
        self.params = params
        self.char = char
        self.modulus = modulus
        self._phi = None
        self._dim = None
        self._reduce_table = None
        self._unit_order = None
        if kind == CYCLOTOMIC:
            if level < 1:
                raise ValueError("cyclotomic level must be >= 1")
            self._phi = cyclotomic_polynomial(level)
            self._dim = len(self._phi) - 1
            self._reduce_table = self._build_reduce_table()
        elif kind == RATFUNC:
            if len(set(params)) != len(params):
                raise ValueError("duplicate parameter names")
        elif kind == GALOIS:
            if not (2 <= char <= 101) or not _is_prime(char):
                raise ValueError("Galois characteristic must be a prime <= 101")
            mod = [c % char for c in modulus]
            while mod and mod[-1] == 0:
                mod.pop()
            if len(mod) - 1 < 1 or len(mod) - 1 > 6:
                raise ValueError("modulus degree must be between 1 and 6")
            inv_lead = pow(mod[-1], char - 2, char)
            mod = [c * inv_lead % char for c in mod]
            if not _gf_irreducible(mod, char):
                raise ValueError("modulus is reducible over GF(p)")
            self.modulus = tuple(mod)
            self._dim = len(mod) - 1
            self._unit_order = char ** self._dim - 1

    # -- factories ----------------------------------------------------------

    @classmethod
    def rational(cls):
        return cls(RATIONAL)

    @classmethod
    def cyclotomic(cls, n):
        return cls(CYCLOTOMIC, level=n)

    @classmethod
    def rational_functions(cls, names):
        return cls(RATFUNC, params=tuple(names))

    @classmethod
    def galois(cls, p, modulus):
        return cls(GALOIS, char=p, modulus=tuple(modulus))

    @classmethod
    def galois_prime(cls, p):
        return cls(GALOIS, char=p, modulus=(0, 1))

    # -- plumbing ------------------------------------------------------------

    def _build_reduce_table(self):
        # x^k mod Phi_N for phi(N) <= k <= 2 phi(N) - 2, integer vectors
        d = self._dim
        table = []
        prev = [-c for c in self._phi[:-1]]  # x^d
        table.append(prev)
        for _ in range(d - 2):
            nxt = [0] + prev[:-1]  # multiply by x
            top = prev[-1]
            if top:  # reduce the overflow into x^d again
                nxt = [a - top * c for a, c in zip(nxt, self._phi[:-1])]
            table.append(nxt)
            prev = nxt
        return table

    def __eq__(self, other):
        if not isinstance(other, FieldCtx):
            return NotImplemented
        return (self.kind, self.level, self.params, self.char, self.modulus) == \
            (other.kind, other.level, other.params, other.char, other.modulus)

    def __hash__(self):
        return hash((self.kind, self.level, self.params, self.char, self.modulus))

    def __repr__(self):
        if self.kind == RATIONAL:
            return "Q"
        if self.kind == CYCLOTOMIC:
            return f"Q(z{self.level})"
        if self.kind == RATFUNC:
            return "Q(" + ",".join(self.params) + ")"
        return f"GF({self.char}^{self._dim})"

    # -- element constructors -------------------------------------------------

    def zero(self):
        return self.from_fraction(Fraction(0))

    def one(self):
        return self.from_fraction(Fraction(1))

    def from_int(self, n):
        return self.from_fraction(Fraction(n))

    def from_fraction(self, q):
        q = Fraction(q)
        if self.kind == RATIONAL:
            return Coeff(self, q)
        if self.kind == CYCLOTOMIC:
            vec = [Fraction(0)] * self._dim
            if q:
                vec[0] = q
            return Coeff(self, tuple(vec))
        if self.kind == RATFUNC:
            n = len(self.params)
            return Coeff(self, (_mp_const(q.numerator, n),
                                _mp_const(q.denominator, n)))
        if q.denominator % self.char == 0:
            raise DivisionByZero("denominator divisible by the characteristic")
        val = q.numerator * pow(q.denominator, self.char - 2, self.char) % self.char
        vec = [0] * self._dim
        vec[0] = val
        return Coeff(self, tuple(vec))

    def param(self, name):
        if self.kind != RATFUNC:
            raise CtxMismatch("parameters only exist in rational-function fields")
        if name not in self.params:
            raise UnassignedParameter(f"unknown parameter {name!r}")
        i = self.params.index(name)
        n = len(self.params)
        key = tuple(1 if j == i else 0 for j in range(n))
        return Coeff(self, ({key: 1}, _mp_const(1, n)))

    def generator(self):
        """zeta_N for cyclotomic contexts, the modulus root for Galois ones."""
        if self.kind == CYCLOTOMIC:
            if self._dim == 1:
                # Phi_1 = x - 1, Phi_2 = x + 1: zeta is rational
                return self.from_int(1 if self.level == 1 else -1)
            vec = [Fraction(0)] * self._dim
            vec[1] = Fraction(1)
            return Coeff(self, tuple(vec))
        if self.kind == GALOIS:
            if self._dim == 1:
                raise CtxMismatch("prime field has no extension generator")
            vec = [0] * self._dim
            vec[1] = 1
            return Coeff(self, tuple(vec))
        raise CtxMismatch("generator() needs a cyclotomic or Galois context")

    def unit_group_exponent(self):
        """Order bound for roots of unity living in this field."""
        if self.kind == CYCLOTOMIC:
            return self.level if self.level % 2 == 0 else 2 * self.level
        if self.kind == GALOIS:
            return self._unit_order
        return 2

    def root_of_unity(self, n):
        """A primitive n-th root of unity, when the field has one."""
        if n == 1:
            return self.one()
        if n == 2:
            return self.from_int(-1)
        if self.kind == CYCLOTOMIC:
            big = self.unit_group_exponent()
            if big % n != 0:
                raise ZeroInput(f"no primitive {n}-th root in {self!r}")
            zeta = self.generator()
            if self.level % 2 == 1:
                zeta = -(zeta ** ((self.level + 1) // 2))  # order 2N element
            return zeta ** (big // n)
        if self.kind == GALOIS:
            if self._unit_order % n != 0:
                raise ZeroInput(f"no {n}-th root in {self!r}")
            if self.char ** self._dim > 100000:
                raise ZeroInput("field too large for exhaustive root search")
            for vec in _gf_iterate(self._dim, self.char):
                c = Coeff(self, vec)
                if not c.is_zero() and c.multiplicative_order() == n:
                    return c
            raise ZeroInput(f"no {n}-th root in {self!r}")
        raise ZeroInput(f"no primitive {n}-th root in {self!r}")


def _gf_iterate(dim, p):
    total = p ** dim
    for code in range(1, total):
        vec = []
        c = code
        for _ in range(dim):
            vec.append(c % p)
            c //= p
        yield tuple(vec)


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# coefficients
# ---------------------------------------------------------------------------


class Coeff:
    """One exact field element, tagged with its context.

    Payloads by kind: Fraction | tuple[Fraction] (power basis mod Phi_N) |
    (numerator dict, denominator dict) | tuple[int] (power basis mod the
    Galois modulus).
    """

    __slots__ = ("ctx", "val")

    def __init__(self, ctx, val):
        self.ctx = ctx
        self.val = val

    # -- helpers -------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Coeff):
            if other.ctx != self.ctx:
                raise CtxMismatch(f"{self.ctx!r} vs {other.ctx!r}")
            return other
        if isinstance(other, int):
            return self.ctx.from_int(other)
        if isinstance(other, Fraction):
            return self.ctx.from_fraction(other)
        return None

    def is_zero(self):
        k = self.ctx.kind
        if k == RATIONAL:
            return self.val == 0
        if k == RATFUNC:
            return not self.val[0]
        return all(c == 0 for c in self.val)

    def is_one(self):
        return (self - 1).is_zero()

    def __bool__(self):
        return not self.is_zero()

    # -- ring operations -------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        k = self.ctx.kind
        if k == RATIONAL:
            return Coeff(self.ctx, self.val + other.val)
        if k == CYCLOTOMIC:
            return Coeff(self.ctx, tuple(a + b for a, b in zip(self.val, other.val)))
        if k == RATFUNC:
            (a, b), (c, d) = self.val, other.val
            return Coeff(self.ctx, _ratfunc_normalize(
                _mp_add(_mp_mul(a, d), _mp_mul(c, b)), _mp_mul(b, d)))
        p = self.ctx.char
        return Coeff(self.ctx, tuple((a + b) % p for a, b in zip(self.val, other.val)))

    __radd__ = __add__

    def __neg__(self):
        k = self.ctx.kind
        if k == RATIONAL:
            return Coeff(self.ctx, -self.val)
        if k == CYCLOTOMIC:
            return Coeff(self.ctx, tuple(-a for a in self.val))
        if k == RATFUNC:
            return Coeff(self.ctx, (_mp_neg(self.val[0]), self.val[1]))
        p = self.ctx.char
        return Coeff(self.ctx, tuple((-a) % p for a in self.val))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        k = self.ctx.kind
        if k == RATIONAL:
            return Coeff(self.ctx, self.val * other.val)
        if k == CYCLOTOMIC:
            return Coeff(self.ctx, self._cyclo_mul(other))
        if k == RATFUNC:
            (a, b), (c, d) = self.val, other.val
            return Coeff(self.ctx, _ratfunc_normalize(_mp_mul(a, c), _mp_mul(b, d)))
        return Coeff(self.ctx, self._gf_mul_reduced(other))

    __rmul__ = __mul__

    def _cyclo_mul(self, other):
        d = self.ctx._dim
        conv = [Fraction(0)] * (2 * d - 1)
        for i, a in enumerate(self.val):
            if a:
                for j, b in enumerate(other.val):
                    if b:
                        conv[i + j] += a * b
        out = conv[:d]
        table = self.ctx._reduce_table
        for k in range(d, 2 * d - 1):
            c = conv[k]
            if c:
                red = table[k - d]
                for i, r in enumerate(red):
                    if r:
                        out[i] += c * r
        return tuple(out)

    def _gf_mul_reduced(self, other):
        p = self.ctx.char
        prod = _gf_mul(list(self.val), list(other.val), p)
        prod = _gf_mod(prod, list(self.ctx.modulus), p)
        prod = prod + [0] * (self.ctx._dim - len(prod))
        return tuple(prod)

    def inv(self):
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        k = self.ctx.kind
        if k == RATIONAL:
            return Coeff(self.ctx, 1 / self.val)
        if k == CYCLOTOMIC:
            return Coeff(self.ctx, self._cyclo_inv())
        if k == RATFUNC:
            num, den = self.val
            return Coeff(self.ctx, _ratfunc_normalize(den, num))
        e = self.ctx._unit_order - 1
        return self ** e if e else Coeff(self.ctx, self.val)

    def _cyclo_inv(self):
        # extended Euclid in Q[x] against Phi_N: find t with t*self = 1 (mod Phi)
        d = self.ctx._dim
        r0 = [Fraction(c) for c in self.ctx._phi]
        r1 = [Fraction(x) for x in self.val]
        while r1 and r1[-1] == 0:
            r1.pop()
        t0, t1 = [], [Fraction(1)]
        while len(r1) > 1:
            q, rem = _qpoly_divmod(r0, r1)
            r0, r1 = r1, rem
            t0, t1 = t1, _qpoly_sub(t0, _qpoly_mul(q, t1))
        if not r1:
            raise DivisionByZero("element not invertible modulo Phi_N")
        c = r1[0]
        out = [x / c for x in t1] + [Fraction(0)] * d
        return tuple(out[:d])

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
        result = self.ctx.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.ctx.kind == RATFUNC:
            (a, b), (c, d) = self.val, other.val
            return _mp_mul(a, d) == _mp_mul(c, b)
        return self.val == other.val

    def __ne__(self, other):
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    # no __hash__: rational-function equality is by cross-multiplication, so
    # equal values can have different representations
    __hash__ = None

    def __repr__(self):
        return coeff_to_str(self)

    # -- field-specific queries -------------------------------------------------

    def multiplicative_order(self):
        """Least m >= 1 with self^m = 1, or None if not a root of unity."""
        if self.is_zero():
            raise ZeroInput("zero has no multiplicative order")
        k = self.ctx.kind
        one = self.ctx.one()
        if k in (RATIONAL, RATFUNC):
            if self == one:
                return 1
            if self == -one:
                return 2
            return None
        if k == CYCLOTOMIC:
            for m in divisors(self.ctx.unit_group_exponent()):
                if self ** m == one:
                    return m
            return None
        # Galois: order divides p^k - 1
        n = self.ctx._unit_order
        if self ** n != one:
            return None
        for p, e in _factorize(n).items():
            while n % p == 0 and self ** (n // p) == one:
                n //= p
        return n

    def is_constant(self):
        """For rational-function values: equal to a rational constant?"""
        if self.ctx.kind != RATFUNC:
            return True
        num, den = self.val
        nz = len(next(iter(den)))
        zero_key = (0,) * nz
        return (not num or set(num) == {zero_key}) and set(den) == {zero_key}

    def specialize(self, assignment, target_ctx):
        """Evaluate a rational-function value by substituting parameters.

        assignment maps every parameter name to a Coeff in target_ctx.
        Raises DenominatorVanishes when the point is outside the domain.
        """
        if self.ctx.kind != RATFUNC:
            raise CtxMismatch("specialize applies to rational-function values")
        for name in self.ctx.params:
            if name not in assignment:
                raise UnassignedParameter(name)
        num, den = self.val
        num_v = _mp_eval(num, self.ctx.params, assignment, target_ctx)
        den_v = _mp_eval(den, self.ctx.params, assignment, target_ctx)
        if den_v.is_zero():
            raise DenominatorVanishes(coeff_to_str(self))
        return num_v / den_v


def _mp_eval(poly, names, assignment, ctx):
    total = ctx.zero()
    for exps, c in poly.items():
        term = ctx.from_int(c)
        for name, e in zip(names, exps):
            if e:
                term = term * (assignment[name] ** e)
        total = total + term
    return total


# ---------------------------------------------------------------------------
# named operation wrappers
# ---------------------------------------------------------------------------


def field_arith(op, a, b=None):
    """Dispatch-by-name arithmetic, mirroring the operator methods."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "neg":
        return -a
    if op == "inv":
        return a.inv()
    if op == "eq":
        return a == b
    if op == "is_zero":
        return a.is_zero()
    raise ValueError(f"unknown op {op!r}")


def root_of_unity_order(a):
    return a.multiplicative_order()


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
            e = int(self.eat("int").text)
            v = v ** (sign * e)
        return v

    def atom(self):
        t = self.peek()
        if t.kind == "int":
            self.eat()
            return self.ctx.from_int(int(t.text))
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
            n = int(name[1:])
            return self.ctx.root_of_unity(n)
        if name == "a" and self.ctx.kind == GALOIS:
            return self.ctx.generator()
        if self.ctx.kind == RATFUNC and name in self.ctx.params:
            return self.ctx.param(name)
        raise ParseError(f"unknown identifier {name!r} in {self.ctx!r}")


def parse_coeff(text, ctx):
    return _CoeffParser(text, ctx).parse()


def _mp_to_str(poly, names):
    if not poly:
        return "0"
    parts = []
    for exps in sorted(poly, reverse=True):
        c = poly[exps]
        factors = []
        if abs(c) != 1 or not any(exps):
            factors.append(str(abs(c)))
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
    k = c.ctx.kind
    if k == RATIONAL:
        return str(c.val)
    if k == CYCLOTOMIC:
        name = f"z{c.ctx.level}"
        parts = []
        for e, q in enumerate(c.val):
            if not q:
                continue
            if e == 0:
                body = str(abs(q))
            else:
                mag = "" if abs(q) == 1 else f"{abs(q)}*"
                body = f"{mag}{name}" + (f"^{e}" if e > 1 else "")
            parts.append(("-" if q < 0 else "+") + body)
        if not parts:
            return "0"
        out = "".join(parts)
        return out[1:] if out.startswith("+") else out
    if k == RATFUNC:
        num, den = c.val
        ns = _mp_to_str(num, c.ctx.params)
        one = _mp_const(1, len(c.ctx.params))
        if den == one:
            return ns
        return f"({ns})/({_mp_to_str(den, c.ctx.params)})"
    parts = []
    for e, v in enumerate(c.val):
        if not v:
            continue
        if e == 0:
            body = str(v)
        else:
            mag = "" if v == 1 else f"{v}*"
            body = f"{mag}a" + (f"^{e}" if e > 1 else "")
        parts.append("+" + body)
    if not parts:
        return "0"
    return "".join(parts)[1:]
