"""Exact field arithmetic: axioms, root orders, specialization, parsing."""

from fractions import Fraction
from types import FunctionType, MethodType

import pytest

from orepi import FieldCtx, coeff_to_str, parse_coeff
from orepi.errors import (
    CtxMismatch,
    DenominatorVanishes,
    DivisionByZero,
    InvalidField,
    OrepiError,
    ParseError,
    UnassignedParameter,
    ZeroInput,
)
from orepi.fields import (
    MAX_CYCLOTOMIC_LEVEL,
    Coeff,
    _gf_irreducible,
    cyclotomic_polynomial,
)
from orepi.rewrite import NCPoly, specialize_poly

from conftest import random_coeff

N_AXIOM_CASES = 1000


def test_cyclotomic_polynomials_known_values():
    assert cyclotomic_polynomial(1) == [-1, 1]
    assert cyclotomic_polynomial(2) == [1, 1]
    assert cyclotomic_polynomial(3) == [1, 1, 1]
    assert cyclotomic_polynomial(4) == [1, 0, 1]
    assert cyclotomic_polynomial(6) == [1, -1, 1]
    assert cyclotomic_polynomial(12) == [1, 0, -1, 0, 1]
    # prime p: all-ones of degree p-1
    assert cyclotomic_polynomial(7) == [1] * 7


def test_cyclotomic_polynomials_against_sympy():
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    for n in range(1, 301):
        ref = sympy.cyclotomic_poly(n, t, polys=True).all_coeffs()[::-1]
        assert cyclotomic_polynomial(n) == [int(c) for c in ref], n


def test_zeta4_squares_to_minus_one():
    c4 = FieldCtx.cyclotomic(4)
    z = c4.generator()
    assert z * z == -1


def test_rational_function_cross_multiplication_equality(rat_pq):
    q = rat_pq.param("q")
    assert (q ** 2 - 1) / (q - 1) == q + 1
    assert not (q ** 2 - 1) / (q - 1) == q - 1


def test_inverse_of_rational(QQ):
    v = QQ.from_fraction(Fraction(2, 3))
    assert v.inv() == QQ.from_fraction(Fraction(3, 2))


def test_inv_zero_raises(QQ):
    with pytest.raises(DivisionByZero):
        QQ.zero().inv()


def test_ctx_mismatch(QQ, cyclo3):
    with pytest.raises(CtxMismatch):
        QQ.one() + cyclo3.one()


# one context of every kind, then the edge cases: GF(2), whose unit group
# has order 1, and Q(zeta_2), of dimension 1
FIELDS = [
    lambda: FieldCtx.rational(),
    lambda: FieldCtx.cyclotomic(5),
    lambda: FieldCtx.rational_functions(("p", "q")),
    lambda: FieldCtx.galois(7, (3, 1, 1)),  # x^2 + x + 3 over GF(7)
    lambda: FieldCtx.galois_prime(2),
    lambda: FieldCtx.galois(2, (1, 1, 0, 1)),  # x^3 + x + 1 over GF(2)
    lambda: FieldCtx.galois_prime(13),
    lambda: FieldCtx.cyclotomic(2),
]


@pytest.mark.parametrize("make_ctx", FIELDS)
def test_field_axioms_randomized(make_ctx, rng):
    ctx = make_ctx()
    one = ctx.one()
    zero = ctx.zero()
    for _ in range(N_AXIOM_CASES):
        a = random_coeff(ctx, rng)
        b = random_coeff(ctx, rng)
        c = random_coeff(ctx, rng)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + zero == a and a * one == a
        assert a - a == zero
        assert (a - b).val == (a + (-b)).val
        assert 1 - a == -(a - 1)
        if not a.is_zero():
            assert a * a.inv() == one
        if not b.is_zero():
            assert (a / b) * b == a


@pytest.mark.parametrize("make_ctx", FIELDS)
def test_ring_results_stay_coeffs_of_the_operand_context(make_ctx, rng):
    # the benchmark tracer counts operations on the Coeff class and reads
    # the field kind from each operand's context
    ctx = make_ctx()
    for _ in range(20):
        a = random_coeff(ctx, rng)
        b = random_coeff(ctx, rng)
        if b.is_zero():
            b = ctx.one()
        for x in (a + b, 1 + a, a - b, 1 - a, -a, a * b, 2 * a, b.inv(),
                  a / b, 1 / b, a ** 3, b ** -2):
            assert type(x) is Coeff and x.ctx is a.ctx


@pytest.mark.parametrize("p,modulus", [(2, (0, 1)), (2, (1, 1, 1)),
                                       (2, (1, 1, 0, 1)), (3, (1, 0, 1)),
                                       (7, (3, 1, 1))],
                         ids=["GF(2)", "GF(4)", "GF(8)", "GF(9)", "GF(49)"])
def test_galois_inverse_is_a_power(p, modulus):
    # the inverse is a^(p^k - 2); square-and-multiply in Coeff is the reference
    ctx = FieldCtx.galois(p, modulus)
    order = p ** (len(modulus) - 1)
    units = list(ctx.units())
    assert len(units) == order - 1
    for a in units:
        assert a.inv().val == (a ** (order - 2)).val
        assert a * a.inv() == 1


def test_root_of_unity_orders():
    c6 = FieldCtx.cyclotomic(6)
    z6 = c6.generator()
    assert (z6 ** 3).multiplicative_order() == 2
    assert FieldCtx.rational().from_int(2).multiplicative_order() is None
    assert FieldCtx.rational().from_int(-1).multiplicative_order() == 2
    c3 = FieldCtx.cyclotomic(3)
    # brute-force oracle: the least m <= 12 with (-z3)^m == 1
    mz3 = -c3.generator()
    orders = [m for m in range(1, 13) if (mz3 ** m).is_one()]
    assert orders[0] == 6
    assert mz3.multiplicative_order() == 6


def test_root_of_unity_order_zero_input(QQ):
    with pytest.raises(ZeroInput):
        QQ.zero().multiplicative_order()


@pytest.mark.parametrize("ctx", [
    FieldCtx.rational(), FieldCtx.cyclotomic(3), FieldCtx.cyclotomic(12),
    FieldCtx.galois_prime(7), FieldCtx.galois(2, (1, 1, 0, 1)),
    FieldCtx.rational_functions(("q",)),
], ids=repr)
@pytest.mark.parametrize("n", [0, -1, -3, -12])
def test_root_of_unity_needs_a_positive_order(ctx, n):
    # no field has a primitive n-th root for n < 1
    with pytest.raises(ZeroInput):
        ctx.root_of_unity(n)


def test_order_divisor_property(rng):
    ctx = FieldCtx.cyclotomic(12)
    for _ in range(40):
        k = rng.randrange(1, 13)
        a = ctx.root_of_unity(12) ** k
        m = a.multiplicative_order()
        assert (a ** m).is_one()
        for d in range(1, m):
            if m % d == 0:
                assert not (a ** d).is_one()


def test_ratfunc_roots_of_unity_only_constants(rat_q):
    q = rat_q.param("q")
    assert q.multiplicative_order() is None
    assert rat_q.one().multiplicative_order() == 1
    assert (-rat_q.one()).multiplicative_order() == 2
    assert ((q + 1) / (q + 1)).multiplicative_order() == 1


def test_galois_roots_of_unity_have_their_order():
    # every divisor n of q - 1 has a primitive n-th root, also in
    # GF(101^3), a field of more than a million elements
    for ctx in (FieldCtx.galois_prime(2), FieldCtx.galois_prime(13),
                FieldCtx.galois(2, (1, 1, 0, 1)), FieldCtx.galois(7, (3, 1, 1)),
                FieldCtx.galois(101, (1, 1, 0, 1))):
        order = ctx.unit_group_exponent()
        for n in (d for d in range(1, min(order, 200) + 1) if order % d == 0):
            assert ctx.root_of_unity(n).multiplicative_order() == n, (ctx, n)
        assert ctx.root_of_unity(order).multiplicative_order() == order
        with pytest.raises(ZeroInput):
            ctx.root_of_unity(order + 1)


def test_galois_every_nonzero_is_root_of_unity(rng):
    ctx = FieldCtx.galois(5, (2, 0, 1))  # x^2 + 2 irreducible over GF(5)
    for _ in range(30):
        a = random_coeff(ctx, rng)
        if a.is_zero():
            continue
        m = a.multiplicative_order()
        assert m is not None and 24 % m == 0


def test_galois_square_root_of_unity_needs_odd_characteristic():
    # -1 = 1 in characteristic 2, and 2 does not divide 2^k - 1
    for ctx in (FieldCtx.galois_prime(2),
                FieldCtx.galois(2, (1, 1, 0, 1)),      # x^3 + x + 1
                FieldCtx.galois(2, (1, 1, 0, 0, 1))):  # x^4 + x + 1
        assert ctx.root_of_unity(1) == ctx.one()
        with pytest.raises(ZeroInput):
            ctx.root_of_unity(2)
        with pytest.raises(ZeroInput):
            parse_coeff("z2", ctx)
    for ctx in (FieldCtx.galois_prime(3), FieldCtx.galois(7, (3, 1, 1))):
        z2 = ctx.root_of_unity(2)
        assert z2 == ctx.from_int(-1) and z2.multiplicative_order() == 2
        assert parse_coeff("z2", ctx) == z2


def test_galois_rejects_reducible_modulus():
    with pytest.raises(ValueError):
        FieldCtx.galois(3, (-1, 0, 1))  # x^2 - 1 = (x-1)(x+1)
    with pytest.raises(ValueError):
        FieldCtx.galois(2, (1, 1, 1, 1))  # x^3+x^2+x+1 has root 1


def test_galois_degree_bounds():
    with pytest.raises(ValueError):
        FieldCtx.galois(3, (1,) * 8)  # degree 7 > 6
    FieldCtx.galois(2, (1, 1, 0, 0, 0, 0, 1))  # x^6+x+1, irreducible


@pytest.mark.parametrize("build", [
    lambda: FieldCtx.cyclotomic(0),
    lambda: FieldCtx.cyclotomic(MAX_CYCLOTOMIC_LEVEL + 1),
    lambda: FieldCtx.rational_functions(("q", "q")),
    lambda: FieldCtx.galois_prime(4),
    lambda: FieldCtx.galois_prime(103),
    lambda: FieldCtx.galois(3, (1,) * 8),
    lambda: FieldCtx.galois(3, (-1, 0, 1)),
], ids=["cyclo:0", "cyclo:1001", "params q,q", "gf:4", "gf:103", "degree 7", "reducible"])
def test_field_descriptors_are_typed(build):
    # an invalid descriptor is an OrepiError, and still a ValueError
    with pytest.raises(InvalidField) as exc:
        build()
    assert isinstance(exc.value, OrepiError)
    assert isinstance(exc.value, ValueError)


def test_largest_cyclotomic_level_builds():
    ctx = FieldCtx.cyclotomic(MAX_CYCLOTOMIC_LEVEL)
    assert ctx.root_of_unity(MAX_CYCLOTOMIC_LEVEL) ** MAX_CYCLOTOMIC_LEVEL \
        == ctx.one()


@pytest.mark.parametrize("field", ["gf:4", "gf:103"])
def test_cli_reports_the_typed_field_error(field):
    from orepi.cli import run_command
    code, doc = run_command(["identity-search", "--algebra", "m2",
                             "--field", field, "--degree", "3"])
    assert code == 1
    [check] = doc["checks"]
    assert check["detail"] == \
        "InvalidField: Galois characteristic must be a prime <= 101"


def _irreducible_count(p, d):
    """(1/d) sum over e | d of mu(e) p^(d/e): the number of monic
    irreducible polynomials of degree d over GF(p)."""
    def mobius(n):
        out, k = 1, 2
        while k <= n:
            if n % k == 0:
                n //= k
                if n % k == 0:
                    return 0
                out = -out
            k += 1
        return out
    return sum(mobius(e) * p ** (d // e)
               for e in range(1, d + 1) if d % e == 0) // d


@pytest.mark.parametrize("p,d_max", [(2, 6), (3, 4), (5, 3), (7, 3)])
def test_rabin_test_counts_the_irreducible_polynomials(p, d_max):
    # a count that a root search alone misses: (x^2 + x + 1)^2 over GF(2)
    # has no root, and Rabin's gcd step rejects it
    from itertools import product
    assert not _gf_irreducible([1, 0, 1, 0, 1], 2)
    for d in range(1, d_max + 1):
        got = sum(_gf_irreducible(list(tail) + [1], p)
                  for tail in product(range(p), repeat=d))
        assert got == _irreducible_count(p, d), d


def _schoolbook_mul(a, b, mod, p):
    """a * b modulo the monic mod over GF(p): the full product, then long
    division, one leading term at a time."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    d = len(mod) - 1
    for k in range(len(out) - 1, d - 1, -1):
        c = out[k]
        for j, m in enumerate(mod):
            out[k - d + j] = (out[k - d + j] - c * m) % p
    return tuple(out[:d])


def _schoolbook_pow(a, e, mod, p):
    out = (1,) + (0,) * (len(a) - 1)
    while e:
        if e & 1:
            out = _schoolbook_mul(out, a, mod, p)
        a = _schoolbook_mul(a, a, mod, p)
        e >>= 1
    return out


@pytest.mark.parametrize("p,modulus", [
    (2, (0, 1)), (2, (1, 1, 1)), (2, (1, 1, 0, 1)), (2, (1, 1, 0, 0, 1)),
    (2, (1, 1, 0, 0, 0, 0, 1)), (3, (1, 0, 1)), (3, (2, 1, 0, 0, 1)),
    (5, (2, 0, 1)), (7, (3, 1, 1)), (13, (0, 1)), (101, (1, 1, 0, 1))],
    ids=["GF(2)", "GF(4)", "GF(8)", "GF(16)", "GF(64)", "GF(9)", "GF(81)",
         "GF(25)", "GF(49)", "GF(13)", "GF(101^3)"])
def test_galois_products_match_long_division(p, modulus, rng):
    ctx = FieldCtx.galois(p, modulus)
    mod, d = ctx.modulus, len(ctx.modulus) - 1
    order = p ** d
    for _ in range(40):
        a, b = (tuple(rng.randrange(p) for _ in range(d)) for _ in range(2))
        assert ctx.mul(a, b) == _schoolbook_mul(a, b, mod, p)
        if any(a):
            assert ctx.inv(a) == _schoolbook_pow(a, order - 2, mod, p)


def test_specialize_examples(rat_pq, cyclo3):
    q = rat_pq.param("q")
    p = rat_pq.param("p")
    z3 = cyclo3.generator()
    expr = (q ** 2 - 1) / (q - 1)
    assert expr.specialize({"q": z3, "p": cyclo3.one()}, cyclo3) == z3 + 1
    assert q.specialize({"q": cyclo3.from_int(2), "p": cyclo3.one()},
                        cyclo3) == 2
    with pytest.raises(DenominatorVanishes):
        (rat_pq.one() / (q - p.inv())).specialize(
            {"q": z3, "p": z3.inv()}, cyclo3)
    with pytest.raises(UnassignedParameter):
        q.specialize({"q": z3}, cyclo3)


def test_specialize_is_homomorphism(rat_pq, cyclo12, rng):
    assign = {"p": cyclo12.root_of_unity(4), "q": cyclo12.root_of_unity(3)}
    for _ in range(60):
        a = random_coeff(rat_pq, rng)
        b = random_coeff(rat_pq, rng)
        try:
            sa = a.specialize(assign, cyclo12)
            sb = b.specialize(assign, cyclo12)
            sab = (a * b).specialize(assign, cyclo12)
            s_sum = (a + b).specialize(assign, cyclo12)
        except DenominatorVanishes:
            continue
        assert sab == sa * sb
        assert s_sum == sa + sb


def test_parser_examples(rat_q, cyclo3):
    assert parse_coeff("(q^2-1)/(q+1)", rat_q) == \
        (rat_q.param("q") ** 2 - 1) / (rat_q.param("q") + 1)
    assert parse_coeff("-1", cyclo3) == -cyclo3.one()
    assert parse_coeff("z3^2", cyclo3) == cyclo3.generator() ** 2
    c5 = FieldCtx.cyclotomic(5)
    assert parse_coeff("z5^2", c5) == c5.generator() ** 2
    with pytest.raises(ParseError):
        parse_coeff("q + ", rat_q)
    with pytest.raises(ParseError):
        parse_coeff("unknown_name", rat_q)


def test_parse_print_roundtrip(rng):
    for ctx in (FieldCtx.rational(), FieldCtx.cyclotomic(5),
                FieldCtx.rational_functions(("p", "q")),
                FieldCtx.galois(7, (3, 1, 1))):
        for _ in range(40):
            v = random_coeff(ctx, rng)
            assert parse_coeff(coeff_to_str(v), ctx) == v


def test_cyclotomic_embedded_roots():
    c6 = FieldCtx.cyclotomic(6)
    z3 = c6.root_of_unity(3)
    assert z3.multiplicative_order() == 3
    assert c6.root_of_unity(2).multiplicative_order() == 2
    c5 = FieldCtx.cyclotomic(5)  # odd level: 10th roots exist
    z10 = c5.root_of_unity(10)
    assert z10.multiplicative_order() == 10


def test_power_negative_exponent(rat_q):
    q = rat_q.param("q")
    assert q ** -2 == (q * q).inv()
    assert q ** 0 == rat_q.one()


def _brute_order(c, exponent):
    """The least m <= exponent with c^m = 1, or None."""
    power = c
    for m in range(1, exponent + 1):
        if power.is_one():
            return m
        power = power * c
    return None


def _order_cases():
    QQ = FieldCtx.rational()
    yield QQ, [QQ.from_int(k) for k in (1, -1, 2, -2, 3)] + \
        [QQ.from_fraction(Fraction(-1, 2))]
    for n in range(1, 16):
        ctx = FieldCtx.cyclotomic(n)
        e = ctx.unit_group_exponent()
        w = ctx.root_of_unity(e)
        roots = [w ** k for k in range(e)]
        yield ctx, roots + [r + ctx.one() for r in roots if not
                            (r + ctx.one()).is_zero()] + \
            [r * 2 for r in roots[:3]]
    for p, modulus in ((2, (0, 1)), (2, (1, 1, 1)), (2, (1, 1, 0, 1)),
                       (3, (1, 0, 1)), (3, (2, 1, 0, 0, 1)), (5, (2, 0, 1)),
                       (7, (3, 1, 1)), (13, (0, 1))):
        ctx = FieldCtx.galois(p, modulus)
        yield ctx, list(ctx.units())
    rq = FieldCtx.rational_functions(("q",))
    q = rq.param("q")
    yield rq, [rq.one(), -rq.one(), q / q, -q / q, q, -q, q + 1,
               rq.from_int(2)]


@pytest.mark.parametrize("ctx,elements", [
    pytest.param(ctx, elements, id=repr(ctx))
    for ctx, elements in _order_cases()])
def test_multiplicative_order_matches_brute_force(ctx, elements):
    # every root of unity's order divides the unit-group exponent, so a
    # search up to it finds the order or shows there is none
    e = ctx.unit_group_exponent()
    for c in elements:
        assert c.multiplicative_order() == _brute_order(c, e), repr(c)


# one field of each kind: Q, a cyclotomic field, Q(params), a prime field
# and a proper extension of one
KINDS = {
    "Q": FieldCtx.rational(),
    "Q(z12)": FieldCtx.cyclotomic(12),
    "Q(p,q)": FieldCtx.rational_functions(("p", "q")),
    "GF(13)": FieldCtx.galois_prime(13),
    "GF(7^2)": FieldCtx.galois(7, (3, 1, 1)),
}


@pytest.mark.parametrize("ctx", list(KINDS.values()), ids=list(KINDS))
def test_power_squares_from_the_base(ctx, rng, monkeypatch):
    # left to right from the base itself: one squaring per bit after the
    # top one and one product per further 1 bit, none for e = 0 or 1
    x = random_coeff(ctx, rng)
    while x.is_zero():
        x = random_coeff(ctx, rng)
    repeated = [ctx.one()]
    for _ in range(17):
        repeated.append(repeated[-1] * x)
    calls, real = [0], type(ctx).mul

    def mul(self, a, b):
        calls[0] += 1
        return real(self, a, b)
    monkeypatch.setattr(type(ctx), "mul", mul)
    for e in range(18):
        calls[0] = 0
        y = x ** e
        want = e.bit_length() - 1 + bin(e).count("1") - 1 if e else 0
        assert calls[0] == want, e
        assert type(y) is Coeff and y == repeated[e], e


def _specialize_reference(c, assignment, target):
    """Coeff.specialize evaluated monomial by monomial on Coeffs: one
    Coeff power per parameter, then one Coeff division."""
    def evaluate(poly):
        total = target.zero()
        for exps, k in poly.items():
            term = target.from_int(k)
            for name, e in zip(c.ctx.params, exps):
                if e:
                    term = term * (assignment[name] ** e)
            total = total + term
        return total
    num, den = c.val
    num_v, den_v = evaluate(num), evaluate(den)
    if den_v.is_zero():
        raise DenominatorVanishes(coeff_to_str(c))
    return num_v / den_v


def _random_ratfunc(R, rng):
    """A random polynomial in p, q over another one of one to three terms,
    so the denominator is often not a monomial."""
    p, q = R.param("p"), R.param("q")

    def poly(terms):
        out = R.zero()
        for _ in range(terms):
            out = out + rng.randint(-3, 3) * p ** rng.randint(0, 3) * \
                q ** rng.randint(0, 3)
        return out
    den = poly(rng.randint(1, 3))
    while den.is_zero():
        den = poly(rng.randint(1, 3))
    return poly(rng.randint(0, 3)) / den


@pytest.mark.parametrize("name", ["Q", "Q(z12)", "GF(7^2)"])
def test_specialize_matches_per_monomial_evaluation(name, rat_pq, rng):
    # Coeff.specialize and specialize_poly share one payload map; both
    # agree with the evaluation on Coeffs, value for value, and raise
    # DenominatorVanishes with the same message
    target = KINDS[name]
    shapes = set()
    for _ in range(30):
        assign = {"p": random_coeff(target, rng),
                  "q": random_coeff(target, rng)}
        values = [_random_ratfunc(rat_pq, rng) for _ in range(6)]
        shapes.update(len(c.val[1]) for c in values)
        want = []
        for c in values:
            try:
                want.append(_specialize_reference(c, assign, target))
            except DenominatorVanishes as e:
                want.append(str(e))
        for c, w in zip(values, want):
            if isinstance(w, str):
                with pytest.raises(DenominatorVanishes) as exc:
                    c.specialize(assign, target)
                assert str(exc.value) == w
            else:
                got = c.specialize(assign, target)
                assert type(got) is Coeff and got.ctx is target and got == w
        poly = NCPoly({(i,): c for i, c in enumerate(values)})
        if any(isinstance(w, str) for w in want):
            with pytest.raises(DenominatorVanishes):
                specialize_poly(poly, assign, target)
            continue
        got = specialize_poly(poly, assign, target)
        assert got.ctx is target
        assert got == NCPoly({(i,): w for i, w in enumerate(want)
                              if not values[i].is_zero()})
    assert max(shapes) > 1  # denominators that are not monomials


def _outcome(at, x):
    """A map's payload as written, or the message it raises."""
    try:
        return repr(at(x))
    except DenominatorVanishes as e:
        return f"DenominatorVanishes: {e}"


def _denominator_shape(x):
    num, den = x
    if len(den) != 1:
        return "general"
    (k, _), = den.items()
    if any(e < d for exps in num for e, d in zip(exps, k)):
        return "shifted below 0"
    return "monomial"


@pytest.mark.parametrize("name", ["Q", "Q(z3)", "Q(z12)", "GF(7^2)"])
def test_a_reused_map_equals_a_fresh_one(name, rat_pq, rng):
    # the map kept for one assignment, its memos filled, writes the same
    # payloads as a map compiled for each value: over monomials, with
    # numerator exponents below the denominator's, and over general
    # denominators
    target = FieldCtx.cyclotomic(3) if name == "Q(z3)" else KINDS[name]
    p, q = rat_pq.param("p"), rat_pq.param("q")
    shapes = set()
    for _ in range(12):
        assign = {"p": random_coeff(target, rng),
                  "q": random_coeff(target, rng)}
        values = [_random_ratfunc(rat_pq, rng) for _ in range(4)]
        values += [_random_ratfunc(rat_pq, rng) / (
            rng.choice((1, -1, 2, -3, 7)) * p ** rng.randint(0, 3)
            * q ** rng.randint(0, 3)) for _ in range(4)]
        at = rat_pq.specializer(assign, target)
        for x in [c.val for c in values] * 2:
            shapes.add(_denominator_shape(x))
            fresh = FieldCtx.rational_functions(("p", "q")).specializer(
                assign, target)
            assert _outcome(at, x) == _outcome(fresh, x)
        assert rat_pq.specializer(dict(assign), target) is at
    assert shapes == {"general", "shifted below 0", "monomial"}


def test_a_reused_map_still_checks_the_assignment(rat_pq, cyclo3):
    z3 = cyclo3.generator()
    assign = {"p": cyclo3.from_int(2), "q": z3}
    at = rat_pq.specializer(assign, cyclo3)
    # equal payloads in Q(z6), which has the dimension of Q(z3)
    c6 = FieldCtx.cyclotomic(6)
    other = {name: Coeff(c6, v.val) for name, v in assign.items()}
    with pytest.raises(CtxMismatch):
        rat_pq.specializer(other, cyclo3)
    with pytest.raises(CtxMismatch):
        rat_pq.param("q").specialize(other, cyclo3)
    with pytest.raises(UnassignedParameter):
        rat_pq.specializer({"q": z3}, cyclo3)
    assert rat_pq.specializer(assign, cyclo3) is at
    # another target object, even an equal one, gets its own map
    assert rat_pq.specializer(assign, FieldCtx.cyclotomic(3)) is not at


def test_a_map_is_reused_only_for_the_same_payload_objects(rat_pq, cyclo3):
    # equal payloads of another form (integral Fraction coordinates, which
    # Coeff(ctx, vec) accepts) get their own map, so each call writes its
    # own assignment's payloads, as a fresh map does
    p = rat_pq.param("p")
    one = cyclo3.one()
    as_fractions = {"p": Coeff(cyclo3, (Fraction(2), Fraction(1))), "q": one}
    as_ints = {"p": Coeff(cyclo3, (2, 1)), "q": one}
    assert as_fractions["p"].val == as_ints["p"].val
    for assign in (as_fractions, as_ints, as_fractions):
        fresh = FieldCtx.rational_functions(("p", "q")).specializer(
            assign, cyclo3)
        assert repr(p.specialize(assign, cyclo3).val) == repr(fresh(p.val))


@pytest.mark.parametrize("level", [3, 12])
def test_integral_fraction_coordinates_give_canonical_payloads(level, rng):
    # random_coeff draws int coordinates, the form every operation returns;
    # Coeff(ctx, vec) also takes integral Fractions, which each operation
    # canonicalizes: the value and the payload of the int-coordinate twin
    ctx = FieldCtx.cyclotomic(level)
    for _ in range(20):
        a, b = random_coeff(ctx, rng), random_coeff(ctx, rng)
        fa, fb = (Coeff(ctx, tuple(map(Fraction, c.val))) for c in (a, b))
        assert all(type(x) is Fraction for x in fa.val + fb.val)
        pairs = [(fa + fb, a + b), (fa + b, a + b), (fa - fb, a - b),
                 (-fa, -a), (fa * fb, a * b), (a * fb, a * b)]
        if not a.is_zero():
            pairs.append((fa.inv(), a.inv()))
        for got, want in pairs:
            assert got == want and repr(got.val) == repr(want.val)
            assert all(type(x) is int or x.denominator != 1 for x in got.val)


@pytest.mark.parametrize("value", [2, Fraction(1, 2), "2", 2.0])
def test_an_assigned_value_that_is_not_a_coeff_is_a_ctx_mismatch(value, QQ):
    q = FieldCtx.rational_functions(("q",)).param("q")
    with pytest.raises(CtxMismatch, match="an assigned value is not in Q"):
        q.specialize({"q": value}, QQ)
    with pytest.raises(CtxMismatch):
        specialize_poly(NCPoly({(0,): q}), {"q": value}, QQ)


def test_a_zero_under_a_monomial_denominator_vanishes(rat_pq, cyclo3, QQ):
    # the message names the value, as the general formula's does
    p, q = rat_pq.param("p"), rat_pq.param("q")
    gf7 = FieldCtx.galois_prime(7)
    for c, at, target in [
            ((q + 1) / p, {"p": 0, "q": 2}, QQ),
            ((p * q + 2) / (3 * p ** 2 * q), {"p": 5, "q": 0}, cyclo3),
            (q / 7, {"p": 1, "q": 3}, gf7),
            ((p + q) / (14 * p), {"p": 1, "q": 1}, gf7)]:
        at = {k: target.from_int(v) for k, v in at.items()}
        with pytest.raises(DenominatorVanishes) as exc:
            c.specialize(at, target)
        with pytest.raises(DenominatorVanishes) as ref:
            _specialize_reference(c, at, target)
        assert str(exc.value) == str(ref.value) == coeff_to_str(c)
    # a zero value outside the denominator is read
    assert ((q + 1) / p).specialize({"p": QQ.from_int(2), "q": QQ.zero()},
                                    QQ) == Fraction(1, 2)


def test_a_specialization_map_holds_no_reference_to_its_field(rat_pq,
                                                              cyclo3):
    at = rat_pq.specializer({"p": cyclo3.one(), "q": cyclo3.generator()},
                            cyclo3)
    at(({(0, 0): 1, (2, 1): 3}, {(1, 1): 2}))
    at(({(0, 0): 1}, {(1, 0): 1, (0, 1): 1}))
    seen, todo = set(), [at]
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        assert obj is not rat_pq
        if isinstance(obj, FunctionType):
            todo += [cell.cell_contents for cell in obj.__closure__ or ()]
        elif isinstance(obj, MethodType):
            todo.append(obj.__self__)
        elif isinstance(obj, dict):
            todo += [*obj, *obj.values()]
        elif isinstance(obj, (list, tuple)):
            todo += obj
    assert len(seen) > 10


def test_specialize_errors(rat_pq, cyclo3, QQ):
    p, q = rat_pq.param("p"), rat_pq.param("q")
    c = (p + 1) / (p * q - 2)
    poly = NCPoly({(0,): c, (1,): q})
    z3 = cyclo3.generator()
    for run in (lambda at: c.specialize(at, cyclo3),
                lambda at: specialize_poly(poly, at, cyclo3)):
        with pytest.raises(UnassignedParameter):
            run({"p": z3})
        at = {"p": cyclo3.from_int(2), "q": cyclo3.one()}
        with pytest.raises(DenominatorVanishes) as exc:
            run(at)
        with pytest.raises(DenominatorVanishes) as ref:
            _specialize_reference(c, at, cyclo3)
        assert str(exc.value) == str(ref.value) == coeff_to_str(c)
        with pytest.raises(CtxMismatch):
            run({"p": QQ.from_int(2), "q": z3})
