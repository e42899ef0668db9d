import random

import pytest

from orepi import FieldCtx


@pytest.fixture
def rng():
    return random.Random(0x5EED)


@pytest.fixture
def QQ():
    return FieldCtx.rational()


@pytest.fixture
def cyclo3():
    return FieldCtx.cyclotomic(3)


@pytest.fixture
def cyclo12():
    return FieldCtx.cyclotomic(12)


@pytest.fixture
def rat_pq():
    return FieldCtx.rational_functions(("p", "q"))


@pytest.fixture
def rat_q():
    return FieldCtx.rational_functions(("q",))


def random_coeff(ctx, rng, small=True):
    """A random nonzero-ish element of any supported field."""
    if ctx.kind == "rational":
        from fractions import Fraction
        return ctx.from_fraction(Fraction(rng.randint(-9, 9),
                                          rng.randint(1, 9)))
    if ctx.kind == "cyclotomic":
        # int coordinates, the canonical payload every field operation
        # returns (test_fields covers integral Fraction coordinates)
        dim = len(ctx.zero().val)
        from orepi.fields import Coeff
        return Coeff(ctx, tuple(rng.randint(-4, 4) for _ in range(dim)))
    if ctx.kind == "ratfunc":
        nparams = len(ctx.params)
        num = {}
        for _ in range(rng.randint(1, 2 if small else 3)):
            key = tuple(rng.randint(0, 2) for _ in range(nparams))
            num[key] = num.get(key, 0) + rng.randint(-4, 4)
        den_key = tuple(rng.randint(0, 1) for _ in range(nparams))
        from orepi.fields import Coeff, _mp_const, _ratfunc_normalize
        num = {k: v for k, v in num.items() if v}
        if not num:
            num = _mp_const(rng.randint(1, 3), nparams)
        den = {den_key: rng.choice([1, 1, 2, -1])}
        return Coeff(ctx, _ratfunc_normalize(num, den))
    # galois
    from orepi.fields import Coeff
    dim = len(ctx.modulus) - 1
    vec = tuple(rng.randrange(ctx.char) for _ in range(dim))
    return Coeff(ctx, vec)
