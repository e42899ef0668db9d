"""Fixed-size ``Coeff`` microbenchmark, one figure per field kind and op.

Operand sizes are fixed so the figures compare across commits:
rational functions in one parameter with 160 monomials (a degree-99
numerator over a degree-59 denominator, the size of the coefficients in
``Bqf.wku`` over Q(q)), elements of Q(zeta_7) and Q(zeta_12) in turn,
30-digit fractions, and elements of GF(3^5).
"""

import random
import statistics
import time
from fractions import Fraction

from orepi import FieldCtx
from orepi.fields import Coeff, _ratfunc_normalize

BATCHES = 5
REPS = {"ratfunc": 4, "cyclotomic": 400, "rational": 2000, "galois": 200}
PAIRS = 8
GF_MODULUS = (1, 2, 0, 0, 0, 1)  # t^5 + 2t + 1, irreducible over GF(3)


def _nonzero(rng, bound):
    return rng.choice((-1, 1)) * rng.randint(1, bound)


def _ratfunc(rng, ctx):
    num = {(e,): _nonzero(rng, 9) for e in range(100)}
    den = {(e,): _nonzero(rng, 9) for e in range(60)}
    return Coeff(ctx, _ratfunc_normalize(num, den))


def _cyclo(rng, ctx):
    return Coeff(ctx, tuple(Fraction(_nonzero(rng, 9), rng.randint(1, 9))
                            for _ in range(len(ctx._phi) - 1)))


def _rational(rng, ctx):
    return ctx.from_fraction(Fraction(_nonzero(rng, 10 ** 30),
                                      rng.randint(10 ** 29, 10 ** 30)))


def _galois(rng, ctx):
    while True:
        vec = tuple(rng.randrange(3) for _ in range(5))
        if any(vec):
            return Coeff(ctx, vec)


def operands(seed):
    rng = random.Random(f"fields:{seed}")
    rq = FieldCtx.rational_functions(("q",))
    cyclo = (FieldCtx.cyclotomic(7), FieldCtx.cyclotomic(12))
    QQ = FieldCtx.rational()
    gf = FieldCtx.galois(3, GF_MODULUS)
    out = {"ratfunc": [], "cyclotomic": [], "rational": [], "galois": []}
    for i in range(PAIRS):
        out["ratfunc"].append((_ratfunc(rng, rq), _ratfunc(rng, rq)))
        c = cyclo[i % 2]
        out["cyclotomic"].append((_cyclo(rng, c), _cyclo(rng, c)))
        out["rational"].append((_rational(rng, QQ), _rational(rng, QQ)))
        out["galois"].append((_galois(rng, gf), _galois(rng, gf)))
    return out


OPS = {"add": lambda a, b: a + b, "mul": lambda a, b: a * b,
       "inv": lambda a, b: a.inv()}


def field_micro(seed):
    """Median microseconds per operation, as ``fields.<kind>.<op>_us``."""
    out = {}
    for kind, pairs in operands(seed).items():
        reps = REPS[kind]
        work = [pairs[i % len(pairs)] for i in range(reps)]
        for name, op in OPS.items():
            times = []
            for _ in range(BATCHES):
                t0 = time.perf_counter()
                for a, b in work:
                    op(a, b)
                times.append(time.perf_counter() - t0)
            out[f"fields.{kind}.{name}_us"] = \
                statistics.median(times) / reps * 1e6
    return out
