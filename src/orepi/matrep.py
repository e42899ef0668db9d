"""Exact matrix representations and multilinear identity search.

The cyclic-shift/diagonal model realizes the quantum plane relation
y x = q x y at a primitive root of unity; standard_poly_eval computes
the alternating sum s_k over all permutations; the identity search
solves, exactly, for all multilinear identities of a given degree on a
finite-dimensional matrix algebra.

Matrices of Coeffs are the public edge: generators, MatAlgebra.basis,
standard_poly_eval and IdentitySpace.evaluate take or give them, and
each entry is checked against the field as it comes in.  Every product
inside is mat_mul on matrices of bare payloads, the field's own add and
mul, as are the rows the span tracker takes.
"""

from collections import deque
from itertools import chain, permutations

from .errors import (
    CtxMismatch,
    DegreeTooLarge,
    DegreeTooSmall,
    NotPrimitiveRoot,
    SizeMismatch,
)
from .fields import Coeff
from .linalg import SpanTracker


def mat_identity(n, ctx):
    z, o = ctx.zero(), ctx.one()
    return tuple(tuple(o if i == j else z for j in range(n)) for i in range(n))


def _payloads(m, ctx):
    """The payloads of a Coeff matrix over ctx (CtxMismatch if not)."""
    if any(x.ctx is not ctx and x.ctx != ctx for row in m for x in row):
        raise CtxMismatch(f"matrix entry outside {ctx!r}")
    return tuple(tuple(x.val for x in row) for row in m)


def _coeffs(m, ctx):
    return tuple(tuple(Coeff(ctx, x) for x in row) for row in m)


def mat_mul(ctx, a, b):
    """a b for matrices of payloads of ctx, accumulating only over the
    nonzero entries of a."""
    n = len(a)
    if len(b) != n:
        raise SizeMismatch("matrix sizes differ")
    add, mul, is_zero = ctx.add, ctx.mul, ctx.is_zero
    zero = ctx.embed(0)
    out = []
    for row in a:
        acc = [zero] * n
        for x, b_row in zip(row, b):
            if not is_zero(x):
                acc = [add(s, mul(x, y)) for s, y in zip(acc, b_row)]
        out.append(tuple(acc))
    return tuple(out)


def mat_scale(a, c):
    return tuple(tuple(x * c for x in row) for row in a)


def mat_is_zero(a):
    return all(x.is_zero() for row in a for x in row)


class MatAlgebra:
    """A matrix algebra given by named generator matrices.

    The linear basis of the unital algebra the generators span is
    computed at construction by closing {identity} under products with
    the generators.
    """

    def __init__(self, n, ctx, gens):
        self.n = n
        self.ctx = ctx
        self.gens = dict(gens)
        for name, m in self.gens.items():
            if len(m) != n or any(len(r) != n for r in m):
                raise SizeMismatch(f"generator {name} is not {n}x{n}")
        self.basis = self._close_basis()

    def _close_basis(self):
        ctx = self.ctx
        gens = [_payloads(g, ctx) for g in self.gens.values()]
        tracker, basis = SpanTracker(lambda k: k, ctx), []
        queue = deque([_payloads(mat_identity(self.n, ctx), ctx)])
        while queue:
            m = queue.popleft()
            if not tracker.insert(dict(enumerate(x for r in m for x in r))):
                continue
            basis.append(_coeffs(m, ctx))
            for g in gens:
                queue.append(mat_mul(ctx, m, g))
        return basis

    @property
    def dim(self):
        return len(self.basis)


def quantum_plane_rep(ctx, n, q):
    """Shift/diagonal model: x -> S with S e_i = e_{i+1 mod n},
    y -> diag(1, q, ..., q^{n-1}); verifies Y X = q X Y."""
    if n < 1:
        raise NotPrimitiveRoot("order must be positive")
    if n == 1:
        if not q.is_one():
            raise NotPrimitiveRoot("order 1 needs q = 1")
    elif q.multiplicative_order() != n:
        raise NotPrimitiveRoot(f"q is not a primitive {n}-th root of unity")
    z, o = ctx.zero(), ctx.one()
    X = tuple(tuple(o if i == (j + 1) % n else z for j in range(n))
              for i in range(n))
    Y = tuple(tuple(q ** i if i == j else z for j in range(n))
              for i in range(n))
    Xp, Yp = _payloads(X, ctx), _payloads(Y, ctx)
    yx, xy = mat_mul(ctx, Yp, Xp), mat_mul(ctx, Xp, Yp)
    if not all(ctx.eq(a, ctx.mul(b, q.val))
               for ra, rb in zip(yx, xy) for a, b in zip(ra, rb)):
        raise NotPrimitiveRoot("relation YX = q XY fails")
    return MatAlgebra(n, ctx, {"x": X, "y": Y})


def _parity(perm):
    inv = 0
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                inv += 1
    return -1 if inv % 2 else 1


def _perm_sum(coeffs, perms, mats, ctx):
    """sum_s c_s A_{s(1)} ... A_{s(d)} over the permutations s, skipping
    zero coefficients, computed on payloads."""
    coeffs = _payloads([coeffs], ctx)[0]
    mats = [_payloads(m, ctx) for m in mats]
    n, add, mul = len(mats[0]), ctx.add, ctx.mul
    acc = ((ctx.embed(0),) * n,) * n
    for c, perm in zip(coeffs, perms):
        if ctx.is_zero(c):
            continue
        prod = mats[perm[0]]
        for idx in perm[1:]:
            prod = mat_mul(ctx, prod, mats[idx])
        acc = tuple(tuple(add(s, mul(x, c)) for s, x in zip(ra, rp))
                    for ra, rp in zip(acc, prod))
    return _coeffs(acc, ctx)


def standard_poly_eval(mats):
    """s_k(A_1..A_k) = sum over permutations of sgn * A_{s(1)} ... A_{s(k)}."""
    n = len(mats[0])
    ctx = mats[0][0][0].ctx
    for m in mats:
        if len(m) != n:
            raise SizeMismatch("matrices of different sizes")
    perms = list(permutations(range(len(mats))))
    signs = [ctx.from_int(_parity(p)) for p in perms]
    return _perm_sum(signs, perms, mats, ctx)


class IdentitySpace:
    """Multilinear identities of one degree: coefficient vectors over
    the permutations of d letters (itertools order)."""

    __slots__ = ("degree", "perms", "basis", "ctx")

    def __init__(self, degree, perms, basis, ctx):
        self.degree = degree
        self.perms = perms
        self.basis = basis
        self.ctx = ctx

    @property
    def dim(self):
        return len(self.basis)

    def contains_standard(self):
        """Is the alternating (standard polynomial) vector in the space?"""
        if not self.basis:
            return False
        tracker = SpanTracker(lambda k: k, self.ctx)
        for vec in self.basis:
            tracker.insert({i: c.val for i, c in enumerate(vec)})
        sgn = {i: self.ctx.from_int(_parity(p)).val
               for i, p in enumerate(self.perms)}
        return tracker.contains(sgn)

    def evaluate(self, vec, mats):
        """Evaluate sum_s c_s A_{s(1)} ... A_{s(d)} for one coefficient vector."""
        return _perm_sum(vec, self.perms, mats, self.ctx)

    def __repr__(self):
        return f"<IdentitySpace degree {self.degree}, dim {self.dim}>"


def multilinear_identity_search(alg, d):
    """Solve for all multilinear identities of degree d on the algebra.

    Multilinearity means vanishing on all basis tuples is equivalent to
    vanishing everywhere, so the system has one row per basis tuple t
    and matrix cell, with the entries (t[s(1)] ... t[s(d)])[cell] over
    the permutations s.  Each such product is the product of one word
    of length d over the basis indices, multiplied once, prefix times
    last letter, from nonzero prefixes only.  A nonzero word w is the
    product of t = w o s^-1 under each s, so its nonzero cells (row-major)
    fill the entries of s in the rows (t, cell), built one first letter
    of t at a time and streamed in (tuple, cell) order through a
    SpanTracker, which stops early once they span all d! columns (the
    kernel is then {0}); otherwise the kernel basis is SpanTracker.kernel
    of its rows, which depends on the row space alone (its reduced row
    echelon form is unique), so those few rows give the full kernel.
    """
    if d < 1:
        raise DegreeTooSmall("degree must be at least 1")
    if d > 5:
        raise DegreeTooLarge("degree capped at 5 (factorial growth)")
    perms = list(permutations(range(d)))
    ctx, basis = alg.ctx, [_payloads(m, alg.ctx) for m in alg.basis]
    words = {(i,): m for i, m in enumerate(basis)}
    for _ in range(d - 1):
        words = {w + (i,): m for w, a in words.items()
                 for i, b in enumerate(basis)
                 if not all(map(ctx.is_zero,
                                chain(*(m := mat_mul(ctx, a, b)))))}
    # at[i][a]: the nonzero words with a at position i, and their cells
    at = [[[] for _ in basis] for _ in range(d)]
    for w, m in words.items():
        nz = [(i, x) for i, x in enumerate(chain(*m)) if not ctx.is_zero(x)]
        for i, a in enumerate(w):
            at[i][a].append((w, nz))
    inverses = [[perm.index(j) for j in range(d)] for perm in perms]
    tracker = SpanTracker(lambda k: k, alg.ctx)
    for first in range(len(basis)):
        # the rows of the tuples t = w o perm^-1 whose first letter is first
        rows = {}
        for k, inverse in enumerate(inverses):
            for w, nz in at[inverse[0]][first]:
                t = tuple(map(w.__getitem__, inverse))
                for cell, x in nz:
                    rows.setdefault((t, cell), {})[k] = x
        for key in sorted(rows):
            if tracker.insert(rows[key]) and tracker.rank == len(perms):
                return IdentitySpace(d, perms, [], alg.ctx)
    return IdentitySpace(d, perms, tracker.kernel(len(perms)), alg.ctx)
