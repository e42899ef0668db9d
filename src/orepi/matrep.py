"""Exact matrix representations and multilinear identity search.

The cyclic-shift/diagonal model realizes the quantum plane relation
y x = q x y at a primitive root of unity; standard_poly_eval computes
the alternating sum s_k over all permutations; the identity search
solves, exactly, for all multilinear identities of a given degree on a
finite-dimensional matrix algebra.

The search evaluates every permuted product of every basis tuple, and
each of those is the product of one word of length d over the basis
indices.  So it multiplies each of the dim^d words once, as its prefix
times its last letter, into a dict that lives for one call, and lists
the nonzero cells of each word of length d once.  The rows (one per
tuple and nonzero matrix cell) are gathered from those lists; they
stream through a SpanTracker, which keeps the independent ones and
stops as soon as they span every column (the kernel is then {0}).
Otherwise the kernel is read from that tracker's rows.  The reduced row
echelon form of a row space is unique, so the kernel basis those few
rows give is the one the full system gives.
"""

from collections import deque
from itertools import permutations, product

from .errors import (
    DegreeTooLarge,
    DegreeTooSmall,
    NotPrimitiveRoot,
    SizeMismatch,
)
from .linalg import SpanTracker


def mat_identity(n, ctx):
    z, o = ctx.zero(), ctx.one()
    return tuple(tuple(o if i == j else z for j in range(n)) for i in range(n))


def mat_mul(a, b):
    """a b, accumulating only over the nonzero entries of a."""
    n = len(a)
    if len(b) != n:
        raise SizeMismatch("matrix sizes differ")
    zero = a[0][0].ctx.zero()
    out = []
    for row in a:
        acc = [zero] * n
        for x, b_row in zip(row, b):
            if not x.is_zero():
                acc = [s + x * y for s, y in zip(acc, b_row)]
        out.append(tuple(acc))
    return tuple(out)


def mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(a, c):
    return tuple(tuple(x * c for x in row) for row in a)


def mat_is_zero(a):
    return all(x.is_zero() for row in a for x in row)


def mat_eq(a, b):
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


class MatAlgebra:
    """A matrix algebra given by named generator matrices.

    The linear basis of the unital algebra the generators span is
    computed at construction by closing {identity} under products with
    the generators.
    """

    def __init__(self, n, ctx, gens, relations=None):
        self.n = n
        self.ctx = ctx
        self.gens = dict(gens)
        for name, m in self.gens.items():
            if len(m) != n or any(len(r) != n for r in m):
                raise SizeMismatch(f"generator {name} is not {n}x{n}")
        if relations:
            for label, lhs, rhs in relations:
                if not mat_eq(lhs, rhs):
                    raise NotPrimitiveRoot(f"relation {label} fails")
        self.basis = self._close_basis()

    def _close_basis(self):
        tracker = SpanTracker(lambda k: k, self.ctx)
        basis = []
        queue = deque([mat_identity(self.n, self.ctx)])
        while queue:
            m = queue.popleft()
            if mat_is_zero(m) or not tracker.insert(
                    dict(enumerate(x.val for r in m for x in r))):
                continue
            basis.append(m)
            for g in self.gens.values():
                queue.append(mat_mul(m, g))
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
    rel = [("YX = q XY", mat_mul(Y, X), mat_scale(mat_mul(X, Y), q))]
    return MatAlgebra(n, ctx, {"x": X, "y": Y}, relations=rel)


def _parity(perm):
    inv = 0
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                inv += 1
    return -1 if inv % 2 else 1


def _perm_sum(coeffs, perms, mats, ctx):
    """sum_s c_s A_{s(1)} ... A_{s(d)} over the permutations s, skipping
    zero coefficients."""
    n = len(mats[0])
    acc = mat_scale(mat_identity(n, ctx), ctx.zero())
    for c, perm in zip(coeffs, perms):
        if c.is_zero():
            continue
        prod = mats[perm[0]]
        for idx in perm[1:]:
            prod = mat_mul(prod, mats[idx])
        acc = mat_add(acc, mat_scale(prod, c))
    return acc


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
    of length d over the basis indices; the dim^d words are multiplied
    once each, prefix times last letter, into a dict that lives for
    this call, and the nonzero cells of each length-d word are listed
    once.  Nonzero rows, tuple by tuple and cell by cell in row-major
    order, stream through a SpanTracker, which stops
    early once they span all d! columns; otherwise the kernel basis is
    SpanTracker.kernel of its rows, which depends on the row space alone.
    """
    if d < 1:
        raise DegreeTooSmall("degree must be at least 1")
    if d > 5:
        raise DegreeTooLarge("degree capped at 5 (factorial growth)")
    perms = list(permutations(range(d)))
    ncols = len(perms)
    letters = range(alg.dim)
    words = {(i,): m for i, m in enumerate(alg.basis)}
    for length in range(2, d + 1):
        for w in product(letters, repeat=length):
            words[w] = mat_mul(words[w[:-1]], alg.basis[w[-1]])
    # the nonzero cells of each length-d word, found once: (cell, payload)
    # pairs, cells numbered row-major
    nonzero = {w: [(i, x.val) for i, x in enumerate(x for r in m for x in r)
                   if not x.is_zero()]
               for w, m in words.items() if len(w) == d}
    tracker = SpanTracker(lambda k: k, alg.ctx)
    for t in product(letters, repeat=d):
        rows = {}
        for k, perm in enumerate(perms):
            for cell, x in nonzero[tuple(map(t.__getitem__, perm))]:
                rows.setdefault(cell, {})[k] = x
        for cell in sorted(rows):
            if tracker.insert(rows[cell]) and tracker.rank == ncols:
                return IdentitySpace(d, perms, [], alg.ctx)
    return IdentitySpace(d, perms, tracker.kernel(ncols), alg.ctx)
