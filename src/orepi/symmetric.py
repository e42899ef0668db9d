"""The multilinear identity search through the S_d action, for fields of
characteristic 0 or above the degree d (matrep.multilinear_identity_search
imports it on the first such search).

Write a_t = sum_s r_t[s] s in kS_d for the row of tuple t and one cell,
s(i) = perm[i] and (p s)(i) = p(s(i)).  Then a_(t o p) = p^-1 a_t, so the
rows span the left ideal sum_t kS_d a_t, which one sorted tuple per
multiset of basis indices generates.  When char k = 0 or char k > d, the
sum of the rho_l over the partitions l of d (Young's seminormal form,
James and Kerber 1981) maps kS_d onto the product of the M_(d_l)(k), and
a left ideal onto, in each, the matrices whose rows lie in a subspace
W_l: here the row space of the stacked rho_l(a_t), of dimension r_l.  So
the rows have rank sum_l d_l r_l.  For n with W_l n = 0 the vector
s -> (rho_l(s) n)_j is an identity, since sum_s r_t[s] (rho_l(s) n)_j =
(rho_l(a_t) n)_j = 0, and these vectors span all sum_l d_l (d_l - r_l)
dimensions of identities.

Each W_l is a SpanTracker's span, the module's one elimination.  If the
identities are no more than the R = sum_l d_l r_l rows, the vectors above
go into a SpanTracker ordering the columns last first, whose reduced rows
are the basis; else matrep._tuple_kernel streams rows until rank R.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import (
    accumulate,
    chain,
    combinations_with_replacement,
    groupby,
)

from .linalg import SpanTracker
from .matrep import _tuple_kernel, mat_mul


def _partitions(d, most=None):
    if d == 0:
        yield ()
        return
    for first in range(min(d, most or d), 0, -1):
        for rest in _partitions(d - first, first):
            yield (first,) + rest


def _tableaux(shape):
    """The standard tableaux of a shape, each the tuple of the (row,
    column) of its entries 0, 1, ..., in lexicographic order of their
    rows."""
    if not shape:
        return [()]
    out = []
    for r, n in enumerate(shape):
        if r + 1 == len(shape) or shape[r + 1] < n:
            sub = tuple(m for m in shape[:r] + (n - 1,) + shape[r + 1:] if m)
            out += [t + ((r, n - 1),) for t in _tableaux(sub)]
    return sorted(out, key=lambda t: [r for r, _ in t])


@lru_cache(maxsize=None)
def _seminormal(shape, ctx):
    """(d_l, gens, blocks): Young's seminormal form of shape l over ctx,
    on the standard tableaux.  gens[i] lists the rows of rho(s_i), s_i
    the transposition (i i+1), as (column, payload) pairs: the row of T
    holds 1/a at T and, when T' (T with i and i+1 swapped) is standard,
    1 at T' if a < 0 and 1 - 1/a^2 if a > 0, a the axial distance from
    i to i+1 in T.  On S_(d-1), rho is block diagonal: blocks pairs each
    shape m = l less a corner with the indices of the tableaux that put
    d-1 in that corner, in m's order."""
    tableaux = _tableaux(shape)
    index = {t: k for k, t in enumerate(tableaux)}
    gens = []
    for i in range(sum(shape) - 1):
        rows = []
        for t in tableaux:
            (r0, c0), (r1, c1) = t[i], t[i + 1]
            a = c1 - r1 - c0 + r0
            row = [(index[t], ctx.embed(Fraction(1, a)))]
            if r0 != r1 and c0 != c1:
                row.append((index[t[:i] + (t[i + 1], t[i]) + t[i + 2:]],
                            ctx.embed(1 if a < 0 else 1 - Fraction(1, a * a))))
            rows.append(row)
        gens.append(rows)
    blocks = {}
    for t in tableaux:
        r, n = t[-1]
        sub = tuple(m for m in shape[:r] + (n,) + shape[r + 1:] if m)
        blocks.setdefault(sub, []).append(index[t])
    return len(tableaux), gens, list(blocks.items())


def _times(ctx, rows, m):
    """rho(s) m, for rows the rows of rho(s) and m a list of rows (the
    result may share rows with m)."""
    add, one, minus = ctx.add, ctx.embed(1), ctx.embed(-1)

    def scaled(v, row):
        if v == one:
            return row
        if v == minus:
            return list(map(ctx.neg, row))
        return [ctx.mul(v, x) for x in row]
    out = []
    for (k, v), *rest in rows:
        new = scaled(v, m[k])
        for k, v in rest:
            new = list(map(add, new, scaled(v, m[k])))
        out.append(new)
    return out


def _fourier(ctx, f, d, shapes):
    """{l: rho_l(f)} for the shapes l of d, f = sum_s f[s] s a dict
    from permutations of range(d) to payloads.  Clausen's fast Fourier
    transform: s = c_k s' with k = s(d-1), c_k = s_k s_(k+1) ... s_(d-2)
    and s' in S_(d-1), the standardized s[:-1]; so rho(f) = sum_k
    rho(c_k) rho(f_k), f_k(s') = f(c_k s'), each rho(f_k) block diagonal
    (_seminormal) and transformed the same way."""
    if d == 1:
        return {(1,): [[f[(0,)]]]}
    parts = {}
    for s, x in f.items():
        k = s[-1]
        parts.setdefault(k, {})[tuple(v - (v > k) for v in s[:-1])] = x
    reps = {shape: _seminormal(shape, ctx) for shape in shapes}
    below = {part for _, _, blocks in reps.values() for part, _ in blocks}
    subs = {k: _fourier(ctx, part, d - 1, below)
            for k, part in parts.items()}
    zero, add, out = ctx.embed(0), ctx.add, {}
    for shape, (n, gens, blocks) in reps.items():
        total = None
        for k, sub in subs.items():
            m = [[zero] * n for _ in range(n)]
            for part, idx in blocks:
                for i, row in zip(idx, sub[part]):
                    for j, x in zip(idx, row):
                        m[i][j] = x
            for i in range(d - 2, k - 1, -1):
                m = _times(ctx, gens[i], m)
            total = m if total is None else [list(map(add, r, s))
                                             for r, s in zip(total, m)]
        out[shape] = total
    return out


def _class_words(ctx, basis, t):
    """The distinct nonzero words of the letters of t, each with its
    product's nonzero cells (row-major), multiplied prefix times next
    letter from nonzero prefixes only."""
    is_zero, words = ctx.is_zero, {}

    def walk(word, prod, rest):
        if not rest:
            words[word] = [(c, x) for c, x in enumerate(chain(*prod))
                           if not is_zero(x)]
        for letter in sorted(set(rest)):
            nxt = basis[letter] if prod is None \
                else mat_mul(ctx, prod, basis[letter])
            if not all(map(is_zero, chain(*nxt))):
                i = rest.index(letter)
                walk(word + (letter,), nxt, rest[:i] + rest[i + 1:])
    walk((), None, t)
    return words


def _multiple(ctx, f, g):
    """Is g a scalar multiple of f (two nonzero dicts)?"""
    if f.keys() != g.keys():
        return False
    k = next(iter(f))
    r = ctx.mul(g[k], ctx.inv(f[k]))
    return all(ctx.eq(g[c], ctx.mul(r, x)) for c, x in f.items())


def _walk(ctx, basis, d, perms, tuples):
    """(l, d_l, tracker) for the partitions l of d: each tracker, on d_l
    columns, takes the rows of rho_l(a_t) for the tuples t in order
    until its rank r_l is d_l.  The walk stops once every r_l = d_l.

    a_t = e b_t: e is the sum of the permutations h with t o h = t, and
    b_t = sum_w w[cell] s_w over the distinct words w = t o s_w, s_w
    taking each letter from its first unused position in t.  rho_l(e)
    is 0 unless l dominates the multiplicities of t's letters, and a
    cell whose b_t is a multiple of another's adds no row."""
    sym, one = {}, ctx.embed(1)
    comps = [(shape, _seminormal(shape, ctx)[0],
              SpanTracker(lambda k: k, ctx)) for shape in _partitions(d)]
    for t in tuples:
        if all(tracker.rank == n for _, n, tracker in comps):
            break
        blocks = tuple(len(list(g)) for _, g in groupby(t))
        mu = sorted(blocks, reverse=True)
        active = [c for c in comps if c[2].rank < c[1] and all(
            a >= b for a, b in zip(accumulate(c[0]), accumulate(mu)))]
        if not active:
            continue
        if len(blocks) < d and blocks not in sym:
            fixing = {h: one for h in perms
                      if all(t[i] == t[j] for i, j in enumerate(h))}
            sym[blocks] = _fourier(ctx, fixing, d, list(_partitions(d)))
        cells = {}
        for w, nz in _class_words(ctx, basis, t).items():
            s = tuple(t.index(a) + w[:i].count(a) for i, a in enumerate(w))
            for cell, x in nz:
                cells.setdefault(cell, {})[s] = x
        fs = []
        for f in cells.values():
            if not any(_multiple(ctx, g, f) for g in fs):
                fs.append(f)
        for f in fs:
            rhos = _fourier(ctx, f, d, [c[0] for c in active])
            for shape, n, tracker in active:
                rho = rhos[shape]
                if blocks in sym:
                    rho = mat_mul(ctx, sym[blocks][shape], rho)
                for row in rho:
                    if tracker.rank < n:
                        tracker.insert(dict(enumerate(row)))
    return comps


def module_kernel(ctx, basis, d, perms):
    """The kernel from the S_d-modules, as above, the tuples taken most
    distinct letters first, last letters first, so that the trackers
    fill soonest (when every one is full, the kernel is {0})."""
    tuples = list(combinations_with_replacement(range(len(basis)), d))
    comps = _walk(ctx, basis, d, perms, sorted(tuples[::-1],
                                               key=lambda t: -len(set(t))))
    rank = sum(n * tracker.rank for _, n, tracker in comps)
    if len(perms) - rank > rank:
        return _tuple_kernel(ctx, basis, d, perms, rank)
    span = SpanTracker(lambda k: -k, ctx)
    for shape, n, tracker in comps:
        for row in _null_rows(ctx, d, shape, tracker.null_space(n), perms):
            span.insert(dict(enumerate(row)))
    return span.echelon(len(perms))


def _null_rows(ctx, d, shape, nulls, perms):
    """For each null vector v and j < d_l, the row s -> (rho(s) v)_j
    over the permutations s, rho(s) v found for every s from
    s_i s = (s with the values i, i+1 swapped)."""
    n, gens, _ = _seminormal(shape, ctx)
    zero = ctx.embed(0)
    for v in nulls:
        start = tuple(range(d))
        image = {start: [[v.get(j, zero)] for j in range(n)]}
        queue = [start]
        for s in queue:
            for i, rows in enumerate(gens):
                nxt = tuple(i + 1 if x == i else i if x == i + 1 else x
                            for x in s)
                if nxt not in image:
                    image[nxt] = _times(ctx, rows, image[s])
                    queue.append(nxt)
        for j in range(n):
            yield [image[s][j][0] for s in perms]
