"""Exact linear algebra over the coefficient fields.

One elimination routine, a sparse row-echelon span tracker, the only
one in orepi: field inverses take none (a cyclotomic inverse is a
product of Galois conjugates over the norm, a Galois one a power).  It
serves membership tests (the spanning checks and basis closure in the
matrix laboratory) and, once its rows are back-reduced to the reduced
row echelon form, kernels and echelon bases (fixed subspaces, and every
row reduction of the multilinear identity search).  A one-entry row at a
column that is no pivot, the spanning checks' usual row, is stored as 1
there without a reduction.
A tracker is bound to one field.  Its one row format is the payload
dict, column -> bare payload of that field, the format of the
straightener's normal forms; it checks no field, so callers holding
Coeffs unwrap them (and dense_kernel checks their field) at their edge.
Only kernel and echelon vectors come back as Coeffs.
How a row is scaled during elimination is the field's choice
(``FieldCtx.pivot_multiple``): over Q rows are primitive integer vectors
and a step cross-multiplies (fraction-free, as in Bareiss's integer
elimination), so no Fraction is built before the kernel; every other
field keeps rows with leading coefficient 1.  All arithmetic is exact;
there is no pivoting heuristic beyond "first nonzero entry in a
deterministic column order".
"""

from functools import lru_cache

from .errors import CtxMismatch
from .fields import Coeff


def _same(val):
    return val


class SpanTracker:
    """Incremental row space over one exact field, ``ctx``.

    A row is a sparse dict column -> payload of ``ctx``, copied without
    its zero entries by insert and contains (the argument is left as it
    is).  Columns are ordered by a caller-supplied sort key, computed
    once per column and tracker.  A stored row's leading (smallest-key)
    column is its pivot.  A row with one entry is stored
    as 1 there; any other row as ``ctx.pivot_multiple`` leaves it: over Q
    a primitive integer vector, over every other field divided by its
    leading coefficient unless that is 1 already.
    """

    def __init__(self, col_key, ctx):
        self.col_key = lru_cache(maxsize=None)(col_key)
        self.ctx = ctx
        self._ops = (ctx.add, ctx.sub, ctx.mul, ctx.neg, ctx.is_zero)
        self._one = ctx.embed(1)
        self._minus_one = ctx.neg(self._one)
        self.rows = {}  # leading column -> row dict of payloads

    def _lead(self, row):
        if len(row) == 1:
            return next(iter(row))
        return min(row, key=self.col_key)

    def _subtract(self, row, factor, pivot):
        """row -= factor * pivot in place, dropping entries that vanish.
        A factor of 1 or -1 subtracts or adds pivot's entries as they are."""
        add, sub, mul, neg, is_zero = self._ops
        if factor == self._one:
            step, fresh = sub, neg
        elif factor == self._minus_one:
            step, fresh = add, _same
        else:
            step, fresh = sub, neg
            pivot = {col: mul(factor, val) for col, val in pivot.items()}
        for col, val in pivot.items():
            cur = row.get(col)
            upd = step(cur, val) if cur is not None else fresh(val)
            if is_zero(upd):
                row.pop(col, None)
            else:
                row[col] = upd

    def _reduce(self, row):
        """Residual of a payload row against the current span, reduced in
        a copy of the row without its zero entries."""
        rows, lead_of = self.rows, self._lead
        multiple, is_zero = self.ctx.pivot_multiple, self._ops[4]
        row = {col: val for col, val in row.items() if not is_zero(val)}
        while row:
            lead = lead_of(row)
            pivot = rows.get(lead)
            if pivot is None:
                return row
            self._subtract(row, multiple(row, lead, pivot[lead]), pivot)
        return row

    def insert(self, row):
        """Add a payload row; returns True if it enlarged the span.  A row
        with one entry, at a column that is no pivot, is stored as 1 there
        without a reduction."""
        if len(row) == 1:
            [(lead, val)] = row.items()
            if lead not in self.rows:
                if self._ops[4](val):
                    return False
                self.rows[lead] = {lead: self._one}
                return True
        residual = self._reduce(row)
        if not residual:
            return False
        lead = self._lead(residual)
        one = self._one
        if len(residual) == 1:
            residual = {lead: one}
        else:
            ctx = self.ctx
            div = ctx.pivot_multiple(residual, lead, None)
            if not ctx.eq(div, one):
                mul, inv = ctx.mul, ctx.inv(div)
                residual = {c: mul(v, inv) for c, v in residual.items()}
        self.rows[lead] = residual
        return True

    def contains(self, row):
        return not self._reduce(row)

    @property
    def rank(self):
        return len(self.rows)

    def _reduced(self):
        """{pivot: row} of the reduced row echelon form, unique for the
        row space: the stored rows divided by their leading coefficients
        where not 1 (the rows over Q) and back-reduced, last pivot first."""
        ctx = self.ctx
        eq, mul = ctx.eq, ctx.mul
        reduced = {}
        for lead in sorted(self.rows, key=self.col_key, reverse=True):
            row = self.rows[lead]
            if eq(row[lead], self._one):
                row = dict(row)
            else:
                inv = ctx.inv(row[lead])
                row = {c: mul(v, inv) for c, v in row.items()}
            # a reduced row has no entry at any other pivot column, so
            # clearing one column of row leaves the others untouched
            for col in [c for c in row if c != lead and c in reduced]:
                self._subtract(row, row[col], reduced[col])
            reduced[lead] = row
        return reduced

    def null_space(self, ncols):
        """Kernel basis of the inserted rows over columns 0 .. ncols-1, as
        payload dicts (col_key must order the columns as integers).  Each
        free column f, ascending, gives one vector: 1 at f and, at each
        pivot column, minus that reduced row's entry at f."""
        reduced, neg = self._reduced(), self.ctx.neg
        basis = []
        for free in range(ncols):
            if free not in reduced:
                vec = {free: self._one}
                for lead, row in reduced.items():
                    if free in row:
                        vec[lead] = neg(row[free])
                basis.append(vec)
        return basis

    def kernel(self, ncols):
        """null_space(ncols) as lists of Coeffs."""
        return [_coeffs(v, ncols, self.ctx) for v in self.null_space(ncols)]

    def echelon(self, ncols):
        """The reduced rows, ascending by pivot, as lists of ncols Coeffs.
        With col_key = -k each is 1 at its last nonzero column and 0 at
        the others', so they are their span's basis in kernel's form."""
        reduced = self._reduced()
        return [_coeffs(reduced[lead], ncols, self.ctx)
                for lead in sorted(reduced)]


def _coeffs(vec, ncols, ctx):
    out = [ctx.zero()] * ncols
    for col, val in vec.items():
        out[col] = Coeff(ctx, val)
    return out


def dense_kernel(rows, ncols, ctx):
    """SpanTracker.kernel of the row space of ``rows`` (ncols Coeffs each);
    an entry of another field raises CtxMismatch."""
    tracker = SpanTracker(lambda k: k, ctx)
    for r in rows:
        if any(c.ctx is not ctx and c.ctx != ctx for c in r):
            raise CtxMismatch(f"{ctx!r} vs a row of another field")
        tracker.insert({k: c.val for k, c in enumerate(r)})
    return tracker.kernel(ncols)
