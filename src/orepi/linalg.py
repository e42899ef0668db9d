"""Exact linear algebra over the coefficient fields.

One elimination routine, a sparse row-echelon span tracker.  It serves
membership tests (the spanning checks and basis closure in the matrix
laboratory) and, once its rows are back-reduced to the reduced row
echelon form, kernels (fixed subspaces, multilinear identity search).
All arithmetic is exact; there is no pivoting heuristic beyond "first
nonzero entry in a deterministic column order".
"""

from functools import lru_cache


class SpanTracker:
    """Incremental row space over an exact field.

    Rows are sparse dicts column -> Coeff.  Columns are ordered by a
    caller-supplied sort key, computed once per column and tracker; each
    stored row is normalized with leading coefficient 1 at its leading
    (smallest-key) column.
    """

    def __init__(self, col_key):
        self.col_key = lru_cache(maxsize=None)(col_key)
        self.rows = {}  # leading column -> row dict

    def _lead(self, row):
        return min(row, key=self.col_key)

    @staticmethod
    def _subtract(row, factor, pivot):
        """row -= factor * pivot in place, dropping entries that vanish."""
        for col, val in pivot.items():
            cur = row.get(col)
            upd = (cur - factor * val) if cur is not None else -(factor * val)
            if upd.is_zero():
                row.pop(col, None)
            else:
                row[col] = upd

    def reduce(self, row):
        """Residual of row against the current span (row unchanged)."""
        row = dict(row)
        while row:
            lead = self._lead(row)
            pivot = self.rows.get(lead)
            if pivot is None:
                return row
            self._subtract(row, row[lead], pivot)
        return row

    def insert(self, row):
        """Add a row; returns True if it enlarged the span."""
        residual = self.reduce(row)
        if not residual:
            return False
        lead = self._lead(residual)
        inv = residual[lead].inv()
        self.rows[lead] = {c: v * inv for c, v in residual.items()}
        return True

    def contains(self, row):
        return not self.reduce(row)

    @property
    def rank(self):
        return len(self.rows)

    def kernel(self, ncols, ctx):
        """Kernel basis of the inserted rows over columns 0 .. ncols-1.

        The stored rows are copied and back-reduced, last pivot first,
        into the reduced row echelon form, unique for the row space
        (col_key must order the columns as integers).  Each free column
        f, ascending, gives one vector: 1 at f and, at each pivot column,
        minus that reduced row's entry at f.
        """
        reduced = {}
        for lead in sorted(self.rows, key=self.col_key, reverse=True):
            row = dict(self.rows[lead])
            # a reduced row has no entry at any other pivot column, so
            # clearing one column of row leaves the others untouched
            for col in [c for c in row if c != lead and c in reduced]:
                self._subtract(row, row[col], reduced[col])
            reduced[lead] = row
        zero, one = ctx.zero(), ctx.one()
        basis = []
        for free in range(ncols):
            if free not in reduced:
                vec = [zero] * ncols
                vec[free] = one
                for lead, row in reduced.items():
                    if free in row:
                        vec[lead] = -row[free]
                basis.append(vec)
        return basis


def dense_kernel(rows, ncols, ctx):
    """SpanTracker.kernel of the row space of ``rows`` (ncols Coeffs each)."""
    tracker = SpanTracker(col_key=lambda k: k)
    for r in rows:
        tracker.insert({k: c for k, c in enumerate(r) if not c.is_zero()})
    return tracker.kernel(ncols, ctx)
