"""Exact kernels: SpanTracker.kernel and dense_kernel against a dense
Gauss-Jordan reference.  A tracker takes payload rows (column -> bare
payload); dense_kernel and the helpers here take rows of Coeffs."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from orepi import FieldCtx, coeff_to_str
from orepi.errors import CtxMismatch
from orepi.linalg import SpanTracker, dense_kernel

from conftest import random_coeff

FIELDS = [
    pytest.param(FieldCtx.rational, id="Q"),
    pytest.param(lambda: FieldCtx.cyclotomic(12), id="Q(z12)"),
    pytest.param(lambda: FieldCtx.galois_prime(13), id="GF(13)"),
    pytest.param(lambda: FieldCtx.galois(3, (1, 0, 1)), id="GF(3^2)"),
    pytest.param(lambda: FieldCtx.rational_functions(("q",)), id="Q(q)"),
]


def gauss_jordan_kernel(rows, ncols, ctx):
    """Reference: dense Gauss-Jordan elimination over the columns in
    order, then one kernel vector per free column, ascending."""
    mat = [list(r) for r in rows]
    pivots = []  # (row index, col index)
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(mat)):
            if not mat[i][c].is_zero():
                pivot = i
                break
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = mat[r][c].inv()
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and not mat[i][c].is_zero():
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append((r, c))
        r += 1
        if r == len(mat):
            break
    pivot_cols = {c for _, c in pivots}
    basis = []
    zero, one = ctx.zero(), ctx.one()
    for free in range(ncols):
        if free in pivot_cols:
            continue
        vec = [zero] * ncols
        vec[free] = one
        for ri, ci in pivots:
            vec[ci] = -mat[ri][free]
        basis.append(vec)
    return basis


def payloads(row):
    """A row of Coeffs as the tracker's payload row, zero entries kept."""
    return {k: c.val for k, c in enumerate(row)}


def tracker_kernel(rows, ncols, ctx):
    """The kernel from a tracker fed the rows last first: the reduced
    echelon form, and so the basis, depends on the row space alone."""
    tracker = SpanTracker(lambda k: k, ctx)
    for r in reversed(rows):
        tracker.insert(payloads(r))
    return tracker.kernel(ncols)


def assert_same_basis(got, want):
    """Equal entry for entry, payloads included.  A Q(params) payload
    keeps polynomial common factors (only integer and monomial content
    is stripped), so there equal values may be stored differently and
    only the values are compared."""
    assert len(got) == len(want)
    for u, v in zip(got, want):
        assert len(u) == len(v)
        for a, b in zip(u, v):
            assert a == b
            if a.ctx.kind != "ratfunc":
                assert a.val == b.val
                assert coeff_to_str(a) == coeff_to_str(b)


def assert_annihilates(basis, rows, ctx):
    for vec in basis:
        for r in rows:
            acc = ctx.zero()
            for a, b in zip(r, vec):
                acc = acc + a * b
            assert acc.is_zero()


def random_system(ctx, rng, ncols, rank, nrows):
    """nrows random combinations of rank random rows, with zero rows and
    zero combination coefficients mixed in."""
    base = [[random_coeff(ctx, rng) for _ in range(ncols)]
            for _ in range(rank)]
    rows = []
    for _ in range(nrows):
        row = [ctx.zero()] * ncols
        for b in base:
            c = ctx.from_int(rng.randint(-2, 2))
            row = [x + c * y for x, y in zip(row, b)]
        rows.append(row)
    return rows


def check(rows, ncols, ctx):
    want = gauss_jordan_kernel(rows, ncols, ctx)
    assert_same_basis(tracker_kernel(rows, ncols, ctx), want)
    assert_same_basis(dense_kernel(rows, ncols, ctx), want)
    assert_annihilates(want, rows, ctx)
    return want


@pytest.mark.parametrize("make_ctx", FIELDS)
def test_empty_and_zero_rows(make_ctx):
    ctx = make_ctx()
    for ncols in range(4):
        for nrows in (0, 1, 3):
            basis = check([[ctx.zero()] * ncols] * nrows, ncols, ctx)
            assert len(basis) == ncols


@pytest.mark.parametrize("make_ctx", FIELDS)
def test_full_rank_has_trivial_kernel(make_ctx):
    ctx = make_ctx()
    i = ctx.from_int
    # upper unitriangular, so independent in every characteristic
    rows = [[i(1), i(2), i(3)], [i(0), i(1), i(5)], [i(0), i(0), i(1)]]
    assert check(rows, 3, ctx) == []
    assert check(rows[::-1] + rows, 3, ctx) == []


@pytest.mark.parametrize("make_ctx", FIELDS)
def test_random_rank_deficient_systems(make_ctx, rng):
    ctx = make_ctx()
    for _ in range(25):
        ncols = rng.randint(1, 5)
        rank = rng.randint(0, ncols)
        nrows = rng.randint(0, ncols + 2)
        rows = random_system(ctx, rng, ncols, rank, nrows)
        basis = check(rows, ncols, ctx)
        assert len(basis) >= ncols - rank
        # one-entry rows, which insert stores without a reduction at a
        # column that is no pivot: a zero payload, a column that is no
        # pivot yet and one that is
        tracker = SpanTracker(lambda k: k, ctx)
        for r in rows:
            tracker.insert(payloads(r))
        scalar = ctx.from_int(rng.choice((-1, 1, 2)))
        singles = [(rng.randrange(ncols), ctx.zero())]
        singles += [(rng.choice(cols), scalar) for cols in (
            [k for k in range(ncols) if k not in tracker.rows],
            sorted(tracker.rows)) if cols]
        for col, c in singles:
            new = not c.is_zero() and col not in tracker.rows
            grew = tracker.insert({col: c.val})
            assert grew or not new
            if new:
                assert tracker.rows[col] == {col: ctx.one().val}
            if c.is_zero():
                assert not grew
        dense = [[c if k == col else ctx.zero() for k in range(ncols)]
                 for col, c in singles]
        assert_same_basis(tracker.kernel(ncols),
                          gauss_jordan_kernel(rows + dense, ncols, ctx))


@pytest.mark.parametrize("make_ctx", FIELDS)
def test_kernel_leaves_the_tracker_unchanged(make_ctx, rng):
    ctx = make_ctx()
    rows = random_system(ctx, rng, 5, 3, 4)
    tracker = SpanTracker(lambda k: k, ctx)
    for r in rows:
        tracker.insert(payloads(r))
    before = {lead: dict(row) for lead, row in tracker.rows.items()}
    first = tracker.kernel(5)
    assert tracker.rows == before
    assert_same_basis(tracker.kernel(5), first)


def test_dense_kernel_holds_one_field():
    # the tracker takes bare payloads, so the field of a Coeff row is
    # checked where it is unwrapped: one entry of another field, even in
    # a column no other row uses, raises
    QQ = FieldCtx.rational()
    z3 = FieldCtx.cyclotomic(3).generator()
    with pytest.raises(CtxMismatch):
        dense_kernel([[QQ.one(), QQ.zero()], [QQ.zero(), z3]], 2, QQ)
    with pytest.raises(CtxMismatch):
        dense_kernel([[QQ.zero(), FieldCtx.cyclotomic(3).zero()]], 2, QQ)
    basis = dense_kernel([[QQ.one(), QQ.zero()]], 2, QQ)
    assert [[c.ctx for c in vec] for vec in basis] == [[QQ, QQ]]


def test_dense_kernel_accepts_an_equal_field():
    ctx, other = FieldCtx.cyclotomic(3), FieldCtx.cyclotomic(3)
    assert other is not ctx
    rows = [[other.zero(), other.generator()], [ctx.zero(), ctx.one()]]
    assert_same_basis(dense_kernel(rows, 2, ctx), [[ctx.one(), ctx.zero()]])


@pytest.mark.parametrize("make_ctx", FIELDS)
def test_tracker_copies_payload_rows_without_zero_entries(make_ctx):
    # insert and contains leave their argument as it is (the spanning
    # check reuses each row for the next length) and store no zero entry
    ctx = make_ctx()
    zero, one, two = ctx.zero().val, ctx.one().val, ctx.from_int(2).val
    tracker = SpanTracker(lambda k: k, ctx)
    rows = [{0: zero}, {0: zero, 1: two, 2: one}, {1: one, 2: zero},
            {1: two, 2: one, 3: zero}]
    kept = [dict(r) for r in rows]
    assert [tracker.insert(r) for r in rows] == [False, True, True, False]
    assert rows == kept
    assert all(v is not r for v in tracker.rows.values() for r in rows)
    assert sorted(tracker.rows) == [1, 2]
    assert all(not ctx.is_zero(v)
               for row in tracker.rows.values() for v in row.values())
    probes = [{0: one}, {0: zero, 2: two}, {}, {3: zero}]
    kept = [dict(r) for r in probes]
    assert [tracker.contains(r) for r in probes] == [False, True, True, True]
    assert probes == kept


@pytest.mark.parametrize("make_ctx", FIELDS)
def test_no_inverse_for_one_entry_or_lead_one_rows(make_ctx, monkeypatch):
    ctx = make_ctx()
    calls = []
    real = type(ctx).inv
    monkeypatch.setattr(type(ctx), "inv",
                        lambda self, a: calls.append(a) or real(self, a))
    tracker = SpanTracker(lambda k: k, ctx)
    c, one = ctx.from_int(2).val, ctx.one().val
    cc = ctx.mul(c, c)
    assert tracker.insert({4: c})                             # one entry
    assert tracker.insert({0: one, 2: c, 4: c})               # lead 1
    # c times the lead-1 row plus c at column 5: one entry is left
    assert tracker.insert({0: c, 2: cc, 4: cc, 5: c})
    assert tracker.contains({0: c, 2: cc, 4: one, 5: one})
    assert calls == []
    assert tracker.rows[4] == {4: one}
    assert tracker.rows[5] == {5: one}
    # leading entry 2 and two entries: only Q stores such a row undivided
    assert tracker.insert({3: c, 6: one})
    assert len(calls) == (0 if ctx.kind == "rational" else 1)


def _content_one_integer_rows(tracker):
    for row in tracker.rows.values():
        assert all(type(v) is int for v in row.values())
        assert gcd(*row.values()) == 1


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_rational_rows_match_gauss_jordan(data):
    """Large denominators, rank-deficient systems and one-entry rows over
    Q: rank, membership and kernel payloads agree with the reference, and
    the tracker stores primitive integer rows."""
    QQ = FieldCtx.rational()
    ncols = data.draw(st.integers(1, 6))
    rank = data.draw(st.integers(0, ncols))
    big = st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                       max_denominator=10 ** 6)
    sparse = st.one_of(st.just(Fraction(0)), big)

    def vec(entries):
        return [QQ.from_fraction(x) for x in entries]

    base = [vec(data.draw(st.lists(sparse, min_size=ncols, max_size=ncols)))
            for _ in range(rank)]
    rows = []
    for _ in range(data.draw(st.integers(0, ncols + 2))):
        coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=rank,
                                    max_size=rank))
        row = vec([0] * ncols)
        for k, b in zip(coeffs, base):
            row = [x + QQ.from_int(k) * y for x, y in zip(row, b)]
        rows.append(row)
    for _ in range(data.draw(st.integers(0, 3))):
        row = vec([0] * ncols)
        row[data.draw(st.integers(0, ncols - 1))] = QQ.from_fraction(
            data.draw(big.filter(bool)))
        rows.insert(data.draw(st.integers(0, len(rows))), row)

    want = gauss_jordan_kernel(rows, ncols, QQ)
    tracker = SpanTracker(lambda k: k, QQ)
    for r in rows:
        tracker.insert(payloads(r))
    _content_one_integer_rows(tracker)
    assert tracker.rank == ncols - len(want)
    assert_same_basis(tracker.kernel(ncols), want)
    assert_same_basis(dense_kernel(rows, ncols, QQ), want)

    probe = vec(data.draw(st.lists(sparse, min_size=ncols, max_size=ncols)))
    if rows and data.draw(st.booleans()):
        probe = [x + y for x, y in zip(probe, rows[0])]
    spanned = len(gauss_jordan_kernel(rows + [probe], ncols, QQ)) == len(want)
    assert tracker.contains(payloads(probe)) == spanned
    for r in rows:
        assert tracker.contains(payloads(r))
    _content_one_integer_rows(tracker)
