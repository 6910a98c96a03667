import itertools
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dexchange.gf import (
    MAX_MODULUS,
    FieldSpec,
    FMatrix,
    RowBasis,
    ShapeError,
    SingularSystem,
    _eliminate_leading,
    is_prime,
    rank,
    solve_full_rank,
)

SMALL_PRIMES = (2, 3, 5)


def test_field_spec_rejects_composite_order():
    with pytest.raises(ValueError):
        FieldSpec(6)
    with pytest.raises(ValueError):
        FieldSpec(1)


def test_matrix_validation():
    f = FieldSpec(5)
    with pytest.raises(ValueError):
        FMatrix(f, [[0, 5]])
    with pytest.raises(ShapeError):
        FMatrix(f, [1, 2, 3])
    m = FMatrix(f, [[1, 2], [3, 4]])
    assert m.rows == 2 and m.cols == 2
    with pytest.raises(ValueError):
        m.array[0, 0] = 3  # entries are read-only
    # Non-integer entries are refused, not truncated or cast.
    for entries in ([[1.7, 2.2]], [[1.0, 2.0]], [[True, False]], np.ones((2, 2)), [["1", "2"]]):
        with pytest.raises(ValueError, match="must be integers"):
            FMatrix(f, entries)
    assert FMatrix(f, np.array([[1, 2]], dtype=np.uint8)).array.tolist() == [[1, 2]]
    assert FMatrix(f, [], cols=4).array.shape == (0, 4)


def test_empty_matrix_rank_is_zero():
    f = FieldSpec(5)
    assert rank(FMatrix(f, [], cols=4)) == 0
    assert rank(FMatrix(f, np.zeros((2, 4), dtype=np.int64))) == 0


def test_identity_full_rank():
    assert rank(FMatrix(FieldSpec(5), np.eye(3, dtype=np.int64))) == 3


def test_rank_dependent_rows():
    f = FieldSpec(3)
    assert rank(FMatrix(f, [[1, 1], [2, 2]])) == 1


def test_solve_identity():
    f = FieldSpec(5)
    w = solve_full_rank(FMatrix(f, np.eye(3, dtype=np.int64)), [1, 2, 3])
    assert list(w) == [1, 2, 3]


def test_solve_back_substitution():
    f = FieldSpec(3)
    w = solve_full_rank(FMatrix(f, [[1, 1], [0, 1]]), [0, 2])
    assert list(w) == [1, 2]


def test_solve_singular_raises():
    f = FieldSpec(3)
    with pytest.raises(SingularSystem):
        solve_full_rank(FMatrix(f, [[1, 1], [2, 2]]), [0, 1])


def test_singular_system_keeps_its_rank_through_pickle():
    exc = pickle.loads(pickle.dumps(SingularSystem("inconsistent right-hand side", rank=2)))
    assert str(exc) == "inconsistent right-hand side" and exc.rank == 2


def test_solve_shape_mismatch():
    f = FieldSpec(3)
    with pytest.raises(ShapeError):
        solve_full_rank(FMatrix(f, [[1, 1], [0, 1]]), [0, 1, 2])


def test_solve_overdetermined_consistent():
    f = FieldSpec(7)
    m = FMatrix(f, [[1, 0], [0, 1], [1, 1]])
    w = solve_full_rank(m, [2, 3, 5])
    assert list(w) == [2, 3]


@st.composite
def matrices(draw, max_dim=5):
    p = draw(st.sampled_from(SMALL_PRIMES + (257,)))
    r = draw(st.integers(1, max_dim))
    c = draw(st.integers(1, max_dim))
    entries = draw(
        st.lists(
            st.lists(st.integers(0, p - 1), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
    return FMatrix(FieldSpec(p), entries)


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_rank_equals_transpose_rank(m):
    mt = FMatrix(m.field, m.array.T)
    assert rank(m) == rank(mt)


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_rank_is_submodular_in_row_subsets(m):
    rows = [m.array[i : i + 1] for i in range(m.rows)]

    def r(mask):
        chosen = [rows[i] for i in range(m.rows) if mask & (1 << i)]
        if not chosen:
            return 0
        return rank(FMatrix(m.field, np.concatenate(chosen)))

    full = (1 << m.rows) - 1
    for s in range(full + 1):
        for t in range(s, full + 1):
            assert r(s) + r(t) >= r(s | t) + r(s & t)


@given(matrices(max_dim=4), st.data())
@settings(max_examples=60, deadline=None)
def test_solve_round_trip(m, data):
    # Build a full-column-rank system by stacking an identity, then recover
    # an arbitrary w from its image.
    f = m.field
    stacked = FMatrix(f, np.concatenate([np.eye(m.cols, dtype=np.int64), m.array]))
    w = np.array(
        data.draw(st.lists(st.integers(0, f.p - 1), min_size=m.cols, max_size=m.cols)),
        dtype=np.int64,
    )
    assert list(solve_full_rank(stacked, stacked.mat_vec(w))) == list(w)


def test_row_basis_incremental_matches_batch_rank():
    rng = np.random.default_rng(5)
    f = FieldSpec(5)
    for _ in range(20):
        a = rng.integers(0, 5, size=(6, 4))
        basis = RowBasis(f, 4)
        for i in range(6):
            before = basis.rank
            grew = basis.add(a[i])
            expected = rank(FMatrix(f, a[: i + 1]))
            assert basis.rank == expected
            assert grew == (expected == before + 1)
        # A basis built from the rows holds what adding them one by one does.
        built = RowBasis(f, 4, a)
        assert built.rank == basis.rank
        assert np.array_equal(built._rows, basis._rows)
        assert np.array_equal(built._pivots[: built.rank], basis._pivots[: basis.rank])


def _reference_row_reduce(a, p):
    """Batched Gauss-Jordan elimination as the package did it before every
    reduction went through RowBasis: rows top to bottom, each reduced by the
    pivots above it and pivoted on its first nonzero entry."""
    a = a % p
    pivots, keep = [], []
    for r in range(a.shape[0]):
        row = a[r]
        c = int((row != 0).argmax())
        if not row[c]:
            continue
        row = (row * pow(int(row[c]), p - 2, p)) % p
        col = a[:, c : c + 1].copy()
        col[r] = 0
        a = (a - col * row) % p
        a[r] = row
        pivots.append(c)
        keep.append(r)
    return a[keep], pivots


class _ReferenceBasis:
    """The batch ``extend`` basis that RowBasis.add replaced."""

    def __init__(self, p, cols):
        self.p = p
        self.rows = np.zeros((0, cols), dtype=np.int64)
        self.pivots = []

    def extend(self, x):
        if len(self.pivots) == self.rows.shape[1] or not x.shape[0]:
            return 0
        x = x % self.p
        if self.pivots:
            x = (x - x[:, self.pivots] @ self.rows) % self.p
        new, pivots = _reference_row_reduce(x, self.p)
        if pivots:
            old = self.rows
            if old.shape[0]:
                old = (old - old[:, pivots] @ new) % self.p
            self.rows = np.concatenate([old, new])
            self.pivots += pivots
        return len(pivots)


def _reference_solve(a, b, p):
    red, pivots = _reference_row_reduce(np.concatenate([a, (b % p).reshape(-1, 1)], axis=1), p)
    found = sum(c < a.shape[1] for c in pivots)  # the pivots left of the rhs column
    if a.shape[1] in pivots:
        raise SingularSystem("inconsistent right-hand side", rank=found)
    if found < a.shape[1]:
        raise SingularSystem(f"matrix rank {found} is below column count {a.shape[1]}", rank=found)
    w = np.zeros(a.shape[1], dtype=np.int64)
    w[pivots] = red[:, -1]
    return w


@st.composite
def systems(draw):
    """A matrix over a small or large field (tall, wide or square, often rank
    deficient through repeated or scaled rows) and a right-hand side, half
    the time consistent."""
    p = draw(st.sampled_from(SMALL_PRIMES + (17, 257)))
    rows = draw(st.integers(0, 9))
    cols = draw(st.integers(1, 7))
    entries = st.lists(st.integers(0, p - 1), min_size=cols, max_size=cols)
    a = [draw(entries) for _ in range(rows)]
    for i in range(rows):
        if i and draw(st.integers(0, 3)) == 0:
            k = draw(st.integers(0, p - 1))
            a[i] = [(k * v) % p for v in a[draw(st.integers(0, i - 1))]]
    a = np.array(a, dtype=np.int64).reshape(rows, cols)
    if draw(st.booleans()):  # consistent: the image of some w
        b = a @ np.array(draw(entries), dtype=np.int64) % p
    else:
        b = np.array(draw(st.lists(st.integers(0, p - 1), min_size=rows, max_size=rows)))
    return p, a, b.astype(np.int64)


@given(systems(), st.integers(0, 9))
@settings(max_examples=300, deadline=None)
def test_row_basis_matches_the_batched_reference(system, split):
    p, a, b = system
    f = FieldSpec(p)
    cols = a.shape[1]
    # One row at a time on top of a basis built from the first rows.
    basis, ref = RowBasis(f, cols, a[:split]), _ReferenceBasis(p, cols)
    ref.extend(a[:split])
    for row in a[split:]:
        assert basis.add(row) == (ref.extend(row.reshape(1, -1)) > 0)
        assert basis.rank == len(ref.pivots)
        assert np.array_equal(basis._rows[: basis.rank], ref.rows)
        assert list(basis._pivots[: basis.rank]) == ref.pivots
    m = FMatrix(f, a, cols=cols)
    assert rank(m) == len(_reference_row_reduce(a, p)[1])
    try:
        expected = _reference_solve(a, b, p)
    except SingularSystem as exc:
        with pytest.raises(SingularSystem) as got:
            solve_full_rank(m, b)
        assert str(got.value) == str(exc)
        assert got.value.rank == exc.rank == rank(m)
    else:
        assert np.array_equal(solve_full_rank(m, b), expected)


@pytest.mark.parametrize("p, dtype", [(46337, np.uint32), (1048573, np.uint64)])
def test_eliminate_leading_worst_case_operands_fit_their_dtype(p, dtype):
    # The largest prime whose batches run in uint32, and the largest prime the
    # package admits, in uint64.  Pivot row [p-1, p-1] over the row [0, p-1]
    # makes the sum before the reduction (p-1)^2 + p(p-1), which is the
    # kernel's bound (p-1)(2p-1).
    top = np.iinfo(dtype).max
    nxt = next(n for n in itertools.count(p + 1) if is_prime(n))
    assert (p - 1) * (2 * p - 1) <= top
    assert nxt > MAX_MODULUS if dtype is np.uint64 else (nxt - 1) * (2 * nxt - 1) > top
    gained, rest = _eliminate_leading(np.array([[[p - 1, p - 1], [0, p - 1]]], dtype=dtype), 1, p)
    assert rest.dtype == dtype
    assert gained.tolist() == [1]
    assert rest.tolist() == [[[0, 1]]]


def test_is_prime_small_values():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]


def test_row_basis_copy_is_independent():
    f = FieldSpec(7)
    a = RowBasis(f, 3, [[1, 2, 3]])
    b = a.copy()
    assert b.add([0, 1, 0]) and (a.rank, b.rank) == (1, 2)
    assert a.add([0, 0, 1]) and a._pivots[1] == 2 and b._pivots[1] == 1
    assert np.array_equal(b._rows[:2], RowBasis(f, 3, [[1, 2, 3], [0, 1, 0]])._rows[:2])


@given(matrices(), st.data())
@settings(max_examples=80, deadline=None)
def test_row_basis_checks_span_the_orthogonal_complement(m, data):
    # Each check row is orthogonal to every row of the matrix, and the
    # checks are independent, so they span all N - rank such vectors.
    checks = RowBasis(m.field, m.cols, m.array).checks()
    r = rank(m)
    assert checks.shape == (m.cols - r, m.cols)
    assert not (m.array @ checks.T % m.field.p).any()
    assert rank(FMatrix(m.field, checks, cols=m.cols)) == m.cols - r
