"""Exact linear algebra over prime fields GF(p).

Every rank oracle, decodability check and decoding step in this package sits
on top of this module.  Matrices are small and dense at the scale we target,
so the implementation favors clarity and reproducibility over asymptotics.
One incremental Gauss-Jordan basis, :class:`RowBasis`, serves ranks, solves
and decodability checks: rows are taken top to bottom, each pivoted on its
first nonzero entry once reduced, which keeps the basis in reduced row
echelon form.  The randomized allocator's exchange state tracks ranks by
parity checks, which :meth:`RowBasis.checks` reads off that form.  Matrices
are immutable after construction and all operations are pure, so they can be
shared freely across threads.  The coded rank table instead eliminates a
whole batch of matrices at once with the fraction-free
``_eliminate_leading``, on unsigned entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# The int64 matmul/elimination paths need (p - 1)^2 * cols < 2^63.  Capping
# the modulus at 2^20 leaves room for around 2^22 columns, far beyond the
# desk-scale instances this package is built for.  The coded rank-table
# batches are unsigned and need only (p - 1)(2p - 1) < 2^32 to run in uint32
# (p <= 46,337), and run in uint64 above that.
MAX_MODULUS = 1 << 20


class ShapeError(ValueError):
    """Operands have incompatible dimensions."""


class SingularSystem(ValueError):
    """Linear system does not have a unique solution.  ``rank`` is the rank of
    the coefficient matrix (None only while pickle rebuilds the exception)."""

    def __init__(self, message, *, rank=None):
        super().__init__(message)
        self.rank = rank


def is_prime(n: int) -> bool:
    """Trial-division primality test; fine for moduli below MAX_MODULUS."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class FieldSpec:
    """A prime field GF(p).  Elements are canonical ints in ``[0, p)``."""

    p: int

    def __post_init__(self):
        # The size check comes first: trial division of a large prime would
        # take minutes.
        if self.p > MAX_MODULUS:
            raise ValueError(f"field order {self.p} exceeds the supported maximum {MAX_MODULUS}")
        if not is_prime(self.p):
            raise ValueError(f"field order {self.p} is not prime")


class FMatrix:
    """An immutable matrix over a prime field.

    Entries are held as a read-only int64 array of canonical field elements.
    ``cols`` disambiguates the shape of empty matrices (zero rows).
    """

    __slots__ = ("field", "_a")

    def __init__(self, field: FieldSpec, entries, cols: int | None = None):
        a = np.asarray(entries)
        if a.size and a.dtype.kind not in "iu":
            raise ValueError(f"matrix entries must be integers, got dtype {a.dtype}")
        a = np.array(a, dtype=np.int64)
        if a.ndim == 1 and a.size == 0:
            a = a.reshape(0, 0 if cols is None else cols)
        if a.ndim != 2:
            raise ShapeError("matrix entries must form a 2-D array")
        if cols is not None and a.shape[1] != cols:
            raise ShapeError(f"expected {cols} columns, got {a.shape[1]}")
        if a.size and (a.min() < 0 or a.max() >= field.p):
            raise ValueError(f"entries must be canonical elements of GF({field.p})")
        a.setflags(write=False)
        self.field = field
        self._a = a

    @property
    def rows(self) -> int:
        return self._a.shape[0]

    @property
    def cols(self) -> int:
        return self._a.shape[1]

    @property
    def array(self) -> np.ndarray:
        """Read-only view of the entries."""
        return self._a

    def mat_vec(self, vec) -> np.ndarray:
        """Return ``M @ vec`` over the field."""
        v = np.asarray(vec, dtype=np.int64)
        if v.shape != (self.cols,):
            raise ShapeError(f"vector of length {self.cols} required, got shape {v.shape}")
        return (self._a @ v) % self.field.p

    def combine_rows(self, coeffs) -> np.ndarray:
        """Return ``coeffs @ M`` over the field, a single row of width cols."""
        c = np.asarray(coeffs, dtype=np.int64)
        if c.shape != (self.rows,):
            raise ShapeError(f"coefficient vector of length {self.rows} required")
        return (c @ self._a) % self.field.p

    def __eq__(self, other) -> bool:
        if not isinstance(other, FMatrix):
            return NotImplemented
        return self.field == other.field and self._a.shape == other._a.shape and bool(
            np.array_equal(self._a, other._a)
        )

    def __repr__(self) -> str:
        return f"FMatrix(GF({self.field.p}), {self.rows}x{self.cols})"


def _eliminate_leading(x: np.ndarray, rows: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Eliminate the first ``rows`` rows of each matrix in the batch ``x``
    (B x K x n, canonical entries, not written to) from the rows below them.

    Returns the rank of those rows in each matrix and the other K - rows rows
    reduced to zero in every pivot column, hence zero when in their span.
    Fraction-free: rows are scaled by the pivot instead of dividing by it,
    so no inverse is needed.  Each step adds (p - x_col) * row, which is
    -x_col * row mod p, so an unsigned ``x`` holds sums in [0, (p-1)(2p-1)]
    and ``np.fmod`` gives the canonical remainder; ``x`` may be uint32 when
    (p - 1)(2p - 1) < 2^32, and its dtype is kept throughout.
    """
    gained = np.zeros(x.shape[0], dtype=np.int64)
    batch = np.arange(x.shape[0])
    for _ in range(rows):
        row, x = x[:, 0], x[:, 1:]
        col = (row != 0).argmax(axis=1)
        piv = row[batch, col]
        gained += piv != 0
        piv[piv == 0] = 1  # a zero row leaves the rest as they are
        t = x * piv[:, None, None]
        t += (p - x[batch, :, col])[:, :, None] * row[:, None, :]
        x = np.fmod(t, p, out=t)
    return gained, x


def rank(m: FMatrix) -> int:
    """Rank of ``m`` over its field.  Empty matrices have rank 0."""
    return RowBasis(m.field, m.cols, m.array).rank


def solve_full_rank(m: FMatrix, rhs) -> np.ndarray:
    """Solve ``M @ w = rhs`` for a matrix of full column rank.

    The system may be overdetermined; extra rows must be consistent.  Raises
    SingularSystem, carrying the matrix rank, when the rank is deficient or
    the right-hand side is inconsistent, ShapeError on dimension mismatch.
    """
    b = np.asarray(rhs, dtype=np.int64)
    if b.shape != (m.rows,):
        raise ShapeError(f"right-hand side of length {m.rows} required, got shape {b.shape}")
    aug = np.concatenate([m.array, b.reshape(-1, 1)], axis=1)
    basis = RowBasis(m.field, m.cols + 1, aug)
    pivots = basis._pivots[: basis.rank]
    found = basis.rank - (m.cols in pivots)  # a pivot in the rhs column is not M's
    if found < basis.rank:
        raise SingularSystem("inconsistent right-hand side", rank=found)
    if found < m.cols:
        raise SingularSystem(f"matrix rank {found} is below column count {m.cols}", rank=found)
    w = np.zeros(m.cols, dtype=np.int64)
    w[pivots] = basis._rows[: basis.rank, -1]
    return w


class RowBasis:
    """Incremental basis of a row space over GF(p), kept in reduced row
    echelon form.  It is the one Gauss-Jordan reduction in this module:
    ranks, solves and decodability checks all grow one.

    Each new row is reduced against the basis with one matmul, pivoted on
    its first nonzero entry, normalised, and folded into the old rows.
    Rows are taken in order, so the pivots, the rows and their order are
    those of eliminating the whole stack top to bottom.  The rows live in a
    preallocated ``cols x cols`` buffer, the first ``rank`` of them in use.
    """

    def __init__(self, field: FieldSpec, cols: int, rows=()):
        self.field = field
        self.cols = cols
        self.rank = 0
        self._rows = np.zeros((cols, cols), dtype=np.int64)
        self._pivots = np.zeros(cols, dtype=np.intp)
        self.extend(rows)

    def extend(self, rows) -> None:
        """Add the rows of a 2-D array in order, stopping at full rank."""
        x = np.asarray(rows, dtype=np.int64)
        if x.size:
            if x.ndim != 2 or x.shape[1] != self.cols:
                raise ShapeError(f"rows of length {self.cols} required, got shape {x.shape}")
            for row in x % self.field.p:
                if self.rank == self.cols:
                    break
                self._add(row)

    def copy(self) -> "RowBasis":
        """An independent basis of the same row space."""
        other = RowBasis(self.field, self.cols)
        other.rank = self.rank
        other._rows[:] = self._rows
        other._pivots[:] = self._pivots
        return other

    def checks(self) -> np.ndarray:
        """Rows spanning the vectors orthogonal to this row space, one per
        column f without a pivot: 1 at f and ``-R[:, f]`` at the pivot
        columns, so each is orthogonal to every basis row R."""
        pivots = self._pivots[: self.rank]
        free = np.setdiff1d(np.arange(self.cols), pivots)
        out = np.zeros((free.size, self.cols), dtype=np.int64)
        out[np.arange(free.size), free] = 1
        out[:, pivots] = -self._rows[: self.rank, free].T % self.field.p
        return out

    def add(self, row) -> bool:
        """Add one row; returns True if the rank grew."""
        v = np.asarray(row, dtype=np.int64)
        if v.shape != (self.cols,):
            raise ShapeError(f"row of length {self.cols} required")
        return self.rank < self.cols and self._add(v % self.field.p)

    def _add(self, v: np.ndarray) -> bool:
        """Add a canonical row while the rank is below ``cols``."""
        p, r = self.field.p, self.rank
        rows = self._rows[:r]
        v = v - v[self._pivots[:r]] @ rows
        v %= p
        nonzero = v.nonzero()[0]
        if not nonzero.size:
            return False
        c = nonzero[0]
        v = v * pow(int(v[c]), p - 2, p)
        v %= p
        rows -= rows[:, c, None] * v
        rows %= p
        self._rows[r] = v
        self._pivots[r] = c
        self.rank = r + 1
        return True
