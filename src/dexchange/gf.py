"""Exact linear algebra over prime fields GF(p).

Every rank oracle, decodability check and decoding step in this package sits
on top of this module.  Matrices are small and dense at the scale we target,
so the implementation favors clarity and reproducibility over asymptotics:
Gauss-Jordan elimination to reduced row echelon form with a deterministic
pivot rule (rows top to bottom, each on its first nonzero entry).  Matrices
are immutable after construction and all operations are pure, so they can
be shared freely across threads.  The coded rank table instead eliminates a
whole batch of matrices at once with the fraction-free ``_eliminate_leading``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# The int64 matmul/elimination paths need (p - 1)^2 * cols < 2^63.  Capping
# the modulus at 2^20 leaves room for around 2^22 columns, far beyond the
# desk-scale instances this package is built for.
MAX_MODULUS = 1 << 20


class ShapeError(ValueError):
    """Operands have incompatible dimensions."""


class SingularSystem(ValueError):
    """Linear system does not have a unique solution."""


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
        a = np.array(entries, dtype=np.int64)
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
        if self.rows == 0:
            return np.zeros(self.cols, dtype=np.int64)
        return (c @ self._a) % self.field.p

    @classmethod
    def zeros(cls, field: FieldSpec, rows: int, cols: int) -> "FMatrix":
        return cls(field, np.zeros((rows, cols), dtype=np.int64))

    @classmethod
    def vstack(cls, field: FieldSpec, mats, cols: int | None = None) -> "FMatrix":
        arrays = [m.array for m in mats]
        if not arrays:
            if cols is None:
                raise ShapeError("cols required to stack an empty list of matrices")
            return cls.zeros(field, 0, cols)
        widths = {a.shape[1] for a in arrays}
        if len(widths) != 1:
            raise ShapeError(f"cannot stack matrices of widths {sorted(widths)}")
        return cls(field, np.concatenate(arrays, axis=0))

    def __eq__(self, other) -> bool:
        if not isinstance(other, FMatrix):
            return NotImplemented
        return self.field == other.field and self._a.shape == other._a.shape and bool(
            np.array_equal(self._a, other._a)
        )

    def __repr__(self) -> str:
        return f"FMatrix(GF({self.field.p}), {self.rows}x{self.cols})"


def _row_reduce(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of ``a`` modulo p, up to row order.

    Returns (matrix, pivot columns): the nonzero rows, where row k has its
    leading 1 in column ``pivots[k]`` and every other row is zero there.
    Rows are taken top to bottom, each reduced by the pivots found above it
    and, unless it has become zero, pivoted on its first nonzero entry.
    """
    a = a % p
    pivots: list[int] = []
    keep: list[int] = []
    for r in range(a.shape[0]):
        row = a[r]
        c = int((row != 0).argmax())
        if not row[c]:
            continue
        row = (row * pow(int(row[c]), p - 2, p)) % p
        col = a[:, c:c + 1].copy()
        col[r] = 0
        a = (a - col * row) % p
        a[r] = row
        pivots.append(c)
        keep.append(r)
    return a[keep], pivots


def _eliminate_leading(x: np.ndarray, rows: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Eliminate the first ``rows`` rows of each matrix in the batch ``x``
    (B x K x n, canonical entries, not written to) from the rows below them.

    Returns the rank of those rows in each matrix and the other K - rows rows
    reduced to zero in every pivot column, hence zero when in their span.
    Fraction-free: rows are scaled by the pivot instead of dividing by it,
    so entries stay below p^2 before each reduction and need no inverse.
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
        t -= x[batch, :, col][:, :, None] * row[:, None, :]
        x = np.remainder(t, p, out=t)
    return gained, x


def rank(m: FMatrix) -> int:
    """Rank of ``m`` over its field.  Empty matrices have rank 0."""
    if m.rows == 0 or m.cols == 0:
        return 0
    _, pivots = _row_reduce(m.array, m.field.p)
    return len(pivots)


def solve_full_rank(m: FMatrix, rhs) -> np.ndarray:
    """Solve ``M @ w = rhs`` for a matrix of full column rank.

    The system may be overdetermined; extra rows must be consistent.  Raises
    SingularSystem when the rank is deficient or the right-hand side is
    inconsistent, ShapeError on dimension mismatch.
    """
    b = np.asarray(rhs, dtype=np.int64)
    if b.shape != (m.rows,):
        raise ShapeError(f"right-hand side of length {m.rows} required, got shape {b.shape}")
    p = m.field.p
    aug = np.concatenate([m.array, (b % p).reshape(-1, 1)], axis=1)
    red, pivots = _row_reduce(aug, p)
    if m.cols in pivots:  # a pivot in the rhs column
        raise SingularSystem("inconsistent right-hand side")
    if len(pivots) < m.cols:
        raise SingularSystem(f"matrix rank {len(pivots)} is below column count {m.cols}")
    w = np.zeros(m.cols, dtype=np.int64)
    w[pivots] = red[:, -1]
    return w


class RowBasis:
    """Incremental basis of a row space over GF(p), kept in reduced row
    echelon form.

    ``extend`` reduces a batch of rows against the basis with one matmul,
    eliminates what is left, and folds the new pivots back into the old
    rows.  The randomized allocator keeps one per user as coded rows
    accumulate.
    """

    def __init__(self, field: FieldSpec, cols: int, rows=()):
        self.field = field
        self.cols = cols
        self._rows = np.zeros((0, cols), dtype=np.int64)
        self._pivots = np.zeros(0, dtype=np.intp)
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size:
            self.extend(rows)

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def _reduce(self, rows: np.ndarray) -> np.ndarray:
        """``rows`` minus their projection on the basis: zero in every pivot
        column, and all zero exactly for rows inside the span."""
        p = self.field.p
        rows = rows % p
        if not self._pivots.size:
            return rows
        return (rows - rows[:, self._pivots] @ self._rows) % p

    def extend(self, rows) -> int:
        """Add the rows of a 2-D array; returns how much the rank grew."""
        x = np.asarray(rows, dtype=np.int64)
        if x.ndim != 2 or x.shape[1] != self.cols:
            raise ShapeError(f"rows of length {self.cols} required, got shape {x.shape}")
        if self.rank == self.cols or not x.shape[0]:
            return 0
        p = self.field.p
        new, pivots = _row_reduce(self._reduce(x), p)
        if pivots:
            old = self._rows
            if old.shape[0]:
                old = (old - old[:, pivots] @ new) % p
            self._rows = np.concatenate([old, new])
            self._pivots = np.concatenate([self._pivots, np.asarray(pivots, dtype=np.intp)])
        return len(pivots)

    def add(self, row) -> bool:
        """Add one row; returns True if the rank grew."""
        v = np.asarray(row, dtype=np.int64)
        if v.shape != (self.cols,):
            raise ShapeError(f"row of length {self.cols} required")
        return self.extend(v.reshape(1, -1)) > 0
