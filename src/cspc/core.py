"""Dense complex matrix substrate: cycles, special matrices, inner products.

Matrices are plain numpy arrays with dtype complex128 throughout; a
"ComplexMatrix" in the public API is any 2-d array-like coercible to that
dtype, a "DiagonalVector" is a 1-d complex array, and a cycle index is a
plain int in [0, n-1].

Cycle k of an n x n matrix is the wrapped diagonal through positions
((q + k) mod n, q): cycle 0 is the main diagonal, cycle 1 the first
subdiagonal plus the top-right corner entry, cycle n-1 the first
superdiagonal plus the bottom-left corner.  The n cycles partition the
entries of the matrix.  Orientation is fixed here once and inherited by
every other module: cycle_positions is the one owner of the order in
which a cycle's entries are read, and every gather or scatter of cycle
values goes through it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConfigError",
    "NumericalError",
    "CycleSelection",
    "as_complex_matrix",
    "require_square",
    "full_cycle_matrix",
    "flip_matrix",
    "fourier_matrix",
    "relaxation_diagonal",
    "frobenius_inner",
    "hermitian_defect",
    "reflection_defect",
    "toeplitz_diagonals",
    "cycle_positions",
    "apply_cycle_mask",
    "iter_cycles",
    "iter_cycle_blocks",
    "cycle_norms",
    "materialize_cycle",
]


_CYCLE_BLOCK_ENTRIES = 1 << 14  # per gather in iter_cycles, iter_cycle_blocks
_DEFECT_BLOCK_ROWS = 32  # rows per step of the two defects and toeplitz_diagonals


class ConfigError(ValueError):
    """Invalid configuration: bad sizes, malformed specs, impossible options."""


class NumericalError(RuntimeError):
    """A numerical procedure failed: singular factor, breakdown, non-convergence."""


def _as_matrix(a, dtype) -> np.ndarray:
    m = np.asarray(a, dtype=dtype)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={m.ndim}")
    return m


def _square(m: np.ndarray) -> np.ndarray:
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def as_complex_matrix(a) -> np.ndarray:
    """Coerce to a 2-d complex128 array, rejecting anything else."""
    return _as_matrix(a, np.complex128)


def require_square(a) -> np.ndarray:
    return _square(as_complex_matrix(a))


def _check_dim(n: int) -> int:
    n = int(n)
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    return n


def _check_cycle_index(n: int, k: int) -> int:
    k = int(k)
    if not 0 <= k <= n - 1:
        raise ValueError(f"cycle index {k} out of range [0, {n - 1}]")
    return k


def full_cycle_matrix(n: int) -> np.ndarray:
    """Permutation matrix of the length-n cycle.

    Ones sit at (0, n-1) and at (i, i-1) for i >= 1, so C shifts basis
    vectors forward: C @ e_q = e_{(q+1) mod n}.  Powers C^k then have their
    ones exactly on cycle k as defined in this module.
    """
    n = _check_dim(n)
    c = np.zeros((n, n), dtype=np.complex128)
    c[np.arange(n), np.arange(-1, n - 1)] = 1.0
    return c


def flip_matrix(n: int) -> np.ndarray:
    """Flipped identity: ones on the anti-diagonal."""
    n = _check_dim(n)
    return np.fliplr(np.eye(n, dtype=np.complex128))


def fourier_matrix(n: int) -> np.ndarray:
    """Unitary Fourier matrix, entry (p, q) = exp(-2i*pi*p*q/n) / sqrt(n)."""
    n = _check_dim(n)
    pq = np.outer(np.arange(n), np.arange(n))
    return np.exp(-2j * np.pi * pq / n) / np.sqrt(n)


def relaxation_diagonal(n: int, k: int) -> np.ndarray:
    """Diagonal of the k-th relaxation matrix: entry q is exp(+2i*pi*k*q/n)."""
    n = _check_dim(n)
    k = _check_cycle_index(n, k)
    return np.exp(2j * np.pi * k * np.arange(n) / n)


def frobenius_inner(a, b) -> complex:
    """Frobenius inner product, conjugate-linear in the first argument."""
    a = as_complex_matrix(a)
    b = as_complex_matrix(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return complex(np.vdot(a, b))


def hermitian_defect(m) -> float:
    """|m - m*|_F / |m|_F of square matrix m; 0.0 for the zero matrix.

    Summed over blocks of 32 rows against the matching column slices, so
    the temporaries are 32 x n and nothing of size n x n is formed.  A
    real m is checked as it is, without a complex copy.
    """
    m = _square(_as_matrix(m, np.complex128 if np.iscomplexobj(m) else np.float64))
    diff2 = norm2 = 0.0
    for r0 in range(0, m.shape[0], _DEFECT_BLOCK_ROWS):
        rows = m[r0 : r0 + _DEFECT_BLOCK_ROWS]
        diff2 += np.linalg.norm(rows - m[:, r0 : r0 + _DEFECT_BLOCK_ROWS].conj().T) ** 2
        norm2 += np.linalg.norm(rows) ** 2
    return float(np.sqrt(diff2 / norm2)) if norm2 else 0.0


def reflection_defect(m) -> float:
    """|conj(m) - P m P|_F / |m|_F of square matrix m, P the index
    reflection p -> (-p) mod n; 0.0 for the zero matrix.

    The defect is zero, up to roundoff, for B = W A W* of a real A
    (conj(W) = P W), and a matrix with conj(m) = P m P
    ("centrohermitian") is similar to a real one.  (P m P)[p, q] = m[(-p) mod n, (-q) mod n], so each block of 32
    rows is compared with rows (-r) mod n, columns reversed mod n, and
    nothing of size n x n is formed.
    """
    m = require_square(m)
    n = m.shape[0]
    reflect = -np.arange(n) % n
    diff2 = norm2 = 0.0
    for r0 in range(0, n, _DEFECT_BLOCK_ROWS):
        rows = m[r0 : r0 + _DEFECT_BLOCK_ROWS]
        # rows (-r) mod n, columns reversed and rolled by one: (-q) mod n
        mirrored = np.roll(m[reflect[r0 : r0 + _DEFECT_BLOCK_ROWS], ::-1], 1, axis=1)
        diff2 += np.linalg.norm(rows.conj() - mirrored) ** 2
        norm2 += np.linalg.norm(rows) ** 2
    return float(np.sqrt(diff2 / norm2)) if norm2 else 0.0


def toeplitz_diagonals(m) -> tuple[np.ndarray, np.ndarray] | None:
    """(first column, first row) of square matrix m if m is exactly
    Toeplitz, None otherwise.

    Every entry is compared with its down-right neighbour, in blocks of
    32 rows, so the temporaries are 32 x n and the scan stops at the
    first block that differs.  The comparison is exact: a matrix that is
    Toeplitz only to roundoff is not Toeplitz here.
    """
    m = require_square(m)
    n = m.shape[0]
    for r0 in range(0, n - 1, _DEFECT_BLOCK_ROWS):
        # 33 rows, the last one shared with the next block, read as float64
        # (re, im) pairs, so one column is two floats: float == gives the
        # same answer as complex == and ran 2-3x faster (n = 2048, one
        # core of a 2-core Intel Xeon VM)
        rows = np.ascontiguousarray(m[r0 : r0 + _DEFECT_BLOCK_ROWS + 1]).view(np.float64)
        if not np.array_equal(rows[1:, 2:], rows[:-1, :-2]):
            return None
    return m[:, 0].copy(), m[0].copy()


def cycle_positions(n: int, k) -> tuple[np.ndarray, np.ndarray]:
    """Row and column index arrays of cycle k, in reading order.

    A wrapped diagonal splits into two straight runs; entries are listed
    with the longer run first.  For 2k <= n that walks columns q = 0..n-1
    through ((q+k) mod n, q); for 2k > n it walks rows p = 0..n-1 through
    (p, (p-k) mod n).  Both walks cover the same n positions, the order is
    what apply_cycle_mask and materialize_cycle agree on.

    k is one cycle index, giving arrays of shape (n,), or a 1-d sequence
    of them, giving arrays of shape (len(k), n) whose row t is the
    positions of cycle k[t].
    """
    n = _check_dim(n)
    ks = np.asarray(k, dtype=np.int64)
    if ks.ndim > 1:
        raise ValueError(f"expected one cycle index or a 1-d sequence, got ndim={ks.ndim}")
    if ks.size and not (0 <= ks.min() and ks.max() <= n - 1):
        raise ValueError(f"cycle index {k} out of range [0, {n - 1}]")
    ks = ks[..., None]  # one row of positions per index
    # the column walk starts at row k, the row walk at row 0; wrapping by
    # a masked subtract is several times cheaper than %
    rows = np.arange(n) + ks * (2 * ks <= n)
    np.subtract(rows, n, out=rows, where=rows >= n)
    cols = rows - ks
    np.add(cols, n, out=cols, where=cols < 0)
    return rows, cols


def apply_cycle_mask(a, k) -> np.ndarray:
    """Entries of square matrix a on cycle k, in reading order.

    One index gives a length-n vector; a 1-d sequence of indices gives
    a (len(k), n) array, row t holding cycle k[t], in one gather.
    """
    a = require_square(a)
    return a[cycle_positions(a.shape[0], k)]


def _cycle_ranges(n: int):
    # consecutive index ranges of about 16k entries each: all n cycles at
    # once would allocate a second n x n array, and one cycle per gather
    # pays the call overhead n times
    step = max(1, _CYCLE_BLOCK_ENTRIES // max(n, 1))
    return (range(start, min(start + step, n)) for start in range(0, n, step))


def iter_cycles(a):
    """Yield the n cycles of square matrix a in index order.

    Each is a length-n vector in reading order, equal to
    apply_cycle_mask(a, k), gathered in blocks of about 16k entries.
    """
    a = require_square(a)
    for ks in _cycle_ranges(a.shape[0]):
        yield from apply_cycle_mask(a, ks)


def iter_cycle_blocks(a):
    """Yield the n cycles of square matrix a as (ks, cols, values) blocks.

    ks is a range of consecutive cycle indices, values the (len(ks), n)
    array apply_cycle_mask(a, ks) and cols its column indices from
    cycle_positions, so a caller that needs another order (the column
    walk: np.put_along_axis(out, cols, values, axis=1)) takes it from
    here.  Blocks are the ~16k-entry ones of iter_cycles.
    """
    a = require_square(a)
    n = a.shape[0]
    for ks in _cycle_ranges(n):
        rows, cols = cycle_positions(n, ks)
        yield ks, cols, a[rows, cols]


def cycle_norms(a) -> np.ndarray:
    """The l2 norms of all n cycles of square matrix a, via iter_cycles."""
    return np.array([np.linalg.norm(c) for c in iter_cycles(a)])


def materialize_cycle(values, n: int, k: int) -> np.ndarray:
    """Dense n x n matrix holding `values` on cycle k, zero elsewhere.

    Inverse of apply_cycle_mask: materialize_cycle(apply_cycle_mask(a, k), n, k)
    reproduces a's cycle-k entries exactly, no arithmetic involved.
    """
    v = np.asarray(values, dtype=np.complex128)
    if v.shape != (n,):
        raise ValueError(f"expected {n} cycle values, got shape {v.shape}")
    rows, cols = cycle_positions(n, k)
    out = np.zeros((n, n), dtype=np.complex128)
    out[rows, cols] = v
    return out


@dataclass(frozen=True)
class CycleSelection:
    """A strictly increasing set of cycle indices of an n x n matrix."""

    n: int
    indices: tuple[int, ...]

    def __post_init__(self):
        n = _check_dim(self.n)
        idx = tuple(int(i) for i in self.indices)
        if any(not 0 <= i <= n - 1 for i in idx):
            raise ValueError(f"cycle indices {idx} out of range for n={n}")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValueError(f"cycle indices must be strictly increasing, got {idx}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "indices", idx)

    @classmethod
    def of(cls, n: int, indices) -> "CycleSelection":
        """Build from any iterable, deduplicating and sorting."""
        return cls(n, tuple(sorted(set(int(i) for i in indices))))

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)

    def __contains__(self, k) -> bool:
        return int(k) in set(self.indices)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.indices, dtype=np.int64)

    def complement(self) -> "CycleSelection":
        missing = sorted(set(range(self.n)) - set(self.indices))
        return CycleSelection(self.n, tuple(missing))
