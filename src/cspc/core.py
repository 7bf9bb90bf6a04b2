"""Dense matrix substrate: cycles, special matrices, symmetry defects.

Matrices are plain numpy arrays.  An input matrix keeps its kind: a real
one (any real or integer dtype) is read as float64 and a complex one as
complex128 (require_square), so a real A is never copied into complex
storage, and is_real answers "is A real?" from the dtype in O(1),
reading Im A only for a complex dtype: its first row and column for
the Toeplitz layout of Toeplitz.dense(), else every entry.  What is
computed from A is complex128 whatever A's dtype: B = W A W*, the masks
of keep_cycles, the n x n array F of circulant first rows and
SparseCycleMatrix.  A "DiagonalVector" is a 1-d complex array, and a
cycle index is a plain int in [0, n-1].

Cycle k of an n x n matrix is the wrapped diagonal through positions
((q + k) mod n, q): cycle 0 is the main diagonal, cycle 1 the first
subdiagonal plus the top-right corner entry, cycle n-1 the first
superdiagonal plus the bottom-left corner.  The n cycles partition the
entries of the matrix.  Orientation is fixed here once and inherited by
every other module: cycle_positions fixes the order in which a cycle's
entries are read.  The index gathers and scatters (apply_cycle_mask,
sparse's densify and to_scipy) use its positions; iter_cycle_blocks
reads all cycles through strided views of the matrix instead, in the
same order, which the tests check entry for entry.  A per-cycle value
goes back onto the matrix through a strided circulant view, entry (p, q)
reading the value of cycle (p - q) mod n: keep_cycles, the one way a set
of cycles becomes an n x n matrix, masks with the view of the set's
indicator.

Toeplitz is the one representation of a Toeplitz matrix: its 2n - 1
diagonals, from which its product, norms and the entries of its
transform are read without an n x n array.  Its n x n form, dense(), is
a read-only view of those diagonals, and Toeplitz.of recognises that
layout without reading the entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "ConfigError",
    "NumericalError",
    "CycleSelection",
    "require_square",
    "is_real",
    "full_cycle_matrix",
    "flip_matrix",
    "fourier_matrix",
    "relaxation_diagonal",
    "hermitian_defect",
    "reflection_defect",
    "reflect_columns",
    "Toeplitz",
    "cycle_positions",
    "apply_cycle_mask",
    "keep_cycles",
    "iter_cycle_blocks",
    "cycle_norms",
]


_CYCLE_BLOCK_ENTRIES = 1 << 14  # per gather in iter_cycle_blocks
_DEFECT_BLOCK_ROWS = 32  # rows per step of the two defects and Toeplitz.of


class ConfigError(ValueError):
    """Invalid configuration: bad sizes, malformed specs, impossible options."""


class NumericalError(RuntimeError):
    """A numerical procedure failed: singular factor, breakdown, non-convergence."""


def require_square(a) -> np.ndarray:
    """Coerce to a square 2-d array, rejecting anything else: complex128
    when a is complex, else float64, so a real a is never copied into
    complex storage (a float64 array is returned as it is)."""
    m = np.asarray(a, dtype=np.complex128 if np.iscomplexobj(a) else np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={m.ndim}")
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def is_real(a: np.ndarray) -> bool:
    """Whether array a holds real values: True for a real dtype, in O(1);
    for a complex dtype, whether Im a is exactly zero.  A 2-d a laid out
    like Toeplitz.dense(), strides (-s, s), holds nothing but its first
    row and column, so those are read, O(n); any other a is scanned."""
    if not np.iscomplexobj(a):
        return True
    if a.ndim == 2 and a.size and a.strides[0] == -a.strides[1]:
        return not (a[0].imag.any() or a[:, 0].imag.any())
    return not a.imag.any()


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


def _mirror_defect(m: np.ndarray, mirror) -> float:
    """|m - conj(M)|_F / |m|_F of square matrix m, M its mirror image;
    0.0 for the zero matrix.

    mirror(r, out) writes the rows r (a slice) of conj(M) into out.
    Summed over blocks of 32 rows through one 32 x n buffer, so nothing of
    size n x n is formed.
    """
    n = m.shape[0]
    buf = np.empty((min(n, _DEFECT_BLOCK_ROWS), n), m.dtype)
    diff2 = norm2 = 0.0
    for r0 in range(0, n, _DEFECT_BLOCK_ROWS):
        r = slice(r0, min(r0 + _DEFECT_BLOCK_ROWS, n))
        diff = buf[: r.stop - r0]
        mirror(r, diff)
        diff2 += np.linalg.norm(np.subtract(m[r], diff, out=diff)) ** 2
        norm2 += np.linalg.norm(m[r]) ** 2
    return float(np.sqrt(diff2 / norm2)) if norm2 else 0.0


def hermitian_defect(m) -> float:
    """|m - m*|_F / |m|_F of square matrix m; 0.0 for the zero matrix.

    Each block of 32 rows is compared with the matching column slice, so
    nothing of size n x n is formed.  A real m is checked as it is,
    without a complex copy.
    """
    m = require_square(m)
    return _mirror_defect(m, lambda r, out: np.conjugate(m[:, r].T, out=out))


def reflect_columns(x: np.ndarray, out: np.ndarray, op=np.positive) -> np.ndarray:
    """out[:, q] = op(x[:, (-q) mod n]), the column reflection q -> -q:
    column 0 stays and the others are read in reverse, from two slices."""
    op(x[:, :1], out=out[:, :1])
    op(x[:, :0:-1], out=out[:, 1:])
    return out


def reflection_defect(m) -> float:
    """|conj(m) - P m P|_F / |m|_F of square matrix m, P the index
    reflection p -> (-p) mod n; 0.0 for the zero matrix.

    The defect is zero, up to roundoff, for B = W A W* of a real A
    (conj(W) = P W), and a matrix with conj(m) = P m P
    ("centrohermitian") is similar to a real one.  (P m P)[p, q] =
    m[(-p) mod n, (-q) mod n]; summed as |m - conj(P m P)|_F, equal entry
    by entry, in blocks of 32 rows, so nothing of size n x n is formed.
    Rows (-p) mod n, p >= 1, are m[:0:-1] read forward, and only the first
    block adds row 0 ahead of them.
    """
    m = require_square(m)
    flipped = m[:0:-1]  # flipped[p - 1] is row (-p) mod n

    def mirror(r, out):
        if r.start:
            rows = flipped[r.start - 1 : r.stop - 1]
        else:
            rows = np.concatenate((m[:1], flipped[: r.stop - 1]))
        reflect_columns(rows, out, np.conjugate)

    return _mirror_defect(m, mirror)


class Toeplitz:
    """The n x n Toeplitz matrix A(p, q) = t_{q-p}, held as its 2n - 1
    diagonals t = (t_{-(n-1)}, ..., t_{n-1}): t[n - 1 + d] is diagonal
    d = q - p, so t is the first column read upward, then the first row
    after its head.

    Everything here comes from t in O(n) or O(n log n), and nothing of
    size n x n is formed:

    * dense and of: dense() is A as a read-only n x n view of t with
      strides (-s, s), s the stride of t.  Entry (p, q) lies s (q - p)
      bytes from t_0, so any array with those strides is Toeplitz whatever
      its values, and of() reads its diagonals in O(n) without a scan.
    * frobenius_norm and hermitian_defect: diagonal d holds n - |d| equal
      entries, so |A|_F^2 = sum_d (n - |d|) |t_d|^2, and |A - A*|_F^2 is
      the same sum over t_d - conj(t_{-d}).
    * matvec: A is the leading block of the circulant of size 2n whose
      first column is c = (t_0, t_{-1}, ..., t_{-(n-1)}, 0, t_{n-1}, ...,
      t_1), so A x = ifft(fft(c) * fft(x, 2n))[:n] (T. Chan 1988; Chan &
      Ng, SIAM Review 1996).  fft(c) is taken once per value.
    * entries, cycles and cycle_norms: B = W A W* in closed form.  With
      u_d = t_d - t_{d-n} for d = 1..n-1 and u_0 = 0, cycle j != 0 read
      down the columns is

          B((q + j) mod n, q) = ifft(h_j)[q],
          h_j(d) = u_d (1 - e^{2 pi i j d / n}) / (1 - e^{-2 pi i j / n}),

      and cycle 0 (the diagonal) is ifft(h_0) with h_0(d) = (n - d) t_d +
      d t_{d-n}, h_0(0) = n t_0.  Only cycle 0 sees the circulant part of
      A.  The factor 1 - e^{2 pi i j d / n} shifts ifft(u) by j, so B(p, q)
      on cycle j = (p - q) mod n != 0 is (U[q] - U[p]) / (1 - e^{-2 pi i j
      / n}) with U = ifft(u): any set of entries costs two length-n FFTs,
      ifft(u) and ifft(h_0), plus O(1) per entry.  By Parseval all n
      cycle norms cost one real FFT,

          |cycle j|^2 = (sum |u|^2 - Re F_j) / (2 n sin^2(pi j / n)),  F = fft(|u|^2),

      so cycles j and n - j have equal norms for every Toeplitz A.  For
      k = 1 the mask is T. Chan's optimal circulant.

    Precision: the sine is taken at the reduced argument pi min(j, n - j) / n
    and F at index min(j, n - j) (an rfft), so reflection partners get
    bit-identical norms; the plain sin(pi j / n) loses the argument's
    roundoff near pi (random complex Toeplitz, n = 2048: 7e-14 of the
    largest norm against 3e-16).  The subtraction sum |u|^2 - Re F_j still
    cancels where u is concentrated at d near 0 or n: on Example 1
    (n = 64, 1000, 2048) the worst error is 1.6e-15 of the largest norm
    and 2.8e-12 relative (cycle 1 at n = 1000), against a long-double
    evaluation of the same sum, about 140 times inside the n * eps * max
    tie tolerance of the cycle selection.  In entries, the denominator
    1 - e^{-2 pi i j / n} is evaluated as 2i sin(pi j / n) e^{-pi i j / n}
    with the same reduced sine; the difference taken directly would carry
    a relative error of about eps / |1 - e^{-2 pi i j / n}| (~300 eps at
    j = 1, n = 2048).
    """

    def __init__(self, t):
        t = np.asarray(t, dtype=np.complex128)
        if t.ndim != 1 or t.size % 2 == 0:
            raise ValueError(f"expected a vector of 2n - 1 diagonals, got shape {t.shape}")
        self.t = t
        self.n = (t.size + 1) // 2

    @classmethod
    def of(cls, m) -> "Toeplitz | None":
        """The diagonals of square matrix m if m is exactly Toeplitz, None
        otherwise.

        An m laid out like dense(), strides[0] == -strides[1], stores entry
        (p, q) at an offset that depends on q - p alone, so it is Toeplitz
        by construction and its diagonals are read from its first column
        and row in O(n).  Views of it that keep the layout (m.T, m[::2,
        ::2], m[1:, :-1], m[::-1, ::-1]) are Toeplitz the same way.

        Any other m is scanned: every entry is compared with its down-right
        neighbour, in blocks of 32 rows, so the temporaries are 32 x n and
        the scan stops at the first block that differs.  The comparison is
        exact: a matrix that is Toeplitz only to roundoff is not Toeplitz
        here.
        """
        m = require_square(m)
        if m.strides[0] != -m.strides[1]:  # else Toeplitz by its layout
            # one column is w floats: 2, a (re, im) pair, for complex m
            w = m.itemsize // 8
            for r0 in range(0, m.shape[0] - 1, _DEFECT_BLOCK_ROWS):
                # 33 rows, the last one shared with the next block, read as
                # float64: float == gives the same answer as complex == and
                # is the cheaper test
                rows = np.ascontiguousarray(m[r0 : r0 + _DEFECT_BLOCK_ROWS + 1]).view(np.float64)
                if not np.array_equal(rows[1:, w:], rows[:-1, :-w]):
                    return None
        return cls(np.concatenate([m[:0:-1, 0], m[0]]))

    def dense(self) -> np.ndarray:
        """A as a read-only n x n view of t: entry (p, q) is t[n - 1 + q - p].

        It shares t's memory and holds nothing else; writing into it raises
        ValueError, and np.array(view) makes a C-order copy.
        """
        s = self.t.strides[0]
        return np.lib.stride_tricks.as_strided(
            self.t[self.n - 1 :], (self.n, self.n), (-s, s), writeable=False
        )

    def _weighted_norm(self, v: np.ndarray) -> float:
        # the Frobenius norm of the Toeplitz matrix with diagonals v
        weights = self.n - np.abs(np.arange(1 - self.n, self.n))
        return float(np.sqrt(weights @ np.abs(v) ** 2))

    def frobenius_norm(self) -> float:
        return self._weighted_norm(self.t)

    def hermitian_defect(self) -> float:
        """core.hermitian_defect of A, from the diagonals; 0.0 for A = 0."""
        norm = self.frobenius_norm()
        return self._weighted_norm(self.t - self.t[::-1].conj()) / norm if norm else 0.0

    @cached_property
    def _embedding(self) -> np.ndarray:
        n = self.n
        return np.fft.fft(np.concatenate([self.t[n - 1 :: -1], [0], self.t[: n - 1 : -1]]))

    def matvec(self, x) -> np.ndarray:
        """A x through the circulant embedding of size 2n."""
        return np.fft.ifft(self._embedding * np.fft.fft(x, 2 * self.n))[: self.n]

    def _terms(self) -> tuple[np.ndarray, np.ndarray]:
        """(u, h_0) of the closed form."""
        n = self.n
        row = self.t[n - 1 :]
        back = np.concatenate([[0], self.t[: n - 1]])  # t_{d-n}, d >= 1
        u = row - back
        u[0] = 0
        return u, (n - np.arange(n)) * row + np.arange(n) * back

    def _sines(self, ks: np.ndarray) -> np.ndarray:
        """sin(pi j / n) at the reduced argument pi min(j, n - j) / n."""
        return np.sin(np.pi * np.minimum(ks, self.n - ks) / self.n)

    def cycle_norms(self) -> np.ndarray:
        """The l2 norms of all n cycles of W A W*, from one real FFT of
        |u|^2; cycles j and n - j come out bit-identical.  NumericalError
        if any of them is not finite."""
        u, h0 = self._terms()
        n = self.n
        w = np.abs(u) ** 2
        f = np.fft.rfft(w).real
        j = np.arange(1, n)
        norms = np.empty(n)
        norms[0] = np.linalg.norm(h0) / np.sqrt(n)
        # sum w (1 - cos) >= 0 in exact arithmetic; roundoff may dip below
        energy = np.maximum(w.sum() - f[np.minimum(j, n - j)], 0.0)
        norms[1:] = np.sqrt(energy / (2 * n * self._sines(j) ** 2))
        return _finite_norms(norms)

    def entries(self, rows, cols) -> np.ndarray:
        """Entries of W A W* at positions (rows, cols), integer arrays of one
        shape, from two length-n FFTs whatever their size."""
        u, h0 = self._terms()
        n = self.n
        rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
        ks = np.arange(n)
        # 1 - e^{-2 pi i j / n} for every cycle j, see the class docstring
        den = 2j * self._sines(ks) * np.exp(-1j * np.pi * ks / n)
        den[0] = 1.0
        cycle = rows - cols
        cycle %= n
        u_hat = np.fft.ifft(u)
        out = (u_hat[cols] - u_hat[rows]) * (1 / den)[cycle]
        diagonal = cycle == 0
        out[diagonal] = np.fft.ifft(h0)[cols[diagonal]]
        return out

    def cycles(self, ks) -> np.ndarray:
        """Cycles ks of W A W* as a (len(ks), n) array in the reading order
        of cycle_positions."""
        ks = np.asarray(ks, dtype=np.int64).ravel()
        return self.entries(*cycle_positions(self.n, ks))


def cycle_positions(n: int, k) -> tuple[np.ndarray, np.ndarray]:
    """Row and column index arrays of cycle k, in reading order.

    A wrapped diagonal splits into two straight runs; entries are listed
    with the longer run first.  For 2k <= n that walks columns q = 0..n-1
    through ((q+k) mod n, q); for 2k > n it walks rows p = 0..n-1 through
    (p, (p-k) mod n).  Both walks cover the same n positions, the order is
    what apply_cycle_mask, iter_cycle_blocks and the scatters of
    sparse.SparseCycleMatrix agree on.

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


def _circulant_view(v: np.ndarray) -> np.ndarray:
    """Read-only n x n view whose entry (p, q) is v[(p - q) mod n], the
    value of the cycle it lies on, for a length-n vector v: v written
    twice, entry (p, q) at offset n + p - q."""
    n = v.shape[0]
    twice = np.concatenate((v, v))
    step = twice.strides[0]
    return np.lib.stride_tricks.as_strided(twice[n:], (n, n), (step, -step), writeable=False)


def keep_cycles(a, k, out: np.ndarray | None = None) -> np.ndarray:
    """Square matrix a with every entry off the cycles k set to zero,
    equal to sparse.sparsify(a, CycleSelection.of(n, k)).densify() entry
    for entry, with no index array.  Written into out (complex, n x n) when given, so a
    caller masking one matrix many times reuses one array, else into a
    new C-order complex128 array, whatever a's dtype.

    The mask is the circulant view of the indicator of k.
    """
    a = require_square(a)
    n = a.shape[0]
    ks = np.asarray(k, dtype=np.int64)
    if ks.size and not (0 <= ks.min() and ks.max() <= n - 1):
        raise ValueError(f"cycle index {k} out of range [0, {n - 1}]")
    kept = np.zeros(n, dtype=bool)
    kept[ks] = True
    if out is None:
        out = np.zeros((n, n), dtype=np.complex128)
    else:
        out[...] = 0
    np.copyto(out, a, where=_circulant_view(kept))
    return out


def _cycle_ranges(n: int):
    # consecutive index ranges of about 16k entries each: all n cycles at
    # once would allocate a second n x n array, and one cycle per read
    # pays the call overhead n times
    step = max(1, _CYCLE_BLOCK_ENTRIES // max(n, 1))
    return (range(start, min(start + step, n)) for start in range(0, n, step))


def _column_walks(a: np.ndarray, j0: int, out: np.ndarray) -> np.ndarray:
    """Fill out[t, q] = a[(q + j0 + t) mod n, q]: cycles j0 .. j0 + m - 1 of
    square a on their column walks, m = len(out); returns out.

    Entry q of cycle j sits (s0 + s1) bytes after entry q - 1 until the
    walk wraps from the last row to the first, at q = n - j, so the block
    is three pieces: the columns q < n - j0 - m + 1, where no row of the
    block has wrapped, and the columns q >= n - j0, where every row has,
    are each one strided view with strides (s0, s0 + s1); the staircase
    of at most m x m entries between them is one small 2-d index.  Any
    strides work (C or Fortran order, a.T, negative steps, the stride-0
    walks of Toeplitz.dense()), and nothing of size n x n is copied.
    """
    n = a.shape[0]
    m = out.shape[0]
    head = n - j0 - m + 1  # >= 1, since j0 + m <= n
    s0, s1 = a.strides
    view = np.lib.stride_tricks.as_strided
    out[:, :head] = view(a[j0:], (m, head), (s0, s0 + s1), writeable=False)
    out[:, n - j0 :] = view(a[0, n - j0 :], (m, j0), (s0, s0 + s1), writeable=False)
    q = np.arange(head, n - j0)
    out[:, head : n - j0] = a[(q + np.arange(j0, j0 + m)[:, None]) % n, q]
    return out


def iter_cycle_blocks(a):
    """Yield the n cycles of square matrix a as (ks, values) blocks.

    ks is a range of consecutive cycle indices and values the (len(ks),
    n) array apply_cycle_mask(a, ks), bit for bit, in a fresh C-order
    array.  Blocks hold about 16k entries each.

    Nothing is gathered through cycle_positions: each block is read from
    strided views of a in place, whatever its layout (C or Fortran order,
    a.T, a strided slice, the read-only Toeplitz.dense() view the
    Toeplitz generators return), and a is never copied.  A block of
    cycles with 2k <= n is a block of column walks; the row walk of cycle
    k > n / 2 is the column walk of a.T at cycle n - k, so those blocks
    are column walks of a.T written in reverse row order.
    """
    a = require_square(a)
    n = a.shape[0]
    half = n // 2 + 1  # cycles 0 .. n // 2 are read down the columns
    for ks in _cycle_ranges(n):
        # the range holding n // 2 is read as two blocks, one per order
        for part in (range(ks.start, min(ks.stop, half)), range(max(ks.start, half), ks.stop)):
            if part:
                block = np.empty((len(part), n), dtype=a.dtype)
                if part.stop <= half:
                    _column_walks(a, part.start, block)
                else:
                    _column_walks(a.T, n - part[-1], block[::-1])
                yield part, block


def cycle_norms(a) -> np.ndarray:
    """The l2 norms of all n cycles of square matrix a, via iter_cycle_blocks;
    NumericalError if any of them is not finite.

    Bit-identical to np.linalg.norm(apply_cycle_mask(a, k)) for every k:
    that norm is sqrt(re . re + im . im) with BLAS dot products, and one
    batched np.matmul of (1, n) by (n, 1) rows per block reaches the same
    dot, where np.linalg.norm(block, axis=1) differs in the last bits.  A
    real a has no im . im term, and its norms are those of its complex
    copy bit for bit (adding +0.0 to re . re changes nothing).
    """
    a = require_square(a)
    norms = np.empty(a.shape[0])
    for ks, block in iter_cycle_blocks(a):
        re = block.real
        sq = np.matmul(re[:, None, :], re[:, :, None])
        if np.iscomplexobj(block):
            im = block.imag
            sq += np.matmul(im[:, None, :], im[:, :, None])
        np.sqrt(sq[:, 0, 0], out=norms[ks.start : ks.stop])
    return _finite_norms(norms)


def _finite_norms(norms: np.ndarray) -> np.ndarray:
    """norms as they are if all n are finite; else NumericalError, named
    after the first cycle whose norm is nan or inf.  O(n): a nan or inf
    entry of the matrix shows in the norm of its cycle, so the matrix
    itself is never scanned."""
    finite = np.isfinite(norms)
    if not finite.all():
        j = int(np.argmin(finite))
        raise NumericalError(f"cycle {j} has norm {norms[j]:g}")
    return norms


@dataclass(frozen=True)
class CycleSelection:
    """A strictly increasing set of cycle indices of an n x n matrix.

    Selections are read in coset bands (L, w): G is the subgroup of the L
    multiples of g = n / L, for a divisor L of n, and the band G + {-w,
    ..., w}, 0 <= w < g, is the L min(2w + 1, g) cycles within w of G.
    L = 1 is the wrapped band {0, +-1, ..., +-w}, w = 0 the subgroup G.
    """

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
        return int(k) in self.indices

    def as_array(self) -> np.ndarray:
        return np.asarray(self.indices, dtype=np.int64)

    def coset_band(self) -> tuple[int, int] | None:
        """The inner coset band (L, w) of the selection, None when cycle 0
        is not selected.

        For each divisor L of n with G inside the selection, w is the
        largest with the band G + {-w, ..., w} inside it; of these bands
        the one with the most cycles, L min(2w + 1, g), is kept, the
        smaller L on a tie.  G inside the selection bounds L by its size,
        so at most that many divisors are tried, each in O(n).
        """
        kept = np.zeros(self.n, dtype=bool)
        kept[self.as_array()] = True
        best, most = None, 0
        for L in (d for d in range(1, len(self) + 1) if self.n % d == 0):
            inside = kept.reshape(L, -1).all(axis=0)  # inside[r]: G + r selected, r < g
            # entry j - 1 is True when both G + j and G - j are selected
            w = int(np.argmin(np.append(inside[1:] & inside[:0:-1], False)))
            cycles = L * min(2 * w + 1, inside.size)
            if inside[0] and cycles > most:
                best, most = (L, w), cycles
        return best

    def complement(self) -> "CycleSelection":
        missing = sorted(set(range(self.n)) - set(self.indices))
        return CycleSelection(self.n, tuple(missing))
