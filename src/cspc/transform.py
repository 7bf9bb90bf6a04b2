"""Fourier engines: the two-sided similarity transform and the readers of B.

Sign convention, fixed once: the similarity transform conjugates by the
unitary Fourier matrix W (negative kernel, 1/sqrt(n)): B = W A W*.
Implemented as two passes of one-dimensional FFTs,
B = ifft(fft(A, axis=0), axis=1); the explicit triple product is only
ever used as a test oracle.  A real A (core.is_real) takes half of
that work: conj(W) = P W with P the index reflection p -> (-p) mod n,
so B[(-p) mod n, q] = conj(B[p, (-q) mod n]), and rows 0..n//2 from an
rfft down the columns determine the rest (similarity_transform).

Every other question about a matrix, about B (its cycle norms, cycles or
entries) or about A (A x, its Hermitian defect), goes through one reader
per matrix, read(a): core.Toeplitz for an exactly Toeplitz A, Dense for
any other.  read's docstring gives the routes of both, and
extract_cycles is a reader's cycles on a selection.
"""

from __future__ import annotations

import numpy as np

from .core import (
    CycleSelection,
    NumericalError,
    Toeplitz,
    _column_walks,
    _cycle_ranges,
    _finite_norms,
    hermitian_defect,
    is_real,
    require_square,
)
from .sparse import SparseCycleMatrix

__all__ = [
    "OpCounter",
    "Dense",
    "read",
    "similarity_transform",
    "inverse_similarity_transform",
    "extract_cycles",
]


def similarity_transform(a) -> np.ndarray:
    """B = W A W* via two FFT passes, never a triple matrix product.

    A complex A takes ifft(fft(A, axis=0), axis=1).  A real A (a real
    dtype, or Im A exactly zero) takes half of it: conj(W) = P W, with P
    the index reflection p -> (-p) mod n, makes B centrohermitian,

        B[(-p) mod n, q] = conj(B[p, (-q) mod n]),

    so rows 0..n//2 come from an rfft down the columns and an ifft along
    the rows, and the other rows are conjugate copies.  Rows 0 and n/2
    are their own reflections: the rfft gives them real, so they are
    read as the half spectra of real vectors and filled the same way.
    The identity then holds exactly (core.reflection_defect is 0.0), and
    B agrees with the complex route to about eps * max|B|.  Both passes
    write into B in place, so beside B only O(n) is allocated.

    B[0, 0] is the mean of A's entries, so a nan or inf anywhere in A
    leaves it non-finite: NumericalError, from that one entry, and A is
    never scanned.  The passes run with invalid operations unflagged,
    since only a non-finite A has them.
    """
    a = require_square(a)
    with np.errstate(invalid="ignore"):
        b = _fourier_passes(a)
    if not np.isfinite(b[0, 0]):
        raise NumericalError(f"matrix is not finite: B[0, 0], the mean of its entries, reads {b[0, 0]}")
    return b


def _fourier_passes(a: np.ndarray) -> np.ndarray:
    """similarity_transform's two passes, complex or real (see there)."""
    if not is_real(a):
        return np.fft.ifft(np.fft.fft(a, axis=0), axis=1)
    n = a.shape[0]
    h = n // 2 + 1
    b = np.empty((n, n), dtype=np.complex128)
    np.fft.rfft(a.real, axis=0, out=b[:h])
    for p in (0, n // 2) if n % 2 == 0 else (0,):
        # ifft(x) = conj(fft(x)) / n for real x
        spectrum = np.fft.rfft(b[p].real, norm="forward")
        np.conjugate(spectrum, out=b[p, :h])
        b[p, h:] = spectrum[(n - 1) // 2 : 0 : -1]
    # row n - p from row p, p = 1..(n-1)//2, column q from column (-q) mod n
    src, dst = b[1 : (n + 1) // 2], b[n - 1 : n // 2 : -1]
    np.fft.ifft(src, axis=1, out=src)
    np.conjugate(src[:, 0], out=dst[:, 0])
    np.conjugate(src[:, :0:-1], out=dst[:, 1:])
    return b


def inverse_similarity_transform(b) -> np.ndarray:
    """A = W* B W, exact inverse of similarity_transform."""
    b = require_square(b)
    return np.fft.fft(np.fft.ifft(b, axis=0), axis=1)


class OpCounter:
    """Collects the arithmetic-operation count of a streamed extraction.

    Counting convention: one operation per complex multiply-add, and
    ceil(log2 n) per output of a length-n FFT.  Each of the k selected
    cycles costs n per cycle of A for the dot products h_j, then 1 for
    the phase and ceil(log2 n) for the FFT per output entry, so one call
    adds k * n * (n + 1 + ceil(log2 n)) ops over n vectors (the cycles
    of A).  ``ops`` is None unless the dot-product route ran.
    """

    def __init__(self):
        self.ops: int | None = None
        self.vectors: int = 0

    @property
    def per_vector(self) -> float | None:
        if self.ops is None or self.vectors == 0:
            return None
        return self.ops / self.vectors


def _walk_spectra(a: np.ndarray, real: bool, out: np.ndarray | None = None):
    """Yield (ks, spectra) over A's cycles in blocks of _cycle_ranges,
    cycle 0 in a block of its own: spectra[t] = fft(c_d, norm="forward")
    for d = ks[t], c_d cycle d on its column walk, one FFT per block along
    the contiguous walk axis.  A real A (real true) takes rffts, bins
    0..n//2 only.

    Given out, an n x n complex array, the spectra are written into its
    rows (-d) mod n, bins from column 0 on (the transpose of
    decomposition.circulant_decompose_via_transform's F), and spectra is the
    view of those rows, all n columns: cycle 0's row is row 0, and every
    other block's rows are one reversed slice.
    """
    n = a.shape[0]
    source = a.real if real else a
    fft = np.fft.rfft if real else np.fft.fft
    bins = n // 2 + 1 if real else n
    for block in _cycle_ranges(n):
        for ks in (range(0, 1), range(1, block.stop)) if block.start == 0 else (block,):
            if not ks:
                continue
            walks = _column_walks(source, ks.start, np.empty((len(ks), n), dtype=source.dtype))
            if out is None:
                yield ks, fft(walks, axis=1, norm="forward")
                continue
            rows = out[:1] if ks.start == 0 else out[n - ks.start : n - ks.stop : -1]
            fft(walks, axis=1, norm="forward", out=rows[:, :bins])
            yield ks, rows


def read(a, counter: OpCounter | None = None) -> Toeplitz | Dense:
    """The reader of square matrix a: core.Toeplitz.of(a) when a is
    exactly Toeplitz, else Dense(a, counter).

    Both answer the same questions, n, route, cycle_norms(), cycles(ks),
    entries(rows, cols), matvec(x) and hermitian_defect(), so no caller
    asks which one it got; route names it, "toeplitz" or "dense".  An
    exactly Toeplitz A is one whose layout is Toeplitz (the generators'
    read-only view of 2n - 1 diagonals, read in O(n)) or whose every
    entry equals its down-right neighbour (scanned in 32-row blocks); a
    Toeplitz matrix perturbed by one ulp is dense.  The routes:

    * cycle_norms, all n norms of B = W A W*: one real FFT of the
      diagonals, O(n log n) (Toeplitz); running sums over the spectra of
      A's column walks, about n^2 log2 n / 2 work for a real A (Dense).
    * cycles(ks), cycles of B in the reading order of
      core.cycle_positions: the closed form, two FFTs plus O(k n)
      (Toeplitz); dot products for k <= log2 n, counted in counter, or
      the walk spectra above that, then one FFT per cycle (Dense).
    * entries(rows, cols): the closed form, O(1) per entry after two
      FFTs (Toeplitz); gathered from similarity_transform(a), O(n^2 log
      n), formed once per call (Dense, the only route that forms B).
    * matvec(x), A x: the circulant embedding of size 2n, O(n log n)
      (Toeplitz); a @ x, a real A as two real products so it is never
      cast to complex (Dense).
    * hermitian_defect(), |A - A*|_F / |A|_F: from the diagonals, O(n)
      (Toeplitz); core.hermitian_defect, O(n^2) (Dense).

    Every route of cycles and entries matches the masked full transform
    to about eps * max|B|.  A nan or inf in A makes cycle_norms and
    hermitian_defect raise NumericalError.  The counter is read only by
    Dense's dot-product route; a Toeplitz A leaves it untouched.
    """
    return Toeplitz.of(a) or Dense(a, counter)


class Dense:
    """Reader of a square A that is not exactly Toeplitz (see read); B =
    W A W* is formed only by entries.

    Cycles: with c_d cycle d of A and b_j cycle j of B, both on the
    column walk (c_d[q] = A((q + d) mod n, q)), and w = exp(-2 pi i / n),

        b_j = fft_d(w^{jd} h_j(d)) / n,   h_j(d) = sum_q c_d[q] w^{jq},

    the identity circulant_decompose_via_transform rests on (h_j(d) / n
    is bin j of fft(c_d, norm="forward"), entry (-d) mod n of circulant
    component R_j's first row), taken at the k asked-for frequencies.
    The route to h is chosen from k and n alone:

    * k <= log2 n: dot products of A's cycles with the k phase vectors,
      O(n^2 k) work, counted by OpCounter.  The phases w^{jq} are taken
      at the reduced exponent (j q) mod n, since the unreduced argument
      2 pi j q / n carries an absolute error that grows with j q.
    * k > log2 n: bin j of each cycle's spectrum, from one FFT per block
      of A's walks (_walk_spectra, the reader that
      circulant_decompose_via_transform and dominance_relation share; an
      rfft for real A, read at min(j, n - j) and conjugated past n / 2),
      about n^2 log2 n / 2 work for a real A whatever k is.  The phase is
      not applied: fft(w^{jd} x)[m] = fft(x)[(m + j) mod n], so it is a
      shift of the FFT's output by j.

    Either way one length-n FFT per cycle finishes, in O(n k) memory
    beside A.  Cycle norms follow from the same identity by Parseval,

        |b_j|^2 = n sum_d |bin j of fft(c_d, norm="forward")|^2,

    one running sum per bin over the walk spectra.
    """

    route = "dense"

    def __init__(self, a, counter: OpCounter | None = None):
        self.a = require_square(a)
        self.n = self.a.shape[0]
        self.counter = counter

    def cycle_norms(self) -> np.ndarray:
        """The l2 norms of all n cycles of B, never forming it; a real A
        reads its rfft at min(j, n - j), so cycles j and n - j come out
        bit-identical.  NumericalError if any of them is not finite."""
        n = self.n
        real = is_real(self.a)
        with np.errstate(over="ignore"):  # an overflow reads inf, and _finite_norms raises
            power = sum((np.abs(spectra) ** 2).sum(axis=0) for _, spectra in _walk_spectra(self.a, real))
        if real:  # the rfft's bins 0 .. n // 2; |bin j| = |bin n - j|
            power = power[np.minimum(np.arange(n), n - np.arange(n))]
        return _finite_norms(np.sqrt(n * power))

    def cycles(self, ks) -> np.ndarray:
        """Cycles ks of B as a (len(ks), n) array in the reading order of
        core.cycle_positions."""
        a, n = self.a, self.n
        js = np.asarray(ks, dtype=np.int64).ravel()
        k = js.size
        # row t: h_j(d) / n, j = js[t], times w^{jd} on the dot-product route
        h = np.empty((k, n), dtype=np.complex128)
        # cycle_positions reads a cycle j > n / 2 along the rows: entry p lies
        # in column (p - j) mod n, so its column walk is rolled by j
        shift = np.where(2 * js > n, js, 0)
        if k < n.bit_length():  # k <= log2 n
            phase = np.exp(-2j * np.pi * (np.outer(np.arange(n), js) % n) / n)  # w^{qj}, (n, k)
            for ks in _cycle_ranges(n):
                block = _column_walks(a, ks.start, np.empty((len(ks), n), dtype=np.complex128))
                np.multiply((block @ phase).T, phase[ks.start : ks.stop].T / n, out=h[:, ks.start : ks.stop])
            if self.counter is not None:
                self.counter.ops = (self.counter.ops or 0) + k * n * (n + 1 + (n - 1).bit_length())
                self.counter.vectors += n
        else:
            # h_j(d) / n is bin j of cycle d's spectrum; a real cycle has
            # bin j = conj(bin n - j), so its rfft is read at min(j, n - j)
            real = is_real(a)
            bins = np.minimum(js, n - js) if real else js
            for ks, spectra in _walk_spectra(a, real):
                h[:, ks.start : ks.stop] = spectra[:, bins].T
            if real:
                h.imag[2 * js > n] *= -1
            # the phase w^{jd} shifts the FFT over d: fft(w^{jd} x)[m] = fft(x)[m + j]
            shift -= js
        walks = np.fft.fft(h, axis=1, out=h)
        for t in np.flatnonzero(shift):
            walks[t] = np.roll(walks[t], shift[t])
        return walks

    def entries(self, rows, cols) -> np.ndarray:
        """Entries of B at positions (rows, cols), gathered from B formed
        once by similarity_transform."""
        return similarity_transform(self.a)[rows, cols]

    def matvec(self, x) -> np.ndarray:
        """A x for complex x.  A real A takes two real products, since a @ x
        would cast A to a complex copy of n^2 entries on every call."""
        if np.iscomplexobj(self.a):
            return self.a @ x
        return self.a @ x.real + 1j * (self.a @ x.imag)

    def hermitian_defect(self) -> float:
        """core.hermitian_defect of A."""
        return hermitian_defect(self.a)


def extract_cycles(a, sel: CycleSelection, counter: OpCounter | None = None) -> SparseCycleMatrix:
    """Selected cycles of W A W*, read from A without forming B: the
    cycles of read(a, counter), whose docstring gives the routes."""
    reader = read(a, counter)
    if sel.n != reader.n:
        raise ValueError(f"selection is for n={sel.n}, matrix has n={reader.n}")
    if len(sel) == 0:
        raise ValueError("empty cycle selection")
    return SparseCycleMatrix(reader.n, sel, reader.cycles(sel.indices))
