"""Fourier engines: the two-sided similarity transform and cycle extraction.

Sign convention, fixed once: the similarity transform conjugates by the
unitary Fourier matrix W (negative kernel, 1/sqrt(n)): B = W A W*.
Implemented as two passes of one-dimensional FFTs,
B = ifft(fft(A, axis=0), axis=1); the explicit triple product is only
ever used as a test oracle.  A real A (core.is_real) takes half of
that work: conj(W) = P W with P the index reflection p -> (-p) mod n,
so B[(-p) mod n, q] = conj(B[p, (-q) mod n]), and rows 0..n//2 from an
rfft down the columns determine the rest (similarity_transform).

extract_cycles reads selected cycles of B, by one of two routes chosen
from the selection size k and n alone:

* k <= log2 n, streamed from A's cycles without forming B.  With c_d
  cycle d of A and b_j cycle j of B, both on the column walk
  (c_d[q] = A((q + d) mod n, q)), and w = exp(-2 pi i / n),

      b_j = fft_d(w^{jd} h_j(d)) / n,   h_j(d) = sum_q c_d[q] w^{jq},

  the identity circulant_decompose_via_transform rests on, taken at k
  frequencies: O(n^2 k) work and O(n k) memory beside A.
* k > log2 n: the full transform, masked.  Its two FFT passes cost
  about 2 n^2 log2 n whatever k is, which is why larger selections
  take it.

A Toeplitz A needs neither: B's cycles and their norms have a closed
form in its 2n - 1 diagonals, core.Toeplitz.cycles and cycle_norms (the
class docstring gives the identity and its precision).
"""

from __future__ import annotations

import numpy as np

from .core import (
    CycleSelection,
    _column_walks,
    _cycle_ranges,
    cycle_positions,
    is_real,
    require_square,
)
from .sparse import SparseCycleMatrix, sparsify

__all__ = [
    "OpCounter",
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
    """
    a = require_square(a)
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
    of A).  ``ops`` is None when the full transform was taken instead.
    """

    def __init__(self):
        self.ops: int | None = None
        self.vectors: int = 0

    @property
    def per_vector(self) -> float | None:
        if self.ops is None or self.vectors == 0:
            return None
        return self.ops / self.vectors


def extract_cycles(a, sel: CycleSelection, counter: OpCounter | None = None) -> SparseCycleMatrix:
    """Selected cycles of W A W*.

    Up to log2 n cycles stream from A's cycles and B is never formed;
    more take the masked full transform (counter.ops stays None), whose
    result this is bit for bit.  The streamed values match it to about
    eps * max|B|: the phases w^{jq} are taken at the reduced exponent
    (j q) mod n, since the unreduced argument 2 pi j q / n carries an
    absolute error that grows with j q.
    """
    a = require_square(a)
    n = a.shape[0]
    if sel.n != n:
        raise ValueError(f"selection is for n={sel.n}, matrix has n={n}")
    k = len(sel)
    if k == 0:
        raise ValueError("empty cycle selection")
    if k >= n.bit_length():  # k > log2 n
        return sparsify(similarity_transform(a), sel)

    js = sel.as_array()
    phase = np.exp(-2j * np.pi * (np.outer(np.arange(n), js) % n) / n)  # w^{qj}, (n, k)
    h = np.empty((n, k), dtype=np.complex128)
    for ks in _cycle_ranges(n):
        block = _column_walks(a, ks.start, np.empty((len(ks), n), dtype=np.complex128))
        h[ks.start : ks.stop] = block @ phase
    walks = np.fft.fft(phase * h, axis=0) / n  # column t: cycle js[t] on the column walk
    if counter is not None:
        counter.ops = (counter.ops or 0) + k * n * (n + 1 + (n - 1).bit_length())
        counter.vectors += n

    _, cols = cycle_positions(n, js)
    return SparseCycleMatrix(n, sel, np.take_along_axis(walks.T, cols, axis=1))
