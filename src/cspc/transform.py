"""Fourier engines: the two-sided similarity transform and pruned cycle
extraction.

Sign convention, fixed once: the similarity transform conjugates by the
unitary Fourier matrix W (negative kernel, 1/sqrt(n)): B = W A W*.
Implemented as two passes of one-dimensional FFTs,
B = ifft(fft(A, axis=0), axis=1); the explicit triple product is only
ever used as a test oracle.

extract_cycles computes selected cycles of B without forming B.  The
column pass runs in full; the row pass is outputs-pruned down to the
dependency cone of the requested positions (see _kernels).  Cost per row
for k selected cycles on power-of-two n is at most (n-k) + n*log2(k)
butterfly/leaf operations, which the optional OpCounter reports.

A Toeplitz A needs neither: B's cycles and their norms have a closed
form in its 2n - 1 diagonals, core.Toeplitz.cycles and cycle_norms (the
class docstring gives the identity and its precision).
"""

from __future__ import annotations

import numpy as np

from . import _kernels
from .core import CycleSelection, cycle_positions, require_square
from .sparse import SparseCycleMatrix, sparsify

__all__ = [
    "OpCounter",
    "similarity_transform",
    "inverse_similarity_transform",
    "extract_cycles",
]


def similarity_transform(a) -> np.ndarray:
    """B = W A W* via two FFT passes, never a triple matrix product."""
    a = require_square(a)
    return np.fft.ifft(np.fft.fft(a, axis=0), axis=1)


def inverse_similarity_transform(b) -> np.ndarray:
    """A = W* B W, exact inverse of similarity_transform."""
    b = require_square(b)
    return np.fft.fft(np.fft.ifft(b, axis=0), axis=1)


class OpCounter:
    """Collects the arithmetic-operation count of a pruned extraction.

    Counting convention: one operation per butterfly output written, and
    s*log2(s) for a full size-s leaf FFT.  The count covers the pruned
    row pass only; the full column pass is delegated to the FFT library
    and not instrumented.  ``ops`` is None when the pruned path was not
    taken (non-power-of-two n).
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
    """Selected cycles of W A W*, without forming the rest of it.

    For power-of-two n the row pass touches only the dependency cone of
    the requested outputs; otherwise it falls back to the full transform
    plus masking (counter.ops stays None).  Values match the masked full
    transform to roundoff either way.
    """
    a = require_square(a)
    n = a.shape[0]
    if sel.n != n:
        raise ValueError(f"selection is for n={sel.n}, matrix has n={n}")
    if len(sel) == 0:
        raise ValueError("empty cycle selection")

    if n & (n - 1):
        return sparsify(similarity_transform(a), sel)

    reflected = (n - sel.as_array()) % n
    base = np.unique(reflected)
    plan = _kernels.build_plan(n, tuple(base.tolist()))
    y = np.fft.fft(a, axis=0)
    w_plus = np.exp(2j * np.pi * np.arange(n) / n)
    out = _kernels.pruned_rows_numpy(y, plan, w_plus) / n
    if counter is not None:
        counter.ops = (counter.ops or 0) + plan[4] * n
        counter.vectors += n

    # column t of the kernel output corresponds to base[t]; map back to
    # the requested cycle order.  Entry p of a column is B(p, (p - j) mod n),
    # the row walk; taking entry rows[t, q] of it puts it in reading order.
    rows, _ = cycle_positions(n, sel.indices)
    cycles = np.take_along_axis(out[:, np.searchsorted(base, reflected)].T, rows, axis=1)
    return SparseCycleMatrix(n, sel, cycles)
