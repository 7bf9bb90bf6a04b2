"""Fourier engines: the two-sided similarity transform, pruned cycle
extraction and the closed-form cycles of a Toeplitz matrix's transform.

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

A Toeplitz A needs neither: B's cycles have a closed form in its 2n - 1
diagonals t_d = A(p, p + d) (first column col, first row row, as
core.toeplitz_diagonals returns them).  With u_d = t_d - t_{d-n} for
d = 1..n-1 and u_0 = 0, cycle j != 0 read down the columns is

    B((q + j) mod n, q) = ifft(h_j)[q],
    h_j(d) = u_d (1 - e^{2 pi i j d / n}) / (1 - e^{-2 pi i j / n}),

and cycle 0 (the diagonal) is ifft(h_0) with h_0(d) = (n - d) t_d +
d t_{d-n}, h_0(0) = n t_0.  Only cycle 0 sees the circulant part of A.
The factor 1 - e^{2 pi i j d / n} shifts ifft(u) by j, so any set of
cycles costs two length-n FFTs, ifft(u) and ifft(h_0), plus O(n) per
cycle (toeplitz_cycles), and by Parseval all n cycle norms cost one real
FFT (toeplitz_cycle_norms):

    |cycle j|^2 = (sum |u|^2 - Re F_j) / (2 n sin^2(pi j / n)),  F = fft(|u|^2),

so for every Toeplitz A cycles j and n - j have equal norms.  For k = 1
the mask is T. Chan's optimal circulant (T. Chan 1988; Chan & Ng, SIAM
Review 1996).  Precision: the sine is taken at the reduced argument
pi min(j, n - j) / n and F at index min(j, n - j) (an rfft), so
reflection partners get bit-identical norms; the plain sin(pi j / n)
loses the argument's roundoff near pi (random complex Toeplitz, n = 2048:
7e-14 of the largest norm against 3e-16).  The subtraction
sum |u|^2 - Re F_j still cancels where u is concentrated at d near 0 or
n: on Example 1 (n = 64, 1000, 2048) the worst error is 1.6e-15 of the
largest norm and 2.8e-12 relative (cycle 1 at n = 1000), against a
long-double evaluation of the same sum, about 140 times inside the
n * eps * max tie tolerance of the cycle selection.
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
    "toeplitz_cycle_norms",
    "toeplitz_cycles",
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


def _toeplitz_terms(col, row) -> tuple[np.ndarray, np.ndarray]:
    """(u, h_0) of the Toeplitz closed form, see the module docstring."""
    col = np.asarray(col, dtype=np.complex128).ravel()
    row = np.asarray(row, dtype=np.complex128).ravel()
    if col.size != row.size or col.size < 1:
        raise ValueError(
            f"expected first column and row of one length, got {col.size} and {row.size}"
        )
    n = col.size
    d = np.arange(n)
    back = np.concatenate([[0], col[:0:-1]])  # t_{d-n} = A(p + n - d, p), d >= 1
    u = row - back
    u[0] = 0
    return u, (n - d) * row + d * back


def _half_sines(n: int, ks: np.ndarray) -> np.ndarray:
    """sin(pi j / n) at the reduced argument pi min(j, n - j) / n."""
    return np.sin(np.pi * np.minimum(ks, n - ks) / n)


def toeplitz_cycle_norms(col, row) -> np.ndarray:
    """The l2 norms of all n cycles of W A W* for the Toeplitz A with first
    column col and first row row, from one real FFT of |u|^2.

    Equal to cycle_norms(similarity_transform(A)) to roundoff (see the
    module docstring for the precision); cycles j and n - j come out
    bit-identical.
    """
    u, h0 = _toeplitz_terms(col, row)
    n = u.size
    w = np.abs(u) ** 2
    f = np.fft.rfft(w).real
    j = np.arange(1, n)
    norms = np.empty(n)
    norms[0] = np.linalg.norm(h0) / np.sqrt(n)
    # sum w (1 - cos) >= 0 in exact arithmetic; roundoff may dip below
    energy = np.maximum(w.sum() - f[np.minimum(j, n - j)], 0.0)
    norms[1:] = np.sqrt(energy / (2 * n * _half_sines(n, j) ** 2))
    return norms


def toeplitz_cycles(col, row, ks) -> np.ndarray:
    """Cycles ks of W A W* for the Toeplitz A with first column col and
    first row row, as a (len(ks), n) array in the reading order of
    core.cycle_positions, from two length-n FFTs whatever len(ks) is.

    Row t equals apply_cycle_mask(similarity_transform(A), ks[t]) to
    roundoff.  The factor 1 - e^{2 pi i j d / n} of h_j shifts ifft(u) by
    j, so B(p, q) on cycle j != 0 is (U[q] - U[p]) / (1 - e^{-2 pi i j / n})
    with U = ifft(u), and cycle 0 is ifft(h_0).
    """
    u, h0 = _toeplitz_terms(col, row)
    n = u.size
    ks = np.asarray(ks, dtype=np.int64).ravel()
    rows, cols = cycle_positions(n, ks)
    # 1 - e^{-2 pi i j / n} = 2i sin(pi j / n) e^{-pi i j / n}, with the sine
    # at the reduced argument; the difference taken directly would carry a
    # relative error of about eps / |1 - e^{-2 pi i j / n}| (~300 eps at j = 1,
    # n = 2048)
    den = 2j * _half_sines(n, ks) * np.exp(-1j * np.pi * ks / n)
    diagonal = ks == 0
    den[diagonal] = 1.0
    u_hat = np.fft.ifft(u)
    out = (u_hat[cols] - u_hat[rows]) * (1 / den)[:, None]
    out[diagonal] = np.fft.ifft(h0)
    return out
