"""Cycle and circulant decompositions, component orthogonality, and the
weight/energy accounting that predicts when few cycles dominate.

Every square matrix splits exactly into its n cycles (an entry
permutation, no arithmetic) and, equivalently, into n circulant
components A = sum_k R_k D_k where D_k is the relaxation diagonal
exp(+2i*pi*k*q/n).  The components are mutually orthogonal under the
Frobenius inner product, so norm bookkeeping across the split is exact.

The split is one n x n array F, F[k] the first row of R_k, by two
independent routes: recursive peeling (circulant_decompose_recursive)
and the FFT of A's cycles (circulant_decompose_via_transform).  With
c_d cycle d of A read down the columns, c_d[q] = A((q+d) mod n, q),
entry m of R_k's first row is fft(c_{(-m) mod n})[k] / n: the spectrum
of c_d is column (-d) mod n of F.  transform._walk_spectra reads these
spectra, one FFT per block of cycles, for F, for extract_cycles and for
dominance_relation's predicted side.  A real A (core.is_real) has real
cycles, fft(c)[n - k] = conj(fft(c)[k]), so the reader takes rffts,
half the work, and the other half is read by that symmetry.

The dominance identity ties the two pictures together: the energy that
the cycles of A concentrate on a frequency set S equals the share of
|B|_F^2 that B = W A W* carries on the reflected cycle set T (index_reflect
of S).  dominance_relation computes both sides and checks them against
each other.

The Toeplitz closed forms, toeplitz_s0 and toeplitz_partial_energy, are
exact; the tests hold them to FFT oracles at 1e-9.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    CycleSelection,
    NumericalError,
    Toeplitz,
    apply_cycle_mask,
    cycle_norms,
    cycle_positions,
    is_real,
    iter_cycle_blocks,
    relaxation_diagonal,
    require_square,
)
from .sparse import SparseCycleMatrix
from .transform import _walk_spectra, similarity_transform

__all__ = [
    "DominanceReport",
    "cycle_decompose",
    "circulant_dense",
    "component_dense",
    "circulant_decompose_recursive",
    "circulant_decompose_via_transform",
    "recompose",
    "orthogonality_check",
    "cycle_weights",
    "partial_energy",
    "index_reflect",
    "dominance_relation",
    "toeplitz_s0",
    "toeplitz_partial_energy",
]


def cycle_decompose(a) -> SparseCycleMatrix:
    """Split a into its n cycles, all kept in one SparseCycleMatrix;
    lossless, its densify() is a again."""
    a = require_square(a)
    n = a.shape[0]
    cycles = np.empty((n, n), dtype=np.complex128)
    for ks, block in iter_cycle_blocks(a):
        cycles[ks.start : ks.stop] = block
    return SparseCycleMatrix(n, CycleSelection(n, range(n)), cycles)


def circulant_dense(first_row) -> np.ndarray:
    """Dense circulant whose rows are successive right rotations of first_row."""
    r = np.asarray(first_row, dtype=np.complex128)
    if r.ndim != 1 or r.size < 1:
        raise ValueError(f"first row must be a nonempty vector, got shape {r.shape}")
    n = r.size
    idx = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
    return r[idx]


def component_dense(first_row, k: int) -> np.ndarray:
    """The dense matrix R_k D_k, R_k the circulant with this first row."""
    r = circulant_dense(first_row)
    return r * relaxation_diagonal(r.shape[0], k)[None, :]


def circulant_decompose_recursive(a) -> np.ndarray:
    """Peel off circulant components one relaxation at a time.

    Step k averages each cycle of the residual to get the nearest
    circulant, subtracts it, and unwinds one relaxation so the next
    component is again a plain circulant.  Entry j of R_k's first row,
    F[k, j], is the mean of residual cycle (n - j) mod n; that pairing is
    what makes the recomposition sum_k R_k D_k land back on a.
    """
    a = require_square(a)
    n = a.shape[0]
    d_back = relaxation_diagonal(n, n - 1)[None, :] if n > 1 else None
    positions = cycle_positions(n, range(n))
    residual = a.astype(np.complex128)
    f = np.empty((n, n), dtype=np.complex128)
    for k in range(n):
        f[k] = residual[positions].mean(axis=1)[(-np.arange(n)) % n]
        if k < n - 1:
            residual = (residual - circulant_dense(f[k])) * d_back
    return f


def circulant_decompose_via_transform(a) -> np.ndarray:
    """Same F as the recursive variant, from one FFT of A's cycles.

    F is the transposed view, not a copy, of one n x n array whose row
    (-d) mod n is the spectrum of cycle d on the column walk, filled a
    block of cycles at a time by transform._walk_spectra.  The name keeps
    "via_transform" because this is the Fourier transform of A's cycles,
    from which B = W A W* is one more FFT away; B itself is never formed.

    For a real A (core.is_real) the cycles are real, so fft(c)[n - k]
    = conj(fft(c)[k]): bins 0..n//2 come from an rfft of the walks and
    bin n - k of every row is written as the conjugate of bin k, in place.
    """
    a = require_square(a)
    n = a.shape[0]
    real = is_real(a)
    spectra = np.empty((n, n), dtype=np.complex128)  # column k: R_k's first row
    for _, rows in _walk_spectra(a, real, out=spectra):
        if real:
            np.conjugate(rows[:, (n - 1) // 2 : 0 : -1], out=rows[:, n // 2 + 1 :])
    return spectra.T


def recompose(f) -> np.ndarray:
    """Dense sum of R_k D_k over the rows F[k] of an n x n F."""
    f = require_square(f)
    out = np.zeros(f.shape, dtype=np.complex128)
    for k, first_row in enumerate(f):
        out += component_dense(first_row, k)
    return out


def orthogonality_check(dense: list[np.ndarray]) -> float:
    """Largest normalized cross inner product |<X_i, X_j>| over pairs of
    the given matrices, such as the components component_dense(F[k], k).

    Zero for a clean decomposition; the epsilon keeps all-zero
    components from dividing by zero.
    """
    if len(dense) < 2:
        raise ValueError("need at least two components to compare")
    x = np.array([np.ravel(d) for d in dense])
    norms = np.linalg.norm(x, axis=1)
    cross = np.abs(x.conj() @ x.T) / (np.outer(norms, norms) + 1e-300)
    np.fill_diagonal(cross, 0.0)
    return float(cross.max())


def cycle_weights(b) -> np.ndarray:
    """Fraction of |b|_F^2 carried by each cycle; sums to 1.

    Meaningful for any square matrix; when b is a similarity transform
    W A W* these are the component weights of A's circulant split.  The
    cycles partition b, so |b|_F^2 is the sum of their squared norms and
    b is read once.
    """
    energies = cycle_norms(b) ** 2
    total = energies.sum()
    if total == 0:
        raise ValueError("weights are undefined for the zero matrix")
    return energies / total


def partial_energy(cycle, freq_set: CycleSelection) -> float:
    """Share of a cycle's spectral energy on the given frequency bins.

    Spectrum taken with the positive-kernel DFT; the value is scale free.
    """
    c = np.asarray(cycle, dtype=np.complex128)
    if c.ndim != 1 or c.size != freq_set.n:
        raise ValueError(f"cycle has shape {c.shape}, selection expects length {freq_set.n}")
    gamma = np.abs(np.fft.ifft(c) * c.size) ** 2
    total = gamma.sum()
    if total == 0:
        raise ValueError("partial energy is undefined for a zero cycle")
    return float(gamma[freq_set.as_array()].sum() / total)


def index_reflect(s: CycleSelection) -> CycleSelection:
    """Map each index a to n - a (0 stays put); an involution."""
    return CycleSelection.of(s.n, [0 if a == 0 else s.n - a for a in s.indices])


@dataclass(frozen=True)
class DominanceReport:
    """Both sides of the dominance identity for one frequency set.

    relative_magnitude is the direct measurement on B = W A W* (cycle
    norms over the reflected index set); weighted_sum is sum_i w_i E_i
    from A's cycles.  They agree to the tolerance enforced at
    construction time in dominance_relation.
    """

    weights: np.ndarray
    partial_energies: np.ndarray
    relative_magnitude: float
    weighted_sum: float


def dominance_relation(a, freq_set: CycleSelection) -> DominanceReport:
    """Evaluate s = sum_i w_i E_i both directly and cycle by cycle.

    The direct side masks B = W A W* to the reflection of freq_set and
    measures the retained Frobenius energy.  The predicted side weights
    each cycle of A by its share of |A|_F^2 and its partial energy on
    freq_set.  Zero cycles of A carry zero weight; their (undefined)
    energies are reported as 0.  Disagreement beyond 1e-9 means the
    inputs broke an exact identity, so it raises instead of returning.
    A real A (core.is_real) takes the real route of similarity_transform
    on the direct side.
    """
    a = require_square(a)
    n = a.shape[0]
    if freq_set.n != n:
        raise ValueError(f"selection is for n={freq_set.n}, matrix has n={n}")

    # both factors of every term come from the walk spectra of A's cycles.
    # By Parseval a cycle's |spectrum|^2 sums to its squared norm over n,
    # its weight once normalised.  Bin j of partial_energy's DFT is bin
    # (-j) mod n here; the column walk is cycle_positions' row walk rolled,
    # which no |DFT| sees.  A real cycle has |bin j| = |bin n - j|: a real
    # A's rfft is read at min(j, n - j), bins 1 .. (n - 1) // 2 counted twice
    real = is_real(a)
    js = freq_set.as_array()
    freq = np.minimum(js, n - js) if real else -js % n
    fold = np.ones(n // 2 + 1 if real else n)
    if real:
        fold[1 : (n + 1) // 2] = 2.0
    weights = np.empty(n)
    energies = np.zeros(n)
    for ks, spectra in _walk_spectra(a, real):
        gamma = np.abs(spectra) ** 2
        w = np.dot(gamma, fold, out=weights[ks.start : ks.stop])
        np.divide(gamma[:, freq].sum(axis=1), w, out=energies[ks.start : ks.stop], where=w > 0)
    total = weights.sum()
    if total == 0:
        raise ValueError("dominance is undefined for the zero matrix")
    weights /= total
    weighted = float(np.dot(weights, energies))

    b = similarity_transform(a)
    reflected = index_reflect(freq_set)
    b_total = np.linalg.norm(b, "fro") ** 2
    s_direct = np.linalg.norm(apply_cycle_mask(b, reflected.indices)) ** 2 / b_total

    if abs(s_direct - weighted) > 1e-9:
        raise NumericalError(
            f"dominance identity violated: direct {s_direct!r} vs weighted {weighted!r}"
        )
    return DominanceReport(
        weights=weights,
        partial_energies=energies,
        relative_magnitude=float(s_direct),
        weighted_sum=weighted,
    )


def toeplitz_s0(entries) -> float:
    """Closed-form weight of cycle 0 of W A W* for a Toeplitz matrix A.

    entries lists the diagonal values a_{-(n-1)} .. a_{n-1} of
    A(p, q) = a_{q-p}, the t of core.Toeplitz.  Equals
    cycle_weights(similarity_transform(A))[0] without forming the matrix.
    """
    a = Toeplitz(entries)
    fro = a.frobenius_norm()
    if fro == 0:
        raise ValueError("all-zero entries")
    return float(np.linalg.norm(a.cycles([0])) ** 2 / fro**2)


def toeplitz_partial_energy(entries, i: int, k: int) -> float:
    """Closed-form partial energy of Toeplitz cycle i at frequency bin k.

    Cycle i of a Toeplitz matrix holds a_{-i} on n-i positions and
    a_{n-i} on the remaining i, so its spectrum is a two-level Dirichlet
    profile.  Valid for 1 <= i, k <= n-1; the k = 0 share is
    1 - sum over k >= 1, or toeplitz_s0 for the whole-matrix view.
    """
    a = Toeplitz(entries)
    n, t = a.n, a.t
    if not 1 <= i <= n - 1:
        raise ValueError(f"cycle index {i} out of range [1, {n - 1}]")
    if not 1 <= k <= n - 1:
        raise ValueError(f"frequency index {k} out of range [1, {n - 1}]")
    am = t[n - 1 - i]
    ap = t[2 * n - 1 - i]
    denom = (n - i) * abs(am) ** 2 + i * abs(ap) ** 2
    if denom == 0:
        raise ValueError(f"cycle {i} is zero, partial energy undefined")
    ratio = np.sin(np.pi * k * i / n) / np.sin(np.pi * k / n)
    return float(abs(am - ap) ** 2 * ratio**2 / (n * denom))
