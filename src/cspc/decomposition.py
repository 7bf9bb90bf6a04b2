"""Cycle and circulant decompositions, component orthogonality, and the
weight/energy accounting that predicts when few cycles dominate.

Every square matrix splits exactly into its n cycles (an entry
permutation, no arithmetic) and, equivalently, into n circulant
components A = sum_k R_k D_k where D_k is the relaxation diagonal
exp(+2i*pi*k*q/n).  The components are mutually orthogonal under the
Frobenius inner product, so norm bookkeeping across the split is exact.

The components come by two independent routes: recursive peeling
(circulant_decompose_recursive) and the FFT of A's cycles
(circulant_decompose_via_transform).  The second rests on the identity:
with c_d cycle d of A read down the columns, c_d[q] = A((q+d) mod n, q),
entry m of R_k's first row is fft(c_{(-m) mod n})[k] / n.  A real A
(core.is_real) has real cycles, whose spectra satisfy
fft(c)[n - k] = conj(fft(c)[k]); the FFT routes here then take rffts,
half the work, and read the other half by that symmetry.

The dominance identity ties the two pictures together: the energy that
the cycles of A concentrate on a frequency set S equals the share of
|B|_F^2 that B = W A W* carries on the reflected cycle set T (index_reflect
of S).  dominance_relation computes both sides and checks them against
each other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    CycleSelection,
    NumericalError,
    Toeplitz,
    _column_walks,
    _cycle_ranges,
    apply_cycle_mask,
    cycle_norms,
    cycle_positions,
    is_real,
    iter_cycle_blocks,
    relaxation_diagonal,
    require_square,
)
from .sparse import SparseCycleMatrix
from .transform import similarity_transform

__all__ = [
    "CirculantComponent",
    "DominanceReport",
    "cycle_decompose",
    "recompose_cycles",
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


@dataclass(frozen=True)
class CirculantComponent:
    """First row of a circulant R_k together with its relaxation index k."""

    k: int
    first_row: np.ndarray

    def __post_init__(self):
        fr = np.asarray(self.first_row, dtype=np.complex128)
        if fr.ndim != 1 or fr.size < 1:
            raise ValueError("first_row must be a nonempty vector")
        object.__setattr__(self, "first_row", fr)
        object.__setattr__(self, "k", int(self.k))


def cycle_decompose(a) -> SparseCycleMatrix:
    """Split a into its n cycles, all kept in one SparseCycleMatrix; lossless."""
    a = require_square(a)
    n = a.shape[0]
    cycles = np.empty((n, n), dtype=np.complex128)
    for ks, block in iter_cycle_blocks(a):
        cycles[ks.start : ks.stop] = block
    return SparseCycleMatrix(n, CycleSelection(n, range(n)), cycles)


def recompose_cycles(dec: SparseCycleMatrix) -> np.ndarray:
    """The dense matrix whose cycles dec holds; inverse of cycle_decompose."""
    return dec.densify()


def circulant_dense(first_row) -> np.ndarray:
    """Dense circulant whose rows are successive right rotations of first_row."""
    r = np.asarray(first_row, dtype=np.complex128)
    n = r.size
    idx = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
    return r[idx]


def component_dense(comp: CirculantComponent) -> np.ndarray:
    """The dense matrix R_k D_k of a component."""
    n = comp.first_row.size
    return circulant_dense(comp.first_row) * relaxation_diagonal(n, comp.k)[None, :]


def circulant_decompose_recursive(a) -> list[CirculantComponent]:
    """Peel off circulant components one relaxation at a time.

    Step k averages each cycle of the residual to get the nearest
    circulant, subtracts it, and unwinds one relaxation so the next
    component is again a plain circulant.  Entry j of R_k's first row is
    the mean of residual cycle (n - j) mod n; that pairing is what makes
    the recomposition sum_k R_k D_k land back on a.
    """
    a = require_square(a)
    n = a.shape[0]
    d_back = relaxation_diagonal(n, n - 1)[None, :] if n > 1 else None
    positions = cycle_positions(n, range(n))
    residual = a.astype(np.complex128)
    comps = []
    for k in range(n):
        means = residual[positions].mean(axis=1)
        first_row = means[(-np.arange(n)) % n]
        comps.append(CirculantComponent(k, first_row))
        if k < n - 1:
            residual = (residual - circulant_dense(first_row)) * d_back
    return comps


def circulant_decompose_via_transform(a) -> list[CirculantComponent]:
    """Same components as the recursive variant, from one FFT of A's cycles.

    With c_d cycle d of a on the column walk, c_d[q] = a((q+d) mod n, q),
    entry m of R_k's first row is fft(c_{(-m) mod n})[k] / n.  So the n
    first rows are the rows of one n x n array: the FFT of the cycles
    along their length, transposed with the index reflection d -> -d.
    The name keeps "via_transform" because this is the Fourier transform
    of A's cycles, from which B = W A W* is one more FFT away; B itself
    is never formed.  The array is filled a block of cycles at a time,
    each block of walks read from strided views of A in place (the
    reader behind core.iter_cycle_blocks), and component k's first row is
    a view of its row k.

    For a real A (core.is_real) the cycles are real, so fft(c)[n - k]
    = conj(fft(c)[k]): rows 0..n//2 come from an rfft of the walks and
    row n - k is written as the conjugate of row k, in place.
    """
    a = require_square(a)
    n = a.shape[0]
    real = is_real(a)
    filled = n // 2 + 1 if real else n
    first_rows = np.empty((n, n), dtype=np.complex128)
    source = a.real if real else a
    for ks in _cycle_ranges(n):
        walks = _column_walks(source, ks.start, np.empty((len(ks), n), dtype=source.dtype))
        spectra = (np.fft.rfft if real else np.fft.fft)(walks, axis=1, norm="forward")
        first_rows[:filled, (-np.asarray(ks)) % n] = spectra.T
    if real:
        np.conjugate(first_rows[1 : (n + 1) // 2], out=first_rows[n - 1 : n // 2 : -1])
    return [CirculantComponent(k, first_rows[k]) for k in range(n)]


def recompose(components: list[CirculantComponent], n: int) -> np.ndarray:
    """Dense sum of R_k D_k over the given components."""
    out = np.zeros((n, n), dtype=np.complex128)
    for comp in components:
        if comp.first_row.size != n:
            raise ValueError(
                f"component k={comp.k} has length {comp.first_row.size}, expected {n}"
            )
        out += component_dense(comp)
    return out


def orthogonality_check(components: list[CirculantComponent]) -> float:
    """Largest normalized cross inner product |<R_iD_i, R_jD_j>| over pairs.

    Zero for a clean decomposition; the epsilon keeps all-zero
    components from dividing by zero.
    """
    if len(components) < 2:
        raise ValueError("need at least two components to compare")
    dense = [component_dense(c) for c in components]
    norms = [np.linalg.norm(d, "fro") for d in dense]
    worst = 0.0
    for i in range(len(dense)):
        for j in range(i + 1, len(dense)):
            ip = abs(np.vdot(dense[i], dense[j]))
            worst = max(worst, ip / (norms[i] * norms[j] + 1e-300))
    return worst


def cycle_weights(b) -> np.ndarray:
    """Fraction of |b|_F^2 carried by each cycle; sums to 1.

    Meaningful for any square matrix; when b is a similarity transform
    W A W* these are the component weights of A's circulant split.
    """
    b = require_square(b)
    total = np.linalg.norm(b, "fro") ** 2
    if total == 0:
        raise ValueError("weights are undefined for the zero matrix")
    return cycle_norms(b) ** 2 / total


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
    A real A (core.is_real) takes rffts of its cycles on the predicted
    side and the real route of similarity_transform on the direct side.
    |A|_F^2 is the sum of the cycles' squared norms, from the same pass.
    """
    a = require_square(a)
    n = a.shape[0]
    if freq_set.n != n:
        raise ValueError(f"selection is for n={freq_set.n}, matrix has n={n}")

    # one pass over A's cycles gives both factors of every term: the
    # weights, and partial_energy batched as one FFT per block.  A real
    # cycle's spectrum has gamma_j = gamma_{n-j}, so a real A takes the
    # rfft, read at min(j, n - j), and its Parseval total weights the
    # bins 1, 2, ..., 2, ending in 1 for even n
    real = is_real(a)
    freq = freq_set.as_array()
    if real:
        freq = np.minimum(freq, n - freq)
        fold = np.ones(n // 2 + 1)
        fold[1 : (n + 1) // 2] = 2.0
    weights = np.empty(n)
    energies = np.zeros(n)
    for ks, block in iter_cycle_blocks(a):
        block = block.real if real else block
        weights[ks.start : ks.stop] = np.linalg.norm(block, axis=1) ** 2
        if real:
            gamma = np.abs(np.fft.rfft(block, axis=1)) ** 2
            gamma_total = gamma @ fold
        else:
            gamma = np.abs(np.fft.ifft(block, axis=1, norm="forward")) ** 2
            gamma_total = gamma.sum(axis=1)
        np.divide(
            gamma[:, freq].sum(axis=1),
            gamma_total,
            out=energies[ks.start : ks.stop],
            where=gamma_total > 0,
        )
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
