"""Cycle selection, sparsification, approximate spectra and their error
bounds, plus the entry-magnitude sparsifier used as a baseline.

The pipeline: transform A, keep the k cycles of B = W A W* with the
largest l2 norm, and treat the rest as the perturbation Delta.  Because
distinct cycles are orthogonal slices of the matrix, norm bookkeeping is
exact: |B|_F^2 = |B~|_F^2 + |Delta|_F^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.optimize
import scipy.sparse

from .core import (
    CycleSelection,
    NumericalError,
    apply_cycle_mask,
    cycle_norms,
    cycle_positions,
    require_square,
)

__all__ = [
    "SparseCycleMatrix",
    "EigenApproxResult",
    "BauerFikeBound",
    "PdCheckReport",
    "dominant_cycle_order",
    "select_dominant_cycles",
    "sparsify",
    "direct_sparsify",
    "approx_eigenvalues",
    "eigen_error_report",
    "bauer_fike_bound",
    "pd_sufficient_check",
]

# eigenvalues smaller than this are excluded from relative-error statistics
RELATIVE_ERROR_FLOOR = 1e-14

# optimal assignment is cubic; above this size a greedy matching is used
HUNGARIAN_LIMIT = 512


@dataclass(frozen=True)
class SparseCycleMatrix:
    """A subset of cycles of an n x n matrix.

    cycles[t] holds the values of cycle selection.indices[t] in the
    reading order of core.cycle_positions.  nnz is |selection| * n
    regardless of stored zeros.
    """

    n: int
    selection: CycleSelection
    cycles: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.cycles, dtype=np.complex128)
        if c.shape != (len(self.selection), self.n):
            raise ValueError(
                f"expected cycles of shape {(len(self.selection), self.n)}, got {c.shape}"
            )
        if self.selection.n != self.n:
            raise ValueError("selection dimension does not match matrix dimension")
        object.__setattr__(self, "cycles", c)

    @property
    def nnz(self) -> int:
        return len(self.selection) * self.n

    def cycle(self, k: int) -> np.ndarray:
        t = self.selection.indices.index(int(k))
        return self.cycles[t]

    def densify(self) -> np.ndarray:
        rows, cols = cycle_positions(self.n, self.selection.indices)
        out = np.zeros((self.n, self.n), dtype=np.complex128)
        out[rows, cols] = self.cycles
        return out

    def to_scipy(self) -> scipy.sparse.csc_matrix:
        """The same matrix in compressed sparse column form, nnz entries.

        Equal to densify() entry for entry: cycles partition the
        positions, so no two stored values land on one entry.
        """
        rows, cols = cycle_positions(self.n, self.selection.indices)
        return scipy.sparse.csc_matrix(
            (self.cycles.ravel(), (rows.ravel(), cols.ravel())), shape=(self.n, self.n)
        )

    def frobenius_norm(self) -> float:
        return float(np.linalg.norm(self.cycles))


def dominant_cycle_order(b) -> np.ndarray:
    """All n cycle indices of b, largest l2 norm first.

    Norms within n * eps * max(norms) count as tied (for Hermitian b,
    cycles j and n - j tie in exact arithmetic, not in roundoff), and
    ties break toward the smaller index.  The first k entries are
    select_dominant_cycles(b, k) for every k, from one norm scan.
    """
    norms = cycle_norms(b)
    tol = norms.size * np.finfo(float).eps * norms.max()
    by_norm = np.argsort(-norms, kind="stable")
    # consecutive norms (in descending order) closer than tol share a group
    group = np.cumsum(np.r_[0, np.diff(norms[by_norm]) < -tol])
    return by_norm[np.lexsort((by_norm, group))]


def select_dominant_cycles(b, k: int) -> CycleSelection:
    """Indices of the k cycles of b with the largest l2 norm.

    The first k of dominant_cycle_order(b), with its tie rule.
    """
    b = require_square(b)
    n = b.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"cycle count {k} out of range [1, {n}]")
    return CycleSelection.of(n, dominant_cycle_order(b)[:k])


def sparsify(b, sel: CycleSelection) -> SparseCycleMatrix:
    b = require_square(b)
    if sel.n != b.shape[0]:
        raise ValueError(f"selection is for n={sel.n}, matrix has n={b.shape[0]}")
    if len(sel) == 0:
        raise ValueError("empty cycle selection")
    return SparseCycleMatrix(b.shape[0], sel, apply_cycle_mask(b, sel.indices))


def direct_sparsify(a, nnz: int) -> np.ndarray:
    """Keep the nnz largest-magnitude entries of a, zero the rest.

    Ties keep the entry that comes first in row-major order.
    """
    a = require_square(a)
    n2 = a.size
    if not 0 <= nnz <= n2:
        raise ValueError(f"nnz {nnz} out of range [0, {n2}]")
    flat = a.ravel()
    order = np.argsort(-np.abs(flat), kind="stable")
    out = np.zeros_like(flat)
    keep = order[:nnz]
    out[keep] = flat[keep]
    return out.reshape(a.shape)


def approx_eigenvalues(b_sparse: SparseCycleMatrix) -> np.ndarray:
    """All n eigenvalues of the densified sparse matrix.

    A dense general eigensolver stands in for a structured sparse one;
    adequate at the matrix sizes this library targets.
    """
    if len(b_sparse.selection) == 0:
        raise ValueError("empty cycle selection")
    try:
        return np.linalg.eigvals(b_sparse.densify())
    except np.linalg.LinAlgError as e:
        raise NumericalError(f"eigensolver failed to converge: {e}") from e


@dataclass
class EigenApproxResult:
    approx_eigenvalues: np.ndarray
    reference_eigenvalues: np.ndarray | None
    matching: np.ndarray | None
    mean_relative_error: float
    std_relative_error: float
    n_excluded: int


def _match_eigenvalues(reference: np.ndarray, approx: np.ndarray) -> np.ndarray:
    """matching[i] = index into approx paired with reference[i]."""
    n = len(reference)
    cost = np.abs(reference[:, None] - approx[None, :])
    if n <= HUNGARIAN_LIMIT:
        rows, cols = scipy.optimize.linear_sum_assignment(cost)
        matching = np.empty(n, dtype=np.int64)
        matching[rows] = cols
        return matching
    # greedy fallback: biggest reference values pick first; suboptimal but
    # deterministic and adequate for the trend statistics it feeds
    matching = np.full(n, -1, dtype=np.int64)
    taken = np.zeros(n, dtype=bool)
    for i in np.argsort(-np.abs(reference), kind="stable"):
        c = np.where(taken, np.inf, cost[i])
        j = int(np.argmin(c))
        matching[i] = j
        taken[j] = True
    return matching


def eigen_error_report(approx, reference) -> EigenApproxResult:
    """Match approximate to reference eigenvalues and report error stats.

    Matching minimizes the total |lambda - lambda~| over bijections
    (optimal assignment up to HUNGARIAN_LIMIT, greedy beyond).  Relative
    error per pair is |lambda - lambda~| / |lambda|; pairs with
    |lambda| < RELATIVE_ERROR_FLOOR are excluded from the statistics and
    counted in n_excluded.  Std is the population standard deviation.
    """
    approx = np.asarray(approx, dtype=np.complex128).ravel()
    reference = np.asarray(reference, dtype=np.complex128).ravel()
    if approx.shape != reference.shape:
        raise ValueError(f"length mismatch: {approx.shape} vs {reference.shape}")
    matching = _match_eigenvalues(reference, approx)
    absref = np.abs(reference)
    ok = absref >= RELATIVE_ERROR_FLOOR
    rel = np.abs(reference[ok] - approx[matching[ok]]) / absref[ok]
    mean = float(rel.mean()) if rel.size else 0.0
    std = float(rel.std()) if rel.size else 0.0
    return EigenApproxResult(
        approx_eigenvalues=approx,
        reference_eigenvalues=reference,
        matching=matching,
        mean_relative_error=mean,
        std_relative_error=std,
        n_excluded=int((~ok).sum()),
    )


@dataclass(frozen=True)
class BauerFikeBound:
    absolute: float
    relative: float | None
    eigenvector_condition: float
    delta_spectral: float


def bauer_fike_bound(b, b_sparse: SparseCycleMatrix) -> BauerFikeBound:
    """Eigenvalue perturbation bound kappa(X) * |Delta|_2 for Delta = B - B~.

    X is the eigenvector matrix of B with columns normalized to unit
    length; kappa its 2-norm condition number.  The relative variant
    kappa(X) * |B^{-1} Delta|_2 is included when B is invertible, None
    otherwise.  Numerically defective B (eigenvector matrix singular to
    working precision) raises NumericalError.
    """
    b = require_square(b)
    n = b.shape[0]
    if b_sparse.n != n:
        raise ValueError("matrix and sparse approximation sizes differ")
    delta = b - b_sparse.densify()
    _, x = np.linalg.eig(b)
    x = x / np.linalg.norm(x, axis=0, keepdims=True)
    sv = np.linalg.svd(x, compute_uv=False)
    if sv[-1] <= n * np.finfo(float).eps * sv[0]:
        raise NumericalError("matrix is numerically defective, eigenvector basis is singular")
    kappa = float(sv[0] / sv[-1])
    dnorm = float(np.linalg.norm(delta, 2))
    sv_b = np.linalg.svd(b, compute_uv=False)
    relative = None
    if sv_b[-1] > n * np.finfo(float).eps * sv_b[0]:
        relative = kappa * float(np.linalg.norm(np.linalg.solve(b, delta), 2))
    return BauerFikeBound(
        absolute=kappa * dnorm,
        relative=relative,
        eigenvector_condition=kappa,
        delta_spectral=dnorm,
    )


@dataclass(frozen=True)
class PdCheckReport:
    holds: bool
    worst_pair: tuple[int, int]
    margin: float
    reason: str = ""


def pd_sufficient_check(b_sparse: SparseCycleMatrix) -> PdCheckReport:
    """Diagonal-dominance style sufficient condition for positive definiteness.

    Requires the selection to contain cycle 0 and to be closed under the
    index reflection a -> n - a (so off-diagonal mass comes in conjugate
    position pairs).  With T the number of selected cycles, checks

        sqrt(B(p,p) * B(q,q)) / T  >=  |Re B(p,q)|

    at every structurally nonzero off-diagonal position.  margin is the
    worst slack; holds means margin >= 0.  A diagonal entry that is not
    positive real fails the check outright (reported, not raised).
    """
    sel = b_sparse.selection
    n = b_sparse.n
    ks = sel.as_array()
    if 0 not in sel:
        raise ValueError("positive definiteness check requires cycle 0 in the selection")
    lacking = np.setdiff1d((n - ks) % n, ks)
    if lacking.size:
        raise ValueError(f"selection is not reflection-closed: lacks cycles {lacking.tolist()}")

    diag = b_sparse.cycle(0)
    t = len(sel)
    scale = float(np.abs(diag).max()) if n else 0.0
    bad = (diag.real <= 0) | (np.abs(diag.imag) > 1e-12 * max(scale, 1.0))
    if bad.any():
        p = int(np.argmax(bad))
        return PdCheckReport(
            holds=False,
            worst_pair=(p, p),
            margin=float("-inf"),
            reason=f"diagonal entry {p} is not positive real",
        )
    d = diag.real

    if t == 1:
        p = int(np.argmin(d))
        return PdCheckReport(holds=True, worst_pair=(p, p), margin=float(d.min()) / t)

    off = ks != 0
    rows, cols = cycle_positions(n, ks[off])
    slack = np.sqrt(d[rows] * d[cols]) / t - np.abs(b_sparse.cycles[off].real)
    # first minimum in (cycle, position) order
    worst = np.unravel_index(np.argmin(slack), slack.shape)
    margin = float(slack[worst])
    return PdCheckReport(
        holds=margin >= 0, worst_pair=(int(rows[worst]), int(cols[worst])), margin=margin
    )
