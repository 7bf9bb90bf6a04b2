"""Fourier-mask preconditioners and the conjugate gradient harness.

A preconditioner masks B = W A W* down to a sparse pattern S and
conjugates the masked inverse back: M^{-1} v = W* S^{-1} W v.  One class,
MaskPreconditioner, serves every mask: S is factored once as a sparse
matrix by SuperLU, so each application is one FFT pair plus a sparse
triangular solve and nothing of size n x n is ever formed.  Two masks
are built here:

* Cycle mask: S keeps the k dominant cycles of B, k n nonzeros
  (SparseCycleMatrix.to_scipy()).  Fill stays small for the selections
  the generators produce, coset bands (L, w) (core.CycleSelection) that
  are near-diagonal, L = 1 ({0, 1, n-1}, {0, 1, 2, n-2, n-1}), or
  subgroups, w = 0 ({0, n/m, 2n/m, ...}): at n = 1000-2048 and k <= 16,
  the LU factors held 1.1-3.3x the nnz of S, so factoring and solving
  ran 20-1200x faster than a dense LU.  Selections spread over the whole
  index range fill in toward dense: at n = 2048 with 16 random cycles,
  the factors held 93-96x nnz (about 0.75 n^2), and the sparse
  factorization took 1.4-1.7 s against 0.41 s for a dense LU.  No caller
  produces such a selection; it is not guarded.
* Corner-block mask (T. Chan style): S keeps the full diagonal plus a
  dense s x s bottom-right corner, s maximal under the nonzero budget
  (n - s) + s^2.  At s = 1 the two coincide (single dominant cycle of a
  Toeplitz transform is the diagonal).  The builder reads just those
  n - s + s^2 entries of B.

PCG needs its preconditioner Hermitian positive definite, and every
Hermitian mask is certified PD, or not, from the pivots of its own
factor (MaskPreconditioner).  An untapered cycle mask is a Strang-like
truncation of B and can be indefinite: Example 1's bands {0, +-1, ...,
+-w}, coset bands (L, w) = (1, w) in the notation of core.CycleSelection,
are, for every k > 1 (n = 2048, k = 3: three negative pivots, the
smallest -3.9e-3), and at n = 2048 they took 46, 45, 47 and 52
iterations at k = 3, 5, 9 and 17 against 31 at k = 1.  A cycle mask its
pivots reject is tapered over its inner coset band
(build_cycle_preconditioner, taper_weights), the analogue of T. Chan's
Fejer mean over Strang's Dirichlet truncation (Chan & Ng, SIAM Review
1996) and of covariance tapering (Furrer, Genton & Nychka, JCGS 2006).
Example 1 at n = 2048 then takes 31, 29, 27, 25 and 21 iterations (the
tapered k = 3 mask's smallest pivot is +6.4e-4), and its k = 3 solve at
n = 65536 converges in 133 instead of stalling.  A certified mask is
kept as it is: block_toeplitz's untapered masks at n = 1000, m = 5
(seeds 0-2, k <= 17) certify, and tapering them anyway cost iterations
(seed 1: 72 -> 80 at k = 3, 33 -> 40 at k = 17).  Smaller block
matrices can have indefinite masks, and there the taper costs a few
iterations: 16 -> 17 at k = 15-17 (n = 200, m = 5, seed 1), 23 -> 25 and
19 -> 20 at k = 9 and 17 (n = 40, m = 4, seed 3).

Both builders and pcg_solve read A through one reader, transform.read,
whose docstring gives its routes, and never ask which kind it got.  An
exactly Toeplitz A is answered from its 2n - 1 diagonals, so a build or
a product is O(n log n) and the Toeplitz generators' A, a read-only view
of its diagonals, is never read as n x n; any other A is read from its
entries, and B is formed only for the corner block's.  The selection
goes through the one tie rule, sparse.selections_from_norms.
MaskPreconditioner.source and PcgReport.matvec carry the reader's
route, "toeplitz" or "dense".  Measured on a 2-core Intel Xeon VM with
one BLAS thread: Example 1's k = 1, k = 3 and 3n corner-block builds at
n = 2048 took 1.6, 3.6 and 2.2 ms from the diagonals against 226, 233
and 155 ms through the transform, and cspc precond-table --n 2000
--budgets n,3n,5n 1.9 s against 10.9 s with the dense product, at the
same iteration counts; at n = 65536 the k = 1, k = 3 and 3n builds and
solves stay within a 31 MB tracemalloc peak.  A dense cycle build
(block_toeplitz, m = 4, symmetric, make_pd, seed 1, k = 1, 3, 9) took
10.5-13.9 ms at n = 1024 and 62-74 ms at n = 2048 in a tracemalloc peak
of at most 1.4 MB, where forming B took 15-17 ms and 107-141 ms in
17-69 MB, with the same selections.

The solver is plain left-preconditioned conjugate gradient for Hermitian
positive definite systems with x0 = 0.  Iteration counts are sensitive
to residual bookkeeping, so the policy is fixed: the recurrence residual
is replaced by the true residual b - A x every 50 iterations, and
convergence is declared on |r| / |b| < tol right after the x update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ConfigError, CycleSelection, NumericalError
from .sparse import SparseCycleMatrix, selections_from_norms
from .transform import read

__all__ = [
    "MaskPreconditioner",
    "PcgReport",
    "build_cycle_preconditioner",
    "build_tchan_preconditioner",
    "pcg_solve",
]

# relative Frobenius defect up to which A (pcg_solve) and a mask
# (MaskPreconditioner) count as Hermitian
HERMITIAN_TOL = 1e-10
# SuperLU options for a Hermitian mask: a symmetric fill ordering, and the
# diagonal as pivot whenever it is nonzero.  Panels of 4 columns instead of
# SuperLU's 10 factor the sparse masks here up to 2x faster (n = 2048,
# k = 3: 1.2 -> 0.7 ms) and no mask measured slower, dense corners included
_SYMMETRIC_MODE = dict(
    permc_spec="MMD_AT_PLUS_A",
    diag_pivot_thresh=0.0,
    panel_size=4,
    options=dict(SymmetricMode=True),
)


class MaskPreconditioner:
    """Applies the inverse of W* S W for a sparse mask S of B = W A W*.

    S (scipy sparse, CSC) is factored once by SuperLU; each apply is fft,
    two sparse triangular solves and ifft.  A factor that SuperLU reports
    exactly singular, or whose smallest U pivot is negligible next to its
    largest, raises NumericalError("<label> is singular").

    A Hermitian S (|S - S*|_F <= 1e-10 |S|_F, read from its own entries
    in O(nnz)) is factored in SuperLU's symmetric mode: a symmetric fill
    ordering and the diagonal taken as pivot whenever it is nonzero, so
    P S P^T = L D L* with D the diagonal of U.  By Sylvester's law of
    inertia S is positive definite exactly when every pivot is positive;
    min_pivot is the smallest one, at least lambda_min(S) when S is PD,
    and its sign is the certificate (certified), read from the factor
    the build needs anyway, so no eigensolve runs.  It is the one
    definiteness measure a mask carries: the weaker
    sparse.pd_sufficient_check reads -3.2e-4 on Example 1's tapered k = 3
    mask at n = 2048, which the pivots certify.  S is Hermitian to
    roundoff, so the pivots are real to roundoff and their real parts are
    read.  A zero diagonal pivot makes SuperLU pivot off the diagonal
    (perm_r != perm_c); S is then not PD and min_pivot reads 0.0.  Any
    other S keeps SuperLU's default column ordering and partial pivoting,
    and min_pivot is None: nothing is certified.

    build_cycle_preconditioner records two more facts on its mask,
    tapered and dropped: whether S was tapered and how many cycles the
    taper removed; a mask built otherwise keeps False and 0.
    source is the route of the reader (transform.read) that read S out of
    B, "toeplitz" or "dense"; None for a mask the caller built.
    """

    tapered = False
    dropped = 0

    def __init__(self, mask, label: str, source: str | None = None):
        self.nnz = mask.nnz
        self.source = source
        singular = f"{label} is singular"
        import scipy.sparse.linalg  # on first use: it loads scipy.linalg, which nothing else needs

        hermitian = _is_hermitian(mask)
        try:
            self._lu = scipy.sparse.linalg.splu(mask, **(_SYMMETRIC_MODE if hermitian else {}))
        except RuntimeError as e:
            if "singular" not in str(e):  # SuperLU: "Factor is exactly singular"
                raise
            raise NumericalError(singular) from e
        pivots = self._lu.U.diagonal()
        d = np.abs(pivots)
        if d.size and d.min() <= d.max() * np.finfo(float).eps * d.size:
            raise NumericalError(singular)
        self.min_pivot = None
        if hermitian:
            on_diagonal = np.array_equal(self._lu.perm_r, self._lu.perm_c)
            self.min_pivot = float(pivots.real.min()) if on_diagonal else 0.0

    @property
    def certified(self) -> bool:
        """S is Hermitian and its pivots show it positive definite."""
        return self.min_pivot is not None and self.min_pivot > 0

    def apply(self, v: np.ndarray) -> np.ndarray:
        return np.fft.ifft(self._lu.solve(np.fft.fft(v)))


def _is_hermitian(mask) -> bool:
    """|S - S*|_F <= HERMITIAN_TOL |S|_F for a CSC mask in canonical form.

    S^T in CSC stores, position for position, the mirror of each stored
    entry of S when the two share a sparsity pattern, so the check is one
    O(nnz) conversion and one subtraction in place; a pattern that is not
    symmetric counts as not Hermitian.
    """
    mirror = mask.T.tocsc()
    if not (
        np.array_equal(mirror.indptr, mask.indptr) and np.array_equal(mirror.indices, mask.indices)
    ):
        return False
    diff = np.subtract(np.conjugate(mirror.data, out=mirror.data), mask.data, out=mirror.data)
    return bool(np.linalg.norm(diff) <= HERMITIAN_TOL * np.linalg.norm(mask.data))


def taper_weights(sel: CycleSelection) -> np.ndarray:
    """Weights tau_d >= 0, one per cycle d of the selection, with tau_0 = 1
    and fft(tau) >= 0, so S o T is PD for every PD S.

    tau_d = |H n (H + d)| / |H|, the normalised autocorrelation of H = G +
    {0, ..., w} for the selection's inner coset band (L, w)
    (CycleSelection.coset_band): H - H is the band G + {-w, ..., w}, inside
    the selection, and tau_d > 0 exactly on it, so the band with the most
    cycles keeps the most.  H repeats with period g = n / L, and with r = d
    mod g, in integers up to the one division,

        tau_d = (max(0, w + 1 - r) + max(0, w + 1 - (g - r))) / (w + 1).

    A wrapped band (L = 1) gives the Fejer weights 1 - min(d, n - d) / (w +
    1), a subgroup (w = 0) tau = 1 throughout, a coset band a periodised
    Fejer.  Cycles outside the band get tau = 0.  A selection without cycle
    0 has no band: all zero.
    """
    band = sel.coset_band()
    if band is None:
        return np.zeros(len(sel))
    L, w = band
    g = sel.n // L
    r = sel.as_array() % g
    return (np.maximum(0, w + 1 - r) + np.maximum(0, w + 1 - (g - r))) / (w + 1)


def build_cycle_preconditioner(a, k_cycles: int) -> MaskPreconditioner:
    """Preconditioner on the k dominant cycles of B = W A W*.

    A Hermitian mask that its own pivots do not certify positive definite
    is tapered, S o T with cycle d scaled by taper_weights' tau_d (cycles
    with tau_d = 0 drop out), and factored again.  For HPD A, B is HPD and
    the tapered mask is PD by the Schur product theorem; if its pivots
    still do not certify it, NumericalError is raised.  Cycle 0 is never
    scaled, so k = 1 (T. Chan's circulant) is never tapered, nor is a mask
    the pivots already certify.
    """
    reader = read(a)
    n = reader.n
    if not 1 <= k_cycles <= n:
        raise ValueError(f"cycle count {k_cycles} out of range [1, {n}]")
    sel = selections_from_norms(reader.cycle_norms(), [k_cycles])[0]
    s = SparseCycleMatrix(n, sel, reader.cycles(sel.indices))
    label = f"cycle preconditioner with cycles {sel.indices}"
    m = MaskPreconditioner(s.to_scipy(), label, source=reader.route)
    if m.min_pivot is not None and not m.certified:
        m = None  # the rejected factor goes before the second is made
        tau = taper_weights(sel)
        keep = tau > 0
        cycles = s.cycles[keep]
        cycles *= tau[keep, None]
        s = SparseCycleMatrix(n, CycleSelection(n, sel.as_array()[keep]), cycles)
        m = MaskPreconditioner(s.to_scipy(), f"tapered {label}", source=reader.route)
        if not m.certified:
            raise NumericalError(
                f"{label} is not positive definite, tapered or not: "
                f"smallest pivot {m.min_pivot:g}"
            )
        m.tapered, m.dropped = True, int(keep.size - np.count_nonzero(keep))
    return m


def corner_block_side(n: int, nnz_budget: int) -> int:
    """Largest s with (n - s) + s^2 within the budget; s = 1 at budget n."""
    if nnz_budget < n:
        raise ConfigError(f"budget {nnz_budget} below dimension {n}")
    # the largest s with s (s - 1) <= budget - n, in exact integers; s >= 1
    return min((1 + math.isqrt(1 + 4 * (nnz_budget - n))) // 2, n)


def build_tchan_preconditioner(a, nnz_budget: int) -> MaskPreconditioner:
    import scipy.sparse  # on first use, as in SparseCycleMatrix.to_scipy

    reader = read(a)
    n = reader.n
    s = corner_block_side(n, nnz_budget)
    # the diagonal ahead of the corner, then the s x s corner row by row
    head, corner = np.arange(n - s), np.arange(n - s, n)
    rows = np.concatenate([head, np.repeat(corner, s)])
    cols = np.concatenate([head, np.tile(corner, s)])
    mask = scipy.sparse.csc_matrix((reader.entries(rows, cols), (rows, cols)), shape=(n, n))
    label = f"corner-block preconditioner with corner side {s}"
    return MaskPreconditioner(mask, label, source=reader.route)


@dataclass
class PcgReport:
    iterations: int
    relative_residuals: list[float]
    converged: bool
    tolerance: float
    matvec: str  # the route of A's reader (transform.read), "toeplitz" or "dense"


def pcg_solve(
    a,
    b,
    m=None,
    tol: float = 1e-6,
    max_iter: int | None = None,
) -> tuple[np.ndarray, PcgReport]:
    """Left-preconditioned conjugate gradient for Hermitian PD systems.

    m is any object with an apply(v) method (or None for no
    preconditioning).  Returns the solution and a report with the
    per-iteration relative residuals |b - A x| / |b|.  Definiteness is
    only checked along the way: a search direction whose Re(p* A p) is
    not > 0, nan included, raises NumericalError.  Hermitian symmetry and
    a finite tol > 0 are checked up front and raise ConfigError; an A
    holding nan or inf raises NumericalError there instead (its reader's
    hermitian_defect).  A non-finite b raises NumericalError before any
    product, and so does a residual that turns non-finite, at that
    iteration, so no nan or inf comes back as a result.  A x is the
    reader's matvec (transform.read); the report's matvec names its route.
    """
    if not 0 < tol < np.inf:  # also rejects nan
        raise ConfigError(f"tolerance must be finite and > 0, got {tol}")
    reader = read(a)
    n = reader.n
    b = np.asarray(b, dtype=np.complex128).ravel()
    if b.size != n:
        raise ValueError(f"rhs has length {b.size}, matrix has n={n}")
    if not reader.hermitian_defect() <= HERMITIAN_TOL:
        raise ConfigError("matrix is not Hermitian to working tolerance")
    if max_iter is None:
        max_iter = max(10 * n, 100)

    x = np.zeros(n, dtype=np.complex128)
    nb = np.linalg.norm(b)
    if not np.isfinite(nb):
        raise NumericalError(f"rhs norm is not finite: |b| = {nb:g}")
    residuals: list[float] = []
    if nb == 0:
        return x, PcgReport(0, residuals, True, tol, reader.route)

    r = b.copy()
    z = m.apply(r) if m is not None else r.copy()
    p = z.copy()
    rho = np.vdot(r, z)
    it = 0
    converged = False
    while it < max_iter:
        ap = reader.matvec(p)
        denom = np.vdot(p, ap).real
        if not denom > 0:  # also stops at a nan
            raise NumericalError(f"conjugate gradient breakdown at iteration {it}: p*Ap = {denom:g}")
        alpha = rho / denom
        x += alpha * p
        it += 1
        if it % 50 == 0:
            r = b - reader.matvec(x)
        else:
            r = r - alpha * ap
        rel = np.linalg.norm(r) / nb
        if not np.isfinite(rel):
            raise NumericalError(f"conjugate gradient residual at iteration {it} is {rel:g}")
        residuals.append(float(rel))
        if rel < tol:
            converged = True
            break
        z = m.apply(r) if m is not None else r.copy()
        rho_new = np.vdot(r, z)
        beta = rho_new / rho
        rho = rho_new
        p = z + beta * p
    return x, PcgReport(it, residuals, converged, tol, reader.route)
