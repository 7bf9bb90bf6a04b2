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
  cost far less than a dense LU.  Selections spread over the whole
  index range fill in toward dense: at n = 2048 with 16 random cycles,
  the factors held 93-96x nnz (about 0.75 n^2), and the sparse
  factorization lost to a dense LU.  No caller produces such a
  selection; it is not guarded.
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

Both builders choose how to read B once, from A.  When A is exactly
Toeplitz (core.Toeplitz.of), B is never formed: all n cycle norms come
from one real FFT of the 2n - 1 diagonals and the entries the mask keeps
from two more (core.Toeplitz.cycle_norms and entries; the class
docstring gives the identity and its precision), so a build is
O(n log n).  The Toeplitz generators return A as a read-only view of its
diagonals, which Toeplitz.of reads in O(n) without a scan, so such an A
is never held or read as n x n at all.  The selection goes through the
one tie rule, sparse.selections_from_norms, and the norms of
reflection partners j and n - j of a Toeplitz B tie bit for bit.  Every
other A is transformed once, O(n^2 log n), and the entries are gathered
from B.  MaskPreconditioner.source names the route ("toeplitz-diagonals"
or "transform").

The solver is plain left-preconditioned conjugate gradient for Hermitian
positive definite systems with x0 = 0.  Iteration counts are sensitive
to residual bookkeeping, so the policy is fixed: the recurrence residual
is replaced by the true residual b - A x every 50 iterations, and
convergence is declared on |r| / |b| < tol right after the x update.

The product A x takes one of two routes, chosen from A itself.  When A
is exactly Toeplitz (core.Toeplitz.of: the generators' layout is
Toeplitz by construction, any other array has every entry equal to its
down-right neighbour, checked in 32-row blocks), it goes through the
circulant embedding of size 2n, O(n log n), and the Hermitian check
through the 2n - 1 diagonals, O(n) (core.Toeplitz.matvec and
hermitian_defect).  Every other A, including a Toeplitz matrix perturbed
by one ulp, takes the dense product a @ x and core.hermitian_defect; a
real A (the block_toeplitz generator's float64) as a @ Re x + i a @ Im x,
so nothing of size n x n is allocated per product.  The report names the
route that ran ("toeplitz-fft" or "dense").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.sparse

from .core import (
    ConfigError,
    CycleSelection,
    NumericalError,
    Toeplitz,
    cycle_norms,
    cycle_positions,
    hermitian_defect,
    require_square,
)
from .sparse import SparseCycleMatrix, selections_from_norms
from .transform import similarity_transform

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
    and its sign is the certificate (certified).  S is Hermitian to
    roundoff, so the pivots are real to roundoff and their real parts are
    read.  A zero diagonal pivot makes SuperLU pivot off the diagonal
    (perm_r != perm_c); S is then not PD and min_pivot reads 0.0.  Any
    other S keeps SuperLU's default column ordering and partial pivoting,
    and min_pivot is None: nothing is certified.

    build_cycle_preconditioner records two more facts on its mask,
    tapered and dropped: whether S was tapered and how many cycles the
    taper removed; a mask built otherwise keeps False and 0.
    source names the route that read S out of B: "toeplitz-diagonals"
    (closed form from A's 2n - 1 diagonals) or "transform" (B formed
    densely); None for a mask the caller built.
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


def _cycle_source(a: np.ndarray):
    """(source, norms, entries) through which the builders read B = W A W*.

    norms() returns all n cycle norms of B and entries(rows, cols) B's
    entries at those positions.  An exactly Toeplitz A takes both from its
    diagonals in O(n log n) and B is never formed; any other A is
    transformed once.
    """
    toeplitz = Toeplitz.of(a)
    if toeplitz is not None:
        return "toeplitz-diagonals", toeplitz.cycle_norms, toeplitz.entries
    b = similarity_transform(a)
    return "transform", partial(cycle_norms, b), lambda rows, cols: b[rows, cols]


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
    a = require_square(a)
    n = a.shape[0]
    if not 1 <= k_cycles <= n:
        raise ValueError(f"cycle count {k_cycles} out of range [1, {n}]")
    source, norms, entries = _cycle_source(a)
    sel = selections_from_norms(norms(), [k_cycles])[0]
    s = SparseCycleMatrix(n, sel, entries(*cycle_positions(n, sel.indices)))
    label = f"cycle preconditioner with cycles {sel.indices}"
    m = MaskPreconditioner(s.to_scipy(), label, source=source)
    if m.min_pivot is not None and not m.certified:
        m = None  # the rejected factor goes before the second is made
        tau = taper_weights(sel)
        keep = tau > 0
        cycles = s.cycles[keep]
        cycles *= tau[keep, None]
        s = SparseCycleMatrix(n, CycleSelection(n, sel.as_array()[keep]), cycles)
        m = MaskPreconditioner(s.to_scipy(), f"tapered {label}", source=source)
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
    a = require_square(a)
    n = a.shape[0]
    s = corner_block_side(n, nnz_budget)
    source, _, entries = _cycle_source(a)
    # the diagonal ahead of the corner, then the s x s corner row by row
    head, corner = np.arange(n - s), np.arange(n - s, n)
    rows = np.concatenate([head, np.repeat(corner, s)])
    cols = np.concatenate([head, np.tile(corner, s)])
    mask = scipy.sparse.csc_matrix((entries(rows, cols), (rows, cols)), shape=(n, n))
    label = f"corner-block preconditioner with corner side {s}"
    return MaskPreconditioner(mask, label, source=source)


@dataclass
class PcgReport:
    iterations: int
    relative_residuals: list[float]
    converged: bool
    tolerance: float
    matvec: str  # "toeplitz-fft" or "dense", the route A x took


def _dense_matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a @ x for complex x.  A real a takes two real products, since a @ x
    would cast a to a complex copy of n^2 entries on every call."""
    if np.iscomplexobj(a):
        return a @ x
    return a @ x.real + 1j * (a @ x.imag)


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
    not > 0, nan included, raises NumericalError.  Hermitian symmetry (a
    nan defect fails it) and a finite tol > 0 are checked up front and
    raise ConfigError.  A non-finite b raises NumericalError before any
    product, and so does a residual that turns non-finite, at that
    iteration, so no nan or inf comes back as a result.  An exactly
    Toeplitz A is applied through its circulant embedding (see the module
    docstring); the report's matvec names the route.
    """
    if not 0 < tol < np.inf:  # also rejects nan
        raise ConfigError(f"tolerance must be finite and > 0, got {tol}")
    a = require_square(a)
    n = a.shape[0]
    b = np.asarray(b, dtype=np.complex128).ravel()
    if b.size != n:
        raise ValueError(f"rhs has length {b.size}, matrix has n={n}")
    toeplitz = Toeplitz.of(a)
    if toeplitz is None:
        route, matvec, defect = "dense", partial(_dense_matvec, a), hermitian_defect(a)
    else:
        route, matvec, defect = "toeplitz-fft", toeplitz.matvec, toeplitz.hermitian_defect()
    if not defect <= HERMITIAN_TOL:  # also rejects a nan defect
        raise ConfigError("matrix is not Hermitian to working tolerance")
    if max_iter is None:
        max_iter = max(10 * n, 100)

    x = np.zeros(n, dtype=np.complex128)
    nb = np.linalg.norm(b)
    if not np.isfinite(nb):
        raise NumericalError(f"rhs norm is not finite: |b| = {nb:g}")
    residuals: list[float] = []
    if nb == 0:
        return x, PcgReport(0, residuals, True, tol, route)

    r = b.copy()
    z = m.apply(r) if m is not None else r.copy()
    p = z.copy()
    rho = np.vdot(r, z)
    it = 0
    converged = False
    while it < max_iter:
        ap = matvec(p)
        denom = np.vdot(p, ap).real
        if not denom > 0:  # also stops at a nan
            raise NumericalError(f"conjugate gradient breakdown at iteration {it}: p*Ap = {denom:g}")
        alpha = rho / denom
        x += alpha * p
        it += 1
        if it % 50 == 0:
            r = b - matvec(x)
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
    return x, PcgReport(it, residuals, converged, tol, route)
