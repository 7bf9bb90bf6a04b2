"""Cycle selection, sparsification, spectra and their error bounds, plus
the entry-magnitude sparsifier used as a baseline.

The pipeline: transform A, keep the k cycles of B = W A W* with the
largest l2 norm, and treat the rest as the perturbation Delta.  Because
distinct cycles are orthogonal slices of the matrix, norm bookkeeping is
exact: |B|_F^2 = |B~|_F^2 + |Delta|_F^2.

B~ has two forms.  SparseCycleMatrix (sparsify) holds the kept cycles,
k * n values, and is what the preconditioners factor (to_scipy) and the
PD check reads; its densify serves bauer_fike_bound.  For an eigensolve
B~ is B masked in place, core.keep_cycles, and the approximate spectrum
is cycle_spectrum(b, sel), spectrum(keep_cycles(b, sel.indices)) to
roundoff.

Six rules keep Hermitian problems Hermitian, real problems real, large
problems halved or in blocks and their statistics well defined:

* Selection never splits a tied reflection pair.  For Hermitian B the
  cycles j and n - j have equal norms, and a top-k cut that kept one
  without the other would give a non-Hermitian B~; such a cut keeps k - 1
  cycles instead, so |S| <= k and the nnz budget holds.
* spectrum() is the one eigenvalue entry point for a dense matrix and
  cycle_spectrum() the one for B~.  Both test their matrix Hermitian to
  n * eps relative and end in one solve step, _eigenvalues, whose
  docstring is the contract they keep: the solver, the dtype and order
  of the values, the failure and the count.
* cycle_spectrum() is routed by the outer coset envelope (L, w) of the
  selection: when w = 0 and g = n / L >= 4, B~ is g independent L x L
  blocks, gathered from the kept cycles and solved as one batched
  stack; everything else is spectrum(keep_cycles(b, sel.indices)).
* spectrum() solves in real arithmetic whenever the matrix has a real
  form: its real part when Im m is zero, or Q* m Q when conj(m) = P m P
  for the index reflection P (to n * eps relative), as holds for
  B = W A W* of a real A and every reflection-closed B~ of it.
* spectrum() splits a real symmetric problem in half when the reflection
  that goes with its real form block-diagonalizes it: J (t <-> n - 1 - t)
  for m.real, and G = H J H = cos(theta_q) P - diag(sin(theta_q)),
  theta_q = 2 pi q / n, for Re m - Im m P, which equals H m~ H for the
  Hartley matrix H = Re W - Im W and m~ = W* m W.  Both swap index pairs,
  so the halves cost O(n^2), and an off-diagonal block at most
  n * eps * |M|_F certifies them (Weyl); otherwise M is solved whole.
  32 columns of that block, checked first against twice the bound, turn
  most such M away before V^T M V is formed (_strip_exceeds).
* Two real spectra (to roundoff) are matched by sorting both, the
  canonical matching that minimizes the total |lambda - lambda~|;
  complex spectra go through an optimal assignment.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .core import (
    CycleSelection,
    NumericalError,
    _mirror_defect,
    apply_cycle_mask,
    cycle_norms,
    cycle_positions,
    hermitian_defect,
    is_real,
    keep_cycles,
    reflect_columns,
    reflection_defect,
    require_square,
)

__all__ = [
    "SparseCycleMatrix",
    "EigenApproxResult",
    "BauerFikeBound",
    "PdCheckReport",
    "select_dominant_cycles",
    "selections_from_norms",
    "sparsify",
    "direct_sparsify",
    "spectrum",
    "cycle_spectrum",
    "eigen_error_report",
    "bauer_fike_bound",
    "pd_sufficient_check",
]

# eigenvalues smaller than this are excluded from relative-error statistics
RELATIVE_ERROR_FLOOR = 1e-14
_STRIP_COLUMNS = 32  # columns of the off-diagonal block _strip_exceeds reads


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

    def to_scipy(self):
        """The same matrix as a scipy.sparse.csc_matrix, nnz entries.

        Equal to densify() entry for entry: cycles partition the
        positions, so no two stored values land on one entry.
        """
        import scipy.sparse  # on first use: only the preconditioners factor B~

        rows, cols = cycle_positions(self.n, self.selection.indices)
        return scipy.sparse.csc_matrix(
            (self.cycles.ravel(), (rows.ravel(), cols.ravel())), shape=(self.n, self.n)
        )

    def frobenius_norm(self) -> float:
        return float(np.linalg.norm(self.cycles))


def selections_from_norms(norms: np.ndarray, ks) -> list[CycleSelection]:
    """For each k in ks, the at most k dominant cycles of a matrix whose
    n cycle l2 norms are given.

    The cycles are ranked by norm, largest first.  Norms within
    n * eps * max(norms) count as tied (for a Hermitian matrix, cycles j
    and n - j tie in exact arithmetic, not in roundoff).  Within a tie,
    reflection partners j and n - j come next to each other, pairs in
    order of min(j, n - j), the smaller index first.  Each selection is
    the first k of that ranking, or the first k - 1 when that prefix would
    keep a cycle and drop its tied reflection partner.  So |S| <= k, the
    selections for growing k are nested, and for a Hermitian b (where
    every pair ties) S is closed under j -> n - j and sparsify(b, S) is
    Hermitian.  The one exception is k = 1 with a tied pair in the lead,
    where the leading cycle is kept alone rather than selecting nothing.
    """
    n = norms.size
    ks = [int(k) for k in ks]
    for k in ks:
        if not 1 <= k <= n:
            raise ValueError(f"cycle count {k} out of range [1, {n}]")
    tol = n * np.finfo(float).eps * norms.max()
    by_norm = np.argsort(-norms, kind="stable")
    # consecutive norms (in descending order) closer than tol share a group
    group = np.cumsum(np.r_[0, np.diff(norms[by_norm]) < -tol])
    # within a group, partners j and n - j sit side by side, lower index first
    perm = np.lexsort((by_norm, np.minimum(by_norm, n - by_norm), group))
    order, group = by_norm[perm], group[perm]
    # splits[k]: order[:k] ends between the two cycles of a tied pair
    splits = np.zeros(n + 1, dtype=bool)
    splits[1:n] = (order[1:] == n - order[:-1]) & (group[1:] == group[:-1])
    return [CycleSelection.of(n, order[: k - 1 if splits[k] and k > 1 else k]) for k in ks]


def select_dominant_cycles(b, k: int) -> CycleSelection:
    """Indices of at most k cycles of b with the largest l2 norm, by the
    ranking and tie rule of selections_from_norms."""
    return selections_from_norms(cycle_norms(b), [k])[0]


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


def _real_form(m: np.ndarray) -> tuple[np.ndarray, bool] | None:
    """The real matrix spectrum() solves in place of m, and whether it was
    taken through the index reflection; None when m has no real form."""
    if is_real(m):
        return m.real, False
    n = m.shape[0]
    if reflection_defect(m) > n * np.finfo(float).eps:
        return None
    out = reflect_columns(m.imag, np.empty((n, n)))
    return np.subtract(m.real, out, out=out), True


def _pair_rows(x: np.ndarray, first: int, c, s, out: np.ndarray, tmp: np.ndarray) -> None:
    """out = V^T x for the pair reflection of _halves: the n - n // 2 rows
    of V+^T x, then the n // 2 rows of V-^T x.

    Index first + t pairs with n - 1 - t for t < p: the pair's + row is
    c_t x[first + t] + s_t x[n - 1 - t] and its - row c_t x[n - 1 - t] -
    s_t x[first + t], with c and s of shape (p, 1), or scalars, and tmp
    a p x n scratch array.  Rows below first are + rows as they are, and
    the middle row left over when n - first is odd is a + row when
    first = 0, a - row otherwise.
    """
    n = x.shape[0]
    p = (n - first) // 2
    lo, hi = x[first : first + p], x[n - 1 : n - 1 - p : -1]
    plus, minus = out[: n - n // 2], out[n - n // 2 :]
    plus[:first] = x[:first]
    np.multiply(lo, c, out=plus[first : first + p])
    plus[first : first + p] += np.multiply(hi, s, out=tmp)
    np.multiply(hi, c, out=minus[:p])
    minus[:p] -= np.multiply(lo, s, out=tmp)
    if first + 2 * p < n:
        (minus if first else plus)[-1] = x[first + p]


def _strip_exceeds(m: np.ndarray, first: int, c, s) -> bool:
    """Whether t = min(32, p) columns of the off-diagonal block V+^T m V-
    of V^T m V already exceed 2 n eps |m|_F, p the number of index pairs
    (_pair_rows gives first, c and s); False when t = p.

    The columns are V+^T m v_i for the first t columns of V-, v_i =
    c_i e_{n-1-i} - s_i e_{first+i}, read from 2t columns of m in O(t n).
    In exact arithmetic they are t rows of _halves' off-diagonal block,
    transposed, and |V^T m V|_F = |m|_F, so a strip above twice the bound
    puts the whole block above it: the factor 2 covers the roundoff of
    both sides, and the prescreen never changes _halves' answer.
    """
    n = m.shape[0]
    p = (n - first) // 2
    t = min(p, _STRIP_COLUMNS)
    if t == p:  # no cheaper than the whole block
        return False
    i = np.arange(t)
    c_t, s_t = (c[:t, 0], s[:t, 0]) if np.ndim(c) else (c, s)
    mv = m[:, n - 1 - i] * c_t - m[:, first + i] * s_t
    out = np.empty((n, t))
    _pair_rows(mv, first, c, s, out, np.empty((p, t)))
    # |m|_F from row dot products: np.linalg.norm would copy a strided m
    bound = 2 * n * np.finfo(float).eps * np.sqrt(np.vecdot(m, m).sum())
    return bool(np.linalg.norm(out[: n - n // 2]) > bound)


def _halves(m: np.ndarray, reflected: bool) -> tuple[np.ndarray, np.ndarray] | None:
    """The two diagonal blocks of V^T m V, for the real symmetric m and the
    pair reflection its real form commutes with, or None when the
    off-diagonal block exceeds n * eps * |m|_F.

    V = [V+ V-] holds the +1 and -1 eigenvectors of a symmetric
    reflection that swaps index pairs, each pair's +1 vector (cos phi,
    sin phi) and -1 vector (-sin phi, cos phi), so an m that commutes with
    it is block diagonal in that basis:

    * m.real of an m with Im m zero: J, the reversal t -> n - 1 - t, pairs
      (t, n - 1 - t) at phi = pi / 4, the middle index of odd n in + (the
      centrosymmetric split of Cantoni & Butler, LAA 13, 1976).
    * Re m - Im m P: G = H J H = cos(theta_q) P - diag(sin(theta_q)),
      theta_q = 2 pi q / n and H the Hartley matrix, since that real form
      is H m~ H for m~ = W* m W.  Pairs (q, n - q) at phi = pi / 4 +
      pi q / n; q = 0 is in + and, for even n, q = n / 2 in -.

    Both stages combine rows, in O(n^2) through slices and with no index
    array: V^T m, then V^T (V^T m)^T after one transposing copy, so the
    blocks are those of V^T m^T V, the same as V^T m V's for symmetric m.
    A matrix that does not split (eig-vs-n's never do) is mostly turned
    away first by _strip_exceeds, one O(n^2) norm and O(32 n) beside it.
    """
    n = m.shape[0]
    first = int(reflected)
    if reflected:
        phi = np.pi / 4 + (np.pi / n) * np.arange(1, (n - 1) // 2 + 1)[:, None]
        c, s = np.cos(phi), np.sin(phi)
    else:
        c = s = np.sqrt(0.5)
    if _strip_exceeds(m, first, c, s):
        return None
    vmv, tmp = np.empty((n, n)), np.empty(((n - first) // 2, n))
    _pair_rows(m, first, c, s, vmv, tmp)
    _pair_rows(vmv.T.copy(), first, c, s, vmv, tmp)
    k = n - n // 2
    if np.linalg.norm(vmv[k:, :k]) > n * np.finfo(float).eps * np.linalg.norm(vmv):
        return None
    return vmv[:k, :k], vmv[k:, k:]


def _eigenvalues(blocks, hermitian: bool, solvers: Counter | None) -> np.ndarray:
    """All eigenvalues of the independent square blocks, together: the
    one solve step of spectrum and cycle_spectrum, and the contract both
    keep.

    The blocks are one matrix, the two halves of a split or a (g, L, L)
    coset stack, each solved as one (batched) call.  Hermitian blocks
    go to np.linalg.eigvalsh (which reads one triangle), and their
    eigenvalues come back as one real array in ascending order; others
    go to np.linalg.eigvals, and come back as one complex128 array.  A
    solver that fails to converge raises NumericalError.  When solvers
    is given, it counts the solver that ran, "eigvalsh" or "eigvals",
    once per call.
    """
    solve = np.linalg.eigvalsh if hermitian else np.linalg.eigvals
    try:
        values = np.concatenate([solve(m).ravel() for m in blocks])
    except np.linalg.LinAlgError as e:
        raise NumericalError(f"eigensolver failed to converge: {e}") from e
    if solvers is not None:
        solvers["eigvalsh" if hermitian else "eigvals"] += 1
    # numpy returns float64 when a real matrix has only real eigenvalues
    return np.sort(values) if hermitian else values.astype(np.complex128, copy=False)


def spectrum(m, solvers: Counter | None = None) -> np.ndarray:
    """All n eigenvalues of the dense square matrix m.

    The route depends on m alone.  First, when m has a real form (see
    below), the solver gets that real matrix in its place.  Then the
    matrix, or its two halves (below), go to the solve step
    _eigenvalues, Hermitian when hermitian_defect <= n * eps; its
    docstring is the contract: values, dtype, order, failure and solver
    count.  solvers, when given, also counts "real_form" when the matrix
    solved was real and "split" when it was solved in two halves.

    The real form is m.real when Im m is exactly zero.  Otherwise, if
    conj(m) = P m P to n * eps relative (core.reflection_defect), with P
    the index reflection p -> (-p) mod n, as holds for B = W A W* of a
    real A and for every reflection-closed cycle selection of it, m is
    similar to the real M = Q* m Q = Re(m) - Im(m) P through the unitary
    Q = (I + iP) / sqrt(2) (Lee, LAA 29, 1980; Hill, Bates & Waters,
    SIMAX 11, 1990): M[p, q] = Re m[p, q] - Im m[p, (-q) mod n], one
    column reflection and a subtraction.  M is symmetric when m is
    Hermitian.  Every other m is solved as it is, in complex arithmetic.

    A real symmetric M is then split in half through the pair reflection
    that goes with its real form (J for m.real, G for Re m - Im m P; see
    _halves).  When the off-diagonal block of V^T M V is at most
    n * eps * |M|_F, as it is when m (for G, W* m W) is centrosymmetric,
    eigvalsh runs on the two diagonal blocks, of sizes n - n // 2 and
    n // 2, and their merged, sorted eigenvalues are returned.  The block
    bounds the error of every eigenvalue (Weyl), so no structural guess
    is made; otherwise M is solved whole.  On eig-errors' symmetric
    Toeplitz input every matrix that reaches spectrum is Hermitian, real
    and split: at n = 256 the two halves take ~1.5 ms against ~3.2 ms for
    the whole real matrix and ~4.7 ms complex (one BLAS thread).
    """
    m = require_square(m)
    n = m.shape[0]
    real = _real_form(m)
    if real is not None:
        m, reflected = real
    hermitian = hermitian_defect(m) <= n * np.finfo(float).eps
    halves = _halves(m, reflected) if hermitian and real is not None else None
    values = _eigenvalues((m,) if halves is None else halves, hermitian, solvers)
    if solvers is not None:
        if real is not None:
            solvers["real_form"] += 1
        if halves is not None:
            solvers["split"] += 1
    return values


def cycle_spectrum(
    b, sel: CycleSelection, solvers: Counter | None = None, out: np.ndarray | None = None
) -> np.ndarray:
    """All n eigenvalues of b masked to the cycles sel, B~ =
    keep_cycles(b, sel.indices), under spectrum's contract: both routes
    end in the solve step _eigenvalues, Hermitian when B~ is to n * eps.

    The route comes from sel's outer coset envelope (L, w)
    (CycleSelection.coset_envelope, G the L multiples of g = n / L):

    * w = 0 and g >= 4, the coset route: B~[p, q] is zero unless p = q
      mod g, so B~ is g independent L x L blocks, one per coset r + g {0,
      ..., L - 1}, a permutation of its indices.  They are gathered from
      the kept cycles into a (g, L, L) stack, whose Hermitian defect
      (core's, each block against its own conjugate transpose) is B~'s,
      and solved as one batched call.  For L = 1 the eigenvalues are
      cycle 0.  Counted "coset".
    * Everything else: spectrum(keep_cycles(b, sel.indices, out), solvers),
      with out the n x n scratch array keep_cycles writes into.

    g complex blocks of L x L cost about 4 g L^3, the split dense route two
    real halves, n^3 / 4: against it (symmetric Toeplitz or block-Toeplitz,
    one BLAS thread) the coset route lost at g = 2 (4.3 against 3.6 ms at
    n = 256, 115 against 54 ms at n = 1000), was mixed at g = 3 (2.2
    against 3.4 ms at n = 258, 60 against 54 ms at n = 999) and won from
    g = 4 on (1.6 against 3.5 ms at n = 256, 43 against 58 ms at n =
    1000), so smaller g take the dense route.
    """
    b = require_square(b)
    n = b.shape[0]
    if sel.n != n:
        raise ValueError(f"selection is for n={sel.n}, matrix has n={n}")
    L, w = sel.coset_envelope()
    g = n // L
    if w or g < 4:
        return spectrum(keep_cycles(b, sel.indices, out), solvers)
    rows, cols = cycle_positions(n, sel.as_array())
    blocks = np.zeros((g, L, L), dtype=b.dtype)
    blocks[rows % g, rows // g, cols // g] = b[rows, cols]
    # core.hermitian_defect of the stack, each block against its own conjugate transpose
    defect = _mirror_defect(blocks, lambda r, buf: np.conjugate(blocks[r].mT, out=buf))
    values = _eigenvalues((blocks,), defect <= n * np.finfo(float).eps, solvers)
    if solvers is not None:
        solvers["coset"] += 1
    return values


@dataclass
class EigenApproxResult:
    approx_eigenvalues: np.ndarray
    reference_eigenvalues: np.ndarray | None
    matching: np.ndarray | None
    mean_relative_error: float
    std_relative_error: float
    n_excluded: int


def _is_real(values: np.ndarray) -> bool:
    """No imaginary part above roundoff, n * eps * max |lambda|."""
    roundoff = values.size * np.finfo(float).eps * np.abs(values).max(initial=0.0)
    return bool(np.abs(values.imag).max(initial=0.0) <= roundoff)


def _match_eigenvalues(reference: np.ndarray, approx: np.ndarray) -> np.ndarray:
    """matching[i] = index into approx paired with reference[i]: sorted
    order when both spectra are real, else the optimal assignment on
    |lambda - lambda~| (scipy's linear_sum_assignment) at every n."""
    matching = np.empty(len(reference), dtype=np.int64)
    if _is_real(reference) and _is_real(approx):
        # on the real line, pairing in sorted order minimizes the total
        # |lambda - lambda~| (and every convex cost of the differences)
        by_reference = np.argsort(reference.real, kind="stable")
        matching[by_reference] = np.argsort(approx.real, kind="stable")
    else:
        import scipy.optimize  # on first use: slow to import, and only complex spectra need it

        cost = np.abs(reference[:, None] - approx[None, :])
        rows, cols = scipy.optimize.linear_sum_assignment(cost)
        matching[rows] = cols
    return matching


def eigen_error_report(approx, reference) -> EigenApproxResult:
    """Match approximate to reference eigenvalues and report error stats.

    Matching pairs each reference eigenvalue with one approximate one.
    When both spectra are real (imaginary parts within n * eps * max
    |lambda|) it pairs them in sorted order of their real parts, which
    minimizes the total |lambda - lambda~| and does not depend on the
    order either spectrum comes in; otherwise it is the assignment that
    minimizes the total |lambda - lambda~| (linear_sum_assignment), at
    every n.
    Relative error per pair is |lambda - lambda~| / |lambda|; pairs with
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
