import contextlib
import io
import tracemalloc
from functools import partial

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

import cspc.precond

from cspc.cli import main
from cspc.core import (
    ConfigError,
    CycleSelection,
    NumericalError,
    Toeplitz,
    apply_cycle_mask,
    cycle_positions,
    fourier_matrix,
    hermitian_defect,
)
from cspc.generators import StructuredMatrixSpec, gen_example1, generate
from cspc.precond import (
    MaskPreconditioner,
    build_cycle_preconditioner,
    build_tchan_preconditioner,
    corner_block_side,
    pcg_solve,
    precond_benchmark,
    taper_weights,
)
from cspc.decomposition import circulant_dense
from cspc.sparse import SparseCycleMatrix, pd_sufficient_check, select_dominant_cycles, sparsify
from cspc.transform import inverse_similarity_transform, similarity_transform


# Each case returns a preconditioner and the dense mask S it should invert,
# the latter built independently of the preconditioner's own sparse mask.


def _cycle_case(a, k):
    m = build_cycle_preconditioner(a, k)
    b = similarity_transform(a)
    sel = select_dominant_cycles(b, k)
    return m, sel, sparsify(b, sel).densify()


def _example1_k1():
    a, _ = gen_example1(32)
    m, _, mask = _cycle_case(a, 1)
    return m, mask


def _example1_k3():
    a, _ = gen_example1(32)
    m, sel, mask = _cycle_case(a, 3)
    assert sel.indices == (0, 1, 31)  # wrapped corners
    return m, mask


def _block_toeplitz_coset():
    spec = StructuredMatrixSpec(kind="block_toeplitz", n=40, m=4, symmetric=True, make_pd=True, seed=3)
    a, _ = generate(spec)
    m, sel, mask = _cycle_case(a, 4)
    assert sel.indices == (0, 10, 20, 30)
    return m, mask


def _spread():
    n = 32
    rng = np.random.default_rng(3)
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) + 8 * np.eye(n)
    sp = sparsify(b, CycleSelection.of(n, [0, 3, 10, 17, 26]))
    return MaskPreconditioner(sp.to_scipy(), "spread"), sp.densify()


def _corner_block():
    n = 16
    a, _ = gen_example1(n)
    m = build_tchan_preconditioner(a, 3 * n)
    s = corner_block_side(n, 3 * n)
    b = similarity_transform(a)
    mask = np.zeros_like(b)
    head = np.arange(n - s)
    mask[head, head] = np.diag(b)[: n - s]
    mask[n - s :, n - s :] = b[n - s :, n - s :]
    assert m.nnz == (n - s) + s * s
    return m, mask


@pytest.mark.parametrize(
    "make",
    [_example1_k1, _example1_k3, _block_toeplitz_coset, _spread, _corner_block],
    ids=["example1-k1", "example1-k3", "block-toeplitz-coset", "spread", "corner-block"],
)
def test_cycle_preconditioner_inverts_its_own_matrix(make):
    m, mask = make()
    dense = inverse_similarity_transform(mask)
    n = mask.shape[0]
    rng = np.random.default_rng(0)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    assert np.allclose(m.apply(dense @ v), v, atol=1e-10)


def test_cycle_preconditioner_never_densifies(monkeypatch):
    def refuse(self):
        raise AssertionError("densify called")

    monkeypatch.setattr(SparseCycleMatrix, "densify", refuse)
    n = 4096
    rng = np.random.default_rng(4)
    sel = CycleSelection.of(n, [0, 1, n - 1])
    cycles = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
    cycles[0] += 8.0  # diagonally dominant, so S is invertible
    m = MaskPreconditioner(SparseCycleMatrix(n, sel, cycles).to_scipy(), "cycle preconditioner")
    # S y computed cycle by cycle, independent of the sparse format
    y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    s_y = np.zeros(n, dtype=complex)
    for k, c in zip(sel.indices, cycles):
        rows, cols = cycle_positions(n, k)
        s_y[rows] += c * y[cols]
    assert np.allclose(m.apply(np.fft.ifft(s_y)), np.fft.ifft(y), atol=1e-12)


def test_cycle_preconditioner_singular_raises():
    # the all-ones circulant transforms to diag(n, 0, ..., 0): exactly singular
    n = 8
    a = np.ones((n, n), dtype=complex)
    with pytest.raises(NumericalError, match="is singular"):
        build_cycle_preconditioner(a, 1)
    # a circulant with eigenvalue 1e-20 x max: the transform diagonal holds
    # it at roundoff level, a tiny pivot rather than an exact zero
    lam = np.arange(1.0, n + 1)
    lam[3] = 1e-20 * lam.max()
    w = fourier_matrix(n)
    a = w.conj().T @ np.diag(lam) @ w
    with pytest.raises(NumericalError, match="is singular"):
        build_cycle_preconditioner(a, 1)


def test_build_cycle_preconditioner_range():
    a, _ = gen_example1(8)
    with pytest.raises(ValueError):
        build_cycle_preconditioner(a, 0)
    with pytest.raises(ValueError):
        build_cycle_preconditioner(a, 9)


def test_corner_block_side_values():
    assert corner_block_side(2000, 3 * 2000) == 63
    assert corner_block_side(2000, 2000) == 1
    assert corner_block_side(4, 16) == 4
    with pytest.raises(ConfigError):
        corner_block_side(100, 99)


@pytest.mark.parametrize("n,budget", [(100, 100), (100, 300), (512, 2048), (64, 4096)])
def test_corner_block_side_maximal_under_budget(n, budget):
    s = corner_block_side(n, budget)
    assert 1 <= s <= n
    assert (n - s) + s * s <= budget
    if s < n:
        assert (n - (s + 1)) + (s + 1) ** 2 > budget


def test_tchan_zero_diagonal_raises():
    n = 8
    # circulant first row (1, -1, 0, ...): transform diagonal vanishes at 0,
    # inside the diagonal head
    row = np.zeros(n, dtype=complex)
    row[0], row[1] = 1.0, -1.0
    with pytest.raises(NumericalError, match="corner-block preconditioner .* is singular"):
        build_tchan_preconditioner(circulant_dense(row), n)
    # eigenvalues 1 - cos(2 pi (q + 1) / n): the vanishing entry sits at
    # q = n - 1, inside the 2 x 2 corner that a budget of n + 2 buys
    lam = 1.0 - np.cos(2 * np.pi * (np.arange(n) + 1) / n)
    w = fourier_matrix(n)
    a = w.conj().T @ np.diag(lam) @ w
    assert corner_block_side(n, n + 2) == 2
    with pytest.raises(NumericalError, match="corner side 2 is singular"):
        build_tchan_preconditioner(a, n + 2)


def test_pcg_identity_converges_immediately():
    x, rep = pcg_solve(np.eye(5, dtype=complex), np.arange(1.0, 6.0))
    assert rep.iterations == 1
    assert rep.converged
    assert np.allclose(x, np.arange(1.0, 6.0))


def test_pcg_solves_to_tolerance():
    a, rhs = gen_example1(64)
    x, rep = pcg_solve(a, rhs, tol=1e-8)
    assert rep.converged
    assert np.linalg.norm(rhs - a @ x) / np.linalg.norm(rhs) < 1e-8
    assert np.allclose(x, np.linalg.solve(a, rhs), atol=1e-6)
    assert rep.relative_residuals[-1] < 1e-8
    assert len(rep.relative_residuals) == rep.iterations


def test_pcg_preconditioning_cuts_iterations():
    a, rhs = gen_example1(256)
    _, plain = pcg_solve(a, rhs)
    m = build_cycle_preconditioner(a, 1)
    x, pre = pcg_solve(a, rhs, m)
    assert pre.converged and plain.converged
    assert pre.iterations < plain.iterations / 2
    assert np.linalg.norm(rhs - a @ x) / np.linalg.norm(rhs) < 1e-6


def test_pcg_input_validation():
    with pytest.raises(ValueError):
        pcg_solve(np.eye(4, dtype=complex), np.ones(3))
    skew = np.array([[1.0, 1.0], [-1.0, 1.0]], dtype=complex)
    with pytest.raises(ValueError):
        pcg_solve(skew, np.ones(2))


def test_pcg_hermitian_check_bound():
    rng = np.random.default_rng(3)
    n = 300
    h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a = h @ h.conj().T + n * np.eye(n)
    bump = np.zeros((n, n), dtype=complex)
    bump[0, 1] = 1e-8 * np.linalg.norm(a)
    with pytest.raises(ValueError):
        pcg_solve(a + bump, np.ones(n))
    bump[0, 1] = 1e-12 * np.linalg.norm(a)
    _, rep = pcg_solve(a + bump, np.ones(n))
    assert rep.converged
    assert rep.matvec == "dense"


def _random_toeplitz(n, seed):
    rng = np.random.default_rng(seed)
    col = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    row = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    row[0] = col[0]
    return col, row


@pytest.mark.parametrize("n", [1, 2, 64, 2048])
def test_toeplitz_matvec_matches_dense_product(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    col, row = _random_toeplitz(n, seed=n)  # complex, not Hermitian
    example1, _ = gen_example1(n)
    for a in (scipy.linalg.toeplitz(col, row), example1):
        want = a @ x
        got = Toeplitz.of(a).matvec(x)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def test_toeplitz_hermitian_defect_matches_dense_scan():
    for n in (1, 2, 7, 300):
        col, row = _random_toeplitz(n, seed=n + 1)
        a = scipy.linalg.toeplitz(col, row)
        t = np.concatenate([col[:0:-1], row])
        assert Toeplitz(t).hermitian_defect() == pytest.approx(hermitian_defect(a), rel=1e-12)
    n = 2048
    a, _ = gen_example1(n)
    assert Toeplitz.of(a).hermitian_defect() <= n * np.finfo(float).eps
    assert Toeplitz(np.zeros(5)).hermitian_defect() == 0.0


def test_pcg_toeplitz_hermitian_check_bound():
    # Hermitian, diagonally dominant (so PD) Toeplitz; bumping t_1 against
    # t_-1 = conj(t_1) moves n - 1 entries above and n - 1 below the diagonal
    rng = np.random.default_rng(5)
    n = 300
    t = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.arange(1, n + 1) ** 2
    t[0] = 2 * np.abs(t[1:]).sum() + 1.0
    a = scipy.linalg.toeplitz(t.conj(), t)
    unit = np.linalg.norm(a) / np.sqrt(2 * (n - 1))  # a bump of unit * eps has defect eps
    for defect, ok in ((1e-8, False), (1e-12, True)):
        row = t.copy()
        row[1] += defect * unit
        bumped = scipy.linalg.toeplitz(t.conj(), row)
        assert hermitian_defect(bumped) == pytest.approx(defect, rel=1e-6)
        if not ok:
            with pytest.raises(ValueError):
                pcg_solve(bumped, np.ones(n))
            continue
        x, rep = pcg_solve(bumped, np.ones(n))
        assert rep.converged
        assert rep.matvec == "toeplitz-fft"
        assert np.linalg.norm(np.ones(n) - bumped @ x) / np.sqrt(n) < 1e-6


def test_pcg_example1_iterations_at_2048():
    n = 2048
    a, rhs = gen_example1(n)
    cases = ((build_cycle_preconditioner(a, 1), 31), (build_tchan_preconditioner(a, 3 * n), 24))
    for m, iterations in cases:
        x, rep = pcg_solve(a, rhs, m)
        assert (rep.iterations, rep.converged, rep.matvec) == (iterations, True, "toeplitz-fft")
        assert np.linalg.norm(rhs - a @ x) / np.linalg.norm(rhs) < 1e-6


def test_preconditioner_pd_margin_is_recorded():
    n = 1000
    a, _ = gen_example1(n)
    # Example 1's {0, 1, n - 1} is indefinite and gets tapered; the weak
    # sufficient check still reads negative on the tapered mask, which its
    # pivots certify
    m = build_cycle_preconditioner(a, 3)
    assert m.pd_margin < 0
    assert m.tapered and m.certified
    assert build_cycle_preconditioner(a, 1).pd_margin >= 0
    assert build_tchan_preconditioner(a, 3 * n).pd_margin is None
    # a selection without its reflection partners is not checked
    rng = np.random.default_rng(3)
    a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)) + 8 * np.eye(16)
    assert select_dominant_cycles(similarity_transform(a), 2).indices == (0, 5)
    assert build_cycle_preconditioner(a, 2).pd_margin is None


@pytest.mark.parametrize(
    "n,want",
    [(1000, [24, 22, 20, 19, 17]), (2048, [31, 29, 27, 25, 21])],
)
def test_example1_iterations_do_not_increase_with_k(n, want):
    # untapered, the bands {0, +-1, ..., +-w} are indefinite for k > 1 and
    # took 24, 30, 33, 30, 35 (n = 1000) and 31, 46, 45, 47, 52 (n = 2048)
    a, rhs = gen_example1(n)
    iterations = []
    for k in (1, 3, 5, 9, 17):
        m = build_cycle_preconditioner(a, k)
        assert m.certified
        assert (m.tapered, m.dropped) == (k > 1, 0)
        _, rep = pcg_solve(a, rhs, m)
        assert rep.converged
        iterations.append(rep.iterations)
    assert iterations == sorted(iterations, reverse=True)
    assert iterations == want


@pytest.mark.parametrize(
    "spec,cycle_iterations",
    [
        (StructuredMatrixSpec(kind="example1", n=512), None),
        (
            StructuredMatrixSpec(
                kind="block_toeplitz", n=200, m=5, symmetric=True, make_pd=True, seed=0
            ),
            [46, 38, 32, 29, 22],
        ),
    ],
    ids=["example1", "block-toeplitz"],
)
def test_precond_table_masks_are_certified(spec, cycle_iterations):
    n = spec.n
    rows = precond_benchmark(spec, [k * n for k in (1, 3, 5, 9, 17)])
    assert all(r.min_pivot > 0 for r in rows if r.method != "identity")
    if cycle_iterations is not None:
        # every block mask certifies untapered: the counts are those of
        # the untapered masks
        cycles = [r for r in rows if r.method == "cycles"]
        assert not any(r.tapered for r in cycles)
        assert [r.iterations for r in cycles] == cycle_iterations


def test_certified_coset_mask_is_not_tapered():
    spec = StructuredMatrixSpec(kind="block_toeplitz", n=40, m=4, symmetric=True, make_pd=True, seed=3)
    a, _ = generate(spec)
    m = build_cycle_preconditioner(a, 4)
    assert m.certified and not m.tapered and m.dropped == 0
    _, rep = pcg_solve(a, np.arange(1, 41), m)
    assert (rep.iterations, rep.converged) == (25, True)  # the untapered count
    # k = 9 adds cycles 1, 11, 29 and 39, and the mask turns indefinite; the
    # taper drops them and keeps the coset (untapered, PCG took 23)
    m = build_cycle_preconditioner(a, 9)
    assert m.certified and m.tapered and m.dropped == 4 and m.nnz == 4 * 40
    _, rep = pcg_solve(a, np.arange(1, 41), m)
    assert (rep.iterations, rep.converged) == (25, True)


def _pivot_cases():
    n = 256
    b = similarity_transform(gen_example1(n)[0])
    for k in (1, 3, 5, 9, 17):
        sp = sparsify(b, select_dominant_cycles(b, k))
        tau = taper_weights(n, sp.selection.indices)
        yield sp
        yield SparseCycleMatrix(n, sp.selection, sp.cycles * tau[:, None])
    spec = StructuredMatrixSpec(kind="block_toeplitz", n=40, m=4, symmetric=True, make_pd=True, seed=3)
    b = similarity_transform(generate(spec)[0])
    for k in (4, 9, 17):
        yield sparsify(b, select_dominant_cycles(b, k))


def test_pivot_certificate_matches_dense_spectrum():
    # the sign of the smallest symmetric-mode pivot is that of lambda_min(S),
    # and for PD S the pivot bounds lambda_min(S) from above
    signs = []
    for sp in _pivot_cases():
        lam = np.linalg.eigvalsh(sp.densify()).min()
        m = MaskPreconditioner(sp.to_scipy(), "mask")
        assert (m.min_pivot > 0) == m.certified == (lam > 0)
        if lam > 0:
            assert m.min_pivot >= lam * (1 - 1e-10)
        signs.append(lam > 0)
    assert True in signs and False in signs


def test_pivot_certificate_needs_a_hermitian_mask():
    m, _ = _spread()  # random complex cycles
    assert m.min_pivot is None and not m.certified
    # a zero diagonal pivot: SuperLU pivots off the diagonal
    swap = scipy.sparse.csc_matrix(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    m = MaskPreconditioner(swap, "swap")
    assert m.min_pivot == 0.0 and not m.certified


@pytest.mark.parametrize(
    "indices,want",
    [
        ([0, 1, 2, 10, 11], [1, 2 / 3, 1 / 3, 1 / 3, 2 / 3]),  # band, w = 2: Fejer
        ([0, 4, 8], [1, 1, 1]),  # pure coset
        # coset band {0, 4, 8} + {-1, 0, 1}: periodised Fejer
        ([0, 1, 3, 4, 5, 7, 8, 9, 11], [1, 1 / 2, 1 / 2, 1, 1 / 2, 1 / 2, 1, 1 / 2, 1 / 2]),
        ([0, 1, 5, 7, 11], [1, 1 / 2, 0, 0, 1 / 2]),  # +-5 lie outside H - H
        ([0, 1, 3, 6, 9, 11], [1, 0, 1, 1, 1, 0]),  # the coset keeps 4, the band 3
        ([0, 1, 4, 8, 11], [1, 1 / 2, 0, 0, 1 / 2]),  # both keep 3: the band
        ([1, 11], [0, 0]),  # no cycle 0: no H
    ],
)
def test_taper_weights(indices, want):
    n = 12
    tau = taper_weights(n, indices)
    assert tau.tolist() == want
    full = np.zeros(n)
    full[indices] = tau
    assert np.fft.fft(full).real.min() >= -1e-12  # T is positive semidefinite


@pytest.mark.parametrize(
    "indices", [[0, 1, 2, 3, 45, 46, 47], [0, 1, 11, 12, 13, 23, 24, 25, 35, 36, 37, 47]]
)
def test_taper_makes_any_hpd_mask_pd(indices):
    # Schur product theorem: B HPD and T PSD with unit diagonal give B o T
    # PD.  B = x x* + I / 100 masks to D_x M D_x* + I / 100, M the 0/1
    # circulant of the selection, whose spectrum (a Dirichlet kernel) dips
    # below zero, so the untapered mask is indefinite
    n = 48
    rng = np.random.default_rng(7)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    b = np.outer(x, x.conj()) + 0.01 * np.eye(n)
    sp = sparsify(b, CycleSelection.of(n, indices))
    tau = taper_weights(n, sp.selection.indices)
    tapered = SparseCycleMatrix(n, sp.selection, sp.cycles * tau[:, None])
    assert np.linalg.eigvalsh(sp.densify()).min() < 0
    assert np.linalg.eigvalsh(tapered.densify()).min() > 0


def test_indefinite_hermitian_a_raises():
    # Example 1 shifted down by 0.05 has a negative eigenvalue; its k = 1
    # mask (cycle 0) is still PD, its k = 3 band is not, tapered or not
    n = 64
    t = Toeplitz.of(gen_example1(n)[0]).t.copy()
    t[n - 1] -= 0.05
    a = Toeplitz(t).dense()
    assert np.linalg.eigvalsh(a).min() < 0
    assert build_cycle_preconditioner(a, 1).certified
    with pytest.raises(NumericalError, match=r"cycles \(0, 1, 63\) is not positive definite"):
        build_cycle_preconditioner(a, 3)


def _dense_oracle(b, build, arg):
    """Preconditioner and pd margin from the mask cut out of the dense B."""
    n = b.shape[0]
    if build is build_tchan_preconditioner:
        s = corner_block_side(n, arg)
        mask = scipy.sparse.block_diag(
            [scipy.sparse.diags(np.diag(b)[: n - s]), b[n - s :, n - s :]], format="csc"
        )
        return MaskPreconditioner(mask, "oracle"), None
    sp = sparsify(b, select_dominant_cycles(b, arg))
    if np.linalg.eigvalsh(sp.densify()).min() < 0:
        # Example 1's masks are wrapped bands {0, +-1, ..., +-w}: Fejer taper
        d = np.minimum(sp.selection.as_array(), n - sp.selection.as_array())
        w = int(d.max())
        assert sorted(d.tolist()) == sorted([0] + 2 * list(range(1, w + 1)))
        sp = SparseCycleMatrix(n, sp.selection, sp.cycles * (1 - d / (w + 1))[:, None])
    return MaskPreconditioner(sp.to_scipy(), "oracle"), pd_sufficient_check(sp).margin


@pytest.mark.parametrize(
    "build,arg",
    [
        (build_cycle_preconditioner, 1),
        (build_cycle_preconditioner, 3),
        (build_tchan_preconditioner, 256),
        (build_tchan_preconditioner, 3 * 256),
    ],
    ids=["k1", "k3", "tchan-n", "tchan-3n"],
)
def test_toeplitz_builders_never_form_b(monkeypatch, build, arg):
    n = 256
    a, _ = gen_example1(n)
    oracle, margin = _dense_oracle(similarity_transform(a), build, arg)

    def refuse(_):
        raise AssertionError("similarity_transform called on a Toeplitz A")

    monkeypatch.setattr(cspc.precond, "similarity_transform", refuse)
    m = build(a, arg)
    assert m.source == "toeplitz-diagonals"
    assert m.nnz == oracle.nnz
    rng = np.random.default_rng(1)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    want = oracle.apply(v)
    assert np.linalg.norm(m.apply(v) - want) <= 1e-12 * np.linalg.norm(want)
    if margin is None:
        assert m.pd_margin is None
    else:
        assert abs(m.pd_margin - margin) <= 1e-12 * max(1.0, abs(margin))


def test_non_toeplitz_builders_transform(monkeypatch):
    spec = StructuredMatrixSpec(kind="block_toeplitz", n=40, m=4, symmetric=True, make_pd=True, seed=3)
    a, _ = generate(spec)
    calls = []

    def counted(x):
        calls.append(1)
        return similarity_transform(x)

    monkeypatch.setattr(cspc.precond, "similarity_transform", counted)
    for m in (build_cycle_preconditioner(a, 4), build_tchan_preconditioner(a, 3 * 40)):
        assert m.source == "transform"
    assert len(calls) == 2


def _corner_mask_from_cycles(a, s):
    """The corner-block mask cut out of the 2s - 1 cycles through the corner."""
    n = a.shape[0]
    toeplitz = Toeplitz.of(a)
    ks = np.unique(np.arange(1 - s, s) % n)
    if toeplitz is not None:
        cycles = toeplitz.cycles(ks)
    else:
        cycles = apply_cycle_mask(similarity_transform(a), ks)
    rows, cols = cycle_positions(n, ks)
    keep = (rows == cols) | ((rows >= n - s) & (cols >= n - s))
    return scipy.sparse.csc_matrix((cycles[keep], (rows[keep], cols[keep])), shape=(n, n))


@pytest.mark.parametrize(
    "a",
    [
        gen_example1(64)[0],
        gen_example1(2048)[0],
        generate(
            StructuredMatrixSpec(kind="block_toeplitz", n=60, m=4, symmetric=True, make_pd=True, seed=3)
        )[0],
    ],
    ids=["example1-64", "example1-2048", "block-toeplitz-60"],
)
def test_corner_block_mask_matches_cycle_cut(monkeypatch, a):
    # the builder reads only the diagonal head and the corner; the values
    # are those of the 2s - 1 cycles through the corner, bit for bit
    monkeypatch.setattr(cspc.precond, "MaskPreconditioner", lambda mask, label, source: (mask, source))
    n = a.shape[0]
    for budget in (n, 3 * n, 5 * n, n * n):
        mask, source = build_tchan_preconditioner(a, budget)
        assert source == ("transform" if n == 60 else "toeplitz-diagonals")
        s = corner_block_side(n, budget)
        want = _corner_mask_from_cycles(a, s)
        assert mask.nnz == want.nnz == n - s + s * s
        assert np.array_equal(mask.indptr, want.indptr)
        assert np.array_equal(mask.indices, want.indices)
        assert mask.data.tobytes() == want.data.tobytes()


def test_precond_table_at_2000_is_unchanged(tmp_path):
    # the cycles rows at 3n and 5n hold Fejer-tapered masks (45 and 43
    # iterations untapered); the corner-block rows keep their counts, and
    # the symmetric-mode factor moves their residuals in the ninth digit
    out = tmp_path / "table.csv"
    argv = ["precond-table", "--n", "2000", "--budgets", "n,3n,5n", "--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    assert out.read_text().splitlines() == [
        "method,budget,iterations,converged,final_residual",
        "identity,0,683,True,6.962479298836759e-07",
        "tchan,2000,30,True,8.78781814963285e-07",
        "tchan,6000,23,True,8.266519167686997e-07",
        "tchan,10000,23,True,8.519854501860289e-07",
        "cycles,2000,30,True,8.78781814963285e-07",
        "cycles,6000,29,True,8.720272261573096e-08",
        "cycles,10000,27,True,3.192906637322818e-07",
    ]


def test_toeplitz_solves_in_linear_memory():
    # Example 1 at n = 65536: a dense A would take 64 GiB; the generator's
    # view, the builds and the solves stay within a few vectors of size n.
    # The k = 3 mask is tapered; untapered it did not converge in 400
    n = 65536
    tracemalloc.start()
    try:
        a, info = generate(StructuredMatrixSpec(kind="example1", n=n))
        builds = (
            (partial(build_cycle_preconditioner, a, 1), 146),
            (partial(build_cycle_preconditioner, a, 3), 133),
            (partial(build_tchan_preconditioner, a, 3 * n), 91),
        )
        for build, iterations in builds:
            m = build()
            assert m.source == "toeplitz-diagonals"
            assert m.certified
            _, rep = pcg_solve(a, info["rhs"], m, max_iter=200)
            assert (rep.iterations, rep.converged, rep.matvec) == (iterations, True, "toeplitz-fft")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_pcg_real_dense_matrix_is_never_cast_to_complex():
    # a real non-Toeplitz A takes the dense route; a @ p with complex p
    # would cast A to an n x n complex copy (4 MB here) in every iteration
    n = 512
    spec = StructuredMatrixSpec(kind="block_toeplitz", n=n, m=4, symmetric=True, make_pd=True, seed=2)
    a = generate(spec)[0]
    assert a.dtype == np.float64
    rhs = np.arange(1, n + 1) * (1 + 0.5j)
    tracemalloc.start()
    try:
        x, rep = pcg_solve(a, rhs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.matvec == "dense" and rep.converged and rep.iterations > 10
    assert peak < a.nbytes / 4
    x_complex, rep_complex = pcg_solve(a + 0j, rhs)
    assert rep_complex.iterations == rep.iterations
    assert np.abs(x - x_complex).max() <= 1e-10 * np.abs(x_complex).max()


def test_pcg_breakdown_on_indefinite():
    a = np.diag([1.0, -1.0]).astype(complex)
    with pytest.raises(NumericalError):
        pcg_solve(a, np.array([1.0, 1.0]))


def test_pcg_zero_rhs():
    x, rep = pcg_solve(np.eye(3, dtype=complex), np.zeros(3))
    assert rep.iterations == 0
    assert rep.converged
    assert np.array_equal(x, np.zeros(3))


def test_pcg_max_iter_exhaustion():
    a, rhs = gen_example1(64)
    _, rep = pcg_solve(a, rhs, max_iter=2)
    assert not rep.converged
    assert rep.iterations == 2


def test_pcg_long_run_uses_recomputed_residual():
    # past 50 iterations the recurrence residual is replaced by the true
    # one; a slowly converging PD system exercises that branch
    rng = np.random.default_rng(2)
    n = 120
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = (q * np.geomspace(1, 1e5, n)) @ q.T
    a = (a + a.T) / 2
    rhs = rng.standard_normal(n)
    x, rep = pcg_solve(a.astype(complex), rhs, tol=1e-10, max_iter=5000)
    assert rep.iterations > 50
    assert np.linalg.norm(rhs - a @ x) / np.linalg.norm(rhs) < 1e-9


def test_pcg_refresh_is_the_true_residual():
    # iteration 50 replaces the recurrence residual by b - A x, computed the
    # same way as here; on this slowly converging (dense, non-Toeplitz)
    # system the recurrence residual has drifted from it by then
    rng = np.random.default_rng(2)
    n = 120
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = (q * np.geomspace(1, 1e5, n)) @ q.T
    a = ((a + a.T) / 2).astype(complex)
    rhs = rng.standard_normal(n).astype(complex)
    x, rep = pcg_solve(a, rhs, tol=1e-14, max_iter=50)
    assert (rep.iterations, rep.converged, rep.matvec) == (50, False, "dense")
    assert rep.relative_residuals[49] == np.linalg.norm(rhs - a @ x) / np.linalg.norm(rhs)


def test_precond_benchmark_rows():
    spec = StructuredMatrixSpec(kind="example1", n=64)
    rows = precond_benchmark(spec, budgets=(64, 192), tol=1e-6)
    methods = [(r.method, r.budget) for r in rows]
    assert methods == [
        ("identity", 0),
        ("tchan", 64),
        ("tchan", 192),
        ("cycles", 64),
        ("cycles", 192),
    ]
    assert all(r.converged for r in rows)
    assert {r.matvec for r in rows} == {"toeplitz-fft"}
    assert [r.pd_margin is None for r in rows] == [True, True, True, False, False]
    assert [r.source for r in rows] == [None] + ["toeplitz-diagonals"] * 4
    assert [r.min_pivot is not None and r.min_pivot > 0 for r in rows] == [False] + [True] * 4
    assert [(r.tapered, r.dropped) for r in rows] == [(False, 0)] * 4 + [(True, 0)]
    ident = rows[0].iterations
    assert all(r.iterations <= ident for r in rows[1:])
    assert all(r.final_residual < 1e-6 for r in rows)
