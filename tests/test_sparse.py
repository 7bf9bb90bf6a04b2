import tracemalloc
from collections import Counter

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from cspc.core import (
    CycleSelection,
    NumericalError,
    apply_cycle_mask,
    cycle_norms,
    cycle_positions,
    flip_matrix,
    fourier_matrix,
    hermitian_defect,
    keep_cycles,
    reflection_defect,
)
from cspc.decomposition import circulant_dense, cycle_weights
from cspc.generators import StructuredMatrixSpec, generate
from cspc.sparse import (
    SparseCycleMatrix,
    _real_form,
    bauer_fike_bound,
    cycle_spectrum,
    direct_sparsify,
    eigen_error_report,
    pd_sufficient_check,
    select_dominant_cycles,
    selections_from_norms,
    sparsify,
    spectrum,
)
from cspc.transform import similarity_transform


def _random_b(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def test_sparse_cycle_matrix_basics():
    b = _random_b(6, 0)
    sel = CycleSelection.of(6, [0, 2, 5])
    sp = sparsify(b, sel)
    assert sp.nnz == 18
    assert np.array_equal(sp.cycle(2), apply_cycle_mask(b, 2))
    assert np.array_equal(sp.densify(), keep_cycles(b, [0, 2, 5]))
    assert np.array_equal(sp.to_scipy().toarray(), sp.densify())
    assert sp.frobenius_norm() == pytest.approx(np.linalg.norm(sp.densify()))
    every = sparsify(b, CycleSelection.of(6, range(6)))
    assert np.array_equal(every.densify(), b)
    assert np.array_equal(every.to_scipy().toarray(), every.densify())


def test_sparse_cycle_matrix_validation():
    sel = CycleSelection.of(4, [0, 1])
    with pytest.raises(ValueError):
        SparseCycleMatrix(4, sel, np.zeros((3, 4)))
    with pytest.raises(ValueError):
        SparseCycleMatrix(5, sel, np.zeros((2, 5)))
    with pytest.raises(ValueError):
        sparsify(np.eye(4), CycleSelection.of(5, [0]))


def test_parseval_split_between_kept_and_dropped():
    b = _random_b(9, 1)
    sel = CycleSelection.of(9, [0, 3, 4])
    kept = sparsify(b, sel)
    dropped = sparsify(b, sel.complement())
    assert kept.frobenius_norm() ** 2 + dropped.frobenius_norm() ** 2 == pytest.approx(
        np.linalg.norm(b) ** 2
    )


def test_select_dominant_cycles_known_ranking():
    n = 5
    b = np.zeros((n, n), dtype=complex)
    for k, scale in enumerate([3.0, 0.5, 7.0, 1.0, 2.0]):
        b += scale * keep_cycles(np.ones((n, n)), [k])
    assert select_dominant_cycles(b, 1).indices == (2,)
    assert select_dominant_cycles(b, 3).indices == (0, 2, 4)
    assert select_dominant_cycles(b, 5).indices == (0, 1, 2, 3, 4)


def test_select_dominant_cycles_tie_breaks_low():
    b = np.eye(4, dtype=complex) + keep_cycles(np.ones((4, 4)), [2])
    sel = select_dominant_cycles(b, 1)
    assert sel.indices == (0,)


def test_select_dominant_cycles_reflection_tie_breaks_low():
    # for Hermitian B the norms of cycles j and n - j agree in exact
    # arithmetic; summation roundoff must not pick the larger index
    a = scipy.linalg.toeplitz(np.random.default_rng(13).standard_normal(8))
    b = similarity_transform(a)
    # the order is [0, 1, 7, 2, 6, 3, 5, 4]: a sixth cycle would split 3 from 5
    assert select_dominant_cycles(b, 6).indices == (0, 1, 2, 6, 7)


def test_cycle_scans_stream():
    # a gather of all n cycles at once would allocate a second n x n
    # complex array; the scans stay under an eighth of one
    n = 1024
    b = _random_b(n, 4)
    for scan in (lambda: select_dominant_cycles(b, 16), lambda: cycle_weights(b)):
        tracemalloc.start()
        try:
            scan()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n * 16 / 8


def test_selections_are_nested_and_keep_a_tied_pair_together():
    n = 64
    b = _random_b(n, 5)
    b[cycle_positions(n, [3, 61])] = 1.0  # a reflection pair tied exactly
    sels = [set(sel) for sel in selections_from_norms(cycle_norms(b), range(1, n + 1))]
    # the one prefix that ends between 3 and 61 keeps k - 1 cycles
    short = [k for k, sel in enumerate(sels, start=1) if len(sel) == k - 1]
    assert len(short) == 1 and short[0] > 1
    split = short[0]
    assert all(len(sel) == k for k, sel in enumerate(sels, start=1) if k != split)
    for k in range(2, n + 1):
        assert sels[k - 2] <= sels[k - 1]
    assert sels[split - 1] == sels[split - 2]
    assert sels[split] - sels[split - 1] == {3, 61}


def test_sparsify_of_hermitian_b_is_hermitian_for_every_k():
    n = 64
    a = scipy.linalg.toeplitz(np.random.default_rng(8).standard_normal(n))
    b = similarity_transform(a)
    sels = selections_from_norms(cycle_norms(b), range(1, n + 1))
    for k, sel in enumerate(sels, start=1):
        assert len(sel) in (k - 1, k)
        ks = sel.as_array()
        assert set((n - ks) % n) == set(ks)
        dense = sparsify(b, sel).densify()
        assert np.linalg.norm(dense - dense.conj().T) <= 1e-14 * np.linalg.norm(dense)
    assert sels == [select_dominant_cycles(b, k) for k in range(1, n + 1)]


def test_select_dominant_cycles_range():
    with pytest.raises(ValueError):
        select_dominant_cycles(np.eye(3), 0)
    with pytest.raises(ValueError):
        select_dominant_cycles(np.eye(3), 4)


def test_direct_sparsify_keeps_largest():
    a = np.array([[1.0, -5.0], [3.0, 2.0]], dtype=complex)
    out = direct_sparsify(a, 2)
    assert np.array_equal(out, np.array([[0, -5.0], [3.0, 0]]))
    assert np.count_nonzero(direct_sparsify(a, 0)) == 0
    assert np.array_equal(direct_sparsify(a, 4), a)
    with pytest.raises(ValueError):
        direct_sparsify(a, 5)


def test_direct_sparsify_tie_row_major():
    a = np.full((2, 2), 2.0, dtype=complex)
    out = direct_sparsify(a, 2)
    assert np.count_nonzero(out) == 2
    assert out[0, 0] == 2.0 and out[0, 1] == 2.0


def test_approx_eigenvalues_circulant_exact():
    rng = np.random.default_rng(2)
    n = 8
    r = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    b = similarity_transform(circulant_dense(r))
    got = np.sort_complex(spectrum(keep_cycles(b, [0])))
    # the circulant's eigenvalues: the positive-kernel DFT of its first row
    assert np.allclose(got, np.sort_complex(n * np.fft.ifft(r)), atol=1e-10)


def test_spectrum_routes_by_hermitian_check(monkeypatch):
    n = 40
    h = _random_b(n, 9)
    # Hermitian to roundoff only, as every transformed B is
    h = similarity_transform(h + h.conj().T)
    general = _random_b(n, 10)
    want_h = np.sort(np.linalg.eigvals(h).real)
    want_general = np.linalg.eigvals(general)

    def refuse(m):
        raise AssertionError("wrong eigensolver")

    with monkeypatch.context() as mp:
        mp.setattr(np.linalg, "eigvals", refuse)
        got = spectrum(h)
    assert np.isrealobj(got) and np.all(np.diff(got) >= 0)
    assert np.abs(got - want_h).max() <= 1e-12 * np.abs(want_h).max()
    with monkeypatch.context() as mp:
        mp.setattr(np.linalg, "eigvalsh", refuse)
        got = spectrum(general)
    assert np.array_equal(got, want_general)


def test_spectrum_maps_solver_failure(monkeypatch):
    # spectrum and cycle_spectrum's coset route share one solve step: a
    # solver that fails raises NumericalError and counts nothing, and one
    # that succeeds is counted once
    def fail(m):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    general = np.random.default_rng(3).standard_normal((8, 8))
    # cycles {0, 4} of n = 8: a stack of g = 4 blocks of 2 x 2
    stack = CycleSelection.of(8, [0, 4])
    cases = [
        (lambda s: spectrum(np.eye(3), s), "eigvalsh", 0),
        (lambda s: spectrum(general, s), "eigvals", 0),
        (lambda s: cycle_spectrum(general + general.T, stack, s), "eigvalsh", 1),
        (lambda s: cycle_spectrum(general, stack, s), "eigvals", 1),
    ]
    for solve, solver, coset in cases:
        solvers = Counter()
        with monkeypatch.context() as mp:
            mp.setattr(np.linalg, solver, fail)
            with pytest.raises(NumericalError, match="failed to converge"):
                solve(solvers)
        assert solvers == Counter()
        solve(solvers)
        assert solvers["eigvalsh"] + solvers["eigvals"] == solvers[solver] == 1
        assert solvers["coset"] == coset


def _complex_route(m):
    """The solver spectrum() uses for m when m has no real form."""
    if hermitian_defect(m) <= m.shape[0] * np.finfo(float).eps:
        return np.linalg.eigvalsh(m)
    return np.linalg.eigvals(m)


@pytest.mark.parametrize("symmetric", [True, False], ids=["symmetric", "nonsymmetric"])
@pytest.mark.parametrize("n", [8, 31, 64, 256])
def test_spectrum_real_form_matches_complex_solver(n, symmetric):
    a, _ = generate(StructuredMatrixSpec(kind="toeplitz", n=n, seed=n, symmetric=symmetric))
    b = similarity_transform(a)
    # every k up to 64; at n = 256 (one complex eigvals ~35 ms) both ends,
    # both parities and powers of two
    ks = range(1, n + 1) if n <= 64 else (1, 2, 3, 4, 5, 16, 17, 64, 127, 128, 255, 256)
    for sel in selections_from_norms(cycle_norms(b), ks):
        m = sparsify(b, sel).densify()
        got, want = spectrum(m), _complex_route(m)
        tol = 1e-12 * np.abs(want).max()
        if np.isrealobj(want):
            assert np.isrealobj(got)
            assert np.abs(got - want).max() <= tol
        else:
            assert got.dtype == np.complex128
            rows, cols = scipy.optimize.linear_sum_assignment(
                np.abs(want[:, None] - got[None, :])
            )
            assert np.abs(want[rows] - got[cols]).max() <= tol


def _record_solver_inputs(monkeypatch):
    """Wrap np.linalg.eigvalsh/eigvals, recording (name, input dtype,
    output dtype, input shape)."""
    calls = []
    for name in ("eigvalsh", "eigvals"):
        solver = getattr(np.linalg, name)

        def wrapped(m, _name=name, _solver=solver):
            values = _solver(m)
            calls.append((_name, m.dtype, values.dtype, m.shape))
            return values

        monkeypatch.setattr(np.linalg, name, wrapped)
    return calls


def test_spectrum_solver_sees_real_input_on_real_route(monkeypatch):
    n = 64
    a, _ = generate(StructuredMatrixSpec(kind="toeplitz", n=n, seed=1, symmetric=True))
    b = similarity_transform(a)
    closed = sparsify(b, select_dominant_cycles(b, 9)).densify()
    assert np.abs(closed.imag).max() > 0
    h = _random_b(n, 3)
    h = h + h.conj().T
    calls = _record_solver_inputs(monkeypatch)
    for m in (a, closed, h):
        spectrum(m)
    half = ("eigvalsh", np.float64, (n // 2, n // 2))
    assert [(name, dtype, shape) for name, dtype, _, shape in calls] == [
        half, half,  # Im A is exactly zero: the two halves of the split by J
        half, half,  # reflection-symmetric, through Q* m Q: the halves of the split by G
        ("eigvalsh", np.complex128, (n, n)),  # Hermitian, not reflection-symmetric
    ]


def test_spectrum_real_form_needs_reflection_symmetry(monkeypatch):
    n = 64
    a, _ = generate(StructuredMatrixSpec(kind="toeplitz", n=n, seed=2))
    m = similarity_transform(a)
    eps = np.finfo(float).eps
    assert reflection_defect(m) <= n * eps
    bumped = m.copy()
    bumped[1, 2] += 100 * n * eps * np.linalg.norm(m)
    assert reflection_defect(bumped) > n * eps
    want = np.linalg.eigvals(bumped)
    calls = _record_solver_inputs(monkeypatch)
    got = spectrum(bumped)
    assert [(name, dtype) for name, dtype, _, _ in calls] == [("eigvals", np.complex128)]
    assert np.array_equal(got, want)


def test_spectrum_real_form_returns_complex_for_real_eigenvalues(monkeypatch):
    # B = W A W* of a real triangular A: non-Hermitian, reflection-symmetric,
    # with the real eigenvalues diag(A)
    n = 16
    rng = np.random.default_rng(8)
    a = np.triu(rng.standard_normal((n, n))) + np.diag(np.arange(1.0, n + 1))
    b = similarity_transform(a)
    calls = _record_solver_inputs(monkeypatch)
    got = spectrum(b)
    # numpy's eigvals returned float64 for the real matrix; spectrum does not
    assert calls == [("eigvals", np.float64, np.float64, (n, n))]
    assert got.dtype == np.complex128
    assert np.allclose(np.sort(got.real), np.sort(np.diag(a)), rtol=0, atol=1e-12 * n)
    assert not got.imag.any()


def test_spectrum_counts_solvers():
    n = 32
    a, _ = generate(StructuredMatrixSpec(kind="toeplitz", n=n, seed=4))
    b = similarity_transform(a)
    solvers = Counter()
    spectrum(a, solvers)  # real, non-symmetric
    spectrum(b, solvers)  # real form of the same matrix
    spectrum(_random_b(n, 5), solvers)  # complex, no real form
    h = _random_b(n, 6)
    spectrum(h + h.conj().T, solvers)  # complex Hermitian
    assert solvers == Counter(eigvals=3, eigvalsh=1, real_form=2)
    sym, _ = generate(StructuredMatrixSpec(kind="toeplitz", n=n, seed=4, symmetric=True))
    spectrum(sym, solvers)  # real symmetric Toeplitz, split by J
    spectrum(similarity_transform(sym), solvers)  # its real form, split by G
    # one eigvalsh per spectrum, however many halves it was solved in
    assert solvers == Counter(eigvals=3, eigvalsh=3, real_form=4, split=2)


def _index_reflection(n):
    """P, the permutation q -> (-q) mod n, as a dense matrix."""
    p = np.zeros((n, n))
    p[-np.arange(n) % n, np.arange(n)] = 1.0
    return p


def _pair_reflection_g(n):
    """G = cos(theta_q) P - diag(sin(theta_q)), theta_q = 2 pi q / n."""
    theta = 2 * np.pi * np.arange(n) / n
    return np.cos(theta) * _index_reflection(n) - np.diag(np.sin(theta))


def _hartley(n):
    w = fourier_matrix(n)
    return w.real - w.imag


@pytest.mark.parametrize("n", [8, 9, 16, 17])
def test_pair_reflection_g_is_hartley_conjugate_of_j(n):
    h = _hartley(n)
    g = _pair_reflection_g(n)
    assert np.abs(h @ h - np.eye(n)).max() <= 1e-14 * n
    assert np.abs(g - h @ flip_matrix(n).real @ h).max() <= 1e-14 * n
    # a symmetric reflection: G = G^T and G^2 = I
    assert np.abs(g - g.T).max() <= 1e-15 * n
    assert np.abs(g @ g - np.eye(n)).max() <= 1e-15 * n


@pytest.mark.parametrize("n", [8, 9, 16, 17])
def test_real_form_of_reflection_closed_selection_commutes_with_g(n):
    a, _ = generate(StructuredMatrixSpec(kind="toeplitz", n=n, seed=n, symmetric=True))
    b = similarity_transform(a)
    w, h, g = fourier_matrix(n), _hartley(n), _pair_reflection_g(n)
    # Q = (I + iP) / sqrt(2), the unitary that takes m to its real form
    q = (np.eye(n) + 1j * _index_reflection(n)) / np.sqrt(2)
    for sel in selections_from_norms(cycle_norms(b), range(1, n + 1)):
        m = sparsify(b, sel).densify()
        real, reflected = _real_form(m)
        assert reflected
        scale = np.abs(real).max()
        assert np.abs(real - q.conj().T @ m @ q).max() <= 1e-14 * n * scale
        # the real form is H m~ H, m~ = W* m W the approximation of A
        assert np.abs(real - h @ (w.conj().T @ m @ w) @ h).max() <= 1e-14 * n * scale
        assert np.abs(real @ g - g @ real).max() <= 1e-14 * n * scale


@pytest.mark.parametrize("n", [16, 17, 64, 65])
@pytest.mark.parametrize("kind", ["toeplitz", "example1"])
def test_split_spectrum_matches_unsplit(kind, n):
    if kind == "toeplitz":
        spec = StructuredMatrixSpec(kind=kind, n=n, seed=n, symmetric=True)
    else:
        spec = StructuredMatrixSpec(kind=kind, n=n)
    a, _ = generate(spec)
    b = similarity_transform(a)
    ms = [a] + [sparsify(b, sel).densify() for sel in selections_from_norms(cycle_norms(b), (1, 3, 15, n))]
    solvers = Counter()
    for m in ms:
        got = spectrum(m, solvers)
        want = np.linalg.eigvalsh(m)  # complex Hermitian, whole
        assert np.isrealobj(got) and np.all(np.diff(got) >= 0)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert solvers == Counter(eigvalsh=len(ms), real_form=len(ms), split=len(ms))


@pytest.mark.parametrize("n", [32, 33])
def test_spectrum_solves_whole_when_the_off_block_is_above_roundoff(n, monkeypatch):
    a, _ = generate(StructuredMatrixSpec(kind="toeplitz", n=n, seed=3, symmetric=True))
    eps = np.finfo(float).eps
    bumped = np.array(a.real)
    # symmetric and real, but no longer centrosymmetric: J bumped J != bumped
    bump = 100 * n * eps * np.linalg.norm(bumped)
    bumped[0, 1] += bump
    bumped[1, 0] += bump
    calls = _record_solver_inputs(monkeypatch)
    solvers = Counter()
    got = spectrum(bumped, solvers)
    assert [(name, shape) for name, _, _, shape in calls] == [("eigvalsh", (n, n))]
    assert solvers == Counter(eigvalsh=1, real_form=1)
    assert np.array_equal(got, np.linalg.eigvalsh(bumped))


def _split_cases(n):
    """Real forms that split, that miss by a bump near the bound, and that
    never split (eig-vs-n's block-Toeplitz default and its B~)."""
    eps = np.finfo(float).eps
    a, _ = generate(StructuredMatrixSpec(kind="toeplitz", n=n, seed=3, symmetric=True))
    b = similarity_transform(a)
    cases = [a] + [keep_cycles(b, sel.indices) for sel in selections_from_norms(cycle_norms(b), (1, 3, n))]
    for scale in (0.25, 1.0, 4.0, 100.0):
        bumped = np.array(a.real)
        bump = scale * n * eps * np.linalg.norm(bumped)
        bumped[0, 1] += bump
        bumped[1, 0] += bump
        cases.append(bumped)
    m = 5 if n % 5 == 0 else 4 if n % 4 == 0 else 1
    block, _ = generate(StructuredMatrixSpec(kind="block_toeplitz", n=n, m=m, symmetric=True, seed=n))
    b = similarity_transform(block)
    return cases + [block, keep_cycles(b, range(0, n, n // m)), keep_cycles(b, range(n))]


@pytest.mark.parametrize("n", [100, 128, 135, 300])
def test_strip_prescreen_never_changes_a_split_decision(n, monkeypatch):
    import cspc.sparse

    fired = Counter()
    prescreen = cspc.sparse._strip_exceeds

    def counted(*args):
        exceeds = prescreen(*args)
        fired[exceeds] += 1
        return exceeds

    with_prescreen, without = Counter(), Counter()
    for m in _split_cases(n):
        monkeypatch.setattr(cspc.sparse, "_strip_exceeds", counted)
        got = spectrum(m, with_prescreen)
        monkeypatch.setattr(cspc.sparse, "_strip_exceeds", lambda *args: False)
        want = spectrum(m, without)
        assert np.array_equal(got, want)
    assert with_prescreen == without
    assert with_prescreen["split"] >= 4 and with_prescreen["real_form"] > with_prescreen["split"]
    # the block-Toeplitz cases are turned away by the strip alone
    assert fired[True] >= 3


def test_sorted_matching_is_l1_optimal():
    rng = np.random.default_rng(11)
    for n in (5, 37, 200):
        ref = rng.standard_normal(n) * 10
        approx = ref + rng.standard_normal(n)
        rep = eigen_error_report(approx, ref)
        total = np.abs(ref - approx[rep.matching]).sum()
        rows, cols = scipy.optimize.linear_sum_assignment(np.abs(ref[:, None] - approx[None, :]))
        assert total == pytest.approx(np.abs(ref[rows] - approx[cols]).sum(), rel=1e-12)


def test_sorted_matching_ignores_input_order():
    rng = np.random.default_rng(12)
    ref = rng.standard_normal(50)
    approx = ref + 0.3 * rng.standard_normal(50)
    base = eigen_error_report(approx, ref)
    for a, r in ((rng.permutation(approx), ref), (approx, rng.permutation(ref))):
        rep = eigen_error_report(a, r)
        assert rep.mean_relative_error == pytest.approx(base.mean_relative_error, rel=1e-14)
        assert rep.std_relative_error == pytest.approx(base.std_relative_error, rel=1e-14)


def test_complex_matching_is_l1_optimal_above_512():
    rng = np.random.default_rng(13)
    n = 600
    ref = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * 10
    approx = ref + rng.standard_normal(n) + 1j * rng.standard_normal(n)
    rep = eigen_error_report(approx, ref)
    total = np.abs(ref - approx[rep.matching]).sum()
    rows, cols = scipy.optimize.linear_sum_assignment(np.abs(ref[:, None] - approx[None, :]))
    assert total == pytest.approx(np.abs(ref[rows] - approx[cols]).sum(), rel=1e-12)


def test_eigen_error_report_exact_match_any_order():
    rng = np.random.default_rng(3)
    ref = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    rep = eigen_error_report(np.random.default_rng(4).permutation(ref), ref)
    assert rep.mean_relative_error == pytest.approx(0.0, abs=1e-15)
    assert rep.std_relative_error == pytest.approx(0.0, abs=1e-15)
    assert rep.n_excluded == 0


def test_eigen_error_report_known_errors():
    ref = np.array([1.0, 2.0, -4.0], dtype=complex)
    approx = np.array([1.1, 2.0, -4.0], dtype=complex)
    rep = eigen_error_report(approx, ref)
    rel = np.array([0.1, 0.0, 0.0])
    assert rep.mean_relative_error == pytest.approx(rel.mean())
    assert rep.std_relative_error == pytest.approx(rel.std())


def test_eigen_error_report_excludes_tiny_reference():
    ref = np.array([1e-16, 1.0], dtype=complex)
    rep = eigen_error_report(np.array([0.5e-16, 1.0 + 1e-3j]), ref)
    assert rep.n_excluded == 1
    assert rep.mean_relative_error == pytest.approx(1e-3, rel=1e-6)


def test_eigen_error_report_validation():
    with pytest.raises(ValueError):
        eigen_error_report(np.ones(3), np.ones(4))


def test_bauer_fike_bound_controls_matched_errors():
    rng = np.random.default_rng(6)
    n = 20
    h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    b = similarity_transform(h + h.conj().T)
    sel = select_dominant_cycles(b, 5)
    sp = sparsify(b, sel)
    bound = bauer_fike_bound(b, sp)
    # hermitian input: orthonormal eigenbasis
    assert bound.eigenvector_condition == pytest.approx(1.0, abs=1e-8)
    assert bound.delta_spectral <= np.linalg.norm(b - sp.densify(), "fro") + 1e-12
    ref = np.linalg.eigvals(b)
    rep = eigen_error_report(spectrum(keep_cycles(b, sel.indices)), ref)
    worst = np.abs(ref - rep.approx_eigenvalues[rep.matching]).max()
    assert worst <= bound.absolute * (1 + 1e-8)


def test_bauer_fike_relative_none_for_singular():
    b = np.diag([1.0, 2.0, 0.0]).astype(complex)
    sp = sparsify(b, CycleSelection.of(3, [0]))
    bound = bauer_fike_bound(b, sp)
    assert bound.relative is None
    assert bound.absolute == pytest.approx(0.0, abs=1e-14)


def test_bauer_fike_defective_matrix_raises():
    b = np.array([[2.0, 1.0], [0.0, 2.0]], dtype=complex)  # Jordan block
    sp = sparsify(b, CycleSelection.of(2, [0]))
    with pytest.raises(NumericalError):
        bauer_fike_bound(b, sp)


def _sparse_from_cycles(n, mapping):
    sel = CycleSelection.of(n, sorted(mapping))
    cycles = np.array([np.asarray(mapping[k], dtype=complex) for k in sorted(mapping)])
    return SparseCycleMatrix(n, sel, cycles)


def test_pd_check_requires_zero_cycle_and_reflection():
    n = 6
    with pytest.raises(ValueError):
        pd_sufficient_check(_sparse_from_cycles(n, {2: np.ones(n), 4: np.ones(n)}))
    with pytest.raises(ValueError):
        pd_sufficient_check(_sparse_from_cycles(n, {0: np.ones(n), 2: np.ones(n)}))


def test_pd_check_diagonal_only():
    rep = pd_sufficient_check(_sparse_from_cycles(4, {0: [4.0, 2.0, 3.0, 5.0]}))
    assert rep.holds
    assert rep.margin == pytest.approx(2.0)
    assert rep.worst_pair == (1, 1)


def test_pd_check_rejects_bad_diagonal():
    rep = pd_sufficient_check(_sparse_from_cycles(3, {0: [1.0, -2.0, 1.0]}))
    assert not rep.holds
    assert rep.margin == float("-inf")
    assert "not positive real" in rep.reason


def test_pd_check_hand_computed_margin():
    n = 2
    sp = _sparse_from_cycles(n, {0: [4.0, 9.0], 1: [2.0 + 5.0j, -1.0]})
    rep = pd_sufficient_check(sp)
    # slack at each off-diagonal position: sqrt(4*9)/2 - |Re value|
    assert rep.margin == pytest.approx(1.0)
    assert rep.worst_pair == (1, 0)
    assert rep.holds


def test_pd_check_holding_implies_pd_for_hermitian_input():
    rng = np.random.default_rng(7)
    n = 12
    diag = 2.0 + rng.random(n)
    vals = 0.05 * rng.standard_normal(n)
    cycle3 = _sparse_from_cycles(n, {3: vals}).densify()
    b = np.diag(diag) + cycle3 + cycle3.T
    sp = sparsify(b.astype(complex), CycleSelection.of(n, [0, 3, 9]))
    rep = pd_sufficient_check(sp)
    assert rep.holds
    assert np.linalg.eigvalsh(sp.densify()).min() >= -1e-12


def test_pd_check_fails_on_dominant_off_diagonal():
    n = 4
    sp = _sparse_from_cycles(
        n, {0: np.ones(n), 1: np.full(n, 3.0), 3: np.full(n, 3.0)}
    )
    rep = pd_sufficient_check(sp)
    assert not rep.holds
    assert rep.margin < 0


def _coset(n, L, w=0):
    """The coset band G + {-w, ..., w} of the L multiples of n / L."""
    return CycleSelection.of(n, [(s * (n // L) + d) % n for s in range(L) for d in range(-w, w + 1)])


def _spec(kind, n, symmetric, m=None):
    fields = {"m": m} if m else {}
    return StructuredMatrixSpec(kind=kind, n=n, seed=n, symmetric=symmetric, **fields)


@pytest.mark.parametrize(
    "spec,L,w,route,solver",
    [
        # L = 1, w = 0: cycle 0 is the spectrum
        (_spec("toeplitz", 256, True), 1, 0, "coset", "eigvalsh"),
        (_spec("toeplitz", 255, True), 1, 0, "coset", "eigvalsh"),
        (_spec("toeplitz", 255, False), 1, 0, "coset", "eigvals"),
        # L = 5: 5 x 5 blocks
        (_spec("block_toeplitz", 1000, True, 5), 5, 0, "coset", "eigvalsh"),
        (_spec("block_toeplitz", 1005, True, 5), 5, 0, "coset", "eigvalsh"),
        (_spec("block_toeplitz", 200, False, 5), 5, 0, "coset", "eigvals"),
        # g = 4 cosets are the fewest the coset route takes
        (_spec("toeplitz", 256, True), 64, 0, "coset", "eigvalsh"),
        (_spec("toeplitz", 96, False), 24, 0, "coset", "eigvals"),
        # g = 2 and 3 are left to the dense route, through its real form
        (_spec("toeplitz", 256, True), 128, 0, None, "eigvalsh"),
        (_spec("toeplitz", 99, True), 33, 0, None, "eigvalsh"),
        # w > 0, Hermitian or not: the dense route
        (_spec("toeplitz", 1000, True), 1, 1, None, "eigvalsh"),
        (_spec("toeplitz", 257, True), 1, 1, None, "eigvalsh"),
        (_spec("block_toeplitz", 1000, True, 5), 5, 1, None, "eigvalsh"),
        (_spec("toeplitz", 512, False), 1, 1, None, "eigvals"),
    ],
)
def test_cycle_spectrum_routes_agree_with_the_dense_route(spec, L, w, route, solver):
    b = similarity_transform(generate(spec)[0])
    sel = _coset(spec.n, L, w)
    assert sel.coset_envelope() == (L, w)
    solvers, dense_solvers = Counter(), Counter()
    got = cycle_spectrum(b, sel, solvers)
    want = spectrum(keep_cycles(b, sel.indices), dense_solvers)
    assert got.dtype == want.dtype == (np.float64 if solver == "eigvalsh" else np.complex128)
    if route is None:
        assert solvers == dense_solvers
        assert np.array_equal(got, want)
        return
    assert solvers == Counter({solver: 1, route: 1})
    scale = np.abs(want).max()
    if solver == "eigvalsh":
        assert np.all(np.diff(got) >= 0)
        gap = np.abs(got - want).max()
    else:
        rows, cols = scipy.optimize.linear_sum_assignment(np.abs(want[:, None] - got[None, :]))
        gap = np.abs(want[rows] - got[cols]).max()
    assert gap <= 1e-12 * scale


@pytest.mark.parametrize("n", [1, 2, 3, 12])
def test_cycle_spectrum_on_every_selection_of_a_small_matrix(n):
    # tiny n take the coset route or the dense one; each agrees with spectrum
    b = _random_b(n, n)
    hermitian = b + b.conj().T
    for m in (b, hermitian):
        for bits in range(1, 1 << n, max(1, (1 << n) // 300)):
            sel = CycleSelection.of(n, [j for j in range(n) if bits >> j & 1])
            got = cycle_spectrum(m, sel)
            want = spectrum(keep_cycles(m, sel.indices))
            assert got.dtype == want.dtype
            rows, cols = scipy.optimize.linear_sum_assignment(np.abs(want[:, None] - got[None, :]))
            assert np.abs(want[rows] - got[cols]).max() <= 1e-12 * max(np.abs(want).max(), 1.0)


def test_cycle_spectrum_dense_route_writes_into_out():
    n = 64
    b = similarity_transform(generate(_spec("toeplitz", n, True))[0])
    sel = _coset(n, 1, 4)
    out = np.empty_like(b)
    got = cycle_spectrum(b, sel, out=out)
    assert np.array_equal(out, keep_cycles(b, sel.indices))
    assert np.array_equal(got, spectrum(out))
    with pytest.raises(ValueError):
        cycle_spectrum(b, CycleSelection.of(n + 1, [0]))


def test_cycle_spectrum_rejects_non_finite_kept_values():
    # a nan on cycle 0, and entries whose squares overflow: the coset
    # route raises what the dense route raises for the same B~
    b = similarity_transform(generate(_spec("block_toeplitz", 200, True, 5))[0])
    sel = _coset(200, 5)
    nan = b.copy()
    nan[0, 0] = np.nan
    for m in (nan, 1e155 * b):
        for solve in (lambda: cycle_spectrum(m, sel), lambda: spectrum(keep_cycles(m, sel.indices))):
            with pytest.raises(NumericalError, match="not finite"):
                solve()


def test_coset_route_memory():
    # the m = 5 block coset at n = 1000: the (200, 5, 5) stack, where the
    # masked n x n matrix alone is 16 MB
    n = 1000
    b = similarity_transform(generate(_spec("block_toeplitz", n, True, 5))[0])
    sel = _coset(n, 5)
    peaks = []
    for solve in (lambda: cycle_spectrum(b, sel), lambda: keep_cycles(b, sel.indices)):
        tracemalloc.start()
        try:
            solve()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < 2 * 2**20
    assert peaks[1] >= n * n * 16
