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
    # the known indefinite mask {0, 1, n - 1} of Example 1 reports a negative margin
    assert build_cycle_preconditioner(a, 3).pd_margin < 0
    assert build_cycle_preconditioner(a, 1).pd_margin >= 0
    assert build_tchan_preconditioner(a, 3 * n).pd_margin is None
    # a selection without its reflection partners is not checked
    rng = np.random.default_rng(3)
    a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)) + 8 * np.eye(16)
    assert select_dominant_cycles(similarity_transform(a), 2).indices == (0, 5)
    assert build_cycle_preconditioner(a, 2).pd_margin is None


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
    # the corner-block mask and the certified Toeplitz layout leave every
    # iteration count and residual of this table as they were, to the bit
    out = tmp_path / "table.csv"
    argv = ["precond-table", "--n", "2000", "--budgets", "n,3n,5n", "--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    assert out.read_text().splitlines() == [
        "method,budget,iterations,converged,final_residual",
        "identity,0,683,True,6.962479298836759e-07",
        "tchan,2000,30,True,8.78781814963285e-07",
        "tchan,6000,23,True,8.266519159665129e-07",
        "tchan,10000,23,True,8.519854590600237e-07",
        "cycles,2000,30,True,8.78781814963285e-07",
        "cycles,6000,45,True,5.523706538614773e-07",
        "cycles,10000,43,True,5.303036044832205e-07",
    ]


def test_toeplitz_solves_in_linear_memory():
    # Example 1 at n = 65536: a dense A would take 64 GiB; the generator's
    # view, both builds and both solves stay within a few vectors of size n.
    # k = 3 is left out: the untapered 3-cycle mask stalls at this size
    n = 65536
    tracemalloc.start()
    try:
        a, info = generate(StructuredMatrixSpec(kind="example1", n=n))
        builds = (
            (partial(build_cycle_preconditioner, a, 1), 146),
            (partial(build_tchan_preconditioner, a, 3 * n), 91),
        )
        for build, iterations in builds:
            m = build()
            assert m.source == "toeplitz-diagonals"
            _, rep = pcg_solve(a, info["rhs"], m)
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
    ident = rows[0].iterations
    assert all(r.iterations <= ident for r in rows[1:])
    assert all(r.final_residual < 1e-6 for r in rows)
