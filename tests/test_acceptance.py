"""End-to-end acceptance checks for the library's headline guarantees.

One test per guarantee. Each pins its tolerance explicitly, and the
slow ones also enforce a wall-clock budget so regressions in the fast
paths get caught here rather than in downstream use.
"""

import time

import numpy as np
import pytest
import scipy.linalg

from cspc.core import (
    CycleSelection,
    apply_cycle_mask,
    flip_matrix,
    fourier_matrix,
    full_cycle_matrix,
    keep_cycles,
)
from cspc.decomposition import (
    circulant_decompose_recursive,
    circulant_decompose_via_transform,
    component_dense,
    cycle_decompose,
    dominance_relation,
    orthogonality_check,
    partial_energy,
    recompose,
    toeplitz_partial_energy,
    toeplitz_s0,
)
from cspc.generators import (
    StructuredMatrixSpec,
    SymbolSpec,
    banded_diag_sequence,
    gen_symbol_toeplitz,
    generate,
    with_seed,
)
from cspc.precond import (
    build_cycle_preconditioner,
    build_tchan_preconditioner,
    pcg_solve,
    precond_benchmark,
)
from cspc.sparse import (
    bauer_fike_bound,
    direct_sparsify,
    eigen_error_report,
    pd_sufficient_check,
    select_dominant_cycles,
    sparsify,
)
from cspc.transform import OpCounter, extract_cycles, inverse_similarity_transform, similarity_transform

MAGIC = np.array([[8, 1, 6], [3, 5, 7], [4, 9, 2]], dtype=float)


def _toeplitz_from_entries(entries, n):
    return scipy.linalg.toeplitz(entries[n - 1 :: -1], entries[n - 1 :]).astype(np.complex128)


def test_magic_square_ground_truth():
    t0 = time.perf_counter()
    dec = cycle_decompose(MAGIC)
    assert np.allclose(dec.cycles[0], [8, 5, 2])
    assert np.allclose(dec.cycles[1], [3, 9, 6])
    assert np.allclose(dec.cycles[2], [1, 7, 4])
    assert np.allclose(dec.densify(), MAGIC, atol=1e-12)

    root3 = np.sqrt(3.0)
    expected_rows = np.array(
        [
            [5.0, 4.0, 6.0],
            [1.5 - root3 / 2 * 1j, root3 * 1j, -1.5 - root3 / 2 * 1j],
            [1.5 + root3 / 2 * 1j, -root3 * 1j, -1.5 + root3 / 2 * 1j],
        ]
    )
    for route in (circulant_decompose_recursive, circulant_decompose_via_transform):
        f = route(MAGIC)
        assert np.abs(f - expected_rows).max() < 1e-12
        assert np.abs(recompose(f) - MAGIC).max() < 1e-12
    assert time.perf_counter() - t0 < 1.0


def test_transform_identity_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    for n in (2, 3, 4, 8, 16, 31, 64, 128, 257, 512):
        w = fourier_matrix(n)
        assert np.abs(w @ w - full_cycle_matrix(n) @ flip_matrix(n)).max() < 1e-10

        d = np.exp(2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n)
        gram = d.conj() @ d.T
        assert np.abs(gram - n * np.eye(n)).max() < 1e-10 * n

        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        b = similarity_transform(a)
        na, nb = np.linalg.norm(a, "fro"), np.linalg.norm(b, "fro")
        assert abs(na - nb) < 1e-12 * na
        assert np.abs(inverse_similarity_transform(b) - a).max() < 1e-10

        f = circulant_decompose_via_transform(a)
        ks = range(n) if n <= 64 else rng.choice(n, size=12, replace=False)
        assert orthogonality_check([component_dense(f[k], k) for k in ks]) < 1e-10
    assert time.perf_counter() - t0 < 30.0


def test_dominance_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    checked = 0
    for kind in ("toeplitz", "block_toeplitz", "quasi_periodic", "dense"):
        for trial in range(25):
            seed = int(rng.integers(0, 2**31))
            if kind == "toeplitz":
                n = int(rng.integers(8, 129))
                a, _ = generate(StructuredMatrixSpec(kind="toeplitz", n=n, seed=seed,
                                                     symmetric=bool(trial % 2)))
            elif kind == "block_toeplitz":
                m = int(rng.choice([2, 4, 8]))
                n = m * int(rng.integers(2, 128 // m + 1))
                a, _ = generate(StructuredMatrixSpec(kind="block_toeplitz", n=n, m=m, seed=seed))
            elif kind == "quasi_periodic":
                n = int(rng.integers(12, 129))
                periods = tuple(int(p) for p in rng.choice(range(2, 11), size=3, replace=False))
                a, _ = generate(StructuredMatrixSpec(kind="quasi_periodic", n=n,
                                                     periods=periods, seed=seed))
            else:
                n = int(rng.integers(8, 129))
                a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            size = int(rng.integers(1, n // 2 + 2))
            freqs = rng.choice(n, size=size, replace=False)
            report = dominance_relation(a, CycleSelection.of(n, sorted(int(f) for f in freqs)))
            assert abs(report.relative_magnitude - report.weighted_sum) <= 1e-9
            checked += 1
    assert checked == 100
    assert time.perf_counter() - t0 < 60.0


def test_toeplitz_closed_forms():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(4, 65))
        entries = rng.standard_normal(2 * n - 1) + 1j * rng.standard_normal(2 * n - 1)
        a = _toeplitz_from_entries(entries, n)
        b = similarity_transform(a)
        w0 = np.linalg.norm(apply_cycle_mask(b, 0)) ** 2 / np.linalg.norm(b, "fro") ** 2
        assert abs(toeplitz_s0(entries) - w0) <= 1e-9
        for i in rng.integers(1, n, size=3):
            i = int(i)
            for k in rng.integers(1, n, size=4):
                k = int(k)
                oracle = partial_energy(apply_cycle_mask(a, i), CycleSelection.of(n, [k]))
                assert abs(toeplitz_partial_energy(entries, i, k) - oracle) <= 1e-9

    # circulant layout: every cycle is constant, all weight sits on cycle 0
    for _ in range(5):
        n = int(rng.integers(3, 33))
        row = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        entries = np.concatenate([row[1:], [row[0]], row[1:]])
        assert abs(toeplitz_s0(entries) - 1.0) <= 1e-12

    # opposing diagonal pairs (n-i)a_{-i} = -i a_{n-i} cancel in the mean,
    # pinning the cycle-0 weight to its lower bound n|a0|^2 / |A|_F^2
    for _ in range(5):
        n = int(rng.integers(4, 33))
        entries = np.zeros(2 * n - 1, dtype=np.complex128)
        a0 = rng.standard_normal() + 1j * rng.standard_normal()
        entries[n - 1] = a0
        for i in range(1, n):
            c = rng.standard_normal() + 1j * rng.standard_normal()
            entries[n - 1 - i] = i * c
            entries[2 * n - 1 - i] = -(n - i) * c
        frob2 = n * abs(a0) ** 2 + sum(
            (n - i) * abs(entries[n - 1 - i]) ** 2 + i * abs(entries[2 * n - 1 - i]) ** 2
            for i in range(1, n)
        )
        bound = n * abs(a0) ** 2 / frob2
        assert abs(toeplitz_s0(entries) - bound) <= 1e-10


def test_eigenvalue_error_trend():
    t0 = time.perf_counter()
    spec = StructuredMatrixSpec(kind="toeplitz", n=256, symmetric=True)
    means = {1: [], 64: [], 256: []}
    for seed in range(10):
        a, _ = generate(with_seed(spec, seed))
        ref = np.linalg.eigvals(a)
        b = similarity_transform(a)
        for k in means:
            sp = sparsify(b, select_dominant_cycles(b, k))
            rep = eigen_error_report(np.linalg.eigvals(sp.densify()), ref)
            means[k].append(rep.mean_relative_error)
    assert np.mean(means[64]) <= 0.5 * np.mean(means[1])
    assert max(means[256]) < 1e-10
    assert time.perf_counter() - t0 < 300.0


def test_bauer_fike_bound_holds():
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = int(rng.integers(16, 49))
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        k = int(rng.integers(max(n // 4, 1), n))
        sp = sparsify(b, select_dominant_cycles(b, k))
        bound = bauer_fike_bound(b, sp)
        rep = eigen_error_report(np.linalg.eigvals(sp.densify()), np.linalg.eigvals(b))
        errs = np.abs(rep.reference_eigenvalues - rep.approx_eigenvalues[rep.matching])
        assert errs.max() <= bound.absolute * (1 + 1e-8)


def test_pd_sufficient_condition():
    rng = np.random.default_rng(4)
    held = 0
    for _ in range(100):
        n = int(rng.integers(8, 65))
        sel = {0}
        for _ in range(int(rng.integers(1, 4))):
            j = int(rng.integers(1, n))
            sel |= {j, (n - j) % n}
        off = sorted(sel - {0})
        r = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = r + r.conj().T
        b_off = keep_cycles(h, off)
        d = rng.uniform(2.0, 3.0, size=n)
        eps = 0.5 * (d.min() / len(off)) / np.abs(b_off).max()
        dense = np.diag(d.astype(np.complex128)) + eps * b_off
        sp = sparsify(dense, CycleSelection.of(n, sorted(sel)))
        assert pd_sufficient_check(sp).holds
        evs = np.linalg.eigvalsh(sp.densify())
        assert evs.min() >= -1e-10 * np.abs(evs).max()
        held += 1
    assert held == 100

    # a dominant off-diagonal cycle breaks both the condition and definiteness
    n = 8
    dense = np.eye(n, dtype=np.complex128)
    strong = 5.0 * keep_cycles(np.ones((n, n)), [1, n - 1])
    sp = sparsify(dense + strong, CycleSelection.of(n, [0, 1, n - 1]))
    assert not pd_sufficient_check(sp).holds
    assert np.linalg.eigvalsh(sp.densify()).min() < 0


def _decayed_block_toeplitz(n, m, rho, seed):
    # mass concentrated near the main block diagonal: the regime where the
    # n/m-comb of cycles carries nearly all of the energy
    nb = n // m
    rng = np.random.Generator(np.random.PCG64(seed))
    upper = rng.standard_normal((nb, m, m))
    upper = (upper + upper.transpose(0, 2, 1)) / 2
    upper *= rho ** np.arange(nb)[:, None, None]
    blocks = np.concatenate([upper[:0:-1], upper])
    bi = np.arange(nb)
    sel = blocks[(bi[None, :] - bi[:, None]) + nb - 1]
    return sel.transpose(0, 2, 1, 3).reshape(n, n).astype(np.complex128)


def test_preconditioner_iteration_table():
    t0 = time.perf_counter()
    spec = StructuredMatrixSpec(kind="example1", n=2000)
    rows = precond_benchmark(spec, [2000, 6000, 10000, 14000, 18000], tol=1e-6)
    by = {(r.method, r.budget): r.iterations for r in rows}
    assert all(r.converged for r in rows)
    assert abs(by[("identity", 0)] - 683) <= 0.15 * 683
    assert abs(by[("cycles", 2000)] - 30) <= 0.15 * 30
    for budget in (6000, 10000, 14000, 18000):
        assert abs(by[("tchan", budget)] - 23) <= 0.20 * 23

    n, m = 1100, 11
    a = _decayed_block_toeplitz(n, m, rho=0.5, seed=0)
    evs = np.linalg.eigvalsh(a.real)
    lo, hi = evs[0], evs[-1]
    a = a + ((hi - lo) / (1e4 - 1.0) - lo) * np.eye(n)
    rhs = np.arange(1, n + 1, dtype=np.complex128)
    _, plain = pcg_solve(a, rhs, tol=1e-6)
    _, cyc = pcg_solve(a, rhs, m=build_cycle_preconditioner(a, 11), tol=1e-6)
    assert cyc.converged and plain.converged
    assert cyc.iterations <= 0.25 * plain.iterations
    tchan_iters = []
    for budget in (3 * n, 7 * n, 11 * n):
        _, rep = pcg_solve(a, rhs, m=build_tchan_preconditioner(a, budget), tol=1e-6)
        assert rep.converged
        tchan_iters.append(rep.iterations)
    assert max(tchan_iters) - min(tchan_iters) <= 0.10 * min(tchan_iters)
    assert time.perf_counter() - t0 < 600.0


def test_banded_symbol_identity():
    rng = np.random.default_rng(5)
    n = 100
    for _ in range(50):
        l = int(rng.integers(0, 7))
        u = int(rng.integers(0 if l else 1, 7))
        coeffs = rng.standard_normal(l + u + 1) + 1j * rng.standard_normal(l + u + 1)
        a0 = coeffs[0]
        fr = np.concatenate([[a0], coeffs[1 : 1 + u]])
        fc = np.concatenate([[a0], coeffs[1 + u :]])
        trig = {0: a0}
        trig.update({k + 1: c for k, c in enumerate(fr[1:])})
        trig.update({-(k + 1): c for k, c in enumerate(fc[1:])})
        sym = SymbolSpec(form="banded", trig=trig)
        diag = np.diag(similarity_transform(gen_symbol_toeplitz(sym, n)))
        assert np.abs(banded_diag_sequence(fr, fc, n) - diag).max() <= 1e-10


def test_pruned_transform_correctness():
    rng = np.random.default_rng(6)
    sizes = (8, 12, 16, 32, 50, 64, 100, 128)
    for _ in range(200):
        n = int(rng.choice(sizes))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        size = int(rng.integers(1, n + 1))
        sel = CycleSelection.of(n, sorted(int(j) for j in rng.choice(n, size=size, replace=False)))
        sp = extract_cycles(a, sel)
        b = similarity_transform(a)
        for t, j in enumerate(sel.indices):
            assert np.abs(sp.cycles[t] - apply_cycle_mask(b, j)).max() <= 1e-10

    for n in (64, 256, 1024):
        a = rng.standard_normal((n, n))
        counter = OpCounter()
        extract_cycles(a, CycleSelection.of(n, [int(rng.integers(0, n))]), counter)
        assert counter.per_vector <= 2 * (n - 1) + 4 * n


def test_sparsifier_comparison():
    spec = StructuredMatrixSpec(kind="toeplitz", n=100)
    cycle_mags, direct_mags = [], []
    for seed in range(20):
        a, _ = generate(with_seed(spec, seed))
        b = similarity_transform(a)
        sp = sparsify(b, select_dominant_cycles(b, 5))
        assert sp.nnz == 500
        cycle_mags.append(np.abs(np.linalg.eigvals(sp.densify())))
        direct_mags.append(np.abs(np.linalg.eigvals(direct_sparsify(a, 500))))
    assert np.mean(np.concatenate(cycle_mags)) >= np.mean(np.concatenate(direct_mags))
