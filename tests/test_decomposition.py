"""Cycle and circulant-component decompositions against hand-checked values
on the 3x3 magic square, plus the norm identities they must satisfy."""

import tracemalloc

import numpy as np
import pytest

import cspc.decomposition as decomposition_mod
from cspc.core import (
    ConfigError,
    CycleSelection,
    NumericalError,
    Toeplitz,
    apply_cycle_mask,
    cycle_positions,
    fourier_matrix,
)
from cspc.decomposition import (
    circulant_decompose_recursive,
    circulant_decompose_via_transform,
    circulant_dense,
    component_dense,
    cycle_decompose,
    cycle_weights,
    dominance_relation,
    index_reflect,
    orthogonality_check,
    partial_energy,
    recompose,
    toeplitz_partial_energy,
    toeplitz_s0,
)
from cspc.sparse import SparseCycleMatrix
from cspc.transform import similarity_transform

MAGIC = np.array([[8, 1, 6], [3, 5, 7], [4, 9, 2]], dtype=float)

ROOT3 = np.sqrt(3.0)
MAGIC_FIRST_ROWS = np.array(
    [
        [5.0, 4.0, 6.0],
        [1.5 - ROOT3 / 2 * 1j, ROOT3 * 1j, -1.5 - ROOT3 / 2 * 1j],
        [1.5 + ROOT3 / 2 * 1j, -ROOT3 * 1j, -1.5 + ROOT3 / 2 * 1j],
    ]
)


def test_cycle_decompose_magic_square():
    dec = cycle_decompose(MAGIC)
    assert isinstance(dec, SparseCycleMatrix)
    assert dec.selection.indices == (0, 1, 2)
    assert np.array_equal(dec.cycle(1), dec.cycles[1])
    assert np.allclose(dec.cycles[0], [8, 5, 2])
    assert np.allclose(dec.cycles[1], [3, 9, 6])
    assert np.allclose(dec.cycles[2], [1, 7, 4])
    assert np.allclose(dec.densify(), MAGIC)


def test_cycle_decompose_recompose_random():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((11, 11)) + 1j * rng.standard_normal((11, 11))
    assert np.allclose(cycle_decompose(a).densify(), a, atol=1e-14)


def test_cycle_decompose_holds_one_n_by_n_array():
    # filled block by block from the cycle reader; the n x n gather
    # apply_cycle_mask(a, range(n)) also built two n x n int64 index arrays
    n = 512
    a = np.random.default_rng(6).standard_normal((n, n)) + 0j
    tracemalloc.start()
    try:
        dec = cycle_decompose(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * n * n * 16
    assert np.array_equal(dec.cycles, apply_cycle_mask(a, range(n)))


@pytest.mark.parametrize("route", [circulant_decompose_recursive, circulant_decompose_via_transform])
def test_circulant_decompose_magic_square(route):
    f = route(MAGIC)
    assert f.shape == (3, 3) and f.dtype == np.complex128
    assert np.allclose(f, MAGIC_FIRST_ROWS, atol=1e-12)
    assert np.allclose(recompose(f), MAGIC, atol=1e-12)


def test_circulant_routes_agree():
    rng = np.random.default_rng(5)
    for n in (2, 4, 9, 16):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        rec = circulant_decompose_recursive(a)
        via = circulant_decompose_via_transform(a)
        assert np.allclose(rec, via, atol=1e-10)
        assert np.allclose(recompose(rec), a, atol=1e-10)


@pytest.mark.parametrize("n", [1, 2, 7, 8, 31, 64])
def test_both_routes_return_one_array_of_first_rows(n):
    rng = np.random.default_rng(n + 900)
    for a in (rng.standard_normal((n, n)), rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))):
        rec = circulant_decompose_recursive(a)
        via = circulant_decompose_via_transform(a)
        for f in (rec, via):
            assert isinstance(f, np.ndarray) and f.shape == (n, n) and f.dtype == np.complex128
        assert np.abs(rec - via).max() <= 1e-12 * np.abs(a).max()


def test_via_transform_is_a_view_of_one_array():
    # F is the transposed view of the one array the walk spectra are
    # written into: its rows are disjoint strided views of that buffer
    a = np.random.default_rng(17).standard_normal((16, 16))
    f = circulant_decompose_via_transform(a)
    assert f.base is not None and f.base.shape == (16, 16)
    assert f[0].base is f.base and f[-1].base is f.base
    assert np.may_share_memory(f[0], f[-1]) and not f[0].flags.owndata


@pytest.mark.parametrize("n", [7, 8, 60, 64])
def test_via_transform_matches_b_formula(n):
    # oracle: first row of R_k from B = W A W*, the fft of B's cycle k
    # read down the columns with the relaxation phases divided out
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    b = similarity_transform(a)
    q = np.arange(n)
    got = circulant_decompose_via_transform(a)
    expect = np.array(
        [np.fft.fft(b[(q + k) % n, q]) / n * np.exp(-2j * np.pi * ((k * q) % n) / n) for k in range(n)]
    )
    assert got.shape == (n, n)
    assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()


@pytest.mark.parametrize("n", [1, 2, 7, 8, 31, 64])
def test_real_routes_match_oracles(n):
    # a real A (float64 or complex with Im exactly 0) takes the rfft in
    # circulant_decompose_via_transform and in dominance_relation's A side
    rng = np.random.default_rng(n + 300)
    a = rng.standard_normal((n, n))
    sel = CycleSelection.of(n, [0, 1 % n, n // 2, n - 1])
    w = fourier_matrix(n)
    b = w @ a @ w.conj().T
    direct = np.linalg.norm(apply_cycle_mask(b, index_reflect(sel).indices)) ** 2 / np.linalg.norm(b) ** 2
    cycles = apply_cycle_mask(a, range(n))
    energies = [partial_energy(c, sel) for c in cycles]
    for real_a in (a, a + 0j):
        via = circulant_decompose_via_transform(real_a)
        rec = circulant_decompose_recursive(real_a)
        assert via.shape == (n, n)
        assert np.abs(rec - via).max() <= 1e-12 * np.abs(a).max()
        assert np.array_equal(via[n - 1 : 0 : -1], via[1:].conj())
        assert np.allclose(recompose(via), a, atol=1e-12)

        rep = dominance_relation(real_a, sel)
        assert rep.relative_magnitude == pytest.approx(direct, abs=1e-12)
        assert rep.weighted_sum == pytest.approx(direct, abs=1e-12)
        assert np.abs(rep.partial_energies - energies).max() <= 1e-14


def _via_put_along_axis(a):
    """circulant_decompose_via_transform's first rows by the index route:
    all cycles gathered in reading order, scattered to their column walks
    with np.put_along_axis, one FFT each."""
    a = np.asarray(a, dtype=np.complex128)
    n = a.shape[0]
    real = not a.imag.any()
    rows, cols = cycle_positions(n, range(n))
    walks = np.empty((n, n), dtype=np.float64 if real else np.complex128)
    np.put_along_axis(walks, cols, a.real[rows, cols] if real else a[rows, cols], axis=1)
    spectra = (np.fft.rfft if real else np.fft.fft)(walks, axis=1, norm="forward")
    first_rows = np.empty((n, n), dtype=np.complex128)
    first_rows[: spectra.shape[1], (-np.arange(n)) % n] = spectra.T
    if real:
        np.conjugate(first_rows[1 : (n + 1) // 2], out=first_rows[n - 1 : n // 2 : -1])
    return first_rows


@pytest.mark.parametrize("n", [1, 7, 8, 256, 300])
def test_via_transform_matches_the_index_route_bit_for_bit(n):
    rng = np.random.default_rng(n + 700)
    complex_a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    toeplitz = Toeplitz(rng.standard_normal(2 * n - 1) + 0j).dense()
    for a in (complex_a, complex_a.real, complex_a.T, toeplitz, toeplitz * 1j):
        assert np.array_equal(circulant_decompose_via_transform(a), _via_put_along_axis(a))


def test_via_transform_never_forms_b(monkeypatch):
    def refuse(a):
        raise AssertionError("similarity_transform called")

    monkeypatch.setattr(decomposition_mod, "similarity_transform", refuse)
    a = np.random.default_rng(3).standard_normal((16, 16))
    assert np.allclose(recompose(circulant_decompose_via_transform(a)), a, atol=1e-12)


def test_via_transform_memory():
    # the n first rows are one n x n array, filled block by block; forming
    # B first, as a similarity transform would, peaks at about twice that
    n = 1024
    a = np.random.default_rng(4).standard_normal((n, n)) + 0j
    tracemalloc.start()
    try:
        circulant_decompose_via_transform(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * n * n * 16


def test_component_dense_structure():
    r = np.array([1.0, 2.0, 3.0])
    circ = circulant_dense(r)
    for p in range(3):
        for q in range(3):
            assert circ[p, q] == r[(q - p) % 3]
    d = np.exp(2j * np.pi * np.arange(3) / 3)
    assert np.allclose(component_dense(r, 1), circ * d[None, :])


def _components(f):
    """The dense R_k D_k of every row of F."""
    return [component_dense(row, k) for k, row in enumerate(f)]


def test_components_sum_to_matrix():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((8, 8))
    f = circulant_decompose_via_transform(a)
    assert np.allclose(sum(_components(f)), a, atol=1e-12)


def test_component_validation():
    with pytest.raises(ValueError):
        component_dense(np.zeros((2, 2)), 0)
    with pytest.raises(ValueError):
        recompose(np.ones((1, 3)))


def test_partial_recompose_is_a_component_sum():
    # zeroing rows of F keeps a subset of components, and recompose gives
    # the approximation they sum to
    f = circulant_decompose_via_transform(MAGIC)
    partial = np.zeros_like(f)
    partial[0] = f[0]
    assert np.allclose(recompose(partial), component_dense(f[0], 0))


def test_orthogonality_of_components():
    comps = _components(circulant_decompose_recursive(MAGIC))
    assert orthogonality_check(comps) < 1e-12
    rng = np.random.default_rng(7)
    a = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
    assert orthogonality_check(_components(circulant_decompose_recursive(a))) < 1e-12
    with pytest.raises(ValueError):
        orthogonality_check(comps[:1])


def test_parseval_split_across_components():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    total = sum(np.linalg.norm(c) ** 2 for c in _components(circulant_decompose_via_transform(a)))
    assert total == pytest.approx(np.linalg.norm(a) ** 2)


def test_cycle_weights_sum_to_one():
    rng = np.random.default_rng(9)
    b = rng.standard_normal((13, 13)) + 1j * rng.standard_normal((13, 13))
    w = cycle_weights(b)
    assert w.shape == (13,)
    assert w.sum() == pytest.approx(1.0)
    assert (w >= 0).all()


def test_cycle_weights_circulant_concentrates():
    r = np.array([3.0, 1.0, -2.0, 0.5])
    b = similarity_transform(circulant_dense(r))
    w = cycle_weights(b)
    assert w[0] == pytest.approx(1.0)
    assert np.abs(w[1:]).max() < 1e-14


def test_cycle_weights_zero_matrix():
    with pytest.raises(ValueError):
        cycle_weights(np.zeros((4, 4)))


def test_partial_energy_pure_tone():
    n = 16
    tone = np.exp(-2j * np.pi * 3 * np.arange(n) / n)
    assert partial_energy(tone, CycleSelection.of(n, [3])) == pytest.approx(1.0)
    assert partial_energy(tone, CycleSelection.of(n, [0, 5])) == pytest.approx(0.0, abs=1e-14)
    assert partial_energy(np.ones(n), CycleSelection.of(n, [0])) == pytest.approx(1.0)


def test_partial_energy_complement_sums_to_one():
    rng = np.random.default_rng(10)
    c = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    sel = CycleSelection.of(12, [0, 2, 7])
    assert partial_energy(c, sel) + partial_energy(c, sel.complement()) == pytest.approx(1.0)


def test_partial_energy_errors():
    with pytest.raises(ValueError):
        partial_energy(np.zeros(8), CycleSelection.of(8, [0]))
    with pytest.raises(ValueError):
        partial_energy(np.ones(8), CycleSelection.of(4, [0]))


def test_index_reflect():
    sel = CycleSelection.of(8, [0, 1, 3])
    assert index_reflect(sel).indices == (0, 5, 7)
    assert index_reflect(index_reflect(sel)) == sel


@pytest.mark.parametrize("n", [8, 12, 31])
def test_dominance_identity_random(n):
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    sel = CycleSelection.of(n, [0, 2, n // 2])
    rep = dominance_relation(a, sel)
    assert rep.relative_magnitude == pytest.approx(rep.weighted_sum, abs=1e-12)
    assert rep.weights.shape == (n,)
    assert rep.partial_energies.shape == (n,)
    assert 0 <= rep.relative_magnitude <= 1 + 1e-12


@pytest.mark.parametrize("n", [60, 64])
def test_dominance_batched_terms_match_per_cycle(n):
    rng = np.random.default_rng(n + 1)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a[cycle_positions(n, 5)] = 0  # a zero cycle carries weight 0 and energy 0
    sel = CycleSelection.of(n, [0, 1, n // 2, n - 1])
    rep = dominance_relation(a, sel)
    total = np.linalg.norm(a) ** 2
    cycles = apply_cycle_mask(a, range(n))
    weights = [np.linalg.norm(c) ** 2 / total for c in cycles]
    energies = [partial_energy(c, sel) if w > 0 else 0.0 for c, w in zip(cycles, weights)]
    assert rep.weights[5] == 0 and rep.partial_energies[5] == 0
    assert np.abs(rep.weights - weights).max() <= 1e-15
    assert np.abs(rep.partial_energies - energies).max() <= 1e-15


@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
@pytest.mark.parametrize("n", [9, 10])
def test_dominance_measures_reflected_cycles(n, real):
    # the cycles of B captured by frequency set S are those with indices in
    # the reflection of S, not S itself; {1, 4} is not reflection-closed,
    # so it catches a wrong sign of the spectrum bin (-j) mod n
    rng = np.random.default_rng(11)
    a = rng.standard_normal((n, n))
    if not real:
        a = a + 1j * rng.standard_normal((n, n))
    sel = CycleSelection.of(n, [1, 4])
    b = similarity_transform(a)
    kept = index_reflect(sel)
    direct = sum(
        np.linalg.norm(apply_cycle_mask(b, j)) ** 2 for j in kept.indices
    ) / np.linalg.norm(b) ** 2
    rep = dominance_relation(a, sel)
    assert rep.relative_magnitude == pytest.approx(direct)
    assert rep.weighted_sum == pytest.approx(direct, abs=1e-12)


def test_dominance_validation():
    with pytest.raises(ValueError):
        dominance_relation(np.zeros((4, 4)), CycleSelection.of(4, [0]))
    with pytest.raises(ValueError):
        dominance_relation(np.eye(4), CycleSelection.of(5, [0]))


def _random_toeplitz_entries(rng, n):
    return rng.standard_normal(2 * n - 1) + 1j * rng.standard_normal(2 * n - 1)


def _toeplitz_from_entries(entries, n):
    a = np.empty((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            a[i, j] = entries[(j - i) + n - 1]
    return a


def test_toeplitz_s0_matches_transform():
    rng = np.random.default_rng(12)
    n = 16
    entries = _random_toeplitz_entries(rng, n)
    a = _toeplitz_from_entries(entries, n)
    w = cycle_weights(similarity_transform(a))
    assert toeplitz_s0(entries) == pytest.approx(w[0], abs=1e-12)


def test_toeplitz_s0_circulant_is_one():
    # circulant wrap: a_{-i} equals a_{n-i}, the zero cycle takes everything
    rng = np.random.default_rng(13)
    n = 12
    row = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    entries = np.concatenate([row[1:], [row[0]], row[1:]])
    assert toeplitz_s0(entries) == pytest.approx(1.0, abs=1e-12)


def test_toeplitz_partial_energy_matches_oracle():
    # the formula describes cycles of the Toeplitz matrix itself, the same
    # quantity dominance_relation feeds into the weighted sum
    rng = np.random.default_rng(14)
    n = 16
    entries = _random_toeplitz_entries(rng, n)
    a = _toeplitz_from_entries(entries, n)
    for i in (1, 5, 8, n - 1):
        for k in range(1, n):
            oracle = partial_energy(apply_cycle_mask(a, i), CycleSelection.of(n, [k]))
            assert toeplitz_partial_energy(entries, i, k) == pytest.approx(oracle, abs=1e-12)


def test_toeplitz_closed_form_validation():
    with pytest.raises(ValueError):
        toeplitz_s0(np.ones(4))  # needs odd length 2n-1
    with pytest.raises(ValueError):
        toeplitz_s0(np.zeros(5))
    entries = np.ones(9)
    with pytest.raises(ValueError):
        toeplitz_partial_energy(entries, 0, 1)
    with pytest.raises(ValueError):
        toeplitz_partial_energy(entries, 1, 0)


def test_toeplitz_partial_energy_zero_cycle():
    # kill cycle 2 of the transform: (n-i) a_{-i} + i a_{n-i} != 0 is fine,
    # a_{-i} = a_{n-i} = 0 makes the cycle vanish
    n = 8
    entries = np.ones(2 * n - 1, dtype=complex)
    entries[n - 1 - 2] = 0.0
    entries[n - 1 + (n - 2)] = 0.0
    with pytest.raises(ValueError):
        toeplitz_partial_energy(entries, 2, 1)


def test_block_toeplitz_sets_capture_block_circulant():
    # a matrix built from blocks repeating with period m has all its mass on
    # the identified cycles
    n, m = 12, 3
    rng = np.random.default_rng(15)
    block = rng.standard_normal((m, m))
    a = np.tile(block, (n // m, n // m))
    s = CycleSelection.of(n, range(0, n, n // m))
    rep = dominance_relation(a, s)
    assert rep.relative_magnitude == pytest.approx(1.0, abs=1e-12)
