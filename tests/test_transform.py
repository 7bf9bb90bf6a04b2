import numpy as np
import pytest

from cspc.core import CycleSelection, apply_cycle_mask, fourier_matrix
from cspc.decomposition import circulant_dense
from cspc.transform import (
    OpCounter,
    extract_cycles,
    inverse_similarity_transform,
    similarity_transform,
)


@pytest.mark.parametrize("n", [2, 3, 7, 8, 16])
def test_similarity_transform_equals_triple_product(n):
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    w = fourier_matrix(n)
    assert np.allclose(similarity_transform(a), w @ a @ w.conj().T, atol=1e-12)


@pytest.mark.parametrize("n", [2, 5, 16, 64])
def test_similarity_round_trip(n):
    rng = np.random.default_rng(n + 100)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    assert np.allclose(inverse_similarity_transform(similarity_transform(a)), a, atol=1e-12)
    assert np.allclose(similarity_transform(inverse_similarity_transform(a)), a, atol=1e-12)


def test_transform_preserves_frobenius_norm():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((33, 33)) + 1j * rng.standard_normal((33, 33))
    assert np.linalg.norm(similarity_transform(a)) == pytest.approx(np.linalg.norm(a))


def test_circulant_becomes_diagonal():
    # eigenvalues of a first-row circulant are the positive-kernel DFT of
    # that row, sum_p r(p) exp(+2i*pi*p*k/n) = n * ifft(r)
    rng = np.random.default_rng(8)
    n = 12
    r = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    b = similarity_transform(circulant_dense(r))
    assert np.allclose(b, np.diag(n * np.fft.ifft(r)), atol=1e-12)


def _reference_cycles(a, sel):
    b = similarity_transform(a)
    return apply_cycle_mask(b, sel.indices)


@pytest.mark.parametrize("n,indices", [
    (8, [0]),
    (8, [3]),
    (8, [5]),
    (8, [0, 4]),
    (16, [0, 3, 11]),
    (16, list(range(16))),
    (64, [0, 1, 32, 63]),
])
def test_extract_cycles_matches_masked_transform(n, indices):
    rng = np.random.default_rng(n + len(indices))
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    sel = CycleSelection.of(n, indices)
    got = extract_cycles(a, sel)
    assert got.selection == sel
    assert np.allclose(got.cycles, _reference_cycles(a, sel), atol=1e-10)


@pytest.mark.parametrize("fallback", [0, 1])
def test_extract_cycles_both_kernel_paths(fallback):
    # Power-of-two n runs the pruned kernel and counts its operations; any
    # other n falls back to the full transform plus masking, uncounted.
    n = 24 if fallback else 32
    rng = np.random.default_rng(42)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    sel = CycleSelection.of(n, [0, 7, 16, 23])
    counter = OpCounter()
    got = extract_cycles(a, sel, counter)
    assert (counter.ops is None) == bool(fallback)
    assert np.allclose(got.cycles, _reference_cycles(a, sel), atol=1e-10)


def test_extract_cycles_non_power_of_two_falls_back():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    sel = CycleSelection.of(12, [0, 5])
    counter = OpCounter()
    got = extract_cycles(a, sel, counter)
    assert counter.ops is None
    assert np.allclose(got.cycles, _reference_cycles(a, sel), atol=1e-10)


def test_extract_cycles_validation():
    a = np.eye(8, dtype=complex)
    with pytest.raises(ValueError):
        extract_cycles(a, CycleSelection.of(4, [0]))
    with pytest.raises(ValueError):
        extract_cycles(a, CycleSelection.of(8, []))


@pytest.mark.parametrize("n", [64, 256, 1024])
def test_single_cycle_op_count(n):
    a = np.random.default_rng(n).standard_normal((n, n)) + 0j
    counter = OpCounter()
    extract_cycles(a, CycleSelection.of(n, [1]), counter)
    assert counter.vectors == n
    # one output cone: n-1 butterfly writes per vector, under the 2(n-1) bound
    assert counter.per_vector == n - 1
    assert counter.per_vector <= 2 * (n - 1)


def test_full_selection_op_count_is_full_fft():
    n = 64
    a = np.random.default_rng(0).standard_normal((n, n)) + 0j
    counter = OpCounter()
    extract_cycles(a, CycleSelection.of(n, range(n)), counter)
    assert counter.per_vector == n * np.log2(n)


def test_op_counter_accumulates_across_calls():
    n = 16
    a = np.random.default_rng(1).standard_normal((n, n)) + 0j
    counter = OpCounter()
    extract_cycles(a, CycleSelection.of(n, [2]), counter)
    first = counter.ops
    extract_cycles(a, CycleSelection.of(n, [2]), counter)
    assert counter.ops == 2 * first
    assert counter.vectors == 2 * n


def test_op_counter_empty():
    assert OpCounter().per_vector is None
