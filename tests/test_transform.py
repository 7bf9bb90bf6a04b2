import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from cspc.core import (
    CycleSelection,
    Toeplitz,
    apply_cycle_mask,
    cycle_norms,
    fourier_matrix,
    reflection_defect,
)
from cspc.decomposition import circulant_dense, toeplitz_s0
from cspc.generators import StructuredMatrixSpec, gen_example1, generate
from cspc.sparse import selections_from_norms, sparsify
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


@pytest.mark.parametrize("n", [1, 2, 3, 16, 27, 64, 255, 256, 1000])
def test_real_route_matches_complex_formula(n):
    # a real A (float64, or complex with Im exactly +-0.0) takes the
    # half-spectrum route; a complex A keeps the two full FFT passes
    rng = np.random.default_rng(n + 200)
    a = rng.standard_normal((n, n))
    expect = np.fft.ifft(np.fft.fft(a + 0j, axis=0), axis=1)
    negative_zero = a + 0j
    negative_zero.imag = -0.0
    for real_a in (a, a + 0j, negative_zero):
        b = similarity_transform(real_a)
        assert b.dtype == np.complex128
        assert np.abs(b - expect).max() <= n * np.finfo(float).eps * np.abs(expect).max()
        assert reflection_defect(b) == 0.0
    c = a + 1j * rng.standard_normal((n, n))
    assert np.array_equal(similarity_transform(c), np.fft.ifft(np.fft.fft(c, axis=0), axis=1))


def test_real_route_memory():
    # B itself, the half spectrum of n // 2 + 1 rows and FFT scratch
    n = 1024
    a = np.random.default_rng(5).standard_normal((n, n)) + 0j
    tracemalloc.start()
    try:
        similarity_transform(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * n * n * 16


@pytest.mark.parametrize("n", [1000, 1024])
def test_real_route_writes_b_in_place(n):
    # both FFT passes write into B: beside it only O(n) scratch
    a = np.random.default_rng(n).standard_normal((n, n))
    tracemalloc.start()
    try:
        b = similarity_transform(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * b.nbytes
    assert np.array_equal(b, similarity_transform(a + 0j))


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


@pytest.mark.parametrize("streamed", [0, 1])
def test_extract_cycles_both_kernel_paths(streamed):
    # Up to log2 n cycles stream from A's cycles and are counted; one more
    # takes the full transform plus masking, uncounted and bit-identical.
    for n in (24, 32):
        rng = np.random.default_rng(42 + n)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        k = int(np.log2(n)) + (not streamed)
        sel = CycleSelection.of(n, rng.choice(n, size=k, replace=False))
        counter = OpCounter()
        got = extract_cycles(a, sel, counter)
        assert (counter.ops is not None) == bool(streamed)
        if streamed:
            assert np.allclose(got.cycles, _reference_cycles(a, sel), atol=1e-12)
        else:
            assert np.array_equal(got.cycles, _reference_cycles(a, sel))


def test_extract_cycles_non_power_of_two_falls_back():
    # n = 12 is no obstacle: two cycles stream and are counted
    n = 12
    rng = np.random.default_rng(9)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    sel = CycleSelection.of(n, [0, 5])
    counter = OpCounter()
    got = extract_cycles(a, sel, counter)
    assert counter.ops == 2 * n * (n + 1 + 4)
    assert np.allclose(got.cycles, _reference_cycles(a, sel), atol=1e-12)


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
    # one dot product per cycle of A, then one phase and one FFT output
    assert counter.per_vector == n + 1 + np.log2(n)
    assert counter.per_vector <= 2 * (n - 1)


def test_full_selection_op_count_is_full_fft():
    n = 64
    a = np.random.default_rng(0).standard_normal((n, n)) + 0j
    counter = OpCounter()
    got = extract_cycles(a, CycleSelection.of(n, range(n)), counter)
    assert counter.ops is None
    assert np.array_equal(got.cycles, apply_cycle_mask(similarity_transform(a), range(n)))


@pytest.mark.parametrize("k", [1, 10])
def test_extract_cycles_streams_in_small_memory(k):
    # B alone is n^2 * 16 bytes; the streamed route holds a block of A's
    # cycles and O(n k) more
    n = 1024
    a = np.random.default_rng(k).standard_normal((n, n)) + 0j
    sel = CycleSelection.of(n, range(0, n, n // k)[:k])
    tracemalloc.start()
    try:
        extract_cycles(a, sel)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n * 16 / 8


def test_streamed_cycles_precision():
    # the phases w^{jq} are taken at (j q) mod n; the unreduced argument
    # 2 pi j q / n puts the error near n * eps * max|B| at n = 1024
    n = 1024
    rng = np.random.default_rng(5)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    sel = CycleSelection.of(n, [1, 97, 511, 512, 1000, 1023])
    b = similarity_transform(a)
    gap = np.abs(extract_cycles(a, sel).cycles - apply_cycle_mask(b, sel.indices)).max()
    assert gap <= 16 * np.finfo(float).eps * np.abs(b).max()


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


def _toeplitz_case(kind, n):
    if kind == "example1":
        return gen_example1(n)[0]
    rng = np.random.default_rng(n + 7)  # complex, not Hermitian
    col = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    row = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    row[0] = col[0]
    return scipy.linalg.toeplitz(col, row)


@pytest.mark.parametrize("kind", ["random", "example1"])
@pytest.mark.parametrize("n", [1, 2, 3, 64, 1000, 2048])
def test_toeplitz_closed_form_matches_transform(kind, n):
    a = _toeplitz_case(kind, n)
    toeplitz = Toeplitz.of(a)
    b = similarity_transform(a)
    roundoff = n * np.finfo(float).eps
    # cycles read along the rows (2j > n) as well as down the columns
    picks = range(n) if n == 64 else [0, 1, 2, n // 3, n // 2, n // 2 + 1, 2 * n // 3, n - 2, n - 1]
    sel = CycleSelection.of(n, [j % n for j in picks])
    got = toeplitz.cycles(sel.indices)
    assert np.abs(got - sparsify(b, sel).cycles).max() <= roundoff * np.abs(b).max()

    norms = toeplitz.cycle_norms()
    want = cycle_norms(b)
    assert np.abs(norms - want).max() <= roundoff * want.max()
    assert np.array_equal(norms[1:], norms[1:][::-1])  # j and n - j, bit for bit
    assert norms[0] ** 2 / np.sum(norms**2) == pytest.approx(toeplitz_s0(toeplitz.t), rel=1e-12)


def test_toeplitz_closed_form_validation():
    with pytest.raises(ValueError):
        Toeplitz(np.ones(6)).cycle_norms()
    with pytest.raises(ValueError):
        Toeplitz(np.ones(0)).cycles([0])
    with pytest.raises(ValueError):
        Toeplitz(np.ones(7)).cycles([4])


def _real_generator_output(kind, n):
    specs = {
        "toeplitz": dict(kind="toeplitz"),
        "toeplitz-symmetric": dict(kind="toeplitz", symmetric=True),
        "block_toeplitz": dict(kind="block_toeplitz", m=3 if n % 2 else 4),
        "block_toeplitz-pd": dict(
            kind="block_toeplitz", m=3 if n % 2 else 4, symmetric=True, make_pd=True
        ),
        "quasi_periodic": dict(kind="quasi_periodic", periods=(2, 3, 5)),
        "example1": dict(kind="example1"),
    }
    a, _ = generate(StructuredMatrixSpec(n=n, seed=n, **specs[kind]))
    assert not a.imag.any()
    return a


def _conj_reflection_gap(m):
    """|conj(m) - P m P|_F / |m|_F with P the index reflection p -> (-p) mod n,
    formed densely as the oracle for core.reflection_defect."""
    n = m.shape[0]
    p = np.zeros((n, n))
    p[-np.arange(n) % n, np.arange(n)] = 1.0
    return np.linalg.norm(m.conj() - p @ m @ p) / np.linalg.norm(m)


@pytest.mark.parametrize(
    "kind",
    ["toeplitz", "toeplitz-symmetric", "block_toeplitz", "block_toeplitz-pd",
     "quasi_periodic", "example1"],
)
@pytest.mark.parametrize("n", [27, 64])
def test_transform_of_real_matrix_is_reflection_symmetric(kind, n):
    # conj(W) = P W, so for real A, conj(B) = P B P with B = W A W*: the
    # property spectrum()'s real route rests on, and the one
    # similarity_transform fills half of B from, so it holds exactly
    a = _real_generator_output(kind, n)
    b = similarity_transform(a)
    roundoff = n * np.finfo(float).eps
    assert _conj_reflection_gap(b) == 0.0
    assert reflection_defect(b) == 0.0

    # P maps cycle j to cycle n - j, so a reflection-closed cycle selection
    # keeps the identity and one that breaks a pair does not
    closed = [
        sel
        for sel in selections_from_norms(cycle_norms(b), range(1, n + 1))
        if set(sel) == {(n - j) % n for j in sel}
    ]
    # real A ties every pair j, n - j, so only k = 1 may keep half a pair
    assert len(closed) >= n - 1
    for sel in closed:
        assert reflection_defect(sparsify(b, sel).densify()) <= roundoff
    split = sparsify(b, CycleSelection.of(n, [0, 1])).densify()
    assert reflection_defect(split) > 1e6 * roundoff

    # a complex A breaks it
    rng = np.random.default_rng(n)
    complex_a = a + 1j * rng.standard_normal((n, n)) * np.abs(a).max()
    assert reflection_defect(similarity_transform(complex_a)) > 1e6 * roundoff
