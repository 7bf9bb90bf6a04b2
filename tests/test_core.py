import math
import tracemalloc

import numpy as np
import pytest

from cspc.core import (
    CycleSelection,
    NumericalError,
    Toeplitz,
    _column_walks,
    apply_cycle_mask,
    cycle_norms,
    cycle_positions,
    flip_matrix,
    fourier_matrix,
    full_cycle_matrix,
    hermitian_defect,
    is_real,
    iter_cycle_blocks,
    keep_cycles,
    reflect_columns,
    reflection_defect,
    relaxation_diagonal,
    require_square,
)
from cspc.generators import StructuredMatrixSpec, SymbolSpec, gen_example1, generate
from cspc.sparse import select_dominant_cycles, selections_from_norms, sparsify
from cspc.transform import similarity_transform

MAGIC = np.array([[8, 1, 6], [3, 5, 7], [4, 9, 2]], dtype=float)


def test_full_cycle_matrix_n3():
    c = full_cycle_matrix(3)
    assert np.array_equal(c, np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=complex))


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_full_cycle_shifts_basis_vectors(n):
    c = full_cycle_matrix(n)
    for q in range(n):
        e = np.zeros(n)
        e[q] = 1
        out = c @ e
        assert out[(q + 1) % n] == 1
        assert np.count_nonzero(out) == 1


@pytest.mark.parametrize("n", [2, 3, 6])
def test_full_cycle_order(n):
    c = full_cycle_matrix(n)
    assert np.allclose(np.linalg.matrix_power(c, n), np.eye(n))


@pytest.mark.parametrize("n", [3, 4, 7, 8, 9, 64])
def test_cycle_positions_match_permutation_powers(n):
    c = full_cycle_matrix(n)
    all_rows, all_cols = cycle_positions(n, range(n))
    assert all_rows.shape == all_cols.shape == (n, n)
    for k in range(n):
        rows, cols = cycle_positions(n, k)
        pk = np.linalg.matrix_power(c, k)
        mask = np.zeros((n, n))
        mask[rows, cols] = 1
        assert np.array_equal(mask, pk.real)
        # the set form gives each cycle's positions in the same order
        assert np.array_equal(all_rows[k], rows)
        assert np.array_equal(all_cols[k], cols)
    rows, cols = cycle_positions(n, [n - 1, 0])
    assert np.array_equal(rows, all_rows[[n - 1, 0]])
    assert np.array_equal(cols, all_cols[[n - 1, 0]])
    assert cycle_positions(n, [])[0].shape == (0, n)
    with pytest.raises(ValueError):
        cycle_positions(n, [0, n])
    with pytest.raises(ValueError):
        cycle_positions(n, n)


def test_cycle_positions_partition_the_matrix():
    n = 6
    seen = np.zeros((n, n), dtype=int)
    for k in range(n):
        rows, cols = cycle_positions(n, k)
        seen[rows, cols] += 1
    assert np.array_equal(seen, np.ones((n, n), dtype=int))


def test_cycle_reading_order_on_known_matrix():
    # reading order starts with the longer diagonal run
    assert np.array_equal(MAGIC[cycle_positions(3, 0)], [8, 5, 2])
    assert np.array_equal(MAGIC[cycle_positions(3, 1)], [3, 9, 6])
    assert np.array_equal(MAGIC[cycle_positions(3, 2)], [1, 7, 4])


def test_cycle_reading_order_switches_at_half():
    n = 8
    rows, cols = cycle_positions(n, 3)  # sub-diagonal run longer
    assert (rows[0], cols[0]) == (3, 0)
    rows, cols = cycle_positions(n, 5)  # super-diagonal run longer
    assert (rows[0], cols[0]) == (0, 3)
    for k in range(n):
        rows, cols = cycle_positions(n, k)
        assert np.all((rows - cols) % n == k)


def test_flip_matrix_involution():
    for n in (1, 2, 5):
        j = flip_matrix(n)
        assert np.allclose(j @ j, np.eye(n))
        x = np.arange(n, dtype=complex)
        assert np.allclose(j @ x, x[::-1])


@pytest.mark.parametrize("n", [1, 2, 3, 8, 16])
def test_fourier_matrix_unitary(n):
    w = fourier_matrix(n)
    assert np.allclose(w @ w.conj().T, np.eye(n), atol=1e-13)


def test_fourier_matrix_entries():
    n = 5
    w = fourier_matrix(n)
    for p in range(n):
        for q in range(n):
            expect = np.exp(-2j * np.pi * p * q / n) / np.sqrt(n)
            assert abs(w[p, q] - expect) < 1e-14


@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_w_squared_equals_cycle_times_flip(n):
    w = fourier_matrix(n)
    product = full_cycle_matrix(n) @ flip_matrix(n)
    assert np.linalg.norm(w @ w - product) < 1e-12


def test_relaxation_diagonal_values():
    n = 6
    for k in range(n):
        d = relaxation_diagonal(n, k)
        assert d.shape == (n,)
        assert np.allclose(d, np.exp(2j * np.pi * k * np.arange(n) / n))
    assert np.allclose(relaxation_diagonal(n, 1) ** n, np.ones(n))


def test_relaxation_diagonals_are_orthogonal():
    n = 7
    for i in range(n):
        for j in range(n):
            inner = np.vdot(
                np.diag(relaxation_diagonal(n, i)), np.diag(relaxation_diagonal(n, j))
            )
            expect = n if i == j else 0.0
            assert abs(inner - expect) < 1e-12


def test_apply_cycle_mask_and_materialize():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    total = np.zeros_like(a)
    gathered = apply_cycle_mask(a, [4, 0, 2])
    assert gathered.shape == (3, 5)
    for k in range(5):
        masked = apply_cycle_mask(a, k)
        rows, cols = cycle_positions(5, k)
        dense = keep_cycles(a, [k])
        total += dense
        assert np.array_equal(dense[rows, cols], masked)
        assert np.count_nonzero(dense) == 5
    for t, k in enumerate([4, 0, 2]):
        assert np.array_equal(gathered[t], apply_cycle_mask(a, k))
    assert np.allclose(total, a)
    # n = 300 streams in several blocks, the last one short
    big = rng.standard_normal((300, 300)) + 0j
    per_cycle = [apply_cycle_mask(big, k) for k in range(300)]
    assert np.array_equal(cycle_norms(big), [np.linalg.norm(c) for c in per_cycle])
    for n in (1, 2, 7):
        small = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        per_cycle = [apply_cycle_mask(small, k) for k in range(n)]
        assert np.array_equal(cycle_norms(small), [np.linalg.norm(c) for c in per_cycle])
    blocks = list(iter_cycle_blocks(big))
    assert len(blocks) > 1
    assert [k for ks, _ in blocks for k in ks] == list(range(300))
    for ks, values in blocks:
        assert np.array_equal(values, apply_cycle_mask(big, ks))
        assert values.flags.c_contiguous and values.flags.owndata


def test_iter_cycle_blocks_reads_any_layout():
    # a non-C-contiguous matrix is read in place through strided views;
    # the blocks are the 2-d gather's bit for bit
    rng = np.random.default_rng(2)
    big = rng.standard_normal((600, 600)) + 1j * rng.standard_normal((600, 600))
    a = big[:300, :300].copy()
    for view in (a.T, np.asfortranarray(a), big[::2, ::2]):
        assert not view.flags.c_contiguous
        blocks = list(iter_cycle_blocks(view))
        assert [k for ks, _ in blocks for k in ks] == list(range(300))
        for ks, values in blocks:
            assert np.array_equal(values, apply_cycle_mask(view, ks))
            assert values.flags.c_contiguous


def _layouts(n, rng):
    """Square n x n matrices in every layout the cycle reader must accept."""
    big = rng.standard_normal((2 * n, 2 * n)) + 1j * rng.standard_normal((2 * n, 2 * n))
    a = big[:n, :n].copy()
    toeplitz = Toeplitz(rng.standard_normal(2 * n - 1) + 1j * rng.standard_normal(2 * n - 1)).dense()
    return {
        "C": a,
        "F": np.asfortranarray(a),
        "T": a.T,
        "every-other": big[::2, ::2],
        "reversed": a[::-1, ::-1],
        "toeplitz": toeplitz,
        "toeplitz.T": toeplitz.T,
    }


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 255, 256, 300])
def test_cycle_reader_matches_the_index_gather(n):
    rng = np.random.default_rng(n)
    rows, cols = cycle_positions(n, range(n))
    for name, view in _layouts(n, rng).items():
        blocks = list(iter_cycle_blocks(view))
        assert [k for ks, _ in blocks for k in ks] == list(range(n)), name
        # each block has one reading order: all column walks or all row walks
        assert all(len({2 * k <= n for k in ks}) == 1 for ks, _ in blocks), name
        if n > 2:  # cycles k > n / 2 exist
            assert {2 * ks[0] <= n for ks, _ in blocks} == {True, False}, name
        for ks, values in blocks:
            assert values.flags.c_contiguous, name
            assert np.array_equal(values, apply_cycle_mask(view, ks)), (name, ks)
        # column walks: the reading order scattered back by column index
        expected = np.empty((n, n), dtype=np.complex128)
        np.put_along_axis(expected, cols, view[rows, cols], axis=1)
        assert np.array_equal(_column_walks(view, 0, np.empty((n, n), dtype=np.complex128)), expected), name
        for ks, _ in blocks:
            walks = _column_walks(view, ks.start, np.empty((len(ks), n), dtype=np.complex128))
            assert np.array_equal(walks, expected[ks.start : ks.stop]), (name, ks)


def test_cycle_norms_read_a_toeplitz_view_in_place():
    # a pass over the generators' read-only view holds a few blocks of
    # 16k entries, not an n x n copy (64 MB at n = 2048)
    n = 2048
    a = generate(StructuredMatrixSpec(kind="toeplitz", n=n, seed=4))[0]
    tracemalloc.start()
    try:
        norms = cycle_norms(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * (1 << 14) * 16
    assert np.array_equal(norms, [np.linalg.norm(apply_cycle_mask(a, k)) for k in range(n)])


def test_nonfinite_cycle_norms_raise():
    with pytest.raises(NumericalError, match="cycle 0 has norm nan"):
        select_dominant_cycles(np.full((8, 8), np.nan), 3)
    a = np.eye(8)
    a[5, 2] = np.inf  # on cycle 3
    with pytest.raises(NumericalError, match="cycle 3 has norm inf"):
        cycle_norms(a)
    t = Toeplitz.of(gen_example1(16)[0]).t.copy()
    t[20] = np.nan
    with pytest.raises(NumericalError, match="has norm nan"):
        Toeplitz(t).cycle_norms()


def _cycle_sets(n, rng):
    """Cycle sets of an n x n matrix: single cycles at both ends, a band
    around the diagonal, a coset of n's largest subgroup of order <= 4
    and two random sets, and all n cycles."""
    order = max(d for d in (1, 2, 3, 4) if n % d == 0)
    sets = {
        "first": [0],
        "last": [n - 1],
        "band": [k % n for k in range(-2, 3)],
        "coset": range(1 % n, n, n // order),
        "all": range(n),
    }
    for size in (max(1, n // 3), max(1, 2 * n // 3)):
        sets[f"random {size}"] = rng.choice(n, size, replace=False)
    return {name: CycleSelection.of(n, ks) for name, ks in sets.items()}


@pytest.mark.parametrize("n", [1, 2, 5, 7, 8, 33, 64])
def test_keep_cycles_is_the_sum_of_the_kept_cycles(n):
    # the kept cycles scattered back through cycle_positions, bit for bit
    rng = np.random.default_rng(n)
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    toeplitz, _ = generate(StructuredMatrixSpec(kind="toeplitz", n=n, seed=1))
    for a in (x, x.real, x.T, toeplitz, toeplitz.real):
        for name, sel in _cycle_sets(n, rng).items():
            want = sparsify(a, sel).densify()
            got = keep_cycles(a, sel.indices)
            assert got.dtype == np.complex128 and got.flags.c_contiguous
            assert np.array_equal(got, want), name
            out = np.full((n, n), np.nan, dtype=np.complex128)
            assert keep_cycles(a, sel.indices, out) is out
            assert np.array_equal(out, want), name
    with pytest.raises(ValueError):
        keep_cycles(x, [n])


@pytest.mark.parametrize("n", [1, 2, 7, 8])
def test_reflect_columns_is_the_index_reflection(n):
    x = np.arange(n * n, dtype=float).reshape(n, n)
    reflect = -np.arange(n) % n
    assert np.array_equal(reflect_columns(x, np.empty((n, n))), x[:, reflect])
    z = x + 1j * x.T
    assert np.array_equal(reflect_columns(z, np.empty((n, n), complex), np.conjugate), z[:, reflect].conj())


def test_require_square():
    with pytest.raises(ValueError):
        require_square(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        require_square(np.zeros(4))


def test_require_square_keeps_real_input_real():
    a = np.arange(9.0).reshape(3, 3)
    assert require_square(a) is a
    assert require_square([[1, 2], [3, 4]]).dtype == np.float64
    assert require_square(a.astype(np.float32)).dtype == np.float64
    assert require_square(a + 0j).dtype == np.complex128
    assert require_square([[1j, 0], [0, 1]]).dtype == np.complex128


def test_is_real_reads_the_dtype_first():
    a = np.arange(9.0).reshape(3, 3)
    negative_zero = a + 0j
    negative_zero.imag = -0.0
    assert is_real(a) and is_real(a + 0j) and is_real(negative_zero)
    b = a + 0j
    b[2, 1] = 1e-300j
    assert not is_real(b)
    # a real dtype never reaches the imaginary scan, which would allocate
    big = np.ones((512, 512))
    tracemalloc.start()
    try:
        assert is_real(big)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1024


def test_is_real_reads_a_toeplitz_layout_from_its_edges():
    # a view with strides (-s, s) holds only its first row and column, so
    # reading those answers exactly; every diagonal is tried in turn
    n = 6
    t = np.arange(1.0, 2 * n) + 0j
    for d in range(2 * n - 1):
        bumped = t.copy()
        bumped[d] += 1e-300j
        view = Toeplitz(bumped).dense()
        for m in (view, view.T, view[::-1, ::-1], view[1:, :-1], view[::2, ::2]):
            assert is_real(m) == (not np.ascontiguousarray(m).imag.any())
        assert not is_real(view)
    assert is_real(Toeplitz(t).dense())
    # n^2 = 6.9e10 entries: only an O(n) read returns within the test
    n = 1 << 18
    huge = np.ones(2 * n - 1, dtype=complex)
    assert is_real(Toeplitz(huge).dense())
    huge[n // 3] = 1j
    assert not is_real(Toeplitz(huge).dense())


def test_hermitian_defect_matches_dense_form():
    rng = np.random.default_rng(1)
    for n in (1, 5, 33, 100):
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        dense = np.linalg.norm(m - m.conj().T) / np.linalg.norm(m)
        assert hermitian_defect(m) == pytest.approx(dense, rel=1e-12)
        assert hermitian_defect(m + m.conj().T) == 0.0
    assert hermitian_defect(np.zeros((4, 4))) == 0.0


def test_hermitian_defect_streams():
    import tracemalloc

    n = 1024
    rng = np.random.default_rng(2)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    tracemalloc.start()
    try:
        hermitian_defect(m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n * 16 / 8


def test_hermitian_defect_checks_real_input_as_real():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((40, 40))
    dense = np.linalg.norm(m - m.T) / np.linalg.norm(m)
    assert hermitian_defect(m) == pytest.approx(dense, rel=1e-12)
    assert hermitian_defect(m + m.T) == 0.0
    # a real view of a complex matrix is read in place: no complex copy
    # (16 n^2 bytes), only 32-row blocks
    n = 512
    view = (rng.standard_normal((n, n)) + 0j).real
    tracemalloc.start()
    try:
        hermitian_defect(view)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8 / 4
    with pytest.raises(ValueError):
        hermitian_defect(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        hermitian_defect(np.zeros(4))


def _reflect(m):
    """P m P for the index reflection P: p -> (-p) mod n, as a dense oracle."""
    n = m.shape[0]
    p = np.zeros((n, n))
    p[-np.arange(n) % n, np.arange(n)] = 1.0
    return p @ m @ p


def test_reflection_defect_matches_dense_form():
    rng = np.random.default_rng(4)
    for n in (1, 2, 5, 33, 100):
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        dense = np.linalg.norm(m.conj() - _reflect(m)) / np.linalg.norm(m)
        assert reflection_defect(m) == pytest.approx(dense, rel=1e-12)
        # the average of m and its reflected conjugate is reflection-symmetric
        assert reflection_defect(m + _reflect(m).conj()) == 0.0
    assert reflection_defect(np.zeros((4, 4))) == 0.0


def test_reflection_defect_streams():
    n = 1024
    rng = np.random.default_rng(5)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    tracemalloc.start()
    try:
        reflection_defect(m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n * 16 / 8


def test_reflection_defect_large_on_complex_hermitian():
    # Hermitian is not reflection-symmetric: a random complex Hermitian
    # matrix has no real form of this kind
    n = 64
    rng = np.random.default_rng(6)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = m + m.conj().T
    assert hermitian_defect(h) == 0.0
    assert reflection_defect(h) > 0.1
    assert reflection_defect(h) > 1e10 * n * np.finfo(float).eps


def _toeplitz_cases(n):
    sym = SymbolSpec(form="product", poly=(1.0, 1.0), trig={1: 1.0})
    specs = {
        "toeplitz": StructuredMatrixSpec(kind="toeplitz", n=n, seed=4),
        "symmetric": StructuredMatrixSpec(kind="toeplitz", n=n, symmetric=True, seed=4),
        "symbol": StructuredMatrixSpec(kind="symbol_toeplitz", n=n, symbol=sym),
    }
    return {"example1": gen_example1(n)[0], **{k: generate(s)[0] for k, s in specs.items()}}


@pytest.mark.parametrize("n", [1, 2, 3, 64, 1000])
def test_toeplitz_diagonals_round_trip(n):
    for name, a in _toeplitz_cases(n).items():
        toeplitz = Toeplitz.of(a)
        assert toeplitz is not None, name
        assert toeplitz.n == n, name
        assert np.array_equal(toeplitz.dense(), a), name
        # np.linalg.norm(a) is itself off by ~1e-14 relative at n = 1000, by
        # an amount that depends on the BLAS thread count; math.fsum sums the
        # squares with one rounding
        exact = math.sqrt(math.fsum(np.concatenate([a.real.ravel(), a.imag.ravel()]) ** 2))
        assert toeplitz.frobenius_norm() == pytest.approx(exact, rel=1e-12), name
        # a transposed view is not C-contiguous; its diagonals reverse
        assert np.array_equal(Toeplitz.of(a.T).t, toeplitz.t[::-1]), name


def test_toeplitz_diagonals_rejects_other_structure():
    block = generate(StructuredMatrixSpec(kind="block_toeplitz", n=64, m=4, seed=1))[0]
    quasi_spec = StructuredMatrixSpec(kind="quasi_periodic", n=64, periods=(4, 5, 10), seed=6)
    quasi = generate(quasi_spec)[0]
    assert Toeplitz.of(block) is None
    assert Toeplitz.of(quasi) is None
    # one ulp off in the last row: only the last 32-row block differs (the
    # generator's output is a read-only view, so the change goes into a copy)
    n = 1000
    a = gen_example1(n)[0].copy()
    a[n - 1, 500] = np.nextafter(a[n - 1, 500].real, 0.0)
    assert Toeplitz.of(a) is None
    assert Toeplitz.of(a.T) is None


def _layout_views(a):
    """Views of a dense() layout that keep strides[0] == -strides[1]."""
    return {
        "a": a,
        "a.T": a.T,
        "a[::2, ::2]": a[::2, ::2],
        "a[1:, :-1]": a[1:, :-1],
        "a[::-1, ::-1]": a[::-1, ::-1],
    }


@pytest.mark.parametrize("n", [1, 2, 7, 64])
def test_toeplitz_layout_certificate(n):
    # a generator's output and the views that keep its layout are read from
    # their first column and row; the scan of a C-order copy agrees
    for name, a in _toeplitz_cases(n).items():
        for label, view in _layout_views(a).items():
            if min(view.shape) == 0:
                continue
            assert view.strides[0] == -view.strides[1], (name, label)
            copy = np.array(view)
            assert copy.flags.c_contiguous
            scanned = Toeplitz.of(copy)
            assert scanned is not None, (name, label)
            assert np.array_equal(Toeplitz.of(view).t, scanned.t), (name, label)
            assert Toeplitz.of(view).dense().tobytes() == copy.tobytes(), (name, label)
    # every entry in one place: strides (0, 0), a constant matrix
    assert np.array_equal(Toeplitz.of(np.broadcast_to(1 + 2j, (5, 5))).t, np.full(9, 1 + 2j))


def test_toeplitz_generators_return_read_only_views():
    for name, a in _toeplitz_cases(64).items():
        assert not a.flags.writeable, name
        # the n x n view spans the 2n - 1 diagonals and nothing more
        low, high = np.lib.array_utils.byte_bounds(a)
        assert high - low == (2 * 64 - 1) * 16, name
        with pytest.raises(ValueError):
            a[0, 0] = 1.0
        with pytest.raises(ValueError):
            a.T[3, 1] = 1.0
        a.copy()[0, 0] = 1.0  # a copy is an ordinary array


def test_toeplitz_other_layouts_are_scanned():
    n = 64
    a = gen_example1(n)[0]
    bumped = a.copy()
    bumped[n - 1, 10] += 1e-3
    row = np.arange(n) + 1j
    cases = {
        # a row repeated down the rows is Toeplitz only when it is constant
        "broadcast row": (np.broadcast_to(row, (n, n)), None),
        "broadcast constant": (np.broadcast_to(np.full(n, 2 - 1j), (n, n)), np.full(2 * n - 1, 2 - 1j)),
        "fortran": (np.asfortranarray(a), Toeplitz.of(a).t),
        "fortran bumped": (np.asfortranarray(bumped), None),
        "conj": (a.conj(), Toeplitz.of(a).t.conj()),
        "conj bumped": (bumped.conj(), None),
    }
    for label, (m, t) in cases.items():
        assert m.strides[0] != -m.strides[1], label
        toeplitz = Toeplitz.of(m)
        if t is None:
            assert toeplitz is None, label
        else:
            assert np.array_equal(toeplitz.t, t), label
    assert np.broadcast_to(row, (n, n)).strides == (0, 16)


@pytest.mark.parametrize("n", [2, 3, 33, 64])
def test_toeplitz_of_scans_real_arrays(n):
    # a real array is scanned as float64, one float per column, so entry
    # (p + 1, q + 1) is compared with (p, q), not (p + 1, q + 2)
    rng = np.random.default_rng(n)
    t = rng.standard_normal(2 * n - 1)
    a = Toeplitz(t).dense().real
    for label, m in {"C order": np.array(a), "Fortran order": np.asfortranarray(a)}.items():
        assert m.dtype == np.float64 and m.strides[0] != -m.strides[1], label
        toeplitz = Toeplitz.of(m)
        assert toeplitz is not None, label
        assert np.array_equal(toeplitz.t, t), label
    # constant along (1, 2), not along the diagonals: not Toeplitz
    p, q = np.indices((n, n))
    skew = rng.standard_normal(3 * n)[2 * p - q + n]
    assert np.array_equal(skew[1:, 2:], skew[:-1, :-2])
    assert Toeplitz.of(skew) is None
    assert Toeplitz.of(np.asfortranarray(skew)) is None


def test_toeplitz_rejects_even_length():
    # t holds 2n - 1 diagonals, so its length is odd
    for t in (np.ones(0), np.ones(2), np.ones(8), np.ones((3, 3))):
        with pytest.raises(ValueError):
            Toeplitz(t)
    assert Toeplitz(np.ones(9)).n == 5


def test_toeplitz_diagonals_streams():
    import tracemalloc

    n = 1024
    a, _ = gen_example1(n)
    fortran = np.asfortranarray(a)
    tracemalloc.start()
    try:
        assert Toeplitz.of(a) is not None
        assert Toeplitz.of(a.T) is not None
        assert Toeplitz.of(fortran) is not None  # scanned block by block
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n * 16 / 8


def test_cycle_selection_normalizes():
    sel = CycleSelection.of(8, [5, 0, 5, 3])
    assert sel.indices == (0, 3, 5)
    assert len(sel) == 3
    assert 3 in sel and 4 not in sel
    assert list(sel) == [0, 3, 5]
    assert np.array_equal(sel.as_array(), [0, 3, 5])
    assert sel.complement().indices == (1, 2, 4, 6, 7)


def test_cycle_selection_validation():
    with pytest.raises(ValueError):
        CycleSelection.of(4, [4])
    with pytest.raises(ValueError):
        CycleSelection.of(4, [-1])
    with pytest.raises(ValueError):
        CycleSelection(4, (2, 1))


def _dominant_norms(a):
    t = Toeplitz.of(a)
    return t.cycle_norms() if t is not None else cycle_norms(similarity_transform(a))


@pytest.mark.parametrize(
    "spec,bands",
    [
        # the subgroup of the block size m = 5 and its bands; k = 1 and 3
        # select {400} and {400, 600}, without cycle 0
        (
            StructuredMatrixSpec(kind="block_toeplitz", n=1000, m=5, symmetric=True, seed=2),
            [None, None, (5, 0), (5, 1), (5, 2), (5, 4)],
        ),
        (
            StructuredMatrixSpec(kind="toeplitz", n=1000, symmetric=True, seed=1),
            [(1, 0), (1, 1), (1, 2), (1, 7), (1, 12), (1, 22)],
        ),
        # unions such as {0, 400, 500, 600}: the band inside them
        (
            StructuredMatrixSpec(kind="quasi_periodic", n=1000, periods=(2, 5), seed=1),
            [(1, 0), (2, 0), (2, 0), (2, 1), (5, 1), (5, 2)],
        ),
    ],
    ids=["block_toeplitz", "toeplitz", "quasi_periodic"],
)
def test_coset_band_of_dominant_selections(spec, bands):
    a, _ = generate(spec)
    sels = selections_from_norms(_dominant_norms(a), [1, 3, 5, 15, 25, 45])
    assert [sel.coset_band() for sel in sels] == bands


@pytest.mark.parametrize(
    "n,indices,band",
    [
        (1, [0], (1, 0)),
        (12, range(12), (1, 11)),  # everything: the widest band of L = 1
        (12, [1, 11], None),  # no cycle 0
        (12, [], None),
        (12, [0, 4, 8], (3, 0)),
        (12, [0, 6], (2, 0)),
        # the subgroup {0, 4, 8} and the band {0, 1, 11} both keep 3: the
        # smaller L
        (12, [0, 1, 4, 8, 11], (1, 1)),
        (12, [0, 1, 3, 6, 9, 11], (4, 0)),  # the subgroup keeps 4, the band 3
        (12, [0, 1, 3, 4, 5, 7, 8, 9, 11], (3, 1)),
    ],
)
def test_coset_band_cases(n, indices, band):
    assert CycleSelection(n, tuple(indices)).coset_band() == band


@pytest.mark.parametrize("n", range(1, 9))
def test_coset_band_is_the_largest_band_inside(n):
    # against the definition: every (L, w) whose band lies inside the
    # selection, ranked by its size, then by the smaller L
    for bits in range(1, 1 << n):
        indices = [j for j in range(n) if bits >> j & 1]
        inside = []
        for size in (d for d in range(1, n + 1) if n % d == 0):
            g = n // size
            for w in range(g):
                band = {(s * g + o) % n for s in range(size) for o in range(-w, w + 1)}
                if band <= set(indices):
                    inside.append((-len(band), size, -w))
        want = None
        if inside:
            _, size, neg_w = min(inside)
            want = (size, -neg_w)
        assert CycleSelection(n, tuple(indices)).coset_band() == want, indices


def test_every_export_resolves():
    # a deleted class must not linger in any __all__
    import importlib
    import pkgutil

    import cspc

    names = [m.name for m in pkgutil.iter_modules(cspc.__path__) if m.name != "__main__"]
    modules = [cspc] + [importlib.import_module(f"cspc.{name}") for name in names]
    for mod in modules:
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"{mod.__name__}.__all__ lists missing {name}"
