"""Structured matrix generators: determinism, the structural invariants each
kind promises, and the symbol machinery."""

import json

import numpy as np
import pytest
import scipy.linalg

from cspc.core import ConfigError, CycleSelection, Toeplitz, cycle_norms
from cspc.decomposition import circulant_decompose_via_transform, dominance_relation
from cspc.generators import (
    FORM_FIELDS,
    KIND_FIELDS,
    StructuredMatrixSpec,
    SymbolSpec,
    banded_diag_sequence,
    eval_symbol,
    gen_block_toeplitz,
    gen_example1,
    gen_quasi_periodic,
    gen_symbol_toeplitz,
    gen_toeplitz,
    generate,
    symbol_coefficients,
    with_seed,
)
from cspc.sparse import spectrum
from cspc.transform import extract_cycles, similarity_transform


def _diags(a):
    n = a.shape[0]
    return {d: np.diagonal(a, d) for d in range(-(n - 1), n)}


# a value other than the default for every spec and symbol field
NON_DEFAULT = {
    "seed": 5,
    "m": 2,
    "periods": (2, 3),
    "symmetric": True,
    "symbol": SymbolSpec(form="product", poly=(1.0, 1.0), trig={1: 1.0}),
    "make_pd": True,
    "target_condition": 50.0,
}
SYMBOL_NON_DEFAULT = {"poly": (1.0, 0.5), "trig": {0: 2.0, 1: -1.0}, "truncation": 3}


def test_spec_validation():
    with pytest.raises(ConfigError):
        StructuredMatrixSpec(kind="hankel", n=4)
    with pytest.raises(ConfigError):
        StructuredMatrixSpec(kind="toeplitz", n=0)
    malformed = [{"n": "16"}, {"n": 16.5}, {"seed": 1.0}, {"seed": -1}, {"m": 2.5},
                 {"symmetric": "no"}, {"make_pd": 1}, {"target_condition": "50"}, {"periods": [2.7]}]
    for bad in malformed:
        with pytest.raises(ConfigError):
            StructuredMatrixSpec(**{"kind": "block_toeplitz", "n": 16, **bad})
    for truncation in (2.5, -1):
        with pytest.raises(ConfigError):
            SymbolSpec(form="product", trig={1: 1.0}, truncation=truncation)
    # a repeated order is an error, not the last coefficient silently kept
    with pytest.raises(ConfigError, match="repeats"):
        SymbolSpec.from_json_dict({"form": "banded", "trig": [[1, 1, 0], [1, 5, 0]]})
    with pytest.raises(ConfigError, match="repeats"):
        SymbolSpec(form="banded", trig=[(1, 1.0), (1, 5.0)])
    assert StructuredMatrixSpec(kind="toeplitz", n=np.int64(16), seed=np.uint64(2**63)).n == 16


@pytest.mark.parametrize("kind", KIND_FIELDS)
def test_spec_takes_only_the_fields_its_kind_reads(kind):
    for field, value in NON_DEFAULT.items():
        if field not in KIND_FIELDS[kind]:
            with pytest.raises(ConfigError, match=field):
                StructuredMatrixSpec(kind=kind, n=4, **{field: value})
    # defaults given explicitly are not a misuse
    StructuredMatrixSpec(kind=kind, n=4, seed=0, m=1, periods=[], symmetric=False, target_condition=1e4)


def test_symbol_takes_only_the_fields_its_form_reads():
    for form, read in FORM_FIELDS.items():
        for field, value in SYMBOL_NON_DEFAULT.items():
            if field not in read:
                with pytest.raises(ConfigError, match=field):
                    SymbolSpec(form=form, **{"trig": {0: 1.0}, field: value})
    assert SymbolSpec(form="banded", trig={0: 1.0}, poly=[], truncation=None).to_json_dict() == {
        "form": "banded", "trig": [[0, 1.0, 0.0]]
    }


def test_spec_json_round_trip():
    spec = StructuredMatrixSpec(
        kind="block_toeplitz", n=20, m=5, symmetric=True, seed=9, make_pd=True
    )
    again = StructuredMatrixSpec.from_json_dict(spec.to_json_dict())
    assert again == spec
    sym = SymbolSpec(form="product", poly=(1.0, 1.0), trig={1: 1.0})
    spec2 = StructuredMatrixSpec(kind="symbol_toeplitz", n=8, symbol=sym)
    assert StructuredMatrixSpec.from_json_dict(spec2.to_json_dict()) == spec2
    # every kind with every field it reads set, through the JSON text
    for kind, read in KIND_FIELDS.items():
        spec = StructuredMatrixSpec(kind=kind, n=8, **{f: NON_DEFAULT[f] for f in read})
        d = spec.to_json_dict()
        assert set(d) == {"kind", "n", *read}
        assert StructuredMatrixSpec.from_json_dict(json.loads(json.dumps(d))) == spec
    for form, read in FORM_FIELDS.items():
        sym = SymbolSpec(form=form, **{f: SYMBOL_NON_DEFAULT[f] for f in read})
        d = sym.to_json_dict()
        assert set(d) == {"form", *read}
        assert SymbolSpec.from_json_dict(json.loads(json.dumps(d))) == sym


def test_toeplitz_constant_diagonals_and_determinism():
    spec = StructuredMatrixSpec(kind="toeplitz", n=12, seed=42)
    a = gen_toeplitz(spec)
    b = gen_toeplitz(spec)
    assert np.array_equal(a, b)
    for d, vals in _diags(a).items():
        assert np.ptp(vals.real) == 0 and np.ptp(vals.imag) == 0
    assert not np.array_equal(a, gen_toeplitz(with_seed(spec, 43)))


def test_toeplitz_symmetric():
    spec = StructuredMatrixSpec(kind="toeplitz", n=10, symmetric=True, seed=1)
    a = gen_toeplitz(spec)
    assert np.array_equal(a, a.T)


def test_example1_shape_and_rhs():
    a, rhs = gen_example1(6)
    assert np.allclose(a[0], [2, -0.5, -0.25, -0.125, -0.0625, -0.03125])
    assert np.array_equal(a, a.T)
    assert np.array_equal(rhs, np.arange(1, 7, dtype=complex))
    assert np.linalg.eigvalsh(a.real).min() > 0


def test_example1_lambda_min_above_gershgorin_row_margin():
    n = 9
    a, _ = gen_example1(n)
    # worst-case row disc: diagonal minus sum of off-diagonal magnitudes
    margin = min(a[p, p].real - np.abs(np.delete(a[p], p)).sum() for p in range(n))
    assert margin > 0
    assert np.linalg.eigvalsh(a.real).min() >= margin


def test_block_toeplitz_block_structure():
    spec = StructuredMatrixSpec(kind="block_toeplitz", n=20, m=4, seed=3)
    a = gen_block_toeplitz(spec)
    assert np.allclose(a[:-4, :-4], a[4:, 4:])
    assert not np.allclose(a[:4, :4], a[:4, 4:8])


def test_block_toeplitz_symmetric_and_pd():
    spec = StructuredMatrixSpec(
        kind="block_toeplitz", n=30, m=5, symmetric=True, make_pd=True, seed=4
    )
    info = {}
    a = gen_block_toeplitz(spec, info)
    assert np.allclose(a, a.T)
    ev = np.linalg.eigvalsh(a.real)
    assert ev.min() > 0
    assert info["achieved_condition"] == pytest.approx(spec.target_condition, rel=1e-6)
    assert info["shift"] > 0


def test_block_toeplitz_dominant_cycles_at_block_frequency():
    # period-m diagonal structure concentrates on cycles at multiples of n/m;
    # the wrap of each cycle breaks the periodicity on O(m/n) of positions,
    # so the mass is dominant rather than total (5 of 40 cycles would carry
    # 0.125 of the norm if the matrix were unstructured)
    spec = StructuredMatrixSpec(kind="block_toeplitz", n=40, m=5, seed=5)
    a = gen_block_toeplitz(spec)
    s = CycleSelection.of(40, range(0, 40, 8))
    rep = dominance_relation(a, s)
    assert rep.relative_magnitude > 0.6


def test_block_toeplitz_validation():
    with pytest.raises(ConfigError):
        gen_block_toeplitz(StructuredMatrixSpec(kind="block_toeplitz", n=10, m=4))
    with pytest.raises(ConfigError):
        gen_block_toeplitz(
            StructuredMatrixSpec(kind="block_toeplitz", n=10, m=5, make_pd=True)
        )
    with pytest.raises(ConfigError):
        gen_block_toeplitz(
            StructuredMatrixSpec(
                kind="block_toeplitz", n=10, m=5, symmetric=True, make_pd=True,
                target_condition=0.5,
            )
        )


def test_quasi_periodic_diagonals_tile():
    spec = StructuredMatrixSpec(kind="quasi_periodic", n=40, periods=(4, 5, 10), seed=6)
    a = gen_quasi_periodic(spec)
    for d, vals in _diags(a).items():
        if len(vals) <= 10:
            continue  # a truncated tile of the longest period is unverifiable
        tiled = any(np.allclose(vals[:-p], vals[p:]) for p in (4, 5, 10))
        assert tiled, f"diagonal {d} does not tile with any requested period"


def test_quasi_periodic_period_one_is_toeplitz():
    spec = StructuredMatrixSpec(kind="quasi_periodic", n=8, periods=(1,), seed=7)
    a = gen_quasi_periodic(spec)
    for vals in _diags(a).values():
        assert np.ptp(vals.real) == 0


def test_quasi_periodic_validation():
    with pytest.raises(ConfigError):
        gen_quasi_periodic(StructuredMatrixSpec(kind="quasi_periodic", n=8, periods=()))
    with pytest.raises(ConfigError):
        gen_quasi_periodic(
            StructuredMatrixSpec(kind="quasi_periodic", n=8, periods=(0,))
        )


def test_eval_symbol_cases():
    # product form (1 + theta) * e^{i theta}
    sym1 = SymbolSpec(form="product", poly=(1.0, 1.0), trig={1: 1.0})
    assert eval_symbol(sym1, 0.0) == pytest.approx(1.0)
    th = 1.3
    assert eval_symbol(sym1, th) == pytest.approx((1 + th) * np.exp(1j * th))

    # plain trigonometric polynomial
    sym2 = SymbolSpec(form="banded", trig={0: 2.0, 1: -0.5, -1: -0.5})
    assert eval_symbol(sym2, 0.0) == pytest.approx(1.0)
    assert eval_symbol(sym2, np.pi) == pytest.approx(3.0)

    # sum form theta/(2 pi) + i (theta - pi)^2 / pi^2 + e^{2 i theta}
    sym3 = SymbolSpec(
        form="sum",
        poly=(1j, 1 / (2 * np.pi) - 2j / np.pi, 1j / np.pi**2),
        trig={2: 1.0},
    )
    assert eval_symbol(sym3, np.pi) == pytest.approx(1.5)


def test_eval_symbol_grid_and_range():
    sym = SymbolSpec(form="banded", trig={0: 1.0, 2: 3.0})
    theta = np.linspace(0, 2 * np.pi, 9, endpoint=False)
    vals = eval_symbol(sym, theta)
    assert vals.shape == theta.shape
    with pytest.raises(ValueError):
        eval_symbol(sym, -0.1)
    with pytest.raises(ValueError):
        eval_symbol(sym, 2 * np.pi)


def test_symbol_coefficients_banded_exact():
    sym = SymbolSpec(form="banded", trig={0: 2.0, 1: -1.0, -2: 0.5})
    coef = symbol_coefficients(sym, 6)
    assert coef.shape == (11,)
    assert coef[5] == 2.0 and coef[6] == -1.0 and coef[3] == 0.5
    assert np.count_nonzero(coef) == 3


def test_symbol_coefficients_quadrature_converges():
    # smooth (periodic) symbols: doubling the resolution moves nothing
    smooth = SymbolSpec(form="product", poly=(0.5,), trig={1: 1.0, -2: 3.0})
    base = symbol_coefficients(smooth, 16)
    assert np.abs(base - symbol_coefficients(smooth, 16, resolution=2**12)).max() < 1e-10

    # a polynomial factor in theta leaves a jump at the wrap, so the
    # quadrature converges only first order; check the trend, not 1e-10
    rough = SymbolSpec(form="product", poly=(1.0, 1.0), trig={1: 1.0})
    ref = symbol_coefficients(rough, 16, resolution=2**13)
    d1 = np.abs(symbol_coefficients(rough, 16, resolution=2**9) - ref).max()
    d2 = np.abs(symbol_coefficients(rough, 16, resolution=2**10) - ref).max()
    assert d2 < d1 < 0.1


def test_gen_symbol_toeplitz_diagonals_are_coefficients():
    sym = SymbolSpec(form="banded", trig={0: 2.0, 1: -1.0, -1: -1.0})
    n = 10
    a = gen_symbol_toeplitz(sym, n)
    d = _diags(a)
    assert np.allclose(d[0], 2.0)
    assert np.allclose(d[1], -1.0)
    assert np.allclose(d[-1], -1.0)
    assert np.allclose(d[3], 0.0)


def _drawn_diagonals(spec):
    """The 2n - 1 diagonals a Toeplitz spec draws, t[n - 1 + d] on d = q - p,
    and the matrix scipy.linalg.toeplitz builds from them."""
    n = spec.n
    if spec.kind == "example1":
        first = np.zeros(n, dtype=np.complex128)
        first[0] = 2.0
        first[1:] = -(0.5 ** np.arange(1, n))
        return np.concatenate([first[:0:-1], first]), scipy.linalg.toeplitz(first)
    if spec.kind == "symbol_toeplitz":
        t = symbol_coefficients(spec.symbol, n)
    else:
        rng = np.random.Generator(np.random.PCG64(spec.seed))
        if spec.symmetric:
            half = rng.standard_normal(n)
            t = np.concatenate([half[:0:-1], half]).astype(np.complex128)
        else:
            t = rng.standard_normal(2 * n - 1).astype(np.complex128)
    return t, scipy.linalg.toeplitz(t[n - 1 :: -1], t[n - 1 :])


@pytest.mark.parametrize("n", [1, 2, 33, 256])
def test_toeplitz_kinds_round_trip_through_diagonals(n):
    sym = SymbolSpec(form="product", poly=(1.0, 1.0), trig={1: 1.0})
    specs = [
        StructuredMatrixSpec(kind="toeplitz", n=n, seed=3),
        StructuredMatrixSpec(kind="toeplitz", n=n, symmetric=True, seed=3),
        StructuredMatrixSpec(kind="example1", n=n),
        StructuredMatrixSpec(kind="symbol_toeplitz", n=n, symbol=sym),
    ]
    for spec in specs:
        a = generate(spec)[0]
        t, want = _drawn_diagonals(spec)
        assert a.dtype == np.complex128 and a.tobytes() == want.tobytes(), spec.kind
        toeplitz = Toeplitz.of(a)
        assert np.array_equal(toeplitz.t, t), spec.kind
        assert toeplitz.dense().tobytes() == a.tobytes(), spec.kind


def test_gen_symbol_toeplitz_truncation_guard():
    sym = SymbolSpec(form="banded", trig={5: 1.0, 0: 1.0})
    with pytest.raises(ConfigError):
        gen_symbol_toeplitz(sym, 4)


def test_banded_diag_sequence_matches_transform():
    rng = np.random.default_rng(8)
    n = 24
    first_row = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    first_col = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    first_col[0] = first_row[0]
    a = np.zeros((n, n), dtype=complex)
    for j in range(4):
        a += np.diag(np.full(n - j, first_row[j]), j)
    for i in range(1, 3):
        a += np.diag(np.full(n - i, first_col[i]), -i)
    seq = banded_diag_sequence(first_row, first_col, n)
    assert np.abs(seq - np.diag(similarity_transform(a))).max() < 1e-10


def test_banded_diag_sequence_diagonal_only():
    seq = banded_diag_sequence([3.0], [3.0], 5)
    assert np.allclose(seq, 3.0)


def test_banded_diag_sequence_validation():
    with pytest.raises(ConfigError):
        banded_diag_sequence([1.0, 2.0], [3.0], 4)  # a_0 disagreement
    with pytest.raises(ConfigError):
        banded_diag_sequence(np.ones(4), np.ones(4), 6)  # band wider than n-1
    with pytest.raises(ConfigError):
        banded_diag_sequence([], [], 4)


def test_generate_dispatch_and_info():
    a, info = generate(StructuredMatrixSpec(kind="example1", n=5))
    assert info["kind"] == "example1"
    assert np.array_equal(info["rhs"], np.arange(1, 6, dtype=complex))

    spec = StructuredMatrixSpec(kind="toeplitz", n=5, seed=2)
    a, info = generate(spec)
    assert np.array_equal(a, gen_toeplitz(spec))

    with pytest.raises(ConfigError):
        generate(StructuredMatrixSpec(kind="symbol_toeplitz", n=5))


def test_with_seed_replaces_only_seed():
    spec = StructuredMatrixSpec(kind="toeplitz", n=7, symmetric=True, seed=1)
    other = with_seed(spec, 99)
    assert other.seed == 99
    assert other.n == spec.n and other.symmetric == spec.symmetric


def _dense_kind_specs(n):
    m = {1: 1, 2: 2, 7: 7, 64: 4, 100: 5}[n]
    return [
        StructuredMatrixSpec(kind="quasi_periodic", n=n, periods=(2, 3, 5), seed=n),
        StructuredMatrixSpec(kind="block_toeplitz", n=n, m=m, seed=n),
        StructuredMatrixSpec(kind="block_toeplitz", n=n, m=m, symmetric=True, seed=n + 1),
    ]


@pytest.mark.parametrize("n", [1, 2, 7, 64, 100])
def test_dense_kinds_are_real_and_read_like_their_complex_copy(n):
    # the two kinds held as n x n arrays are stored float64; every reader
    # gives the float64 matrix and its complex128 copy bit-identical results
    for spec in _dense_kind_specs(n):
        a = generate(spec)[0]
        assert a.dtype == np.float64 and a.flags.c_contiguous, spec
        c = a.astype(np.complex128)
        b = similarity_transform(a)
        assert b.dtype == np.complex128
        assert b.tobytes() == similarity_transform(c).tobytes(), spec
        assert np.array_equal(cycle_norms(b), cycle_norms(similarity_transform(c)))
        # k < n.bit_length() streams from A's cycles, larger k transforms
        for k in sorted({1, n.bit_length() - 1, n.bit_length(), n} - {0}):
            sel = CycleSelection.of(n, range(0, n, max(n // k, 1))[:k])
            got, want = extract_cycles(a, sel), extract_cycles(c, sel)
            assert got.cycles.tobytes() == want.cycles.tobytes(), (spec, k)
        got, want = circulant_decompose_via_transform(a), circulant_decompose_via_transform(c)
        assert got.tobytes() == want.tobytes(), spec
        freq = CycleSelection.of(n, (0, 1 % n, n // 2, n - 1))
        got, want = dominance_relation(a, freq), dominance_relation(c, freq)
        assert got.weights.tobytes() == want.weights.tobytes(), spec
        assert got.partial_energies.tobytes() == want.partial_energies.tobytes(), spec
        assert (got.relative_magnitude, got.weighted_sum) == (want.relative_magnitude, want.weighted_sum)
        assert spectrum(a).tobytes() == spectrum(c).tobytes(), spec
