"""End-to-end runs of every CLI experiment at desk scale, checking the data
files, manifests and exit codes they are contracted to produce."""

import csv
import json
import os
import re
import shlex
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import cspc
import cspc.cli
from cspc.cli import _trial_seeds, build_parser, main, run_heatmap
from cspc.core import CycleSelection, apply_cycle_mask, cycle_positions
from cspc.generators import (
    FORM_FIELDS,
    KIND_FIELDS,
    StructuredMatrixSpec,
    banded_diag_sequence,
    generate,
    with_seed,
)
from cspc.sparse import select_dominant_cycles
from cspc.transform import similarity_transform


def _read_csv(path):
    with open(path) as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


def _run(args):
    return main([str(a) for a in args])


def test_parser_covers_all_experiments():
    parser = build_parser()
    for name in (
        "cycle-norms",
        "eig-errors",
        "eig-vs-n",
        "sparsifier-compare",
        "precond-table",
        "symbol-compare",
        "heatmap",
    ):
        args = parser.parse_args([name, "--n", "8"])
        assert args.experiment == name
    # built once per process, not once per run
    assert build_parser() is parser


def test_import_loads_only_the_scipy_modules_a_run_needs():
    # scipy.optimize (complex matching) and scipy.sparse.linalg (which loads
    # scipy.linalg; mask preconditioners) are imported where they are used
    lazy = ("scipy.linalg", "scipy.optimize", "scipy.sparse.linalg")
    code = f"import sys, cspc.cli; print([m for m in {lazy!r} if m in sys.modules])"
    src = str(Path(cspc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


# the flags each runner reads beyond --spec --n --seed --out --format
DECLARED_FLAGS = {
    "cycle-norms": (),
    "eig-errors": ("cycles", "trials"),
    "eig-vs-n": ("trials",),
    "sparsifier-compare": ("cycles", "trials"),
    "precond-table": ("budgets", "tol"),
    "symbol-compare": (),
    "heatmap": (),
}
FLAG_VALUES = {"cycles": "1", "budgets": "n", "tol": "1e-6", "trials": "1"}
# the subcommands whose default kind (example1, symbol_toeplitz) draws nothing
DRAWLESS = {"precond-table", "symbol-compare", "heatmap"}


@pytest.mark.parametrize("name", DECLARED_FLAGS)
def test_subcommand_takes_only_the_flags_it_reads(name, tmp_path, capsys):
    declared = DECLARED_FLAGS[name]
    out = tmp_path / "x.csv"
    args = [name, "--n", "100" if name == "eig-vs-n" else "8", "--out", str(out), "--format", "csv"]
    for flag in declared:
        args += [f"--{flag}", FLAG_VALUES[flag]]
    if name in DRAWLESS:
        # --seed is parsed by every subcommand, but a kind that draws
        # nothing rejects it, whatever its value, and says which kind
        for seed in ("0", "1"):
            assert _run([*args, "--seed", seed]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: kind ") and "--seed" in err, err
        assert not out.exists()
    else:
        args += ["--seed", "1"]
    parser = build_parser()
    parser.parse_args(args)
    for flag in FLAG_VALUES.keys() - set(declared):
        with pytest.raises(SystemExit) as e:
            parser.parse_args([*args, f"--{flag}", FLAG_VALUES[flag]])
        assert e.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit):
        parser.parse_args([name, "--help"])
    usage = capsys.readouterr().out
    assert {flag for flag in FLAG_VALUES if f"--{flag}" in usage} == set(declared)
    assert _run(args) == 0
    manifest = json.loads((tmp_path / "x.csv.manifest.json").read_text())
    assert set(manifest["config"]) == {"spec", "format", *declared}
    # the spec echo holds what the generator read, and regenerates the spec
    spec = manifest["config"]["spec"]
    assert set(spec) == {"kind", "n", *KIND_FIELDS[spec["kind"]]}
    assert StructuredMatrixSpec.from_json_dict(spec).to_json_dict() == spec
    assert ("seed" in spec) == (name not in DRAWLESS)
    assert manifest["seed"] == spec.get("seed")


def test_readme_command_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("cspc ")]
    parser = build_parser()
    assert {parser.parse_args(shlex.split(line)[1:]).experiment for line in lines} == set(
        DECLARED_FLAGS
    )


def test_readme_python_blocks_print_their_comments():
    # each block runs as written and prints exactly its "# " comment lines
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = [part.split("```", 1)[0] for part in readme.split("```python\n")[1:]]
    assert len(blocks) == 2
    src = str(Path(cspc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    for code in blocks:
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        expected = [line[2:] for line in code.splitlines() if line.startswith("# ")]
        assert expected and done.stdout.splitlines() == expected, done.stdout


def _readme_fields(section, first_header):
    """{first cell: backticked names in the second} of the table headed first_header."""
    table = section.split(f"\n| {first_header} |", 1)[1].split("\n\n", 1)[0]
    rows = [line.split("|")[1:3] for line in table.splitlines()[2:]]
    return {name.strip(" `"): tuple(re.findall(r"`(\w+)`", cell)) for name, cell in rows}


def test_readme_spec_tables_match_the_fields_read():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    assert _readme_fields(section, "kind") == KIND_FIELDS
    assert _readme_fields(section, "symbol form") == FORM_FIELDS


def test_cycle_norms_output_and_manifest(tmp_path):
    out = tmp_path / "norms.csv"
    assert _run(["cycle-norms", "--n", "8", "--seed", "3", "--out", out]) == 0
    header, rows = _read_csv(out)
    assert header == ["cycle_index", "folded_index", "l2_norm"]
    assert len(rows) == 8
    assert rows[0][0] == "0" and rows[0][1] == "8"  # folding convention
    assert rows[1][1] == "1"
    assert all(float(r[2]) >= 0 for r in rows)

    manifest = json.loads((tmp_path / "norms.csv.manifest.json").read_text())
    assert manifest["experiment"] == "cycle-norms"
    assert manifest["version"] == cspc.__version__
    assert manifest["seed"] == 3
    assert manifest["config"]["spec"]["n"] == 8


def test_cycle_norms_json_format(tmp_path):
    out = tmp_path / "norms.json"
    assert _run(["cycle-norms", "--n", "6", "--out", out, "--format", "json"]) == 0
    payload = json.loads(out.read_text())
    assert len(payload) == 6
    assert set(payload[0]) == {"cycle_index", "folded_index", "l2_norm"}


def test_eig_errors_requires_cycles(tmp_path):
    assert _run(["eig-errors", "--n", "12", "--out", tmp_path / "x.csv"]) == 2
    for bad in ("0,4", "4,13"):
        assert _run(["eig-errors", "--n", "12", "--cycles", bad, "--out", tmp_path / "x.csv"]) == 2
    for trials in ("0", "-1"):
        args = ["eig-errors", "--n", "12", "--cycles", "4", "--trials", trials]
        assert _run([*args, "--out", tmp_path / "x.csv"]) == 2


def test_eig_errors_runs(tmp_path):
    out = tmp_path / "errs.csv"
    code = _run(
        ["eig-errors", "--n", "12", "--cycles", "1,4,12", "--trials", "3",
         "--seed", "1", "--out", out]
    )
    assert code == 0
    header, rows = _read_csv(out)
    assert header == [
        "k_cycles", "mean_rel_err", "std_rel_err", "std_rel_err_across",
        "frob_residual_ratio",
    ]
    assert [r[0] for r in rows] == ["1", "4", "12"]
    # keeping every cycle reproduces the spectrum and drops nothing
    assert float(rows[2][1]) < 1e-10
    assert float(rows[2][4]) == 0.0
    assert float(rows[0][1]) > float(rows[2][1])


def test_eig_errors_frob_ratio_is_dropped_cycle_norm(tmp_path):
    # at n=32, seed 7 the difference form sqrt(|B|^2 - |B~|^2) left ~2e-8
    # of cancellation residue at k=n, where nothing is dropped
    n, cycles, seed, trials = 32, (1, 4, 16, 32), 7, 2
    out = tmp_path / "errs.csv"
    code = _run(
        ["eig-errors", "--n", n, "--cycles", ",".join(map(str, cycles)),
         "--trials", trials, "--seed", seed, "--out", out]
    )
    assert code == 0
    _, rows = _read_csv(out)
    got = {int(r[0]): float(r[4]) for r in rows}
    assert got[n] == 0.0
    spec = StructuredMatrixSpec(kind="toeplitz", n=n, seed=seed, symmetric=True)
    for k in cycles[:-1]:
        ratios = []
        for s in _trial_seeds(seed, trials):
            a, _ = generate(with_seed(spec, s))
            b = similarity_transform(a)
            dropped = select_dominant_cycles(b, k).complement()
            energy = sum(np.linalg.norm(apply_cycle_mask(b, j)) ** 2 for j in dropped)
            ratios.append(np.sqrt(energy) / np.linalg.norm(a))
        assert got[k] == pytest.approx(np.mean(ratios), rel=1e-12)


def test_eig_errors_manifest_records_kept_cycles_and_solvers(tmp_path):
    out = tmp_path / "errs.csv"
    n, cycles, trials = 16, (1, 4, 6, 16), 3
    code = _run(
        ["eig-errors", "--n", n, "--cycles", ",".join(map(str, cycles)),
         "--trials", trials, "--seed", 2, "--out", out]
    )
    assert code == 0
    manifest = json.loads((tmp_path / "errs.csv.manifest.json").read_text())
    spec = StructuredMatrixSpec(kind="toeplitz", n=n, seed=2, symmetric=True)
    sizes = {k: [] for k in cycles}
    for s in _trial_seeds(2, trials):
        b = similarity_transform(generate(with_seed(spec, s))[0])
        for k in cycles:
            sizes[k].append(len(select_dominant_cycles(b, k)))
    assert manifest["cycles_kept"] == [
        {"k_cycles": k, "min": min(sizes[k]), "max": max(sizes[k])} for k in cycles
    ]
    # symmetric Toeplitz: the reference and every reflection-closed B~ are
    # Hermitian, one reference and one approximation per k and trial
    assert manifest["spectra"] == {"eigvalsh": trials * (1 + len(cycles)), "eigvals": 0}
    # A is real and every kept B~ is reflection-closed, so each is solved
    # through a real matrix
    assert manifest["real_form"] == trials * (1 + len(cycles))
    # and each of those in two halves: A is centrosymmetric (split by J),
    # and the real form of every B~ commutes with G = H J H
    assert manifest["split"] == trials * (1 + len(cycles))


@pytest.mark.parametrize("seed", [1, 38, 64])
def test_eig_errors_every_cycle_kept_reads_roundoff(seed, tmp_path):
    # with every cycle kept B~ = B is similar to A, so the k = n row is
    # roundoff: at most n * eps = 5.7e-14.  Solved whole, seed 38 read
    # 5.2e-14 to 6.6e-14 depending on the BLAS build; split, 9.5e-15.
    n = 256
    out = tmp_path / "errs.csv"
    args = ["eig-errors", "--n", n, "--cycles", "1,4,16,64,256", "--trials", 4, "--seed", seed]
    assert _run([*args, "--out", out]) == 0
    _, rows = _read_csv(out)
    assert rows[-1][0] == str(n)
    assert float(rows[-1][1]) <= n * np.finfo(float).eps


def test_eig_vs_n_sweep(tmp_path):
    out = tmp_path / "vsn.csv"
    code = _run(["eig-vs-n", "--n", "200", "--trials", "2", "--seed", "2", "--out", out])
    assert code == 0
    header, rows = _read_csv(out)
    assert header == ["n", "mean_rel_err", "std_rel_err", "frob_residual_ratio"]
    assert [r[0] for r in rows] == ["100", "200"]
    # symmetric block-Toeplitz, m = 5, with its coset of cycles {j n/5}:
    # every spectrum is Hermitian and has a real form, a reference and an
    # approximation per n and trial
    manifest = json.loads((tmp_path / "vsn.csv.manifest.json").read_text())
    assert manifest["spectra"] == {"eigvalsh": 2 * 2 * 2, "eigvals": 0}
    assert manifest["real_form"] == 2 * 2 * 2
    # a block-Toeplitz A with m = 5 is not centrosymmetric, so neither it
    # nor its B~ splits in half
    assert manifest["split"] == 0
    assert _run(["eig-vs-n", "--n", "50", "--out", tmp_path / "y.csv"]) == 2
    for trials in ("0", "-1"):
        assert _run(["eig-vs-n", "--n", "200", "--trials", trials, "--out", tmp_path / "y.csv"]) == 2


def test_eig_vs_n_needs_a_block_size_that_divides_every_n(tmp_path, capsys):
    # range(0, n, n // m) is the coset {j n/m} only when m divides n
    spec = StructuredMatrixSpec(kind="block_toeplitz", n=300, m=3, symmetric=True, seed=1)
    spec_file = tmp_path / "m3.json"
    spec_file.write_text(json.dumps(spec.to_json_dict()))
    out = tmp_path / "vsn.csv"
    capsys.readouterr()
    assert _run(["eig-vs-n", "--spec", spec_file, "--trials", 1, "--out", out]) == 2
    assert "block size 3 must divide every n of the sweep, not 100" in capsys.readouterr().err
    assert not out.exists()


def test_eig_vs_n_frob_ratio_is_dropped_cycle_norm(tmp_path):
    out = tmp_path / "vsn.csv"
    seed, trials = 2, 2
    assert _run(["eig-vs-n", "--n", 200, "--trials", trials, "--seed", seed, "--out", out]) == 0
    _, rows = _read_csv(out)
    spec = StructuredMatrixSpec(kind="block_toeplitz", n=100, m=5, symmetric=True, seed=seed)
    for row in rows:
        n = int(row[0])
        ratios = []
        for s in _trial_seeds(seed, trials):
            a, _ = generate(with_seed(replace(spec, n=n), s))
            b = similarity_transform(a)
            # the coset {j n/m} of the block size, reflection-closed
            dropped = CycleSelection.of(n, range(0, n, n // spec.m)).complement()
            energy = sum(np.linalg.norm(apply_cycle_mask(b, j)) ** 2 for j in dropped)
            ratios.append(np.sqrt(energy) / np.linalg.norm(a))
        assert float(row[3]) == pytest.approx(np.mean(ratios), rel=1e-12)


def test_eig_vs_n_keeps_cycle_zero_without_a_block_size(tmp_path):
    # a kind with no block size (m = 1) keeps T. Chan's circulant, cycle 0
    spec = StructuredMatrixSpec(kind="toeplitz", n=100, symmetric=True, seed=4)
    spec_file = tmp_path / "toeplitz.json"
    spec_file.write_text(json.dumps(spec.to_json_dict()))
    out = tmp_path / "vsn.csv"
    assert _run(["eig-vs-n", "--spec", spec_file, "--trials", 1, "--out", out]) == 0
    _, rows = _read_csv(out)
    [s] = _trial_seeds(4, 1)
    b = similarity_transform(generate(with_seed(spec, s))[0])
    kept = np.linalg.norm(apply_cycle_mask(b, 0))
    assert float(rows[0][3]) == pytest.approx(
        np.sqrt(np.linalg.norm(b) ** 2 - kept**2) / np.linalg.norm(b), rel=1e-10
    )


def test_sparsifier_compare(tmp_path):
    out = tmp_path / "cmp.csv"
    code = _run(
        ["sparsifier-compare", "--n", "16", "--cycles", "2", "--trials", "3",
         "--seed", "4", "--out", out]
    )
    assert code == 0
    header, rows = _read_csv(out)
    assert header == ["trial", "method", "nnz", "mean_abs_eigenvalue"]
    assert len(rows) == 6
    assert {r[1] for r in rows} == {"cycle", "direct"}
    assert all(r[2] == "32" for r in rows)
    bad = [("--cycles", "0"), ("--cycles", "40"), ("--cycles", "2,3"), ("--trials", "0"),
           ("--trials", "-2")]
    for flag, value in bad:
        assert _run(["sparsifier-compare", "--n", "16", flag, value, "--out", tmp_path / "bad.csv"]) == 2
    assert not (tmp_path / "bad.csv").exists()


def test_precond_table(tmp_path):
    out = tmp_path / "table.csv"
    code = _run(
        ["precond-table", "--n", "64", "--budgets", "n,3n", "--tol", "1e-6", "--out", out]
    )
    assert code == 0
    header, rows = _read_csv(out)
    assert header == ["method", "budget", "iterations", "converged", "final_residual"]
    assert [(r[0], r[1]) for r in rows] == [
        ("identity", "0"), ("tchan", "64"), ("tchan", "192"),
        ("cycles", "64"), ("cycles", "192"),
    ]
    assert all(r[3] == "True" for r in rows)
    manifest = json.loads((tmp_path / "table.csv.manifest.json").read_text())
    # Example 1 is exactly Toeplitz: every solve takes the FFT matvec
    assert manifest["matvec"] == {"toeplitz-fft": 5, "dense": 0}
    # and every mask is read from its diagonals, B never formed
    assert manifest["source"] == {"toeplitz-diagonals": 4, "transform": 0}
    margins = manifest["pd_margins"]
    assert [m["budget"] for m in margins] == [64, 192]
    assert margins[0]["pd_margin"] >= 0  # k = 1, cycle 0 alone
    # k = 3: Example 1's {0, 1, n - 1} is indefinite and tapered; the weak
    # check still reads negative, the pivots of the tapered mask certify it
    assert margins[1]["pd_margin"] < 0
    assert [(m["tapered"], m["dropped"]) for m in margins] == [(False, 0), (True, 0)]
    assert all(m["min_pivot"] > 0 for m in margins)


def test_precond_table_indefinite_matrix_exits_3(tmp_path, capsys):
    # 0.9 + cos(theta) is a Hermitian Toeplitz matrix with negative
    # eigenvalues; the unpreconditioned solve, first in the table, breaks down
    spec_file = tmp_path / "indefinite.json"
    spec_file.write_text(json.dumps(
        {"kind": "symbol_toeplitz", "n": 64,
         "symbol": {"form": "banded", "trig": [[0, 0.9, 0], [1, 0.5, 0], [-1, 0.5, 0]]}}
    ))
    out = tmp_path / "indefinite.csv"
    capsys.readouterr()
    assert _run(["precond-table", "--spec", spec_file, "--budgets", "n,3n", "--out", out]) == 3
    assert capsys.readouterr().err.startswith("numerical failure: ")
    assert not out.exists()


def test_precond_table_block_toeplitz_takes_dense_matvec(tmp_path):
    spec_file = tmp_path / "block.json"
    spec_file.write_text(json.dumps(
        {"kind": "block_toeplitz", "n": 40, "m": 4, "symmetric": True, "make_pd": True, "seed": 3}
    ))
    out = tmp_path / "block.csv"
    assert _run(["precond-table", "--spec", spec_file, "--budgets", "n", "--out", out]) == 0
    _, rows = _read_csv(out)
    assert all(r[3] == "True" for r in rows)
    manifest = json.loads((tmp_path / "block.csv.manifest.json").read_text())
    assert manifest["matvec"] == {"toeplitz-fft": 0, "dense": 3}
    assert manifest["source"] == {"toeplitz-diagonals": 0, "transform": 2}


def test_symbol_compare_default_symbol(tmp_path):
    out = tmp_path / "sym.csv"
    assert _run(["symbol-compare", "--n", "16", "--out", out]) == 0
    header, rows = _read_csv(out)
    assert header == ["set", "index", "re", "im"]
    assert len(rows) == 48
    assert [r[0] for r in rows[:16]] == ["symbol"] * 16
    assert {r[0] for r in rows} == {"symbol", "transform_diag", "eigenvalues"}


def test_symbol_compare_banded_spec_matches_sequence(tmp_path):
    spec = {
        "kind": "symbol_toeplitz",
        "n": 12,
        "symbol": {
            "form": "banded",
            "trig": [[0, 2.0, 0.0], [1, -1.0, 0.0], [-1, -1.0, 0.0]],
        },
    }
    spec_file = tmp_path / "band.json"
    spec_file.write_text(json.dumps(spec))
    out = tmp_path / "sym.csv"
    assert _run(["symbol-compare", "--spec", spec_file, "--out", out]) == 0
    _, rows = _read_csv(out)
    diag = np.array(
        [complex(float(r[2]), float(r[3])) for r in rows if r[0] == "transform_diag"]
    )
    expect = banded_diag_sequence([2.0, -1.0], [2.0, -1.0], 12)
    assert np.abs(diag - expect).max() < 1e-10


def test_heatmap(tmp_path):
    out = tmp_path / "heat.csv"
    assert _run(["heatmap", "--n", "8", "--out", out]) == 0
    header, rows = _read_csv(out)
    assert header == ["row", "col", "normalized_magnitude"]
    assert len(rows) == 64
    vals = np.array([float(r[2]) for r in rows])
    assert vals.min() >= 0 and vals.max() <= 1 + 1e-12
    assert _run(["heatmap", "--n", "2048", "--out", tmp_path / "big.csv"]) == 2


@pytest.mark.parametrize("n", [1, 2, 7, 64])
def test_heatmap_rows_match_the_index_oracle(n, monkeypatch):
    # each entry over the peak magnitude of its cycle, the cycles read
    # through cycle_positions; identity's zero cycles emit 0.  The peaks
    # of cycles j and n - j of W A W* agree for a real or a Toeplitz A, so
    # a complex non-Toeplitz A pins which of the two each entry reads.
    rng = np.random.default_rng(n)
    matrices = [
        generate(StructuredMatrixSpec(kind="example1", n=n))[0],
        generate(StructuredMatrixSpec(kind="quasi_periodic", n=n, periods=(2, 3), seed=3))[0],
        np.eye(n),
        rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)),
    ]
    for a in matrices:
        monkeypatch.setattr(cspc.cli, "generate", lambda spec: (a, {}))
        _, rows, _ = run_heatmap(StructuredMatrixSpec(kind="example1", n=n), {})
        mags = np.abs(similarity_transform(a))
        positions = cycle_positions(n, range(n))
        peaks = mags[positions].max(axis=1)
        mags[positions] /= np.where(peaks > 0, peaks, np.inf)[:, None]
        p, q = np.divmod(np.arange(n * n), n)
        assert rows == list(zip(p.tolist(), q.tolist(), mags.ravel().tolist()))


def test_spec_file_with_n_override(tmp_path):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({"kind": "toeplitz", "n": 6, "seed": 5}))
    out = tmp_path / "n.csv"
    assert _run(["cycle-norms", "--spec", spec_file, "--n", "10", "--out", out]) == 0
    _, rows = _read_csv(out)
    assert len(rows) == 10


def test_spec_seed_is_the_run_seed(tmp_path):
    # without --seed, the spec file's seed draws the trials and is the
    # manifest's seed: the same run as --seed with the default spec
    csvs = {}
    for seed in (7, 8):
        spec_file = tmp_path / f"spec{seed}.json"
        spec_file.write_text(json.dumps({"kind": "toeplitz", "n": 16, "symmetric": True, "seed": seed}))
        for name, flags in (("eig-errors", ["--cycles", "1,4", "--trials", 2]), ("cycle-norms", [])):
            out = tmp_path / f"{name}{seed}.csv"
            assert _run([name, "--spec", spec_file, *flags, "--out", out]) == 0
            manifest = json.loads(Path(f"{out}.manifest.json").read_text())
            assert manifest["seed"] == manifest["config"]["spec"]["seed"] == seed
        csvs[seed] = (tmp_path / f"eig-errors{seed}.csv").read_text()
    assert csvs[7] != csvs[8]
    out = tmp_path / "flag.csv"
    assert _run(["eig-errors", "--n", 16, "--seed", 7, "--cycles", "1,4", "--trials", 2, "--out", out]) == 0
    assert out.read_text() == csvs[7]


def test_drawless_kind_repeats_its_matrix_across_trials(tmp_path):
    # the trials of a kind that draws nothing are one matrix, so the
    # spread across them is zero, and the manifest records no seed
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({"kind": "example1", "n": 16}))
    out = tmp_path / "e.csv"
    assert _run(["eig-errors", "--spec", spec_file, "--cycles", "1,3", "--trials", 3, "--out", out]) == 0
    _, rows = _read_csv(out)
    assert [float(row[3]) for row in rows] == [0.0, 0.0]
    assert json.loads(Path(f"{out}.manifest.json").read_text())["seed"] is None


def test_unwritable_out_is_config_error(tmp_path, capsys):
    out = tmp_path / "missing" / "x.csv"
    assert _run(["cycle-norms", "--n", "8", "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1, err


def test_missing_spec_and_n_is_config_error(tmp_path):
    assert _run(["cycle-norms", "--out", tmp_path / "z.csv"]) == 2


def test_malformed_tokens_and_zero_n_are_config_errors(tmp_path, capsys):
    out = tmp_path / "bad.csv"
    for bad in ("1,x", "3q", "xn"):
        assert _run(["eig-errors", "--n", "12", "--cycles", bad, "--out", out]) == 2
        assert _run(["precond-table", "--n", "16", "--budgets", bad, "--out", out]) == 2
    assert _run(["precond-table", "--n", "16", "--budgets", "infn", "--out", out]) == 2
    capsys.readouterr()
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({"kind": "toeplitz", "n": 6}))
    for args in (["--n", "0"], ["--spec", spec_file, "--n", "0"]):
        assert _run(["cycle-norms", *args, "--out", out]) == 2
        assert "dimension must be >= 1, got 0" in capsys.readouterr().err
    assert not out.exists()


def _assert_config_error(code, capsys):
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


MALFORMED_SPECS = {
    "unknown key": '{"kind": "toeplitz", "n": 16, "size": 16}',
    "string n": '{"kind": "toeplitz", "n": "16"}',
    "fractional n": '{"kind": "toeplitz", "n": 16.5}',
    "scalar periods": '{"kind": "quasi_periodic", "n": 16, "periods": 3}',
    "top-level list": '[{"kind": "toeplitz", "n": 16}]',
    "invalid JSON": '{"kind": "toeplitz", "n": 16',
    "field the kind does not read": '{"kind": "toeplitz", "n": 16, "periods": [2]}',
    "removed field": '{"kind": "toeplitz", "n": 16, "period_weights": null}',
    "seed on a kind that draws nothing": '{"kind": "example1", "n": 16, "seed": 3}',
    "banded symbol with poly": json.dumps(
        {"kind": "symbol_toeplitz", "n": 16,
         "symbol": {"form": "banded", "trig": [[0, 2.0, 0.0]], "poly": [[1.0, 0.0]]}}
    ),
    "repeated trig order": json.dumps(
        {"kind": "symbol_toeplitz", "n": 16,
         "symbol": {"form": "banded", "trig": [[1, 1.0, 0.0], [1, 5.0, 0.0]]}}
    ),
}


@pytest.mark.parametrize("case", [*MALFORMED_SPECS, "missing file", "negative seed"])
def test_malformed_spec_is_config_error(case, tmp_path, capsys):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(MALFORMED_SPECS.get(case, '{"kind": "toeplitz", "n": 16}'))
    args = ["cycle-norms", "--spec", spec_file, "--out", tmp_path / "x.csv"]
    if case == "missing file":
        spec_file.unlink()
    if case == "negative seed":
        _assert_config_error(_run([*args, "--seed", "-1"]), capsys)
        args = ["cycle-norms", "--n", "16", "--seed", "-1", "--out", tmp_path / "x.csv"]
    _assert_config_error(_run(args), capsys)
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
def test_precond_table_tolerance_must_be_finite_and_positive(tol, tmp_path, capsys):
    args = ["precond-table", "--n", "64", "--budgets", "n", "--tol", tol]
    _assert_config_error(_run([*args, "--out", tmp_path / "t.csv"]), capsys)
    assert not (tmp_path / "t.csv").exists()


def test_precond_table_on_non_hermitian_input_is_config_error(tmp_path, capsys):
    spec_file = tmp_path / "nonsym.json"
    spec_file.write_text(json.dumps({"kind": "toeplitz", "n": 64, "seed": 1}))
    args = ["precond-table", "--spec", spec_file, "--budgets", "n", "--out", tmp_path / "t.csv"]
    _assert_config_error(_run(args), capsys)


def test_numerical_failure_exit_code(tmp_path):
    # indefinite symmetric Toeplitz: conjugate gradient breaks down
    spec_file = tmp_path / "indef.json"
    spec_file.write_text(
        json.dumps({"kind": "toeplitz", "n": 32, "symmetric": True, "seed": 0})
    )
    code = _run(
        ["precond-table", "--spec", spec_file, "--budgets", "n", "--out", tmp_path / "t.csv"]
    )
    assert code == 3


def test_linalg_failure_exit_code(tmp_path, monkeypatch):
    # an eigensolver that fails to converge is a numerical failure, not a traceback
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", fail)
    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    code = _run(["eig-errors", "--n", "8", "--cycles", "1", "--trials", "1", "--out", tmp_path / "e.csv"])
    assert code == 3


def test_default_output_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _run(["cycle-norms", "--n", "4"]) == 0
    assert (tmp_path / "cycle_norms.csv").exists()
    assert (tmp_path / "cycle_norms.csv.manifest.json").exists()
