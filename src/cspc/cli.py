"""Experiment harness: generates matrices, runs the decomposition and
preconditioning pipelines, and writes CSV or JSON data files.

Each subcommand takes the common flags --spec, --n, --seed, --out and
--format, plus only those of --cycles, --budgets, --tol and --trials that
its runner reads (_EXPERIMENTS); any other flag is a usage error.

Each runner is a function (spec, flags) -> (header, rows, diagnostics),
and main alone writes: the data file, and next to it (same path plus
".manifest.json") a manifest echoing the spec, the format and the
subcommand's own flags, the library version, the seed and the runner's
diagnostics, which is enough to regenerate the data exactly.

The spec's seed (--seed, else the spec file's, else 0) is the run's only
seed: the trial experiments draw trial t from child t of it (_trials).
Only the kinds that draw take a seed; --seed on any other kind is a
configuration error, and their manifest's seed is null.

Exit codes: 0 on success, 2 for configuration problems (also what
argparse uses), an unwritable --out among them, 3 for numerical failures.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from collections import Counter
from dataclasses import replace

import numpy as np

from . import __version__
from .core import (
    ConfigError,
    CycleSelection,
    NumericalError,
    _circulant_view,
    cycle_norms,
    iter_cycle_blocks,
    keep_cycles,
)
from .generators import (
    KIND_FIELDS,
    StructuredMatrixSpec,
    SymbolSpec,
    eval_symbol,
    generate,
    with_seed,
)
from .precond import precond_benchmark
from .sparse import (
    direct_sparsify,
    eigen_error_report,
    select_dominant_cycles,
    selections_from_norms,
    spectrum,
)
from .transform import similarity_transform

__all__ = ["main"]


def _trial_seeds(seed: int, trials: int) -> list[int]:
    if trials < 1:
        raise ConfigError(f"--trials must be at least 1, got {trials}")
    ss = np.random.SeedSequence(seed)
    return [int(child.generate_state(1, dtype=np.uint64)[0]) for child in ss.spawn(trials)]


def _draws(spec: StructuredMatrixSpec) -> bool:
    """Whether the spec's kind draws its matrix from the seed."""
    return "seed" in KIND_FIELDS[spec.kind]


def _trials(spec: StructuredMatrixSpec, trials: int):
    """(A, B = W A W*) for each trial, A drawn from a child seed of spec.seed;
    a kind that draws nothing gives the same A every trial."""
    for seed in _trial_seeds(spec.seed, trials):
        a, _ = generate(with_seed(spec, seed) if _draws(spec) else spec)
        yield a, similarity_transform(a)


def run_cycle_norms(spec, flags):
    a, _ = generate(spec)
    norms = cycle_norms(similarity_transform(a)).tolist()
    # plotting convention: cycle 0 shown at folded index n
    rows = [(k, k or spec.n, norm) for k, norm in enumerate(norms)]
    return ["cycle_index", "folded_index", "l2_norm"], rows, {}


def _eig_error_stats(
    a_norm: float,
    b: np.ndarray,
    norms: np.ndarray,
    reference: np.ndarray,
    sel: CycleSelection,
    solvers: Counter,
    kept: np.ndarray | None = None,
) -> tuple[float, float, float]:
    """(mean, std) relative eigenvalue error of the cycles sel of b = W A W*
    against the reference eigenvalues of A, and |B - B~|_F / |A|_F, with
    a_norm = |A|_F.

    B~ is b masked to the cycles sel (core.keep_cycles), written into kept
    when given.  B - B~ is the dropped cycles, so the ratio is the l2 norm
    of their norms (norms holds all n cycle norms of b), with no n x n
    difference, and reads exactly 0 when every cycle is kept.
    """
    rep = eigen_error_report(spectrum(keep_cycles(b, sel.indices, kept), solvers), reference)
    dropped = np.delete(norms, sel.as_array())
    ratio = float(np.linalg.norm(dropped) / a_norm)
    return rep.mean_relative_error, rep.std_relative_error, ratio


def _solver_counts(solvers: Counter) -> dict:
    """Manifest fields: how many spectra each solver computed, how many of
    them were solved as a real matrix, and how many of those in two halves."""
    return {
        "spectra": {name: solvers[name] for name in ("eigvalsh", "eigvals")},
        "real_form": solvers["real_form"],
        "split": solvers["split"],
    }


def run_eig_errors(spec, flags):
    cycles = flags["cycles"]
    if not cycles:
        raise ConfigError("eig-errors needs --cycles")
    if not all(1 <= k <= spec.n for k in cycles):
        raise ConfigError(f"cycle counts {list(cycles)} must lie in [1, {spec.n}]")
    solvers = Counter()
    stats, sizes = [], []
    for a, b in _trials(spec, flags["trials"]):
        reference = spectrum(a, solvers)
        # one norm scan per trial ranks every k and prices what each drops
        norms = cycle_norms(b)
        sels = selections_from_norms(norms, cycles)
        a_norm, kept = np.linalg.norm(a, "fro"), np.empty_like(b)
        stats.append([_eig_error_stats(a_norm, b, norms, reference, sel, solvers, kept) for sel in sels])
        sizes.append([len(sel) for sel in sels])
    stats = np.array(stats)  # (trial, k, [mean, std, ratio])
    sizes = np.array(sizes)  # (trial, k): cycles kept, k - 1 where k would split a tied pair
    rows = [
        (
            k,
            float(stats[:, j, 0].mean()),
            float(stats[:, j, 1].mean()),
            float(stats[:, j, 0].std()),
            float(stats[:, j, 2].mean()),
        )
        for j, k in enumerate(cycles)
    ]
    kept = [
        {"k_cycles": k, "min": int(sizes[:, j].min()), "max": int(sizes[:, j].max())}
        for j, k in enumerate(cycles)
    ]
    header = ["k_cycles", "mean_rel_err", "std_rel_err", "std_rel_err_across", "frob_residual_ratio"]
    return header, rows, {"cycles_kept": kept, **_solver_counts(solvers)}


def run_eig_vs_n(spec, flags):
    if spec.n < 100:
        raise ConfigError("eig-vs-n sweeps n from 100 up; give --n >= 100")
    sizes = range(100, spec.n + 1, 100)
    # the coset {j n/m} the block size makes dominant; cycle 0 when m = 1.
    # It is reflection-closed, so B~ stays Hermitian, and a coset only when
    # m divides n
    uneven = [n for n in sizes if n % spec.m]
    if uneven:
        raise ConfigError(f"block size {spec.m} must divide every n of the sweep, not {uneven[0]}")
    solvers = Counter()
    rows = []
    for n in sizes:
        stats = []
        for a, b in _trials(replace(spec, n=n), flags["trials"]):
            sel = CycleSelection.of(n, range(0, n, n // spec.m))
            reference = spectrum(a, solvers)
            a_norm = np.linalg.norm(a, "fro")
            stats.append(_eig_error_stats(a_norm, b, cycle_norms(b), reference, sel, solvers))
        stats = np.array(stats)
        rows.append(
            (n, float(stats[:, 0].mean()), float(stats[:, 1].mean()), float(stats[:, 2].mean()))
        )
    return ["n", "mean_rel_err", "std_rel_err", "frob_residual_ratio"], rows, _solver_counts(solvers)


def run_sparsifier_compare(spec, flags):
    cycles = flags["cycles"] or (5,)
    if len(cycles) != 1:
        raise ConfigError(f"sparsifier-compare takes one cycle count, got {list(cycles)}")
    k, n = cycles[0], spec.n
    if not 1 <= k <= n:
        raise ConfigError(f"cycle count {k} must lie in [1, {n}]")
    nnz = k * n
    rows = []
    for t, (a, b) in enumerate(_trials(spec, flags["trials"])):
        kept = keep_cycles(b, select_dominant_cycles(b, k).indices)
        rows.append((t, "cycle", nnz, float(np.mean(np.abs(spectrum(kept))))))
        rows.append((t, "direct", nnz, float(np.mean(np.abs(spectrum(direct_sparsify(a, nnz)))))))
    return ["trial", "method", "nnz", "mean_abs_eigenvalue"], rows, {}


def run_precond_table(spec, flags):
    if not flags["budgets"]:
        raise ConfigError("precond-table needs --budgets")
    results = precond_benchmark(spec, flags["budgets"], tol=flags["tol"])
    rows = [(r.method, r.budget, r.iterations, r.converged, r.final_residual) for r in results]
    header = ["method", "budget", "iterations", "converged", "final_residual"]
    routes = Counter(r.matvec for r in results)
    sources = Counter(r.source for r in results)
    diagnostics = {
        "matvec": {name: routes[name] for name in ("toeplitz-fft", "dense")},
        "source": {name: sources[name] for name in ("toeplitz-diagonals", "transform")},
        "pd_margins": [
            {
                "budget": r.budget,
                "pd_margin": r.pd_margin,
                "tapered": r.tapered,
                "dropped": r.dropped,
                "min_pivot": r.min_pivot,
            }
            for r in results
            if r.method == "cycles"
        ],
    }
    return header, rows, diagnostics


def run_symbol_compare(spec, flags):
    if spec.symbol is None:
        raise ConfigError("symbol-compare needs a spec with a symbol")
    a, _ = generate(spec)
    n = spec.n
    b = similarity_transform(a)
    theta = 2 * np.pi * np.arange(n) / n
    symbol_vals = np.atleast_1d(eval_symbol(spec.symbol, theta))
    diag = np.diag(b)
    eigs = spectrum(a)
    rows = []
    for q in range(n):
        rows.append(("symbol", q, float(symbol_vals[q].real), float(symbol_vals[q].imag)))
    for q in range(n):
        rows.append(("transform_diag", q, float(diag[q].real), float(diag[q].imag)))
    for q in range(n):
        rows.append(("eigenvalues", q, float(eigs[q].real), float(eigs[q].imag)))
    return ["set", "index", "re", "im"], rows, {}


def run_heatmap(spec, flags):
    n = spec.n
    if n > 1024:
        raise ConfigError(f"heatmap dumps n^2 rows; n={n} exceeds the 1024 cap")
    a, _ = generate(spec)
    mags = np.abs(similarity_transform(a))
    peaks = np.empty(n)
    for ks, block in iter_cycle_blocks(mags):
        peaks[ks.start : ks.stop] = block.max(axis=1)
    # each entry over the peak magnitude of its cycle; zero cycles emit 0
    mags /= _circulant_view(np.where(peaks > 0, peaks, np.inf))
    p, q = np.divmod(np.arange(n * n), n)
    rows = list(zip(p.tolist(), q.tolist(), mags.ravel().tolist()))
    return ["row", "col", "normalized_magnitude"], rows, {}


_SYMMETRIC_TOEPLITZ = {"kind": "toeplitz", "symmetric": True}
# the default symbol: (1 + theta) * exp(i * theta)
_SYMBOL_TOEPLITZ = {
    "kind": "symbol_toeplitz",
    "symbol": SymbolSpec(form="product", poly=(1.0, 1.0), trig={1: 1.0}),
}

# subcommand: (runner, the StructuredMatrixSpec fields --n builds without
# --spec, the flags the runner reads beyond --spec --n --seed --out --format)
_EXPERIMENTS = {
    "cycle-norms": (run_cycle_norms, _SYMMETRIC_TOEPLITZ, ()),
    "eig-errors": (run_eig_errors, _SYMMETRIC_TOEPLITZ, ("cycles", "trials")),
    "eig-vs-n": (run_eig_vs_n, {"kind": "block_toeplitz", "m": 5, "symmetric": True}, ("trials",)),
    "sparsifier-compare": (run_sparsifier_compare, _SYMMETRIC_TOEPLITZ, ("cycles", "trials")),
    "precond-table": (run_precond_table, {"kind": "example1"}, ("budgets", "tol")),
    "symbol-compare": (run_symbol_compare, _SYMBOL_TOEPLITZ, ()),
    "heatmap": (run_heatmap, {"kind": "example1"}, ()),
}

_FLAGS = {
    "cycles": {"help": "comma-separated cycle counts"},
    "budgets": {"help": "comma-separated nnz budgets; '3n' means 3*n"},
    "tol": {"type": float, "default": 1e-6, "help": "solver tolerance"},
    "trials": {"type": int, "default": 50, "help": "number of random trials"},
}


def _parse_int_list(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in raw.replace(",", " ").split())
    except ValueError as e:
        raise ConfigError(f"malformed integer list {raw!r}: {e}") from e


def _parse_budgets(raw: str, n: int) -> tuple[int, ...]:
    """Budget tokens: plain integers, or multiples of the dimension like "3n"."""
    out = []
    for tok in raw.replace(",", " ").split():
        t = tok.strip().lower()
        try:
            if t.endswith("n"):
                mult = t[:-1]
                out.append(int(float(mult) * n) if mult else n)
            else:
                out.append(int(t))
        except (ValueError, OverflowError) as e:  # "xn", "infn"
            raise ConfigError(f"malformed budget {tok!r}") from e
    return tuple(out)


def _build_spec(args, defaults: dict) -> StructuredMatrixSpec:
    if args.spec:
        spec = StructuredMatrixSpec.from_json_file(args.spec)
        if args.n is not None:
            spec = replace(spec, n=args.n)
    elif args.n is None:
        raise ConfigError("give either --spec FILE or --n")
    else:
        spec = StructuredMatrixSpec(**defaults, n=args.n)
    if args.seed is not None:
        if not _draws(spec):
            raise ConfigError(f"kind {spec.kind!r} draws nothing and takes no --seed")
        spec = with_seed(spec, args.seed)
    return spec


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cspc",
        description="cycle-decomposition experiment harness",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name, (_, _, flags) in _EXPERIMENTS.items():
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--spec", help="JSON matrix spec file")
        p.add_argument("--n", type=int, help="matrix dimension (overrides spec)")
        for flag in flags:
            p.add_argument(f"--{flag}", **_FLAGS[flag])
        p.add_argument("--seed", type=int, default=None, help="base seed (overrides spec)")
        p.add_argument("--out", help="output data file")
        p.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    run, defaults, declared = _EXPERIMENTS[args.experiment]
    try:
        spec = _build_spec(args, defaults)
        flags = {flag: getattr(args, flag) for flag in declared}
        if flags.get("cycles") is not None:
            flags["cycles"] = _parse_int_list(flags["cycles"])
        if flags.get("budgets") is not None:
            flags["budgets"] = _parse_budgets(flags["budgets"], spec.n)
        header, rows, diagnostics = run(spec, flags)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (NumericalError, np.linalg.LinAlgError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    path = args.out or f"{args.experiment.replace('-', '_')}.{args.fmt}"
    manifest = {
        "experiment": args.experiment,
        "config": {"spec": spec.to_json_dict(), **flags, "format": args.fmt},
        "version": __version__,
        "seed": spec.seed if _draws(spec) else None,
        **diagnostics,
    }
    try:
        with open(path, "w", newline="") as f:
            if args.fmt == "csv":
                w = csv.writer(f)
                w.writerow(header)
                w.writerows(rows)
            else:
                json.dump([dict(zip(header, row)) for row in rows], f, indent=1)
        with open(path + ".manifest.json", "w") as f:
            json.dump(manifest, f, indent=1)
    except OSError as e:
        print(f"error: cannot write {e.filename or path}: {e.strerror}", file=sys.stderr)
        return 2
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
