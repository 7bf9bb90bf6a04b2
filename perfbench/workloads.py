"""The benchmark's workloads: inputs made from a seed, one unit of work,
and the correctness gates each unit must pass.

Every call into the package goes through a module attribute
(``precond.pcg_solve``, not a name bound at import), so the tracer's
rebinding reaches it.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from cspc import cli, core, decomposition, generators, precond, sparse, transform

SIZES = {
    "full": {
        "precond_n": 2048,
        "eig_n": 256,
        "eig_cycles": (1, 4, 16, 64, 256),
        "eig_trials": 4,
        "scan": ((1024, 4), (1000, 5)),
    },
    # the smoke test's sizes, also the warm-up sizes of a full run
    "tiny": {
        "precond_n": 128,
        "eig_n": 32,
        "eig_cycles": (1, 4, 16, 32),
        "eig_trials": 2,
        "scan": ((64, 4), (60, 5)),
    },
}

PCG_TOL = 1e-6
EIG_REPORT_K = 16
SCAN_CYCLES = 16
EPS = np.finfo(float).eps


@dataclass
class Op:
    """One attempted operation; error is None when it ran and passed its gate."""

    name: str
    seconds: float | None
    error: str | None = None


@dataclass
class Unit:
    ops: list[Op] = field(default_factory=list)
    values: dict = field(default_factory=dict)  # end-to-end values of this unit
    counts: dict = field(default_factory=dict)  # exact, must repeat unit to unit
    layers: dict = field(default_factory=dict)  # per-layer values the workload measures itself
    notes: dict = field(default_factory=dict)  # paths taken, known-defect values
    traced: bool = False
    wall_s: float = 0.0


def _error(e: Exception) -> str:
    return f"{type(e).__name__}: {e}"


def _paused(tracer):
    return tracer.paused() if tracer is not None else nullcontext()


class _TimedApply:
    """Preconditioner proxy that records a span around each apply."""

    def __init__(self, m, tracer):
        self.m = m
        self.tracer = tracer

    def apply(self, v):
        with self.tracer.span("precond.apply"):
            return self.m.apply(v)


class PrecondSolve:
    """Example 1 (geometric-decay SPD Toeplitz), rhs (1..n), three
    preconditioned CG solves per unit, each including its build.

    Example 1 has no random draw, so the seed does not change the inputs.
    """

    name = "precond-solve"

    def __init__(self, size: str, seed: int, corrupt: bool = False):
        self.n = SIZES[size]["precond_n"]
        self.seed = seed
        self.corrupt = corrupt
        self.config = {"n": self.n, "tol": PCG_TOL, "solves": ["cycles k=1", "cycles k=3", "tchan 3n"]}

    def generate(self):
        a, info = generators.generate(generators.StructuredMatrixSpec(kind="example1", n=self.n))
        return a, info["rhs"]

    def warm_up(self):
        tiny = PrecondSolve("tiny", self.seed)
        tiny.unit(tiny.generate(), None)

    def unit(self, inputs, tracer) -> Unit:
        a, rhs = inputs
        n = a.shape[0]
        u = Unit()
        solves = (
            ("solve_s", "k1", lambda: precond.build_cycle_preconditioner(a, 1)),
            ("solve_k3_s", "k3", lambda: precond.build_cycle_preconditioner(a, 3)),
            ("solve_tchan_s", "tchan", lambda: precond.build_tchan_preconditioner(a, 3 * n)),
        )
        for metric, key, build in solves:
            try:
                t0 = perf_counter()
                m = build()
                x, rep = precond.pcg_solve(a, rhs, m=m if tracer is None else _TimedApply(m, tracer), tol=PCG_TOL)
                dt = perf_counter() - t0
            except Exception as e:  # a failing solve is counted; the run goes on
                u.ops.append(Op(metric, None, _error(e)))
                continue
            if self.corrupt:
                x = x.copy()
                x[0] += np.abs(x).max()
            res = float(np.linalg.norm(rhs - a @ x) / np.linalg.norm(rhs))
            err = None
            if not rep.converged:
                err = f"{key}: PCG did not converge in {rep.iterations} iterations"
            elif not res < PCG_TOL:
                err = f"{key}: true residual {res:.3e} not below tol {PCG_TOL:g}"
            u.ops.append(Op(metric, dt, err))
            u.values[metric] = dt
            u.counts[f"pcg_iterations_{key}"] = rep.iterations
            u.layers[f"precond.pcg_iterations_{key}"] = rep.iterations
            u.notes[f"true_residual_{key}"] = res
        if len(u.values) == len(solves):
            u.values["unit_s"] = sum(u.values.values())
        return u

    def finish(self, inputs) -> dict:
        """Layer values measured once per run: the k=3 definiteness margin."""
        a, _ = inputs
        b = transform.similarity_transform(a)
        sel = sparse.select_dominant_cycles(b, 3)
        report = sparse.pd_sufficient_check(sparse.sparsify(b, sel))
        return {"precond.pd_margin": float(report.margin)}


class EigSweep:
    """One ``cspc eig-errors`` run in process: symmetric random Toeplitz,
    cycle counts up to k=n, a fixed trial count, written to a scratch
    directory inside the checkout."""

    name = "eig-sweep"
    HEADER = ["k_cycles", "mean_rel_err", "std_rel_err", "std_rel_err_across", "frob_residual_ratio"]

    def __init__(self, size: str, seed: int, corrupt: bool = False, workdir=None):
        s = SIZES[size]
        self.n, self.cycles, self.trials = s["eig_n"], s["eig_cycles"], s["eig_trials"]
        self.seed = seed
        self.corrupt = corrupt
        self.workdir = workdir
        self.config = {"n": self.n, "cycles": list(self.cycles), "trials": self.trials}

    def generate(self):
        # the CLI draws its own matrices from the seed it is given
        return self.workdir / "eig_errors.csv"

    def warm_up(self):
        EigSweep("tiny", self.seed, workdir=self.workdir).unit(self.workdir / "warm_up.csv", None)

    def unit(self, out, tracer) -> Unit:
        u = Unit()
        argv = [
            "eig-errors",
            "--n", str(self.n),
            "--cycles", ",".join(map(str, self.cycles)),
            "--trials", str(self.trials),
            "--seed", str(self.seed),
            "--out", str(out),
        ]
        printed = io.StringIO()
        try:
            t0 = perf_counter()
            with redirect_stdout(printed):
                rc = cli.main(argv)
            dt = perf_counter() - t0
        except Exception as e:  # counted as a failed experiment
            u.ops.append(Op("experiment_s", None, _error(e)))
            return u
        with _paused(tracer):
            err = self._check(out, rc, printed.getvalue(), u)
        u.ops.append(Op("experiment_s", dt, err))
        u.values["experiment_s"] = u.values["unit_s"] = dt
        return u

    def _check(self, out, rc, printed, u: Unit) -> str | None:
        if rc != 0:
            return f"cli exited with {rc}"
        if printed.strip() != str(out):
            return f"cli printed {printed.strip()!r}, expected the output path"
        try:
            with open(out, newline="") as f:
                text = f.read()
            rows = list(csv.reader(io.StringIO(text)))
            with open(str(out) + ".manifest.json") as f:
                manifest = json.load(f)
        except (OSError, ValueError) as e:
            return f"output unreadable: {_error(e)}"
        if rows[0] != self.HEADER:
            return f"unexpected header {rows[0]}"
        table = {int(r[0]): [float(v) for v in r[1:]] for r in rows[1:]}
        if self.corrupt:
            table[self.n][0] = 0.5
        if sorted(table) != sorted(self.cycles):
            return f"rows for k={sorted(table)}, expected {list(self.cycles)}"
        if not all(math.isfinite(v) for vals in table.values() for v in vals):
            return "non-finite value in output"
        if (manifest.get("experiment"), manifest.get("seed"), manifest.get("config", {}).get("trials")) != (
            "eig-errors", self.seed, self.trials,
        ):
            return f"manifest does not echo the run: {manifest}"
        u.values["eig_rel_err"] = table[EIG_REPORT_K][0]
        u.values["eig_rel_err_kn"] = table[self.n][0]
        # known defect, reported as measured: the true value at k=n is 0
        u.values["frob_residual_ratio_kn"] = table[self.n][3]
        u.counts["output_sha256"] = hashlib.sha256(text.encode()).hexdigest()
        roundoff = self.n * EPS
        if not table[self.n][0] <= roundoff:
            return f"k=n eigenvalue error {table[self.n][0]:.3e} above roundoff {roundoff:.1e}"
        return None


class CycleScan:
    """A fixed batch of structured matrices through the cycle-analysis chain.

    Half the batch has power-of-two n (pruned extract_cycles), half not
    (full transform + mask fallback).  Block-Toeplitz uses m=4 at n=1024
    because 5 does not divide it.
    """

    name = "cycle-scan"

    def __init__(self, size: str, seed: int, corrupt: bool = False):
        self.scan = SIZES[size]["scan"]
        self.seed = seed
        self.corrupt = corrupt
        self.config = {"sizes": [n for n, _ in self.scan], "kinds": ["quasi_periodic", "block_toeplitz", "toeplitz"],
                       "cycles": SCAN_CYCLES}

    def specs(self):
        seeds = iter(int(s.generate_state(1)[0]) for s in np.random.SeedSequence(self.seed).spawn(3 * len(self.scan)))
        Spec = generators.StructuredMatrixSpec
        out = []
        for n, m in self.scan:
            out.append(Spec(kind="quasi_periodic", n=n, periods=(2, 3, 5), seed=next(seeds)))
            out.append(Spec(kind="block_toeplitz", n=n, m=m, symmetric=True, seed=next(seeds)))
            out.append(Spec(kind="toeplitz", n=n, seed=next(seeds)))
        return out

    def generate(self):
        return [(f"{s.kind}-{s.n}", generators.generate(s)[0]) for s in self.specs()]

    def warm_up(self):
        tiny = CycleScan("tiny", self.seed)
        tiny.unit(tiny.generate(), None)

    def unit(self, batch, tracer) -> Unit:
        u = Unit()
        total = 0.0
        full_mask = 0.0
        pruned_ops = []
        for label, a in batch:
            n = a.shape[0]
            counter = transform.OpCounter()
            try:
                t0 = perf_counter()
                b = transform.similarity_transform(a)
                weights = decomposition.cycle_weights(b)
                decomposition.dominance_relation(a, core.CycleSelection.of(n, (0, 1, n // 2, n - 1)))
                sel = sparse.select_dominant_cycles(b, SCAN_CYCLES)
                extracted = transform.extract_cycles(a, sel, counter)
                decomposition.circulant_decompose_via_transform(a)
                dt = perf_counter() - t0
            except Exception as e:  # counted as a failed matrix
                u.ops.append(Op(label, None, _error(e)))
                continue
            total += dt
            with _paused(tracer):
                err = self._check(label, a, b, weights, sel, extracted, counter, u)
                if tracer is not None:
                    t0 = perf_counter()
                    sparse.sparsify(transform.similarity_transform(a), sel)
                    full_mask += perf_counter() - t0
            u.ops.append(Op(label, dt, err))
            if counter.ops is not None:
                pruned_ops.append(counter.per_vector)
        if all(op.seconds is not None for op in u.ops):
            u.values["unit_s"] = total
            u.values["analyze_s"] = total / len(batch)
        u.layers["transform.pruned_path_calls"] = len(pruned_ops)
        u.layers["transform.fallback_path_calls"] = len(batch) - len(pruned_ops)
        u.layers["transform.extract_ops_per_vector"] = float(np.mean(pruned_ops)) if pruned_ops else 0.0
        if tracer is not None:
            u.layers["transform.full_mask_s"] = full_mask
        return u

    def _check(self, label, a, b, weights, sel, extracted, counter, u: Unit) -> str | None:
        n = a.shape[0]
        k = len(sel)
        path = "fallback" if counter.ops is None else "pruned"
        u.notes[f"path[{label}]"] = path
        u.counts[f"ops_per_vector[{label}]"] = counter.per_vector
        u.counts[f"selection[{label}]"] = sel.indices
        cycles = extracted.cycles.copy()
        if self.corrupt:
            cycles[0, 0] += 1e-6 * np.abs(b).max()
        reference = sparse.sparsify(b, sel).cycles
        roundoff = n * EPS
        gap = float(np.abs(cycles - reference).max() / np.abs(b).max())
        if not gap <= roundoff:
            return f"extract_cycles differs from the masked transform by {gap:.2e} (relative)"
        if not abs(weights.sum() - 1.0) <= roundoff:
            return f"cycle weights sum to 1 + {weights.sum() - 1.0:.2e}"
        if path == "pruned":
            bound = (n - k) + n * math.log2(k)
            if not counter.per_vector <= bound:
                return f"{counter.per_vector} ops per vector exceed the bound {bound}"
        return None


WORKLOADS = {w.name: w for w in (PrecondSolve, EigSweep, CycleScan)}
