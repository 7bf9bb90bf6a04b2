"""cspc benchmark: one closed-loop client runs one workload for a fixed time.

Run from the repository root:

    python3 perfbench/run.py --workload precond-solve --seed 1 --seconds 30 --trace 0

One unit of work runs at a time.  --trace 0 measures the end-to-end
metrics with nothing wrapped; --trace 1 alternates untraced and traced
units and reports the per-layer metrics and the tracing overhead.  Metric
names and units come from BENCHMARK.json.  The last line of standard
output is the result object; the line before it is a JSON record of the
machine, the code paths taken, every per-unit value and every failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
BLAS_THREADS = 1
# a closed-loop client with no more compute threads than cores: the CLI's
# trial pool gets at most 2 workers and BLAS runs single-threaded
POOL_THREADS = min(2, os.cpu_count() or 1)
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": str(BLAS_THREADS),
    "OMP_NUM_THREADS": str(BLAS_THREADS),
    "MKL_NUM_THREADS": str(BLAS_THREADS),
    "CSPC_THREADS": str(POOL_THREADS),
}
IMPORT_SNIPPET = "import numpy, scipy.linalg, scipy.optimize, cspc, cspc.cli"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("precond-solve", "eig-sweep", "cycle-scan"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: smoke-test sizes")
    p.add_argument("--corrupt", action="store_true", help="perturb one result so the gates must fail")
    return p.parse_args(argv)


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "cspc").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy as np
    import scipy

    import cspc

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    kernels = sys.modules.get("cspc._kernels")
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cspc": getattr(cspc, "__version__", None),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "CSPC_THREADS": os.environ["CSPC_THREADS"],
        "CSPC_NO_NUMBA": os.environ.get("CSPC_NO_NUMBA"),
        "HAVE_NUMBA": getattr(kernels, "HAVE_NUMBA", None),
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
    }


def time_import() -> float:
    """Wall seconds for a fresh interpreter to import the package."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], env=env, cwd=ROOT, check=True, timeout=120)
    return perf_counter() - t0


def unit_of(name: str) -> str:
    """Unit of a value printed beside the BENCHMARK.json metrics."""
    if name.endswith("_s"):
        return "s"
    return "count" if name.endswith("_calls") else "ratio"


def machine_probe_s() -> float:
    """Seconds for a fixed mix of small FFTs, a small matmul and a Python loop.

    Not a metric of the package: it is recorded next to every run so that a
    drift in the machine's own speed can be told apart from a code change.
    """
    import numpy as np

    x = np.exp(1j * np.arange(1024.0))
    m = np.eye(300) + 1.0
    t0 = perf_counter()
    for _ in range(800):
        np.fft.fft(x)
    m @ m
    sum(i * i for i in range(400_000))
    return perf_counter() - t0


def median_or_zero(xs):
    return statistics.median(xs) if xs else 0.0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cspc" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'cspc'}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    import cspc

    if not Path(cspc.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported cspc from {cspc.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    import tracing
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    tracer = tracing.Tracer() if args.trace else None

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT))
    try:
        cls = workloads.WORKLOADS[args.workload]
        kwargs = {"workdir": workdir} if cls is workloads.EigSweep else {}
        work = cls(args.size, args.seed, corrupt=args.corrupt, **kwargs)

        # set-up: import in a fresh interpreter, generate the inputs, warm up
        setups, setup_generate_s = [], 0.0
        for rep in range(SETUP_REPEATS):
            import_s = time_import()
            t0 = perf_counter()
            if tracer is not None and rep == SETUP_REPEATS - 1:
                with tracer.installed():
                    inputs = work.generate()
                setup_generate_s = tracing.summarize(tracer.spans)[0].get("generators.generate", 0.0)
            else:
                inputs = work.generate()
            work.warm_up()
            setups.append(import_s + perf_counter() - t0)

        probes = [machine_probe_s() for _ in range(5)]
        units = []
        t_start = perf_counter()
        while not units or perf_counter() - t_start < args.seconds or (tracer is not None and len(units) < 2):
            t0 = perf_counter()
            if tracer is not None and len(units) % 2 == 1:
                with tracer.installed():
                    u = work.unit(inputs, tracer)
                u.traced = True
                u.layers.update(layer_values(tracer))
                u.counts.update({k: v for k, v in u.layers.items() if k.endswith("_calls")})
            else:
                u = work.unit(inputs, None)
            u.wall_s = perf_counter() - t0
            units.append(u)
        probes += [machine_probe_s() for _ in range(5)]
        finish = work.finish(inputs) if tracer is not None and hasattr(work, "finish") else {}
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [u for u in units if not u.traced]
    traced = [u for u in units if u.traced]
    # gates: every op must pass, and exact counts must repeat unit to unit
    failures = []
    for i, u in enumerate(units):
        first = (traced if u.traced else plain)[0].counts
        mismatched = sorted(k for k in first if u.counts.get(k) != first[k])
        for op in u.ops:
            if op.error is None and mismatched:
                op.error = f"exact counts differ from the first unit: {mismatched}"
            if op.error is not None:
                failures.append({"unit": i, "op": op.name, "error": op.error})
    attempted = sum(len(u.ops) for u in units)

    values = {}
    for key in sorted({k for u in plain for k in u.values}):
        values[key] = median_or_zero([u.values[key] for u in plain if key in u.values])
    values["setup_s"] = statistics.median(setups)
    values["peak_rss_mb"] = peak_rss_mb
    values["failed_frac"] = len(failures) / attempted
    if tracer is not None:
        for key in sorted({k for u in traced for k in u.layers}):
            values[key] = median_or_zero([u.layers[key] for u in traced if key in u.layers])
        values.update(finish)
        values["generators.generate_s"] += setup_generate_s
        plain_wall = statistics.median(u.wall_s for u in plain)
        values["trace.overhead_s"] = statistics.median(u.wall_s for u in traced) - plain_wall
        values["trace.overhead_frac"] = values["trace.overhead_s"] / plain_wall
        values["trace.absent_spans"] = len(tracer.absent_spans())

    known = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
    extra = {k: v for k, v in values.items() if k not in known}

    print(f"{args.workload}  seed {args.seed}  trace {args.trace}  units {len(plain)} untraced + {len(traced)} traced"
          f"  ops {attempted}  failed {len(failures)}  machine probe {statistics.median(probes):.4g} s")
    for name, m in metrics.items():
        print(f"  {name:<38} {m['value']:<12.6g} {m['unit']}")
    for name, v in sorted(extra.items()):
        print(f"  {name:<38} {v:<12.6g} {unit_of(name)}")
    for f in failures[:10]:
        print(f"  FAILED unit {f['unit']} {f['op']}: {f['error']}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "config": work.config,
        "environment": environment(),
        "setup_s_each": setups,
        "machine_probe_s": statistics.median(probes),
        "values": extra,
        "failures": failures,
        "absent_targets": sorted(tracer.absent) if tracer is not None else [],
        "units": [
            {"traced": u.traced, "wall_s": u.wall_s, "values": u.values, "counts": u.counts,
             "layers": u.layers, "notes": u.notes}
            for u in units
        ],
    }
    print(json.dumps({"record": record}, default=str))
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


def layer_values(tracer) -> dict:
    """Per-layer seconds and call counts of one traced unit, keyed by metric name."""
    import tracing

    seconds, calls = tracing.summarize(tracer.spans)
    names = list(tracer.targets) + list(tracing.OWN_SPANS)
    out = {f"{name}_s": seconds.get(name, 0.0) for name in names}
    out.update({f"{name}_calls": calls.get(name, 0) for name in names})
    out["cli.self_s"] = tracing.self_seconds(tracer.spans, "cli.main")
    out["precond.pcg_other_s"] = out["precond.pcg_s"] - out["precond.apply_s"]
    return out


if __name__ == "__main__":
    sys.exit(main())
