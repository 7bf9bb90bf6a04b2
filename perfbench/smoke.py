"""Smoke test of the benchmark at tiny sizes (about a minute on 2 cores).

Run from the repository root:

    python3 perfbench/smoke.py

For each workload it checks that an untraced and a traced run print a
result matching BENCHMARK.json and pass every gate, that a second run
with the same seed repeats every exact count, and that a run with one
result deliberately corrupted fails its gate.  It also checks that the
tracer survives a target that no longer exists, and that the benchmark
exits non-zero without printing a result when the package source is
missing.  Exit code 0 means every check passed.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TIMEOUT = 170


def run(workload, trace=0, seed=3, extra=(), cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "0.5", "--trace", str(trace), "--size", "tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT)


def parse(proc):
    """(record, result) from a finished run, or raise with its stderr."""
    if proc.returncode != 0:
        raise AssertionError(f"exit code {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def check_schema(result, trace):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, sorted(result)
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, result["attempted"]
    assert isinstance(result["failed"], int), result["failed"]
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted], sorted(result["metrics"])
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"} and got["unit"] == m["unit"], (m["name"], got)
        assert isinstance(got["value"], float) and math.isfinite(got["value"]), (m["name"], got)
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted), result["metrics"]


def untraced_counts(record):
    return next(u["counts"] for u in record["units"] if not u["traced"])


def check_workload(workload):
    records = []
    for trace in (0, 1, 0):
        record, result = parse(run(workload, trace))
        check_schema(result, trace)
        assert result["correct"] and result["failed"] == 0, record["failures"]
        records.append(record)
    counts = [untraced_counts(r) for r in records]
    assert counts[0] == counts[1] == counts[2], counts
    record, result = parse(run(workload, 0, extra=["--corrupt"]))
    check_schema(result, 0)
    assert not result["correct"] and result["failed"] >= 1, result


def check_missing_target():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import cspc.core
    import tracing

    original = cspc.core.apply_cycle_mask
    tracer = tracing.Tracer({"core.cycle_gather": ["cspc.core:apply_cycle_mask"],
                             "gone.span": ["cspc.core:no_such_function", "no_such_module:f"]})
    with tracer.installed():
        assert cspc.core.apply_cycle_mask is not original
        cspc.core.apply_cycle_mask([[1.0, 2.0], [3.0, 4.0]], 1)
    assert cspc.core.apply_cycle_mask is original
    assert tracer.absent_spans() == ["gone.span"], tracer.absent_spans()
    assert [s.name for s in tracer.spans] == ["core.cycle_gather"]


def check_refuses_without_source():
    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-tmp-smoke-", dir=ROOT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", scratch)
        for p in SPEC["paths"]:
            shutil.copytree(ROOT / p, scratch / p, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("cycle-scan", cwd=scratch)
        assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def main() -> int:
    failed = 0
    checks = [(f"workload {w['name']}", lambda w=w: check_workload(w["name"])) for w in SPEC["workloads"]]
    checks += [("missing trace target", check_missing_target), ("no package source", check_refuses_without_source)]
    for name, check in checks:
        try:
            check()
            print(f"ok    {name}")
        except (AssertionError, subprocess.TimeoutExpired, ValueError, IndexError) as e:
            failed += 1
            print(f"FAIL  {name}: {e}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
