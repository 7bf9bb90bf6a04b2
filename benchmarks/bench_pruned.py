"""Timing comparison for the pruned cycle extraction.

Three ways to get k cycles of W A W*:
  * pruned row pass with the numba kernel (default build; skipped, and
    its columns dropped, when numba is not installed)
  * pruned row pass with the numpy fallback (CSPC_NO_NUMBA=1)
  * full transform followed by masking, as the baseline

Run from the repository root:
    python benchmarks/bench_pruned.py --sizes 256,1024,4096 --cycles 1,4,16
"""

import argparse
import os
import time

import numpy as np

from cspc._kernels import HAVE_NUMBA
from cspc.core import CycleSelection, apply_cycle_mask
from cspc.transform import extract_cycles, similarity_transform


def _time(fn, repeats):
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _time_kernel(no_numba, fn, repeats):
    """Best time of fn with CSPC_NO_NUMBA set as given, then restored."""
    prior = os.environ.get("CSPC_NO_NUMBA")
    os.environ["CSPC_NO_NUMBA"] = no_numba
    try:
        fn()  # trigger jit before timing
        return _time(fn, repeats)
    finally:
        if prior is None:
            del os.environ["CSPC_NO_NUMBA"]
        else:
            os.environ["CSPC_NO_NUMBA"] = prior


def bench_one(n, k, repeats, rng):
    """(numba, numpy, full+mask) seconds; numba is None without numba."""
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    sel = CycleSelection.of(n, sorted(int(j) for j in rng.choice(n, size=k, replace=False)))

    def pruned():
        return extract_cycles(a, sel)

    t_numpy = _time_kernel("1", pruned, repeats)
    t_numba = _time_kernel("0", pruned, repeats) if HAVE_NUMBA else None

    def full():
        b = similarity_transform(a)
        return [apply_cycle_mask(b, j) for j in sel.indices]

    t_full = _time(full, repeats)
    return t_numba, t_numpy, t_full


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="256,1024,4096")
    parser.add_argument("--cycles", default="1,4,16")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    sizes = [int(s) for s in args.sizes.split(",")]
    cycles = [int(c) for c in args.cycles.split(",")]
    rng = np.random.default_rng(args.seed)

    if HAVE_NUMBA:
        print(f"{'n':>6} {'k':>4} {'numba':>10} {'numpy':>10} {'full+mask':>10} "
              f"{'numba/numpy':>12} {'numba/full':>11}")
    else:
        print("numba not installed; timing the numpy kernel only")
        print(f"{'n':>6} {'k':>4} {'numpy':>10} {'full+mask':>10} {'numpy/full':>11}")
    for n in sizes:
        for k in cycles:
            if k > n:
                continue
            t_nb, t_np, t_full = bench_one(n, k, args.repeats, rng)
            if t_nb is None:
                print(f"{n:>6} {k:>4} {t_np * 1e3:>9.2f}ms {t_full * 1e3:>9.2f}ms "
                      f"{t_full / t_np:>10.2f}x")
            else:
                print(f"{n:>6} {k:>4} {t_nb * 1e3:>9.2f}ms {t_np * 1e3:>9.2f}ms "
                      f"{t_full * 1e3:>9.2f}ms {t_np / t_nb:>11.2f}x {t_full / t_nb:>10.2f}x")


if __name__ == "__main__":
    main()
