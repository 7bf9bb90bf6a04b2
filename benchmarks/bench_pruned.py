"""Timing comparison for the pruned cycle extraction.

Two ways to get k cycles of W A W*:
  * extract_cycles: full column pass, then the pruned row pass
  * full transform followed by masking, as the baseline

Run from the repository root:
    python benchmarks/bench_pruned.py --sizes 256,1024,4096 --cycles 1,4,16
"""

import argparse
import time

import numpy as np

from cspc.core import CycleSelection, apply_cycle_mask
from cspc.transform import extract_cycles, similarity_transform


def _time(fn, repeats):
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_one(n, k, repeats, rng):
    """(pruned, full+mask) best-of-repeats seconds."""
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    sel = CycleSelection.of(n, sorted(int(j) for j in rng.choice(n, size=k, replace=False)))

    def pruned():
        return extract_cycles(a, sel)

    t_pruned = _time(pruned, repeats)

    def full():
        b = similarity_transform(a)
        return apply_cycle_mask(b, sel.indices)

    t_full = _time(full, repeats)
    return t_pruned, t_full


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

    print(f"{'n':>6} {'k':>4} {'pruned':>10} {'full+mask':>10} {'pruned/full':>12}")
    for n in sizes:
        for k in cycles:
            if k > n:
                continue
            t_pruned, t_full = bench_one(n, k, args.repeats, rng)
            print(f"{n:>6} {k:>4} {t_pruned * 1e3:>9.2f}ms {t_full * 1e3:>9.2f}ms "
                  f"{t_pruned / t_full:>11.2f}x")


if __name__ == "__main__":
    main()
