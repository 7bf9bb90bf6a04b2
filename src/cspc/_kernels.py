"""Pruned radix-2 transform kernel.

For every row y of an n x n array (n a power of two), the kernel computes
the positive-kernel DFT outputs of y at positions (base + i) mod n, where
i is the row number and base is a fixed sorted index set shared by all
rows.  The shift i folds into the twiddle factors, so one plan serves
every row.

One vectorized numpy implementation evaluates the recursion over all rows
at once; transform.extract_cycles calls it for every power-of-two n.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=64)
def build_plan(n: int, base: tuple[int, ...]):
    """Dependency-cone plan for pruned outputs of a size-n radix-2 DFT.

    Level d works on 2^d interleaved subproblems of size s_d = n / 2^d;
    q_sets[d] is the sorted set of (shift-0) output indices needed from
    each of them.  The recursion stops at the first level where every
    output of the subproblem is needed (saturation), below which plain
    full FFTs are cheaper than tracking the cone.

    Returns (q_sets, child_slot, sizes, leaf_size, ops_per_vector) where
    child_slot[d][t] locates q_sets[d][t] mod s_{d+1} inside q_sets[d+1].
    The operation count convention: one op per butterfly output written,
    s*log2(s) per size-s leaf FFT.
    """
    if n & (n - 1) or n < 1:
        raise ValueError(f"plan requires power-of-two n, got {n}")
    q = np.unique(np.asarray(base, dtype=np.int64))
    if q.size == 0 or q[0] < 0 or q[-1] >= n:
        raise ValueError(f"base indices out of range for n={n}")
    q_sets = [q]
    sizes = [n]
    while q_sets[-1].size < sizes[-1]:
        half = sizes[-1] // 2
        q_sets.append(np.unique(q_sets[-1] % half))
        sizes.append(half)
    depth = len(q_sets) - 1
    child_slot = []
    for d in range(depth):
        child_slot.append(np.searchsorted(q_sets[d + 1], q_sets[d] % sizes[d + 1]).astype(np.int64))
    leaf_size = sizes[depth]
    ops = 0
    for d in range(depth):
        ops += (1 << d) * q_sets[d].size
    if leaf_size > 1:
        ops += n * int(np.log2(leaf_size))
    return q_sets, child_slot, sizes, leaf_size, ops


def pruned_rows_numpy(y: np.ndarray, plan, w_plus: np.ndarray) -> np.ndarray:
    """Numpy evaluation of the plan over all rows of y at once.

    Returns out[i, t] = sum_p y[i, p] * exp(+2i*pi*p*(base[t]+i)/n),
    unnormalized.  w_plus is the length-n table exp(+2i*pi*j/n).
    """
    q_sets, child_slot, sizes, leaf_size, _ = plan
    n = y.shape[1]
    rows = np.arange(y.shape[0])[:, None]
    depth = len(q_sets) - 1
    stride = n // leaf_size
    # leaf r holds y[i, r::stride] whose full DFT is computed outright
    leaves = y.reshape(y.shape[0], leaf_size, stride).transpose(0, 2, 1)
    v = leaf_size * np.fft.ifft(leaves, axis=2)
    if leaf_size > 1:
        # per-row shift: slot t of the leaf level is output (t + i) mod s
        gather = (np.arange(leaf_size)[None, :] + rows) % leaf_size
        v = np.take_along_axis(v, gather[:, None, :], axis=2)
    for d in range(depth - 1, -1, -1):
        s = sizes[d]
        nsub = 1 << d
        cs = child_slot[d]
        tw = w_plus[((q_sets[d][None, :] + rows) % s) * (n // s)]
        v = v[:, :nsub, cs] + tw[:, None, :] * v[:, nsub:, cs]
    return v[:, 0, :]
