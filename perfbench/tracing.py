"""Span recorder for traced units of work.

The tracer wraps named functions for the duration of one traced unit and
puts the originals back afterwards, so untraced units run the library
exactly as shipped.  A name living in the ``cspc`` package is rebound in
every loaded ``cspc.*`` module that holds the same function object (the
package imports functions by name, e.g. ``precond.similarity_transform``);
a numpy/scipy name is rebound only on the module given, which is where
the package looks it up at call time.

A target that no longer exists (a later change renamed or removed it) is
recorded in ``absent`` and skipped; the span then reads as zero.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

# span name -> "module:attribute[.attribute]" targets it wraps
TARGETS = {
    "generators.generate": ["cspc.generators:generate"],
    "transform.similarity_transform": ["cspc.transform:similarity_transform"],
    "transform.extract_cycles": ["cspc.transform:extract_cycles"],
    "core.cycle_gather": ["cspc.core:apply_cycle_mask"],
    "sparse.select": ["cspc.sparse:select_dominant_cycles"],
    "sparse.sparsify": ["cspc.sparse:sparsify"],
    "sparse.densify": ["cspc.sparse:SparseCycleMatrix.densify"],
    "sparse.eigensolve": [
        "numpy.linalg:eigvals",
        "numpy.linalg:eig",
        "numpy.linalg:eigvalsh",
        "numpy.linalg:eigh",
        "scipy.linalg:eigvals",
        "scipy.linalg:eig",
        "scipy.linalg:eigvalsh",
        "scipy.linalg:eigh",
    ],
    "sparse.match": ["cspc.sparse:eigen_error_report"],
    "decomposition.cycle_weights": ["cspc.decomposition:cycle_weights"],
    "decomposition.dominance": ["cspc.decomposition:dominance_relation"],
    "decomposition.via_transform": ["cspc.decomposition:circulant_decompose_via_transform"],
    "precond.build": [
        "cspc.precond:build_cycle_preconditioner",
        "cspc.precond:build_tchan_preconditioner",
    ],
    "precond.factor": ["scipy.linalg:lu_factor"],
    "precond.pcg": ["cspc.precond:pcg_solve"],
    "cli.main": ["cspc.cli:main"],
}

# spans recorded by the benchmark itself rather than by a wrapped target
OWN_SPANS = ("precond.apply",)


class Span:
    __slots__ = ("name", "t0", "t1", "parent", "thread")

    def __init__(self, name, parent, thread):
        self.name = name
        self.parent = parent
        self.thread = thread
        self.t0 = time.perf_counter()
        self.t1 = self.t0


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self.absent: set[str] = set()
        self.active = False
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name):
        if not self.active:
            yield
            return
        stack = self._local.__dict__.setdefault("stack", [])
        s = Span(name, stack[-1] if stack else None, threading.get_ident())
        stack.append(s)
        try:
            yield
        finally:
            s.t1 = time.perf_counter()
            stack.pop()
            self.spans.append(s)

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target, record spans, and restore the originals on exit."""
        self.spans = []
        try:
            for name, targets in self.targets.items():
                for target in targets:
                    self._install(name, target)
            self.active = True
            yield self
        finally:
            self.active = False
            while self._saved:
                owner, attr, orig = self._saved.pop()
                setattr(owner, attr, orig)

    @contextmanager
    def paused(self):
        """Run benchmark bookkeeping inside a traced unit without recording it."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def _install(self, name, target):
        modname, path = target.split(":")
        try:
            owner = importlib.import_module(modname)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            orig = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.absent.add(target)
            return
        sites = [(owner, attr)]
        if modname.split(".")[0] == "cspc" and not outer:
            for mname, mod in list(sys.modules.items()):
                if mod is None or not (mname == "cspc" or mname.startswith("cspc.")):
                    continue
                for a, v in list(vars(mod).items()):
                    if v is orig and (mod, a) != (owner, attr):
                        sites.append((mod, a))
        wrapped = self._wrap(name, orig)
        for site, a in sites:
            self._saved.append((site, a, getattr(site, a)))
            setattr(site, a, wrapped)

    def absent_spans(self) -> list[str]:
        """Span names none of whose targets could be found."""
        return sorted(
            name for name, targets in self.targets.items() if all(t in self.absent for t in targets)
        )


def summarize(spans: list[Span]) -> tuple[dict, dict]:
    """Busy seconds and call counts per span name.

    Busy time is inclusive (a span's children are part of it) and is
    summed over threads, so it can exceed wall time when a pool runs.
    """
    seconds: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for s in spans:
        seconds[s.name] += s.t1 - s.t0
        calls[s.name] += 1
    return seconds, calls


def self_seconds(spans: list[Span], name: str) -> float:
    """Wall time of the spans called `name` not covered by their children.

    Children are same-thread spans whose parent is the span, plus root
    spans of other threads (pool workers) that overlap it.
    """
    total = 0.0
    for root in (s for s in spans if s.name == name):
        cover = sorted(
            (max(c.t0, root.t0), min(c.t1, root.t1))
            for c in spans
            if c is not root
            and (c.parent is root or (c.thread != root.thread and c.parent is None))
            and c.t1 > root.t0
            and c.t0 < root.t1
        )
        covered, end = 0.0, root.t0
        for a, b in cover:
            a = max(a, end)
            if b > a:
                covered += b - a
                end = b
        total += (root.t1 - root.t0) - covered
    return total
