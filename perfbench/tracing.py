"""Span tracing from outside the program.

The traced run wraps the public entry points of each layer — stage
``run`` methods (through a :class:`RoundEngine` subclass's
``build_stages``), scheduling-policy ``order``/``stable_epochs``,
placement ``select_gpus``, the LP backend's ``solve``,
``build_environment``, ``PMScoreTable.fit``, ``TraceSpec.build``,
executor ``map``, shared-memory ``publish`` and the result cache's
``get``/``put`` — and records one span (name, start, end, parent) per
call in memory.  Wrappers only observe: they call the original with the
original arguments, so the same code path runs traced and untraced
(``ShardExecutor.map`` still sees ``execute_run_spec`` itself and still
publishes environments).

Pool workers are forked after the wrappers are installed, so they trace
too; each worker ships the spans of one simulation back to the parent
inside that result's metadata (:data:`SPANS_KEY`), where the parent
pops and merges them.  ``perf_counter`` reads the system-wide monotonic
clock, so worker and parent timestamps share one time base.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import os
import time
from collections import defaultdict
from typing import Callable, Iterator

import numpy as np

__all__ = [
    "SPANS_KEY",
    "Tracer",
    "instrumented",
    "self_times",
    "union_length",
    "layer_of",
    "layer_self_times",
]

#: Result-metadata key carrying a worker's spans back to the parent.
SPANS_KEY = "perfbench.spans"


class Tracer:
    """In-memory span store: parallel columns plus an open-span stack."""

    def __init__(self) -> None:
        self.origin_pid = os.getpid()
        self._pid = self.origin_pid
        self._clear()

    def _clear(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        #: Scheduling rounds driven (counted at each pipeline's first stage).
        self.rounds = 0

    @property
    def in_worker(self) -> bool:
        return os.getpid() != self.origin_pid

    def open(self, name: str) -> int:
        if os.getpid() != self._pid:
            # A forked pool worker inherits the parent's columns and open
            # stack; its own spans start from an empty store.
            self._pid = os.getpid()
            self._clear()
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` recording one span per outermost call.

        A call nested directly inside a span of the same name (a
        ``super()`` chain through two wrapped overrides) is not a new
        call into the layer and records nothing.
        """
        def traced(*args, **kwargs):
            if self._stack and self.names[self._stack[-1]] == name:
                return fn(*args, **kwargs)
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    # ------------------------------------------------------------------
    def drain(self) -> dict:
        """Hand over every recorded span and forget them (worker side)."""
        out = {
            "names": self.names,
            "starts": self.starts,
            "ends": self.ends,
            "parents": self.parents,
            "rounds": self.rounds,
        }
        self._clear()
        return out

    def merge(self, shipped: dict) -> None:
        """Append spans shipped from a worker.

        Each shipped root becomes a child of the parent-side span that
        caused it: the innermost ``runner.map`` span whose interval
        contains the root's start.
        """
        offset = len(self.names)
        maps = [
            i for i, n in enumerate(self.names)
            if n == "runner.map" and self.ends[i] > 0.0
        ]
        for name, start, end, parent in zip(
            shipped["names"], shipped["starts"], shipped["ends"],
            shipped["parents"],
        ):
            if parent >= 0:
                parent += offset
            else:
                parent = next(
                    (
                        m for m in reversed(maps)
                        if self.starts[m] <= start <= self.ends[m]
                    ),
                    -1,
                )
            self.names.append(name)
            self.starts.append(start)
            self.ends.append(end)
            self.parents.append(parent)
        self.rounds += shipped["rounds"]

    def write(self, path: os.PathLike | str) -> None:
        """Write the spans as gzipped JSON lines ``[name, start, end, parent]``."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for row in zip(self.names, self.starts, self.ends, self.parents):
                fh.write(json.dumps(row) + "\n")


# ---------------------------------------------------------------------
# Installation
# ---------------------------------------------------------------------
def _subclasses(base: type) -> list[type]:
    out, todo = [], [base]
    while todo:
        cls = todo.pop()
        if cls not in out:
            out.append(cls)
            todo.extend(cls.__subclasses__())
    return out


@contextlib.contextmanager
def instrumented(tracer: Tracer) -> Iterator[Tracer]:
    """Install span wrappers on every traced entry point for the block."""
    # The executor modules are imported so that every subclass to wrap
    # exists before the class trees are walked.
    import repro.runner.batched  # noqa: F401  (registers BatchedExecutor)
    import repro.runner.shard  # noqa: F401  (registers ShardExecutor)
    import repro.scheduler.simulator as simulator
    from repro.core.pm_score import PMScoreTable
    from repro.experiments import common
    from repro.runner import shm
    from repro.runner.cache import ResultCache
    from repro.runner.executors import Executor
    from repro.runner.spec import TraceSpec
    from repro.scheduler.placement.base import PlacementPolicy
    from repro.scheduler.policies import SchedulingPolicy
    from repro.scheduler.solver import GavelScheduler
    from repro.scheduler.solver.backend import SolverBackend

    undo: list[tuple[object, str, object]] = []

    def patch(owner: object, attr: str, new: object) -> None:
        undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def patch_methods(base: type, attr: str, name_of: Callable[[type], str]) -> None:
        for cls in _subclasses(base):
            fn = cls.__dict__.get(attr)
            if fn is None or getattr(fn, "__isabstractmethod__", False):
                continue
            patch(cls, attr, tracer.wrap(fn, name_of(cls)))

    class TracedRoundEngine(simulator.RoundEngine):
        """Wraps every stage's ``run`` in a span; ships worker spans."""

        def build_stages(self, ctx):
            stages = super().build_stages(ctx)
            first = stages[0].run

            def first_stage(c, _run=first):
                tracer.rounds += 1
                return _run(c)

            stages[0].run = first_stage
            for stage in stages:
                stage.run = tracer.wrap(stage.run, "stage:" + stage.name)
            return stages

        def run(self, trace):
            with tracer.span("engine.run"):
                result = super().run(trace)
            if tracer.in_worker:
                result.metadata[SPANS_KEY] = tracer.drain()
            return result

    patch(simulator, "RoundEngine", TracedRoundEngine)
    patch_methods(
        SchedulingPolicy, "order",
        lambda c: "solver.order" if issubclass(c, GavelScheduler) else "policies.order",
    )
    patch_methods(SchedulingPolicy, "stable_epochs", lambda c: "policies.stable_epochs")
    patch_methods(PlacementPolicy, "select_gpus", lambda c: "placement.select")
    patch_methods(SolverBackend, "solve", lambda c: "solver.lp")
    patch_methods(Executor, "map", lambda c: "runner.map")
    patch(TraceSpec, "build", tracer.wrap(TraceSpec.build, "traces.build"))
    patch(ResultCache, "get", tracer.wrap(ResultCache.get, "runner.cache_get"))
    patch(ResultCache, "put", tracer.wrap(ResultCache.put, "runner.cache_put"))
    fit = PMScoreTable.__dict__["fit"]
    patch(PMScoreTable, "fit", classmethod(tracer.wrap(fit.__func__, "core.pm_fit")))
    patch(common, "build_environment",
          tracer.wrap(common.build_environment, "env.build"))
    patch(shm, "publish", tracer.wrap(shm.publish, "runner.publish"))
    try:
        yield tracer
    finally:
        for owner, attr, old in reversed(undo):
            setattr(owner, attr, old)


# ---------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------
_LAYERS = {
    "engine.run": "scheduler.engine",
    "stage:dynamics": "dynamics",
    "stage:profiling": "profiling",
    "policies.order": "scheduler.policies",
    "policies.stable_epochs": "scheduler.policies",
    "placement.select": "scheduler.placement",
    "solver.order": "scheduler.solver",
    "solver.lp": "scheduler.solver",
    "env.build": "env",
    "core.pm_fit": "core",
    "traces.build": "traces",
}


def layer_of(name: str) -> str:
    """The repository layer a span name belongs to."""
    if name in _LAYERS:
        return _LAYERS[name]
    if name.startswith("stage:"):
        return "scheduler.engine"
    return name.split(".", 1)[0]


def union_length(intervals) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` pairs."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(tracer: Tracer) -> np.ndarray:
    """Per-span self time: duration minus the union of its children's
    intervals (children running in parallel workers overlap)."""
    starts = np.asarray(tracer.starts)
    ends = np.asarray(tracer.ends)
    out = ends - starts
    children: dict[int, list[int]] = defaultdict(list)
    for i, p in enumerate(tracer.parents):
        if p >= 0:
            children[p].append(i)
    for p, kids in children.items():
        out[p] -= union_length(
            (max(starts[k], starts[p]), min(ends[k], ends[p])) for k in kids
        )
    return out


def layer_self_times(tracer: Tracer) -> dict[str, float]:
    """Self seconds summed per layer, across every process traced."""
    totals: dict[str, float] = defaultdict(float)
    for name, st in zip(tracer.names, self_times(tracer)):
        totals[layer_of(name)] += float(st)
    return dict(totals)
