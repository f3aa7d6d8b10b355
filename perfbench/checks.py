"""Output checks, the outcome digest, and the statistics rules.

Every simulation the benchmark runs is checked against its trace
(:func:`check_result`); a result failing any check counts toward the
run's ``failed`` total.  :func:`outcome_digest` hashes the simulated
outcome — every job record plus ``epochs_run`` — so runs of the same
code and seed can be compared bit for bit.
"""

from __future__ import annotations

import hashlib
import math
import re
import statistics
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "check_result",
    "outcome_digest",
    "tail_percentile",
    "quartile_spread",
    "validate_catalog",
]


def check_result(result, trace) -> list[str]:
    """Problems with one simulation's output (empty = the output is sound).

    * one record per trace job, with the trace's arrival time;
    * arrival <= first start <= finish, all finite;
    * busy GPU-seconds within GPUs x makespan;
    * every LP solve certified, when the run used the solver lane.
    """
    problems: list[str] = []
    expected = {job.job_id: job.arrival_time_s for job in trace}
    ids = [r.job_id for r in result.records]
    if len(ids) != len(expected) or set(ids) != set(expected):
        problems.append(
            f"{len(ids)} records for {len(expected)} trace jobs"
        )
    for r in result.records:
        times = (r.arrival_s, r.first_start_s, r.finish_s)
        if not all(math.isfinite(t) for t in times):
            problems.append(f"job {r.job_id}: non-finite times {times}")
        elif not r.arrival_s <= r.first_start_s <= r.finish_s:
            problems.append(
                f"job {r.job_id}: arrival {r.arrival_s} / start "
                f"{r.first_start_s} / finish {r.finish_s} out of order"
            )
        elif expected.get(r.job_id) != r.arrival_s:
            problems.append(f"job {r.job_id}: arrival differs from the trace")
    capacity = result.cluster_size * result.makespan_s
    if not result.busy_gpu_seconds <= capacity * (1.0 + 1e-12):
        problems.append(
            f"busy {result.busy_gpu_seconds} GPU-s exceeds capacity {capacity}"
        )
    solver = result.metadata.get("solver")
    if solver is not None and not solver["all_certified"]:
        problems.append("an LP solve failed its certificate")
    return problems


def outcome_digest(results: Iterable) -> str:
    """Hash over every job record and ``epochs_run`` of ``results``."""
    h = hashlib.blake2b(digest_size=16)
    for res in results:
        h.update(
            repr((
                res.trace_name, res.scheduler_name, res.placement_name,
                res.metadata["epochs_run"],
            )).encode()
        )
        for rec in res.records:
            h.update(repr(rec).encode())
    return h.hexdigest()


#: Candidate percentiles, highest first.
_LEVELS = (99.9, 99.0, 90.0, 50.0)


def tail_percentile(samples: Sequence[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(level, value, n_beyond)``; raises when fewer than twenty
    samples leave even the median unsupported.
    """
    data = np.asarray(samples, dtype=np.float64)
    for level in _LEVELS:
        beyond = int(math.floor(data.size * (100.0 - level) / 100.0 + 1e-9))
        if beyond >= 10:
            return level, float(np.percentile(data, level)), beyond
    raise ValueError(f"{data.size} samples support no percentile")


def quartile_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
_UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def validate_catalog(decl: dict) -> list[str]:
    """Problems with a ``BENCHMARK.json`` metric and workload catalog."""
    problems: list[str] = []
    seen: set[str] = set()
    for group in ("workloads", "end_to_end", "per_layer"):
        for entry in decl.get(group, ()):
            name = entry.get("name", "")
            if not _NAME.match(name):
                problems.append(f"{group}: invalid name {name!r}")
            if name in seen:
                problems.append(f"{group}: name {name!r} used twice")
            seen.add(name)
            if group == "workloads":
                continue
            if not _UNIT.match(entry.get("unit", "")):
                problems.append(f"{name}: invalid unit {entry.get('unit')!r}")
            if entry.get("better") not in ("lower", "higher"):
                problems.append(f"{name}: 'better' must be lower or higher")
            if group == "end_to_end" and not 0.0 <= entry.get("bound", -1) <= 0.25:
                problems.append(f"{name}: bound must be within [0, 0.25]")
    e2e = {m["name"]: m for m in decl.get("end_to_end", ())}
    setup = e2e.get("setup_s")
    if setup is None or setup["unit"] != "s" or setup["better"] != "lower":
        problems.append("setup_s (unit s, lower is better) is required")
    return problems
