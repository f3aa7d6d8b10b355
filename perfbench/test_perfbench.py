"""Tests of the benchmark's own code: statistics rules, the metric
catalog, the output checker, seed plumbing, and trace neutrality.

Workloads run here at toy sizes; the measured runs live in
``perfbench/run.py`` and never run under pytest.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from perfbench.checks import (
    check_result,
    outcome_digest,
    quartile_spread,
    tail_percentile,
    validate_catalog,
)
from perfbench.tracing import Tracer, instrumented, self_times
from perfbench.workloads import DriftSolver, EngineDense, SweepGrid

ROOT = Path(__file__).resolve().parent.parent


def tiny_dense() -> EngineDense:
    return EngineDense(n_gpus=64, load=16.0, n_jobs=16)


# ---------------------------------------------------------------------
# Statistics rules
# ---------------------------------------------------------------------
@pytest.mark.parametrize(
    "n, level, beyond",
    [(20, 50.0, 10), (99, 50.0, 49), (100, 90.0, 10), (999, 90.0, 99),
     (1000, 99.0, 10), (9999, 99.0, 99), (10000, 99.9, 10)],
)
def test_tail_percentile_is_highest_with_ten_beyond(n, level, beyond):
    samples = np.arange(n, dtype=float)
    got_level, value, got_beyond = tail_percentile(samples)
    assert (got_level, got_beyond) == (level, beyond)
    assert value == pytest.approx(np.percentile(samples, level))


def test_tail_percentile_rejects_too_few_samples():
    with pytest.raises(ValueError):
        tail_percentile(np.ones(19))


def test_quartile_spread_matches_statistics_quantiles():
    assert quartile_spread([1.0] * 10) == 0.0
    assert quartile_spread(list(range(1, 11))) == pytest.approx(
        (8.25 - 2.75) / 5.5
    )


def test_reported_timings_follow_the_host_speed_scale():
    from types import SimpleNamespace

    from perfbench.run import end_to_end, unscaled_timings
    from perfbench.workloads import Rep

    result = SimpleNamespace(
        placement_times_s=np.linspace(1e-3, 2e-3, 1000), avg_jct_h=lambda: 5.0
    )

    def metrics(scale):
        reps = [Rep(0.5, 2.0, [], [result], scale=scale) for _ in range(3)]
        return end_to_end(reps, peak_rss_mb=50.0)

    base, scaled = metrics(1.0), metrics(0.5)
    for name in ("setup_s", "wall_s", "placement_p99_ms"):
        assert scaled[name] == pytest.approx(base[name] * 0.5)
    for name in ("peak_rss_mb", "sim_avg_jct_h"):
        assert scaled[name] == base[name]
    raw = [Rep(0.5, 2.0, [], [result], scale=0.5) for _ in range(3)]
    assert unscaled_timings(raw) == pytest.approx(
        {k: base[k] for k in ("setup_s", "wall_s", "placement_p99_ms")}
    )


def test_host_reference_runs_apart_and_flags_a_busy_process():
    import threading

    from perfbench.hostspeed import HostSpeed

    with HostSpeed() as host:
        assert 0.0 < host.reference_s() < 1.0
        assert host.busy == 0
        stop = threading.Event()

        def spin():
            while not stop.is_set():
                pass

        spinner = threading.Thread(target=spin)
        spinner.start()
        try:
            host.reference_s()
        finally:
            stop.set()
            spinner.join()
        assert host.busy == 1
    assert host._proc.returncode == 0


# ---------------------------------------------------------------------
# Metric catalog
# ---------------------------------------------------------------------
def test_declared_catalog_is_valid():
    decl = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert validate_catalog(decl) == []
    assert {w["name"] for w in decl["workloads"]} == {
        EngineDense.name, SweepGrid.name, DriftSolver.name
    }


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d["per_layer"][0].update(name="bad name"), "invalid name"),
        (lambda d: d["per_layer"][0].update(name="wall_s"), "used twice"),
        (lambda d: d["per_layer"][0].update(unit="seconds per day"), "invalid unit"),
        (lambda d: d["end_to_end"][1].update(bound=0.3), "bound"),
        (lambda d: d["end_to_end"][1].update(better="faster"), "better"),
        (lambda d: d["end_to_end"].pop(0), "setup_s"),
    ],
)
def test_catalog_validation_flags_bad_entries(mutate, fragment):
    decl = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert decl["end_to_end"][0]["name"] == "setup_s"
    mutate(decl)
    problems = validate_catalog(decl)
    assert any(fragment in p for p in problems), problems


# ---------------------------------------------------------------------
# Output checker
# ---------------------------------------------------------------------
@pytest.fixture(scope="module")
def dense_rep():
    return tiny_dense().run(seed=3)


def test_checker_accepts_sound_output(dense_rep):
    (result, trace), = dense_rep.checked
    assert check_result(result, trace) == []
    assert dense_rep.n_failed == 0


def _with_record(result, index, **changes):
    records = list(result.records)
    records[index] = dataclasses.replace(records[index], **changes)
    return dataclasses.replace(result, records=tuple(records))


def test_checker_flags_corrupted_output(dense_rep):
    (result, trace), = dense_rep.checked
    rec = result.records[0]
    corrupted = {
        "finish before arrival": _with_record(result, 0, finish_s=rec.arrival_s - 1.0),
        "start before arrival": _with_record(result, 0, first_start_s=rec.arrival_s - 1.0),
        "non-finite": _with_record(result, 0, finish_s=float("nan")),
        "moved arrival": _with_record(
            result, 0, arrival_s=rec.arrival_s - 1.0, first_start_s=rec.arrival_s - 1.0
        ),
        "missing record": dataclasses.replace(result, records=result.records[1:]),
        "over capacity": dataclasses.replace(
            result, busy_gpu_seconds=result.cluster_size * result.makespan_s * 1.01
        ),
        "uncertified": dataclasses.replace(
            result, metadata={**result.metadata, "solver": {"all_certified": False}}
        ),
    }
    for label, bad in corrupted.items():
        assert check_result(bad, trace), label


# ---------------------------------------------------------------------
# Seeds and digests
# ---------------------------------------------------------------------
def test_seed_reaches_env_generation_not_the_traces(dense_rep):
    workload = tiny_dense()
    again = workload.run(seed=3)
    other = workload.run(seed=4)
    assert outcome_digest(again.executed) == outcome_digest(dense_rep.executed)
    assert outcome_digest(other.executed) != outcome_digest(dense_rep.executed)
    (_, trace3), = dense_rep.checked
    (_, trace4), = other.checked
    assert trace3.jobs == trace4.jobs


def test_sweep_seed_picks_the_cell_seeds_not_the_traces(tmp_path):
    workload = SweepGrid(work_dir=tmp_path)
    (cold3, grown3), (cold4, _) = workload.specs(3), workload.specs(4)
    assert cold3.env == cold4.env and cold3.env.seed is None
    assert cold3.traces == cold4.traces
    assert all(t.seed is not None for t in cold3.traces)
    assert cold3.seeds == tuple(range(36, 44)) and cold4.seeds[0] == 48
    assert grown3.seeds == tuple(range(36, 48))
    assert grown3.n_cells - cold3.n_cells == 72 and cold3.n_cells == 144


def test_drift_solver_seed_changes_outcome_and_lp_is_certified():
    workload = DriftSolver(n_jobs=8)
    a, b = workload.run(seed=1), workload.run(seed=2)
    assert a.n_failed == b.n_failed == 0
    assert outcome_digest(a.executed) != outcome_digest(b.executed)
    assert a.executed[0].metadata["solver"]["n_lp_calls"] > 0


# ---------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------
def test_self_time_subtracts_union_of_overlapping_children():
    tracer = Tracer()
    tracer.names = ["map", "a", "b", "c"]
    tracer.starts = [0.0, 1.0, 2.0, 8.0]
    tracer.ends = [10.0, 4.0, 5.0, 9.0]
    tracer.parents = [-1, 0, 0, 0]
    assert self_times(tracer).tolist() == [5.0, 3.0, 3.0, 1.0]


def test_traced_run_matches_untraced_and_unwinds(tmp_path):
    from repro.runner.cache import ResultCache
    from repro.scheduler import simulator

    workload = SweepGrid(
        work_dir=tmp_path, n_jobs=12, schedulers=("fifo",),
        placements=("tiresias", "pal"), cold_seeds=2, grown_seeds=3,
        sample_every=1,
    )
    plain = workload.run(seed=5)
    assert plain.n_failed == 0
    engine_cls, cache_get = simulator.RoundEngine, ResultCache.get
    tracer = Tracer()
    with instrumented(tracer):
        traced = workload.run(seed=5, tracer=tracer)
    assert (simulator.RoundEngine, ResultCache.get) == (engine_cls, cache_get)
    assert traced.n_failed == 0
    assert outcome_digest(traced.executed) == outcome_digest(plain.executed)
    names = set(tracer.names)
    assert {"bench.setup", "runner.map", "runner.cache_get", "runner.cache_put",
            "traces.build", "env.build", "core.pm_fit"} <= names
    # Worker simulations came back and hang under the map that caused them.
    runs = [i for i, n in enumerate(tracer.names) if n == "engine.run"]
    assert len(runs) == len(traced.executed)
    assert all(tracer.names[tracer.parents[i]] == "runner.map" for i in runs)
    assert tracer.rounds > 0
    assert traced.extra["runner.cache_hit_ratio"] == pytest.approx(4 / 6)
