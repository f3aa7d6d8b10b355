"""The three benchmark workloads.

Each workload is a closed batch driven from one process: a repetition
builds its inputs (timed as set-up), runs its simulations back to back
(timed as the measured phase), and checks every output.

Inputs are a pure function of the run seed.  The traces are fixed: the
repository's generators draw them from :data:`TRACE_SEED`, so every run
simulates the same jobs arriving at the same times.  The run seed draws
the cluster — its GPU variability sample, the profiling campaign and the
PM-Score fit — and the simulator's random streams (placement, failures,
drift victims, re-profiling).  Re-drawing the traces as well made the
amount of engine work itself vary from seed to seed (placement rounds
of one ``engine-dense`` trace ranged 784-1544 over five arrival orders,
1515-1557 over five clusters), which would have swamped the timings.
``sweep-grid`` gives each cell seed a cluster of its own and lets the
run seed pick the block of cell seeds: with one cluster shared by every
cell, the ten-seed spread (IQR/median) of its placement tail and mean
JCT was 0.13-0.20 and 0.054; averaging twelve clusters per run brings
it to 0.09 and 0.010.
"""

from __future__ import annotations

import dataclasses
import gc
import math
import os
import shutil
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

from repro.dynamics import DriftSpec, DynamicsConfig
from repro.experiments import common
from repro.profiling import ProfilingConfig
from repro.runner import execute, shard
from repro.runner.cache import ResultCache
from repro.runner.spec import EnvSpec, SweepSpec, TraceSpec
from repro.runner.sweep import run_sweep
from repro.scheduler.placement import make_placement
from repro.scheduler.policies import make_scheduler
from repro.scheduler.simulator import ClusterSimulator, SimulatorConfig
from repro.variability.synthetic import synthesize_profile

from .checks import check_result
from .tracing import SPANS_KEY, Tracer, union_length

__all__ = ["Rep", "EngineDense", "SweepGrid", "DriftSolver", "make"]

#: Seed of every trace (see module docstring).
TRACE_SEED = 0

#: Cluster size of ``drift-solver`` and ``sweep-grid``.
SMALL_CLUSTER_GPUS = 64
#: ``drift-solver``'s arrival rate (jobs/h): lighter than the ``gavel``
#: experiment's 8 jobs/h so that each repetition has over a thousand
#: placement rounds, enough for a p99 over rounds, while staying short.
DRIFT_LOAD = 4.0
#: Sia-Philly workloads of ``sweep-grid``'s trace axis.
SIA_WORKLOADS = (1, 2)


@dataclasses.dataclass
class Rep:
    """One repetition: its timings, every checked output, its problems."""

    setup_s: float
    wall_s: float
    #: (result, trace) for every output checked this repetition.
    checked: list
    #: Simulations actually run this repetition (not served from cache).
    executed: list
    failures: list[str] = dataclasses.field(default_factory=list)
    n_failed: int = 0
    extra: dict[str, float] = dataclasses.field(default_factory=dict)
    #: Host-speed factor for this repetition's timings (see hostspeed).
    scale: float = 1.0

    def check_outputs(self) -> None:
        for result, trace in self.checked:
            problems = check_result(result, trace)
            if problems:
                self.n_failed += 1
                self.failures.append(
                    f"{result.trace_name}/{result.scheduler_name}/"
                    f"{result.placement_name}: {problems[0]}"
                )


def _trace(load: float, n_jobs: int):
    return TraceSpec("synergy", load=load, n_jobs=n_jobs).build(TRACE_SEED)


def _span(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def _simulate(env, trace, scheduler, placement, seed, config=None):
    return ClusterSimulator(
        topology=env.topology,
        true_profile=env.true_profile,
        scheduler=make_scheduler(scheduler),
        placement=make_placement(placement),
        pm_table=env.pm_table,
        locality=env.locality,
        config=config,
        seed=seed,
    ).run(trace)


def _direct_rep(seed, tracer, build, lanes, config=None) -> Rep:
    """One repetition of a workload that drives ``ClusterSimulator``
    directly: ``build()`` returns the environment and trace (set-up),
    then every ``(scheduler, placement)`` lane simulates the trace."""
    gc.collect()
    t0 = time.perf_counter()
    with _span(tracer, "bench.setup"):
        env, trace = build()
    setup_s = time.perf_counter() - t0
    gc.collect()
    t1 = time.perf_counter()
    with _span(tracer, "bench.timed"):
        results = [
            _simulate(env, trace, sched, place, seed, config)
            for sched, place in lanes
        ]
    rep = Rep(setup_s, time.perf_counter() - t1, [(r, trace) for r in results], results)
    rep.check_outputs()
    return rep


def _inclusive(tracer: Tracer, name: str) -> float:
    return sum(
        e - s for n, s, e in zip(tracer.names, tracer.starts, tracer.ends)
        if n == name
    )


@dataclasses.dataclass
class EngineDense:
    """One LAS + non-sticky PAL simulation on a 1024-GPU cluster."""

    n_gpus: int = 1024
    load: float = 32.0
    n_jobs: int = 150

    name = "engine-dense"
    #: The layer this workload stresses, for the traced run's share.
    stressed = "placement stage"
    #: Worker processes besides the benchmark's own.
    n_workers = 0

    def run(self, seed: int, tracer: Tracer | None = None) -> Rep:
        def build():
            profile = synthesize_profile("longhorn", n_gpus=self.n_gpus, seed=seed)
            env = common.build_environment(
                n_gpus=self.n_gpus, true_profile_override=profile, seed=seed
            )
            return env, _trace(self.load, self.n_jobs)

        return _direct_rep(seed, tracer, build, [("las", "pal")])

    def stress_share(self, tracer: Tracer, rep: Rep) -> float:
        return _inclusive(tracer, "stage:placement") / rep.wall_s


@dataclasses.dataclass
class DriftSolver:
    """Gavel max-throughput and LAS + PAL under drift, failures and
    periodic re-profiling on 64 GPUs."""

    n_jobs: int = 24

    name = "drift-solver"
    stressed = "solver ordering"
    n_workers = 0
    lanes = (("gavel-mt", "gavel-mt"), ("las", "pal"))

    @staticmethod
    def config() -> SimulatorConfig:
        """The ``gavel`` experiment's step drift, per-GPU failures at
        1/2000 h, and 4-hourly re-profiling campaigns of 8 GPUs."""
        return SimulatorConfig(
            dynamics=DynamicsConfig(
                drift=DriftSpec(
                    kind="steps", step_epochs=(24, 96),
                    step_magnitude=0.75, step_fraction=0.25,
                ),
                gpu_failure_rate_per_hour=1.0 / 2000.0,
            ),
            profiling=ProfilingConfig(period_hours=4.0, max_concurrent_gpus=8),
        )

    def run(self, seed: int, tracer: Tracer | None = None) -> Rep:
        def build():
            env = common.build_environment(
                n_gpus=SMALL_CLUSTER_GPUS, locality=1.7, seed=seed
            )
            return env, _trace(DRIFT_LOAD, self.n_jobs)

        return _direct_rep(seed, tracer, build, self.lanes, self.config())

    def stress_share(self, tracer: Tracer, rep: Rep) -> float:
        return _inclusive(tracer, "solver.order") / rep.wall_s


def stop_shard_runtime() -> None:
    """Stop the shard executor's warm pools, waiting for every worker.

    ``shutdown_shard_runtime`` does not wait; the benchmark must, so
    that no worker outlives a repetition and every worker is reaped
    before the children's peak memory is read.
    """
    for pool in list(shard._POOLS.values()):
        pool.shutdown(wait=True)
    shard.shutdown_shard_runtime()


@dataclasses.dataclass
class SweepGrid:
    """A 144-cell policy grid through ``run_sweep`` with the shard
    executor and a fresh on-disk result cache, then an incremental
    rerun over a grown seed axis (144 hits, 72 misses).

    Run seed ``n`` sweeps cell seeds ``n * grown_seeds`` onwards; each
    cell seed draws its own cluster and the simulator's streams, over
    fixed traces."""

    work_dir: Path
    n_jobs: int = 20
    schedulers: tuple[str, ...] = ("fifo", "las", "srtf")
    placements: tuple[str, ...] = ("tiresias", "pm-first", "pal")
    cold_seeds: int = 8
    grown_seeds: int = 12
    #: Every n-th cold cell is re-executed serially and compared.
    sample_every: int = 24

    name = "sweep-grid"
    stressed = "runner and set-up"
    n_workers = min(2, os.cpu_count() or 1)

    def specs(self, seed: int) -> tuple[SweepSpec, SweepSpec]:
        traces = tuple(
            TraceSpec("sia", workload=w, n_jobs=self.n_jobs, seed=TRACE_SEED)
            for w in SIA_WORKLOADS
        )
        first = seed * self.grown_seeds
        cold = SweepSpec(
            traces=traces,
            schedulers=self.schedulers,
            placements=self.placements,
            seeds=tuple(range(first, first + self.cold_seeds)),
            env=EnvSpec(n_gpus=SMALL_CLUSTER_GPUS),
            name="bench-cold",
        )
        grown = dataclasses.replace(
            cold, seeds=tuple(range(first, first + self.grown_seeds)),
            name="bench-rerun",
        )
        return cold, grown

    def run(self, seed: int, tracer: Tracer | None = None) -> Rep:
        cold, grown = self.specs(seed)
        gc.collect()
        t0 = time.perf_counter()
        with _span(tracer, "bench.setup"):
            # The runner's per-process build memos, which the shard
            # executor's environment publication reads and which forked
            # workers inherit: warming them is the set-up a sweep
            # session pays before its cells run.
            traces = {
                (t, s): execute._build_trace(t, s)
                for s in grown.seeds for t in grown.traces
            }
            for s in grown.seeds:
                execute._build_env(grown.env, s)
        setup_s = time.perf_counter() - t0
        self.work_dir.mkdir(parents=True, exist_ok=True)
        cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=self.work_dir))
        executor = shard.ShardExecutor(max_workers=self.n_workers)
        try:
            gc.collect()
            t1 = time.perf_counter()
            with _span(tracer, "bench.timed"):
                cold_res = run_sweep(cold, executor=executor, cache=ResultCache(cache_dir))
                t2 = time.perf_counter()
                rerun_cache = ResultCache(cache_dir)
                rerun_res = run_sweep(grown, executor=executor, cache=rerun_cache)
            t3 = time.perf_counter()
            rep = self._collect(
                tracer, traces, cold_res, rerun_res,
                setup_s, t3 - t1, t2 - t1, t3 - t2, rerun_cache,
            )
        finally:
            stop_shard_runtime()
            shutil.rmtree(cache_dir, ignore_errors=True)
            execute._build_env.cache_clear()
            execute._build_trace.cache_clear()
        return rep

    def _collect(
        self, tracer, traces, cold_res, rerun_res, setup_s, wall_s, cold_s,
        rerun_s, rerun_cache,
    ) -> Rep:
        cold_cells = set(cold_res.cells)
        executed = list(cold_res.results) + [
            res for cell, res in zip(rerun_res.cells, rerun_res.results)
            if cell not in cold_cells
        ]
        # Cache hits carry the spans pickled with their cold result.
        fresh_ids = {id(res) for res in executed}
        for res in cold_res.results + rerun_res.results:
            shipped = res.metadata.pop(SPANS_KEY, None)
            if tracer is not None and shipped is not None and id(res) in fresh_ids:
                tracer.merge(shipped)
        checked = [
            (res, traces[(cell.trace, cell.seed)])
            for sweep in (cold_res, rerun_res)
            for cell, res in zip(sweep.cells, sweep.results)
        ]
        rep = Rep(setup_s, wall_s, checked, executed)
        rep.check_outputs()

        fresh = dict(zip(cold_res.cells, cold_res.results))
        for cell, res in zip(rerun_res.cells, rerun_res.results):
            if cell in fresh and fresh[cell].same_outcome_as(res):
                rep.n_failed += 1
                rep.failures.append(f"{cell.label}: cached result differs")
        # Outside the traced run: a serial re-execution in this process
        # would add its simulation to the traced per-layer counts.
        for cell in cold_res.cells[:: self.sample_every] if tracer is None else ():
            diffs = fresh[cell].same_outcome_as(execute.execute_run_spec(cell))
            if diffs:
                rep.n_failed += 1
                rep.failures.append(
                    f"{cell.label}: shard vs serial differ on {diffs}"
                )

        jct = {
            (c.trace, c.scheduler, c.seed, c.placement): r.avg_jct_h()
            for c, r in zip(rerun_res.cells, rerun_res.results)
        }
        logs = [
            math.log(v / jct[key[:3] + ("tiresias",)])
            for key, v in jct.items() if key[3] == "pal"
        ]
        rep.extra = {
            "runner.cold_s": cold_s,
            "runner.rerun_s": rerun_s,
            "runner.cache_hit_ratio": rerun_cache.stats.hit_rate,
            "placement.pal_jct_ratio": math.exp(sum(logs) / len(logs)),
        }
        return rep

    def stress_share(self, tracer: Tracer, rep: Rep) -> float:
        """Share of set-up plus timed wall time not covered by any
        simulation: the runner's own cost and the set-up."""
        cells = [
            (s, e) for n, s, e in zip(tracer.names, tracer.starts, tracer.ends)
            if n == "engine.run"
        ]
        total = rep.setup_s + rep.wall_s
        return 1.0 - union_length(cells) / total


def make(name: str, work_dir: Path):
    """The workload named ``name``."""
    if name == EngineDense.name:
        return EngineDense()
    if name == DriftSolver.name:
        return DriftSolver()
    if name == SweepGrid.name:
        return SweepGrid(work_dir=work_dir)
    raise KeyError(name)
