"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload engine-dense --seed 1 --seconds 35 --trace 0

Repetitions of the workload (set-up, then the timed phase) run back to
back for ``--seconds``, at least four times.  The first warms the
process up (lazy imports, first-call initialization): its outputs are
checked but its timings are not reported.  Between repetitions a
fixed reference computation, in a process of its own, measures the
host's speed, and every reported timing is scaled by it (see
``hostspeed.py``); the unscaled medians are printed too.  With
``--trace 0`` the last line of standard output is a JSON object holding
every end-to-end metric of ``BENCHMARK.json``; with ``--trace 1`` one
more repetition runs with span tracing on and the JSON holds every
per-layer metric instead.  The spans of the traced repetition are
written to ``.perfbench/spans-<workload>-seed<seed>.jsonl.gz``.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("engine-dense", "sweep-grid", "drift-solver")
MIN_REPS = 4


def _say(line: str) -> None:
    sys.stdout.write(line + "\n")


def _peak_rss_mb(with_workers: bool) -> float:
    """Peak resident memory of this process plus, when the workload has
    workers, its largest reaped one.

    Other children are left out: a launcher's own subprocesses (a
    version-manager shim's, say) count as children after it execs.
    """
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_workers:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def _stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait for it to exit.

    The shard executor's shared-memory blocks start the tracker; it
    would otherwise outlive the run by a moment.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _placement_samples(reps, scaled: bool = True) -> np.ndarray:
    """Per-round placement seconds over rounds that ran placement.

    Every repetition simulates the same rounds (their outcome digests
    agree), so each round's time is its median over the repetitions: a
    stall that stretched one repetition's call is noise of the host, not
    a cost of the round.
    """
    per_rep = [
        np.concatenate([res.placement_times_s for res in rep.executed])
        * (rep.scale if scaled else 1.0)
        for rep in reps
    ]
    n = min(a.size for a in per_rep)  # differs only if the digests do
    rounds = np.median(np.vstack([a[:n] for a in per_rep]), axis=0)
    return rounds[rounds > 0.0]


def unscaled_timings(reps) -> dict[str, float]:
    """The end-to-end timings without host-speed scaling."""
    return {
        "setup_s": statistics.median(r.setup_s for r in reps),
        "wall_s": statistics.median(r.wall_s for r in reps),
        "placement_p99_ms": float(
            np.percentile(_placement_samples(reps, scaled=False), 99.0)
        ) * 1e3,
    }


def end_to_end(reps, peak_rss_mb: float) -> dict[str, float]:
    """End-to-end metrics; ``reps`` excludes the warm-up repetition."""
    from perfbench.checks import tail_percentile

    samples = _placement_samples(reps)
    level, value, beyond = tail_percentile(samples)
    _say(
        f"placement tail: p{level:g} = {value * 1e3:.3f} ms "
        f"({beyond} of {len(samples)} rounds beyond it, each the median "
        f"over {len(reps)} repetitions)"
    )
    if level < 99.0:
        raise RuntimeError(f"{len(samples)} placement samples cannot support a p99")
    first = reps[0].executed
    return {
        "setup_s": statistics.median(r.setup_s * r.scale for r in reps),
        "wall_s": statistics.median(r.wall_s * r.scale for r in reps),
        "placement_p99_ms": float(np.percentile(samples, 99.0)) * 1e3,
        "peak_rss_mb": peak_rss_mb,
        "sim_avg_jct_h": sum(r.avg_jct_h() for r in first) / len(first),
    }


def per_layer(workload, tracer, traced, reps, units) -> dict[str, float]:
    """Per-layer metrics from the traced repetition (see METRICS.md);
    seconds are scaled like the end-to-end ones."""
    from perfbench.tracing import layer_self_times

    incl: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for name, s, e in zip(tracer.names, tracer.starts, tracer.ends):
        incl[name] += (e - s) * traced.scale
        calls[name] += 1
    with_select = {
        p for n, p in zip(tracer.names, tracer.parents) if n == "placement.select"
    }
    placements = [i for i, n in enumerate(tracer.names) if n == "stage:placement"]
    maps = {i for i, n in enumerate(tracer.names) if n == "runner.map"}
    cells = [
        (e - s) * traced.scale for n, s, e, p in zip(
            tracer.names, tracer.starts, tracer.ends, tracer.parents
        )
        if n == "engine.run" and p in maps
    ]

    def meta_sum(block: str, *keys: str) -> float:
        return float(sum(
            res.metadata[block][k] for res in traced.executed
            if block in res.metadata for k in keys
        ))

    def median_extra(key: str) -> float:
        values = [
            r.extra[key] * (r.scale if units[key] == "s" else 1.0)
            for r in reps if key in r.extra
        ]
        return statistics.median(values) if values else 0.0

    epochs = float(sum(r.metadata["epochs_run"] for r in traced.executed))
    traces = {id(t): len(t) for _, t in traced.checked}
    metrics = {
        "engine.placement_s": incl["stage:placement"],
        "placement.select_s": incl["placement.select"],
        "placement.select_calls": float(calls["placement.select"]),
        "engine.placement_noop_ratio": (
            sum(i not in with_select for i in placements) / len(placements)
            if placements else 0.0
        ),
        "engine.ordering_s": incl["stage:ordering"],
        "policies.order_calls": float(calls["policies.order"]),
        "policies.order_s": incl["policies.order"],
        "solver.order_s": incl["solver.order"],
        "solver.lp_s": incl["solver.lp"],
        "solver.lp_calls": meta_sum("solver", "n_lp_calls"),
        "engine.epochs": epochs,
        "engine.rounds": float(tracer.rounds),
        "engine.epochs_per_round": epochs / tracer.rounds if tracer.rounds else 0.0,
        "engine.fast_forward_s": incl["stage:fast-forward"],
        "policies.stable_epochs_s": incl["policies.stable_epochs"],
        "engine.arrival_s": incl["stage:arrival"],
        "engine.execution_s": incl["stage:execution"],
        "dynamics.stage_s": incl["stage:dynamics"],
        "dynamics.events": meta_sum(
            "dynamics", "gpu_failures", "node_failures", "repairs", "drains",
            "drift_events",
        ),
        "profiling.stage_s": incl["stage:profiling"],
        "profiling.batches": meta_sum("profiling", "batches"),
        "profiling.gpu_epochs": meta_sum("profiling", "gpu_epochs_spent"),
        "runner.map_s": incl["runner.map"],
        "runner.publish_s": incl["runner.publish"],
        "runner.cell_p50_s": float(np.percentile(cells, 50)) if cells else 0.0,
        "runner.cell_p90_s": float(np.percentile(cells, 90)) if cells else 0.0,
        "runner.worker_busy_frac": (
            sum(cells) / (workload.n_workers * incl["runner.map"]) if cells else 0.0
        ),
        "runner.cache_get_s": incl["runner.cache_get"],
        "runner.cache_put_s": incl["runner.cache_put"],
        "runner.cache_hit_ratio": median_extra("runner.cache_hit_ratio"),
        "runner.cold_s": median_extra("runner.cold_s"),
        "runner.rerun_s": median_extra("runner.rerun_s"),
        "env.build_s": incl["env.build"],
        "core.pm_fit_s": incl["core.pm_fit"],
        "traces.build_s": incl["traces.build"],
        "traces.jobs": float(sum(traces.values())),
        "placement.pal_jct_ratio": median_extra("placement.pal_jct_ratio"),
        "bench.trace_overhead": traced.wall_s * traced.scale / statistics.median(
            r.wall_s * r.scale for r in reps
        ),
        "bench.stress_share": workload.stress_share(tracer, traced),
    }
    total = traced.setup_s + traced.wall_s
    shares = sorted(layer_self_times(tracer).items(), key=lambda kv: -kv[1])
    _say(
        "traced self time by layer, unscaled "
        f"(all processes; set-up + timed wall {total:.3f} s):"
    )
    for layer, seconds in shares:
        _say(f"  {layer:<22} {seconds:9.3f} s")
    _say(
        f"stressed layer ({workload.stressed}): "
        f"{metrics['bench.stress_share']:.1%} of the traced timed phase"
    )
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    if not (ROOT / "src" / "repro").is_dir():
        sys.stderr.write(f"no program source at {ROOT / 'src' / 'repro'}\n")
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import workloads
    from perfbench.checks import outcome_digest, validate_catalog
    from perfbench.hostspeed import NOMINAL_S, HostSpeed
    from perfbench.tracing import Tracer, instrumented

    decl = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = validate_catalog(decl)
    if problems:
        sys.stderr.write("BENCHMARK.json: " + "; ".join(problems) + "\n")
        return 2
    work_dir = ROOT / ".perfbench"
    workload = workloads.make(args.workload, work_dir)

    host = None  # started after the first repetition's memory is read
    refs: list[float] = []

    def set_scale(rep) -> None:
        """Scale ``rep``'s timings by the references taken just before
        and just after it."""
        refs.append(host.reference_s())
        rep.scale = NOMINAL_S / math.sqrt(refs[-2] * refs[-1])

    reps = []
    peak_rss_mb = 0.0
    attempted = failed = 0
    correct = True
    traced = tracer = None
    start = time.perf_counter()
    try:
        try:
            # Another repetition starts only if one of average length
            # still ends within --seconds, so a run's length is
            # predictable.
            while len(reps) < MIN_REPS or (
                (time.perf_counter() - start) * (len(reps) + 1) / len(reps)
                <= args.seconds
            ):
                rep = workload.run(args.seed)
                if not reps:
                    peak_rss_mb = _peak_rss_mb(workload.n_workers > 0)
                    host = HostSpeed()
                    refs.append(host.reference_s())
                else:
                    set_scale(rep)
                reps.append(rep)
        except Exception:  # a simulation raised: count it, report what ran
            traceback.print_exc()
            attempted += 1
            failed += 1
            correct = False
        if len(reps) < 2:  # not even one timed repetition completed
            return 1
        if args.trace:
            tracer = Tracer()
            with instrumented(tracer):
                traced = workload.run(args.seed, tracer)
            set_scale(traced)
    finally:
        if host is not None:
            host.close()

    digests = {outcome_digest(rep.executed) for rep in reps}
    digest = next(iter(digests))
    if len(digests) != 1:
        correct = False
        _say(f"outcome digests differ across repetitions: {sorted(digests)}")
    if args.trace:
        traced_digest = outcome_digest(traced.executed)
        if traced_digest != digest:
            correct = False
            _say(f"traced outcome digest {traced_digest} != untraced {digest}")
        work_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(work_dir / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")

    _stop_resource_tracker()
    for rep in reps + ([traced] if traced is not None else []):
        attempted += len(rep.checked)
        failed += rep.n_failed
        for line in rep.failures:
            _say(f"FAILED {line}")
    correct = correct and failed == 0

    timed = reps[1:]
    e2e = end_to_end(timed, peak_rss_mb)
    _say(
        f"{args.workload} seed={args.seed}: {len(timed)} timed repetitions "
        f"after one warm-up, "
        f"digest {digest}, failed_frac {failed / attempted:.4f} "
        f"({failed}/{attempted})"
    )
    _say("  per repetition, unscaled: setup_s "
         + " ".join(f"{r.setup_s:.3f}" for r in timed)
         + " | wall_s " + " ".join(f"{r.wall_s:.3f}" for r in timed)
         + " | scale " + " ".join(f"{r.scale:.3f}" for r in timed))
    if host.busy:
        _say(f"  host-speed reference: this process was not idle during "
             f"{host.busy} of {len(refs)} references; their scales may "
             f"read the program's own load")
    units = {m["name"]: m["unit"] for m in decl["end_to_end"] + decl["per_layer"]}
    raw = unscaled_timings(timed)
    for name, value in e2e.items():
        unscaled = f" (unscaled {raw[name]:.6g})" if name in raw else ""
        _say(f"  {name} = {value:.6g} {units[name]}{unscaled}")
    if args.trace:
        metrics = per_layer(workload, tracer, traced, timed, units)
        wanted = [m["name"] for m in decl["per_layer"]]
    else:
        metrics = e2e
        wanted = [m["name"] for m in decl["end_to_end"]]
    if sorted(metrics) != sorted(wanted):
        sys.stderr.write(
            f"computed metrics {sorted(metrics)} != declared {sorted(wanted)}\n"
        )
        return 2
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in wanted
        },
    }
    _say(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
