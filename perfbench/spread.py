"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage, from the repository root::

    python3 perfbench/spread.py --workload sweep-grid --seeds 1-10 [--seconds 30]

Runs ``perfbench/run.py`` once per seed and prints, per metric, the
median and the interquartile distance as a share of the median next to
the metric's bound from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.checks import quartile_spread  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="first-last, e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args()
    decl = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or decl["run_seconds"]
    lo, hi = (int(x) for x in args.seeds.split("-"))
    values: dict[str, list[float]] = {}
    for seed in range(lo, hi + 1):
        out = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip().splitlines()[-1]
        result = json.loads(out)
        if not result["correct"] or result["failed"]:
            sys.stdout.write(f"seed {seed}: incorrect result {out}\n")
            return 1
        row = {k: v["value"] for k, v in result["metrics"].items()}
        sys.stdout.write(f"seed {seed}: {json.dumps(row)}\n")
        sys.stdout.flush()
        for name, value in row.items():
            values.setdefault(name, []).append(value)
    for metric in decl["end_to_end"]:
        vals = values[metric["name"]]
        sys.stdout.write(
            f"{metric['name']:<18} median {statistics.median(vals):10.5g}  "
            f"spread {quartile_spread(vals):6.3f}  bound {metric['bound']}\n"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
