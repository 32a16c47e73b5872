"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--trace 0]
                                [--write perfbench/BASELINE.json]

For every workload and metric it prints the median of the runs and the
distance between the first and third quartile as a share of the median
(``statistics.quantiles(values, n=4)``), next to the metric's bound from
BENCHMARK.json.  Runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One benchmark run; returns its result line and its env block."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(l[5:]) for l in lines if l.startswith("env: "))
    return json.loads(lines[-1]), env


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in benchmark["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write", help="write medians and spreads here as JSON")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in benchmark["end_to_end"]}

    summary = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            result, summary["env"] = run_once(workload, seed,
                                              benchmark["run_seconds"], args.trace)
            runs.append(result)
        rows = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else 0.0
            rows[name] = {"median": median, "iqr_share": spread,
                          "unit": runs[0]["metrics"][name]["unit"],
                          "values": values}
            bound = bounds.get(name)
            flag = "" if bound is None or spread < bound / 3 else "  <-- above bound/3"
            print(f"{workload:13s} {name:22s} median {median:10.5g} "
                  f"spread {spread:7.2%}  bound {bound}{flag}  "
                  + " ".join(f"{v:.4g}" for v in values), flush=True)
        failed = sum(r["failed"] for r in runs)
        print(f"{workload:13s} correct {all(r['correct'] for r in runs)}, "
              f"failed {failed} of {sum(r['attempted'] for r in runs)}", flush=True)
        summary[workload] = {"runs": len(runs), "failed": failed, "metrics": rows}
    if args.write:
        Path(args.write).write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
