"""Steadiness check: repeat the benchmark command and report each spread.

    python3 bench/steady.py --runs 10 [--workload train_wide ...]

Runs the command from BENCHMARK.json once for each of the seeds 1 to
--runs, each run in a fresh process, and prints for every end-to-end metric
its median, its quartile spread (Q3 - Q1) as a share of the median, and the
metric's bound. Every spread must stay within its bound ("ok" when it is
below a third of it, "wide" when above); the share of failed operations
must not vary between runs. The exit code is 0 when both hold.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec: dict, workload: str, seed: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float]:
    """(median, (Q3 - Q1) / median) as statistics.quantiles gives them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args(argv)

    steady = True
    summary = {}
    for workload in args.workload or names:
        results = [run_once(spec, workload, seed) for seed in range(1, args.runs + 1)]
        failed = sorted({r["failed"] / r["attempted"] for r in results})
        correct = all(r["correct"] for r in results)
        print(f"{workload}: {args.runs} runs, failed share {failed}, correct {correct}")
        steady &= correct and len(failed) == 1
        summary[workload] = {}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["metrics"][name]["value"] for r in results]
            median, share = spread(values)
            if share < bound / 3:
                status = "ok"
            elif share <= bound:
                status = "wide"
            else:
                status = "OVER BOUND"
                steady = False
            print(f"  {name:16s} median {median:12.6g} {metric['unit']:5s} "
                  f"spread {share:7.2%}  bound {bound:6.2%}  {status}")
            print("    runs", " ".join(f"{v:.6g}" for v in values))
            summary[workload][name] = {"median": median, "spread": share, "values": values}
    print(json.dumps({"steady": steady, "workloads": summary}))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
