"""Run the benchmark over several seeds and report each metric's median
and quartile spread (the distance between the first and third quartile,
as a share of the median), one workload after another.

    python3 perfbench/spread.py [--seeds 1-10] [--workloads a,b] [--trace 0|1] [--json out.json]

Runs are sequential, so no two runs compete for the processor. Run from
the root of a checkout. Exits 1 if a run fails its checks, or if an
end-to-end spread reaches the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    """-> (result line, info line) of one benchmark run."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return json.loads(lines[-1]), json.loads(lines[-2])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="write medians, quartiles and sample counts here")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    ok = True
    for workload in args.workloads.split(","):
        values: dict = {}
        samples, queries = [], []
        for seed in parse_seeds(args.seeds):
            result, info = run_once(workload, seed, args.seconds, args.trace)
            if not result["correct"]:
                print(f"{workload} seed {seed}: checks failed: {info.get('problems')}")
                ok = False
            samples.append(result["attempted"])
            queries.append(info["oracle_queries_per_pass"])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items() if k in bounds or args.trace == 0
            ), flush=True)
        rows = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "runs": len(vals)}
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                flag = "ok" if spread < bound / 3 else ("WIDE" if spread < bound else "OVER BOUND")
                ok = ok and spread < bound
            print(f"  {workload:18} {name:42} median {med:12.6g}  spread {spread:7.4f}  {flag}")
        report[workload] = {"metrics": rows, "ops_attempted_per_run": samples, "oracle_queries_per_pass": queries}
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
