"""Run every workload untraced and traced, and print every metric with its unit.

Usage, from the root of a checkout:

    python3 perfbench/summary.py [--seed N] [--seconds S] [--out FILE]

Each workload runs in its own process (run.py), one after another.  The
table gives, per workload, the end-to-end metrics of the untraced run plus
the job count and fail_ratio (failed jobs over jobs attempted), then the
tracing overhead of the traced run.  The file written to --out (default
.perfbench_runs/summary.json) holds every metric of both runs and the
environment each ran in.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import PLANS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_workload(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"error: {' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return {"env": env, "result": json.loads(lines[-1]), "stderr": proc.stderr.strip()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--out", default=str(ROOT / ".perfbench_runs" / "summary.json"))
    args = parser.parse_args()

    summary = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    print(f"{'workload':10} {'metric':28} {'value':>12}  unit")
    for workload in PLANS:
        untraced = run_workload(workload, args.seed, args.seconds, 0)
        traced = run_workload(workload, args.seed, args.seconds, 1)
        summary["workloads"][workload] = {"untraced": untraced, "traced": traced}
        res = untraced["result"]
        rows = [(name, m["value"], m["unit"]) for name, m in res["metrics"].items()]
        rows.append(("jobs", res["attempted"], "count"))
        rows.append(("fail_ratio", res["failed"] / res["attempted"], "ratio"))
        tm = traced["result"]["metrics"]
        for name in ("tracer.untraced_jobs_per_s", "tracer.traced_jobs_per_s", "tracer.overhead_ratio"):
            rows.append((name, tm[name]["value"], tm[name]["unit"]))
        for name, value, unit in rows:
            print(f"{workload:10} {name:28} {value:12.6g}  {unit}")
        for run in (untraced, traced):
            if not run["result"]["correct"]:
                print(f"{workload:10} INCORRECT: {run['stderr']}")
        print(f"{workload:10} loadavg {untraced['env']['loadavg_start']} -> {traced['env']['loadavg_end']}")
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"written to {args.out}")


if __name__ == "__main__":
    main()
