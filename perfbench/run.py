"""gapdim benchmark: closed-loop CLI workloads with checked answers.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload dim|trees|sampling --seed N \
        --seconds S --trace 0|1

One client in one process runs README CLI commands in-process through
``gapdim.cli.main``, capturing stdout; it sends the next command only after
the previous one returned and its answer was checked (outside the timed
region).  A run repeats the workload's cycle of jobs, built from the seed,
until at least S seconds of job wall time and MIN_JOBS jobs have been
measured, always in whole cycles so that every run measures the same mix.

Times are reported at the reference CPU speed of speed.py, which divides
out the host's speed swings; the raw wall-clock figures are printed too.

With ``--trace 0`` the last stdout line reports the end-to-end metrics.
With ``--trace 1`` the run measures one cycle untraced and then the same
cycle with every public layer function wrapped (see tracer.py), and reports
the per-layer metrics and the tracing overhead.  Lines before the last one
give the environment and each metric with its unit, for a human reader.
"""

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ".perfbench_runs"  # scratch space under the checkout root
DEFAULT_SEED = 1  # the seed whose answers references.json stores
SETUP_REPEATS = 5
MIN_JOBS = 100  # so that at least ten jobs lie beyond the 90th percentile

sys.path.insert(0, str(HERE))
from checks import Checker  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracer import Tracer, TracerError  # noqa: E402
from workloads import EXERCISED, PLANS  # noqa: E402


def load_program(speed):
    """Import gapdim from this checkout's src/, never from elsewhere.

    Returns the CLI module and the import's reference seconds.
    """
    src = ROOT / "src"
    if not (src / "gapdim" / "cli.py").is_file():
        sys.exit(f"error: no gapdim sources under {src}")
    sys.path.insert(0, str(src))
    _, import_s, cli = speed.time_call(lambda: importlib.import_module("gapdim.cli"))
    if Path(cli.__file__).resolve().parent != src / "gapdim":
        sys.exit(f"error: gapdim was imported from {cli.__file__}, not {src}")
    return cli, import_s


def git_revision():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def loadavg():
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().split()[:3]
    except OSError:
        return None


def run_job(cli, speed, argv, tracer=None, job_id=0):
    """One in-process CLI command: (wall s, reference s, exit code, stdout)."""

    def call():
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code
        except Exception as exc:  # a traceback fails the job, not the run
            return f"raised {exc!r}"

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        if tracer is not None:
            tracer.job, tracer.on = job_id, True
        wall, scaled, rc = speed.time_call(call)
        if tracer is not None:
            tracer.on = False
    return wall, scaled, rc, out.getvalue()


def set_up(cli, speed, plan, base, checker):
    """Write the inputs and run the warm-up job, SETUP_REPEATS times.

    Returns the last input directory, each repeat's reference seconds and
    any problems of the warm-up jobs.
    """
    seconds, problems = [], []
    for i in range(SETUP_REPEATS):
        workdir = f"{base}/rep{i}"
        os.makedirs(workdir)
        _, files_s, _ = speed.time_call(lambda: plan.write_files(workdir))
        argv = plan.warmup.expand(workdir)
        _, job_s, rc, out = run_job(cli, speed, argv)
        seconds.append(files_s + job_s)
        problems += checker.check(plan.warmup, argv, rc, out)
    return workdir, seconds, problems


class Loop:
    """Closed loop over whole cycles of a plan's jobs."""

    def __init__(self, cli, speed, plan, workdir, checker):
        self.cli, self.speed, self.plan = cli, speed, plan
        self.workdir, self.checker = workdir, checker
        self.failures = []

    def run(self, seconds=0.0, cycles=None, tracer=None):
        """Returns (wall seconds, reference seconds) of every job run."""
        walls, times = [], []
        done = 0
        while True:
            for job in self.plan.jobs:
                argv = job.expand(self.workdir)
                wall, scaled, rc, out = run_job(self.cli, self.speed, argv, tracer, len(times))
                walls.append(wall)
                times.append(scaled)
                problems = self.checker.check(job, argv, rc, out)
                if problems:
                    self.failures.append((job.key, "; ".join(problems)))
            done += 1
            if done == cycles or (cycles is None and sum(walls) >= seconds and len(walls) >= MIN_JOBS):
                return walls, times


def end_to_end(times, setup_s):
    return {
        "setup_s": (setup_s, "s"),
        "job_p50_s": (statistics.median(times), "s"),
        "job_p90_s": (statistics.quantiles(times, n=10)[8], "s"),
        "jobs_per_s": (len(times) / sum(times), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def traced_metrics(loop, workload, seed):
    """One untraced and one traced cycle: per-layer metrics and overhead."""
    _, plain = loop.run(cycles=1)
    tracer = Tracer()
    tracer.install()
    try:
        traced_walls, traced = loop.run(cycles=1, tracer=tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(sum(traced_walls))
    plain_rate, traced_rate = len(plain) / sum(plain), len(traced) / sum(traced)
    metrics["tracer.untraced_jobs_per_s"] = (plain_rate, "1/s")
    metrics["tracer.traced_jobs_per_s"] = (traced_rate, "1/s")
    metrics["tracer.overhead_ratio"] = (plain_rate / traced_rate, "ratio")
    tracer.write_spans(f"{RUNS}/spans-{workload}-seed{seed}.json")
    missing = tracer.unexercised(EXERCISED[workload])
    problems = [f"traced functions never entered: {', '.join(missing)}"] if missing else []
    return metrics, len(plain) + len(traced), problems


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(PLANS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def load_references(workload):
    path = HERE / "references.json"
    if not path.is_file():
        return {}
    with open(path) as fh:
        return json.load(fh)["workloads"].get(workload, {})


def main():
    args = parse_args()
    os.chdir(ROOT)
    speed = SpeedProbe()
    cli, import_s = load_program(speed)
    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(),
        "loadavg_start": loadavg(),
    }
    plan = PLANS[args.workload](args.seed)
    checker = Checker(load_references(args.workload))
    base = f"{RUNS}/{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        workdir, setup_times, problems = set_up(cli, speed, plan, base, checker)
        loop = Loop(cli, speed, plan, workdir, checker)
        if args.trace:
            metrics, attempted, more = traced_metrics(loop, args.workload, args.seed)
            problems += more
        else:
            walls, times = loop.run(seconds=args.seconds)
            metrics = end_to_end(times, import_s + statistics.median(setup_times))
            attempted = len(times)
    except TracerError as exc:
        sys.exit(f"error: {exc}")
    finally:
        shutil.rmtree(base, ignore_errors=True)
    env["loadavg_end"] = loadavg()

    failures = loop.failures
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    if not args.trace:
        print(f"{args.workload} wall-clock job_p50_s {statistics.median(walls):.6g} s, "
              f"jobs_per_s {len(walls) / sum(walls):.6g} 1/s")
    print(f"{args.workload} jobs {attempted} failed {len(failures)} "
          f"fail_ratio {len(failures) / attempted:.6g}")
    for key, why in failures[:20] + [("set-up", p) for p in problems]:
        print(f"FAILED {key}: {why}", file=sys.stderr)
    result = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
