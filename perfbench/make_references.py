"""Regenerate references.json: the answers of the default seed's jobs.

Usage, from the root of a checkout:

    python3 perfbench/make_references.py

Every job of one cycle of each workload, built from the default seed, is
run once; its answer must pass the run's own checks.  Each dimension is
cross-checked once against ``oracle_gap_dim`` from ``tests/oracles.py``,
an independent enumeration (the module is imported, not edited), before it
is stored.
"""

import json
import shutil
import sys
from fractions import Fraction

import run
from checks import Checker, _flags
from workloads import PLANS


def main():
    speed = run.SpeedProbe()
    cli, _ = run.load_program(speed)
    sys.path.insert(0, str(run.ROOT / "tests"))
    from oracles import oracle_gap_dim
    from gapdim.shatter import candidate_points

    refs = {"seed": run.DEFAULT_SEED, "oracle_checked": 0, "workloads": {}}
    for workload, make_plan in PLANS.items():
        plan = make_plan(run.DEFAULT_SEED)
        checker = Checker()
        base = f"{run.RUNS}/references-{workload}"
        answers = {}
        try:
            workdir, _, problems = run.set_up(cli, speed, plan, base, checker)
            for job in plan.jobs:
                argv = job.expand(workdir)
                _, _, rc, out = run.run_job(cli, speed, argv)
                answer, more = checker.answer(job, argv, rc, out)
                problems += more
                if job.command == "dim" and answer is not None:
                    flags = _flags(argv)
                    F = checker._class(flags["class"])
                    oracle = oracle_gap_dim(F, candidate_points(F), Fraction(flags["gamma"]))
                    if oracle != answer["dimension"]:
                        problems.append(f"{job.key}: oracle says {oracle}, solver {answer}")
                    refs["oracle_checked"] += 1
                answers[job.key] = answer
        finally:
            shutil.rmtree(base, ignore_errors=True)
        if problems:
            sys.exit(f"error: {workload}: " + "; ".join(problems))
        refs["workloads"][workload] = answers
        print(f"{workload}: {len(answers)} reference answers", flush=True)
    with open(run.HERE / "references.json", "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"dimensions cross-checked against the oracle: {refs['oracle_checked']}")


if __name__ == "__main__":
    main()
