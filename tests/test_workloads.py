"""One cycle of every benchmark workload enters every function it must trace.

``perfbench/run.py --trace 1`` reports a workload as incorrect when a
function named in its ``EXERCISED`` list is never called, for instance
after a refactor routes the work around it.  This test catches that in the
test suite: it writes the seed-1 plan's input files, installs the
benchmark's tracer, runs one cycle of jobs through ``gapdim.cli.main`` and
checks every exit code and every required function.  The benchmark
modules are loaded from their files and left unchanged.
"""

import importlib.util
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from gapdim import cli
from gapdim.exactset import parse_rational
from gapdim.funclass import load_class
from gapdim.shatter import gap_dim

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


tracer_module, workloads = load("tracer"), load("workloads")
BENCH_FILES = sorted(PERFBENCH.parent.glob("BENCH_*.json"))


@pytest.mark.parametrize("workload", sorted(workloads.PLANS))
def test_one_cycle_enters_every_traced_function(tmp_path, workload):
    plan = workloads.PLANS[workload](1)
    plan.write_files(str(tmp_path))
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        for job in plan.jobs:
            err = io.StringIO()
            tracer.on = True
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = cli.main(job.expand(str(tmp_path)))
            tracer.on = False
            assert code == job.rc, (job.key, err.getvalue())
    finally:
        tracer.on = False
        tracer.uninstall()
    assert tracer.unexercised(workloads.EXERCISED[workload]) == []


# gap_dim certificates of the seed-1 dim plan's TABULAR class files, as the
# Fraction value lookups wrote them
TAB_CERTIFICATES = {
    "tab0-s1.json": ("1/8", {"points": ["1/4", "5/12", "3/4"], "alpha": "7/16", "selector": {
        "0": 1, "1": 4, "2": 9, "3": 3, "4": 11, "5": 10, "6": 6, "7": 0}}),
    "tab1-s1.json": ("1/4", {"points": ["1/12", "7/12"], "alpha": "9/16", "selector": {
        "0": 1, "1": 7, "2": 2, "3": 13}}),
    "tab2-s1.json": ("1/8", {"points": ["1/12", "1/4"], "alpha": "9/16", "selector": {
        "0": 19, "1": 3, "2": 4, "3": 8}}),
    "tab3-s1.json": ("1/4", {"points": ["1/12", "1/4"], "alpha": "7/16", "selector": {
        "0": 5, "1": 10, "2": 11, "3": 6}}),
}


@pytest.mark.parametrize("name", sorted(TAB_CERTIFICATES))
def test_dim_plan_tabular_certificates(tmp_path, name):
    gamma, expected = TAB_CERTIFICATES[name]
    path = str(tmp_path / name)
    workloads.PLANS["dim"](1).files[name](path, str(tmp_path))
    res = gap_dim(load_class(path), parse_rational(gamma))
    assert res.exact and res.certificate.to_json() == expected


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda path: path.name)
def test_committed_bench_files_record_correct_runs(path):
    # each summary.py file holds an untraced and a traced run of every workload
    runs = json.loads(path.read_text())["workloads"]
    for name in ("dim", "trees", "sampling"):
        for mode in ("traced", "untraced"):
            result = runs[name][mode]["result"]
            assert (result["correct"], result["failed"]) == (True, 0), (name, mode)
