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
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from gapdim import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


tracer_module, workloads = load("tracer"), load("workloads")


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
