"""Workload plans: the CLI jobs of one cycle and the input files they read.

A plan is built from the workload seed alone (``random.Random(seed)``), so
the same seed gives the same jobs and files.  The program only ever sees
the generated command lines and files; workloads differ in their inputs,
never through flags or settings inside ``gapdim``.

Job command lines may contain ``{w}``, the directory the input files were
written to; the job key keeps the placeholder, so a key names the same job
in every run and can index the stored reference answers.  Input file names
carry the seed, because their contents depend on it.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List


@dataclass(frozen=True)
class Job:
    argv: tuple
    rc: int = 0  # expected exit code

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    @property
    def command(self) -> str:
        return self.argv[1] if self.argv[0] == "itree" else self.argv[0]

    def expand(self, workdir: str) -> List[str]:
        return [a.replace("{w}", workdir) for a in self.argv]


@dataclass
class Plan:
    jobs: List[Job]
    warmup: Job
    files: Dict[str, Callable[[str, str], None]] = field(default_factory=dict)

    def write_files(self, workdir: str) -> None:
        for name, writer in self.files.items():
            writer(f"{workdir}/{name}", workdir)


def _interleave(light: List[Job], heavy: List[Job]) -> List[Job]:
    """Spread heavy jobs evenly through the light ones."""
    out = list(light)
    step = len(light) // (len(heavy) + 1)
    for i, job in enumerate(heavy):
        out.insert((i + 1) * step + i, job)
    return out


# -- input file writers ------------------------------------------------------


def _class_file(make):
    def write(path, workdir):
        from gapdim.funclass import save_class

        save_class(make(), path)

    return write


def _generated(spec):
    def make():
        from gapdim.funclass import generate

        return generate(spec)

    return make


def _random_tabular(rng: random.Random, points: int, count: int):
    rows = [[rng.randrange(9) for _ in range(points)] for _ in range(count)]

    def make():
        from gapdim.funclass import Function, FunctionClass

        pts = [Fraction(2 * t + 1, 2 * points) for t in range(points)]
        fns = [Function.tabular(pts, [Fraction(v, 8) for v in row]) for row in rows]
        return FunctionClass(fns, f"random_tabular({points},{count})")

    return make


def _cert_file(class_name: str, gamma: str):
    def write(path, workdir):
        from gapdim.exactset import parse_rational
        from gapdim.funclass import load_class
        from gapdim.shatter import gap_dim

        result = gap_dim(load_class(f"{workdir}/{class_name}"), parse_rational(gamma))
        if result.certificate is None:
            raise RuntimeError(f"{class_name} has gap dimension 0 at {gamma}")
        result.certificate.save(path)

    return write


def _json_file(doc):
    def write(path, workdir):
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")

    return write


def _tree_files(specs: List[str], gamma: str, depth: int):
    """Write the first spec's buildable tree plus an itree-verify config."""

    def write(path, workdir):
        from gapdim.exactset import parse_rational
        from gapdim.funclass import generate
        from gapdim.treelab import intersection_tree_build

        for spec in specs:
            built = intersection_tree_build(
                generate(spec), parse_rational(gamma), depth, visit_cap=20_000
            )
            if built is not None:
                break
        else:
            raise RuntimeError(f"no depth-{depth} tree for any of {specs}")
        built.tree.save(path)
        config = {
            "class": spec,
            "gamma": gamma,
            "tree": path,
            "functions": ",".join(str(i) for i in built.functions),
        }
        with open(path[: -len(".json")] + ".cfg.json", "w") as fh:
            json.dump(config, fh, indent=2, sort_keys=True)
            fh.write("\n")

    return write


# -- workloads ---------------------------------------------------------------


def dim_plan(seed: int) -> Plan:
    """Dimension searches: mostly millisecond jobs, a few second-long ones."""
    rng = random.Random(seed)
    plan = Plan(jobs=[], warmup=Job(("dim", "--class", "thresholds(4)", "--gamma", "1/4")))
    light = []
    # The class shape follows s mod 30; stepping through every residue keeps
    # the mix of shapes, and so the spread of job times, equal across seeds.
    for i in range(210):
        s = 30 * rng.randrange(33_333) + i % 30
        spec = f"random_step({s},{4 + s % 5},8,{3 + s % 6})"
        for gamma in ("1/8", "1/4", "3/8"):
            light.append(Job(("dim", "--class", spec, "--gamma", gamma)))
    # Class files (STEP and TABULAR), their certificates, and verify jobs:
    # each certificate verifies at its own gamma and must fail at 1/2.
    for i in range(4):
        s = rng.randrange(10**6)
        plan.files[f"step{i}-s{seed}.json"] = _class_file(_generated(f"random_step({s},6,8,12)"))
        plan.files[f"tab{i}-s{seed}.json"] = _class_file(_random_tabular(rng, 6, 24))
    for i in range(4):
        for name in (f"step{i}-s{seed}", f"tab{i}-s{seed}"):
            cls = f"{{w}}/{name}.json"
            gamma = ("1/8", "1/4")[i % 2]
            plan.files[f"{name}.cert.json"] = _cert_file(f"{name}.json", gamma)
            cert = f"{{w}}/{name}.cert.json"
            light.append(Job(("dim", "--class", cls, "--gamma", gamma)))
            light.append(Job(("verify", "--class", cls, "--cert", cert, "--gamma", gamma)))
            light.append(Job(("verify", "--class", cls, "--cert", cert, "--gamma", "1/2"), rc=1))
    rng.shuffle(light)
    heavy = [
        Job(("dim", "--class", f"random_step({rng.randrange(10**6)},12,8,32)", "--gamma", "1/8"))
        for _ in range(4)
    ]
    heavy.insert(1, Job(("dim", "--class", "interval_indicators(10)", "--gamma", "1/4")))
    heavy.append(Job(("dim", "--class", "all_patterns(8)", "--gamma", "1/4")))
    heavy.append(Job(("demo-rotation", "--m", "100", "--seed", str(rng.randrange(10**6)))))
    plan.jobs = _interleave(light, heavy)
    return plan


def trees_plan(seed: int) -> Plan:
    """Intersection trees, joins, segments and pigeonholes on step classes."""
    rng = random.Random(seed)
    fjf = "full_join_family(3,1,3,1/5)"
    plan = Plan(jobs=[], warmup=Job(("itree", "build", "--class", fjf, "--gamma", "1/5", "--depth", "2")))
    light = []
    for depth in range(2, 9):
        light.append(Job(("itree", "build", "--class", fjf, "--gamma", "1/5", "--depth", str(depth))))
    # Random 0/1 step classes.  Depth 5 needs a deep search on some classes;
    # its small budget keeps a failed search about as costly as a success.
    for _ in range(24):
        spec = f"random_step({rng.randrange(10**6)},64,1,24)"
        for depth in (3, 4, 5):
            budget = "500" if depth == 5 else "2000"
            light.append(Job(("itree", "build", "--class", spec, "--gamma", "1/5",
                              "--depth", str(depth), "--budget", budget)))
    # Trees written during set-up: verify them and extract uniform subtrees.
    tree_sources = [([fjf], d) for d in (3, 4, 5, 6)]
    tree_sources += [([f"random_step({rng.randrange(10**6)},64,1,24)" for _ in range(8)], 3)
                     for _ in range(4)]
    for i, (specs, depth) in enumerate(tree_sources):
        plan.files[f"tree{i}-s{seed}.json"] = _tree_files(specs, "1/5", depth)
        light.append(Job(("itree", "verify", "--config", f"{{w}}/tree{i}-s{seed}.cfg.json")))
        light.append(Job(("subtree", "--tree", f"{{w}}/tree{i}-s{seed}.json", "--K", "5")))
    s = rng.randrange(10**6)
    plan.files[f"rs64-s{seed}.json"] = _class_file(_generated(f"random_step({s},64,1,24)"))
    light.append(Job(("itree", "build", "--class", f"{{w}}/rs64-s{seed}.json", "--gamma", "1/5",
                      "--depth", "4", "--budget", "2000")))
    for L in (2,) * 5 + (3,) * 5:
        g = rng.choice((5, 6, 7))
        k = rng.randrange(1, g - 1)
        k2 = rng.randrange(k + 2, g + 1)
        spec = f"full_join_family({L},{k},{k2},1/{g})"
        light.append(Job(("join", "--class", spec, "--gamma", f"1/{g}", "--k", str(k), "--kp", str(k2))))
        light.append(Job(("segments", "--class", spec, "--gamma", f"1/{rng.choice((4, 5, 8))}")))
    for _ in range(20):
        size = rng.randrange(256, 1025)
        leaves = sorted(rng.sample(range(1024), size))
        c = f"{rng.randrange(1, size // 128 + 1)}/8"
        light.append(Job(("ptree", "--depth", "10", "--leaves", ",".join(map(str, leaves)), "--c", c)))
    rng.shuffle(light)
    heavy = [
        Job(("itree", "build", "--class", f"random_step({rng.randrange(10**6)},64,1,24)",
             "--gamma", "1/5", "--depth", "6", "--budget", "5000"))
        for _ in range(2)
    ]
    plan.jobs = _interleave(light, heavy)
    return plan


def sampling_plan(seed: int) -> Plan:
    """Exact discrepancy of sampled paths, from a thousand to a million points."""
    rng = random.Random(seed)
    # A symmetric chain: its stationary law is (1/2, 1/2) for every p, so
    # the share of steps that draw an emission does not depend on the seed.
    p = Fraction(rng.randrange(1, 8), 8)
    lo = rng.randrange(8, 15)
    plan = Plan(jobs=[], warmup=Job(("discrepancy", "--class", "thresholds(16)", "--process", "iid",
                                     "--m", "1000", "--seed", "1")))
    plan.files[f"markov-s{seed}.json"] = _json_file({
        "variant": "markov",
        "transition": [[str(1 - p), str(p)], [str(p), str(1 - p)]],
        "emissions": [
            {"kind": "point", "at": f"{rng.randrange(1, 8)}/16"},
            {"kind": "uniform", "lo": f"{lo}/16", "hi": f"{rng.randrange(lo + 1, 17)}/16"},
        ],
    })
    classes = ["thresholds(16)", f"random_step({rng.randrange(10**6)},16,8,32)"]
    processes = ["iid", "rotation", f"{{w}}/markov-s{seed}.json"]

    def discrepancy(cls, process, m):
        return Job(("discrepancy", "--class", cls, "--process", process, "--m", str(m),
                    "--seed", str(rng.randrange(10**6))))

    light = []
    for cls in classes:
        for process in processes:
            light += [discrepancy(cls, process, 1000) for _ in range(16)]
            light += [discrepancy(cls, process, 10_000) for _ in range(5)]
    for _ in range(2):
        light.append(Job(("gc-curve", "--class", rng.choice(classes), "--process", rng.choice(processes),
                          "--m-grid", "100,1000", "--replicates", str(rng.randrange(3, 6)),
                          "--seed", str(rng.randrange(10**6)))))
    rng.shuffle(light)
    heavy = [discrepancy(classes[i % 2], process, 100_000) for i, process in enumerate(processes)]
    heavy.insert(0, discrepancy(rng.choice(classes), "iid", 1_000_000))
    heavy.insert(2, Job(("gc-curve", "--class", rng.choice(classes), "--process", "rotation",
                         "--m-grid", "100,1000,10000,100000", "--replicates", "3",
                         "--seed", str(rng.randrange(10**6)))))
    heavy.insert(4, Job(("bound-check", "--class", "thresholds(16)", "--process", "iid",
                         "--gamma", "1/10", "--m", "10000", "--replicates", "3",
                         "--seed", str(rng.randrange(10**6)))))
    plan.jobs = _interleave(light, heavy)
    return plan


PLANS = {"dim": dim_plan, "trees": trees_plan, "sampling": sampling_plan}

# Wrapped functions each workload must enter at least once in a traced run.
EXERCISED = {
    "dim": [
        "cli.main", "funclass.generate", "funclass.load_class",
        "exactset.IntervalUnion.__init__", "exactset.IntervalUnion.union_all",
        "shatter.gap_dim", "shatter.candidate_points", "shatter.shatters",
        "shatter.verify_certificate", "ergoproc.rotation_counterexample",
        "rng.SplitMix64.unit_fraction",
    ],
    "trees": [
        "cli.main", "funclass.generate", "funclass.load_class", "funclass.segment",
        "funclass.segment_partition", "exactset.IntervalUnion.__init__",
        "exactset.IntervalUnion.intersect", "exactset.IntervalUnion.union_all",
        "shatter.join", "treelab.intersection_tree_build",
        "treelab.intersection_tree_verify", "treelab.uniform_subtree",
        "treelab.ptree_witness",
    ],
    "sampling": [
        "cli.main", "funclass.generate", "shatter.gap_dim", "ergoproc.sample_path",
        "ergoproc.per_function_discrepancies", "ergoproc.discrepancy",
        "ergoproc.expectation", "ergoproc.estimate_gamma", "ergoproc.bound_check",
        "rng.SplitMix64.unit_fraction",
    ],
}
