"""Per-layer tracing from outside the program.

The layers are the modules of ``gapdim``.  :class:`Tracer` replaces each
public function named in :data:`TARGETS` with a wrapper that records a span
(name, start, end, parent span, job id), an exact call count and the self
time, i.e. the span's duration minus the part covered by child spans.
``gapdim.cli`` and other modules bind names with ``from .x import f``, so a
wrapper is installed in the defining module *and* in every ``gapdim``
namespace that holds the same object.  A target that cannot be found raises
:class:`TracerError` at install time: a renamed function must fail loudly
instead of silently reading zero.

Self times are accumulated online, so counts and self times are exact for
every call; the span list itself is capped (:data:`SPAN_CAP`) to keep the
traced run's memory small, and the number of spans beyond the cap is
reported with the spans.
"""

from __future__ import annotations

import importlib
import json
import sys
from array import array
from time import perf_counter_ns

# module -> wrapped functions; "Class.method" names a method.
TARGETS = {
    "cli": ["main"],
    "funclass": ["generate", "load_class", "segment", "segment_partition"],
    "exactset": [
        "IntervalUnion.__init__",
        "IntervalUnion.intersect",
        "IntervalUnion.union_all",
    ],
    "shatter": [
        "gap_dim",
        "candidate_points",
        "shatters",
        "verify_certificate",
        "join",
        "join_shatter",
    ],
    "treelab": [
        "intersection_tree_build",
        "intersection_tree_verify",
        "uniform_subtree",
        "ptree_witness",
    ],
    "ergoproc": [
        "sample_path",
        "per_function_discrepancies",
        "discrepancy",
        "expectation",
        "estimate_gamma",
        "bound_check",
        "rotation_counterexample",
    ],
    "rng": ["SplitMix64.unit_fraction"],
}

PACKAGE = "gapdim"
SPAN_CAP = 200_000


class TracerError(RuntimeError):
    """A function to be traced is missing from the program."""


def target_names():
    return [f"{mod}.{name}" for mod, names in TARGETS.items() for name in names]


class Tracer:
    def __init__(self):
        self.names = target_names()
        self.on = False
        self.job = -1
        n = len(self.names)
        self.calls = [0] * n
        self.self_ns = [0] * n
        # Work counters measured where the work happens.
        self.points = 0  # shatter.candidate_points: sum of returned lengths
        self.hits = 0  # shatter.shatters: certificates returned
        self.cells = 0  # shatter.join: cells returned
        self.trees_ok = 0  # treelab.intersection_tree_build: trees returned
        self.sampled = 0  # ergoproc.sample_path: sum of m
        self.longest = {}  # (process, seed) -> largest m sampled
        self._stack = []  # per open span: [child_ns, span_id]
        self._next_id = 0
        self.span_cols = {c: array("q") for c in ("id", "name", "start", "end", "parent", "job")}
        self.spans_dropped = 0
        self._patches = []  # (owner, attribute, original value)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        posts = {
            "shatter.candidate_points": self._post_points,
            "shatter.shatters": self._post_shatters,
            "shatter.join": self._post_join,
            "treelab.intersection_tree_build": self._post_build,
            "ergoproc.sample_path": self._post_sample,
        }
        namespaces = [
            m for key, m in sorted(sys.modules.items())
            if key == PACKAGE or key.startswith(PACKAGE + ".")
        ]
        for fid, full in enumerate(self.names):
            mod_name, _, attr = full.partition(".")
            module = importlib.import_module(f"{PACKAGE}.{mod_name}")
            post = posts.get(full)
            if "." in attr:
                self._install_method(module, attr, fid, post)
            else:
                self._install_function(module, attr, fid, post, namespaces)

    def _install_function(self, module, attr, fid, post, namespaces) -> None:
        original = module.__dict__.get(attr)
        if not callable(original):
            raise TracerError(f"{module.__name__}.{attr} is not a function")
        wrapper = self._wrap(fid, original, post)
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    self._patches.append((ns, key, value))
                    setattr(ns, key, wrapper)

    def _install_method(self, module, attr, fid, post) -> None:
        cls_name, _, meth = attr.partition(".")
        cls = module.__dict__.get(cls_name)
        if not isinstance(cls, type) or meth not in cls.__dict__:
            raise TracerError(f"{module.__name__}.{attr} is not a method")
        raw = cls.__dict__[meth]
        if isinstance(raw, classmethod):
            wrapper = classmethod(self._wrap(fid, raw.__func__, post))
        else:
            wrapper = self._wrap(fid, raw, post)
        # Aliases such as IntervalUnion.__and__ = intersect share the object.
        for key, value in list(cls.__dict__.items()):
            if value is raw:
                self._patches.append((cls, key, value))
                setattr(cls, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches.clear()

    def _wrap(self, fid, func, post):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.on:
                return func(*args, **kwargs)
            return tracer._call(fid, func, post, args, kwargs)

        traced.__wrapped__ = func
        return traced

    def _call(self, fid, func, post, args, kwargs):
        stack = self._stack
        span_id = self._next_id
        self._next_id += 1
        parent = stack[-1][1] if stack else -1
        frame = [0, span_id]
        stack.append(frame)
        start = perf_counter_ns()
        try:
            result = func(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            stack.pop()
            duration = end - start
            self.calls[fid] += 1
            self.self_ns[fid] += duration - frame[0]
            if stack:
                stack[-1][0] += duration
            self._record(span_id, fid, start, end, parent)
        if post is not None:
            post(result)
        return result

    def _record(self, span_id, fid, start, end, parent) -> None:
        cols = self.span_cols
        if len(cols["id"]) >= SPAN_CAP:
            self.spans_dropped += 1
            return
        cols["id"].append(span_id)
        cols["name"].append(fid)
        cols["start"].append(start)
        cols["end"].append(end)
        cols["parent"].append(parent)
        cols["job"].append(self.job)

    # -- work counters ----------------------------------------------------

    def _post_points(self, result) -> None:
        self.points += len(result)

    def _post_shatters(self, result) -> None:
        self.hits += result is not None

    def _post_join(self, result) -> None:
        self.cells += len(result)

    def _post_build(self, result) -> None:
        self.trees_ok += result is not None

    def _post_sample(self, path) -> None:
        m = len(path.values)
        self.sampled += m
        key = (path.spec, path.seed)
        self.longest[key] = max(self.longest.get(key, 0), m)

    # -- results ----------------------------------------------------------

    def count(self, full: str) -> int:
        return self.calls[self.names.index(full)]

    def unexercised(self, required) -> list:
        return [name for name in required if self.count(name) == 0]

    def metrics(self, traced_job_s: float) -> dict:
        """Per-layer metrics: calls, self time, work counters, self shares."""
        out = {}
        module_ns = {mod: 0 for mod in TARGETS}
        for fid, full in enumerate(self.names):
            out[f"{full}.calls"] = (self.calls[fid], "count")
            out[f"{full}.self_s"] = (self.self_ns[fid] / 1e9, "s")
            module_ns[full.partition(".")[0]] += self.self_ns[fid]

        def ratio(num, den):
            return num / den if den else 0.0

        out["shatter.candidate_points.points"] = (self.points, "count")
        out["shatter.shatters.hit_ratio"] = (
            ratio(self.hits, self.count("shatter.shatters")), "ratio")
        out["shatter.join.cells"] = (self.cells, "count")
        out["treelab.intersection_tree_build.ok_ratio"] = (
            ratio(self.trees_ok, self.count("treelab.intersection_tree_build")), "ratio")
        out["ergoproc.sample_path.points"] = (self.sampled, "count")
        out["ergoproc.sample_path.reuse_ratio"] = (
            ratio(sum(self.longest.values()), self.sampled), "ratio")
        for mod, ns in module_ns.items():
            out[f"{mod}.self_share"] = (ratio(ns / 1e9, traced_job_s), "ratio")
        return out

    def write_spans(self, path) -> None:
        cols = self.span_cols
        doc = {
            "names": self.names,
            "columns": list(cols),
            "spans": [list(row) for row in zip(*cols.values())],
            "dropped": self.spans_dropped,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
            fh.write("\n")
