"""Command-line front end.

Subcommands wire the generators, solvers, tree machinery and simulators into
reproducible experiments.  Every report embeds the fully resolved
configuration and the library version; no timestamps are written, so
re-running a command with the same configuration yields byte-identical
output.  Exit codes: 0 success, 1 a FAIL verdict from a verifying command,
2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import __version__
from .exactset import (
    IntervalUnion, decimal12, format_rational, parse_rational, read_json_object
)
from .ergoproc import (
    Emission,
    IIDUniformSpec,
    MarkovSpec,
    RotationSpec,
    bound_check,
    estimate_gamma,
    golden_rotation_angle,
    per_function_discrepancies,
    rotation_counterexample,
    sample_path,
)
from .funclass import (
    FunctionClass,
    InvalidResolution,
    generate,
    k_of_gamma,
    load_class,
    segment,
    segment_partition,
)
from .shatter import (
    NAIVE,
    PRUNED,
    MalformedCertificate,
    ShatterCertificate,
    gap_dim,
    join,
    verify_certificate,
)
from .treelab import (
    CompleteTree,
    intersection_tree_build,
    intersection_tree_verify,
    ptree_witness,
    subtree_guarantee,
    uniform_subtree,
)


class ConfigError(Exception):
    """Bad flag or config-file content; maps to exit code 2."""


def _rat(text: str, field: str) -> Fraction:
    try:
        return parse_rational(str(text))
    except ValueError:
        raise ConfigError(f"field {field!r}: cannot parse rational {text!r}") from None


def _ints(cfg: dict, field: str, low=None, many=False):
    """A field's integer (comma-separated integers when `many`), each >= `low`."""
    text = str(cfg[field])
    try:
        values = [int(x) for x in text.split(",")] if many else [int(text)]
    except ValueError:
        raise ConfigError(f"field {field!r}: cannot parse integers {text!r}") from None
    if low is not None and min(values) < low:
        raise ConfigError(f"field {field!r}: must be >= {low}, got {text!r}")
    return values if many else values[0]


def _load(field: str, load, path):
    """Read an input file; content of any wrong shape is an error in `field`.

    The loaders index untyped JSON, so a list where an object belongs, say,
    surfaces as a TypeError or AttributeError rather than a ValueError.
    """
    try:
        return load(path)
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise ConfigError(f"field {field!r}: {detail}") from None


def _load_config(args: argparse.Namespace) -> dict:
    """Merge --config JSON with explicit flags; overlaps are errors."""
    merged = {}
    if getattr(args, "config", None):
        merged = _load("config", read_json_object, args.config)
    flags = dict(vars(args))
    if "klass" in flags:
        flags["class"] = flags.pop("klass")
    for key, value in flags.items():
        if key in ("command", "config", "func") or value is None:
            continue
        if key in merged:
            raise ConfigError(
                f"field {key!r}: given both on the command line and in the config file"
            )
        merged[key] = value
    return merged


def _resolve_class(text: str) -> FunctionClass:
    if os.path.exists(text):
        return _load("class", load_class, text)
    try:
        return generate(text)
    except ValueError as exc:
        raise ConfigError(f"field 'class': {exc}") from None


def _resolve_process(text: str):
    if text == "iid":
        return IIDUniformSpec()
    if text == "rotation":
        return RotationSpec(theta=golden_rotation_angle())
    if text.startswith("rotation:"):
        return RotationSpec(theta=_rat(text.split(":", 1)[1], "process"))
    if not os.path.exists(text):
        raise ConfigError(f"field 'process': unknown process {text!r}")
    return _load("process", _load_markov, text)


def _load_markov(path) -> MarkovSpec:
    doc = read_json_object(path)
    if doc.get("variant") != "markov":
        raise ValueError("JSON file must describe a markov spec")
    transition = tuple(
        tuple(parse_rational(p) for p in row) for row in doc["transition"]
    )
    emissions = []
    for e in doc["emissions"]:
        if e["kind"] == "point":
            emissions.append(Emission.point(parse_rational(e["at"])))
        else:
            emissions.append(
                Emission.uniform(parse_rational(e["lo"]), parse_rational(e["hi"]))
            )
    return MarkovSpec(transition=transition, emissions=tuple(emissions))


def _emit(report: dict, cfg: dict, out_dir, csv_rows=None, csv_header=None) -> None:
    document = {
        "config": {k: str(v) for k, v in sorted(cfg.items())},
        "version": __version__,
        "report": report,
    }
    text = json.dumps(document, indent=2, sort_keys=True) + "\n"
    sys.stdout.write(text)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "report.json"), "w") as fh:
            fh.write(text)
        if csv_rows is not None:
            with open(os.path.join(out_dir, "report.csv"), "w") as fh:
                fh.write(csv_header + "\n")
                for row in csv_rows:
                    fh.write(",".join(str(c) for c in row) + "\n")


def _rational_pair(q: Fraction) -> dict:
    return {"decimal": decimal12(q), "exact": format_rational(q)}


# ---------------------------------------------------------------------------
# Subcommand handlers.  Each returns the process exit code.


def cmd_dim(cfg: dict) -> int:
    F = _resolve_class(cfg["class"])
    gamma = _rat(cfg["gamma"], "gamma")
    cap = _ints(cfg, "cap", low=1) if "cap" in cfg else 20
    result = gap_dim(F, gamma, cap=cap, mode=cfg.get("mode", PRUNED))
    report = {
        "dimension": result.dimension,
        "dimension_label": result.label,
        "exact": result.exact,
        "certificate": result.certificate.to_json() if result.certificate else None,
    }
    _emit(report, cfg, cfg.get("out"))
    return 0


def cmd_verify(cfg: dict) -> int:
    F = _resolve_class(cfg["class"])
    gamma = _rat(cfg["gamma"], "gamma")
    cert = _load("cert", ShatterCertificate.load, cfg["cert"])
    ok = verify_certificate(F, gamma, cert)
    _emit({"verified": ok}, cfg, cfg.get("out"))
    return 0 if ok else 1


def cmd_segments(cfg: dict) -> int:
    F = _resolve_class(cfg["class"])
    gamma = _rat(cfg["gamma"], "gamma")
    report = {
        "K": k_of_gamma(gamma),
        "functions": [
            {
                "index": i,
                "segments": [
                    s.to_text() if isinstance(s, IntervalUnion)
                    else [format_rational(p) for p in s]
                    for s in segment_partition(f, gamma)
                ],
            }
            for i, f in enumerate(F.functions)
        ],
    }
    _emit(report, cfg, cfg.get("out"))
    return 0


def cmd_join(cfg: dict) -> int:
    F = _resolve_class(cfg["class"])
    gamma = _rat(cfg["gamma"], "gamma")
    k, k2 = _ints(cfg, "k"), _ints(cfg, "kp")
    families = [(segment(f, gamma, k), segment(f, gamma, k2)) for f in F.functions]
    cells = join(families)
    report = {
        "bands": [k, k2],
        "cell_count": len(cells),
        "full": len(cells) == 1 << len(F),
        "cells": [
            {"signature": list(c.signature), "set": c.cell.to_text(),
             "measure": _rational_pair(c.cell.measure)}
            for c in cells
        ],
    }
    _emit(report, cfg, cfg.get("out"))
    return 0


def cmd_ptree(cfg: dict) -> int:
    depth = _ints(cfg, "depth")
    tree = CompleteTree(depth)
    leaves = sorted(_ints(cfg, "leaves", many=True))
    offset = 1 << depth
    S = [offset + i for i in leaves]
    witness = ptree_witness(tree, S, _rat(cfg["c"], "c"))
    report = {
        "level": witness.level,
        "u": witness.u,
        "nodes": sorted(witness.nodes),
        "size": len(witness.nodes),
    }
    _emit(report, cfg, cfg.get("out"))
    return 0


def cmd_subtree(cfg: dict) -> int:
    tree = _load("tree", CompleteTree.load, cfg["tree"])
    K = _ints(cfg, "K")
    emb = uniform_subtree(tree, K)
    R, bound = subtree_guarantee(tree.depth, K)
    report = {
        "depth": emb.depth,
        "label": list(emb.label),
        "levels": list(emb.levels),
        "nodes": list(emb.nodes),
        "guarantee_stages": R,
        "guarantee_depth": format_rational(bound),
    }
    _emit(report, cfg, cfg.get("out"))
    return 0


def cmd_itree(cfg: dict) -> int:
    F = _resolve_class(cfg["class"])
    gamma = _rat(cfg["gamma"], "gamma")
    if cfg["action"] == "build":
        built = intersection_tree_build(
            F, gamma, _ints(cfg, "depth"),
            visit_cap=_ints(cfg, "budget", low=1) if "budget" in cfg else 1_000_000,
        )
        if built is None:
            _emit({"status": "FAILURE"}, cfg, cfg.get("out"))
            return 0
        report = {
            "status": "ok",
            "tree": built.tree.to_json(),
            "functions": list(built.functions),
        }
        _emit(report, cfg, cfg.get("out"))
        return 0
    tree = _load("tree", CompleteTree.load, cfg["tree"])
    functions = _ints(cfg, "functions", many=True)
    ok = intersection_tree_verify(tree, F, gamma, functions)
    _emit({"verified": ok}, cfg, cfg.get("out"))
    return 0 if ok else 1


def cmd_discrepancy(cfg: dict) -> int:
    F = _resolve_class(cfg["class"])
    spec = _resolve_process(cfg["process"])
    m = _ints(cfg, "m", low=1)
    seed = _ints(cfg, "seed")
    path = sample_path(spec, m, seed)
    per = per_function_discrepancies(F, path)
    gamma_m = max(per)
    report = {
        "m": m,
        "gamma_m": _rational_pair(gamma_m),
        "per_function": [_rational_pair(d) for d in per],
    }
    rows = [
        (m, 0, decimal12(gamma_m), format_rational(gamma_m)),
    ]
    _emit(report, cfg, cfg.get("out"), rows, "m,replicate,gamma_m,gamma_m_exact")
    return 0


def cmd_gc_curve(cfg: dict) -> int:
    F = _resolve_class(cfg["class"])
    spec = _resolve_process(cfg["process"])
    grid = _ints(cfg, "m_grid", low=1, many=True)
    replicates = _ints(cfg, "replicates", low=1)
    rep = estimate_gamma(F, spec, grid, replicates, _ints(cfg, "seed"))
    report = {
        "estimate": _rational_pair(rep.estimate),
        "per_m": {
            str(m): {name: _rational_pair(v) for name, v in stats.items()}
            for m, stats in rep.summary.items()
        },
        "rows": [
            {"m": m, "replicate": r, "gamma_m": _rational_pair(g)}
            for (m, r, g) in rep.rows
        ],
    }
    rows = [
        (m, r, decimal12(g), format_rational(g)) for (m, r, g) in rep.rows
    ]
    _emit(report, cfg, cfg.get("out"), rows, "m,replicate,gamma_m,gamma_m_exact")
    return 0


def cmd_bound_check(cfg: dict) -> int:
    F = _resolve_class(cfg["class"])
    spec = _resolve_process(cfg["process"])
    res = bound_check(
        F,
        spec,
        _rat(cfg["gamma"], "gamma"),
        _ints(cfg, "m", low=1),
        _ints(cfg, "replicates", low=1),
        _ints(cfg, "seed"),
    )
    report = {
        "dimension": res.dim.dimension,
        "dimension_label": res.dim.label,
        "estimate": _rational_pair(res.estimate),
        "bound": _rational_pair(res.bound),
        "margin": _rational_pair(res.margin),
        "verdict": "PASS" if res.passed else "FAIL",
    }
    _emit(report, cfg, cfg.get("out"))
    return 0 if res.passed else 1


def cmd_demo_rotation(cfg: dict) -> int:
    theta = _rat(cfg["theta"], "theta") if "theta" in cfg else None
    rep = rotation_counterexample(_ints(cfg, "m", low=1), _ints(cfg, "seed"), theta)
    report = {
        "m": rep.m,
        "theta": format_rational(rep.theta),
        "x0": format_rational(rep.x0),
        "data_dependent_family": {
            "note": (
                "finite truncation of the sampled start's orbit; the family "
                "is data dependent by construction"
            ),
            "gamma_m": _rational_pair(rep.data_dependent_gamma),
        },
        "fixed_family": {
            "base_points": [format_rational(b) for b in rep.base_points],
            "gamma_m": _rational_pair(rep.fixed_family_gamma),
        },
        "combined_dimension": {
            "resolution": format_rational(rep.gamma_resolution),
            "dimension": rep.combined_dim.dimension,
        },
    }
    _emit(report, cfg, cfg.get("out"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gapdim",
        description="Exact gap-dimension certificates and ergodic discrepancy experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; flags must not repeat its keys")
        p.add_argument("--out", help="directory for report files")

    p = sub.add_parser("dim", help="compute the gap dimension of a class")
    p.add_argument("--class", dest="klass", help="generator spec or class file")
    p.add_argument("--gamma")
    p.add_argument("--mode", choices=[NAIVE, PRUNED])
    p.add_argument("--cap", type=int)
    common(p)
    p.set_defaults(func=cmd_dim)

    p = sub.add_parser("verify", help="re-check a shattering certificate")
    p.add_argument("--class", dest="klass")
    p.add_argument("--cert")
    p.add_argument("--gamma")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("segments", help="band preimages of every function")
    p.add_argument("--class", dest="klass")
    p.add_argument("--gamma")
    common(p)
    p.set_defaults(func=cmd_segments)

    p = sub.add_parser("join", help="join of one segment pair across a class")
    p.add_argument("--class", dest="klass")
    p.add_argument("--gamma")
    p.add_argument("--k", type=int)
    p.add_argument("--kp", type=int)
    common(p)
    p.set_defaults(func=cmd_join)

    p = sub.add_parser("ptree", help="ancestral pigeonhole witness")
    p.add_argument("--depth", type=int)
    p.add_argument("--leaves", help="comma-separated leaf offsets, 0-based")
    p.add_argument("--c")
    common(p)
    p.set_defaults(func=cmd_ptree)

    p = sub.add_parser("subtree", help="uniform-label embedded subtree")
    p.add_argument("--tree", help="tree JSON file")
    p.add_argument("--K", type=int)
    common(p)
    p.set_defaults(func=cmd_subtree)

    p = sub.add_parser("itree", help="build or verify an intersection tree")
    p.add_argument("action", choices=["build", "verify"])
    p.add_argument("--class", dest="klass")
    p.add_argument("--gamma")
    p.add_argument("--depth", type=int)
    p.add_argument("--budget", type=int)
    p.add_argument("--tree")
    p.add_argument("--functions", help="comma-separated per-level function indices")
    common(p)
    p.set_defaults(func=cmd_itree)

    p = sub.add_parser("discrepancy", help="exact discrepancy of one sampled path")
    p.add_argument("--class", dest="klass")
    p.add_argument("--process", help="iid | rotation | rotation:p/q | markov JSON file")
    p.add_argument("--m", type=int)
    p.add_argument("--seed", type=int)
    common(p)
    p.set_defaults(func=cmd_discrepancy)

    p = sub.add_parser("gc-curve", help="discrepancy decay over an m grid")
    p.add_argument("--class", dest="klass")
    p.add_argument("--process")
    p.add_argument("--m-grid", dest="m_grid")
    p.add_argument("--replicates", type=int)
    p.add_argument("--seed", type=int)
    common(p)
    p.set_defaults(func=cmd_gc_curve)

    p = sub.add_parser("bound-check", help="dimension-vs-discrepancy bound verdict")
    p.add_argument("--class", dest="klass")
    p.add_argument("--process")
    p.add_argument("--gamma")
    p.add_argument("--m", type=int)
    p.add_argument("--replicates", type=int)
    p.add_argument("--seed", type=int)
    common(p)
    p.set_defaults(func=cmd_bound_check)

    p = sub.add_parser("demo-rotation", help="rotation counterexample demo")
    p.add_argument("--m", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--theta")
    common(p)
    p.set_defaults(func=cmd_demo_rotation)

    return parser


_REQUIRED = {
    "dim": ["class", "gamma"],
    "verify": ["class", "cert", "gamma"],
    "segments": ["class", "gamma"],
    "join": ["class", "gamma", "k", "kp"],
    "ptree": ["depth", "leaves", "c"],
    "subtree": ["tree", "K"],
    "itree": ["class", "gamma"],
    "discrepancy": ["class", "process", "m", "seed"],
    "gc-curve": ["class", "process", "m_grid", "replicates", "seed"],
    "bound-check": ["class", "process", "gamma", "m", "replicates", "seed"],
    "demo-rotation": ["m", "seed"],
}
_ITREE_REQUIRED = {"build": ["depth"], "verify": ["tree", "functions"]}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args)
        required = _REQUIRED[args.command]
        if args.command == "itree":
            required = required + _ITREE_REQUIRED[cfg["action"]]
        for field in required:
            if field not in cfg or cfg[field] is None:
                raise ConfigError(f"field {field!r}: required but missing")
        return args.func(cfg)
    except InvalidResolution as exc:
        message = f"field 'gamma': {exc}"
    except MalformedCertificate as exc:
        message = f"field 'cert': {exc}"
    except (ConfigError, ValueError, OSError, KeyError) as exc:
        message = str(exc)
    print(f"error: {message}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
