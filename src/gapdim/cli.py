"""Command-line front end.

Subcommands wire the generators, solvers, tree machinery and simulators into
reproducible experiments.  Every report embeds the fully resolved
configuration and the library version; no timestamps are written, so
re-running a command with the same configuration yields byte-identical
output.  Exit codes: 0 success, 1 a FAIL verdict from a verifying command,
2 usage or configuration error.

Each command is declared once, in the table :data:`COMMANDS`: its handler,
its help line and its fields, required and optional (``itree`` also names
the extra required fields of each action).  A field ``name`` is both the
flag ``--name`` (``_`` written as ``-``) and the config-file key ``name``.
:func:`main` reads the command line straight from that table: each flag is
``--name value`` or ``--name=value``, its value the next token verbatim,
and ``itree`` takes its action as one positional word.  It merges the flags
with the ``--config`` file, checks the required fields and passes every
field to the handler as the string the user gave.  The handlers parse and
range-check their fields, so every bad value, and every unknown, repeated
or valueless flag, exits 2 with ``error: field 'name': ...``.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction
from typing import Callable, Dict, NamedTuple, Tuple

from . import __version__
from .exactset import (
    IntervalUnion, decimal12, dumps, format_rational, json_list, json_object, parse_integer,
    parse_rational, read_json_object,
)
from .ergoproc import (
    MAX_DEMO_POINTS,
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
    STEP,
    FunctionClass,
    InvalidResolution,
    SegmentIndexOutOfRange,
    generate,
    k_of_gamma,
    load_class,
    segment_partition,
)
from .shatter import (
    MalformedCertificate,
    ShatterCertificate,
    gap_dim,
    join,
    verify_certificate,
)
from .treelab import (
    CompleteTree,
    MissingPayload,
    PtreePreconditionViolated,
    intersection_tree_build,
    intersection_tree_verify,
    pow2_text,
    ptree_precondition,
    ptree_witness,
    subtree_guarantee,
    uniform_subtree,
)


class ConfigError(Exception):
    """Bad flag or config-file content; maps to exit code 2."""


def _rat(text: str, field: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError:
        raise ConfigError(f"field {field!r}: cannot parse rational {text!r}") from None


def _ints(cfg: dict, field: str, low=None, high=None, many=False):
    """A field's integer (comma-separated integers when `many`), each in
    [`low`, `high`]; `high` is only given together with `low`."""
    text = cfg[field]
    try:
        values = [parse_integer(x) for x in text.split(",")] if many else [parse_integer(text)]
    except ValueError:
        raise ConfigError(f"field {field!r}: cannot parse integers {text!r}") from None
    if (low is not None and min(values) < low) or (high is not None and max(values) > high):
        need = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ConfigError(f"field {field!r}: must be {need}, got {text!r}")
    return values if many else values[0]


def _load(field: str, load, path):
    """Read an input file; an unreadable file, a missing key or content of
    any wrong shape (a ValueError of the loader) is an error in `field`."""
    try:
        return load(path)
    except (OSError, ValueError, KeyError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise ConfigError(f"field {field!r}: {detail}") from None


def _resolve_class(text: str, step: bool = False) -> FunctionClass:
    """The class a class file or generator spec names; `step` rejects TABULAR."""
    F = _load("class", load_class if os.path.exists(text) else generate, text)
    if step and F.kind != STEP:
        raise ConfigError(f"field 'class': this command needs a STEP class, got {F.kind}")
    return F


def _lengths(cfg: dict, field: str, spec, many=False):
    """A field's path length (comma-separated lengths when `many`), each at
    least 1 and at most the process's ``max_length`` when it has one."""
    return _ints(cfg, field, low=1, high=spec.max_length, many=many)


def _resolve_process(text: str):
    if text == "iid":
        return IIDUniformSpec()
    if text == "rotation":
        return RotationSpec(theta=golden_rotation_angle())
    if text.startswith("rotation:"):
        theta = _rat(text.split(":", 1)[1], "process")
        try:
            return RotationSpec(theta=theta)
        except ValueError as exc:  # theta outside (0, 1)
            raise ConfigError(f"field 'process': {exc}") from None
    if not os.path.exists(text):
        raise ConfigError(f"field 'process': unknown process {text!r}")
    return _load("process", _load_markov, text)


def _load_markov(path) -> MarkovSpec:
    doc = read_json_object(path)
    if doc.get("variant") != "markov":
        raise ValueError("JSON file must describe a markov spec")
    transition = tuple(
        tuple(parse_rational(p) for p in json_list(row, "transition row"))
        for row in json_list(doc["transition"], "transition")
    )
    emissions = []
    for e in json_list(doc["emissions"], "emissions"):
        e = json_object(e, "emission")
        if e["kind"] == "point":
            emissions.append(Emission.point(parse_rational(e["at"])))
        elif e["kind"] == "uniform":
            emissions.append(
                Emission.uniform(parse_rational(e["lo"]), parse_rational(e["hi"]))
            )
        else:
            raise ValueError(f"unknown emission kind {e['kind']!r}")
    return MarkovSpec(transition=transition, emissions=tuple(emissions))


CSV_HEADER = "m,replicate,gamma_m,gamma_m_exact"  # report.csv of the sampling commands


def _emit(report: dict, cfg: dict, csv_rows=None) -> None:
    document = {
        "config": {k: str(v) for k, v in sorted(cfg.items())},
        "version": __version__,
        "report": report,
    }
    text = dumps(document) + "\n"
    out_dir = cfg.get("out")
    if out_dir:  # the files first: a bad --out prints no report
        try:
            os.makedirs(out_dir, exist_ok=True)
            with open(os.path.join(out_dir, "report.json"), "w") as fh:
                fh.write(text)
            if csv_rows is not None:
                with open(os.path.join(out_dir, "report.csv"), "w") as fh:
                    fh.write(CSV_HEADER + "\n")
                    for row in csv_rows:
                        fh.write(",".join(str(c) for c in row) + "\n")
        except OSError as exc:
            raise ConfigError(f"field 'out': {exc}") from None
    sys.stdout.write(text)


def _rational_pair(q: Fraction) -> dict:
    return {"decimal": decimal12(q), "exact": format_rational(q)}


# ---------------------------------------------------------------------------
# Subcommand handlers.  Each returns the process exit code.


def cmd_dim(cfg: dict) -> int:
    F = _resolve_class(cfg["class"])
    gamma = _rat(cfg["gamma"], "gamma")
    cap = {"cap": _ints(cfg, "cap", low=1)} if "cap" in cfg else {}
    result = gap_dim(F, gamma, **cap)
    report = {
        "dimension": result.dimension,
        "dimension_label": result.label,
        "exact": result.exact,
        "certificate": result.certificate.to_json() if result.certificate else None,
    }
    _emit(report, cfg)
    return 0


def cmd_verify(cfg: dict) -> int:
    F = _resolve_class(cfg["class"])
    gamma = _rat(cfg["gamma"], "gamma")
    cert = _load("cert", ShatterCertificate.load, cfg["cert"])
    ok = verify_certificate(F, gamma, cert)
    _emit({"verified": ok}, cfg)
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
                    for s in segment_partition(F, i, gamma)
                ],
            }
            for i in range(len(F))
        ],
    }
    _emit(report, cfg)
    return 0


def cmd_join(cfg: dict) -> int:
    F = _resolve_class(cfg["class"], step=True)
    gamma = _rat(cfg["gamma"], "gamma")
    K = k_of_gamma(gamma)
    k, k2 = _ints(cfg, "k", low=1, high=K), _ints(cfg, "kp", low=1, high=K)
    if k2 == k:
        raise ConfigError(f"field 'kp': must differ from k, got {cfg['kp']!r}")
    cells = join(F, gamma, k, k2)
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
    _emit(report, cfg)
    return 0


def cmd_ptree(cfg: dict) -> int:
    depth = _ints(cfg, "depth", low=0)
    # 2**depth is built only once the leaves and c bound it: a leaf below it
    # has at most depth bits, and c * 2**depth must not exceed the leaf count
    leaves = sorted(_ints(cfg, "leaves", many=True))
    if leaves[0] < 0 or leaves[-1] >> depth:
        top = pow2_text(depth, plus=-1)
        raise ConfigError(f"field 'leaves': must be in [0, {top}], got {cfg['leaves']!r}")
    c = _rat(cfg["c"], "c")
    # for c > 0, c * 2**depth >= 4 once depth passes the bit length of 4 * den(c)
    big = depth > (4 * c.denominator).bit_length()
    if not (0 < c <= 1 and (big or c * (1 << depth) >= 4)):
        raise ConfigError(f"field 'c': must be in [4/2^depth, 1], got {cfg['c']!r}")
    try:
        ptree_precondition(len(set(leaves)), c, depth)
    except PtreePreconditionViolated as exc:  # fewer leaves than c*2^depth
        raise ConfigError(f"field 'leaves': {exc}") from None
    # node numbers below 2**depth print iff 2**depth <= 10**limit (limit 0: none),
    # which holds up to depth 3 * limit, where 2**depth <= 8**limit
    limit = sys.get_int_max_str_digits()
    if limit and depth > 3 * limit and 1 << depth > 10**limit:
        raise ConfigError(
            f"field 'depth': node numbers below 2^{depth} exceed the {limit}-digit"
            " limit on printed integers"
        )
    offset = 1 << depth
    witness = ptree_witness(CompleteTree(depth), [offset + i for i in leaves], c)
    report = {
        "level": witness.level,
        "u": witness.u,
        "nodes": sorted(witness.nodes),
        "size": len(witness.nodes),
    }
    _emit(report, cfg)
    return 0


def cmd_subtree(cfg: dict) -> int:
    tree = _load("tree", CompleteTree.load, cfg["tree"])
    top = [max(label) for t, label in tree.labels.items() if not tree.is_leaf(t)]
    K = _ints(cfg, "K", low=max([1, *top]))
    try:
        emb = uniform_subtree(tree, K)
    except ValueError as exc:  # depth 0, an unlabeled node or a label below 1
        raise ConfigError(f"field 'tree': {exc}") from None
    R, bound = subtree_guarantee(tree.depth, K)
    report = {
        "depth": emb.depth,
        "label": list(emb.label),
        "levels": list(emb.levels),
        "nodes": list(emb.nodes),
        "guarantee_stages": R,
        "guarantee_depth": format_rational(bound),
    }
    _emit(report, cfg)
    return 0


def cmd_itree(cfg: dict) -> int:
    actions = COMMANDS["itree"].actions
    if cfg["action"] not in actions:
        raise ConfigError(f"field 'action': must be {' or '.join(actions)}, got {cfg['action']!r}")
    F = _resolve_class(cfg["class"], step=True)
    gamma = _rat(cfg["gamma"], "gamma")
    if cfg["action"] == "build":
        depth = _ints(cfg, "depth", low=1)
        budget = {"visit_cap": _ints(cfg, "budget", low=1)} if "budget" in cfg else {}
        built = intersection_tree_build(F, gamma, depth, **budget)
        report = {"status": "FAILURE"} if built is None else {
            "status": "ok",
            "tree": built.tree.to_json(),
            "functions": list(built.functions),
        }
        _emit(report, cfg)
        return 0
    tree = _load("tree", CompleteTree.load, cfg["tree"])
    functions = _ints(cfg, "functions", many=True)
    if len(functions) != tree.depth or not all(0 <= i < len(F) for i in functions):
        raise ConfigError(
            f"field 'functions': need {tree.depth} function indices in [0, {len(F)}),"
            f" got {cfg['functions']!r}"
        )
    try:
        ok = intersection_tree_verify(tree, F, gamma, functions)
    except (MissingPayload, SegmentIndexOutOfRange) as exc:
        raise ConfigError(f"field 'tree': {exc}") from None
    _emit({"verified": ok}, cfg)
    return 0 if ok else 1


def cmd_discrepancy(cfg: dict) -> int:
    F = _resolve_class(cfg["class"], step=True)
    spec = _resolve_process(cfg["process"])
    m = _lengths(cfg, "m", spec)
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
    _emit(report, cfg, rows)
    return 0


def cmd_gc_curve(cfg: dict) -> int:
    F = _resolve_class(cfg["class"], step=True)
    spec = _resolve_process(cfg["process"])
    grid = _lengths(cfg, "m_grid", spec, many=True)
    if len(set(grid)) != len(grid):
        raise ConfigError(f"field 'm_grid': lengths must be distinct, got {cfg['m_grid']!r}")
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
    _emit(report, cfg, rows)
    return 0


def cmd_bound_check(cfg: dict) -> int:
    F = _resolve_class(cfg["class"], step=True)
    spec = _resolve_process(cfg["process"])
    res = bound_check(
        F,
        spec,
        _rat(cfg["gamma"], "gamma"),
        _lengths(cfg, "m", spec),
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
    _emit(report, cfg)
    return 0 if res.passed else 1


def cmd_demo_rotation(cfg: dict) -> int:
    theta = _rat(cfg["theta"], "theta") if "theta" in cfg else None
    m, seed = _ints(cfg, "m", low=1, high=MAX_DEMO_POINTS), _ints(cfg, "seed")
    try:
        rep = rotation_counterexample(m, seed, theta)
    except ValueError as exc:  # theta outside (0, 1), or an orbit that closes
        raise ConfigError(f"field 'theta': {exc}") from None
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
    _emit(report, cfg)
    return 0


# ---------------------------------------------------------------------------
# The command table: each command is declared here and nowhere else.


class Command(NamedTuple):
    """A subcommand's handler, help line and fields.

    Field `name` is the flag ``--name`` (underscores written as dashes) and
    the config key `name`; `action` is the positional word after the
    command, and `actions` names each action's extra required fields.
    """

    run: Callable[[dict], int]
    help: str
    required: Tuple[str, ...]
    optional: Tuple[str, ...] = ()
    actions: Dict[str, Tuple[str, ...]] = {}

    @property
    def fields(self) -> Tuple[str, ...]:
        extra = tuple(f for fields in self.actions.values() for f in fields)
        return self.required + self.optional + extra + ("out",)


COMMANDS = {
    "dim": Command(cmd_dim, "compute the gap dimension of a class",
                   ("class", "gamma"), ("cap",)),
    "verify": Command(cmd_verify, "re-check a shattering certificate",
                      ("class", "cert", "gamma")),
    "segments": Command(cmd_segments, "band preimages of every function", ("class", "gamma")),
    "join": Command(cmd_join, "join of one segment pair across a class",
                    ("class", "gamma", "k", "kp")),
    "ptree": Command(cmd_ptree, "ancestral pigeonhole witness", ("depth", "leaves", "c")),
    "subtree": Command(cmd_subtree, "uniform-label embedded subtree", ("tree", "K")),
    "itree": Command(cmd_itree, "build or verify an intersection tree",
                     ("action", "class", "gamma"), ("budget",),
                     {"build": ("depth",), "verify": ("tree", "functions")}),
    "discrepancy": Command(cmd_discrepancy, "exact discrepancy of one sampled path",
                           ("class", "process", "m", "seed")),
    "gc-curve": Command(cmd_gc_curve, "discrepancy decay over an m grid",
                        ("class", "process", "m_grid", "replicates", "seed")),
    "bound-check": Command(cmd_bound_check, "dimension-vs-discrepancy bound verdict",
                           ("class", "process", "gamma", "m", "replicates", "seed")),
    "demo-rotation": Command(cmd_demo_rotation, "rotation counterexample demo",
                             ("m", "seed"), ("theta",)),
}

_HELP = {
    "class": "generator spec or class file",
    "cap": "largest set size a search tries (default 20)",
    "leaves": "comma-separated leaf offsets, 0-based",
    "tree": "tree JSON file",
    "budget": "tree-search visit budget (default 1000000)",
    "functions": "comma-separated per-level function indices",
    "process": "iid | rotation | rotation:p/q | markov JSON file",
    "m_grid": "comma-separated path lengths",
    "out": "directory for report files",
    "config": "JSON config file; flags must not repeat its keys",
}


def _help(name: str, command: Command) -> str:
    """A command's usage line, help line and one line per flag."""
    rows = [("-h, --help", "show this help and exit")]
    for f in command.fields + ("config",):
        flag = "action" if f == "action" else f"--{f.replace('_', '-')} {f.upper()}"
        rows.append((flag, " | ".join(command.actions) if f == "action" else _HELP.get(f, "")))
    action = "action " if command.actions else ""
    lines = [f"  {flag:<25}{text}".rstrip() for flag, text in rows]
    return "\n".join([f"usage: gapdim {name} {action}[--name value ...]", "", command.help, "",
                      "flags:", *lines]) + "\n"


_OVERVIEW = "\n".join([
    "usage: gapdim <command> [--name value ...]",
    "",
    "Exact gap-dimension certificates and ergodic discrepancy experiments",
    "",
    "commands:",
    *(f"  {name:<15}{command.help}" for name, command in COMMANDS.items()),
    "",
    "gapdim <command> --help lists the fields of a command.",
]) + "\n"


def _config(name: str, command: Command, args) -> dict:
    """The fields a command line gives, merged with its --config file, as
    ``{field: text}``; ``-h`` or ``--help`` in place of a flag prints the
    command's help.

    Flags follow the grammar of the module docstring.  Config keys must be
    fields of the command and their values strings or integers.  A field
    given twice, as a repeated flag or both as a flag and in the config
    file, is an error, not an override.
    """
    flags = {"--" + f.replace("_", "-"): f for f in command.fields + ("config",) if f != "action"}
    given = {}
    tokens = iter(args)
    for token in tokens:
        if token in ("-h", "--help"):
            sys.stdout.write(_help(name, command))
            raise SystemExit(0)
        flag, eq, value = token.partition("=")
        if token.startswith("--") and len(token) > 2:
            field = flags.get(flag)
            if field is None:
                raise ConfigError(
                    f"field {flag[2:].replace('-', '_')!r}: not a field of this command"
                )
            if not eq:
                value = next(tokens, None)
                if value is None:
                    raise ConfigError(f"field {field!r}: expected a value")
        elif command.actions and "action" not in given:
            field, value = "action", token
        elif given:  # a stray word after the value of the field given last
            last = next(reversed(given))
            raise ConfigError(
                f"field {last!r}: takes one value, got {given[last]!r} and then {token!r}"
            )
        else:
            raise ConfigError(f"field 'action': not a field of this command, got {token!r}")
        if field in given:
            raise ConfigError(f"field {field!r}: given more than once")
        given[field] = value
    if "config" not in given:
        return given
    merged = {}
    for key, value in _load("config", read_json_object, given.pop("config")).items():
        if key not in command.fields:
            raise ConfigError(f"field {key!r}: not a field of this command")
        if type(value) not in (str, int):
            raise ConfigError(
                f"field {key!r}: must be a string or an integer, got {json.dumps(value)}"
            )
        merged[key] = str(value)
    for key in given:
        if key in merged:
            raise ConfigError(
                f"field {key!r}: given both on the command line and in the config file"
            )
    return {**merged, **given}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = COMMANDS.get(argv[0]) if argv else None
    if command is None:  # only the overview: every command and its help line
        if argv[:1] in (["-h"], ["--help"]):
            sys.stdout.write(_OVERVIEW)
            raise SystemExit(0)
        problem = f"unknown command {argv[0]!r}" if argv else "no command given"
        usage = _OVERVIEW.partition("\n")[0]
        sys.stderr.write(f"{usage}\nerror: {problem}; see gapdim --help\n")
        raise SystemExit(2)
    try:
        cfg = _config(argv[0], command, argv[1:])
        for f in command.required + command.actions.get(cfg.get("action"), ()):
            if f not in cfg:
                raise ConfigError(f"field {f!r}: required but missing")
        return command.run(cfg)
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
