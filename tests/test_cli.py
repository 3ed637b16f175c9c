import errno
import inspect
import io
import json
import os
import re
import shlex
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gapdim import (
    full_join_family, gap_dim, intersection_tree_build, join_shatter, parse_rational, thresholds
)
from gapdim.cli import _HELP, COMMANDS, main
from gapdim.ergoproc import (
    MAX_DEMO_POINTS, MAX_DRAWN_POINTS, IIDUniformSpec, RotationSpec, sample_path,
)
from gapdim.exactset import write_json
from gapdim.funclass import Function, class_to_json, generate, load_class, save_class
from gapdim.shatter import ShatterCertificate
from oracles import (
    oracle_constant, oracle_dumps, oracle_expectation, oracle_sample_path, oracle_value_at
)

F = Fraction


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_err(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDim:
    def test_thresholds_naive(self, capsys):
        code, out = run(capsys, "dim", "--class", "thresholds(8)", "--gamma", "1/4")
        assert code == 0
        doc = json.loads(out)
        assert doc["report"]["dimension"] == 1
        assert doc["report"]["certificate"] is not None
        assert doc["version"]

    def test_byte_identical_reruns(self, capsys):
        args = ("dim", "--class", "all_patterns(2)", "--gamma", "2/5")
        _, first = run(capsys, *args)
        _, second = run(capsys, *args)
        assert first == second

    def test_out_dir(self, capsys, tmp_path):
        out_dir = tmp_path / "r"
        code, out = run(
            capsys, "dim", "--class", "thresholds(4)", "--gamma", "1/4",
            "--out", str(out_dir),
        )
        assert code == 0
        assert (out_dir / "report.json").read_text() == out

    def test_an_out_dir_that_cannot_be_made_prints_no_report(self, capsys, tmp_path):
        regular = tmp_path / "file"
        regular.write_text("")
        out_dir = regular / "x"
        got = run_err(
            capsys, "dim", "--class", "thresholds(4)", "--gamma", "1/4", "--out", str(out_dir),
        )
        reason = f"[Errno {errno.ENOTDIR}] {os.strerror(errno.ENOTDIR)}: {str(out_dir)!r}"
        assert got == (2, "", f"error: field 'out': {reason}\n")


class TestVerify:
    def test_good_and_tampered(self, capsys, tmp_path):
        FC = full_join_family(1, 1, 3, F(1, 5))
        cert = join_shatter(FC, 1, 3, F(1, 5))
        class_file = tmp_path / "class.json"
        save_class(FC, class_file)
        cert_file = tmp_path / "cert.json"
        cert.save(cert_file)
        code, _ = run(
            capsys, "verify", "--class", str(class_file),
            "--cert", str(cert_file), "--gamma", "1/10",
        )
        assert code == 0

        tampered = ShatterCertificate(cert.points, cert.alpha + F(1, 2), cert.selector)
        tampered.save(cert_file)
        code, out = run(
            capsys, "verify", "--class", str(class_file),
            "--cert", str(cert_file), "--gamma", "1/10",
        )
        assert code == 1
        assert json.loads(out)["report"]["verified"] is False


class TestUsageErrors:
    def test_missing_required_field(self, capsys):
        code, _ = run(capsys, "dim", "--class", "thresholds(4)")
        err = capsys.readouterr()
        assert code == 2

    def test_bad_rational(self, capsys):
        code, _ = run(
            capsys, "dim", "--class", "thresholds(4)", "--gamma", "zebra"
        )
        assert code == 2

    def test_bad_generator(self, capsys):
        code, _ = run(capsys, "dim", "--class", "wat(3)", "--gamma", "1/4")
        assert code == 2

    def test_config_flag_conflict(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"gamma": "1/4"}))
        code, _ = run(
            capsys, "dim", "--class", "thresholds(4)", "--gamma", "1/4",
            "--config", str(cfg),
        )
        assert code == 2

    def test_config_file_supplies_fields(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"gamma": "1/4", "class": "thresholds(4)"}))
        code, out = run(capsys, "dim", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["report"]["dimension"] == 1


# every command and its flags, as `gapdim <command> --help` must list them
FLAGS = {
    "dim": "--class --gamma --cap",
    "verify": "--class --cert --gamma",
    "segments": "--class --gamma",
    "join": "--class --gamma --k --kp",
    "ptree": "--depth --leaves --c",
    "subtree": "--tree --K",
    "itree": "action --class --gamma --budget --depth --tree --functions",
    "discrepancy": "--class --process --m --seed",
    "gc-curve": "--class --process --m-grid --replicates --seed",
    "bound-check": "--class --process --gamma --m --replicates --seed",
    "demo-rotation": "--m --seed --theta",
}


class TestHelpAndUsage:
    def test_table_declares_every_command_and_flag(self):
        declared = {
            name: " ".join(f if f == "action" else "--" + f.replace("_", "-")
                           for f in command.fields[:-1])
            for name, command in COMMANDS.items()
        }
        assert declared == FLAGS
        assert all(command.fields[-1] == "out" for command in COMMANDS.values())

    def test_overview_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert all(re.search(rf"\n\s+{name}\s", out) for name in FLAGS), out

    @pytest.mark.parametrize("command", sorted(FLAGS))
    def test_command_help_lists_its_flags(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: gapdim {command} ")
        for flag in FLAGS[command].split() + ["--config", "--out"]:
            assert re.search(rf"\n\s+{flag}\s", out), (flag, out)

    def test_help_states_the_library_defaults(self, capsys):
        """A knob left out takes the library's own default, which its help
        line states; giving that default changes no report."""
        cap = inspect.signature(gap_dim).parameters["cap"].default
        budget = inspect.signature(intersection_tree_build).parameters["visit_cap"].default
        assert _HELP["cap"].endswith(f"(default {cap})")
        assert _HELP["budget"].endswith(f"(default {budget})")
        for argv, flag, default in (
            (("dim", "--class", "all_patterns(3)", "--gamma", "1/4"), "--cap", cap),
            (("itree", "build", "--class", "full_join_family(2,1,3,1/5)", "--gamma", "1/5",
              "--depth", "2"), "--budget", budget),
        ):
            _, out = run(capsys, *argv)
            _, given = run(capsys, *argv, flag, str(default))
            assert json.loads(out)["report"] == json.loads(given)["report"]

    @pytest.mark.parametrize("argv", [[], ["frobnicate"], ["--class", "thresholds(4)"]])
    def test_missing_or_unknown_command(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: gapdim")


class TestFlagGrammar:
    """Flags are read straight from the command table: exact names, one
    value each, taken verbatim."""

    ARGV = ("segments", "--class", "thresholds(4)", "--gamma", "1/8")

    @pytest.mark.parametrize(
        "extra,message",
        [
            (("--bogus", "1"), "field 'bogus': not a field of this command"),
            (("--gam", "1/4"), "field 'gam': not a field of this command"),
            (("--cap", "3"), "field 'cap': not a field of this command"),  # a dim field
            (("--gamma", "1/4"), "field 'gamma': given more than once"),
            (("--gamma=1/4",), "field 'gamma': given more than once"),
            (("--out",), "field 'out': expected a value"),
            (("extra",), "field 'gamma': takes one value, got '1/8' and then 'extra'"),
        ],
    )
    def test_bad_flags_name_their_field(self, extra, message):
        assert run_main(*self.ARGV, *extra) == (2, "", f"error: {message}\n")

    def test_a_repeated_flag_does_not_override(self):
        argv = ("dim", "--class", "thresholds(4)", "--gamma", "1/4", "--gamma", "zebra")
        assert run_main(*argv) == (2, "", "error: field 'gamma': given more than once\n")

    def test_stray_words(self):
        code, out, err = run_main("dim", "thresholds(4)", "--gamma", "1/4")
        assert (code, out) == (2, "")
        assert err == "error: field 'action': not a field of this command, got 'thresholds(4)'\n"
        code, out, err = run_main("itree", "build", "verify", "--class", TREE_CLASS)
        assert (code, out) == (2, "")
        assert err == "error: field 'action': takes one value, got 'build' and then 'verify'\n"
        code, out, err = run_main("itree", "build", "--action", "verify")
        assert (code, out, err) == (2, "", "error: field 'action': not a field of this command\n")

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("--class", "thresholds(4)", "--gamma", "-1/4"),
             "field 'gamma': gamma must be positive, got -1/4"),
            # the token after a flag is its value even when it looks like a flag
            (("--gamma", "--class", "thresholds(4)"),
             "field 'gamma': takes one value, got '--class' and then 'thresholds(4)'"),
            (("--class", "thresholds(4)", "--gamma", "--help"),
             "field 'gamma': cannot parse rational '--help'"),
            (("--class", "thresholds(4)", "--gamma", "--"),
             "field 'gamma': cannot parse rational '--'"),
        ],
    )
    def test_a_value_is_taken_verbatim(self, argv, message):
        assert run_main("dim", *argv) == (2, "", f"error: {message}\n")

    def test_equals_and_space_forms_agree(self, workdir):
        for argv in VALID.values():
            tokens = iter(a.format(tree=workdir / "tree.json") for a in argv)
            spaced, joined = [], []
            for a in tokens:
                pair = [a, next(tokens)] if a.startswith("--") else [a]
                spaced += pair
                joined.append("=".join(pair))
            first = run_main(*spaced)
            assert first[0] == 0, first
            assert run_main(*joined) == first, joined

    def test_an_equals_sign_in_a_value_is_kept(self):
        code, out, err = run_main("dim", "--class=thresholds(4)", "--gamma==1/4")
        assert (code, out, err) == (2, "", "error: field 'gamma': cannot parse rational '=1/4'\n")

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help_twice_prints_the_same(self, capsys, flag):
        seen = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["segments", "--class", "thresholds(4)", flag])
            seen.append((exc.value.code, capsys.readouterr()))
        assert seen[0] == seen[1]
        assert seen[0][0] == 0 and seen[0][1].out.startswith("usage: gapdim segments ")

    def test_a_run_after_errors_and_help_answers_as_the_first(self):
        first = run_main(*self.ARGV)
        assert first[0] == 0
        assert run_main(*self.ARGV, "--gam", "1")[0] == 2
        with pytest.raises(SystemExit), redirect_stdout(io.StringIO()):
            main([*self.ARGV, "--help"])
        assert run_main(*self.ARGV) == first

    @staticmethod
    def fresh_python(code):
        """The stdout of ``code`` run in a fresh interpreter on this gapdim."""
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True)
        return done.stdout

    def test_the_cli_does_not_import_argparse(self):
        code = "import sys, gapdim.cli; print(sorted({'argparse', 'gettext'} & set(sys.modules)))"
        assert self.fresh_python(code) == "[]\n"

    def test_the_cli_imports_neither_dataclasses_nor_inspect(self):
        """Only what the import adds counts, so a site hook that preloads
        either module does not fail this."""
        code = (
            "import sys; before = set(sys.modules); import gapdim.cli; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
        )
        assert self.fresh_python(code) == "[]\n"


class TestInputErrors:
    """Bad input exits 2 with a message; exit 1 is reserved for FAIL verdicts."""

    def test_non_positive_gamma(self, capsys, tmp_path):
        _, out = run(capsys, "dim", "--class", "thresholds(8)", "--gamma", "1/4")
        cert_file = tmp_path / "cert.json"
        cert_file.write_text(json.dumps(json.loads(out)["report"]["certificate"]))
        code, out, err = run_err(
            capsys, "verify", "--class", "thresholds(8)", "--cert", str(cert_file),
            "--gamma=-1/4",
        )
        assert (code, out) == (2, "") and "gamma must be positive" in err
        code, out, err = run_err(capsys, "dim", "--class", "thresholds(8)", "--gamma", "0")
        assert (code, out) == (2, "") and "gamma must be positive" in err

    @pytest.mark.parametrize("field, argv", [
        ("class", ["dim", "--class", "{}", "--gamma", "1/4"]),
        ("cert", ["verify", "--class", "thresholds(8)", "--cert", "{}", "--gamma", "1/4"]),
        ("tree", ["subtree", "--tree", "{}", "--K", "2"]),
        ("process", ["discrepancy", "--class", "thresholds(4)", "--process", "{}",
                     "--m", "5", "--seed", "1"]),
        ("config", ["dim", "--config", "{}"]),
    ])
    def test_deeply_nested_input_file(self, capsys, tmp_path, field, argv):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        code, out, err = run_err(capsys, *(str(path) if a == "{}" else a for a in argv))
        assert (code, out) == (2, "")
        assert err == f"error: field {field!r}: nested too deeply\n"

    @pytest.mark.parametrize("spec, points, selector, message", [
        ("thresholds(8)", ["3/2"], {"0": 0, "1": 1}, "point 3/2 outside [0, 1)"),
        ("all_patterns(2)", ["1/2"], {"0": 0, "1": 1}, "1/2 is not a tabular domain point"),
        ("thresholds(8)", ["1/2"], {"0": 0}, "selector must cover every subset mask exactly once"),
        # the point is checked before the selector
        ("thresholds(8)", ["-1/8"], {"0": 0}, "point -1/8 outside [0, 1)"),
    ])
    def test_malformed_certificate(self, capsys, tmp_path, spec, points, selector, message):
        path = tmp_path / "cert.json"
        path.write_text(json.dumps({"points": points, "alpha": "1/2", "selector": selector}))
        got = run_err(capsys, "verify", "--class", spec, "--gamma", "1/4", "--cert", str(path))
        assert got == (2, "", f"error: field 'cert': {message}\n")

    def test_zero_denominator_in_class_file(self, capsys, tmp_path):
        path = tmp_path / "class.json"
        path.write_text(json.dumps({
            "name": "bad", "kind": "step",
            "functions": [{"pieces": [{"set": "[0/1,1/1)", "value": "1/0"}]}],
        }))
        code, _, err = run_err(capsys, "dim", "--class", str(path), "--gamma", "1/4")
        assert code == 2 and "field 'class'" in err

    def test_zero_denominator_in_markov_file(self, capsys, tmp_path):
        path = tmp_path / "markov.json"
        path.write_text(json.dumps({
            "variant": "markov",
            "transition": [["1/0", "1/2"], ["1/1", "0/1"]],
            "emissions": [{"kind": "point", "at": "1/10"}, {"kind": "point", "at": "1/2"}],
        }))
        code, _, err = run_err(
            capsys, "discrepancy", "--class", "thresholds(4)",
            "--process", str(path), "--m", "10", "--seed", "1",
        )
        assert code == 2 and "field 'process'" in err

    @pytest.mark.parametrize(
        "action,given,missing",
        [
            ("build", (), "depth"),
            ("verify", ("--functions", "0"), "tree"),
            ("verify", ("--tree", "tree.json"), "functions"),
        ],
    )
    def test_itree_fields_per_action(self, capsys, action, given, missing):
        code, _, err = run_err(
            capsys, "itree", action, "--class", "thresholds(4)", "--gamma", "1/4",
            *given,
        )
        assert code == 2
        assert f"field '{missing}': required but missing" in err

    def test_function_index_outside_the_class(self, capsys, workdir):
        code, out, err = run_err(
            capsys, "itree", "verify", "--class", TREE_CLASS, "--gamma", "1/5",
            "--tree", str(workdir / "tree.json"), "--functions", "0,9",
        )
        assert (code, out) == (2, "") and "function indices" in err

    def test_non_string_gamma_in_config_file(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"gamma": 0.25}))
        code, _, err = run_err(capsys, "dim", "--class", "thresholds(4)", "--config", str(path))
        assert code == 2 and err.startswith("error: field 'gamma'")

    def test_demo_rotation_empty_path(self, capsys):
        code, out, err = run_err(capsys, "demo-rotation", "--m", "0", "--seed", "1")
        assert (code, out) == (2, "") and err.startswith("error: field 'm'")

    def test_malformed_certificate_and_tree_files(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("[1, 2]")
        verify = ("verify", "--class", "thresholds(8)", "--gamma", "1/4", "--cert", str(path))
        subtree = ("subtree", "--tree", str(path), "--K", "5")
        for argv, field in ((verify, "cert"), (subtree, "tree")):
            code, out, err = run_err(capsys, *argv)
            assert (code, out) == (2, "") and err.startswith(f"error: field '{field}'")
        path.write_text(json.dumps({"points": ["3/16"], "alpha": "1/2"}))
        code, _, err = run_err(capsys, *verify)
        assert code == 2 and err == "error: field 'cert': missing key 'selector'\n"

    @pytest.mark.parametrize("n_points", [40, 64])
    def test_certificate_with_many_points_and_a_short_selector(self, capsys, tmp_path, n_points):
        # 2**40 masks would not fit in memory, and 2**64 would not fit a list
        path = tmp_path / "cert.json"
        path.write_text(json.dumps({
            "points": [f"{i}/128" for i in range(n_points)], "alpha": "1/2",
            "selector": {"0": 0},
        }))
        code, out, err = run_err(
            capsys, "verify", "--class", "thresholds(8)", "--gamma", "1/4", "--cert", str(path),
        )
        assert (code, out) == (2, "")
        assert err == "error: field 'cert': selector must cover every subset mask exactly once\n"

    @pytest.mark.parametrize("depth", [1 << 40, 40_000_000_000])
    def test_huge_tree_depth(self, capsys, tmp_path, depth):
        path = tmp_path / "tree.json"
        path.write_text(json.dumps({"depth": depth, "nodes": {"1": {"label": [1, 2]}}}))
        for argv, message in [
            (("subtree", "--tree", str(path), "--K", "3"),
             "field 'tree': internal node 2 has no label"),
            (("itree", "verify", "--class", "thresholds(4)", "--gamma", "1/4", "--tree",
              str(path), "--functions", "0"),
             f"field 'functions': need {depth} function indices in [0, 4), got '0'"),
            (("ptree", "--depth", str(depth), "--leaves", "0", "--c", "1"),
             f"field 'leaves': need |S| >= c*2^L >= 4, got |S|=1, c*2^L=2^{depth}"),
            (("ptree", "--depth", str(depth), "--leaves=-1", "--c", "1"),
             f"field 'leaves': must be in [0, 2^{depth}-1], got '-1'"),
            (("ptree", "--depth", str(depth), "--leaves", "0", "--c", "0"),
             "field 'c': must be in [4/2^depth, 1], got '0'"),
        ]:
            code, out, err = run_err(capsys, *argv)
            assert (code, out, err) == (2, "", f"error: {message}\n"), argv

    def test_tree_depth_messages_stay(self, capsys, tmp_path):
        path = tmp_path / "tree.json"
        path.write_text(json.dumps({"depth": 70, "nodes": {}}))
        code, _, err = run_err(capsys, "subtree", "--tree", str(path), "--K", "3")
        assert (code, err) == (2, "error: field 'tree': internal node 1 has no label\n")
        code, _, err = run_err(capsys, "ptree", "--depth", "100", "--leaves", "0,1,2,3",
                               "--c", "1")
        assert (code, err) == (2, "error: field 'leaves': need |S| >= c*2^L >= 4, got |S|=4,"
                                  f" c*2^L={1 << 100}\n")
        # 2**20000 has more digits than Python prints
        code, _, err = run_err(capsys, "ptree", "--depth", "20000", "--leaves", "0,1,2,3",
                               "--c", "1")
        assert (code, err) == (2, "error: field 'leaves': need |S| >= c*2^L >= 4, got |S|=4,"
                                  " c*2^L=2^20000\n")

    def test_unknown_emission_kind(self, capsys, tmp_path):
        path = tmp_path / "markov.json"
        path.write_text(json.dumps({
            "variant": "markov",
            "transition": [["1/2", "1/2"], ["1/1", "0/1"]],
            "emissions": [{"kind": "banana", "lo": "0/1", "hi": "1/2"},
                          {"kind": "point", "at": "1/2"}],
        }))
        code, out, err = run_err(
            capsys, "discrepancy", "--class", "thresholds(4)",
            "--process", str(path), "--m", "10", "--seed", "1",
        )
        assert (code, out) == (2, "")
        assert err == "error: field 'process': unknown emission kind 'banana'\n"


def run_main(*argv):
    """main() with its output captured; any exception escapes to the test."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def assert_field_error(*argv):
    code, out, err = run_main(*argv)
    assert (code, out) == (2, ""), (argv, code, err)
    assert err.startswith("error: field '"), (argv, err)


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
# JSON without strings or objects: never a rational, a set or a mapping
JUNK = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False),
    lambda inner: st.lists(inner, max_size=3),
    max_leaves=5,
)
TREE_CLASS = "full_join_family(2,1,3,1/5)"


# JSON numbers that are no JSON integer, where only an integer belongs
NON_INT = st.floats(allow_nan=False) | st.booleans()
TREE_DOC = intersection_tree_build(
    full_join_family(2, 1, 3, Fraction(1, 5)), Fraction(1, 5), 2
).tree.to_json()
TABULAR_DOC = class_to_json(generate("trajectory_indicators(1/1000,2,1/7)"))


def bad_label(node, bad, good, first):
    """The tree document with one internal node's label holding one bad band."""
    label = [bad, good] if first else [good, bad]
    return {"nodes": {**TREE_DOC["nodes"], node: {**TREE_DOC["nodes"][node], "label": label}}}


# spellings int() reads as the integer k that are not its canonical key str(k)
ARABIC_INDIC_DIGITS = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))
KEY_SPELLINGS = {
    "blank": " {}".format, "newline": "{}\n".format, "plus": "+{}".format,
    "zero": "0{}".format, "underscore": "0_{}".format,
    "arabic-indic": lambda k: k.translate(ARABIC_INDIC_DIGITS),
}
KEY_SPELLING = st.sampled_from(list(KEY_SPELLINGS.values()))


def respelled(mapping, key, spell):
    """The mapping with `key` written as spell(key), in its place."""
    return {spell(k) if k == key else k: v for k, v in mapping.items()}


def replace_one(keys):
    """Replacements of one key of a document by junk."""
    return st.builds(lambda key, junk: {key: junk}, st.sampled_from(keys), JUNK)


# depths that fail fast: a search or table of size 2**depth at 2**40 and up
# runs out of memory at once instead of filling it
DEPTHS = st.integers(-5, 20).filter(lambda d: d != 2) | st.integers(1 << 40, 1 << 62)
# distinct points of [0, 1) for thresholds(8): at most 12 or at least 40 of
# them, each with a selector far short of the 2**d masks
MANY_POINTS = st.integers(2, 12) | st.integers(40, 64)
CERT_POINTS = MANY_POINTS.flatmap(
    lambda d: st.lists(st.integers(0, 999), min_size=d, max_size=d, unique=True)
).map(lambda ks: [f"{k}/1000" for k in ks])
SHORT_SELECTOR = st.dictionaries(
    st.integers(0, 7).map(str), st.integers(0, 8), max_size=3
)
# any emission kind but the two there are, with both kinds' fields present
EMISSION_KIND = st.text(max_size=8).filter(lambda kind: kind not in ("point", "uniform"))
# kind: (a well-formed document, keys it cannot do without, replacements of
# some of its keys, the command reading the file at {path})
INPUT_FILES = {
    "class": (
        class_to_json(thresholds(2)), {"kind", "functions"},
        replace_one(["kind", "functions"]),
        ("dim", "--class", "{path}", "--gamma", "1/4"),
    ),
    "process": (
        {
            "variant": "markov",
            "transition": [["1/2", "1/2"], ["1/1", "0/1"]],
            "emissions": [{"kind": "point", "at": "1/10"}, {"kind": "point", "at": "1/2"}],
        },
        {"variant", "transition", "emissions"},
        replace_one(["variant", "transition", "emissions"]) | EMISSION_KIND.map(
            lambda kind: {"emissions": [
                {"kind": kind, "at": "1/10", "lo": "0/1", "hi": "1/2"},
                {"kind": "point", "at": "1/2"},
            ]}
        ),
        ("discrepancy", "--class", "thresholds(4)", "--process", "{path}",
         "--m", "10", "--seed", "1"),
    ),
    "cert": (
        {"points": ["3/16"], "alpha": "1/2", "selector": {"0": 1, "1": 0}},
        {"points", "alpha", "selector"},
        replace_one(["points", "alpha", "selector"]) | st.builds(
            lambda points, selector: {"points": points, "selector": selector},
            CERT_POINTS, SHORT_SELECTOR,
        ) | st.dictionaries(st.sampled_from(["0", "1"]), NON_INT, min_size=1).map(
            lambda bad: {"selector": {"0": 1, "1": 0, **bad}}
        ) | st.builds(
            lambda key, spell: {"selector": respelled({"0": 1, "1": 0}, key, spell)},
            st.sampled_from(["0", "1"]), KEY_SPELLING,
        ),
        ("verify", "--class", "thresholds(8)", "--gamma", "1/4", "--cert", "{path}"),
    ),
    "tree": (
        TREE_DOC,
        {"depth"},
        replace_one(["nodes"]) | (DEPTHS | NON_INT).map(lambda depth: {"depth": depth})
        | st.builds(
            bad_label, st.sampled_from(["1", "2", "3"]),
            NON_INT | st.integers(max_value=0) | st.integers(min_value=6),
            st.integers(1, 5), st.booleans(),
        ) | st.builds(
            lambda key, spell: {"nodes": respelled(TREE_DOC["nodes"], key, spell)},
            st.sampled_from(sorted(TREE_DOC["nodes"])), KEY_SPELLING,
        ),
        ("itree", "verify", "--class", TREE_CLASS, "--gamma", "1/5",
         "--tree", "{path}", "--functions", "0,1"),
    ),
}


def documents(kind):
    valid, required, replacements, _ = INPUT_FILES[kind]
    arbitrary = JSON.filter(lambda d: not (isinstance(d, dict) and required <= d.keys()))
    return arbitrary | replacements.map(lambda new: {**valid, **new})


# spellings int() or Fraction() would read as the rational q that are not
# the canonical ASCII -?digits(/digits)?
RATIONAL_SPELLINGS = {
    "plus": "+{}".format, "blank": " {} ".format, "newline": "{}\n".format,
    "spaced-slash": lambda q: q.replace("/", " / "),
    "plus-denominator": lambda q: q.replace("/", "/+"),
    "underscore": "0_{}".format,
    "arabic-indic": lambda q: q.translate(ARABIC_INDIC_DIGITS),
    "decimal": lambda q: str(float(Fraction(q))),
}
# JSON values where a rational string belongs
NON_STRINGS = [0.5, 1, None, True, ["1/2"]]
UNIFORM_CHAIN = {
    **INPUT_FILES["process"][0],
    "emissions": [{"kind": "uniform", "lo": "1/4", "hi": "3/4"}, {"kind": "point", "at": "1/2"}],
}
# (a well-formed document, where one rational q sits in it, q, the command
# reading the file at {path}); the place is a value q itself or a text
# holding q
RATIONAL_PLACES = {
    "step-value": (INPUT_FILES["class"][0], ("functions", 0, "pieces", 1, "value"), "1/1",
                   INPUT_FILES["class"][3]),
    "step-set": (INPUT_FILES["class"][0], ("functions", 0, "pieces", 0, "set"), "1/2",
                 INPUT_FILES["class"][3]),
    "tabular-point": (TABULAR_DOC, ("points", 2), "1/7", INPUT_FILES["class"][3]),
    "tabular-value": (TABULAR_DOC, ("functions", 0, "values", 1), "1/1",
                      INPUT_FILES["class"][3]),
    "transition": (INPUT_FILES["process"][0], ("transition", 0, 1), "1/2",
                   INPUT_FILES["process"][3]),
    "point-emission": (INPUT_FILES["process"][0], ("emissions", 0, "at"), "1/10",
                       INPUT_FILES["process"][3]),
    "uniform-emission": (UNIFORM_CHAIN, ("emissions", 0, "hi"), "3/4",
                         INPUT_FILES["process"][3]),
    "cert-point": (INPUT_FILES["cert"][0], ("points", 0), "3/16", INPUT_FILES["cert"][3]),
    "cert-alpha": (INPUT_FILES["cert"][0], ("alpha",), "1/2", INPUT_FILES["cert"][3]),
    "tree-set": (TREE_DOC, ("nodes", "4", "set"), "1/16", INPUT_FILES["tree"][3]),
}
# the same for a flag: its value holds q
RATIONAL_FLAGS = {
    "gamma": (("dim", "--class", "thresholds(4)", "--gamma", "{}"), "1/4"),
    "c": (("ptree", "--depth", "3", "--leaves", "0,1,2,3", "--c", "{}"), "1/2"),
    "process": (("discrepancy", "--class", "thresholds(4)", "--process", "rotation:{}",
                 "--m", "10", "--seed", "1"), "1/3"),
    "theta": (("demo-rotation", "--m", "10", "--seed", "3", "--theta", "{}"), "2/1000003"),
}


def placed(doc, place, q, value):
    """A copy of the document with q, at `place`, written as `value`."""
    doc = json.loads(json.dumps(doc))
    *path, last = place
    owner = doc
    for key in path:
        owner = owner[key]
    old = owner[last]
    owner[last] = value if old == q else old.replace(q, str(value), 1)
    return doc


def not_int(text):
    """Whether the text is not an integer as the CLI reads one: ASCII
    digits with at most a leading "-"."""
    return re.fullmatch(r"-?[0-9]+", text) is None


def not_positive_rational(text):
    try:
        return parse_rational(text) <= 0
    except ValueError:
        return True


BAD_ENTRY = st.text(st.characters(blacklist_characters=","), max_size=5).filter(not_int)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("malformed")
    (path / "tree.json").write_text(json.dumps(INPUT_FILES["tree"][0]))
    return path


# a passing command line per command with integer flags, and those flags
VALID = {
    "dim": ("dim", "--class", "thresholds(4)", "--gamma", "1/4", "--cap", "3"),
    "join": ("join", "--class", TREE_CLASS, "--gamma", "1/5", "--k", "1", "--kp", "3"),
    "ptree": ("ptree", "--depth", "3", "--leaves", "0,1,2,3", "--c", "1/2"),
    "subtree": ("subtree", "--tree", "{tree}", "--K", "5"),
    "itree": ("itree", "build", "--class", TREE_CLASS, "--gamma", "1/5", "--depth", "2",
              "--budget", "100"),
    "discrepancy": ("discrepancy", "--class", "thresholds(4)", "--process", "iid",
                    "--m", "10", "--seed", "1"),
    "gc-curve": ("gc-curve", "--class", "thresholds(4)", "--process", "iid", "--m-grid", "10",
                 "--replicates", "1", "--seed", "1"),
    "bound-check": ("bound-check", "--class", "thresholds(4)", "--process", "iid",
                    "--gamma", "1/2", "--m", "10", "--replicates", "1", "--seed", "1"),
    "demo-rotation": ("demo-rotation", "--m", "10", "--seed", "1"),
}
INTEGER_FIELDS = [
    ("dim", "cap"), ("join", "k"), ("join", "kp"), ("ptree", "depth"), ("subtree", "K"),
    ("itree", "depth"), ("itree", "budget"), ("discrepancy", "m"), ("discrepancy", "seed"),
    ("gc-curve", "replicates"), ("gc-curve", "seed"), ("bound-check", "m"),
    ("bound-check", "replicates"), ("bound-check", "seed"), ("demo-rotation", "m"),
    ("demo-rotation", "seed"),
]


HUGE = [(1 << 63) - 1, 1 << 63, 10**21]  # len() stops at 2**63 - 1 on 64-bit builds


def oracle_rotation_discrepancies(F, theta, seed, m):
    """Per-function discrepancy of the rotation path of length m: its points
    repeat with period q = den(theta), so m = k * q + r points hold k copies
    of the first q and then the first r, each point valued by bisection."""
    spec = RotationSpec(theta=theta)
    k, r = divmod(m, theta.denominator)
    points = oracle_sample_path(spec, theta.denominator, seed)
    return [
        abs((k * sum(oracle_value_at(f, x) for x in points)
             + sum(oracle_value_at(f, x) for x in points[:r])) / m - oracle_expectation(f, spec))
        for f in F.functions
    ]


class TestHugePathLengths:
    """A rotation is counted by floor sums at any length, past len()'s
    limit too; a process that draws every point stops at MAX_DRAWN_POINTS,
    and the rotation demo, whose family holds an m-point orbit window, at
    MAX_DEMO_POINTS."""

    @pytest.mark.parametrize("m", HUGE)
    def test_rotation_discrepancy_at_any_length(self, m):
        theta = F(2, 7)
        code, out, err = run_main("discrepancy", "--class", "thresholds(4)",
                                  "--process", "rotation:2/7", "--m", str(m), "--seed", "5")
        assert code == 0, err
        report = json.loads(out)["report"]
        expected = oracle_rotation_discrepancies(thresholds(4), theta, 5, m)
        assert report["m"] == m
        assert [parse_rational(d["exact"]) for d in report["per_function"]] == expected
        assert parse_rational(report["gamma_m"]["exact"]) == max(expected)

    @pytest.mark.parametrize("m", HUGE)
    def test_rotation_grids_and_bound_checks_at_any_length(self, m):
        expected = [max(oracle_rotation_discrepancies(thresholds(4), F(2, 7), seed, m))
                    for seed in (5, 6)]
        code, out, err = run_main("gc-curve", "--class", "thresholds(4)", "--process",
                                  "rotation:2/7", "--m-grid", f"10,{m}", "--replicates", "2",
                                  "--seed", "5")
        assert code == 0, err
        rows = [row for row in json.loads(out)["report"]["rows"] if row["m"] == m]
        assert [parse_rational(row["gamma_m"]["exact"]) for row in rows] == expected
        code, out, err = run_main("bound-check", "--class", "thresholds(4)", "--process",
                                  "rotation:2/7", "--gamma", "1/4", "--m", str(m),
                                  "--replicates", "2", "--seed", "5")
        assert code == 0, err
        report = json.loads(out)["report"]
        assert parse_rational(report["estimate"]["exact"]) == sum(expected) / 2
        assert report["verdict"] == "PASS"
        # the golden angle's orbit runs 2**40 points and more before it repeats
        for command in ("discrepancy", "bound-check"):
            argv = list(VALID[command])
            argv[argv.index("--process") + 1] = "rotation"
            argv[argv.index("--m") + 1] = str(m)
            code, out, err = run_main(*argv)
            assert code == 0, err

    @pytest.mark.parametrize("m", [MAX_DRAWN_POINTS + 1, *HUGE])
    @pytest.mark.parametrize("process", ["iid", "markov"])
    def test_drawn_paths_stop_at_the_cap(self, tmp_path, process, m):
        if process == "markov":
            process = str(tmp_path / "markov.json")
            (tmp_path / "markov.json").write_text(json.dumps(INPUT_FILES["process"][0]))
        need = f"must be in [1, {MAX_DRAWN_POINTS}]"
        for command, field, value in (("discrepancy", "m", str(m)),
                                      ("gc-curve", "m_grid", f"10,{m}"),
                                      ("bound-check", "m", str(m))):
            argv = list(VALID[command])
            argv[argv.index("--process") + 1] = process
            argv[argv.index("--" + field.replace("_", "-")) + 1] = value
            code, out, err = run_main(*argv)
            assert (code, out) == (2, "")
            assert err == f"error: field {field!r}: {need}, got {value!r}\n"

    def test_drawn_paths_reach_the_cap_in_the_library(self):
        with pytest.raises(ValueError, match="must be <= "):
            sample_path(IIDUniformSpec(), MAX_DRAWN_POINTS + 1, 1)

    def test_demo_rotation_runs_at_its_cap(self):
        code, out, err = run_main("demo-rotation", "--m", str(MAX_DEMO_POINTS), "--seed", "1")
        assert code == 0, err
        report = json.loads(out)["report"]
        assert report["m"] == MAX_DEMO_POINTS
        assert report["data_dependent_family"]["gamma_m"]["exact"] == "1/1"
        assert report["fixed_family"]["gamma_m"]["exact"] == "0/1"

    @pytest.mark.parametrize("m", [MAX_DEMO_POINTS + 1, 1 << 63])
    def test_demo_rotation_stops_past_its_cap(self, m):
        assert run_main("demo-rotation", "--m", str(m), "--seed", "1") == (
            2, "", f"error: field 'm': must be in [1, {MAX_DEMO_POINTS}], got '{m}'\n"
        )


class TestMalformedInput:
    """Malformed input of every kind exits 2 with a message naming its field."""

    def test_well_formed_files_pass(self, workdir):
        for kind, (valid, _, _, argv) in INPUT_FILES.items():
            path = workdir / f"valid-{kind}.json"
            path.write_text(json.dumps(valid))
            code, _, err = run_main(*(a.replace("{path}", str(path)) for a in argv))
            assert code == 0, (kind, err)

    @given(st.data(), st.sampled_from(sorted(INPUT_FILES)))
    @settings(max_examples=150, deadline=None)
    def test_input_files(self, workdir, data, kind):
        doc = data.draw(documents(kind))
        path = workdir / f"junk-{kind}.json"
        path.write_text(json.dumps(doc))
        assert_field_error(*(a.replace("{path}", str(path)) for a in INPUT_FILES[kind][3]))

    @given(
        st.one_of(
            st.text(max_size=8),
            st.integers(max_value=0).map(str),
            st.builds("{}/{}".format, st.integers(-9, 9), st.integers(-9, 9)),
        ).filter(not_positive_rational)
    )
    @settings(max_examples=60, deadline=None)
    def test_gamma(self, text):
        assert_field_error("dim", "--class", "thresholds(4)", f"--gamma={text}")

    @given(
        st.sampled_from(["leaves", "m-grid", "functions"]),
        st.lists(st.integers(1, 3).map(str) | BAD_ENTRY, min_size=1, max_size=3)
        .filter(lambda entries: any(map(not_int, entries))),
    )
    @settings(max_examples=60, deadline=None)
    def test_integer_lists(self, workdir, flag, entries):
        value = f"--{flag}={','.join(entries)}"
        argv = {
            "leaves": ("ptree", "--depth", "3", "--c", "1/2"),
            "m-grid": ("gc-curve", "--class", "thresholds(4)", "--process", "iid",
                       "--replicates", "1", "--seed", "1"),
            "functions": ("itree", "verify", "--class", TREE_CLASS, "--gamma", "1/5",
                          "--tree", str(workdir / "tree.json")),
        }[flag]
        assert_field_error(*argv, value)

    @pytest.mark.parametrize("spelling", sorted(KEY_SPELLINGS))
    def test_json_keys_must_be_canonical(self, workdir, spelling):
        spell = KEY_SPELLINGS[spelling]
        tree = workdir / "respelled-tree.json"
        tree.write_text(json.dumps({**TREE_DOC, "nodes": respelled(TREE_DOC["nodes"], "5", spell)}))
        assert_field_error("itree", "verify", "--class", TREE_CLASS, "--gamma", "1/5",
                           "--tree", str(tree), "--functions", "0,1")
        assert_field_error("subtree", "--tree", str(tree), "--K", "5")
        cert = workdir / "respelled-cert.json"
        valid = INPUT_FILES["cert"][0]
        cert.write_text(json.dumps({**valid, "selector": respelled(valid["selector"], "0", spell)}))
        assert_field_error("verify", "--class", "thresholds(8)", "--gamma", "1/4",
                           "--cert", str(cert))

    @pytest.mark.parametrize("place", sorted(RATIONAL_PLACES))
    def test_rationals_in_files_must_be_canonical(self, workdir, place):
        doc, where, q, argv = RATIONAL_PLACES[place]
        path = workdir / f"rational-{place}.json"
        values = [q, *(spell(q) for spell in RATIONAL_SPELLINGS.values())]
        if where[-1] == "set":  # whitespace may pad an endpoint of an interval
            values = [v for v in values if v == q or v.strip() != q]
        else:  # a value of its own, not text in an interval
            values += NON_STRINGS
        for value in values:
            path.write_text(json.dumps(placed(doc, where, q, value)))
            command = [a.replace("{path}", str(path)) for a in argv]
            if value == q:
                code, _, err = run_main(*command)
                assert code == 0, err
            else:
                assert_field_error(*command)

    @pytest.mark.parametrize("flag", sorted(RATIONAL_FLAGS))
    def test_rational_flags_must_be_canonical(self, flag):
        argv, q = RATIONAL_FLAGS[flag]
        code, _, err = run_main(*(a.format(q) for a in argv))
        assert code == 0, err
        for spell in RATIONAL_SPELLINGS.values():
            code, out, err = run_main(*(a.format(spell(q)) for a in argv))
            assert (code, out) == (2, "")
            assert err.startswith(f"error: field '{flag}': cannot parse rational"), err

    def test_non_string_rationals_say_what_they_got(self, workdir, capsys):
        path = workdir / "float-emission.json"
        doc = placed(INPUT_FILES["process"][0], ("emissions", 0, "at"), "1/10", 0.5)
        path.write_text(json.dumps(doc))
        argv = [a.replace("{path}", str(path)) for a in INPUT_FILES["process"][3]]
        code, out, err = run_err(capsys, *argv)
        assert (code, out, err) == (
            2, "", "error: field 'process': must be a rational string, got 0.5\n"
        )
        code, out, err = run_err(capsys, "dim", "--class", "thresholds(4)", "--gamma", " +1_0/40 ")
        assert (code, out, err) == (
            2, "", "error: field 'gamma': cannot parse rational ' +1_0/40 '\n"
        )

    @given(st.integers(max_value=0))
    @settings(max_examples=20, deadline=None)
    def test_counts_below_one(self, n):
        assert_field_error("dim", "--class", "thresholds(4)", "--gamma", "1/4", f"--cap={n}")
        assert_field_error(
            "itree", "build", "--class", "thresholds(4)", "--gamma", "1/4", "--depth", "1",
            f"--budget={n}",
        )
        assert_field_error(
            "gc-curve", "--class", "thresholds(4)", "--process", "iid",
            "--replicates", "1", "--seed", "1", f"--m-grid=10,{n}",
        )

    @pytest.mark.parametrize(
        "field,argv",
        [
            ("leaves", ("ptree", "--depth", "3", "--leaves", "9", "--c", "1/8")),
            ("leaves", ("ptree", "--depth", "3", "--leaves=-1,2", "--c", "1/8")),
            ("c", ("ptree", "--depth", "3", "--leaves", "0,1,2,3", "--c", "2")),
            ("k", ("join", "--class", TREE_CLASS, "--gamma", "1/5", "--k", "0", "--kp", "3")),
            ("kp", ("join", "--class", TREE_CLASS, "--gamma", "1/5", "--k", "1", "--kp", "6")),
            ("depth", ("itree", "build", "--class", TREE_CLASS, "--gamma", "1/5",
                       "--depth", "0")),
            ("functions", ("itree", "verify", "--class", TREE_CLASS, "--gamma", "1/5",
                           "--tree", "{tree}", "--functions", "0,9")),
            ("functions", ("itree", "verify", "--class", TREE_CLASS, "--gamma", "1/5",
                           "--tree", "{tree}", "--functions", "0")),
            ("K", ("subtree", "--tree", "{tree}", "--K", "0")),
            ("theta", ("demo-rotation", "--m", "1000", "--seed", "3", "--theta", "3/7")),
            ("theta", ("demo-rotation", "--m", "10", "--seed", "3", "--theta", "7/5")),
            ("K", ("subtree", "--tree", "{wide}", "--K", "5")),
            ("tree", ("subtree", "--tree", "{unlabeled}", "--K", "5")),
            ("tree", ("subtree", "--tree", "{zero}", "--K", "5")),
            ("leaves", ("ptree", "--depth", "3", "--leaves", "0,1", "--c", "1/2")),
            ("c", ("ptree", "--depth", "3", "--leaves", "0,1,2,3,4,5,6,7", "--c", "1/4")),
            ("kp", ("join", "--class", TREE_CLASS, "--gamma", "1/5", "--k", "1", "--kp", "1")),
            # band 2 is empty for every function: the join would have no cell
            ("kp", ("join", "--class", TREE_CLASS, "--gamma", "1/5", "--k", "2", "--kp", "2")),
            ("process", ("discrepancy", "--class", "thresholds(4)", "--process", "rotation:1/1",
                         "--m", "10", "--seed", "1")),
            ("process", ("gc-curve", "--class", "thresholds(4)", "--process", "rotation:3/2",
                         "--m-grid", "10", "--replicates", "1", "--seed", "1")),
            ("process", ("bound-check", "--class", "thresholds(4)", "--process", "rotation:0/1",
                         "--gamma", "1/4", "--m", "10", "--replicates", "1", "--seed", "1")),
            # a value is taken verbatim, `--` included
            ("gamma", ("dim", "--class", "thresholds(4)", "--gamma=--")),
            ("leaves", ("ptree", "--depth", "3", "--c", "1/2", "--leaves=--")),
            ("class", ("dim", "--class=--", "--gamma", "1/4")),
            # generator specs with arguments the generator does not take
            ("class", ("dim", "--class", "thresholds(4,5)", "--gamma", "1/4")),
            ("class", ("dim", "--class", "all_patterns(3,x=1)", "--gamma", "1/4")),
            ("class", ("segments", "--class", "interval_indicators(3,,)", "--gamma", "1/4")),
            ("class", ("join", "--class", "full_join_family(1,1,3,1/5,9)", "--gamma", "1/5",
                       "--k", "1", "--kp", "3")),
            ("class", ("discrepancy", "--class", "random_step(1,4,8,3,bogus=2)",
                       "--process", "iid", "--m", "10", "--seed", "1")),
        ],
    )
    def test_out_of_range_values_name_their_field(self, tmp_path, field, argv):
        # the tree, and copies with a label above 5, no label, a label of 0
        labels = {"tree": [1, 3], "wide": [1, 6], "unlabeled": None, "zero": [0, 3]}
        for name, label in labels.items():
            doc = json.loads(json.dumps(INPUT_FILES["tree"][0]))
            doc["nodes"]["2"]["label"] = label
            (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        argv = [a.format(**{name: tmp_path / f"{name}.json" for name in labels}) for a in argv]
        code, out, err = run_main(*argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: field '{field}'"), err

    @pytest.mark.parametrize(
        "argv",
        [
            ("join", "--gamma", "1/4", "--k", "1", "--kp", "3"),
            ("itree", "build", "--gamma", "1/4", "--depth", "1"),
            ("itree", "verify", "--gamma", "1/5", "--tree", "{tree}", "--functions", "0,1"),
            ("discrepancy", "--process", "iid", "--m", "10", "--seed", "1"),
            ("gc-curve", "--process", "iid", "--m-grid", "10", "--replicates", "1",
             "--seed", "1"),
            ("bound-check", "--process", "iid", "--gamma", "1/4", "--m", "10",
             "--replicates", "1", "--seed", "1"),
        ],
        ids=lambda argv: " ".join(argv[:2] if argv[0] == "itree" else argv[:1]),
    )
    def test_step_commands_reject_tabular_classes(self, workdir, argv):
        argv = [a.format(tree=workdir / "tree.json") for a in argv]
        code, out, err = run_main(*argv, "--class", "all_patterns(3)")
        assert (code, out) == (2, "")
        assert err.startswith("error: field 'class': this command needs a STEP class"), err

    @pytest.mark.parametrize(
        "sets,message",
        [
            (["[0/1,3/4)", "[1/2,1/1)"], "step pieces must be pairwise disjoint"),
            (["[0/1,1/2)", "[1/4,3/4)"], "step pieces must cover [0, 1)"),
            # a missing or repeated ")" is not forgiven
            (["[0/1,1/2", "[1/2,1/1)"], "malformed interval union: '[0/1,1/2'"),
            (["[0/1,1/2)", "[1/2,1/1))"], "malformed interval union: '[1/2,1/1))'"),
        ],
    )
    def test_step_pieces_name_their_fault(self, tmp_path, sets, message):
        doc = class_to_json(thresholds(2))
        doc["functions"][0]["pieces"] = [
            {"set": text, "value": value} for text, value in zip(sets, ("0/1", "1/1"))
        ]
        path = tmp_path / "class.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_main("dim", "--class", str(path), "--gamma", "1/4")
        assert (code, out, err) == (2, "", f"error: field 'class': {message}\n")

    @pytest.mark.parametrize(
        "field,argv,message",
        [
            ("process", ("discrepancy", "--class", "thresholds(4)", "--process", "bogus",
                         "--m", "10", "--seed", "1"), "unknown process 'bogus'"),
            ("class", ("dim", "--class", "thresholds(0)", "--gamma", "1/4"),
             "thresholds needs n >= 1"),
            ("class", ("dim", "--class", "interval_indicators(0)", "--gamma", "1/4"),
             "interval_indicators needs n >= 1"),
            ("class", ("dim", "--class", "all_patterns(0)", "--gamma", "1/4"),
             "all_patterns needs p >= 1"),
            ("class", ("dim", "--class", "random_step(1,0,8)", "--gamma", "1/4"),
             "random_step needs pieces, grid, count >= 1"),
            ("class", ("join", "--class", "full_join_family(5,1,3,1/5)", "--gamma", "1/5",
                       "--k", "1", "--kp", "3"), "full_join_family supports 1 <= L <= 4"),
            ("class", ("join", "--class", "full_join_family(2,1,9,1/5)", "--gamma", "1/5",
                       "--k", "1", "--kp", "3"), "bands (1, 9) outside [1, 5]"),
        ],
        ids=["process", "thresholds", "interval_indicators", "all_patterns", "random_step",
             "full_join_family-L", "full_join_family-bands"],
    )
    def test_range_checks_name_their_fault(self, field, argv, message):
        code, out, err = run_main(*argv)
        assert (code, out, err) == (2, "", f"error: field {field!r}: {message}\n")

    def test_generator_integers_are_canonical(self):
        # int() would read "1_0" as 10; a spec's integers are written as its rationals are
        code, out, err = run_main("dim", "--class", "thresholds(1_0)", "--gamma", "1/4")
        assert (code, out, err) == (2, "", "error: field 'class': expected integer, got '1_0'\n")

    @pytest.mark.parametrize(
        "kind,doc,message",
        [
            # a string where a list belongs is not read one character at a time
            ("cert", {**INPUT_FILES["cert"][0], "points": "0"}, 'points must be a list, got "0"'),
            ("process", {"variant": "markov", "transition": ["1"],
                         "emissions": [{"kind": "point", "at": "1/10"}]},
             'transition row must be a list, got "1"'),
            ("class", {"kind": "tabular", "points": "0", "functions": [{"values": "1"}]},
             'points must be a list, got "0"'),
            ("class", {"kind": "tabular", "points": ["0/1"], "functions": [{"values": "1"}]},
             'values must be a list, got "1"'),
            ("cert", {**INPUT_FILES["cert"][0], "selector": [1, 0]},
             "selector must be an object, got [1, 0]"),
            ("process", {**INPUT_FILES["process"][0], "emissions": ["x", "y"]},
             'emission must be an object, got "x"'),
            ("class", {"kind": "step", "functions": [{"pieces": [{"set": 5, "value": "0/1"}]}]},
             "must be an interval union string, got 5"),
            ("tree", {**TREE_DOC, "nodes": {**TREE_DOC["nodes"], "2": ["x"]}},
             'node 2 must be an object, got ["x"]'),
            ("tree", {**TREE_DOC, "nodes": {**TREE_DOC["nodes"], "1": {"label": [1]}}},
             "label must hold 2 bands, got 1"),
            ("tree", {**TREE_DOC, "nodes": {**TREE_DOC["nodes"], "2": {"set": 5}}},
             "must be an interval union string, got 5"),
            # well-shaped files with values the library refuses
            ("process", {**INPUT_FILES["process"][0], "emissions": [
                {"kind": "point", "at": "1/1"}, {"kind": "point", "at": "1/2"},
            ]}, "emission point 1 outside [0, 1)"),
            ("process", {**INPUT_FILES["process"][0], "emissions": [
                {"kind": "uniform", "lo": "1/2", "hi": "1/2"}, {"kind": "point", "at": "1/2"},
            ]}, "emission interval [1/2, 1/2) invalid"),
            ("process", {**INPUT_FILES["process"][0], "emissions": [
                {"kind": "point", "at": "1/10"},
            ]}, "need one emission per state"),
            ("class", {"kind": "tabular", "points": ["0/1", "1/2"],
                       "functions": [{"values": ["1/1"]}]},
             "tabular function needs one value per point"),
            ("class", {"kind": "tabular", "points": [], "functions": [{"values": []}]},
             "tabular function needs one value per point"),
            ("cert", {"points": ["3/16", "3/16"], "alpha": "1/2",
                      "selector": {"0": 0, "1": 1, "2": 2, "3": 3}},
             "certificate points must be distinct and non-empty"),
        ],
        ids=["cert-points", "markov-row", "tabular-points", "tabular-values", "cert-selector",
             "emission", "step-set", "tree-node", "tree-label", "tree-set",
             "emission-point-at-one", "emission-empty-interval", "emissions-too-few",
             "tabular-values-too-few", "tabular-no-points", "cert-point-twice"],
    )
    def test_wrong_shapes_name_their_field(self, tmp_path, kind, doc, message):
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(doc))
        argv = INPUT_FILES[kind][3]
        code, out, err = run_main(*(a.replace("{path}", str(path)) for a in argv))
        assert (code, out, err) == (2, "", f"error: field {kind!r}: {message}\n")

    @pytest.mark.parametrize(
        "value,message",
        [
            ("[0/1,1/2", "malformed interval union: '[0/1,1/2'"),
            (["[0/1,1/2)"], 'must be an interval union string, got ["[0/1,1/2)"]'),
            ({"set": "[0/1,1/2)"}, 'must be an interval union string, got {"set": "[0/1,1/2)"}'),
        ],
        ids=["text", "list", "object"],
    )
    def test_a_bad_payload_repeated_at_several_nodes(self, tmp_path, value, message):
        """Tree files parse each distinct payload text once; a bad payload
        at several nodes still names itself, with no traceback."""
        nodes = {key: {**entry, "set": value} if key in ("2", "4", "5") else entry
                 for key, entry in TREE_DOC["nodes"].items()}
        path = tmp_path / "tree.json"
        path.write_text(json.dumps({**TREE_DOC, "nodes": nodes}))
        for argv in (
            ("itree", "verify", "--class", TREE_CLASS, "--gamma", "1/5", "--tree", str(path),
             "--functions", "0,1"),
            ("subtree", "--tree", str(path), "--K", "5"),
        ):
            code, out, err = run_main(*argv)
            assert (code, out, err) == (2, "", f"error: field 'tree': {message}\n")

    @pytest.mark.parametrize("command,field", INTEGER_FIELDS)
    def test_non_integer_flags(self, workdir, command, field):
        argv = [a.format(tree=workdir / "tree.json") for a in VALID[command]]
        argv[argv.index(f"--{field}") + 1] = "2.5"
        code, out, err = run_main(*argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: field '{field}': cannot parse integers '2.5'"), err

    @pytest.mark.parametrize("text", ["1_0", "+3", " 3", "3 ", "\u0663", "1,,2", "1,"])
    def test_integers_have_one_spelling(self, tmp_path, text):
        # int() reads each of the first five, and the report would echo the spelling
        argv = ("dim", "--class", "thresholds(4)", "--gamma", "1/4")
        message = f"error: field 'cap': cannot parse integers {text!r}\n"
        assert run_main(*argv, "--cap", text) == (2, "", message)
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"cap": text}))
        assert run_main(*argv, "--config", str(path)) == (2, "", message)
        for leaves in (text, f"0,{text}"):
            assert run_main("ptree", "--depth", "3", "--c", "1/2", f"--leaves={leaves}") == (
                2, "", f"error: field 'leaves': cannot parse integers {leaves!r}\n"
            )

    def test_valid_argv_pass(self, workdir):
        for argv in VALID.values():
            code, _, err = run_main(*(a.format(tree=workdir / "tree.json") for a in argv))
            assert code == 0, (argv, err)

    @pytest.mark.parametrize(
        "field,argv,config",
        [
            ("mode", ("dim", "--class", "thresholds(4)", "--gamma", "1/4"), {"mode": "naive"}),
            ("mode", ("dim", "--class", "thresholds(4)", "--gamma", "1/4"), {"mode": "fast"}),
            ("mode", ("dim", "--class", "thresholds(4)", "--gamma", "1/4"), {"mode": True}),
            ("action", ("itree", "grow", "--class", TREE_CLASS, "--gamma", "1/5"), {}),
            ("action", ("itree", "--class", TREE_CLASS, "--gamma", "1/5"), {"action": "grow"}),
            ("gammma", ("dim", "--class", "thresholds(4)"), {"gammma": "1/4"}),
            ("m-grid", ("gc-curve", "--class", "thresholds(4)", "--process", "iid",
                        "--replicates", "1", "--seed", "1"), {"m-grid": "10"}),
            ("cap", ("segments", "--class", "thresholds(4)", "--gamma", "1/4"), {"cap": "3"}),
            ("config", ("dim", "--class", "thresholds(4)", "--gamma", "1/4"), {"config": "x"}),
            ("out", ("dim", "--class", "thresholds(4)", "--gamma", "1/4"), {"out": None}),
        ],
    )
    def test_bad_choices_and_config_keys(self, tmp_path, field, argv, config):
        if config:
            path = tmp_path / "config.json"
            path.write_text(json.dumps(config))
            argv += ("--config", str(path))
        code, out, err = run_main(*argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: field '{field}'"), err

    def test_action_from_config_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"action": "build", "depth": 2}))
        argv = ("itree", "--class", TREE_CLASS, "--gamma", "1/5")
        code, out, _ = run_main(*argv, "--config", str(path))
        assert code == 0 and json.loads(out)["report"]["status"] == "ok"
        assert json.loads(out)["config"]["depth"] == "2"

    @given(BAD_ENTRY)
    @settings(max_examples=30, deadline=None)
    def test_integer_in_config_file(self, workdir, text):
        path = workdir / "config.json"
        path.write_text(json.dumps({"cap": text}))
        assert_field_error(
            "dim", "--class", "thresholds(4)", "--gamma", "1/4", "--config", str(path)
        )


class TestSegmentsJoin:
    def test_segments(self, capsys):
        code, out = run(
            capsys, "segments", "--class", "thresholds(2)", "--gamma", "1/2"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["report"]["K"] == 2
        assert len(doc["report"]["functions"]) == 2

    def test_join_full(self, capsys):
        code, out = run(
            capsys, "join", "--class", "full_join_family(1,1,3,1/5)",
            "--gamma", "1/5", "--k", "1", "--kp", "3",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["report"]["cell_count"] == 4
        assert doc["report"]["full"] is True


class TestJsonIntegersAndTreeFaults:
    """Tree and certificate files hold JSON integers where they hold counts,
    and a fault in a tree file is an error in field 'tree', never a verdict."""

    VERIFY_TREE = ("itree", "verify", "--class", TREE_CLASS, "--gamma", "1/5",
                   "--functions", "0,1", "--tree")

    def write(self, tmp_path, doc):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))
        return str(path)

    @pytest.mark.parametrize(
        "node,label,message",
        [
            ("5", None, "node 5 has no set payload"),
            ("2", [7, 3], "band 7 outside [1, 5]"),
            ("2", [1, -2], "band -2 outside [1, 5]"),
            # node 2's adjacent label alone would be a FAIL verdict
            ("3", [1, 9], "band 9 outside [1, 5]"),
        ],
    )
    def test_tree_faults_name_the_tree(self, tmp_path, node, label, message):
        doc = json.loads(json.dumps(TREE_DOC))
        if label is None:
            doc["nodes"][node]["set"] = None
        else:
            doc["nodes"][node]["label"] = label
            if node == "3":
                doc["nodes"]["2"]["label"] = [2, 3]
        code, out, err = run_main(*self.VERIFY_TREE, self.write(tmp_path, doc))
        assert (code, out, err) == (2, "", f"error: field 'tree': {message}\n")

    @pytest.mark.parametrize("key", ["999", "0", "-3"])
    def test_a_node_without_data_outside_the_tree_is_refused(self, tmp_path, key):
        doc = intersection_tree_build(
            full_join_family(2, 1, 3, Fraction(1, 5)), Fraction(1, 5), 3
        ).tree.to_json()
        path = self.write(tmp_path, doc)
        verify = ("itree", "verify", "--class", TREE_CLASS, "--gamma", "1/5",
                  "--functions", "0,1,2", "--tree", path)
        subtree = ("subtree", "--K", "5", "--tree", path)
        assert [run_main(*argv)[0] for argv in (verify, subtree)] == [0, 0]
        doc["nodes"][key] = {"label": None, "set": None}
        self.write(tmp_path, doc)
        message = f"error: field 'tree': node {key} outside the tree\n"
        for argv in (verify, subtree):
            assert run_main(*argv) == (2, "", message)

    @pytest.mark.parametrize("doc", [class_to_json(generate(TREE_CLASS)), TABULAR_DOC],
                             ids=["step", "tabular"])
    def test_a_class_name_must_be_a_string(self, tmp_path, doc):
        argv = ("dim", "--class", str(tmp_path / "input.json"), "--gamma", "1/5")
        for name, shown in [(5, "5"), (["x"], '["x"]')]:
            self.write(tmp_path, {**doc, "name": name})
            code, out, err = run_main(*argv)
            assert (code, out) == (2, "")
            assert err == f"error: field 'class': name must be a string, got {shown}\n"
        self.write(tmp_path, {key: value for key, value in doc.items() if key != "name"})
        code, out, err = run_main(*argv)
        assert (code, err) == (0, "")
        assert load_class(tmp_path / "input.json").name == ""

    @pytest.mark.parametrize("text", ["[0/1,1/2", "[0/1,1/2))", "[0/1,1/4),[1/2,3/4"])
    def test_malformed_payload_text_names_the_tree(self, tmp_path, text):
        doc = json.loads(json.dumps(TREE_DOC))
        doc["nodes"]["2"]["set"] = text
        code, out, err = run_main(*self.VERIFY_TREE, self.write(tmp_path, doc))
        assert (code, out) == (2, "")
        assert err == f"error: field 'tree': malformed interval union: {text!r}\n"

    @pytest.mark.parametrize(
        "selector,shown",
        [({"0": 1.9, "1": 0.9}, "1.9"), ({"0": 1, "1": 0.0}, "0.0"),
         ({"0": True, "1": 0}, "true"), ({"0": 1, "1": "0"}, '"0"')],
    )
    def test_selector_values_are_integers(self, tmp_path, selector, shown):
        cert = {"points": ["3/16"], "alpha": "1/2", "selector": selector}
        argv = ("verify", "--class", "thresholds(8)", "--gamma", "1/4", "--cert")
        code, out, err = run_main(*argv, self.write(tmp_path, cert))
        assert (code, out) == (2, "")
        assert err == f"error: field 'cert': selector value must be an integer, got {shown}\n"

    @pytest.mark.parametrize(
        "change,shown",
        [({"depth": 2.9}, "depth must be an integer, got 2.9"),
         ({"depth": True}, "depth must be an integer, got true"),
         ({"label": [1.5, 3]}, "label band must be an integer, got 1.5"),
         ({"label": [1, False]}, "label band must be an integer, got false")],
    )
    def test_depth_and_labels_are_integers(self, tmp_path, change, shown):
        doc = json.loads(json.dumps(TREE_DOC))
        if "depth" in change:
            doc["depth"] = change["depth"]
        else:
            doc["nodes"]["1"]["label"] = change["label"]
        path = self.write(tmp_path, doc)
        for argv in (self.VERIFY_TREE + (path,), ("subtree", "--K", "5", "--tree", path)):
            code, out, err = run_main(*argv)
            assert (code, out, err) == (2, "", f"error: field 'tree': {shown}\n")

    def test_ptree_depth_past_the_digit_limit_is_refused_at_once(self):
        leaves = ",".join(map(str, range(600)))
        start = time.perf_counter()
        code, out, err = run_main(
            "ptree", "--depth", "14290", "--leaves", leaves, "--c", "1/1" + "0" * 4299
        )
        assert time.perf_counter() - start < 2  # the witness took seconds
        assert (code, out) == (2, "")
        limit = sys.get_int_max_str_digits()
        assert err == (
            f"error: field 'depth': node numbers below 2^14290 exceed the {limit}-digit"
            " limit on printed integers\n"
        )

    def test_ptree_depth_at_the_digit_limit(self):
        """2**2126 < 10**640 < 2**2127: at a limit of 640 digits every node of
        a depth-2126 tree prints, and depth 2127 is refused."""
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code, out, err = run_main(
                "ptree", "--depth", "2126", "--leaves", "0,1,2,3", "--c", f"1/{1 << 2124}"
            )
            assert code == 0, err
            assert json.loads(out)["report"]["nodes"] == [1 << 2125, (1 << 2125) + 1]
            code, out, err = run_main(
                "ptree", "--depth", "2127", "--leaves", "0,1,2,3", "--c", f"1/{1 << 2125}"
            )
            assert (code, out) == (2, "") and err.startswith("error: field 'depth'"), err
        finally:
            sys.set_int_max_str_digits(saved)


class TestTreeCommands:
    def test_ptree(self, capsys):
        code, out = run(
            capsys, "ptree", "--depth", "3", "--leaves", "0,1,2,3", "--c", "1/2"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["report"]["level"] == 2
        assert doc["report"]["nodes"] == [4, 5]

    def test_itree_build_verify_subtree(self, capsys, tmp_path):
        code, out = run(
            capsys, "itree", "build", "--class", "full_join_family(2,1,3,1/5)",
            "--gamma", "1/5", "--depth", "2",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["report"]["status"] == "ok"
        tree_file = tmp_path / "tree.json"
        tree_file.write_text(json.dumps(doc["report"]["tree"]))
        functions = ",".join(str(i) for i in doc["report"]["functions"])

        code, _ = run(
            capsys, "itree", "verify", "--class", "full_join_family(2,1,3,1/5)",
            "--gamma", "1/5", "--tree", str(tree_file), "--functions", functions,
        )
        assert code == 0

        code, out = run(capsys, "subtree", "--tree", str(tree_file), "--K", "5")
        assert code == 0
        doc = json.loads(out)
        assert doc["report"]["label"] == [1, 3]
        assert doc["report"]["depth"] >= 1

    def test_itree_build_failure_status(self, capsys, tmp_path):
        from gapdim import FunctionClass
        from gapdim.funclass import save_class as save

        FC = FunctionClass([oracle_constant(F(1, 2))], "consts")
        path = tmp_path / "consts.json"
        save(FC, path)
        code, out = run(
            capsys, "itree", "build", "--class", str(path), "--gamma", "1/4",
            "--depth", "1",
        )
        assert code == 0
        assert json.loads(out)["report"]["status"] == "FAILURE"


class TestSimulationCommands:
    def test_discrepancy_csv(self, capsys, tmp_path):
        out_dir = tmp_path / "d"
        code, out = run(
            capsys, "discrepancy", "--class", "thresholds(4)", "--process", "iid",
            "--m", "100", "--seed", "5", "--out", str(out_dir),
        )
        assert code == 0
        csv = (out_dir / "report.csv").read_text().splitlines()
        assert csv[0] == "m,replicate,gamma_m,gamma_m_exact"
        assert len(csv) == 2

    def test_gc_curve(self, capsys):
        code, out = run(
            capsys, "gc-curve", "--class", "thresholds(4)", "--process", "iid",
            "--m-grid", "20,80", "--replicates", "2", "--seed", "3",
        )
        assert code == 0
        doc = json.loads(out)
        assert set(doc["report"]["per_m"]) == {"20", "80"}

    @pytest.mark.parametrize("grid", ["10,10", "100,10,100", "5,5,5"])
    def test_gc_curve_refuses_a_repeated_length(self, grid):
        argv = list(VALID["gc-curve"])
        argv[argv.index("--m-grid") + 1] = grid
        code, out, err = run_main(*argv)
        assert (code, out) == (2, "")
        assert err == f"error: field 'm_grid': lengths must be distinct, got {grid!r}\n"

    def test_bound_check_pass(self, capsys):
        code, out = run(
            capsys, "bound-check", "--class", "thresholds(8)", "--process", "iid",
            "--gamma", "1/10", "--m", "2000", "--replicates", "2", "--seed", "5",
        )
        assert code == 0
        assert json.loads(out)["report"]["verdict"] == "PASS"

    def test_bound_check_past_the_float_range(self, capsys):
        # 10 * gamma is past the largest float: its decimal column is
        # written from the exact value
        gamma = str(10**400)
        code, out, err = run_err(
            capsys, "bound-check", "--class", "thresholds(4)", "--process", "iid",
            "--gamma", gamma, "--m", "10", "--replicates", "1", "--seed", "1",
        )
        assert (code, err) == (0, "")
        report = json.loads(out)["report"]
        assert report["bound"] == {"decimal": "1e+401", "exact": f"{gamma}0/1"}
        assert report["verdict"] == "PASS"

    def test_bound_check_below_the_float_range(self, capsys):
        # 10 * gamma underflows a float: its decimal column is written from
        # the exact value, not as 0; ten points miss so tiny a bound
        gamma = f"1/{10**400}"
        code, out, err = run_err(
            capsys, "bound-check", "--class", "thresholds(4)", "--process", "iid",
            "--gamma", gamma, "--m", "10", "--replicates", "1", "--seed", "1",
        )
        assert (code, err) == (1, "")
        report = json.loads(out)["report"]
        assert report["bound"] == {"decimal": "1e-399", "exact": f"1/{10**399}"}
        assert report["verdict"] == "FAIL"

    def test_demo_rotation(self, capsys):
        code, out = run(capsys, "demo-rotation", "--m", "50", "--seed", "7")
        assert code == 0
        doc = json.loads(out)
        assert doc["report"]["data_dependent_family"]["gamma_m"]["exact"] == "1/1"
        assert doc["report"]["fixed_family"]["gamma_m"]["exact"] == "0/1"
        assert doc["report"]["combined_dimension"]["dimension"] == 1

    def test_markov_process_file(self, capsys, tmp_path):
        spec = {
            "variant": "markov",
            "transition": [["1/2", "1/2"], ["1/1", "0/1"]],
            "emissions": [
                {"kind": "point", "at": "1/10"},
                {"kind": "uniform", "lo": "1/2", "hi": "9/10"},
            ],
        }
        path = tmp_path / "markov.json"
        path.write_text(json.dumps(spec))
        code, out = run(
            capsys, "discrepancy", "--class", "thresholds(4)",
            "--process", str(path), "--m", "60", "--seed", "9",
        )
        assert code == 0


# A class file on pieces of several intervals each, coarser than the
# class's refinement cells, with an empty piece
COARSE_CLASS = {"name": "coarse", "kind": "step", "functions": [
    {"pieces": [{"set": "[0/1,1/5),[2/5,3/5)", "value": "1/10"}, {"set": "empty", "value": "1/1"},
                {"set": "[1/5,2/5),[3/5,1/1)", "value": "9/10"}]},
    {"pieces": [{"set": "[0/1,1/3)", "value": "7/8"}, {"set": "[1/3,1/1)", "value": "1/4"}]},
    {"pieces": [{"set": "[1/2,3/4)", "value": "0/1"},
                {"set": "[0/1,1/2),[3/4,1/1)", "value": "3/5"}]},
    {"pieces": [{"set": "[0/1,1/3)", "value": "1/10"}, {"set": "[1/3,1/1)", "value": "1/1"}]},
]}


class TestClassFilesBuildNoFunction:
    """A class file is read into its class table: no job on one builds a
    ``Function``, and each report is the one the same job writes when
    functions may be built."""

    @pytest.fixture
    def jobs(self, tmp_path):
        # a STEP class whose functions share one list of pieces, the coarse
        # class, and a TABULAR class
        save_class(full_join_family(2, 1, 3, F(1, 5)), tmp_path / "shared.json")
        write_json(COARSE_CLASS, tmp_path / "coarse.json")
        save_class(generate("all_patterns(3)"), tmp_path / "tabular.json")
        jobs = []
        for name in ("shared", "coarse", "tabular"):
            path = str(tmp_path / f"{name}.json")
            cert = tmp_path / f"{name}-cert.json"
            gap_dim(load_class(path), F(1, 10)).certificate.save(cert)
            jobs += [
                ("dim", "--class", path, "--gamma", "1/10"),
                ("verify", "--class", path, "--cert", str(cert), "--gamma", "1/10"),
                ("segments", "--class", path, "--gamma", "1/5"),
            ]
            if name == "tabular":
                continue
            tree = tmp_path / f"{name}-tree.json"
            built = intersection_tree_build(load_class(path), F(1, 5), 2)
            built.tree.save(tree)
            jobs += [
                ("join", "--class", path, "--gamma", "1/5", "--k", "1", "--kp", "3"),
                ("itree", "build", "--class", path, "--gamma", "1/5", "--depth", "2"),
                ("itree", "verify", "--class", path, "--gamma", "1/5", "--tree", str(tree),
                 "--functions", ",".join(map(str, built.functions))),
                ("discrepancy", "--class", path, "--process", "iid", "--m", "200", "--seed", "4"),
                ("gc-curve", "--class", path, "--process", "rotation:2/7", "--m-grid", "10,50",
                 "--replicates", "2", "--seed", "4"),
                ("bound-check", "--class", path, "--process", "iid", "--gamma", "1/10",
                 "--m", "100", "--replicates", "2", "--seed", "4"),
            ]
        return jobs

    def test_reports_match_a_run_that_may_build_functions(self, monkeypatch, jobs):
        want = [run_main(*job) for job in jobs]
        assert [(job[0], code, err) for job, (code, _, err) in zip(jobs, want)] == [
            (job[0], 0, "") for job in jobs
        ]

        def refuse(cls, *args):
            raise AssertionError("a CLI job on a class file built a Function")

        monkeypatch.setattr(Function, "step", classmethod(refuse))
        monkeypatch.setattr(Function, "tabular", classmethod(refuse))
        assert [run_main(*job) for job in jobs] == want


class TestReportLayout:
    """Every command writes its report to stdout and ``--out`` as
    ``oracle_dumps`` lays it out: indent 2, keys sorted, one final newline."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("inputs")
        save_class(thresholds(8), root / "class.json")
        gap_dim(thresholds(8), F(1, 4)).certificate.save(root / "cert.json")
        built = intersection_tree_build(full_join_family(2, 1, 3, F(1, 5)), F(1, 5), 2)
        built.tree.save(root / "tree.json")
        (root / "markov.json").write_text(json.dumps({
            "variant": "markov",
            "transition": [["1/2", "1/2"], ["1/1", "0/1"]],
            "emissions": [
                {"kind": "point", "at": "1/10"},
                {"kind": "uniform", "lo": "1/2", "hi": "9/10"},
            ],
        }))
        return root, ",".join(map(str, built.functions))

    COMMAND_LINES = {
        "dim": "dim --class {root}/class.json --gamma 1/4",
        "verify": "verify --class {root}/class.json --cert {root}/cert.json --gamma 1/4",
        "segments": "segments --class thresholds(3) --gamma 1/4",
        "join": "join --class full_join_family(1,1,3,1/5) --gamma 1/5 --k 1 --kp 3",
        "ptree": "ptree --depth 3 --leaves 0,1,2,3 --c 1/2",
        "subtree": "subtree --tree {root}/tree.json --K 5",
        "itree build": "itree build --class full_join_family(2,1,3,1/5) --gamma 1/5 --depth 2",
        "itree verify": "itree verify --class full_join_family(2,1,3,1/5) --gamma 1/5"
                        " --tree {root}/tree.json --functions {functions}",
        "discrepancy": "discrepancy --class thresholds(4) --process iid --m 20 --seed 5",
        "gc-curve": "gc-curve --class thresholds(4) --process rotation --m-grid 5,10"
                    " --replicates 2 --seed 3",
        "bound-check": "bound-check --class thresholds(4) --process {root}/markov.json"
                       " --gamma 1/4 --m 30 --replicates 2 --seed 9",
        "demo-rotation": "demo-rotation --m 20 --seed 7",
    }

    def test_every_command_is_listed(self):
        listed = {line.split()[0] for line in self.COMMAND_LINES.values()}
        assert listed == set(COMMANDS) and len(self.COMMAND_LINES) == 12

    @pytest.mark.parametrize("name", sorted(COMMAND_LINES))
    def test_report_is_a_fixed_point_of_the_oracle(self, capsys, tmp_path, inputs, name):
        root, functions = inputs
        argv = self.COMMAND_LINES[name].format(root=root, functions=functions).split()
        code, out = run(capsys, *argv, "--out", str(tmp_path / "out"))
        assert code == 0
        assert oracle_dumps(json.loads(out)) + "\n" == out
        assert (tmp_path / "out" / "report.json").read_text() == out


README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def readme_command_lines():
    """Every ``gapdim ...`` line of the README's code blocks, continuation
    lines joined, as argument lists without the ``gapdim``."""
    lines, inside = [], False
    with open(README) as fh:
        for line in fh:
            if line.startswith("```"):
                inside = not inside
            elif inside and lines and lines[-1].endswith("\\"):
                lines[-1] = lines[-1][:-1] + line.strip()
            elif inside and line.startswith("gapdim "):
                lines.append(line.strip())
    return [shlex.split(line)[1:] for line in lines]


README_LINES = readme_command_lines()


class TestReadmeExamples:
    """The README's CLI examples run as written, on the input files they name."""

    @pytest.fixture
    def readme_dir(self, tmp_path, monkeypatch):
        FC = full_join_family(1, 1, 3, F(1, 5))
        save_class(FC, tmp_path / "class.json")
        join_shatter(FC, 1, 3, F(1, 5)).save(tmp_path / "cert.json")
        built = intersection_tree_build(full_join_family(2, 1, 3, F(1, 5)), F(1, 5), 2)
        built.tree.save(tmp_path / "tree.json")
        monkeypatch.chdir(tmp_path)
        return tmp_path

    def test_every_command_has_an_example(self):
        assert sorted(argv[0] for argv in README_LINES) == sorted(COMMANDS)

    @pytest.mark.parametrize("argv", README_LINES, ids=[argv[0] for argv in README_LINES])
    def test_example_exits_0(self, capsys, readme_dir, argv):
        code, out = run(capsys, *argv)
        assert code == 0, out
        assert json.loads(out)["report"]

    def test_the_quoted_closed_orbit_discrepancy(self, capsys):
        code, out = run(
            capsys, "discrepancy", "--class", "thresholds(7)", "--process", "rotation",
            "--m", "1548008755920", "--seed", "1",
        )
        assert code == 0
        with open(README) as fh:
            assert "reads `gamma_m = 1/3612020430480`" in fh.read().replace("\n", " ")
        assert json.loads(out)["report"]["gamma_m"]["exact"] == "1/3612020430480"
