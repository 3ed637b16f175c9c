import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gapdim import (
    full_join_family, intersection_tree_build, join_shatter, parse_rational, thresholds
)
from gapdim.cli import main
from gapdim.funclass import class_to_json, save_class
from gapdim.shatter import ShatterCertificate

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
        code, out = run(
            capsys, "dim", "--class", "thresholds(8)", "--gamma", "1/4",
            "--mode", "naive",
        )
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
# kind: (a well-formed document, keys it cannot do without, keys whose
# value is replaced by junk, the command reading the file at {path})
INPUT_FILES = {
    "class": (
        class_to_json(thresholds(2)), {"kind", "functions"}, ["kind", "functions"],
        ("dim", "--class", "{path}", "--gamma", "1/4"),
    ),
    "process": (
        {
            "variant": "markov",
            "transition": [["1/2", "1/2"], ["1/1", "0/1"]],
            "emissions": [{"kind": "point", "at": "1/10"}, {"kind": "point", "at": "1/2"}],
        },
        {"variant", "transition", "emissions"}, ["variant", "transition", "emissions"],
        ("discrepancy", "--class", "thresholds(4)", "--process", "{path}",
         "--m", "10", "--seed", "1"),
    ),
    "cert": (
        {"points": ["3/16"], "alpha": "1/2", "selector": {"0": 1, "1": 0}},
        {"points", "alpha", "selector"}, ["points", "alpha", "selector"],
        ("verify", "--class", "thresholds(8)", "--gamma", "1/4", "--cert", "{path}"),
    ),
    "tree": (
        intersection_tree_build(full_join_family(2, 1, 3, Fraction(1, 5)), Fraction(1, 5), 2)
        .tree.to_json(),
        {"depth"}, ["nodes"],
        ("itree", "verify", "--class", TREE_CLASS, "--gamma", "1/5",
         "--tree", "{path}", "--functions", "0,1"),
    ),
}


def documents(kind):
    valid, required, replaceable, _ = INPUT_FILES[kind]
    arbitrary = JSON.filter(lambda d: not (isinstance(d, dict) and required <= d.keys()))
    broken = st.builds(
        lambda key, junk: {**valid, key: junk}, st.sampled_from(replaceable), JUNK
    )
    return arbitrary | broken


def not_int(text):
    try:
        int(text)
    except ValueError:
        return True
    return False


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
        path = workdir / f"{kind}.json"
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
        from gapdim import Function, FunctionClass
        from gapdim.funclass import save_class as save

        FC = FunctionClass([Function.constant(F(1, 2))], "consts")
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

    def test_bound_check_pass(self, capsys):
        code, out = run(
            capsys, "bound-check", "--class", "thresholds(8)", "--process", "iid",
            "--gamma", "1/10", "--m", "2000", "--replicates", "2", "--seed", "5",
        )
        assert code == 0
        assert json.loads(out)["report"]["verdict"] == "PASS"

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
