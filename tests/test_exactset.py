import json
import json.encoder
import math
import re
from collections import OrderedDict
from decimal import Decimal
from enum import IntEnum
from fractions import Fraction
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from gapdim import (
    Function, exactset, full_join_family, funclass, gap_dim, intersection_tree_build,
    intersection_tree_verify, join, join_shatter, k_of_gamma, maximal_join_from_tree,
    ptree_witness, random_step, rotation_counterexample, shatter, shatters, thresholds,
    trajectory_indicators, treelab,
)
from gapdim.ergoproc import Emission, IIDUniformSpec, MarkovSpec, RotationSpec, bound_check
from gapdim.exactset import (
    IntervalUnion,
    decimal12,
    dumps,
    format_rational,
    json_int,
    parse_rational,
    read_json_object,
    write_json,
)
from gapdim.funclass import (
    Domain, cell_bands, class_to_json, save_class, segment_partition, values_at,
)
from gapdim.treelab import pow2_text

from oracles import (
    OracleIntervalUnion,
    fraction_pairs,
    oracle_dumps,
    oracle_integral,
    oracle_intersection_tree_build,
    oracle_intersection_tree_verify,
    oracle_join,
    oracle_segment_partition,
    oracle_step,
    union_of,
)

F = Fraction


def iu(*pairs):
    return union_of([(F(a, b), F(c, d)) for a, b, c, d in pairs])


# Small rational endpoints keep hypothesis cases exact and readable.
endpoints = st.fractions(min_value=0, max_value=1, max_denominator=32)


@st.composite
def interval_unions(draw):
    n = draw(st.integers(min_value=0, max_value=4))
    pairs = []
    for _ in range(n):
        a = draw(endpoints)
        b = draw(endpoints)
        if a != b:
            pairs.append((min(a, b), max(a, b)))
    return union_of(pairs)


class TestMeasure:
    def test_single_interval(self):
        assert iu((0, 1, 1, 2)).measure == F(1, 2)

    def test_empty(self):
        assert IntervalUnion(1).measure == 0

    def test_disjoint_sum(self):
        assert iu((0, 1, 1, 4), (1, 2, 3, 4)).measure == F(1, 2)


class TestIntersect:
    def test_overlap(self):
        assert iu((0, 1, 1, 2)).intersect(iu((1, 4, 3, 4))) == iu((1, 4, 1, 2))

    def test_with_empty(self):
        assert not iu((0, 1, 1, 2)).intersect(IntervalUnion(1))

    def test_endpoint_arithmetic(self):
        a = iu((0, 1, 1, 8), (1, 2, 5, 8))
        b = iu((1, 16, 9, 16))
        assert a.intersect(b) == iu((1, 16, 1, 8), (1, 2, 9, 16))


class TestNormalization:
    def test_merges_touching(self):
        assert iu((0, 1, 1, 4), (1, 4, 1, 2)) == iu((0, 1, 1, 2))

    def test_merges_overlap(self):
        assert iu((0, 1, 3, 8), (1, 4, 1, 2)) == iu((0, 1, 1, 2))

    def test_drops_empty_pairs(self):
        assert not union_of([(F(1, 2), F(1, 2))])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            union_of([(F(1, 2), F(3, 2))])
        with pytest.raises(ValueError):
            union_of([(F(3, 4), F(1, 4))])

    @given(interval_unions())
    @settings(max_examples=100, deadline=None)
    def test_idempotent(self, u):
        assert union_of(fraction_pairs(u)) == u

    @pytest.mark.parametrize("x", [F(1, 2), F(0), (F(0), F(1)), 5])
    def test_membership_is_a_type_error(self, x):
        # a union defines neither __contains__ nor __iter__: `in` has no fallback
        with pytest.raises(TypeError):
            x in IntervalUnion.full()


class TestConstructorEndpoints:
    """The constructor takes integer pairs over D; rationals come in only
    through ``from_text`` (and ``union_of`` in the tests)."""

    @pytest.mark.parametrize("lo,hi", [
        (F(1, 3), F(2, 3)), (0, 1), (0, F(1, 2)), (F(6, 8), 1),
    ])
    def test_each_endpoint_is_its_fraction(self, lo, hi):
        u = union_of([(lo, hi), (F(1, 7), F(1, 5))])
        assert_matches(u, OracleIntervalUnion([(F(lo), F(hi)), (F(1, 7), F(1, 5))]))

    @pytest.mark.parametrize("pairs", [
        [(0, F(1, 2))], [(F(1, 4), 3)], [(0, 0.5)], [(0, 1), (2, 3.0)],
    ])
    def test_a_rational_endpoint_is_a_type_error(self, pairs):
        with pytest.raises(TypeError):
            IntervalUnion(4, pairs)


class TestAlgebra:
    @given(interval_unions(), interval_unions())
    @settings(max_examples=100, deadline=None)
    def test_intersect_commutative(self, a, b):
        assert a.intersect(b) == b.intersect(a)

    @given(interval_unions(), interval_unions(), interval_unions())
    @settings(max_examples=60, deadline=None)
    def test_intersect_associative(self, a, b, c):
        assert a.intersect(b).intersect(c) == a.intersect(b.intersect(c))

    @given(interval_unions(), interval_unions())
    @settings(max_examples=100, deadline=None)
    def test_intersect_monotone_in_measure(self, a, b):
        assert a.intersect(b).measure <= min(a.measure, b.measure)

    @given(interval_unions(), interval_unions())
    @settings(max_examples=100, deadline=None)
    def test_union_measure(self, a, b):
        union = IntervalUnion.union_all((a, b))
        assert union.measure == a.measure + b.measure - a.intersect(b).measure


# Raw pair lists: unsorted, overlapping, touching, empty (lo == hi) pairs.
raw_pairs = st.lists(
    st.tuples(endpoints, endpoints).map(sorted).map(tuple), max_size=6
)


def assert_matches(u, ref):
    assert fraction_pairs(u) == list(ref)
    assert u.measure == ref.measure
    assert u.to_text() == ref.to_text()
    assert u.denominator == math.lcm(*(x.denominator for pair in ref for x in pair))


class TestMatchesOracle:
    """The integer-pair union against the Fraction-pair reference."""

    @given(raw_pairs)
    @settings(max_examples=200, deadline=None)
    def test_normalization(self, pairs):
        assert_matches(union_of(pairs), OracleIntervalUnion(pairs))

    @given(st.integers(min_value=1, max_value=24), st.data())
    @settings(max_examples=200, deadline=None)
    def test_integer_pairs(self, D, data):
        ends = st.integers(min_value=0, max_value=D)
        pairs = data.draw(st.lists(st.tuples(ends, ends).map(sorted).map(tuple), max_size=6))
        u = IntervalUnion(D, pairs)
        assert_matches(u, OracleIntervalUnion((F(lo, D), F(hi, D)) for lo, hi in pairs))
        assert u == union_of([(F(lo, D), F(hi, D)) for lo, hi in pairs])

    @given(st.lists(raw_pairs, max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_union_all(self, lists):
        u = IntervalUnion.union_all(union_of(p) for p in lists)
        assert_matches(u, OracleIntervalUnion.union_all(OracleIntervalUnion(p) for p in lists))

    @given(raw_pairs, raw_pairs)
    @settings(max_examples=200, deadline=None)
    def test_intersect(self, a, b):
        u = union_of(a).intersect(union_of(b))
        assert_matches(u, OracleIntervalUnion(a).intersect(OracleIntervalUnion(b)))

    @given(raw_pairs, raw_pairs)
    @settings(max_examples=200, deadline=None)
    def test_oracle_intersect_is_canonical(self, a, b):
        """The oracle's intersection skips ``__init__``: its pieces are
        already what ``__init__`` would make of them."""
        meet = OracleIntervalUnion(a).intersect(OracleIntervalUnion(b))
        assert meet.ivs == OracleIntervalUnion(meet.ivs).ivs

    @given(raw_pairs)
    @settings(max_examples=150, deadline=None)
    def test_text_round_trip(self, pairs):
        u = union_of(pairs)
        back = IntervalUnion.from_text(OracleIntervalUnion(pairs).to_text())
        assert back == u and hash(back) == hash(u)


def _oracle_join_case():
    J, gamma = full_join_family(2, 1, 3, F(1, 5)), F(1, 5)
    families = [(parts[0], parts[2]) for parts in
                (segment_partition(J, i, gamma) for i in range(len(J)))]
    want = [(c.cell.to_text(), c.signature) for c in join(J, gamma, 1, 3)]
    return lambda: oracle_join(families), want


def _oracle_integral_case():
    f = thresholds(4)[1]  # the indicator of [1/2, 1)
    return lambda: oracle_integral(f, F(1, 3), F(7, 8)), F(3, 8)


def _oracle_step_case():
    pieces = [iu((0, 1, 1, 3), (2, 3, 1, 1)), iu((1, 3, 2, 3))]
    want = Function.step(pieces, [F(1, 2), 1])._row

    def run():
        with pytest.raises(ValueError, match="cover"):
            oracle_step(pieces[:1], [1])
        return oracle_step(pieces, [F(1, 2), 1])._row

    return run, want


def _oracle_segment_partition_case():
    FC, gamma = random_step(5, 16, 7, 2), F(1, 4)
    return lambda: oracle_segment_partition(FC[1], gamma), segment_partition(FC, 1, gamma)


def _oracle_tree_build_case():
    J, gamma = full_join_family(2, 1, 3, F(1, 5)), F(1, 5)
    built = intersection_tree_build(J, gamma, 2)
    want = (built.tree.to_json(), built.functions)

    def run():
        got = oracle_intersection_tree_build(J, gamma, 2, 1_000_000)
        return got.tree.to_json(), got.functions

    return run, want


def _oracle_tree_verify_case():
    J, gamma = full_join_family(2, 1, 3, F(1, 5)), F(1, 5)
    built = intersection_tree_build(J, gamma, 2)
    return lambda: oracle_intersection_tree_verify(built.tree, J, gamma, built.functions), True


ORACLE_CASES = [
    ("oracle_join", _oracle_join_case),
    ("oracle_integral", _oracle_integral_case),
    ("oracle_step", _oracle_step_case),
    ("oracle_segment_partition", _oracle_segment_partition_case),
    ("oracle_intersection_tree_build", _oracle_tree_build_case),
    ("oracle_intersection_tree_verify", _oracle_tree_verify_case),
]


@pytest.mark.parametrize("case", [case for _, case in ORACLE_CASES],
                         ids=[name for name, _ in ORACLE_CASES])
def test_oracle_does_its_own_set_algebra(monkeypatch, case):
    """An oracle's answer holds with the library's set algebra switched
    off: its inputs and the library's answer are built first."""
    run, want = case()

    def refuse(*args):
        raise AssertionError("an oracle called the library's set algebra")

    for name in ("intersect", "union_all", "full"):
        monkeypatch.setattr(IntervalUnion, name, refuse)
    assert run() == want


BAND_CASES = [
    (name, case) for name, case in ORACLE_CASES
    if name in ("oracle_segment_partition", "oracle_intersection_tree_build",
                "oracle_intersection_tree_verify")
]


@pytest.mark.parametrize("case", [case for _, case in BAND_CASES],
                         ids=[name for name, _ in BAND_CASES])
def test_oracle_bands_its_own_values(monkeypatch, case):
    """A segment or tree oracle's answer holds with the library's band and
    mask tables switched off: its inputs and the library's answer are
    built first."""
    run, want = case()

    def refuse(*args):
        raise AssertionError("an oracle called the library's band tables")

    for module in (funclass, shatter, treelab):
        for name in ("_value_bands", "cell_bands", "band_masks", "segment_of_mask"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    assert run() == want


class TestDenominator:
    def test_equal_sets_over_different_denominators(self):
        a = IntervalUnion(8, [(4, 8)])
        b = union_of([(F(1, 2), 1)])
        c = IntervalUnion(6, [(3, 4), (4, 6)])
        assert a == b == c and hash(a) == hash(b) == hash(c)
        assert a.denominator == 2 and fraction_pairs(a) == [(F(1, 2), F(1))]

    def test_empty_and_full(self):
        assert IntervalUnion(7, [(3, 3)]) == IntervalUnion(1)
        assert IntervalUnion(1).denominator == 1
        assert IntervalUnion(5, [(0, 2), (2, 5)]) == IntervalUnion.full()
        assert IntervalUnion.full().denominator == 1

    def test_scaled(self):
        u = iu((1, 4, 1, 2), (2, 3, 1, 1))
        assert u.denominator == 12
        assert u.scaled(12) == ((3, 6), (8, 12))
        assert u.scaled(24) == ((6, 12), (16, 24))
        with pytest.raises(ValueError):
            u.scaled(18)
        with pytest.raises(ValueError):
            u.scaled(0)

    @pytest.mark.parametrize("pairs, text", [
        ([(F(1, 2), F(3, 2))], "invalid interval [1/2, 3/2) in [0,1)"),
        ([(F(3, 4), F(1, 4))], "invalid interval [3/4, 1/4) in [0,1)"),
        ([(F(-1, 3), F(1, 3))], "invalid interval [-1/3, 1/3) in [0,1)"),
        ([(0, F(1, 2)), (F(1, 2), 2)], "invalid interval [1/2, 2) in [0,1)"),
        # two bad pairs: the first as given is named, not the first in sorted order
        ([(F(3, 4), F(5, 4)), (F(-1, 4), F(1, 2))], "invalid interval [3/4, 5/4) in [0,1)"),
    ])
    def test_bad_interval_message(self, pairs, text):
        written = ",".join(f"[{F(lo)},{F(hi)})" for lo, hi in pairs)
        for build in (union_of, OracleIntervalUnion, lambda _: IntervalUnion.from_text(written)):
            with pytest.raises(ValueError) as err:
                build(pairs)
            assert str(err.value) == text
        D = math.lcm(*(F(x).denominator for pair in pairs for x in pair))
        ints = [(F(lo) * D, F(hi) * D) for lo, hi in pairs]
        with pytest.raises(ValueError) as err:
            IntervalUnion(D, [(int(lo), int(hi)) for lo, hi in ints])
        assert str(err.value) == text

    def test_needs_a_positive_denominator(self):
        for D in (0, -3):
            with pytest.raises(ValueError, match=f"denominator {D} must be positive"):
                IntervalUnion(D, [])


class TestText:
    def test_round_trip(self):
        u = iu((0, 1, 1, 8), (1, 2, 5, 8))
        assert IntervalUnion.from_text(u.to_text()) == u

    @given(interval_unions())
    @settings(max_examples=100, deadline=None)
    def test_round_trip_random(self, u):
        assert IntervalUnion.from_text(u.to_text()) == u

    def test_empty_text(self):
        assert IntervalUnion(1).to_text() == "empty"
        assert not IntervalUnion.from_text("empty")

    def test_format(self):
        assert iu((1, 4, 1, 2)).to_text() == "[1/4,1/2)"

    @pytest.mark.parametrize("text, pairs", [
        ("", []),
        ("  empty ", []),
        ("[0/1,1/2),[3/4,1/1)", [(0, F(1, 2)), (F(3, 4), 1)]),
        ("[0/1,1/2), \t[3/4,1/1)", [(0, F(1, 2)), (F(3, 4), 1)]),
        (" [ 1/4 , 1/2 ) ", [(F(1, 4), F(1, 2))]),
    ])
    def test_accepted_forms(self, text, pairs):
        assert IntervalUnion.from_text(text) == union_of(pairs)

    @pytest.mark.parametrize("text", [
        "[0/1,1/2",  # no closing parenthesis
        "[1/2,1/1))",  # a repeated one
        "[0/1,1/2),[1/2,1/1",
        "[0/1,1/4)),[1/2,1/1)",
        "[0/1,1/2)x",
        "x[0/1,1/2)",
        "[0/1,1/4) ,[1/2,1/1)",
        "[0/1,1/4),",
        "[0/1,1/4)[1/2,1/1)",
        "[0/1,1/4,1/2)",
        "(0/1,1/2)",
        "[0/1,1/2]",
        "nonempty",
    ])
    def test_malformed_text_is_rejected(self, text):
        with pytest.raises(ValueError, match="malformed interval union"):
            IntervalUnion.from_text(text)


class TestRationalText:
    def test_parse(self):
        assert parse_rational("3/10") == F(3, 10)
        assert parse_rational("2") == 2

    def test_zero_denominator_is_value_error(self):
        with pytest.raises(ValueError):
            parse_rational("1/0")

    @given(st.integers(), st.integers(1, 10**30))
    def test_format_round_trips(self, num, den):
        assert parse_rational(format_rational(F(num, den))) == F(num, den)
        assert parse_rational(str(num)) == num

    @pytest.mark.parametrize("text", [
        "1_0/20", "+1/1", " 1 / 2 ", "1/2 ", "1 /2", "1/+2", "1/-2", "--1", "0x1",
        "1/2/3", "1.5", "", "/2", "1/", "\u0661/\u0662", "1/2\n",
    ])
    def test_only_canonical_spellings(self, text):
        with pytest.raises(ValueError, match="cannot parse rational"):
            parse_rational(text)

    @pytest.mark.parametrize("text", [
        "[1_0/20,+1/1)", "[0/1,1 / 2)", "[0/1,1/+2)", "[0/1,\u0661/2)", "[0/1,1.0)",
    ])
    def test_union_endpoints_are_canonical(self, text):
        # whitespace may pad an endpoint, as in test_accepted_forms, but an
        # endpoint itself is a canonical rational
        with pytest.raises(ValueError):
            IntervalUnion.from_text(text)

    @pytest.mark.parametrize(
        "value,shown", [(0.5, "0.5"), (1, "1"), (None, "null"), (["1/2"], '["1/2"]')]
    )
    def test_non_strings_name_their_value(self, value, shown):
        with pytest.raises(ValueError, match=re.escape(f"must be a rational string, got {shown}")):
            parse_rational(value)

    def test_format(self):
        assert format_rational(F(1, 2)) == "1/2"
        assert format_rational(2) == "2/1"

    @pytest.mark.parametrize("q, shown", [
        (F(1, 3), "0.333333333333"),
        (2**1024 - 2**971, "1.79769313486e+308"),  # the largest float
        # past the float range, from the exact value
        (2**1024, "1.79769313486e+308"),
        (10**401, "1e+401"),
        (15 * 10**400, "1.5e+401"),
        (F(-(10**401), 3), "-3.33333333333e+400"),
        (123456789012567 * 10**400, "1.23456789013e+414"),
        # below the normal floats, from the exact value; 0 stays 0
        (F(1, 10**400), "1e-400"),
        (F(-1, 10**400), "-1e-400"),
        (F(1, 10**320), "1e-320"),
        (F(2) ** -1022, "2.22507385851e-308"),  # the least normal float
        (0, "0"),
    ])
    def test_decimal12(self, q, shown):
        assert decimal12(q) == shown
        assert decimal12(F(q)) == shown


class TestJsonFiles:
    """One writer serves class, certificate and tree files."""

    def test_the_three_savers_write_the_same_bytes(self, tmp_path):
        cert = gap_dim(thresholds(8), Fraction(1, 4)).certificate
        tree = intersection_tree_build(full_join_family(2, 1, 3, Fraction(1, 5)), Fraction(1, 5), 2)
        documents = [
            (lambda path: save_class(thresholds(3), path), class_to_json(thresholds(3))),
            (cert.save, cert.to_json()),
            (tree.tree.save, tree.tree.to_json()),
        ]
        for save, doc in documents:
            save(tmp_path / "saved.json")
            write_json(doc, tmp_path / "written.json")
            expected = oracle_dumps(doc) + "\n"
            assert (tmp_path / "saved.json").read_text() == expected
            assert oracle_dumps(json.loads(expected)) + "\n" == expected
            assert (tmp_path / "written.json").read_text() == expected
            assert read_json_object(tmp_path / "saved.json") == json.loads(expected)

    @pytest.mark.parametrize("value", [1.0, 2.9, True, False, "3", None, [1]])
    def test_only_json_integers_pass(self, value):
        shown = re.escape(json.dumps(value))
        with pytest.raises(ValueError, match=f"depth must be an integer, got {shown}$"):
            json_int(value, "depth")
        assert json_int(-3, "depth") == -3 and json_int(10**30, "depth") == 10**30


class Level(IntEnum):
    LOW = 1
    HIGH = 2**70


class Pair(NamedTuple):
    first: object
    second: object


TRICKY_TEXT = ['"', "\\", "\x00\x1f\x7f", "\n\t", "é", "漢字", "\U0001f600", "\ud800", " "]
json_text = st.text(st.characters(exclude_categories=()), max_size=6) | st.sampled_from(TRICKY_TEXT)
json_floats = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0])
json_ints = (
    st.integers()
    | st.integers(min_value=2**64, max_value=2**200)
    | st.integers(min_value=-(2**200), max_value=-(2**64))
)
json_scalars = (
    json_text | json_ints | json_floats | st.booleans() | st.none() | st.sampled_from(Level)
)
# one kind of key per object, so that most objects sort; a mixed object
# must fail in both writers alike
json_key_kinds = st.sampled_from([
    json_text, json_ints, json_floats, st.booleans() | st.none(), st.sampled_from(Level),
    json_text | json_ints | st.none(),
])


def json_documents(leaves):
    """Nested lists, tuples, dicts, OrderedDicts and NamedTuples over `leaves`."""
    def containers(children):
        objects = json_key_kinds.flatmap(lambda keys: st.dictionaries(keys, children, max_size=4))
        return (
            st.lists(children, max_size=4)
            | st.lists(children, max_size=4).map(tuple)
            | objects
            | objects.map(OrderedDict)
            | st.builds(Pair, children, children)
        )
    return st.recursive(leaves, containers, max_leaves=24)


def poisoned(documents):
    """Documents holding a value json cannot encode somewhere inside."""
    def around(inner):
        return (
            st.tuples(st.lists(documents, max_size=2), inner, st.lists(documents, max_size=2))
            .map(lambda t: [*t[0], t[1], *t[2]])
            | st.tuples(st.dictionaries(json_text, documents, max_size=2), json_text, inner)
            .map(lambda t: {**t[0], t[1]: t[2]})
        )
    return st.recursive(st.sampled_from([Fraction(1, 3), {1, 2}]), around, max_leaves=4)


def outcome(write, doc):
    """The text written, or the type and message of the error raised."""
    try:
        return write(doc)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


@pytest.fixture(params=["c", "python"], scope="class")
def encoder(request):
    """json's C encoder, or none as on an interpreter without ``_json``."""
    with pytest.MonkeyPatch.context() as patch:
        if request.param == "python":
            patch.setattr(json.encoder, "c_make_encoder", None)
        exactset._layout.cache_clear()
        yield request.param
    exactset._layout.cache_clear()


@pytest.mark.usefixtures("encoder")
class TestDumps:
    """``dumps`` writes ``oracle_dumps``'s bytes, with json's C encoder and without."""

    @settings(max_examples=300, deadline=None)
    @given(json_documents(json_scalars))
    def test_matches_the_oracle(self, doc):
        assert outcome(dumps, doc) == outcome(oracle_dumps, doc)

    @settings(max_examples=100, deadline=None)
    @given(poisoned(json_documents(json_scalars)))
    def test_unencodable_values_raise_as_in_json(self, doc):
        expected = outcome(oracle_dumps, doc)
        assert expected[0] is TypeError
        assert outcome(dumps, doc) == expected

    @pytest.mark.parametrize("doc", [
        {}, [], (), OrderedDict(), [[], {}, ()], {"": {"": []}}, "x", 0, None, -0.0,
        {1: "a", 2.5: [True], None: {}, False: (None,)}, [Level.LOW, Pair(1, [2])],
        {Level.HIGH: Level.LOW}, {(1,): 2}, {Decimal(1): 2}, {"a": 1, 1: [2]},
        [Fraction(1, 2)], {"s": {3}},
    ])
    def test_edge_documents(self, doc):
        assert outcome(dumps, doc) == outcome(oracle_dumps, doc)

    def test_the_encoder_in_use(self, encoder):
        assert exactset._layout(0)[2]([1, "a"]) == '[1,\n  "a"]'
        built_in_c = json.encoder.c_make_encoder is not None
        assert built_in_c == (encoder == "c")


def _entry_points():
    """Every library call that takes a rational, as (name, call of x)."""
    T = thresholds(8)
    J = full_join_family(1, 1, 3, F(1, 5))
    built = intersection_tree_build(J, F(1, 5), 1)
    P = Emission.point(F(1, 2))
    return [
        ("gap_dim", lambda x: gap_dim(T, x)),
        ("k_of_gamma", k_of_gamma),
        ("cell_bands", lambda x: cell_bands(T, x)),
        ("shatters gamma", lambda x: shatters(T, [F(1, 2)], x)),
        ("shatters points", lambda x: shatters(T, [x], F(1, 4))),
        ("join_shatter", lambda x: join_shatter(J, 1, 3, x)),
        ("Function.step", lambda x: Function.step([IntervalUnion.full()], [x])),
        ("Function.tabular values", lambda x: Function.tabular([0], [x])),
        ("Function.tabular points", lambda x: Function.tabular([x], [0])),
        ("Domain", lambda x: Domain([x])),
        ("values_at", lambda x: values_at(T, [x])),
        ("Emission.point", Emission.point),
        ("Emission.uniform lo", lambda x: Emission.uniform(x, 1)),
        ("Emission.uniform hi", lambda x: Emission.uniform(0, x)),
        ("RotationSpec", lambda x: RotationSpec(theta=x)),
        ("MarkovSpec", lambda x: MarkovSpec(((x, F(3, 4)), (1, 0)), (P, P))),
        ("full_join_family", lambda x: full_join_family(1, 1, 3, x)),
        ("trajectory_indicators theta", lambda x: trajectory_indicators(x, [F(1, 7)], 2)),
        ("trajectory_indicators base", lambda x: trajectory_indicators(F(1, 9), [x], 2)),
        ("rotation_counterexample", lambda x: rotation_counterexample(10, 1, x)),
        ("bound_check", lambda x: bound_check(T, IIDUniformSpec(), x, 10, 1, 1)),
        ("intersection_tree_build", lambda x: intersection_tree_build(J, x, 1)),
        ("intersection_tree_verify",
         lambda x: intersection_tree_verify(built.tree, J, x, built.functions)),
        ("maximal_join_from_tree", lambda x: maximal_join_from_tree(built, J, x)),
        ("ptree_witness", lambda x: ptree_witness(built.tree, [0, 1], x)),
        ("pow2_text", lambda x: pow2_text(3, x)),
        ("pow2_text past 2**16", lambda x: pow2_text(1 << 16, x)),
        ("format_rational", format_rational),
    ]


ENTRY_POINTS = _entry_points()


@pytest.mark.parametrize("x", [0.25, "1/4"], ids=repr)
@pytest.mark.parametrize("name,call", ENTRY_POINTS, ids=[name for name, _ in ENTRY_POINTS])
def test_a_rational_argument_refuses_floats_and_strings(name, call, x):
    """Every rational argument is an int or a Fraction: a float or a string
    is a TypeError naming its type, never a binary value or a parse."""
    need = f"^expected an int or a Fraction, got {type(x).__name__}$"
    with pytest.raises(TypeError, match=need):
        call(x)


def test_as_fraction_keeps_a_fraction_and_converts_an_int():
    q = F(3, 7)
    assert exactset.as_fraction(q) is q
    assert exactset.as_fraction(3) == F(3) and type(exactset.as_fraction(3)) is Fraction
