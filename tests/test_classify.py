"""Invocation and trajectory-classification tests."""

import pytest

from conftest import make_case, make_param, make_tool
from paramfuzz.classify import (
    CATEGORIES,
    CATEGORY_TITLES,
    FailureLabel,
    ObservedInvocation,
    classify_invocation,
    classify_trajectory,
)
from paramfuzz.corpus import OracleInvocation
from paramfuzz.errors import SchemaViolation, ToolMismatch


def board_tool():
    return make_tool(
        "get_threads",
        parameters=(
            make_param("board", "string", "The board code to read from.", True),
            make_param("sort", "string", "Ordering.", False, enum_values=("bump", "new")),
        ),
    )


def board_oracle(**overrides):
    args = {"board": "mu"}
    args.update(overrides)
    return OracleInvocation(
        tool_name="get_threads",
        arguments=args,
        needed_params=frozenset(args),
    )


def obs(arguments, tool_name="get_threads"):
    return ObservedInvocation.of(tool_name, arguments)


def svc_tool():
    return make_tool(
        "svc",
        parameters=(
            make_param("query", "string", "Q.", True),
            make_param("limit", "integer", "L.", False, range=(1, 100)),
            make_param("mode", "string", "M.", False, enum_values=("brief", "full")),
        ),
    )


def svc_oracle():
    return OracleInvocation(
        tool_name="svc",
        arguments={"query": "alpha", "mode": "brief"},
        needed_params=frozenset({"query", "mode"}),
    )


class TestCategoryOrder:
    def test_canonical_order(self):
        assert CATEGORIES == (
            "task_deviation",
            "specification_mismatch",
            "hallucination_name",
            "missing_information",
            "redundant_information",
        )

    def test_titles(self):
        assert [CATEGORY_TITLES[c] for c in CATEGORIES] == [
            "Task Deviation",
            "Specification Mismatch",
            "Hallucination Name",
            "Missing Information",
            "Redundant Information",
        ]


def assert_evidence(label, category, entries):
    """The label flags category exactly when entries is non-empty, with
    entries as its evidence list."""
    assert getattr(label, category) is bool(entries)
    assert label.evidence.get(category, []) == entries


class TestDetectors:
    """Each category's rule, read off classify_invocation's evidence."""

    def test_hallucination_name_worked_example(self):
        label = classify_invocation(obs({"board": "mu", "page_size": "5"}), None, board_tool())
        assert_evidence(label, "hallucination_name", [
            {
                "param_name": "page_size",
                "observed": '"5"',
                "expected": "one of the declared parameters: board, sort",
                "rule": "unknown_parameter",
            }
        ])

    def test_hallucination_is_case_sensitive(self):
        label = classify_invocation(obs({"Board": "mu"}), None, board_tool())
        assert_evidence(label, "hallucination_name", [
            {
                "param_name": "Board",
                "observed": '"mu"',
                "expected": "one of the declared parameters: board, sort",
                "rule": "unknown_parameter",
            }
        ])

    def test_missing_schema_required(self):
        label = classify_invocation(obs({}), board_oracle(), board_tool())
        assert_evidence(label, "missing_information", [
            {"param_name": "board", "observed": None, "expected": '"mu"', "rule": "schema_required_missing"}
        ])

    def test_missing_task_needed(self):
        label = classify_invocation(obs({"board": "mu"}), board_oracle(sort="new"), board_tool())
        assert_evidence(label, "missing_information", [
            {"param_name": "sort", "observed": None, "expected": '"new"', "rule": "task_needed_missing"}
        ])

    def test_missing_nothing(self):
        label = classify_invocation(obs({"board": "mu"}), board_oracle(), board_tool())
        assert_evidence(label, "missing_information", [])

    def test_redundant_in_schema_extra(self):
        label = classify_invocation(obs({"board": "mu", "sort": "bump"}), board_oracle(), board_tool())
        assert_evidence(label, "redundant_information", [
            {
                "param_name": "sort",
                "observed": '"bump"',
                "expected": "omitted; the reference invocation does not pass it",
                "rule": "not_in_oracle",
            }
        ])

    def test_unknown_name_is_not_redundant(self):
        label = classify_invocation(obs({"board": "mu", "page_size": 5}), board_oracle(), board_tool())
        assert_evidence(label, "redundant_information", [])

    def test_spec_mismatch_enum(self):
        label = classify_invocation(obs({"board": "mu", "sort": "loud"}), None, board_tool())
        assert_evidence(label, "specification_mismatch", [
            {
                "param_name": "sort",
                "observed": '"loud"',
                "expected": 'value "loud" is not one of ["bump", "new"]',
                "rule": "enum_violation",
            }
        ])

    def test_spec_mismatch_ignores_unknown_names(self):
        label = classify_invocation(obs({"page_size": "5"}), None, board_tool())
        assert_evidence(label, "specification_mismatch", [])

    def test_task_deviation_value(self):
        label = classify_invocation(obs({"board": "g"}), board_oracle(), board_tool())
        assert_evidence(label, "task_deviation", [
            {"param_name": "board", "observed": '"g"', "expected": '"mu"', "rule": "value_deviation"}
        ])

    def test_task_deviation_canonical_equality(self):
        tool = make_tool("t", parameters=(make_param("n", "integer", "N.", True),))
        oracle = OracleInvocation(tool_name="t", arguments={"n": 3}, needed_params=frozenset({"n"}))
        label = classify_invocation(obs({"n": 3.0}, "t"), oracle, tool)
        assert_evidence(label, "task_deviation", [])

    def test_tool_mismatch_guard(self):
        with pytest.raises(ToolMismatch):
            classify_invocation(obs({}, "other"), None, board_tool())


class TestFailureLabel:
    def test_evidence_flag_consistency_enforced(self):
        with pytest.raises(SchemaViolation):
            FailureLabel(task_deviation=True, evidence={})
        with pytest.raises(SchemaViolation):
            FailureLabel(evidence={"task_deviation": [{"rule": "value_deviation"}]})

    def test_passed_and_flagged(self):
        label = FailureLabel()
        assert label.passed and label.flagged_categories() == ()

    def test_json_round_trip(self):
        label = classify_invocation(
            obs({"board": "g", "sort": "loud"}), board_oracle(), board_tool()
        )
        restored = FailureLabel.from_json(label.to_json())
        assert restored == label
        assert label.to_json()["passed"] is False

    def test_rouge_attachment_rules(self):
        deviating = classify_invocation(obs({"board": "g"}), board_oracle(), board_tool())
        assert deviating.task_deviation and deviating.rouge_td is not None
        assert deviating.rouge_sm is None
        clean = classify_invocation(obs({"board": "mu"}), board_oracle(), board_tool())
        assert clean.rouge_td is None and clean.rouge_sm is None


class TestClassifyInvocation:
    def test_pure_hallucination(self):
        label = classify_invocation(
            obs({"board": "mu", "page_size": "5"}), board_oracle(), board_tool()
        )
        assert label.flagged_categories() == ("hallucination_name",)

    def test_reflexive_oracle_replay_passes(self):
        label = classify_invocation(
            obs(dict(board_oracle().arguments)), board_oracle(), board_tool()
        )
        assert label.passed

    def test_enum_breach_with_oracle_value_present(self):
        oracle = board_oracle(sort="new")
        label = classify_invocation(obs({"board": "mu", "sort": "loud"}), oracle, board_tool())
        assert set(label.flagged_categories()) == {
            "task_deviation", "specification_mismatch",
        }
        assert label.rouge_td == label.rouge_sm


class TestClassifyTrajectory:
    def test_ordinal_alignment_per_tool(self):
        second = OracleInvocation(
            tool_name="get_threads",
            arguments={"board": "g"},
            needed_params=frozenset({"board"}),
        )
        result = classify_trajectory(
            [obs({"board": "mu"}), obs({"board": "g"})],
            [board_oracle(), second],
            [board_tool()],
        )
        assert result.case_pass
        assert [a.oracle_index for a in result.aligned] == [0, 1]

    def test_overflow_calls_align_to_last(self):
        result = classify_trajectory(
            [obs({"board": "wrong"}), obs({"board": "mu"})],
            [board_oracle()],
            [board_tool()],
        )
        assert [a.oracle_index for a in result.aligned] == [0, 0]
        assert not result.aligned[0].label.passed
        assert result.aligned[1].label.passed
        assert not result.case_pass

    def test_unknown_tool_is_tool_level_hallucination(self):
        result = classify_trajectory(
            [obs({"x": 1}, tool_name="ghost_tool")],
            [board_oracle()],
            [board_tool()],
        )
        first = result.aligned[0]
        assert first.oracle_index is None
        assert first.label.flagged_categories() == ("hallucination_name",)
        assert first.label.evidence["hallucination_name"][0]["rule"] == "unknown_tool"

    def test_known_tool_without_oracle_entry_gets_doc_checks(self):
        other = make_tool(
            "side_tool",
            parameters=(make_param("mode", "string", "M.", False, enum_values=("a",)),),
        )
        result = classify_trajectory(
            [obs({"board": "mu"}), obs({"mode": "z"}, tool_name="side_tool")],
            [board_oracle()],
            [board_tool(), other],
        )
        side = result.aligned[1]
        assert side.oracle_index is None
        assert side.label.flagged_categories() == ("specification_mismatch",)
        assert side.label.rouge_sm is None

    def test_empty_trajectory_synthesizes_missing(self):
        result = classify_trajectory([], [board_oracle()], [board_tool()])
        assert len(result.aligned) == 1
        synthesized = result.aligned[0]
        assert synthesized.observed_index is None
        assert synthesized.oracle_index == 0
        assert synthesized.label.flagged_categories() == ("missing_information",)
        assert (
            synthesized.label.evidence["missing_information"][0]["rule"]
            == "invocation_not_attempted"
        )
        assert not result.case_pass

    def test_case_pass_requires_every_label_green(self):
        result = classify_trajectory(
            [obs({"board": "mu"}), obs({"board": "mu", "page_size": 1})],
            [board_oracle()],
            [board_tool()],
        )
        assert not result.case_pass

    def test_five_demo_shapes(self):
        """The five canonical failure shapes classify cleanly end to end."""
        tool, oracle = svc_tool(), svc_oracle()
        shapes = {
            ("task_deviation",): {"query": "alpha", "mode": "full"},
            ("specification_mismatch", "task_deviation"): {"query": "alpha", "mode": "ultra"},
            ("hallucination_name",): {"query": "alpha", "mode": "brief", "extra": 1},
            ("missing_information",): {"query": "alpha"},
            ("redundant_information",): {"query": "alpha", "mode": "brief", "limit": 5},
        }
        for flags, arguments in shapes.items():
            label = classify_invocation(obs(arguments, "svc"), oracle, tool)
            assert tuple(sorted(label.flagged_categories())) == tuple(sorted(flags))
            for category in flags:
                assert label.evidence[category]


@pytest.mark.parametrize(
    ("arguments", "category", "names"),
    [
        ({"query": "alpha", "foo": 1, "bar": 2}, "hallucination_name", ["bar", "foo"]),
        ({"query": "alpha", "mode": "ultra", "limit": 500}, "specification_mismatch", ["limit", "mode"]),
    ],
    ids=["two_undeclared_names", "two_spec_violations"],
)
def test_evidence_follows_key_order_for_every_caller(arguments, category, names):
    """An argument map out of key order classifies exactly as its
    key-ordered copy, through either entry point."""
    ordered = dict(sorted(arguments.items()))
    assert list(arguments) != list(ordered)
    label = classify_invocation(obs(arguments, "svc"), svc_oracle(), svc_tool())
    expected = classify_invocation(obs(ordered, "svc"), svc_oracle(), svc_tool())
    assert [entry["param_name"] for entry in label.evidence[category]] == names
    assert label == expected and label.to_json() == expected.to_json()
    (aligned,) = classify_trajectory([obs(arguments, "svc")], [svc_oracle()], [svc_tool()]).aligned
    assert aligned.label == expected and aligned.label.to_json() == expected.to_json()
