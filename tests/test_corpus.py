"""Corpus model, parser, serializer and lint tests."""

import dataclasses
import json
import random

import pytest

from conftest import make_case, make_param, make_query, make_tool, random_tool, scripted_return
from paramfuzz.corpus import (
    AnnotatedQuery,
    Mention,
    OracleInvocation,
    ToolReturn,
    all_tools,
    canonical_args_hash,
    canonical_json,
    filter_cases,
    json_keys,
    lint_case,
    parse_corpus,
    serialize_corpus,
    values_equal,
    violations_against_spec,
)
from paramfuzz.campaign import CampaignMeta, Classification, TrajectoryError
from paramfuzz.classify import AlignedLabel, FailureLabel, ObservedInvocation
from paramfuzz.driver import EndpointConfig, SkipNote, Trajectory, TrajectoryStep, TruncationEvent
from paramfuzz.errors import MalformedInput, SchemaViolation, SpanMismatch
from paramfuzz.perturb import PerturbationRecord


class TestCanonicalJson:
    def test_sorts_keys_and_compacts(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_integral_floats_collapse_to_int(self):
        assert canonical_json(3.0) == "3"
        assert canonical_json({"n": [1.0, 2.5]}) == '{"n":[1,2.5]}'

    def test_bools_stay_bools(self):
        assert canonical_json(True) == "true"
        assert canonical_json({"flag": False}) == '{"flag":false}'

    def test_non_ascii_not_escaped(self):
        assert canonical_json("café") == '"café"'

    def test_values_equal_follows_canonical_form(self):
        assert values_equal({"a": 1.0}, {"a": 1})
        assert not values_equal(True, 1)
        assert not values_equal("1", 1)

    def test_args_hash_ignores_key_order(self):
        left = canonical_args_hash({"a": 1, "b": 2})
        right = canonical_args_hash({"b": 2, "a": 1})
        assert left == right
        assert left != canonical_args_hash({"a": 1, "b": 3})


class TestModelInvariants:
    def test_mention_rejects_empty_span(self):
        with pytest.raises(SpanMismatch):
            Mention(start=3, end=3, param_name="p", tool_name="t", value_text="")

    def test_mention_rejects_negative_span(self):
        with pytest.raises(SpanMismatch):
            Mention(start=5, end=2, param_name="p", tool_name="t", value_text="x")

    def test_query_rejects_span_text_disagreement(self):
        with pytest.raises(SpanMismatch):
            AnnotatedQuery(
                text="find things",
                mentions=(
                    Mention(start=0, end=4, param_name="p", tool_name="t", value_text="bind"),
                ),
            )

    def test_query_rejects_overlapping_mentions(self):
        with pytest.raises(SchemaViolation):
            AnnotatedQuery(
                text="abcdef",
                mentions=(
                    Mention(start=0, end=4, param_name="p", tool_name="t", value_text="abcd"),
                    Mention(start=2, end=6, param_name="q", tool_name="t", value_text="cdef"),
                ),
            )

    def test_query_rejects_out_of_bounds_span(self):
        with pytest.raises(SpanMismatch):
            AnnotatedQuery(
                text="ab",
                mentions=(
                    Mention(start=0, end=5, param_name="p", tool_name="t", value_text="ab..."),
                ),
            )

    def test_param_rejects_unknown_type(self):
        with pytest.raises(SchemaViolation):
            make_param(ptype="text")

    def test_param_rejects_inverted_range(self):
        with pytest.raises(SchemaViolation):
            make_param(ptype="integer", range=(9, 1))

    def test_tool_requires_unique_param_names(self):
        with pytest.raises(SchemaViolation):
            make_case(
                tools=(make_tool(parameters=(make_param("a"), make_param("a"))),),
                oracle=(
                    OracleInvocation(
                        tool_name="searcher", arguments={"a": "x"}, needed_params=frozenset({"a"})
                    ),
                ),
            )

    def test_case_rejects_oracle_for_unknown_tool(self):
        with pytest.raises(SchemaViolation):
            make_case(
                oracle=(
                    OracleInvocation(
                        tool_name="ghost", arguments={}, needed_params=frozenset()
                    ),
                )
            )

    def test_case_rejects_oracle_arg_outside_schema(self):
        with pytest.raises(SchemaViolation):
            make_case(
                oracle=(
                    OracleInvocation(
                        tool_name="searcher",
                        arguments={"query": "x", "bogus": 1},
                        needed_params=frozenset({"query"}),
                    ),
                )
            )

    def test_tool_return_holds_exactly_one_side(self):
        assert ToolReturn(payload={"a": 1}).is_json
        assert not ToolReturn(raw_text="oops").is_json
        with pytest.raises(SchemaViolation):
            ToolReturn(payload={"a": 1}, raw_text="both")

    def test_rendered_payload_is_readable_json(self):
        ret = ToolReturn(payload={"b": 1, "a": [True, None]})
        assert json.loads(ret.rendered()) == {"b": 1, "a": [True, None]}


class TestParseAndSerialize:
    def corpus_text(self):
        case = make_case(
            scripted=(
                scripted_return("searcher", {"query": "books about whales"},
                                payload={"hits": 3}),
            )
        )
        return serialize_corpus([case])

    def test_round_trip_is_identity(self):
        text = self.corpus_text()
        assert serialize_corpus(parse_corpus(text)) == text

    def test_trailing_newline_and_indent(self):
        text = self.corpus_text()
        assert text.endswith("\n")
        assert '\n  "cases"' in text or '\n  "schema_version"' in text

    def test_malformed_json_reports_byte_offset(self):
        bad = '{"schema_version": 1, "cases": [}'
        with pytest.raises(MalformedInput) as err:
            parse_corpus(bad)
        assert err.value.byte_offset == len('{"schema_version": 1, "cases": ['.encode())

    def test_byte_offset_counts_utf8_bytes(self):
        bad = '{"schema_version": 1, "cafés": }'
        with pytest.raises(MalformedInput) as err:
            parse_corpus(bad)
        assert err.value.byte_offset == len('{"schema_version": 1, "cafés": '.encode())

    def test_unknown_key_rejected_with_location(self):
        obj = json.loads(self.corpus_text())
        obj["cases"][0]["tools"][0]["color"] = "red"
        with pytest.raises(SchemaViolation) as err:
            parse_corpus(json.dumps(obj))
        assert err.value.case_id == "c1"
        assert "color" in str(err.value)

    def test_wrong_schema_version_rejected(self):
        obj = json.loads(self.corpus_text())
        obj["schema_version"] = 2
        with pytest.raises(SchemaViolation):
            parse_corpus(json.dumps(obj))

    def test_duplicate_case_ids_rejected(self):
        obj = json.loads(self.corpus_text())
        obj["cases"].append(json.loads(json.dumps(obj["cases"][0])))
        with pytest.raises(SchemaViolation):
            parse_corpus(json.dumps(obj))

    def test_same_tool_name_must_be_same_tool(self):
        obj = json.loads(self.corpus_text())
        second = json.loads(json.dumps(obj["cases"][0]))
        second["case_id"] = "c2"
        second["tools"][0]["description"] = "Something else."
        obj["cases"].append(second)
        with pytest.raises(SchemaViolation) as err:
            parse_corpus(json.dumps(obj))
        assert "searcher" in str(err.value)

    def test_tool_json_round_trip(self):
        rng = random.Random(99)
        tools = tuple(random_tool(rng, name=f"tool_{i}") for i in range(4))
        case = make_case(tools=tools, oracle=())
        assert parse_corpus(serialize_corpus([case]))[0].tools == tools

    def test_example_must_be_enum_member(self):
        obj = json.loads(self.corpus_text())
        obj["cases"][0]["tools"][0]["parameters"][0]["enum_values"] = ["a", "b"]
        obj["cases"][0]["tools"][0]["parameters"][0]["example"] = "c"
        with pytest.raises(SchemaViolation):
            parse_corpus(json.dumps(obj))


class TestFilters:
    def test_unsolvable_cases_dropped(self):
        keep = make_case("keep")
        drop = make_case("drop", solvable=False)
        assert [c.case_id for c in filter_cases([keep, drop])] == ["keep"]

    def test_parameterless_cases_dropped(self):
        bare_tool = make_tool("pinger", parameters=())
        bare = make_case(
            "bare",
            tools=(bare_tool,),
            query=make_query("Ping it.", spans=[]),
            oracle=(
                OracleInvocation(
                    tool_name="pinger", arguments={}, needed_params=frozenset()
                ),
            ),
        )
        assert filter_cases([bare]) == []

    def test_all_tools_first_seen_dedup(self):
        a = make_case("a")
        b = make_case("b")
        tools = all_tools([a, b])
        assert [t.tool_name for t in tools] == ["searcher"]


class TestSpecViolations:
    def test_type_mismatch(self):
        spec = make_param("n", "integer", "Count.")
        violations = violations_against_spec(spec, "five")
        assert [rule for rule, _ in violations] == ["type_mismatch"]
        assert "integer" in violations[0][1] and "string" in violations[0][1]

    def test_integral_float_accepted_as_integer(self):
        spec = make_param("n", "integer", "Count.")
        assert violations_against_spec(spec, 3.0) == []

    def test_bool_not_accepted_as_number(self):
        spec = make_param("n", "number", "Amount.")
        violations = violations_against_spec(spec, True)
        assert [rule for rule, _ in violations] == ["type_mismatch"]
        assert "boolean" in violations[0][1]

    def test_enum_violation(self):
        spec = make_param("m", "string", "Mode.", enum_values=("brief", "full"))
        rules = [rule for rule, _ in violations_against_spec(spec, "loud")]
        assert rules == ["enum_violation"]

    def test_format_violation_fullmatch(self):
        spec = make_param("r", "string", "Region.", format="^[A-Z]{2}$")
        assert violations_against_spec(spec, "AU") == []
        rules = [rule for rule, _ in violations_against_spec(spec, "AUS")]
        assert rules == ["format_violation"]
        rules = [rule for rule, _ in violations_against_spec(spec, "xAUx")]
        assert rules == ["format_violation"]

    def test_range_violation(self):
        spec = make_param("n", "integer", "Count.", range=(1, 10))
        assert violations_against_spec(spec, 10) == []
        rules = [rule for rule, _ in violations_against_spec(spec, 11)]
        assert rules == ["range_violation"]

    def test_random_values_never_crash(self):
        rng = random.Random(99)
        specs = [
            make_param("p", ptype, "Anything.")
            for ptype in ("string", "integer", "number", "boolean", "array", "object")
        ]
        pool = ["x", 0, 1.5, True, None, [1], {"k": "v"}, -3.0]
        for _ in range(500):
            spec = rng.choice(specs)
            value = rng.choice(pool)
            for rule, detail in violations_against_spec(spec, value):
                assert rule in (
                    "type_mismatch", "enum_violation", "format_violation", "range_violation"
                )
                assert detail


class TestLint:
    def test_clean_case_has_no_findings(self):
        assert lint_case(make_case()) == []

    def test_duplicate_param_name_across_tools(self):
        tools = (make_tool("a_tool"), make_tool("b_tool"))
        case = make_case(
            tools=tools,
            query=make_query(spans=[("books about whales", "query", "a_tool")]),
            oracle=(
                OracleInvocation(
                    tool_name="a_tool",
                    arguments={"query": "books about whales"},
                    needed_params=frozenset({"query"}),
                ),
            ),
        )
        codes = {f.code for f in lint_case(case)}
        assert "DuplicateParamName" in codes

    def test_uncovered_mention_detected(self):
        case = make_case(query=make_query(spans=[]))
        codes = {f.code for f in lint_case(case)}
        assert "UncoveredMention" in codes

    def test_oracle_enum_violation_detected(self):
        tool = make_tool(
            parameters=(
                make_param("query", "string", "What to search.", True,
                           enum_values=("books about whales", "other")),
            )
        )
        case = make_case(tools=(tool,))
        # Oracle value is in the enum, so the only risk is a false finding.
        assert all(f.code != "OracleViolatesSpec" for f in lint_case(case))

    def test_oracle_needed_missing_from_arguments(self):
        case = make_case(
            oracle=(
                OracleInvocation(
                    tool_name="searcher",
                    arguments={"query": "books about whales"},
                    needed_params=frozenset({"query", "limit"}),
                ),
            ),
        )
        codes = {f.code for f in lint_case(case)}
        assert "OracleViolatesSpec" in codes

    def test_dangling_mention_ref(self):
        case = make_case(
            query=make_query(spans=[("books about whales", "nosuch", "searcher")])
        )
        codes = {f.code for f in lint_case(case)}
        assert "DanglingMentionRef" in codes


class TestShippedCorpora:
    @pytest.mark.parametrize("name", ["demo", "mock_campaign"])
    def test_fixture_corpus_parses_and_lints_clean(self, name):
        import importlib.resources

        root = importlib.resources.files("paramfuzz").joinpath("data", name)
        text = (root / "corpus.json").read_text(encoding="utf-8")
        cases = parse_corpus(text)
        assert cases
        for case in cases:
            assert lint_case(case) == []
        assert serialize_corpus(cases) == text


# ------------------------------------------------------------ golden errors
#
# Each mutation plants one defect in the first demo case (or the document
# around it) and pins the exact error the reader reports: exception type,
# message, field and case_id.

def _demo_document():
    import importlib.resources

    root = importlib.resources.files("paramfuzz").joinpath("data", "demo")
    return json.loads((root / "corpus.json").read_text(encoding="utf-8"))


def _walk(doc, path):
    *parents, last = [int(p) if p.isdigit() else p for p in path.split(".")]
    for key in parents:
        doc = doc[key]
    return doc, last


def _set(path, value):
    def mutate(doc):
        parent, key = _walk(doc, path)
        parent[key] = value
    return mutate


def _drop(path):
    def mutate(doc):
        parent, key = _walk(doc, path)
        del parent[key]
    return mutate


def _update(path, **fields):
    def mutate(doc):
        parent, key = _walk(doc, path)
        parent[key].update(fields)
    return mutate


def _append(path, make):
    def mutate(doc):
        parent, key = _walk(doc, path)
        parent[key].append(make(doc))
    return mutate


C = "cases.0"
T = "cases.0.tools.0"
P0 = T + ".parameters.0"
P1 = T + ".parameters.1"
Q = "cases.0.query"
M = Q + ".mentions.0"
O = "cases.0.oracle.0"
S0 = "cases.0.scripted_returns.0"
S1 = "cases.0.scripted_returns.1"


def _redefined_tool_case(doc):
    copy = json.loads(json.dumps(doc["cases"][0]))
    copy["case_id"] = "d1_copy"
    copy["tools"][0]["description"] = "Something else."
    return copy


MUTATIONS = {
    "corpus_not_object": lambda doc: [doc],
    "corpus_missing_cases": _drop("cases"),
    "corpus_missing_schema_version": _drop("schema_version"),
    "corpus_unknown_key": _set("extra", 1),
    "corpus_cases_not_array": _set("cases", {}),
    "corpus_schema_version_2": _set("schema_version", 2),
    "corpus_schema_version_true": _set("schema_version", True),
    "corpus_schema_version_float": _set("schema_version", 1.0),
    "corpus_duplicate_case_id": _set("cases.1.case_id", "d1_unknown_kwarg"),
    "corpus_tool_redefined": _append("cases", _redefined_tool_case),
    "case_not_object": _set(C, "d1"),
    "case_missing_case_id": _drop(C + ".case_id"),
    "case_missing_query": _drop(C + ".query"),
    "case_missing_tools": _drop(C + ".tools"),
    "case_missing_oracle": _drop(C + ".oracle"),
    "case_missing_solvable": _drop(C + ".solvable"),
    "case_unknown_key": _set(C + ".color", "red"),
    "case_id_not_string": _set(C + ".case_id", 5),
    "case_id_empty": _set(C + ".case_id", ""),
    "case_query_not_object": _set(Q, []),
    "case_tools_not_array": _set(C + ".tools", {}),
    "case_oracle_not_array": _set(C + ".oracle", "get_threads"),
    "case_scripted_not_array": _set(C + ".scripted_returns", {}),
    "case_solvable_not_bool": _set(C + ".solvable", "yes"),
    "case_duplicate_tool": _append(C + ".tools", lambda doc: doc["cases"][0]["tools"][0]),
    "case_oracle_unknown_tool": _set(O + ".tool_name", "ghost"),
    "case_oracle_undeclared_arg": _set(O + ".arguments.page_size", "5"),
    "case_duplicate_scripted_return": _set(S0 + ".arguments", {"board": "mu"}),
    "tool_not_object": _set(T, "get_threads"),
    "tool_missing_tool_name": _drop(T + ".tool_name"),
    "tool_missing_description": _drop(T + ".description"),
    "tool_missing_parameters": _drop(T + ".parameters"),
    "tool_unknown_key": _set(T + ".color", "red"),
    "tool_name_not_string": _set(T + ".tool_name", 5),
    "tool_description_null": _set(T + ".description", None),
    "tool_parameters_not_array": _set(T + ".parameters", {}),
    "tool_usage_examples_not_array": _set(T + ".usage_examples", "get_threads()"),
    "tool_usage_example_not_string": _set(T + ".usage_examples.0", 5),
    "tool_name_empty": _set(T + ".tool_name", ""),
    "tool_duplicate_parameter": _append(T + ".parameters", lambda doc: doc["cases"][0]["tools"][0]["parameters"][0]),
    "param_not_object": _set(P0, "board"),
    "param_missing_name": _drop(P0 + ".name"),
    "param_missing_ptype": _drop(P0 + ".ptype"),
    "param_missing_description": _drop(P0 + ".description"),
    "param_missing_required": _drop(P0 + ".required"),
    "param_unknown_key": _set(P0 + ".default", "mu"),
    "param_name_not_string": _set(P0 + ".name", 5),
    "param_ptype_not_string": _set(P0 + ".ptype", ["string"]),
    "param_description_not_string": _set(P0 + ".description", 5),
    "param_required_not_bool": _set(P0 + ".required", 1),
    "param_enum_not_array": _set(P1 + ".enum_values", "bump"),
    "param_format_not_string": _set(P0 + ".format", 5),
    "param_range_not_array": _set(P0 + ".range", "1-2"),
    "param_name_empty": _set(P0 + ".name", ""),
    "param_unknown_ptype": _set(P0 + ".ptype", "text"),
    "param_empty_enum": _set(P1 + ".enum_values", []),
    "param_format_bad_regex": _set(P0 + ".format", "("),
    "param_range_not_pair": _set(P0 + ".range", [1]),
    "param_range_not_numbers": _set(P0 + ".range", ["a", "b"]),
    "param_range_bool": _set(P0 + ".range", [True, 2]),
    "param_range_on_string": _set(P0 + ".range", [1, 2]),
    "param_range_inverted": _update(P0, ptype="integer", range=[9, 1]),
    "param_example_not_in_enum": _set(P1 + ".example", "top"),
    "query_missing_text": _drop(Q + ".text"),
    "query_missing_mentions": _drop(Q + ".mentions"),
    "query_unknown_key": _set(Q + ".lang", "en"),
    "query_text_not_string": _set(Q + ".text", 5),
    "query_mentions_not_array": _set(Q + ".mentions", {}),
    "mention_not_object": _set(M, "mu"),
    "mention_missing_span": _drop(M + ".span"),
    "mention_missing_param_name": _drop(M + ".param_name"),
    "mention_missing_tool_name": _drop(M + ".tool_name"),
    "mention_missing_value_text": _drop(M + ".value_text"),
    "mention_unknown_key": _set(M + ".note", "x"),
    "mention_span_not_array": _set(M + ".span", "32"),
    "mention_param_name_not_string": _set(M + ".param_name", 5),
    "mention_tool_name_not_string": _set(M + ".tool_name", 5),
    "mention_value_text_not_string": _set(M + ".value_text", 5),
    "mention_span_not_pair": _set(M + ".span", [32]),
    "mention_span_floats": _set(M + ".span", [32.0, 34]),
    "mention_span_empty": _set(M + ".span", [32, 32]),
    "mention_span_text_mismatch": _set(M + ".span", [31, 33]),
    "mention_span_past_end": _set(M + ".span", [32, 99]),
    "mention_overlap": _append(Q + ".mentions", lambda doc: {
        "span": [33, 34], "param_name": "board", "tool_name": "get_threads", "value_text": "u"}),
    "oracle_not_object": _set(O, "get_threads"),
    "oracle_missing_tool_name": _drop(O + ".tool_name"),
    "oracle_missing_arguments": _drop(O + ".arguments"),
    "oracle_missing_needed_params": _drop(O + ".needed_params"),
    "oracle_unknown_key": _set(O + ".why", "x"),
    "oracle_tool_name_not_string": _set(O + ".tool_name", 5),
    "oracle_arguments_not_object": _set(O + ".arguments", []),
    "oracle_needed_not_array": _set(O + ".needed_params", "board"),
    "oracle_needed_item_not_string": _set(O + ".needed_params.0", 5),
    "oracle_tool_name_empty": _set(O + ".tool_name", ""),
    "scripted_not_object": _set(S0, None),
    "scripted_missing_tool_name": _drop(S0 + ".tool_name"),
    "scripted_missing_arguments": _drop(S0 + ".arguments"),
    "scripted_missing_return": _drop(S0 + ".return"),
    "scripted_unknown_key": _set(S0 + ".delay", 1),
    "scripted_tool_name_not_string": _set(S0 + ".tool_name", 5),
    "scripted_arguments_not_object": _set(S0 + ".arguments", "board=mu"),
    "return_not_object": _set(S1 + ".return", []),
    "return_both_keys": _set(S0 + ".return.payload", {}),
    "return_no_key": _set(S1 + ".return", {}),
    "return_unknown_key": _set(S1 + ".return.status", 200),
    "return_raw_text_not_string": _set(S0 + ".return.raw_text", 5),
    "return_raw_text_null": _set(S0 + ".return.raw_text", None),
}

GOLDEN = {
    "case_duplicate_scripted_return": ("SchemaViolation", "duplicate scripted return for tool 'get_threads' with identical arguments", "scripted_returns", "d1_unknown_kwarg"),
    "case_duplicate_tool": ("SchemaViolation", "tool 'get_threads' appears twice in case 'd1_unknown_kwarg'", None, "d1_unknown_kwarg"),
    "case_id_empty": ("SchemaViolation", "case_id must be a non-empty string", None, "cases[0]"),
    "case_id_not_string": ("SchemaViolation", "cases[0].case_id must be a string, got integer", "cases[0].case_id", "cases[0]"),
    "case_missing_case_id": ("SchemaViolation", "cases[0] is missing required key 'case_id'", "cases[0].case_id", "cases[0]"),
    "case_missing_oracle": ("SchemaViolation", "cases[0] is missing required key 'oracle'", "cases[0].oracle", "d1_unknown_kwarg"),
    "case_missing_query": ("SchemaViolation", "cases[0] is missing required key 'query'", "cases[0].query", "d1_unknown_kwarg"),
    "case_missing_solvable": ("SchemaViolation", "cases[0] is missing required key 'solvable'", "cases[0].solvable", "d1_unknown_kwarg"),
    "case_missing_tools": ("SchemaViolation", "cases[0] is missing required key 'tools'", "cases[0].tools", "d1_unknown_kwarg"),
    "case_not_object": ("SchemaViolation", "cases[0] must be a JSON object, got string", "cases[0]", None),
    "case_oracle_not_array": ("SchemaViolation", "oracle must be a JSON array, got string", "oracle", "d1_unknown_kwarg"),
    "case_oracle_undeclared_arg": ("SchemaViolation", "oracle step 0 passes 'page_size', which 'get_threads' does not declare", "oracle[0].arguments.page_size", "d1_unknown_kwarg"),
    "case_oracle_unknown_tool": ("SchemaViolation", "oracle step 0 calls unknown tool 'ghost'", "oracle[0].tool_name", "d1_unknown_kwarg"),
    "case_query_not_object": ("SchemaViolation", "query must be a JSON object, got array", "query", "d1_unknown_kwarg"),
    "case_scripted_not_array": ("SchemaViolation", "scripted_returns must be a JSON array, got object", "scripted_returns", "d1_unknown_kwarg"),
    "case_solvable_not_bool": ("SchemaViolation", "solvable must be a boolean, got string", "solvable", "d1_unknown_kwarg"),
    "case_tools_not_array": ("SchemaViolation", "tools must be a JSON array, got object", "tools", "d1_unknown_kwarg"),
    "case_unknown_key": ("SchemaViolation", "cases[0] has unknown key 'color'", "cases[0].color", "d1_unknown_kwarg"),
    "corpus_cases_not_array": ("SchemaViolation", "cases must be a JSON array, got object", "cases", None),
    "corpus_duplicate_case_id": ("SchemaViolation", "case_id 'd1_unknown_kwarg' appears more than once", "case_id", "d1_unknown_kwarg"),
    "corpus_missing_cases": ("SchemaViolation", "corpus is missing required key 'cases'", "corpus.cases", None),
    "corpus_missing_schema_version": ("SchemaViolation", "corpus is missing required key 'schema_version'", "corpus.schema_version", None),
    "corpus_not_object": ("SchemaViolation", "corpus must be a JSON object, got array", "corpus", None),
    "corpus_schema_version_2": ("SchemaViolation", "unsupported schema_version 2; this reader understands 1", "schema_version", None),
    "corpus_schema_version_float": ("SchemaViolation", "corpus.schema_version must be an integer, got number", "corpus.schema_version", None),
    "corpus_schema_version_true": ("SchemaViolation", "corpus.schema_version must be an integer, got boolean", "corpus.schema_version", None),
    "corpus_tool_redefined": ("SchemaViolation", "tool 'get_threads' is defined twice with different documents; a name must mean one document corpus-wide", "tools", "d1_copy"),
    "corpus_unknown_key": ("SchemaViolation", "corpus has unknown key 'extra'", "corpus.extra", None),
    "mention_missing_param_name": ("SchemaViolation", "query.mentions[0] is missing required key 'param_name'", "query.mentions[0].param_name", "d1_unknown_kwarg"),
    "mention_missing_span": ("SchemaViolation", "query.mentions[0] is missing required key 'span'", "query.mentions[0].span", "d1_unknown_kwarg"),
    "mention_missing_tool_name": ("SchemaViolation", "query.mentions[0] is missing required key 'tool_name'", "query.mentions[0].tool_name", "d1_unknown_kwarg"),
    "mention_missing_value_text": ("SchemaViolation", "query.mentions[0] is missing required key 'value_text'", "query.mentions[0].value_text", "d1_unknown_kwarg"),
    "mention_not_object": ("SchemaViolation", "query.mentions[0] must be a JSON object, got string", "query.mentions[0]", "d1_unknown_kwarg"),
    "mention_overlap": ("SchemaViolation", "mention span [33, 34) overlaps or precedes an earlier mention; spans must be sorted and disjoint", None, "d1_unknown_kwarg"),
    "mention_param_name_not_string": ("SchemaViolation", "query.mentions[0].param_name must be a string, got integer", "query.mentions[0].param_name", "d1_unknown_kwarg"),
    "mention_span_empty": ("SpanMismatch", "span [32, 32) is empty or negative", None, "d1_unknown_kwarg"),
    "mention_span_floats": ("SchemaViolation", "query.mentions[0].span must be a [start, end) pair of integers", "query.mentions[0].span", "d1_unknown_kwarg"),
    "mention_span_not_array": ("SchemaViolation", "query.mentions[0].span must be a JSON array, got string", "query.mentions[0].span", "d1_unknown_kwarg"),
    "mention_span_not_pair": ("SchemaViolation", "query.mentions[0].span must be a [start, end) pair of integers", "query.mentions[0].span", "d1_unknown_kwarg"),
    "mention_span_past_end": ("SpanMismatch", "span [32, 99) runs past the end of the query (41 code points)", None, "d1_unknown_kwarg"),
    "mention_span_text_mismatch": ("SpanMismatch", "span [31, 33) covers ' m', not the annotated value 'mu'", None, "d1_unknown_kwarg"),
    "mention_tool_name_not_string": ("SchemaViolation", "query.mentions[0].tool_name must be a string, got integer", "query.mentions[0].tool_name", "d1_unknown_kwarg"),
    "mention_unknown_key": ("SchemaViolation", "query.mentions[0] has unknown key 'note'", "query.mentions[0].note", "d1_unknown_kwarg"),
    "mention_value_text_not_string": ("SchemaViolation", "query.mentions[0].value_text must be a string, got integer", "query.mentions[0].value_text", "d1_unknown_kwarg"),
    "oracle_arguments_not_object": ("SchemaViolation", "oracle[0].arguments must be a JSON object, got array", "oracle[0].arguments", "d1_unknown_kwarg"),
    "oracle_missing_arguments": ("SchemaViolation", "oracle[0] is missing required key 'arguments'", "oracle[0].arguments", "d1_unknown_kwarg"),
    "oracle_missing_needed_params": ("SchemaViolation", "oracle[0] is missing required key 'needed_params'", "oracle[0].needed_params", "d1_unknown_kwarg"),
    "oracle_missing_tool_name": ("SchemaViolation", "oracle[0] is missing required key 'tool_name'", "oracle[0].tool_name", "d1_unknown_kwarg"),
    "oracle_needed_item_not_string": ("SchemaViolation", "oracle[0].needed_params[0] must be a string, got integer", "oracle[0].needed_params[0]", "d1_unknown_kwarg"),
    "oracle_needed_not_array": ("SchemaViolation", "oracle[0].needed_params must be a JSON array, got string", "oracle[0].needed_params", "d1_unknown_kwarg"),
    "oracle_not_object": ("SchemaViolation", "oracle[0] must be a JSON object, got string", "oracle[0]", "d1_unknown_kwarg"),
    # Changed: constructor errors name their case and field.
    "oracle_tool_name_empty": ("SchemaViolation", "oracle tool_name must be a non-empty string", "oracle[0].tool_name", "d1_unknown_kwarg"),
    "oracle_tool_name_not_string": ("SchemaViolation", "oracle[0].tool_name must be a string, got integer", "oracle[0].tool_name", "d1_unknown_kwarg"),
    "oracle_unknown_key": ("SchemaViolation", "oracle[0] has unknown key 'why'", "oracle[0].why", "d1_unknown_kwarg"),
    "param_description_not_string": ("SchemaViolation", "tools[0].parameters[0].description must be a string, got integer", "tools[0].parameters[0].description", "d1_unknown_kwarg"),
    "param_empty_enum": ("SchemaViolation", "parameter 'sort' has an empty enum", "tools[0].parameters[1]", "d1_unknown_kwarg"),
    "param_enum_not_array": ("SchemaViolation", "tools[0].parameters[1].enum_values must be a JSON array, got string", "tools[0].parameters[1].enum_values", "d1_unknown_kwarg"),
    "param_example_not_in_enum": ("SchemaViolation", "tools[0].parameters[1].example \"top\" is not an enum member", "tools[0].parameters[1].example", "d1_unknown_kwarg"),
    "param_format_bad_regex": ("SchemaViolation", "tools[0].parameters[0].format is not a valid regex: missing ), unterminated subpattern at position 0", "tools[0].parameters[0].format", "d1_unknown_kwarg"),
    "param_format_not_string": ("SchemaViolation", "tools[0].parameters[0].format must be a string, got integer", "tools[0].parameters[0].format", "d1_unknown_kwarg"),
    "param_missing_description": ("SchemaViolation", "tools[0].parameters[0] is missing required key 'description'", "tools[0].parameters[0].description", "d1_unknown_kwarg"),
    "param_missing_name": ("SchemaViolation", "tools[0].parameters[0] is missing required key 'name'", "tools[0].parameters[0].name", "d1_unknown_kwarg"),
    "param_missing_ptype": ("SchemaViolation", "tools[0].parameters[0] is missing required key 'ptype'", "tools[0].parameters[0].ptype", "d1_unknown_kwarg"),
    "param_missing_required": ("SchemaViolation", "tools[0].parameters[0] is missing required key 'required'", "tools[0].parameters[0].required", "d1_unknown_kwarg"),
    "param_name_empty": ("SchemaViolation", "parameter name must be a non-empty string", "tools[0].parameters[0]", "d1_unknown_kwarg"),
    "param_name_not_string": ("SchemaViolation", "tools[0].parameters[0].name must be a string, got integer", "tools[0].parameters[0].name", "d1_unknown_kwarg"),
    "param_not_object": ("SchemaViolation", "tools[0].parameters[0] must be a JSON object, got string", "tools[0].parameters[0]", "d1_unknown_kwarg"),
    "param_ptype_not_string": ("SchemaViolation", "tools[0].parameters[0].ptype must be a string, got array", "tools[0].parameters[0].ptype", "d1_unknown_kwarg"),
    "param_range_bool": ("SchemaViolation", "tools[0].parameters[0].range must be a [min, max] pair of numbers", "tools[0].parameters[0].range", "d1_unknown_kwarg"),
    "param_range_inverted": ("SchemaViolation", "parameter 'board' has inverted range [9, 1]", "tools[0].parameters[0]", "d1_unknown_kwarg"),
    "param_range_not_array": ("SchemaViolation", "tools[0].parameters[0].range must be a JSON array, got string", "tools[0].parameters[0].range", "d1_unknown_kwarg"),
    "param_range_not_numbers": ("SchemaViolation", "tools[0].parameters[0].range must be a [min, max] pair of numbers", "tools[0].parameters[0].range", "d1_unknown_kwarg"),
    "param_range_not_pair": ("SchemaViolation", "tools[0].parameters[0].range must be a [min, max] pair of numbers", "tools[0].parameters[0].range", "d1_unknown_kwarg"),
    "param_range_on_string": ("SchemaViolation", "tools[0].parameters[0].range is only meaningful for numeric parameters, not ptype 'string'", "tools[0].parameters[0].range", "d1_unknown_kwarg"),
    "param_required_not_bool": ("SchemaViolation", "tools[0].parameters[0].required must be a boolean, got integer", "tools[0].parameters[0].required", "d1_unknown_kwarg"),
    "param_unknown_key": ("SchemaViolation", "tools[0].parameters[0] has unknown key 'default'", "tools[0].parameters[0].default", "d1_unknown_kwarg"),
    "param_unknown_ptype": ("SchemaViolation", "parameter 'board' has unknown ptype 'text'", "tools[0].parameters[0]", "d1_unknown_kwarg"),
    "query_mentions_not_array": ("SchemaViolation", "query.mentions must be a JSON array, got object", "query.mentions", "d1_unknown_kwarg"),
    "query_missing_mentions": ("SchemaViolation", "query is missing required key 'mentions'", "query.mentions", "d1_unknown_kwarg"),
    "query_missing_text": ("SchemaViolation", "query is missing required key 'text'", "query.text", "d1_unknown_kwarg"),
    "query_text_not_string": ("SchemaViolation", "query.text must be a string, got integer", "query.text", "d1_unknown_kwarg"),
    "query_unknown_key": ("SchemaViolation", "query has unknown key 'lang'", "query.lang", "d1_unknown_kwarg"),
    "return_both_keys": ("SchemaViolation", "scripted_returns[0].return must have exactly one of the keys 'payload' or 'raw_text'", "scripted_returns[0].return", "d1_unknown_kwarg"),
    "return_no_key": ("SchemaViolation", "scripted_returns[1].return must have exactly one of the keys 'payload' or 'raw_text'", "scripted_returns[1].return", "d1_unknown_kwarg"),
    "return_not_object": ("SchemaViolation", "scripted_returns[1].return must be a JSON object, got array", "scripted_returns[1].return", "d1_unknown_kwarg"),
    "return_raw_text_not_string": ("SchemaViolation", "scripted_returns[0].return.raw_text must be a string, got integer", "scripted_returns[0].return.raw_text", "d1_unknown_kwarg"),
    "return_raw_text_null": ("SchemaViolation", "scripted_returns[0].return.raw_text must be a string, got null", "scripted_returns[0].return.raw_text", "d1_unknown_kwarg"),
    "return_unknown_key": ("SchemaViolation", "scripted_returns[1].return must have exactly one of the keys 'payload' or 'raw_text'", "scripted_returns[1].return", "d1_unknown_kwarg"),
    "scripted_arguments_not_object": ("SchemaViolation", "scripted_returns[0].arguments must be a JSON object, got string", "scripted_returns[0].arguments", "d1_unknown_kwarg"),
    "scripted_missing_arguments": ("SchemaViolation", "scripted_returns[0] is missing required key 'arguments'", "scripted_returns[0].arguments", "d1_unknown_kwarg"),
    "scripted_missing_return": ("SchemaViolation", "scripted_returns[0] is missing required key 'return'", "scripted_returns[0].return", "d1_unknown_kwarg"),
    "scripted_missing_tool_name": ("SchemaViolation", "scripted_returns[0] is missing required key 'tool_name'", "scripted_returns[0].tool_name", "d1_unknown_kwarg"),
    "scripted_not_object": ("SchemaViolation", "scripted_returns[0] must be a JSON object, got null", "scripted_returns[0]", "d1_unknown_kwarg"),
    "scripted_tool_name_not_string": ("SchemaViolation", "scripted_returns[0].tool_name must be a string, got integer", "scripted_returns[0].tool_name", "d1_unknown_kwarg"),
    "scripted_unknown_key": ("SchemaViolation", "scripted_returns[0] has unknown key 'delay'", "scripted_returns[0].delay", "d1_unknown_kwarg"),
    "tool_description_null": ("SchemaViolation", "tools[0].description must be a string, got null", "tools[0].description", "d1_unknown_kwarg"),
    # Changed: ToolDocument checks this itself and names the tool.
    "tool_duplicate_parameter": ("SchemaViolation", "tool 'get_threads' declares parameter 'board' more than once", "tools[0].parameters", "d1_unknown_kwarg"),
    "tool_missing_description": ("SchemaViolation", "tools[0] is missing required key 'description'", "tools[0].description", "d1_unknown_kwarg"),
    "tool_missing_parameters": ("SchemaViolation", "tools[0] is missing required key 'parameters'", "tools[0].parameters", "d1_unknown_kwarg"),
    "tool_missing_tool_name": ("SchemaViolation", "tools[0] is missing required key 'tool_name'", "tools[0].tool_name", "d1_unknown_kwarg"),
    # Changed: constructor errors name their case and field.
    "tool_name_empty": ("SchemaViolation", "tool_name must be a non-empty string", "tools[0].tool_name", "d1_unknown_kwarg"),
    "tool_name_not_string": ("SchemaViolation", "tools[0].tool_name must be a string, got integer", "tools[0].tool_name", "d1_unknown_kwarg"),
    "tool_not_object": ("SchemaViolation", "tools[0] must be a JSON object, got string", "tools[0]", "d1_unknown_kwarg"),
    "tool_parameters_not_array": ("SchemaViolation", "tools[0].parameters must be a JSON array, got object", "tools[0].parameters", "d1_unknown_kwarg"),
    "tool_unknown_key": ("SchemaViolation", "tools[0] has unknown key 'color'", "tools[0].color", "d1_unknown_kwarg"),
    "tool_usage_example_not_string": ("SchemaViolation", "tools[0].usage_examples[0] must be a string, got integer", "tools[0].usage_examples[0]", "d1_unknown_kwarg"),
    "tool_usage_examples_not_array": ("SchemaViolation", "tools[0].usage_examples must be a JSON array, got string", "tools[0].usage_examples", "d1_unknown_kwarg"),
}


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_golden_error(name):
    doc = _demo_document()
    doc = MUTATIONS[name](doc) or doc
    with pytest.raises((SchemaViolation, SpanMismatch)) as err:
        parse_corpus(json.dumps(doc))
    exc = err.value
    got = (type(exc).__name__, str(exc), getattr(exc, "field", None), exc.case_id)
    assert got == GOLDEN[name]


def test_golden_malformed_input_offsets():
    import importlib.resources

    raw = importlib.resources.files("paramfuzz").joinpath("data", "demo", "corpus.json").read_bytes()
    with pytest.raises(MalformedInput) as err:
        parse_corpus(raw[:300] + b"\xff" + raw[301:])
    assert (str(err.value), err.value.byte_offset) == (
        "corpus is not valid UTF-8 at byte 300: invalid start byte", 300
    )
    with pytest.raises(MalformedInput) as err:
        parse_corpus(raw[:300] + b"}" + raw[301:])
    assert (str(err.value), err.value.byte_offset) == (
        "corpus is not valid JSON at byte 300: Expecting property name enclosed in double quotes", 300
    )


# The key tables that the log reader and EndpointConfig used before they were
# derived from the model classes, written out as expected data.
_PARENT_KEY_TABLES = {
    TruncationEvent: (
        ("step_index", "integer", True),
        ("original_length", "integer", True),
        ("truncated_length", "integer", True),
    ),
    TrajectoryStep: (
        ("thought", "string", True),
        ("invocation", "object", False),
        ("observation", "string", False),
        ("final_answer", "string", False),
    ),
    ObservedInvocation: (
        ("tool_name", "string", True),
        ("arguments", "object", True),
        ("raw_text", "string", True),
    ),
    PerturbationRecord: (
        ("operator", "string", True),
        ("seed", "integer", False),
        ("details", "object", True),
    ),
    Trajectory: (
        ("case_id", "string", True),
        ("operator", "string", True),
        ("seed", "integer", True),
        ("driver_id", "string", True),
        ("outcome", "string", True),
        ("perturbation_applied", "boolean", True),
        ("steps", "array", True),
        ("perturbations", "array", True),
        ("skips", "array", True),
        ("truncations", "array", True),
    ),
    # Without the derived "passed" key, which FailureLabel adds itself.
    FailureLabel: (
        ("task_deviation", "boolean", True),
        ("specification_mismatch", "boolean", True),
        ("hallucination_name", "boolean", True),
        ("missing_information", "boolean", True),
        ("redundant_information", "boolean", True),
        ("evidence", "object", True),
        ("rouge_td", "number", False),
        ("rouge_sm", "number", False),
    ),
    AlignedLabel: (
        ("label", "object", True),
        ("observed_index", "integer", False),
        ("oracle_index", "integer", False),
    ),
    CampaignMeta: (
        ("corpus_sha256", "string", True),
        ("seed", "integer", True),
        ("driver", "string", True),
        ("operators", "array", True),
        ("step_limit", "integer", True),
        ("max_observation_length", "integer", True),
        ("case_count", "integer", True),
        ("classifier_version", "string", True),
        ("prompt_template_version", "string", True),
        ("package_version", "string", True),
    ),
    TrajectoryError: (
        ("operator", "string", True),
        ("case_id", "string", True),
        ("seed", "integer", True),
        ("error", "string", True),
        ("message", "string", True),
    ),
    Classification: (
        ("operator", "string", True),
        ("case_id", "string", True),
        ("seed", "integer", True),
        ("classifier_version", "string", True),
        ("case_pass", "boolean", True),
        ("labels", "array", True),
    ),
    SkipNote: (("target", "string", True), ("reason", "string", True), ("message", "string", True)),
}

# EndpointConfig's field types: {"str": "string", "float": "number", "int": "integer"}.
_ENDPOINT_TYPES = {
    "base_url": "string",
    "model": "string",
    "temperature": "number",
    "rate_per_minute": "number",
    "credential_env": "string",
    "timeout_s": "number",
    "max_retries": "integer",
    "backoff_base_s": "number",
}


class TestJsonKeys:
    @pytest.mark.parametrize("model", list(_PARENT_KEY_TABLES), ids=lambda model: model.__name__)
    def test_reproduces_the_log_key_tables(self, model):
        assert json_keys(model) == _PARENT_KEY_TABLES[model]

    def test_reproduces_the_endpoint_types(self):
        assert {key: jtype for key, jtype, _ in json_keys(EndpointConfig)} == _ENDPOINT_TYPES

    @pytest.mark.parametrize("annotation", [object, list[int], int | str, set])
    def test_unmappable_annotation_is_a_type_error(self, annotation):
        model = dataclasses.make_dataclass("Odd", [("ok", int), ("odd", annotation)])
        with pytest.raises(TypeError, match="Odd.odd"):
            json_keys(model)

    def test_writes_tuples_as_lists_and_nested_records_by_their_to_json(self):
        trajectory = Trajectory(
            case_id="c1",
            operator="RD",
            seed=7,
            driver_id="replay",
            outcome="answered",
            perturbation_applied=False,
            steps=(TrajectoryStep(thought="t", final_answer="Done."),),
            skips=(SkipNote("query", "NoMentions", "m"),),
            truncations=(TruncationEvent(0, 9, 4),),
        )
        assert trajectory.to_json() == {
            "case_id": "c1",
            "operator": "RD",
            "seed": 7,
            "driver_id": "replay",
            "outcome": "answered",
            "perturbation_applied": False,
            "steps": [
                {"thought": "t", "invocation": None, "observation": None, "final_answer": "Done."}
            ],
            "perturbations": [],
            "skips": [{"target": "query", "reason": "NoMentions", "message": "m"}],
            "truncations": [{"step_index": 0, "original_length": 9, "truncated_length": 4}],
        }
        assert list(FailureLabel().to_json())[-1] == "passed"
        assert Trajectory.from_json(trajectory.to_json()) == trajectory

    def test_reads_arrays_as_tuples(self):
        meta = CampaignMeta("0" * 64, 3, "replay", ("RD", "CK"), 8, 1024, 20, "1.0", "v", "0.1.0")
        assert meta.to_json()["operators"] == ["RD", "CK"]
        assert CampaignMeta.from_json(meta.to_json(), "log line 1") == meta
