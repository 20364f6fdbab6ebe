"""Campaign loop tests: logging, seeding, resume, and parallelism."""

import copy
import hashlib
import importlib.resources
import json
import re
from pathlib import Path

import pytest

from conftest import log_events, make_case, make_param, make_query, make_tool, scripted_return
from paramfuzz.campaign import (
    _EVENTS,
    CampaignConfig,
    LOG_FILE_NAME,
    ScriptBook,
    classify_log,
    corpus_sha256,
    derived_seed,
    log_line,
    read_log,
    run_campaign,
)
from paramfuzz.corpus import canonical_json, load_corpus, serialize_corpus
from paramfuzz.driver import EndpointConfig, ScriptedBehavior
from paramfuzz.errors import CampaignError, MalformedInput, ParamFuzzError
from paramfuzz.perturb import ALL_OPERATORS
from paramfuzz.reporting import emit_report


def write_corpus(tmp_path, cases, name="corpus.json"):
    path = tmp_path / name
    path.write_text(serialize_corpus(cases), encoding="utf-8")
    return str(path)


def two_case_corpus(tmp_path):
    cases = [
        make_case(
            "k1",
            scripted=(
                scripted_return("searcher", {"query": "books about whales"}, payload={"hits": 1}),
            ),
        ),
        make_case(
            "k2",
            tools=(
                make_tool(
                    "fetcher",
                    parameters=(make_param("url", "string", "Where to fetch from.", True),),
                ),
            ),
            query=make_query(
                "Fetch https://example.test/a now.",
                spans=[("https://example.test/a", "url", "fetcher")],
            ),
            oracle=(
                make_case().oracle[0].__class__(
                    tool_name="fetcher",
                    arguments={"url": "https://example.test/a"},
                    needed_params=frozenset({"url"}),
                ),
            ),
            scripted=(
                scripted_return("fetcher", {"url": "https://example.test/a"}, payload={"ok": True}),
            ),
        ),
    ]
    return write_corpus(tmp_path, cases)


class TestDerivedSeed:
    def test_matches_the_hash_formula(self):
        material = "7|RD|k1".encode("utf-8")
        expected = int.from_bytes(hashlib.sha256(material).digest()[:8], "big")
        assert derived_seed(7, "RD", "k1") == expected

    def test_distinct_per_operator_and_case(self):
        seeds = {
            derived_seed(0, op, case_id)
            for op in ALL_OPERATORS
            for case_id in ("k1", "k2", "k3")
        }
        assert len(seeds) == len(ALL_OPERATORS) * 3


class TestLogIo:
    def test_log_line_is_sorted_compact_json(self):
        assert log_line({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_read_log_round_trip(self, tmp_path):
        corpus = two_case_corpus(tmp_path)
        log_path = run_campaign(
            CampaignConfig(corpus_path=corpus, out_dir=str(tmp_path / "out"), operators=("RD", "CK"))
        )
        classify_log(read_log(log_path), corpus)
        events = log_events(log_path)
        log = read_log(log_path)
        assert len(log) == len(events) == 9
        assert {"event": "campaign_meta", **log.header.to_json()} == events[0]
        assert [{"event": "trajectory", **t.to_json()} for t in log.trajectories.values()] == [
            e for e in events if e["event"] == "trajectory"
        ]
        assert [
            [aligned.to_json() for aligned in verdict.labels]
            for verdict in log.classifications.values()
        ] == [e["labels"] for e in events if e["event"] == "classification"]

    def test_read_log_skips_blank_lines(self, tmp_path):
        log_path = run_campaign(
            CampaignConfig(corpus_path=two_case_corpus(tmp_path), out_dir=str(tmp_path / "out"))
        )
        path = tmp_path / "log.jsonl"
        path.write_text("\n" + log_line(log_events(log_path)[0]) + "\n\n", encoding="utf-8")
        assert len(read_log(str(path))) == 1

    def test_read_log_rejects_bad_json(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text("{not json\n", encoding="utf-8")
        with pytest.raises(MalformedInput):
            read_log(str(path))

    def test_read_log_rejects_untagged_events(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"seed": 1}\n', encoding="utf-8")
        with pytest.raises(MalformedInput):
            read_log(str(path))


class TestScriptBook:
    def test_resolution_order(self):
        case = make_case("k1")
        pair_script = ScriptedBehavior.from_json([{"final_answer": "pair"}])
        case_script = ScriptedBehavior.from_json([{"final_answer": "case"}])
        book = ScriptBook(scripts={"RD:k1": pair_script, "k1": case_script})
        assert book.resolve("RD", case).steps[-1].final_answer == "pair"
        assert book.resolve("RE", case).steps[-1].final_answer == "case"

    def test_fallback_replays_the_oracle(self):
        case = make_case("k9")
        behavior = ScriptBook().resolve("RD", case)
        assert behavior.steps[0].invocation.arguments == dict(case.oracle[0].arguments)

    def test_from_json_requires_scripts_object(self):
        with pytest.raises(MalformedInput):
            ScriptBook.from_json({"not_scripts": {}})

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "scripts.json"
        path.write_text("{", encoding="utf-8")
        with pytest.raises(MalformedInput):
            ScriptBook.load(str(path))


class TestCampaignConfig:
    def test_unknown_operator_rejected(self, tmp_path):
        with pytest.raises(CampaignError):
            CampaignConfig(corpus_path="c", out_dir=str(tmp_path), operators=("RD", "ZZ"))

    def test_empty_operator_list_rejected(self, tmp_path):
        with pytest.raises(CampaignError):
            CampaignConfig(corpus_path="c", out_dir=str(tmp_path), operators=())

    def test_http_driver_needs_endpoint(self, tmp_path):
        with pytest.raises(CampaignError):
            CampaignConfig(corpus_path="c", out_dir=str(tmp_path), driver="http")
        CampaignConfig(
            corpus_path="c",
            out_dir=str(tmp_path),
            driver="http",
            endpoint=EndpointConfig(base_url="http://h", model="m"),
        )

    def test_bad_driver_and_bounds(self, tmp_path):
        with pytest.raises(CampaignError):
            CampaignConfig(corpus_path="c", out_dir=str(tmp_path), driver="carrier_pigeon")
        with pytest.raises(CampaignError):
            CampaignConfig(corpus_path="c", out_dir=str(tmp_path), workers=0)
        with pytest.raises(CampaignError):
            CampaignConfig(corpus_path="c", out_dir=str(tmp_path), step_limit=0)
        with pytest.raises(CampaignError, match="max_observation_length must be at least 1"):
            CampaignConfig(corpus_path="c", out_dir=str(tmp_path), max_observation_length=-5)
        with pytest.raises(CampaignError, match="workers apply only to the http driver"):
            CampaignConfig(corpus_path="c", out_dir=str(tmp_path), workers=2)

    def test_ordered_operators_canonicalizes_selection(self, tmp_path):
        config = CampaignConfig(
            corpus_path="c", out_dir=str(tmp_path), operators=("CF", "RD", "AN")
        )
        assert config.ordered_operators == ("RD", "AN", "CF")


class TestRunCampaign:
    def test_full_run_log_shape(self, tmp_path):
        corpus = two_case_corpus(tmp_path)
        config = CampaignConfig(
            corpus_path=corpus, out_dir=str(tmp_path / "out"), operators=("RD", "CK"), seed=11
        )
        log_path = run_campaign(config)
        assert log_path.endswith(LOG_FILE_NAME)
        events = log_events(log_path)
        assert events[0]["event"] == "campaign_meta"
        assert events[0]["operators"] == ["RD", "CK"]
        assert events[0]["case_count"] == 2
        assert "timestamp" not in events[0]
        trajectories = [e for e in events if e["event"] == "trajectory"]
        assert [(e["operator"], e["case_id"]) for e in trajectories] == [
            ("RD", "k1"), ("RD", "k2"), ("CK", "k1"), ("CK", "k2"),
        ]
        for event in trajectories:
            assert event["seed"] == derived_seed(11, event["operator"], event["case_id"])

    def test_reruns_are_byte_identical(self, tmp_path):
        corpus = two_case_corpus(tmp_path)

        def run(out):
            config = CampaignConfig(
                corpus_path=corpus, out_dir=str(tmp_path / out), seed=4
            )
            return Path(run_campaign(config)).read_bytes()

        assert run("a") == run("b")

    def test_parallel_log_matches_serial(self, tmp_path, monkeypatch):
        import requests

        corpus = two_case_corpus(tmp_path)
        oracles = {case.tools[0].tool_name: case.oracle for case in load_corpus(corpus)}

        class Response:
            status_code = 200

            def __init__(self, content):
                self.body = {"choices": [{"message": {"content": content}}]}
                self.text = json.dumps(self.body)

            def json(self):
                return self.body

        def answer_the_oracle(url, headers=None, json=None, timeout=None):
            """Answer each case's oracle calls in turn, then finish."""
            messages = json["messages"]
            tool = re.search(r'"tool_name":\s*"([^"]+)"', messages[0]["content"]).group(1)
            step = sum(1 for message in messages if message["role"] == "assistant")
            if step >= len(oracles[tool]):
                return Response("Thought: The task is complete.\nFinal Answer: Done.")
            call = oracles[tool][step]
            return Response(
                f"Thought: Call {call.tool_name}.\nAction: {call.tool_name}\n"
                f"Action Input: {canonical_json(call.arguments)}"
            )

        monkeypatch.setattr(requests, "post", answer_the_oracle)
        endpoint = EndpointConfig(
            base_url="http://fake", model="m", rate_per_minute=0, backoff_base_s=0.0
        )

        def run(out, workers):
            config = CampaignConfig(
                corpus_path=corpus,
                out_dir=str(tmp_path / out),
                driver="http",
                seed=4,
                workers=workers,
                endpoint=endpoint,
            )
            return run_campaign(config)

        serial = run("serial", 1)
        events = log_events(serial)
        assert [e["event"] for e in events[1:]] == ["trajectory"] * 2 * len(ALL_OPERATORS)
        assert all(e["outcome"] == "answered" for e in events[1:])
        assert Path(serial).read_bytes() == Path(run("parallel", 4)).read_bytes()

    def test_resume_skips_finished_pairs(self, tmp_path):
        corpus = two_case_corpus(tmp_path)
        out = tmp_path / "out"
        first = CampaignConfig(
            corpus_path=corpus, out_dir=str(out), operators=("RD",), seed=2
        )
        log_path = run_campaign(first)
        after_first = Path(log_path).read_bytes()
        resumed = CampaignConfig(
            corpus_path=corpus, out_dir=str(out), operators=("RD", "CK"), seed=2
        )
        run_campaign(resumed)
        after_second = Path(log_path).read_bytes()
        assert after_second.startswith(after_first)
        trajectories = [e for e in log_events(log_path) if e["event"] == "trajectory"]
        assert [(e["operator"], e["case_id"]) for e in trajectories] == [
            ("RD", "k1"), ("RD", "k2"), ("CK", "k1"), ("CK", "k2"),
        ]
        third = run_campaign(resumed)
        assert Path(third).read_bytes() == after_second

    def test_resume_rejects_changed_seed(self, tmp_path):
        corpus = two_case_corpus(tmp_path)
        out = tmp_path / "out"
        run_campaign(CampaignConfig(corpus_path=corpus, out_dir=str(out), seed=1))
        with pytest.raises(CampaignError):
            run_campaign(CampaignConfig(corpus_path=corpus, out_dir=str(out), seed=2))

    def test_resume_rejects_changed_corpus(self, tmp_path):
        corpus = two_case_corpus(tmp_path)
        out = tmp_path / "out"
        run_campaign(CampaignConfig(corpus_path=corpus, out_dir=str(out), seed=1))
        other = write_corpus(tmp_path, [make_case("k1")], name="other.json")
        with pytest.raises(CampaignError):
            run_campaign(CampaignConfig(corpus_path=other, out_dir=str(out), seed=1))

    def test_resume_rejects_headerless_log(self, tmp_path):
        corpus = two_case_corpus(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        (out / LOG_FILE_NAME).write_text('{"event":"trajectory"}\n', encoding="utf-8")
        with pytest.raises(CampaignError):
            run_campaign(CampaignConfig(corpus_path=corpus, out_dir=str(out), seed=1))

    def test_unsolvable_cases_are_filtered_out(self, tmp_path):
        cases = [
            make_case(
                "k1",
                scripted=(
                    scripted_return(
                        "searcher", {"query": "books about whales"}, payload={}
                    ),
                ),
            ),
            make_case("k_broken", solvable=False),
        ]
        corpus = write_corpus(tmp_path, cases)
        log_path = run_campaign(
            CampaignConfig(corpus_path=corpus, out_dir=str(tmp_path / "out"), operators=("RD",))
        )
        events = log_events(log_path)
        assert events[0]["case_count"] == 1
        assert {e["case_id"] for e in events if e["event"] == "trajectory"} == {"k1"}

    def test_empty_corpus_refused(self, tmp_path):
        corpus = write_corpus(tmp_path, [make_case("k1", solvable=False)])
        with pytest.raises(CampaignError):
            run_campaign(CampaignConfig(corpus_path=corpus, out_dir=str(tmp_path / "out")))

    def test_scripted_failure_reaches_the_log(self, tmp_path):
        corpus = two_case_corpus(tmp_path)
        scripts = {
            "scripts": {
                "RD:k1": [
                    {
                        "thought": "call with a made-up parameter",
                        "action": {
                            "tool_name": "searcher",
                            "arguments": {"query": "books about whales", "page_size": 5},
                        },
                    },
                    {"final_answer": "done"},
                ]
            }
        }
        scripts_path = tmp_path / "scripts.json"
        scripts_path.write_text(json.dumps(scripts), encoding="utf-8")
        config = CampaignConfig(
            corpus_path=corpus,
            out_dir=str(tmp_path / "out"),
            operators=("RD", "RE"),
            scripts_path=str(scripts_path),
        )
        log_path = run_campaign(config)
        trajectories = {
            (e["operator"], e["case_id"]): e
            for e in log_events(log_path)
            if e["event"] == "trajectory"
        }
        planted = trajectories[("RD", "k1")]
        arguments = planted["steps"][0]["invocation"]["arguments"]
        assert arguments == {"query": "books about whales", "page_size": 5}
        untouched = trajectories[("RE", "k1")]
        assert untouched["steps"][0]["invocation"]["arguments"] == {
            "query": "books about whales"
        }


class TestClassifyLog:
    def test_appends_one_event_per_trajectory(self, tmp_path):
        corpus = two_case_corpus(tmp_path)
        config = CampaignConfig(
            corpus_path=corpus, out_dir=str(tmp_path / "out"), operators=("RD", "CK")
        )
        log_path = run_campaign(config)
        assert classify_log(read_log(log_path), corpus) == 4
        events = log_events(log_path)
        classifications = [e for e in events if e["event"] == "classification"]
        assert len(classifications) == 4
        assert all(e["case_pass"] for e in classifications)
        assert all(e["labels"] for e in classifications)

    def test_idempotent_on_a_classified_log(self, tmp_path):
        corpus = two_case_corpus(tmp_path)
        log_path = run_campaign(
            CampaignConfig(corpus_path=corpus, out_dir=str(tmp_path / "out"), operators=("RD",))
        )
        assert classify_log(read_log(log_path), corpus) == 2
        before = Path(log_path).read_bytes()
        assert classify_log(read_log(log_path), corpus) == 0
        assert Path(log_path).read_bytes() == before

    def test_adds_its_classifications_to_the_index(self, tmp_path):
        corpus = two_case_corpus(tmp_path)
        log_path = run_campaign(
            CampaignConfig(corpus_path=corpus, out_dir=str(tmp_path / "out"), operators=("RD",))
        )
        log = read_log(log_path)
        assert classify_log(log, corpus) == 2
        assert len(log) == 5
        reread = read_log(log_path)
        assert log.classifications == reread.classifications
        assert len(reread) == 5

    def test_rejects_a_log_from_another_classifier_version(self, tmp_path):
        corpus = two_case_corpus(tmp_path)
        log_path = run_campaign(
            CampaignConfig(corpus_path=corpus, out_dir=str(tmp_path / "out"), operators=("RD",))
        )
        events = log_events(log_path)
        events[0]["classifier_version"] = "0.9"
        with open(log_path, "w", encoding="utf-8") as handle:
            handle.write("".join(log_line(e) + "\n" for e in events))
        before = Path(log_path).read_bytes()
        with pytest.raises(CampaignError) as err:
            classify_log(read_log(log_path), corpus)
        assert str(err.value) == (
            "log header has classifier_version '0.9', but this build classifies with '1.0'"
        )
        assert Path(log_path).read_bytes() == before

    def test_rejects_mismatched_corpus(self, tmp_path):
        corpus = two_case_corpus(tmp_path)
        log_path = run_campaign(
            CampaignConfig(corpus_path=corpus, out_dir=str(tmp_path / "out"), operators=("RD",))
        )
        other = write_corpus(tmp_path, [make_case("k1")], name="other.json")
        with pytest.raises(CampaignError):
            classify_log(read_log(log_path), other)

    def test_corpus_hash_matches_file_bytes(self, tmp_path):
        corpus = two_case_corpus(tmp_path)
        digest = hashlib.sha256(Path(corpus).read_bytes()).hexdigest()
        assert corpus_sha256(corpus) == digest


# ------------------------------------------------- golden campaign-log errors

@pytest.fixture(scope="module")
def mock_log(tmp_path_factory):
    """The classified packaged mock campaign: its corpus and raw events."""
    data = importlib.resources.files("paramfuzz").joinpath("data", "mock_campaign")
    with importlib.resources.as_file(data) as root:
        corpus = str(root / "corpus.json")
        config = CampaignConfig(
            corpus_path=corpus,
            out_dir=str(tmp_path_factory.mktemp("mock_log")),
            scripts_path=str(root / "scripts.json"),
        )
        log_path = run_campaign(config)
        classify_log(read_log(log_path), corpus)
        yield corpus, log_events(log_path)


# Event indices: the header is log line 1, the (RD, m01) trajectory line 2,
# the last trajectory line 301 and the (RD, m01) classification line 302,
# which flags task deviation with one evidence entry. _with_error puts a
# trajectory error at E, between the trajectories and the classifications.
H, T, LAST_T, C = 0, 1, 300, 301
E = LAST_T + 1


def _walk(event, path):
    *parents, last = [int(p) if p.isdigit() else p for p in path.split(".")]
    for key in parents:
        event = event[key]
    return event, last


def _set(index, path, value):
    def mutate(events):
        parent, key = _walk(events[index], path)
        parent[key] = value
    return mutate


def _drop(index, path):
    def mutate(events):
        parent, key = _walk(events[index], path)
        del parent[key]
    return mutate


def _insert(at, make):
    def mutate(events):
        events.insert(at, make(events))
    return mutate


def _line(text):
    return _insert(4, lambda events: text)


def _error_event(events):
    return {
        "event": "trajectory_error",
        "operator": "RD",
        "case_id": "m01",
        "seed": 1,
        "error": "TransportError",
        "message": "endpoint failure (HTTP 503)",
    }


def _with_error(*changes):
    """Insert a trajectory error at E, then apply the changes."""
    def mutate(events):
        events.insert(E, _error_event(events))
        for change in changes:
            change(events)
    return mutate


def _move(source, target):
    def mutate(events):
        events.insert(target, events.pop(source))
    return mutate


def _copy_of(index, **changes):
    return lambda events: {**copy.deepcopy(events[index]), **changes}


STEP = "steps.0"
INVOCATION = "steps.0.invocation"
LABEL = "labels.0.label"

LOG_MUTATIONS = {
    "bad_json": _line("{not json"),
    # A lone surrogate is written as the one byte 0xff (see test_golden_log_error).
    "line_not_utf8": _line('{"event": "trajectory", "case_id": "m\udcff01"}'),
    "line_not_object": _line("[1, 2]"),
    "untagged_line": _drop(T, "event"),
    "unknown_event": _set(T, "event", "trajectory_v2"),
    "event_not_string": _set(T, "event", ["trajectory"]),
    "meta_missing_key": _drop(H, "corpus_sha256"),
    "meta_unknown_key": _set(H, "timestamp", "2024-01-01"),
    "meta_seed_not_integer": _set(H, "seed", 0.0),
    "trajectory_missing_key": _drop(T, "perturbation_applied"),
    "trajectory_unknown_key": _set(T, "latency_s", 0.5),
    "trajectory_seed_string": _set(T, "seed", "1"),
    "trajectory_seed_bool": _set(T, "seed", True),
    "trajectory_applied_string": _set(T, "perturbation_applied", "false"),
    "step_missing_key": _drop(T, STEP + ".thought"),
    "step_unknown_key": _set(T, STEP + ".tokens", 12),
    "step_not_object": _set(T, STEP, "Calling svc_01."),
    "invocation_missing_key": _drop(T, INVOCATION + ".tool_name"),
    "invocation_unknown_key": _set(T, INVOCATION + ".id", "call_1"),
    "invocation_arguments_string": _set(T, INVOCATION + ".arguments", "mode=full"),
    "perturbation_missing_key": _drop(T, "perturbations.0.details"),
    "skip_missing_key": _set(T, "skips", [{"target": "query", "reason": "NoMentions"}]),
    "truncation_not_integer": _set(
        T, "truncations", [{"step_index": 0, "original_length": "5000", "truncated_length": 1024}]
    ),
    "error_missing_key": _with_error(_drop(E, "message")),
    "error_unknown_key": _with_error(_set(E, "status", 503)),
    "classification_missing_key": _drop(C, "case_pass"),
    "classification_unknown_key": _set(C, "judge", "human"),
    "classification_case_pass_string": _set(C, "case_pass", "false"),
    "aligned_label_unknown_key": _set(C, "labels.0.weight", 1),
    "label_missing_key": _drop(C, LABEL + ".task_deviation"),
    "label_unknown_key": _set(C, LABEL + ".confidence", 0.9),
    "label_rouge_bool": _set(C, LABEL + ".rouge_td", True),
    "label_flag_without_evidence": _set(C, LABEL + ".evidence", {}),
    "label_unknown_evidence_category": _set(C, LABEL + ".evidence.vibes", []),
    "evidence_entry_missing_key": _drop(C, LABEL + ".evidence.task_deviation.0.rule"),
    "duplicate_trajectory": _insert(LAST_T + 1, _copy_of(T)),
    "duplicate_trajectory_error": _with_error(_insert(E + 1, _error_event)),
    "error_repeats_trajectory": _with_error(_set(E, "seed", 17301365158976469019)),
    "duplicate_classification": _insert(C + 1, _copy_of(C, case_pass=True)),
    "second_header": _insert(C, _copy_of(H)),
    "header_not_first": _move(H, 1),
    "header_missing": lambda events: events.pop(H),
    "orphan_classification": _move(C, 1),
    "classification_of_an_error": _with_error(_insert(E + 2, _copy_of(E + 1, seed=1))),
    "classifier_version_mismatch": _set(C, "classifier_version", "0.9"),
    "header_classifier_version": _set(H, "classifier_version", "0.9"),
}

# The MalformedInput messages are the same as before the log had key tables.
LOG_GOLDEN = {
    "aligned_label_unknown_key": ('SchemaViolation', "log line 302.labels[0] has unknown key 'weight'", 'log line 302.labels[0].weight'),
    "bad_json": ('MalformedInput', 'log line 5 is not valid JSON: Expecting property name enclosed in double quotes', None),
    "classification_case_pass_string": ('SchemaViolation', 'log line 302.case_pass must be a boolean, got string', 'log line 302.case_pass'),
    "classification_missing_key": ('SchemaViolation', "log line 302 is missing required key 'case_pass'", 'log line 302.case_pass'),
    "classification_of_an_error": ('CampaignError', 'log line 304 classifies (RD, m01, seed 1), but no earlier line holds its trajectory', None),
    "classification_unknown_key": ('SchemaViolation', "log line 302 has unknown key 'judge'", 'log line 302.judge'),
    "classifier_version_mismatch": ('CampaignError', "log line 302 has classifier_version '0.9', but the header on line 1 has '1.0'", None),
    "duplicate_classification": ('CampaignError', 'log line 303 is a second classification of (RD, m01, seed 17301365158976469019); the first is on line 302', None),
    "duplicate_trajectory": ('CampaignError', 'log line 302 is a second run of (RD, m01, seed 17301365158976469019); the first is on line 2', None),
    "duplicate_trajectory_error": ('CampaignError', 'log line 303 is a second run of (RD, m01, seed 1); the first is on line 302', None),
    "error_missing_key": ('SchemaViolation', "log line 302 is missing required key 'message'", 'log line 302.message'),
    "error_repeats_trajectory": ('CampaignError', 'log line 302 is a second run of (RD, m01, seed 17301365158976469019); the first is on line 2', None),
    "error_unknown_key": ('SchemaViolation', "log line 302 has unknown key 'status'", 'log line 302.status'),
    "evidence_entry_missing_key": ('SchemaViolation', "log line 302.labels[0].label.evidence.task_deviation[0] is missing required key 'rule'", 'log line 302.labels[0].label.evidence.task_deviation[0].rule'),
    "header_classifier_version": ('CampaignError', "log line 302 has classifier_version '1.0', but the header on line 1 has '0.9'", None),
    "header_missing": ('CampaignError', 'log line 1 is a trajectory event, but a campaign log must start with its campaign_meta header', None),
    "header_not_first": ('CampaignError', 'log line 1 is a trajectory event, but a campaign log must start with its campaign_meta header', None),
    "invocation_arguments_string": ('SchemaViolation', 'log line 2.steps[0].invocation.arguments must be a JSON object, got string', 'log line 2.steps[0].invocation.arguments'),
    "invocation_missing_key": ('SchemaViolation', "log line 2.steps[0].invocation is missing required key 'tool_name'", 'log line 2.steps[0].invocation.tool_name'),
    "invocation_unknown_key": ('SchemaViolation', "log line 2.steps[0].invocation has unknown key 'id'", 'log line 2.steps[0].invocation.id'),
    "label_flag_without_evidence": ('SchemaViolation', 'flag task_deviation is set without evidence', 'log line 302.labels[0].label.evidence'),
    "label_missing_key": ('SchemaViolation', "log line 302.labels[0].label is missing required key 'task_deviation'", 'log line 302.labels[0].label.task_deviation'),
    "label_rouge_bool": ('SchemaViolation', 'log line 302.labels[0].label.rouge_td must be a number, got boolean', 'log line 302.labels[0].label.rouge_td'),
    "label_unknown_evidence_category": ('SchemaViolation', "log line 302.labels[0].label.evidence has unknown key 'vibes'", 'log line 302.labels[0].label.evidence.vibes'),
    "label_unknown_key": ('SchemaViolation', "log line 302.labels[0].label has unknown key 'confidence'", 'log line 302.labels[0].label.confidence'),
    "line_not_object": ('MalformedInput', 'log line 5 is not a tagged event', None),
    "meta_missing_key": ('SchemaViolation', "log line 1 is missing required key 'corpus_sha256'", 'log line 1.corpus_sha256'),
    "meta_seed_not_integer": ('SchemaViolation', 'log line 1.seed must be an integer, got number', 'log line 1.seed'),
    "meta_unknown_key": ('SchemaViolation', "log line 1 has unknown key 'timestamp'", 'log line 1.timestamp'),
    "orphan_classification": ('CampaignError', 'log line 2 classifies (RD, m01, seed 17301365158976469019), but no earlier line holds its trajectory', None),
    "perturbation_missing_key": ('SchemaViolation', "log line 2.perturbations[0] is missing required key 'details'", 'log line 2.perturbations[0].details'),
    "second_header": ('CampaignError', 'log line 302 is a second campaign_meta header; the first is on line 1', None),
    "skip_missing_key": ('SchemaViolation', "log line 2.skips[0] is missing required key 'message'", 'log line 2.skips[0].message'),
    "step_missing_key": ('SchemaViolation', "log line 2.steps[0] is missing required key 'thought'", 'log line 2.steps[0].thought'),
    "step_not_object": ('SchemaViolation', 'log line 2.steps[0] must be a JSON object, got string', 'log line 2.steps[0]'),
    "step_unknown_key": ('SchemaViolation', "log line 2.steps[0] has unknown key 'tokens'", 'log line 2.steps[0].tokens'),
    "trajectory_applied_string": ('SchemaViolation', 'log line 2.perturbation_applied must be a boolean, got string', 'log line 2.perturbation_applied'),
    "trajectory_missing_key": ('SchemaViolation', "log line 2 is missing required key 'perturbation_applied'", 'log line 2.perturbation_applied'),
    "trajectory_seed_bool": ('SchemaViolation', 'log line 2.seed must be an integer, got boolean', 'log line 2.seed'),
    "trajectory_seed_string": ('SchemaViolation', 'log line 2.seed must be an integer, got string', 'log line 2.seed'),
    "trajectory_unknown_key": ('SchemaViolation', "log line 2 has unknown key 'latency_s'", 'log line 2.latency_s'),
    "truncation_not_integer": ('SchemaViolation', 'log line 2.truncations[0].original_length must be an integer, got string', 'log line 2.truncations[0].original_length'),
    "unknown_event": ('SchemaViolation', "log line 2.event must be one of campaign_meta, trajectory, trajectory_error, classification, got 'trajectory_v2'", 'log line 2.event'),
    "untagged_line": ('MalformedInput', 'log line 2 is not a tagged event', None),
    "line_not_utf8": ('MalformedInput', 'log line 5 is not valid UTF-8 at byte 37: invalid start byte', None),
    "event_not_string": ('SchemaViolation', "log line 2.event must be one of campaign_meta, trajectory, trajectory_error, classification, got ['trajectory']", 'log line 2.event'),
}


@pytest.mark.parametrize("name", sorted(LOG_MUTATIONS))
def test_golden_log_error(mock_log, tmp_path, name):
    corpus, events = mock_log
    events = copy.deepcopy(events)
    LOG_MUTATIONS[name](events)
    log_path = tmp_path / "campaign.jsonl"
    log_path.write_text(
        "".join((e if isinstance(e, str) else log_line(e)) + "\n" for e in events),
        encoding="utf-8",
        errors="surrogateescape",
    )
    before = log_path.read_bytes()
    got = []
    for command in (
        lambda: classify_log(read_log(str(log_path)), corpus),
        lambda: emit_report(read_log(str(log_path)), str(tmp_path / "report")),
    ):
        with pytest.raises(ParamFuzzError) as err:
            command()
        exc = err.value
        got.append((type(exc).__name__, str(exc), getattr(exc, "field", None)))
    assert got[0] == got[1]
    assert log_path.read_bytes() == before
    assert not (tmp_path / "report").exists()
    assert got[0] == LOG_GOLDEN[name]


def test_every_event_round_trips_through_its_record_class(mock_log):
    _, events = mock_log
    for number, event in enumerate([*events, _error_event(events)], start=1):
        raw = {key: value for key, value in event.items() if key != "event"}
        record = _EVENTS[event["event"]].from_json(copy.deepcopy(raw), f"log line {number}")
        assert isinstance(record, _EVENTS[event["event"]])
        assert record.to_json() == raw
