"""Campaign loop tests: logging, seeding, resume, and parallelism."""

import collections
import concurrent.futures
import copy
import errno
import gc
import hashlib
import importlib.resources
import itertools
import json
import random
import re
import threading
import time
import types
from pathlib import Path

import pytest

from conftest import (
    DEPTH_SLICE_CASES,
    MOCK_CAMPAIGN_SHA256,
    log_events,
    make_case,
    make_param,
    make_query,
    make_tool,
    scripted_return,
)
from paramfuzz import campaign, cli, corpus as corpus_module, driver
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
from paramfuzz.classify import CLASSIFIER_VERSION, ObservedInvocation, classify_trajectory
from paramfuzz.corpus import (
    OracleInvocation,
    all_tools,
    canonical_json,
    filter_cases,
    load_corpus,
    parse_corpus,
    serialize_corpus,
)
from paramfuzz.driver import EndpointConfig, ReplayDriver, ScriptedBehavior, run_case
from paramfuzz.errors import CampaignError, MalformedInput, ParamFuzzError, SchemaViolation
from paramfuzz.perturb import ALL_OPERATORS, document, donor_pool
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


class OracleHttp:
    """An http campaign over a corpus, two_case_corpus unless one is given,
    whose requests.post answers each case's oracle calls in turn, then
    finishes. A case is known by its first tool's name."""

    def __init__(self, tmp_path, monkeypatch, corpus=None):
        import requests

        self.tmp_path = tmp_path
        self.corpus = corpus or two_case_corpus(tmp_path)
        # Seconds to hold each answer, from its request's messages; none
        # unless a test sets it.
        self.delay = None
        oracles = {case.tools[0].tool_name: case.oracle for case in load_corpus(self.corpus)}

        class Response:
            status_code = 200

            def __init__(self, content):
                self.body = {"choices": [{"message": {"content": content}}]}
                self.text = json.dumps(self.body)

            def json(self):
                return self.body

        def answer_the_oracle(url, headers=None, json=None, timeout=None):
            messages = json["messages"]
            if self.delay is not None:
                time.sleep(self.delay(messages))
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
        self.endpoint = EndpointConfig(
            base_url="http://fake", model="m", rate_per_minute=0, backoff_base_s=0.0
        )

    def run(self, out, workers):
        config = CampaignConfig(
            corpus_path=self.corpus,
            out_dir=str(self.tmp_path / out),
            driver="http",
            seed=4,
            workers=workers,
            endpoint=self.endpoint,
        )
        return run_campaign(config).path


@pytest.fixture
def oracle_http(tmp_path, monkeypatch):
    return OracleHttp(tmp_path, monkeypatch)


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
        ).path
        classify_log(read_log(log_path), corpus)
        events = log_events(log_path)
        log = read_log(log_path)
        assert len(log) == len(events) == 9
        assert {"event": "campaign_meta", **log.header.to_json()} == events[0]
        assert [
            (key, entry.seed, entry.applied, [invocation.to_json() for invocation in entry.invocations])
            for key, entry in log.trajectories.items()
        ] == [
            (
                (e["operator"], e["case_id"]),
                e["seed"],
                e["perturbation_applied"],
                [step["invocation"] for step in e["steps"] if step["invocation"] is not None],
            )
            for e in events
            if e["event"] == "trajectory"
        ]
        assert [
            [aligned.to_json() for aligned in verdict.aligned]
            for verdict in log.classifications.values()
        ] == [e["labels"] for e in events if e["event"] == "classification"]

    def test_read_log_skips_blank_lines(self, tmp_path):
        log_path = run_campaign(
            CampaignConfig(corpus_path=two_case_corpus(tmp_path), out_dir=str(tmp_path / "out"))
        ).path
        path = tmp_path / "log.jsonl"
        path.write_text("\n" + log_line(log_events(log_path)[0]) + "\n\n", encoding="utf-8")
        assert len(read_log(str(path))) == 1

    def test_read_log_of_blank_lines_has_no_header(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text("\n \n\n", encoding="utf-8")
        with pytest.raises(CampaignError, match="has no campaign_meta header"):
            read_log(str(path))

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

    def test_a_campaign_builds_each_fallback_once(self, tmp_path, monkeypatch):
        """run_campaign builds a case's fallback script once, however many
        of its pairs are unscripted, and every operator gets that object."""
        built = []
        replaying = ScriptedBehavior.replaying

        def counted(case):
            built.append(case.case_id)
            return replaying(case)

        monkeypatch.setattr(ScriptedBehavior, "replaying", counted)
        data = importlib.resources.files("paramfuzz").joinpath("data", "mock_campaign")
        with importlib.resources.as_file(data) as root:
            config = CampaignConfig(
                corpus_path=str(root / "corpus.json"),
                out_dir=str(tmp_path / "out"),
                scripts_path=str(root / "scripts.json"),
            )
            run_campaign(config)
            cases = filter_cases(load_corpus(config.corpus_path))
            book = ScriptBook.load(config.scripts_path)
        unscripted = [
            case
            for case in cases
            if case.case_id not in book.scripts
            and any(f"{operator}:{case.case_id}" not in book.scripts for operator in ALL_OPERATORS)
        ]
        assert len(unscripted) > 1
        assert sorted(built) == sorted(case.case_id for case in unscripted)
        case = unscripted[0]
        first, second = [op for op in ALL_OPERATORS if f"{op}:{case.case_id}" not in book.scripts][:2]
        assert book.resolve(first, case) is book.resolve(second, case)

    def test_from_json_requires_scripts_object(self):
        # Changed: the codec checks the book, so this is a SchemaViolation,
        # no longer MalformedInput; both exit 1.
        with pytest.raises(SchemaViolation, match="^script book is missing required key 'scripts'$"):
            ScriptBook.from_json({"not_scripts": {}})
        with pytest.raises(SchemaViolation, match="^script book.scripts must be a JSON object, got array$"):
            ScriptBook.from_json({"scripts": []})

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

    def test_scripts_are_refused_with_the_http_driver(self, tmp_path, capsys, monkeypatch):
        import requests

        def no_request(*args, **kwargs):
            raise AssertionError("the run sent a request")

        monkeypatch.setattr(requests, "post", no_request)
        data = importlib.resources.files("paramfuzz").joinpath("data", "mock_campaign")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"endpoint": {"base_url": "http://h", "model": "m"}}), encoding="utf-8")
        argv = ["run", "--corpus", str(data / "corpus.json"), "--scripts", str(data / "scripts.json"),
                "--driver", "http", "--config", str(config), "--out", str(tmp_path / "out")]
        assert cli.main(argv) == cli.EXIT_CAMPAIGN
        assert capsys.readouterr().err == (
            "campaign error: scripts apply only to the replay driver; the http driver asks its endpoint\n"
        )
        assert not (tmp_path / "out").exists()

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
        log_path = run_campaign(config).path
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
            return Path(run_campaign(config).path).read_bytes()

        assert run("a") == run("b")

    def test_parallel_log_matches_serial(self, oracle_http):
        serial = oracle_http.run("serial", 1)
        events = log_events(serial)
        assert [e["event"] for e in events[1:]] == ["trajectory"] * 2 * len(ALL_OPERATORS)
        assert all(e["outcome"] == "answered" for e in events[1:])
        assert Path(serial).read_bytes() == Path(oracle_http.run("parallel", 4)).read_bytes()

    @pytest.mark.parametrize("workers", [1, 4])
    def test_http_prompt_is_rendered_once_per_trajectory(self, oracle_http, monkeypatch, workers):
        render = driver.render_function_declarations
        rendered = []
        monkeypatch.setattr(
            driver, "render_function_declarations", lambda tools: rendered.append(tools) or render(tools)
        )
        sent = []
        messages_of = driver.HttpDriver._messages

        def record(self, ctx):
            messages = messages_of(self, ctx)
            sent.append((ctx.tools, messages, copy.deepcopy(messages)))
            return messages

        monkeypatch.setattr(driver.HttpDriver, "_messages", record)
        trajectories = len(log_events(oracle_http.run("out", workers))) - 1
        assert trajectories == 2 * len(ALL_OPERATORS)
        # A worker whose next trajectory has the very same tools tuple may
        # reuse the render, so with 4 workers the count is at most one each.
        if workers == 1:
            assert len(rendered) == trajectories
        else:
            assert 2 <= len(rendered) <= trajectories
        assert len(sent) == 2 * trajectories
        for tools, messages, snapshot in sent:
            assert messages == snapshot
            assert messages[0]["content"] == driver.SYSTEM_TEMPLATE.format(
                declarations=render(tools), tool_names=", ".join(t.tool_name for t in tools)
            )

    def test_resume_skips_finished_pairs(self, tmp_path):
        corpus = two_case_corpus(tmp_path)

        def config(out):
            return CampaignConfig(
                corpus_path=corpus, out_dir=str(tmp_path / out), operators=("RD", "CK"), seed=2
            )

        whole = Path(run_campaign(config("whole")).path).read_bytes()
        # The log of a run stopped after its first pair: the header and one trajectory.
        cut = b"".join(whole.splitlines(keepends=True)[:2])
        (tmp_path / "out").mkdir()
        log_path = tmp_path / "out" / LOG_FILE_NAME
        log_path.write_bytes(cut)
        assert len(run_campaign(config("out")).trajectories) == 4
        assert log_path.read_bytes() == whole
        trajectories = [e for e in log_events(log_path) if e["event"] == "trajectory"]
        assert [(e["operator"], e["case_id"]) for e in trajectories] == [
            ("RD", "k1"), ("RD", "k2"), ("CK", "k1"), ("CK", "k2"),
        ]
        run_campaign(config("out"))
        assert log_path.read_bytes() == whole

    def test_resume_rejects_changed_operators(self, tmp_path):
        corpus = two_case_corpus(tmp_path)
        out = tmp_path / "out"
        log_path = run_campaign(
            CampaignConfig(corpus_path=corpus, out_dir=str(out), operators=("RD",), seed=2)
        ).path
        before = Path(log_path).read_bytes()
        with pytest.raises(CampaignError) as err:
            run_campaign(
                CampaignConfig(corpus_path=corpus, out_dir=str(out), operators=("RD", "CK"), seed=2)
            )
        assert str(err.value) == (
            "cannot resume: log was written with operators=('RD',), this run uses ('RD', 'CK')"
        )
        assert Path(log_path).read_bytes() == before

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

    def test_a_resume_after_a_cut_at_any_byte_reproduces_the_log(self, tmp_path, capsys):
        # A small case keeps the log, and so the number of cuts, short.
        tool = make_tool("s", parameters=(make_param("q", "string", "Q.", True),), usage_examples=())
        case = make_case(
            "k", tools=(tool,), query=make_query("Find x.", spans=[("x", "q", "s")]),
            oracle=(OracleInvocation("s", {"q": "x"}, frozenset({"q"})),),
            scripted=(scripted_return("s", {"q": "x"}, payload={}),),
        )
        corpus = write_corpus(tmp_path, [case])

        def finish(out):
            log = run_campaign(CampaignConfig(corpus_path=corpus, out_dir=str(out), operators=("RD",)))
            classify_log(log, corpus)
            return (out / LOG_FILE_NAME).read_bytes()

        whole = finish(tmp_path / "whole")
        assert [event["event"] for event in log_events(tmp_path / "whole" / LOG_FILE_NAME)] == [
            "campaign_meta", "trajectory", "classification",
        ]
        out = tmp_path / "cut"
        out.mkdir()
        capsys.readouterr()
        for offset in range(len(whole)):
            (out / LOG_FILE_NAME).write_bytes(whole[:offset])
            assert finish(out) == whole, offset
            torn = whole[:offset].rpartition(b"\n")[2]
            note = f"resuming {out / LOG_FILE_NAME}: dropped {len(torn)} byte(s) after its last newline"
            if len(torn) == offset:
                note += "; it held no whole line, so the run starts afresh"
            assert capsys.readouterr().err.splitlines() == ([note] if torn else []), offset

    def test_only_the_final_line_may_be_torn(self, tmp_path, mock_log):
        corpus, events = mock_log
        lines = [log_line(event).encode("utf-8") + b"\n" for event in events[:3]]
        out = tmp_path / "out"
        out.mkdir()
        log = out / LOG_FILE_NAME
        log.write_bytes(lines[0] + lines[1][:-20] + b"\n" + lines[2])
        with pytest.raises(MalformedInput, match="log line 2 is not valid JSON"):
            run_campaign(CampaignConfig(corpus_path=corpus, out_dir=str(out)))
        assert log.read_bytes() == lines[0] + lines[1][:-20] + b"\n" + lines[2]
        # classify and report refuse a torn final line, and leave it be.
        log.write_bytes(b"".join(lines)[:-20])
        assert cli.main(["classify", "--log", str(log), "--corpus", corpus]) == cli.EXIT_VALIDATION
        assert cli.main(["report", "--log", str(log), "--out", str(out)]) == cli.EXIT_VALIDATION
        assert log.read_bytes() == b"".join(lines)[:-20]

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
        ).path
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
        log_path = run_campaign(config).path
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
        log_path = run_campaign(config).path
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
        ).path
        assert classify_log(read_log(log_path), corpus) == 2
        before = Path(log_path).read_bytes()
        assert classify_log(read_log(log_path), corpus) == 0
        assert Path(log_path).read_bytes() == before

    def test_adds_its_classifications_to_the_index(self, tmp_path):
        corpus = two_case_corpus(tmp_path)
        log_path = run_campaign(
            CampaignConfig(corpus_path=corpus, out_dir=str(tmp_path / "out"), operators=("RD",))
        ).path
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
        ).path
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
        ).path
        other = write_corpus(tmp_path, [make_case("k1")], name="other.json")
        with pytest.raises(CampaignError):
            classify_log(read_log(log_path), other)

    def test_rejects_a_case_the_corpus_lacks(self, tmp_path):
        corpus = two_case_corpus(tmp_path)
        log_path = run_campaign(
            CampaignConfig(corpus_path=corpus, out_dir=str(tmp_path / "out"), operators=("RD",))
        ).path
        events = log_events(log_path)
        events[2].update(case_id="ghost", seed=derived_seed(0, "RD", "ghost"))
        with open(log_path, "w", encoding="utf-8") as handle:
            handle.write("".join(log_line(e) + "\n" for e in events))
        before = Path(log_path).read_bytes()
        with pytest.raises(CampaignError) as err:
            classify_log(read_log(log_path), corpus)
        assert str(err.value) == "log references case 'ghost' absent from the corpus"
        # The check precedes the first append, so (RD, k1) is not classified either.
        assert Path(log_path).read_bytes() == before

    def test_corpus_hash_matches_file_bytes(self, tmp_path):
        corpus = two_case_corpus(tmp_path)
        digest = hashlib.sha256(Path(corpus).read_bytes()).hexdigest()
        assert corpus_sha256(corpus) == digest


# ------------------------------------------------- one classification per outcome


def _direct_lines(log_path, corpus_path) -> list[tuple[str, str]]:
    """Each classification line of a log, paired with the line that a
    direct classify_trajectory call on its logged trajectory gives."""
    cases = {case.case_id: case for case in load_corpus(corpus_path)}
    calls: dict[tuple, list[ObservedInvocation]] = {}
    pairs = []
    for line in Path(log_path).read_text(encoding="utf-8").splitlines():
        event = json.loads(line)
        key = (event.get("operator"), event.get("case_id"), event.get("seed"))
        if event["event"] == "trajectory":
            calls[key] = [
                ObservedInvocation.from_json(step["invocation"], "invocation")
                for step in event["steps"]
                if step["invocation"] is not None
            ]
        elif event["event"] == "classification":
            case = cases[key[1]]
            outcome = classify_trajectory(calls[key], list(case.oracle), list(case.tools))
            expected = {
                "event": "classification",
                "operator": key[0],
                "case_id": key[1],
                "seed": key[2],
                "classifier_version": CLASSIFIER_VERSION,
                "case_pass": outcome.case_pass,
                "labels": [aligned.to_json() for aligned in outcome.aligned],
            }
            pairs.append((line, log_line(expected)))
    return pairs


# One case's calls under six operators that a memo keyed too coarsely would
# merge: 1 and 1.0 for the string query are an integer and a number, equal as
# Python values and under canonical_json; true for the integer limit is a
# boolean where 1 is in range, and true == 1 in Python. RD and RE differ only
# in argument order, which the evidence of their hallucinated names follows;
# the log holds arguments in key order, so both are classified in that order.
_NEAR_EQUAL_CALLS = {
    "RD": {"query": "books about whales", "foo": 1, "bar": 2},
    "RE": {"bar": 2, "query": "books about whales", "foo": 1},
    "SD": {"query": 1},
    "CO": {"query": 1.0},
    "WT": {"query": "books about whales", "limit": True},
    "WD": {"query": "books about whales", "limit": 1},
}


def _near_equal_campaign(tmp_path) -> tuple[str, str]:
    corpus = write_corpus(tmp_path, [make_case("k1")])
    book = {
        "scripts": {
            f"{operator}:k1": [
                {"thought": "Search.", "action": {"tool_name": "searcher", "arguments": arguments}},
                {"final_answer": "Done."},
            ]
            for operator, arguments in _NEAR_EQUAL_CALLS.items()
        }
    }
    scripts = tmp_path / "scripts.json"
    scripts.write_text(json.dumps(book), encoding="utf-8")
    return corpus, str(scripts)


@pytest.mark.parametrize("source", ["mock_campaign", "depth_slice", "near_equal_calls"])
def test_each_classification_line_is_what_a_direct_classification_gives(tmp_path, request, source):
    if source == "mock_campaign":
        data = importlib.resources.files("paramfuzz").joinpath("data", "mock_campaign")
        corpus, scripts = str(data / "corpus.json"), str(data / "scripts.json")
        operators = ALL_OPERATORS
    elif source == "depth_slice":
        document, book = request.getfixturevalue("depth_slice")
        corpus, scripts = str(tmp_path / "corpus.json"), str(tmp_path / "scripts.json")
        Path(corpus).write_text(json.dumps(document), encoding="utf-8")
        Path(scripts).write_text(json.dumps(book), encoding="utf-8")
        operators = ALL_OPERATORS
    else:
        corpus, scripts = _near_equal_campaign(tmp_path)
        operators = tuple(_NEAR_EQUAL_CALLS)
    config = CampaignConfig(
        corpus_path=corpus, out_dir=str(tmp_path / "out"), operators=operators, scripts_path=scripts
    )
    log = run_campaign(config)
    assert classify_log(log, corpus) == len(log.trajectories)
    pairs = _direct_lines(log.path, corpus)
    assert len(pairs) == len(log.trajectories)
    assert [line for line, _ in pairs] == [expected for _, expected in pairs]
    if source == "near_equal_calls":
        labels = [json.loads(line)["labels"] for line, _ in pairs]
        assert labels[0] == labels[1]
        assert [label["label"]["evidence"]["hallucination_name"][0]["param_name"] for label in labels[0]] == ["bar"]
        assert len({json.dumps(label) for label in labels}) == 5


def test_mock_campaign_classifies_each_distinct_outcome_once(tmp_path, monkeypatch):
    """run --report at seed 0 runs 300 trajectories, whose (case, calls)
    take 41 distinct values."""
    calls = []

    def counted(*args):
        calls.append(args)
        return classify_trajectory(*args)

    monkeypatch.setattr(campaign, "classify_trajectory", counted)
    data = importlib.resources.files("paramfuzz").joinpath("data", "mock_campaign")
    with importlib.resources.as_file(data) as root:
        _run_report(root / "corpus.json", root / "scripts.json", tmp_path, seed=0)
    assert len(read_log(str(tmp_path / LOG_FILE_NAME)).trajectories) == 300
    assert len(calls) == 41


def test_depth_slice_shares_each_wd_draw_and_each_rendering(tmp_path, depth_slice, monkeypatch):
    """run --report at seed 3 draws one WD shuffle per WD pair, whose four
    tools' pools are equally long, and renders each scripted return at
    most once, however many pairs see it: once, when its corpus is read,
    and every pair that looks it up is handed that one text."""
    shuffled = []

    class CountingRandom(random.Random):
        def shuffle(self, x):
            shuffled.append(len(x))
            super().shuffle(x)

    # The text of each rendering of a JSON return, kept so that no two
    # renderings share an id.
    rendered = []

    def render(obj):
        rendered.append(json.dumps(obj, separators=(", ", ": "), ensure_ascii=False))
        return rendered[-1]

    loaded = []

    def load_corpus(path):
        start = len(rendered)
        loaded.append((corpus_module.load_corpus(path), rendered[start:]))
        return loaded[-1][0]

    hits = []

    def scripted_lookup(case, tool_name, arguments):
        hits.append(lookup(case, tool_name, arguments))
        return hits[-1]

    lookup = corpus_module.TestCase.scripted_lookup
    monkeypatch.setattr(document, "random", types.SimpleNamespace(Random=CountingRandom))
    monkeypatch.setattr(corpus_module, "_RENDER", render)
    monkeypatch.setattr(campaign, "load_corpus", load_corpus)
    monkeypatch.setattr(corpus_module.TestCase, "scripted_lookup", scripted_lookup)
    document._shuffled_order.cache_clear()
    book = tmp_path / "scripts.json"
    book.write_text(json.dumps(depth_slice[1]), encoding="utf-8")
    Path(tmp_path / "corpus.json").write_text(json.dumps(depth_slice[0]), encoding="utf-8")
    _run_report(tmp_path / "corpus.json", book, tmp_path / "out", seed=3)
    cases = loaded[0][0]
    pool = sum(1 for case in cases for tool in case.tools for p in tool.parameters if p.description)
    assert pool == len(cases) * 4 * 10
    assert shuffled.count(pool - 10) == len(cases)
    assert [n for n in shuffled if n != pool - 10] == [10] * (len(shuffled) - len(cases))
    assert len(loaded) == 2
    for read, renderings in loaded:
        scripted = [entry.value for case in read for entry in case.scripted_returns]
        assert all(ret.is_json for ret in scripted)
        assert len(renderings) == len(scripted)
        made = {id(text) for text in renderings}
        assert all(id(ret.rendered()) in made for ret in scripted)
    seen = {id(ret) for ret in hits if ret is not None}
    assert len(seen) >= len(cases) * 4
    assert seen <= {id(entry.value) for case in cases for entry in case.scripted_returns}


@pytest.mark.parametrize("source", ["mock_campaign", "depth_slice"])
def test_run_case_leaves_no_cyclic_garbage(request, source):
    """Reference counting alone frees what a trajectory leaves behind: with
    the cyclic GC off, running every case under all 15 operators leaves
    it nothing to collect."""
    if source == "mock_campaign":
        data = importlib.resources.files("paramfuzz").joinpath("data", "mock_campaign")
        cases = load_corpus(str(data / "corpus.json"))
        book = ScriptBook.load(str(data / "scripts.json"))
    else:
        corpus, scripts = request.getfixturevalue("depth_slice")
        cases = parse_corpus(json.dumps(corpus))
        book = ScriptBook.from_json(scripts)
    cases = filter_cases(cases)
    donors = donor_pool(all_tools(cases))
    gc.collect()
    gc.disable()
    try:
        for operator in ALL_OPERATORS:
            for case in cases:
                run_case(case, operator, ReplayDriver(book.resolve(operator, case)), seed=3, donors=donors)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_http_depth_slice_log_is_the_same_for_1_and_4_workers(tmp_path, depth_slice, monkeypatch):
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps(depth_slice[0]), encoding="utf-8")
    http = OracleHttp(tmp_path, monkeypatch, corpus=str(corpus))
    serial = http.run("serial", 1)
    trajectories = log_events(serial)[1:]
    assert len(trajectories) == DEPTH_SLICE_CASES * len(ALL_OPERATORS)
    assert all(event["outcome"] == "answered" for event in trajectories)
    wd = [event for event in trajectories if event["operator"] == "WD"]
    assert [len(event["perturbations"]) for event in wd] == [4] * DEPTH_SLICE_CASES
    assert Path(http.run("parallel", 4)).read_bytes() == Path(serial).read_bytes()
    # 0-3 ms per answer, fixed by the request's messages, so that pairs
    # finish out of job order.
    http.delay = lambda messages: hashlib.sha256(repr(messages).encode()).digest()[0] % 4 / 1000
    assert Path(http.run("delayed", 4)).read_bytes() == Path(serial).read_bytes()


_DONE = {"choices": [{"message": {"content": "Thought: t\nFinal Answer: Done."}}]}


def _mock_http_config(out, workers):
    data = importlib.resources.files("paramfuzz").joinpath("data", "mock_campaign")
    return CampaignConfig(
        corpus_path=str(data / "corpus.json"),
        out_dir=str(out),
        driver="http",
        workers=workers,
        endpoint=EndpointConfig(base_url="http://fake", model="m", rate_per_minute=0),
    )


def test_an_http_run_keeps_at_most_2_x_workers_pairs_in_flight(tmp_path, monkeypatch):
    """While every worker waits on its endpoint, the run has started or
    queued at most 2 x workers of mock_campaign's 300 pairs; once the
    endpoint answers, it runs them all."""
    workers = 3
    release, started, submitted, failed = threading.Event(), [], [], []

    def endpoint(url, headers, payload, timeout):
        started.append(url)
        release.wait(timeout=60)
        return 200, _DONE

    class CountingPool(concurrent.futures.ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            submitted.append(args)
            return super().submit(fn, *args, **kwargs)

    def run():
        try:
            run_campaign(_mock_http_config(tmp_path / "out", workers))
        except BaseException as exc:
            failed.append(exc)

    monkeypatch.setattr(driver, "_requests_transport", endpoint)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountingPool)
    runner = threading.Thread(target=run)
    runner.start()
    try:
        deadline = time.monotonic() + 30
        while len(started) < workers and time.monotonic() < deadline:
            time.sleep(0.01)
        # Time for the run to queue more pairs, if it would.
        time.sleep(0.2)
        assert len(started) == workers
        assert len(submitted) <= 2 * workers
    finally:
        release.set()
        runner.join(timeout=60)
    assert not runner.is_alive() and not failed
    assert len(read_log(str(tmp_path / "out" / LOG_FILE_NAME)).trajectories) == 300
    assert len(submitted) == len(started) == 300


def test_a_run_stopped_by_a_failed_write_starts_no_more_pairs(tmp_path, monkeypatch):
    # An http run submits at most 2 x workers pairs ahead of the log;
    # those no worker has begun when a write fails must not reach the
    # endpoint.
    calls = []

    def endpoint(url, headers, payload, timeout):
        calls.append(url)
        time.sleep(0.01)
        return 200, _DONE

    lines, real_log_line = itertools.count(), campaign.log_line

    def full_disk(event):
        if next(lines) == 5:
            raise OSError(errno.ENOSPC, "No space left on device")
        return real_log_line(event)

    monkeypatch.setattr(driver, "_requests_transport", endpoint)
    monkeypatch.setattr(campaign, "log_line", full_disk)
    with pytest.raises(OSError, match="No space left"):
        run_campaign(_mock_http_config(tmp_path / "out", 2))
    # The header and 4 records were written and the 5th record's write
    # failed: 5 pairs had been handed to the log, and at most 2 x 2 - 1
    # more were submitted behind them.
    assert len(calls) <= 5 + 2 * 2 - 1


def test_a_rejected_credential_stops_the_run_and_a_resume_finishes_it(tmp_path, monkeypatch, capsys):
    """The endpoint answers 200 to a query it has not seen and 401 to a
    repeat, so exactly the 20 RD pairs, whose queries are distinct, pass
    whatever order the workers send them in: the run exits 2 after at most
    2 x workers more requests, keeps the 20 pairs it logged, and a resume
    with a working endpoint writes what an uninterrupted run writes."""
    workers, lock = 2, threading.Lock()
    statuses, seen, rejecting = [], set(), [True]

    def endpoint(url, headers, payload, timeout):
        query = payload["messages"][1]["content"]
        with lock:
            status = 401 if rejecting[0] and query in seen else 200
            seen.add(query)
            statuses.append(status)
        return (200, _DONE) if status == 200 else (401, {"error": "bad key"})

    config = tmp_path / "config.json"
    config.write_text(
        json.dumps({"endpoint": {"base_url": "http://fake", "model": "m", "rate_per_minute": 0}}),
        encoding="utf-8",
    )
    data = importlib.resources.files("paramfuzz").joinpath("data", "mock_campaign")

    def run(out):
        argv = ["run", "--corpus", str(data / "corpus.json"), "--out", str(tmp_path / out)]
        return cli.main(argv + ["--driver", "http", "--config", str(config), "--workers", str(workers), "--report"])

    monkeypatch.setattr(driver, "_requests_transport", endpoint)
    assert run("stopped") == cli.EXIT_CAMPAIGN
    assert capsys.readouterr().err == "campaign error: endpoint rejected the credential (HTTP 401)\n"
    assert statuses.count(200) == 20
    assert len(statuses) - 21 <= 2 * workers
    stopped = (tmp_path / "stopped" / LOG_FILE_NAME).read_bytes()
    assert stopped.count(b"\n") == 21
    assert not (tmp_path / "stopped" / "report.json").exists()

    rejecting[0] = False
    assert run("whole") == run("stopped") == cli.EXIT_OK
    whole = (tmp_path / "whole" / LOG_FILE_NAME).read_bytes()
    assert whole.startswith(stopped)
    for name in (LOG_FILE_NAME, "report.json", "report_table.csv", "report.md"):
        assert (tmp_path / "stopped" / name).read_bytes() == (tmp_path / "whole" / name).read_bytes(), name


# ------------------------------------------------------- single-pass reports


def _digests(out) -> dict[str, str]:
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in MOCK_CAMPAIGN_SHA256}


def _run_report(corpus, scripts, out, seed) -> None:
    argv = ["run", "--corpus", str(corpus), "--scripts", str(scripts), "--out", str(out)]
    assert cli.main(argv + ["--seed", str(seed), "--report"]) == cli.EXIT_OK


def _assert_each_case_counted_once(out) -> None:
    """Each operator of report.json accounts for every case exactly once, and
    lists an entry for each case it attempted or skipped."""
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["operators"]
    for operator, block in report["operators"].items():
        ran = block["attempted"] + block["skipped_unperturbable"]
        assert ran + block["driver_errors"] == report["campaign"]["case_count"], operator
        assert len(report["cases"].get(operator, {})) == ran, operator


class TestSinglePassReport:
    @pytest.fixture
    def mock_campaign(self):
        data = importlib.resources.files("paramfuzz").joinpath("data", "mock_campaign")
        with importlib.resources.as_file(data) as root:
            yield root / "corpus.json", root / "scripts.json"

    def test_a_fresh_run_never_reads_its_log_back(self, tmp_path, monkeypatch, mock_campaign):
        def refuse(path):
            raise AssertionError(f"read_log({path!r}) during a fresh run --report")

        monkeypatch.setattr(campaign, "read_log", refuse)
        monkeypatch.setattr(cli, "read_log", refuse)
        _run_report(*mock_campaign, tmp_path, seed=0)
        assert _digests(tmp_path) == MOCK_CAMPAIGN_SHA256
        _assert_each_case_counted_once(tmp_path)

    def test_a_bare_run_indexes_nothing(self, tmp_path, monkeypatch, mock_campaign):
        """run without --classify or --report reads nothing back, so the log
        it returns holds the header alone, fresh or resumed."""
        returned = []

        def run(config, **options):
            returned.append(run_campaign(config, **options))
            return returned[-1]

        monkeypatch.setattr(cli, "run_campaign", run)
        corpus, scripts = mock_campaign
        argv = ["run", "--corpus", str(corpus), "--scripts", str(scripts), "--out", str(tmp_path)]
        for _ in ("fresh", "resumed"):
            assert cli.main(argv) == cli.EXIT_OK
            assert (len(returned[-1]), returned[-1].trajectories, returned[-1].errors) == (1, {}, [])
        assert len(read_log(str(tmp_path / LOG_FILE_NAME)).trajectories) == 300

    def test_a_resumed_run_reports_like_an_uninterrupted_one(self, tmp_path, mock_campaign):
        _run_report(*mock_campaign, tmp_path, seed=0)
        log = tmp_path / LOG_FILE_NAME
        lines = log.read_bytes().splitlines(keepends=True)
        assert [json.loads(line)["event"] for line in lines[:101]] == ["campaign_meta"] + ["trajectory"] * 100
        log.write_bytes(b"".join(lines[:101]))
        for name in MOCK_CAMPAIGN_SHA256:
            if name != LOG_FILE_NAME:
                (tmp_path / name).unlink()
        _run_report(*mock_campaign, tmp_path, seed=0)
        assert _digests(tmp_path) == MOCK_CAMPAIGN_SHA256


    def test_a_run_resumes_over_a_torn_final_line(self, tmp_path, mock_campaign, capsys):
        _run_report(*mock_campaign, tmp_path, seed=0)
        log = tmp_path / LOG_FILE_NAME
        log.write_bytes(log.read_bytes()[:-40])
        for name in MOCK_CAMPAIGN_SHA256:
            if name != LOG_FILE_NAME:
                (tmp_path / name).unlink()
        capsys.readouterr()
        _run_report(*mock_campaign, tmp_path, seed=0)
        assert "after its last newline" in capsys.readouterr().err
        assert _digests(tmp_path) == MOCK_CAMPAIGN_SHA256

    def test_classify_ends_a_final_line_that_lost_its_newline(self, tmp_path, mock_campaign):
        corpus, scripts = mock_campaign
        logs = {}
        for name in ("whole", "cut"):
            out = tmp_path / name
            argv = ["run", "--corpus", str(corpus), "--scripts", str(scripts), "--out", str(out)]
            assert cli.main(argv + ["--operators", "RD"]) == cli.EXIT_OK
            logs[name] = out / LOG_FILE_NAME
        logs["cut"].write_bytes(logs["cut"].read_bytes()[:-1])
        for log in logs.values():
            assert cli.main(["classify", "--log", str(log), "--corpus", str(corpus)]) == cli.EXIT_OK
        assert logs["cut"].read_bytes() == logs["whole"].read_bytes()
        assert cli.main(["report", "--log", str(logs["cut"]), "--out", str(tmp_path / "cut")]) == cli.EXIT_OK


# sha256 of each output of `run --report` at seed 3 on the depth_slice cases,
# which have what mock_campaign lacks: 25-item payloads, 32 scripted returns
# per case and a 480-description WD pool.
_DEPTH_SLICE_SHA256 = {
    "campaign.jsonl": "a14699ba9cc6a8ee80d365695048b4a2f90d003e39f0fe7923da6b23b2a19362",
    "report.json": "4d0adc5776edc8f6bcc38b6730ce31d7668ee0a1596682f3e33518da95707abe",
    "report.md": "65b6b9d45984a012158984d0656843713c175af7f8704c4c515f15b625a2dd45",
    "report_table.csv": "0d7ce91ba48fca2f25a7cb536de892871383a86014b90e2ece2aa9d344b79d9b",
}


def test_deep_case_outputs_are_pinned(tmp_path, depth_slice):
    corpus, book = depth_slice
    assert book["scripts"]
    corpus_path, scripts_path = tmp_path / "corpus.json", tmp_path / "scripts.json"
    for path, document in ((corpus_path, corpus), (scripts_path, book)):
        path.write_text(json.dumps(document, sort_keys=True, ensure_ascii=False) + "\n", encoding="utf-8")
    _run_report(corpus_path, scripts_path, tmp_path / "out", seed=3)
    assert _digests(tmp_path / "out") == _DEPTH_SLICE_SHA256
    _assert_each_case_counted_once(tmp_path / "out")


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
        log_path = run_campaign(config).path
        classify_log(read_log(log_path), corpus)
        yield corpus, log_events(log_path)


# Event indices: the header is log line 1, the (RD, m01) trajectory line 2,
# the last trajectory line 301 and the (RD, m01) classification line 302,
# which flags task deviation with one evidence entry. _with_error puts a
# trajectory error at E, between the trajectories and the classifications,
# for (RD, m21), a pair that did not run: m21 does not survive filtering.
H, T, LAST_T, C = 0, 1, 300, 301
E = LAST_T + 1
M01_SEED, M21_SEED = derived_seed(0, "RD", "m01"), derived_seed(0, "RD", "m21")


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
        "case_id": "m21",
        "seed": M21_SEED,
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
    "trajectory_seed_not_derived": _set(T, "seed", M01_SEED + 1),
    "second_run_under_another_seed": _insert(LAST_T + 1, _copy_of(T, seed=M01_SEED + 1)),
    "error_seed_not_derived": _with_error(_set(E, "seed", 1)),
    "classification_seed_not_derived": _set(C, "seed", 1),
    "operator_not_in_header": _set(H, "operators", ["RD"]),
    "trajectory_applied_string": _set(T, "perturbation_applied", "false"),
    "trajectory_applied_contradicts_perturbations": _set(T, "perturbation_applied", False),
    "trajectory_applied_without_perturbations": _set(T, "perturbations", []),
    "step_missing_key": _drop(T, STEP + ".thought"),
    "step_unknown_key": _set(T, STEP + ".tokens", 12),
    "step_not_object": _set(T, STEP, "Calling svc_01."),
    "step_with_invocation_and_answer": _set(T, STEP + ".final_answer", "Done."),
    "step_with_neither": _set(T, INVOCATION, None),
    "invocation_step_without_observation": _set(T, STEP + ".observation", None),
    "final_step_with_observation": _set(T, "steps.1.observation", "ghost"),
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
    "classification_case_pass_contradicts_labels": _set(C, "case_pass", True),
    "aligned_label_unknown_key": _set(C, "labels.0.weight", 1),
    "label_missing_key": _drop(C, LABEL + ".task_deviation"),
    "label_unknown_key": _set(C, LABEL + ".confidence", 0.9),
    "label_rouge_bool": _set(C, LABEL + ".rouge_td", True),
    "label_passed_contradicts_flags": _set(C, LABEL + ".passed", True),
    "label_flag_without_evidence": _set(C, LABEL + ".evidence", {}),
    "label_unknown_evidence_category": _set(C, LABEL + ".evidence.vibes", []),
    "evidence_entry_missing_key": _drop(C, LABEL + ".evidence.task_deviation.0.rule"),
    "duplicate_trajectory": _insert(LAST_T + 1, _copy_of(T)),
    "duplicate_trajectory_error": _with_error(_insert(E + 1, _error_event)),
    "error_repeats_trajectory": _with_error(_set(E, "case_id", "m01"), _set(E, "seed", M01_SEED)),
    "duplicate_classification": _insert(C + 1, _copy_of(C, case_pass=True)),
    "second_header": _insert(C, _copy_of(H)),
    "header_not_first": _move(H, 1),
    "header_missing": lambda events: events.pop(H),
    "orphan_classification": _move(C, 1),
    "classification_of_an_error": _with_error(_insert(E + 2, _copy_of(E + 1, case_id="m21", seed=M21_SEED))),
    "classifier_version_mismatch": _set(C, "classifier_version", "0.9"),
    "header_classifier_version": _set(H, "classifier_version", "0.9"),
}

# The MalformedInput messages are the same as before the log had key tables.
LOG_GOLDEN = {
    "aligned_label_unknown_key": ('SchemaViolation', "log line 302.labels[0] has unknown key 'weight'", 'log line 302.labels[0].weight'),
    "bad_json": ('MalformedInput', 'log line 5 is not valid JSON: Expecting property name enclosed in double quotes', None),
    "classification_case_pass_string": ('SchemaViolation', 'log line 302.case_pass must be a boolean, got string', 'log line 302.case_pass'),
    "classification_case_pass_contradicts_labels": ('SchemaViolation', 'log line 302.case_pass must be false, as the labels say', 'log line 302.case_pass'),
    "classification_missing_key": ('SchemaViolation', "log line 302 is missing required key 'case_pass'", 'log line 302.case_pass'),
    "classification_of_an_error": ('CampaignError', 'log line 304 classifies (RD, m21), but no earlier line holds its trajectory', None),
    "classification_unknown_key": ('SchemaViolation', "log line 302 has unknown key 'judge'", 'log line 302.judge'),
    "classifier_version_mismatch": ('CampaignError', "log line 302 has classifier_version '0.9', but the header on line 1 has '1.0'", None),
    "duplicate_classification": ('CampaignError', 'log line 303 is a second classification of (RD, m01); the first is on line 302', None),
    "duplicate_trajectory": ('CampaignError', 'log line 302 is a second run of (RD, m01); the first is on line 2', None),
    "duplicate_trajectory_error": ('CampaignError', 'log line 303 is a second run of (RD, m21); the first is on line 302', None),
    "error_missing_key": ('SchemaViolation', "log line 302 is missing required key 'message'", 'log line 302.message'),
    "error_repeats_trajectory": ('CampaignError', 'log line 302 is a second run of (RD, m01); the first is on line 2', None),
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
    "label_passed_contradicts_flags": ('SchemaViolation', 'log line 302.labels[0].label.passed must be false, as the flags say', 'log line 302.labels[0].label.passed'),
    "label_rouge_bool": ('SchemaViolation', 'log line 302.labels[0].label.rouge_td must be a number, got boolean', 'log line 302.labels[0].label.rouge_td'),
    "label_unknown_evidence_category": ('SchemaViolation', "log line 302.labels[0].label.evidence has unknown key 'vibes'", 'log line 302.labels[0].label.evidence.vibes'),
    "label_unknown_key": ('SchemaViolation', "log line 302.labels[0].label has unknown key 'confidence'", 'log line 302.labels[0].label.confidence'),
    "line_not_object": ('MalformedInput', 'log line 5 is not a tagged event', None),
    "meta_missing_key": ('SchemaViolation', "log line 1 is missing required key 'corpus_sha256'", 'log line 1.corpus_sha256'),
    "meta_seed_not_integer": ('SchemaViolation', 'log line 1.seed must be an integer, got number', 'log line 1.seed'),
    "meta_unknown_key": ('SchemaViolation', "log line 1 has unknown key 'timestamp'", 'log line 1.timestamp'),
    "orphan_classification": ('CampaignError', 'log line 2 classifies (RD, m01), but no earlier line holds its trajectory', None),
    "perturbation_missing_key": ('SchemaViolation', "log line 2.perturbations[0] is missing required key 'details'", 'log line 2.perturbations[0].details'),
    "second_header": ('CampaignError', 'log line 302 is a second campaign_meta header; the first is on line 1', None),
    "skip_missing_key": ('SchemaViolation', "log line 2.skips[0] is missing required key 'message'", 'log line 2.skips[0].message'),
    "step_missing_key": ('SchemaViolation', "log line 2.steps[0] is missing required key 'thought'", 'log line 2.steps[0].thought'),
    "step_not_object": ('SchemaViolation', 'log line 2.steps[0] must be a JSON object, got string', 'log line 2.steps[0]'),
    # New: a logged step holds exactly one of an invocation and a final answer.
    "step_with_invocation_and_answer": ('SchemaViolation', 'a step is exactly one of: tool invocation, final answer', 'log line 2.steps[0]'),
    "step_with_neither": ('SchemaViolation', 'a step is exactly one of: tool invocation, final answer', 'log line 2.steps[0]'),
    "step_unknown_key": ('SchemaViolation', "log line 2.steps[0] has unknown key 'tokens'", 'log line 2.steps[0].tokens'),
    # New: an invocation step records what the agent observed, a final step nothing.
    "invocation_step_without_observation": ('SchemaViolation', 'log line 2.steps[0].observation must be a string for a tool invocation', 'log line 2.steps[0].observation'),
    "final_step_with_observation": ('SchemaViolation', 'log line 2.steps[1].observation must be null for a final answer', 'log line 2.steps[1].observation'),
    "trajectory_applied_string": ('SchemaViolation', 'log line 2.perturbation_applied must be a boolean, got string', 'log line 2.perturbation_applied'),
    "trajectory_applied_contradicts_perturbations": ('SchemaViolation', 'log line 2.perturbation_applied must be true, as the perturbations say', 'log line 2.perturbation_applied'),
    "trajectory_applied_without_perturbations": ('SchemaViolation', 'log line 2.perturbation_applied must be false, as the perturbations say', 'log line 2.perturbation_applied'),
    "trajectory_missing_key": ('SchemaViolation', "log line 2 is missing required key 'perturbation_applied'", 'log line 2.perturbation_applied'),
    "trajectory_seed_bool": ('SchemaViolation', 'log line 2.seed must be an integer, got boolean', 'log line 2.seed'),
    "trajectory_seed_string": ('SchemaViolation', 'log line 2.seed must be an integer, got string', 'log line 2.seed'),
    "trajectory_unknown_key": ('SchemaViolation', "log line 2 has unknown key 'latency_s'", 'log line 2.latency_s'),
    "truncation_not_integer": ('SchemaViolation', 'log line 2.truncations[0].original_length must be an integer, got string', 'log line 2.truncations[0].original_length'),
    "unknown_event": ('SchemaViolation', "log line 2.event must be one of campaign_meta, trajectory, trajectory_error, classification, got 'trajectory_v2'", 'log line 2.event'),
    "untagged_line": ('MalformedInput', 'log line 2 is not a tagged event', None),
    "line_not_utf8": ('MalformedInput', 'log line 5 is not valid UTF-8 at byte 37: invalid start byte', None),
    "event_not_string": ('SchemaViolation', "log line 2.event must be one of campaign_meta, trajectory, trajectory_error, classification, got ['trajectory']", 'log line 2.event'),
    # A record's seed and operator are checked before its place in the log.
    "classification_seed_not_derived": ('SchemaViolation', "log line 302.seed must be 17301365158976469019, as the header's seed derives it, got 1", 'log line 302.seed'),
    "error_seed_not_derived": ('SchemaViolation', "log line 302.seed must be 5868222928731932250, as the header's seed derives it, got 1", 'log line 302.seed'),
    "operator_not_in_header": ('SchemaViolation', "log line 22.operator must be one of the header's operators (RD), got 'RE'", 'log line 22.operator'),
    "second_run_under_another_seed": ('SchemaViolation', "log line 302.seed must be 17301365158976469019, as the header's seed derives it, got 17301365158976469020", 'log line 302.seed'),
    "trajectory_seed_not_derived": ('SchemaViolation', "log line 2.seed must be 17301365158976469019, as the header's seed derives it, got 17301365158976469020", 'log line 2.seed'),
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
