"""Command-line interface tests, driven through main(argv)."""

import argparse
import collections
import dataclasses
import hashlib
import importlib.resources
import json
from pathlib import Path

import pytest

from conftest import (
    MOCK_CAMPAIGN_SHA256,
    log_events,
    make_case,
    make_param,
    make_query,
    make_tool,
    scripted_return,
)
from paramfuzz.cli import EXIT_CAMPAIGN, EXIT_OK, EXIT_VALIDATION, build_parser, main
from paramfuzz.campaign import CampaignConfig, log_line
from paramfuzz.corpus import OracleInvocation, filter_cases, load_corpus, serialize_corpus
from paramfuzz.perturb import ALL_OPERATORS
from paramfuzz.records import json_keys


def packaged(name):
    """The packaged data directory of one fixture set."""
    return importlib.resources.files("paramfuzz").joinpath("data", name)


# The skip lines and the sha256 of the whole stdout of `perturb` under each
# operator in ALL_OPERATORS order, per case (see
# TestPerturb.test_every_operator_prints_its_golden).
_SKIP_SVC_22 = [
    "skip svc_22: RD changes nothing the agent sees",
    "skip svc_22: WD changes nothing the agent sees",
    "skip svc_22: SD changes nothing the agent sees",
    "skip svc_22: tool 'svc_22' has 0 parameter(s); shuffling needs two",
    "skip svc_22: WT changes nothing the agent sees",
]
PERTURB_GOLDEN = {
    "m01": (
        ["skip return: UK changes nothing the agent sees"],
        "d6ec51ecf0d729338137efc929defef0f9004cb149c89a456a80904570c9a411",
    ),
    "m22": (
        _SKIP_SVC_22
        + ["skip query: query carries no annotated parameter mentions"] * 2
        + [f"skip query: {operator} changes nothing the agent sees" for operator in ("CP", "AN")]
        + [f"skip return: {operator} changes nothing the agent sees" for operator in ("AP", "CK", "UK")],
        "f69d8ff679db850c7ccc3c6f2a4ecc2567503bc2a5e377034668fa7a420ba6bc",
    ),
    "mixed": (
        _SKIP_SVC_22 + ["skip return: case has no scripted returns"] * 5,
        "1b9ed8f64a551e14f9198baf64ae913e40c6a831696de8b9acd55a618ac28d35",
    ),
}


# sha256 of validate's stderr on the benchmark's depth corpus at seed 3.
_DEPTH_LINT_SHA256 = "e4fe241dad4571ce99d63494b9cbe3a6e2cb713a340afc549ccf68386cb0e126"


@pytest.fixture
def clean_corpus(tmp_path):
    path = tmp_path / "corpus.json"
    path.write_text(
        serialize_corpus(
            [
                make_case(
                    "k1",
                    scripted=(
                        scripted_return(
                            "searcher", {"query": "books about whales"}, payload={"hits": 2}
                        ),
                    ),
                )
            ]
        ),
        encoding="utf-8",
    )
    return str(path)


class TestValidate:
    def test_clean_corpus_exits_zero(self, clean_corpus, capsys):
        assert main(["validate", "--corpus", clean_corpus]) == EXIT_OK
        out = capsys.readouterr()
        assert "1 case(s) parsed, 1 survive filtering, 0 lint finding(s)" in out.out
        assert out.err == ""

    def test_lint_findings_exit_one(self, tmp_path, capsys, monkeypatch):
        """Every lint message, in the order validate prints them; then the
        finding counts of the benchmark's depth corpus at seed 3."""
        finder = make_tool(
            "finder",
            parameters=(
                make_param("query", "string", "What to find.", True),
                make_param("mode", "string", "Speed.", False, enum_values=("fast", "slow")),
                make_param("code", "string", "Region code.", False, format="[A-Z]{3}"),
                make_param("count", "integer", "How many.", False),
            ),
        )
        dirty = make_case(
            "k_dirty",
            tools=(make_tool(), finder),
            query=make_query(
                "Search for books about whales in fast mode, code xyz, 99 hits.",
                spans=[
                    ("books about whales", "query", "searcher"),
                    ("fast", "mode", "ghost"),
                    ("xyz", "no_such_param", "finder"),
                ],
            ),
            oracle=(
                OracleInvocation(
                    tool_name="searcher",
                    arguments={"query": "books about whales", "limit": 99},
                    needed_params=frozenset({"query", "nonexistent"}),
                ),
                OracleInvocation(
                    tool_name="finder",
                    arguments={"mode": "loud", "code": "xyz", "count": "five"},
                    needed_params=frozenset({"mode"}),
                ),
            ),
        )
        path = tmp_path / "dirty.json"
        path.write_text(serialize_corpus([dirty]), encoding="utf-8")
        assert main(["validate", "--corpus", str(path)]) == EXIT_VALIDATION
        out = capsys.readouterr()
        assert out.out == "1 case(s) parsed, 1 survive filtering, 12 lint finding(s)\n"
        assert out.err.splitlines() == [
            "k_dirty: DuplicateParamName: parameter name 'query' appears in several tools "
            "(finder, searcher), which reads ambiguously",
            "k_dirty: UncoveredMention: oracle step 0 argument 'limit' value '99' appears in "
            "the query but carries no mention annotation",
            "k_dirty: UncoveredMention: oracle step 1 argument 'code' value 'xyz' appears in "
            "the query but carries no mention annotation",
            "k_dirty: OracleViolatesSpec: oracle step 0 argument 'limit': range_violation: "
            "value 99 is outside [1, 50]",
            "k_dirty: OracleViolatesSpec: oracle step 0 marks 'nonexistent' as needed but "
            "'searcher' does not declare it",
            "k_dirty: OracleViolatesSpec: oracle step 0 marks 'nonexistent' as needed but "
            "does not pass it",
            "k_dirty: OracleViolatesSpec: oracle step 1 argument 'code': format_violation: "
            "value 'xyz' does not match pattern '[A-Z]{3}'",
            "k_dirty: OracleViolatesSpec: oracle step 1 argument 'count': type_mismatch: "
            'declared integer, got string "five"',
            "k_dirty: OracleViolatesSpec: oracle step 1 argument 'mode': enum_violation: "
            'value "loud" is not one of ["fast", "slow"]',
            "k_dirty: OracleViolatesSpec: oracle step 1 omits schema-required parameter "
            "'query' from needed_params",
            "k_dirty: DanglingMentionRef: mention 1 references unknown tool 'ghost'",
            "k_dirty: DanglingMentionRef: mention 2 references parameter 'no_such_param', "
            "which 'finder' does not declare",
        ]
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        depth = importlib.import_module("workloads").generate_depth(3, str(tmp_path / "depth"))
        assert main(["validate", "--corpus", depth.files[0]]) == EXIT_VALIDATION
        out = capsys.readouterr()
        assert out.out == "60 case(s) parsed, 60 survive filtering, 746 lint finding(s)\n"
        codes = collections.Counter(line.split(": ")[1] for line in out.err.splitlines())
        assert codes == {"DuplicateParamName": 600, "UncoveredMention": 146}
        assert hashlib.sha256(out.err.encode("utf-8")).hexdigest() == _DEPTH_LINT_SHA256
    def test_malformed_corpus_exits_one(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{]", encoding="utf-8")
        assert main(["validate", "--corpus", str(path)]) == EXIT_VALIDATION
        assert "validation error" in capsys.readouterr().err


class TestPerturb:
    def test_document_operator_prints_tool_and_record(self, clean_corpus, capsys):
        code = main(
            ["perturb", "--corpus", clean_corpus, "--operator", "RD", "--case", "k1"]
        )
        assert code == EXIT_OK
        printed = json.loads(capsys.readouterr().out)
        assert printed["record"]["operator"] == "RD"
        blanked = [
            p for p in printed["tool"]["parameters"] if p["name"] == "query"
        ]
        assert blanked[0]["description"] == ""

    def test_query_operator_prints_updated_mentions(self, clean_corpus, capsys):
        code = main(
            ["perturb", "--corpus", clean_corpus, "--operator", "CP", "--case", "k1"]
        )
        assert code == EXIT_OK
        printed = json.loads(capsys.readouterr().out)
        text = printed["query"]["text"]
        for mention in printed["query"]["mentions"]:
            start, end = mention["span"]
            assert text[start:end] == mention["value_text"]

    def test_return_operator_prints_payload(self, clean_corpus, capsys):
        code = main(
            ["perturb", "--corpus", clean_corpus, "--operator", "CF", "--case", "k1"]
        )
        assert code == EXIT_OK
        printed = json.loads(capsys.readouterr().out)
        assert printed["return"]["raw_text"] == '{"hits":2...'

    def test_skip_is_reported_and_exits_zero(self, tmp_path, capsys):
        case = make_case("k_plain", query=make_query("No annotations here.", spans=[]))
        path = tmp_path / "plain.json"
        path.write_text(serialize_corpus([case]), encoding="utf-8")
        code = main(["perturb", "--corpus", str(path), "--operator", "RPF", "--case", "k_plain"])
        assert code == EXIT_OK
        assert "skip query:" in capsys.readouterr().out

    def test_an_operator_that_changes_nothing_prints_skip(self, capsys):
        """m01's return keys are snake_case already, so UK leaves the
        return as the agent sees it."""
        with importlib.resources.as_file(packaged("mock_campaign")) as root:
            code = main(["perturb", "--corpus", str(root / "corpus.json"), "--operator", "UK", "--case", "m01"])
        assert code == EXIT_OK
        assert capsys.readouterr().out == "skip return: UK changes nothing the agent sees\n"

    def test_missing_case_is_a_campaign_error(self, clean_corpus, capsys):
        code = main(["perturb", "--corpus", clean_corpus, "--operator", "RD", "--case", "nope"])
        assert code == EXIT_CAMPAIGN
        assert "campaign error" in capsys.readouterr().err

    def test_unknown_operator_is_a_campaign_error(self, clean_corpus, capsys):
        code = main(["perturb", "--corpus", clean_corpus, "--operator", "QQ", "--case", "k1"])
        assert code == EXIT_CAMPAIGN

    @pytest.mark.parametrize("case_id", sorted(PERTURB_GOLDEN))
    def test_every_operator_prints_its_golden(self, tmp_path, capsys, case_id):
        """m01 perturbs everywhere but under UK, whose keys are snake_case
        already; m22 (no parameters, no mentions, no ID keys) skips in every
        source; mixed adds m22's tool to m01 and has no scripted returns, so
        a document operator can skip one tool and perturb the other. WD
        draws from the whole corpus at seed 5."""
        with importlib.resources.as_file(packaged("mock_campaign")) as root:
            corpus = json.loads((root / "corpus.json").read_text(encoding="utf-8"))
        by_id = {case["case_id"]: case for case in corpus["cases"]}
        mixed = {**by_id["m01"], "case_id": "mixed", "scripted_returns": []}
        mixed["tools"] = by_id["m01"]["tools"] + by_id["m22"]["tools"]
        corpus["cases"].append(mixed)
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps(corpus), encoding="utf-8")
        out = ""
        for operator in ALL_OPERATORS:
            argv = ["perturb", "--corpus", str(path), "--operator", operator, "--case", case_id]
            assert main(argv + ["--seed", "5"]) == EXIT_OK
            out += capsys.readouterr().out
        skips, digest = PERTURB_GOLDEN[case_id]
        assert [line for line in out.splitlines() if line.startswith("skip ")] == skips
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


class TestRunPipeline:
    def test_all_in_one_run(self, clean_corpus, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            [
                "run", "--corpus", clean_corpus, "--out", str(out),
                "--operators", "RD,CK", "--seed", "9", "--report",
            ]
        )
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        assert "campaign log:" in stdout
        assert "classified 2 trajectory(ies)" in stdout
        for name in ("campaign.jsonl", "report.json", "report_table.csv", "report.md"):
            assert (out / name).exists()

    @pytest.mark.parametrize("corpus_set", ["clean_corpus", "mock_campaign", "depth_slice"])
    def test_staged_pipeline_matches_all_in_one(self, clean_corpus, tmp_path, corpus_set, request):
        # The mock campaign brings failures, evidence and Rouge-L floats, and
        # the depth slice 6-call cases, so this checks that reporting from
        # labels classified in memory writes the same bytes as reporting from
        # labels read back from the log.
        combined = tmp_path / "combined"
        staged = tmp_path / "staged"
        if corpus_set == "mock_campaign":
            corpus = str(packaged("mock_campaign") / "corpus.json")
            base = ["--corpus", corpus, "--scripts", str(packaged("mock_campaign") / "scripts.json")]
        elif corpus_set == "depth_slice":
            document, book = request.getfixturevalue("depth_slice")
            corpus, scripts = str(tmp_path / "corpus.json"), str(tmp_path / "scripts.json")
            (tmp_path / "corpus.json").write_text(json.dumps(document), encoding="utf-8")
            (tmp_path / "scripts.json").write_text(json.dumps(book), encoding="utf-8")
            base = ["--corpus", corpus, "--scripts", scripts, "--seed", "3"]
        else:
            corpus = clean_corpus
            base = ["--corpus", corpus, "--operators", "RD,CK", "--seed", "9"]
        assert main(["run", *base, "--out", str(combined), "--report"]) == EXIT_OK
        assert main(["run", *base, "--out", str(staged)]) == EXIT_OK
        log = str(staged / "campaign.jsonl")
        assert main(["classify", "--log", log, "--corpus", corpus]) == EXIT_OK
        assert main(["report", "--log", log, "--out", str(staged)]) == EXIT_OK
        for name in ("campaign.jsonl", "report.json", "report_table.csv", "report.md"):
            assert (combined / name).read_bytes() == (staged / name).read_bytes()

    def test_config_file_supplies_defaults_and_flags_win(self, clean_corpus, tmp_path):
        out_from_config = tmp_path / "from_config"
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps(
                {
                    "corpus": clean_corpus,
                    "out": str(out_from_config),
                    "operators": ["RD"],
                    "seed": 3,
                }
            ),
            encoding="utf-8",
        )
        assert main(["run", "--config", str(config_path)]) == EXIT_OK
        from paramfuzz.campaign import derived_seed

        events = log_events(out_from_config / "campaign.jsonl")
        assert events[0]["seed"] == 3
        assert events[0]["operators"] == ["RD"]
        override_out = tmp_path / "override"
        assert (
            main(["run", "--config", str(config_path), "--out", str(override_out), "--seed", "8"])
            == EXIT_OK
        )
        events = log_events(override_out / "campaign.jsonl")
        assert events[0]["seed"] == 8
        trajectory = next(e for e in events if e["event"] == "trajectory")
        assert trajectory["seed"] == derived_seed(8, "RD", "k1")

    def test_missing_corpus_argument(self, tmp_path, capsys):
        assert main(["run", "--out", str(tmp_path / "o")]) == EXIT_CAMPAIGN
        assert "corpus path is required" in capsys.readouterr().err

    def test_run_errors_exit_two(self, clean_corpus, tmp_path, capsys):
        code = main(
            ["run", "--corpus", clean_corpus, "--out", str(tmp_path / "o"), "--operators", "XX"]
        )
        assert code == EXIT_CAMPAIGN


class TestRunSettings:
    def test_every_run_flag_has_a_config_key_and_every_key_a_field(self):
        parser = build_parser()
        subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        flags = {
            action.dest
            for action in subparsers.choices["run"]._actions
            if action.option_strings and action.dest != "help"
        }
        keys = [key for key, _, _ in json_keys(CampaignConfig)]
        assert flags - {"config", "classify", "report"} <= set(keys)
        assert len(set(keys)) == len(keys) == len(dataclasses.fields(CampaignConfig))

    @pytest.mark.parametrize(
        ("config", "message"),
        [
            pytest.param(
                {"step_limt": 1}, "config has unknown key 'step_limt'", id="misspelled_key"
            ),
            pytest.param(
                {"seed": 5.7}, "config.seed must be an integer, got number", id="fractional_seed"
            ),
            pytest.param(
                {"operators": 5}, "config.operators must be a JSON array, got integer",
                id="operators_as_number",
            ),
            pytest.param(
                {"driver": "http", "endpoint": {"base_url": "http://h", "model": "m",
                                                "rate_per_minute": "60"}},
                "config.endpoint.rate_per_minute must be a number, got string",
                id="endpoint_rate_as_string",
            ),
            pytest.param(
                {"driver": "http", "endpoint": {"base_url": "http://h", "model": "m",
                                                "max_retires": 0, "temprature": 0.9}},
                "config.endpoint has unknown key 'max_retires'",
                id="endpoint_misspelled_key",
            ),
            *(
                pytest.param(
                    {"driver": "http", "endpoint": {"base_url": "http://h", "model": "m", key: value}},
                    f"config.endpoint.{key}: {key} must be {bound}, got {value}",
                    id=f"endpoint_{key}_{value}",
                )
                for key, value, bound in (
                    ("max_retries", -1, "at least 0"),
                    ("timeout_s", 0, "greater than 0"),
                    ("backoff_base_s", -0.5, "at least 0"),
                    ("backoff_base_s", float("nan"), "at least 0"),
                    ("rate_per_minute", -1, "at least 0"),
                    ("temperature", float("nan"), "at least 0"),
                    ("temperature", -1, "at least 0"),
                    ("temperature", float("inf"), "finite"),
                    ("timeout_s", float("inf"), "finite"),
                    ("backoff_base_s", float("inf"), "finite"),
                )
            ),
        ],
    )
    def test_bad_config_file_is_a_validation_error(
        self, clean_corpus, tmp_path, capsys, config, message
    ):
        path = tmp_path / "config.json"
        config = {"corpus": clean_corpus, "out": str(tmp_path / "o"), **config}
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["run", "--config", str(path)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"validation error: {message}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        ("flags", "message"),
        [
            (["--max-obs-len", "-5"], "max_observation_length must be at least 1"),
            (["--workers", "2"], "the replay driver runs with 1 worker"),
        ],
    )
    def test_bad_run_flag_is_a_campaign_error(self, clean_corpus, tmp_path, capsys, flags, message):
        code = main(["run", "--corpus", clean_corpus, "--out", str(tmp_path / "o"), *flags])
        assert code == EXIT_CAMPAIGN
        assert capsys.readouterr().err.startswith(f"campaign error: {message}")
        assert not (tmp_path / "o").exists()


class TestMissingInputFile:
    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["validate", "--corpus", "{missing}"], id="validate"),
            pytest.param(
                ["perturb", "--corpus", "{missing}", "--operator", "RD", "--case", "k1"], id="perturb"
            ),
            pytest.param(["run", "--corpus", "{missing}", "--out", "{out}"], id="run_corpus"),
            pytest.param(
                ["run", "--corpus", "{corpus}", "--out", "{out}", "--config", "{missing}"],
                id="run_config",
            ),
            pytest.param(
                ["run", "--corpus", "{corpus}", "--out", "{out}", "--scripts", "{missing}"],
                id="run_scripts",
            ),
            pytest.param(["classify", "--log", "{missing}", "--corpus", "{corpus}"], id="classify"),
            pytest.param(["report", "--log", "{missing}", "--out", "{out}"], id="report"),
        ],
    )
    def test_exits_two_naming_the_file(self, clean_corpus, tmp_path, capsys, argv):
        missing = str(tmp_path / "nonexistent.json")
        names = {"missing": missing, "corpus": clean_corpus, "out": str(tmp_path / "o")}
        assert main([arg.format(**names) for arg in argv]) == EXIT_CAMPAIGN
        assert capsys.readouterr().err == (
            f"campaign error: cannot open {missing}: No such file or directory\n"
        )
        assert not (tmp_path / "o").exists()


class TestUndecodableInputFile:
    """A byte that is not UTF-8, or text that is not JSON, in any input file
    is a validation error at its byte offset; nothing is written."""

    @pytest.fixture
    def log_path(self, clean_corpus, tmp_path):
        out = tmp_path / "run"
        assert main(["run", "--corpus", clean_corpus, "--out", str(out), "--operators", "RD"]) == 0
        path = out / "campaign.jsonl"
        with path.open("ab") as handle:
            handle.write(b'{"event": "trajectory", "case_id": "k\xff1"}\n')
        return path

    @pytest.mark.parametrize(
        ("kind", "raw", "message"),
        [
            ("corpus", b'{"schema_version": 1, "cases": ["\xff"]}',
             "corpus is not valid UTF-8 at byte 33: invalid start byte"),
            ("config", b'{"seed": 1, "driver": "\xfe"}',
             "config file is not valid UTF-8 at byte 23: invalid start byte"),
            ("config", b'{"seed": 1,, "driver": "replay"}',
             "config file is not valid JSON at byte 11: "
             "Expecting property name enclosed in double quotes"),
            ("scripts", b'{"scripts": {"k1": [\xff]}}',
             "script book is not valid UTF-8 at byte 20: invalid start byte"),
            ("scripts", '{"scripts": {"k\u00e9": [}}'.encode("utf-8"),
             "script book is not valid JSON at byte 21: Expecting value"),
        ],
        ids=["corpus", "config_not_utf8", "config_not_json", "scripts_not_utf8", "scripts_not_json"],
    )
    def test_run_input(self, clean_corpus, tmp_path, capsys, kind, raw, message):
        path = tmp_path / "input.json"
        path.write_bytes(raw)
        corpus = str(path) if kind == "corpus" else clean_corpus
        argv = ["run", "--corpus", corpus, "--out", str(tmp_path / "o")]
        if kind != "corpus":
            argv += [f"--{kind}", str(path)]
        assert main(argv) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"validation error: {message}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["classify", "report"])
    def test_log(self, clean_corpus, tmp_path, capsys, log_path, command):
        before = log_path.read_bytes()
        capsys.readouterr()
        argv = [command, "--log", str(log_path)]
        argv += ["--corpus", clean_corpus] if command == "classify" else ["--out", str(tmp_path / "o")]
        assert main(argv) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "validation error: log line 3 is not valid UTF-8 at byte 37: invalid start byte\n"
        )
        assert log_path.read_bytes() == before
        assert not (tmp_path / "o").exists()


def test_mock_campaign_outputs_are_pinned(tmp_path):
    data = packaged("mock_campaign")
    with importlib.resources.as_file(data) as root:
        code = main(
            ["run", "--corpus", str(root / "corpus.json"), "--scripts", str(root / "scripts.json"),
             "--out", str(tmp_path), "--seed", "0", "--report"]
        )
    assert code == EXIT_OK
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in MOCK_CAMPAIGN_SHA256
    }
    assert digests == MOCK_CAMPAIGN_SHA256


_FINAL = {"thought": "done", "final_answer": "Done."}


class TestMalformedScriptBook:
    @pytest.mark.parametrize(
        "script",
        [
            pytest.param([{"thought": "hmm"}], id="step_without_action_or_answer"),
            pytest.param([{"action": {"tool_name": "searcher"}}, _FINAL], id="action_without_arguments"),
            pytest.param(
                [{"action": {"tool_name": "searcher", "arguments": "query=x"}}, _FINAL],
                id="arguments_as_string",
            ),
            pytest.param({"steps": [_FINAL]}, id="script_is_an_object"),
            pytest.param(["Done.", _FINAL], id="step_is_a_string"),
        ],
    )
    def test_run_exits_with_a_validation_error(self, clean_corpus, tmp_path, capsys, script):
        scripts = tmp_path / "scripts.json"
        scripts.write_text(json.dumps({"scripts": {"k1": script}}), encoding="utf-8")
        code = main(
            ["run", "--corpus", clean_corpus, "--scripts", str(scripts),
             "--out", str(tmp_path / "o"), "--operators", "RD"]
        )
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("validation error: ")
        assert "Traceback" not in err

    def test_unknown_top_level_key_is_refused(self, clean_corpus, tmp_path, capsys):
        scripts = tmp_path / "scripts.json"
        scripts.write_text(json.dumps({"scripts": {}, "scripz": {"k1": [_FINAL]}}), encoding="utf-8")
        code = main(
            ["run", "--corpus", clean_corpus, "--scripts", str(scripts),
             "--out", str(tmp_path / "o"), "--operators", "RD"]
        )
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == "validation error: script book has unknown key 'scripz'\n"
        assert not (tmp_path / "o").exists()

    def test_model_error_prints_its_location(self, clean_corpus, tmp_path, capsys):
        scripts = tmp_path / "scripts.json"
        scripts.write_text(json.dumps({"scripts": {"k1": [{"thought": "hmm"}]}}), encoding="utf-8")
        code = main(
            ["run", "--corpus", clean_corpus, "--scripts", str(scripts),
             "--out", str(tmp_path / "o"), "--operators", "RD"]
        )
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "validation error: scripts.k1[0]: a step is exactly one of: tool invocation, final answer\n"
        )

    def test_corpus_error_names_its_field_once_and_its_case(self, tmp_path, capsys):
        corpus = json.loads((packaged("demo") / "corpus.json").read_text(encoding="utf-8"))
        corpus["cases"][0]["query"]["text"] = 5
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps(corpus), encoding="utf-8")
        assert main(["validate", "--corpus", str(path)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "validation error: query.text must be a string, got integer (case d1_unknown_kwarg)\n"
        )
        del corpus["cases"][0]["query"]["text"]
        path.write_text(json.dumps(corpus), encoding="utf-8")
        assert main(["validate", "--corpus", str(path)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "validation error: query is missing required key 'text' (case d1_unknown_kwarg)\n"
        )


class TestScriptKeys:
    def run_demo(self, tmp_path, rename):
        book = json.loads((packaged("demo") / "scripts.json").read_text(encoding="utf-8"))
        book["scripts"] = {rename(key): script for key, script in book["scripts"].items()}
        scripts = tmp_path / "scripts.json"
        scripts.write_text(json.dumps(book), encoding="utf-8")
        return main(
            ["run", "--corpus", str(packaged("demo") / "corpus.json"), "--scripts", str(scripts),
             "--out", str(tmp_path / "o"), "--operators", "RD", "--report"]
        )

    def test_key_naming_no_case_is_refused(self, tmp_path, capsys):
        assert self.run_demo(tmp_path, lambda key: key + "_typo") == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "validation error: scripts.d1_unknown_kwarg_typo names no runnable case\n"
        )
        assert not (tmp_path / "o" / "campaign.jsonl").exists()

    def test_key_naming_an_unknown_operator_is_refused(self, tmp_path, capsys):
        assert self.run_demo(tmp_path, lambda key: "XX:" + key) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "validation error: scripts.XX:d1_unknown_kwarg names unknown operator 'XX'\n"
        )

    def test_operator_keys_for_other_operators_are_accepted(self, tmp_path):
        assert self.run_demo(tmp_path, lambda key: "CF:" + key) == EXIT_OK


class TestMalformedLog:
    @pytest.fixture
    def events(self, clean_corpus, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--corpus", clean_corpus, "--out", str(out), "--operators", "RD,CK", "--classify"]) == EXIT_OK
        return log_events(out / "campaign.jsonl")

    def report(self, tmp_path, events):
        log = tmp_path / "bad.jsonl"
        log.write_text("".join(log_line(e) + "\n" for e in events), encoding="utf-8")
        return main(["report", "--log", str(log), "--out", str(tmp_path / "report")])

    def test_shape_error_exits_one_with_its_line(self, tmp_path, capsys, events):
        events[3]["case_pass"] = "false"
        assert self.report(tmp_path, events) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "validation error: log line 4.case_pass must be a boolean, got string\n"
        )

    def test_duplicate_exits_two_naming_both_lines(self, tmp_path, capsys, events):
        events.insert(3, events[1])
        assert self.report(tmp_path, events) == EXIT_CAMPAIGN
        assert capsys.readouterr().err == (
            "campaign error: log line 4 is a second run of (RD, k1); the first is on line 2\n"
        )
        assert not (tmp_path / "report").exists()

    def test_a_second_run_under_another_seed_exits_one_at_its_seed(self, tmp_path, capsys, clean_corpus, events):
        seed = events[1]["seed"]
        events.insert(3, {**events[1], "seed": seed + 1})
        expected = (
            f"validation error: log line 4.seed must be {seed}, as the header's seed derives it, got {seed + 1}\n"
        )
        assert self.report(tmp_path, events) == EXIT_VALIDATION
        assert capsys.readouterr().err == expected
        assert not (tmp_path / "report").exists()
        log = tmp_path / "bad.jsonl"
        before = log.read_bytes()
        assert main(["classify", "--log", str(log), "--corpus", clean_corpus]) == EXIT_VALIDATION
        assert capsys.readouterr().err == expected
        assert log.read_bytes() == before


class TestDemo:
    def test_demo_passes_five_of_five(self, capsys):
        assert main(["demo"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "5/5 fixtures classified as intended" in out
        assert out.count("pass ") == 5
        assert "FAIL" not in out


class TestEntryPoint:
    def test_console_script_is_installed(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import paramfuzz

        src = str(Path(paramfuzz.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        result = subprocess.run(
            [sys.executable, "-m", "paramfuzz", "--version"], capture_output=True, text=True, env=env
        )
        assert result.returncode == 0
        assert result.stdout == "paramfuzz 0.1.0\n"
        pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        assert '[project.scripts]\nparamfuzz = "paramfuzz.cli:main"\n' in pyproject


class TestMisbehavingEndpoint:
    @pytest.mark.parametrize(
        ("content", "error"),
        [
            pytest.param('Action: svc_01\nAction Input: {"board": "\\ud800"}', None, id="lone_surrogate_escape"),
            pytest.param("Action: svc_01\nAction Input: " + "[" * 100_000, None, id="deep_nesting"),
            pytest.param("Thought: \ud800\nFinal Answer: x", "TransportError", id="lone_surrogate"),
            pytest.param(None, "TransportError", id="deeply_nested_body"),
        ],
    )
    def test_http_run_logs_every_pair_and_exits_zero(self, tmp_path, monkeypatch, content, error):
        """content None sends a body of 100,000 '[' in place of a completion."""
        import requests

        class Response:
            status_code = 200

            def __init__(self, content):
                self.text = "[" * 100_000 if content is None else json.dumps(
                    {"choices": [{"message": {"content": content}}]}
                )

            def json(self):
                return json.loads(self.text)

        def post(url, headers=None, json=None, timeout=None):
            answered = any(message["role"] == "assistant" for message in json["messages"])
            return Response("Final Answer: Done." if answered else content)

        monkeypatch.setattr(requests, "post", post)
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({"driver": "http", "endpoint": {"base_url": "http://fake", "model": "m",
                                                      "rate_per_minute": 0, "backoff_base_s": 0}}),
            encoding="utf-8",
        )
        with importlib.resources.as_file(packaged("mock_campaign")) as root:
            cases = filter_cases(load_corpus(str(root / "corpus.json")))
            code = main(
                ["run", "--corpus", str(root / "corpus.json"), "--config", str(config),
                 "--out", str(tmp_path / "o"), "--operators", "RD", "--report"]
            )
        assert code == EXIT_OK
        events = log_events(str(tmp_path / "o" / "campaign.jsonl"))
        runs = [e for e in events if e["event"] in ("trajectory", "trajectory_error")]
        assert [e["case_id"] for e in runs] == [case.case_id for case in cases]
        if error is None:
            assert all(e["event"] == "trajectory" for e in runs)
            actions = [e["steps"][0]["invocation"] for e in runs]
            assert all(a["arguments"] == {} and a["raw_text"] == content for a in actions)
        else:
            assert {(e["event"], e["error"]) for e in runs} == {("trajectory_error", error)}
            assert all(e["message"].startswith("malformed completion body: ") for e in runs)
