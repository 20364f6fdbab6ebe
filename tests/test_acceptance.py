"""Release gates: one test per acceptance criterion.

Each test here is a self-contained end-to-end check; `pytest -v` prints
one pass/fail line per gate.
"""

import importlib.resources
import json
import os
import random
import time
from pathlib import Path

import pytest

from conftest import (
    log_events,
    make_case,
    random_payload,
    random_query,
    random_tokens,
    random_tool,
    scripted_return,
    swap_pair,
)
from test_rouge import oracle_lcs, oracle_rouge
from paramfuzz.campaign import CampaignConfig, classify_log, read_log, run_campaign
from paramfuzz.classify import rouge_l
from paramfuzz.cli import EXIT_OK, main
from paramfuzz.corpus import ToolReturn
from paramfuzz.driver import (
    AgentContext,
    ReplayDriver,
    ScriptedBehavior,
    TruncationEvent,
    run_case,
)
from paramfuzz.errors import PerturbSkip
from paramfuzz.perturb import (
    ALL_OPERATORS,
    apply_operator,
    camel_case_keys,
    corrupt_format,
    remove_first_mention,
    remove_last_mention,
    shuffle_descriptions,
    snake_case_keys,
)
from paramfuzz.reporting import collect_results, emit_report


def leaf_multiset(value):
    out = []

    def walk(item):
        if isinstance(item, dict):
            for child in item.values():
                walk(child)
        elif isinstance(item, list):
            for child in item:
                walk(child)
        else:
            out.append(repr(item))

    walk(value)
    return sorted(out)


def test_gate_operator_property_suites_500_random_inputs_under_10s():
    started = time.monotonic()
    rng = random.Random(1729)
    for _ in range(500):
        doc = random_tool(rng)

        try:
            stripped, _ = apply_operator("RD", doc)
        except PerturbSkip:
            assert not any(p.required and p.description for p in doc.parameters)
        else:
            for before, after in zip(doc.parameters, stripped.parameters):
                expected = "" if before.required else before.description
                assert after.description == expected

        try:
            bare, _ = apply_operator("RE", doc)
        except PerturbSkip:
            pass
        else:
            assert bare.usage_examples == ()
            assert all(p.example is None and not p.has_example for p in bare.parameters)

        try:
            retyped, _ = apply_operator("WT", doc)
        except PerturbSkip:
            assert not doc.parameters
        else:
            for before, after in zip(doc.parameters, retyped.parameters):
                assert after.ptype != before.ptype

        try:
            swapped, record = apply_operator("SD", doc)
        except PerturbSkip:
            pass
        else:
            changed = [
                i
                for i, (before, after) in enumerate(zip(doc.parameters, swapped.parameters))
                if before.description != after.description
            ]
            assert len(changed) == 2
            i, j = record.details["pair"]
            assert sorted(changed) == sorted([i, j])
            assert swap_pair(swapped, i, j) == doc

        distinct = random_tool(rng, distinct_descriptions=True)
        try:
            shuffled, _ = shuffle_descriptions(distinct, seed=rng.randrange(2**32))
        except PerturbSkip:
            assert len(distinct.parameters) < 2
        else:
            assert sorted(p.description for p in shuffled.parameters) == sorted(
                p.description for p in distinct.parameters
            )
            assert [p.description for p in shuffled.parameters] != [
                p.description for p in distinct.parameters
            ]

        query = random_query(rng)
        for operator in (remove_first_mention, remove_last_mention):
            try:
                cut, _ = operator(query)
            except PerturbSkip:
                assert not query.mentions
            else:
                assert len(cut.mentions) == len(query.mentions) - 1
                for mention in cut.mentions:
                    assert cut.text[mention.start : mention.end] == mention.value_text
        try:
            noised, _ = apply_operator("AN", query)
        except PerturbSkip:
            assert not query.mentions
        else:
            assert noised.text.startswith(query.text)
            for mention in noised.mentions:
                assert noised.text[mention.start : mention.end] == mention.value_text

        payload = random_payload(rng)
        returned = ToolReturn(payload=payload)
        reference = leaf_multiset(payload)
        for operator in ("FK", "CK", "UK"):
            try:
                renamed, _ = apply_operator(operator, returned)
            except PerturbSkip:
                continue
            assert leaf_multiset(renamed.payload) == reference
        for operator in (camel_case_keys, snake_case_keys):
            try:
                once, _ = operator(returned)
            except PerturbSkip:
                continue
            twice, _ = operator(once)
            assert twice.payload == once.payload
        if isinstance(payload, (dict, list)):
            broken, _ = corrupt_format(returned)
            assert broken.raw_text is not None
            with pytest.raises(json.JSONDecodeError):
                json.loads(broken.raw_text)

    assert time.monotonic() - started < 10.0


def test_gate_rouge_l_bit_identical_to_bruteforce_oracle_on_1000_pairs():
    worked_a = ["a", "b", "x"]
    worked_b = ["a", "c", "b", "d"]
    assert oracle_lcs(worked_a, worked_b) == 2
    assert rouge_l(worked_a, worked_b) == 4 / 7
    rng = random.Random(31337)
    for _ in range(1000):
        a = random_tokens(rng, max_len=64)
        b = random_tokens(rng, max_len=64)
        assert rouge_l(a, b) == oracle_rouge(a, b)


def test_gate_demo_fixtures_classify_five_of_five(capsys):
    assert main(["demo"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "5/5 fixtures classified as intended" in out
    assert out.count("pass ") == 5
    assert "FAIL" not in out


@pytest.fixture(scope="module")
def mock_run(tmp_path_factory):
    """One full mock campaign: log plus emitted reports plus hand counts."""
    data = importlib.resources.files("paramfuzz").joinpath("data", "mock_campaign")
    out_dir = tmp_path_factory.mktemp("mock_campaign")
    with importlib.resources.as_file(data) as root:
        expected = json.loads((root / "expected_counts.json").read_text(encoding="utf-8"))
        config = CampaignConfig(
            corpus_path=str(root / "corpus.json"),
            out_dir=str(out_dir),
            operators=ALL_OPERATORS,
            seed=0,
            scripts_path=str(root / "scripts.json"),
        )
        log_path = run_campaign(config).path
        log = read_log(log_path)
        classify_log(log, config.corpus_path)
        paths = emit_report(log, str(out_dir))
        rerun_dir = tmp_path_factory.mktemp("mock_campaign_rerun")
        rerun_config = CampaignConfig(
            corpus_path=config.corpus_path,
            out_dir=str(rerun_dir),
            operators=ALL_OPERATORS,
            seed=0,
            scripts_path=config.scripts_path,
        )
        rerun_log = run_campaign(rerun_config).path
        log = read_log(rerun_log)
        classify_log(log, rerun_config.corpus_path)
        rerun_paths = emit_report(log, str(rerun_dir))
    return {
        "expected": expected,
        "log_path": log_path,
        "paths": paths,
        "rerun_log": rerun_log,
        "rerun_paths": rerun_paths,
    }


def test_gate_mock_campaign_reproduces_hand_counts_byte_identically(mock_run):
    expected = mock_run["expected"]
    report = json.loads(Path(mock_run["paths"]["json"]).read_text(encoding="utf-8"))
    for operator in ALL_OPERATORS:
        block = report["operators"][operator]
        assert block["attempted"] == expected["attempted"][operator], operator
        assert block["skipped_unperturbable"] == expected["skipped"][operator], operator
        assert (
            block["failure_rate_percent"]
            == expected["overall_failure_rate_percent"][operator]
        ), operator
        assert block["categories"] == expected["category_failure_rate_percent"][operator], operator
        joint = block["rouge_exceedance"]["joint"]
        wanted = expected["rouge_joint_exceedance_percent"][operator]
        assert joint == (None if wanted == "n/a" else wanted), operator
    matrix = report["transfer_matrix"]
    assert matrix["order"] == expected["transfer_category_order"]
    assert matrix["counts"] == expected["transfer_counts"]
    assert matrix["failing_invocations"] == expected["failing_invocations"]
    csv_lines = Path(mock_run["paths"]["csv"]).read_text(encoding="utf-8").strip().split("\n")
    assert len(csv_lines) == 7
    assert csv_lines[0].split(",") == ["Failure Taxonomy", *ALL_OPERATORS]
    assert Path(mock_run["log_path"]).read_bytes() == Path(mock_run["rerun_log"]).read_bytes()
    for kind in ("json", "csv", "md"):
        assert (
            Path(mock_run["paths"][kind]).read_bytes()
            == Path(mock_run["rerun_paths"][kind]).read_bytes()
        )


def test_gate_runner_emits_one_trajectory_per_operator_case_pair(mock_run):
    events = log_events(mock_run["log_path"])
    meta = events[0]
    assert meta["case_count"] == 20
    trajectories = [e for e in events if e["event"] == "trajectory"]
    assert len(trajectories) == 15 * 20 == mock_run["expected"]["trajectories"]
    pairs = {(e["operator"], e["case_id"]) for e in trajectories}
    assert len(pairs) == 300


def test_gate_observations_truncate_to_1024_with_logged_event():
    case = make_case(
        scripted=(
            scripted_return(
                "searcher", {"query": "books about whales"}, raw_text="x" * 5000
            ),
        ),
    )
    seen_by_driver: list[str] = []

    class ProbingDriver:
        driver_id = "probe"

        def __init__(self, script):
            self.script = script

        def next_step(self, ctx: AgentContext):
            for step in ctx.history:
                seen_by_driver.append(step.observation)
            index = min(len(ctx.history), len(self.script.steps) - 1)
            return self.script.steps[index]

    trajectory = run_case(
        case, "RD", ProbingDriver(ScriptedBehavior.replaying(case))
    )
    assert trajectory.outcome == "answered"
    assert seen_by_driver and all(len(obs) == 1024 for obs in seen_by_driver)
    assert trajectory.truncations == (
        TruncationEvent(step_index=0, original_length=5000, truncated_length=1024),
    )


@pytest.mark.skipif(
    not os.environ.get("PARAMFUZZ_SMOKE_URL"),
    reason="set PARAMFUZZ_SMOKE_URL (and PARAMFUZZ_SMOKE_MODEL) to smoke-test a live endpoint",
)
def test_gate_live_endpoint_smoke(tmp_path):
    endpoint = {
        "base_url": os.environ["PARAMFUZZ_SMOKE_URL"],
        "model": os.environ.get("PARAMFUZZ_SMOKE_MODEL", "gpt-4o-mini"),
    }
    data = importlib.resources.files("paramfuzz").joinpath("data", "demo")
    with importlib.resources.as_file(data) as root:
        config_path = tmp_path / "endpoint.json"
        config_path.write_text(json.dumps({"endpoint": endpoint}), encoding="utf-8")
        out_dir = tmp_path / "out"
        code = main(
            [
                "run",
                "--corpus", str(root / "corpus.json"),
                "--out", str(out_dir),
                "--operators", "RD,CK",
                "--driver", "http",
                "--config", str(config_path),
                "--report",
            ]
        )
        assert code == EXIT_OK
        events = log_events(out_dir / "campaign.jsonl")
        assert events[0]["event"] == "campaign_meta"
        assert sum(1 for e in events if e["event"] in ("trajectory", "trajectory_error")) == 10
        results = collect_results(read_log(str(out_dir / "campaign.jsonl")))
        assert results.meta["driver"] == "http"
        for name in ("report.json", "report_table.csv", "report.md"):
            assert (out_dir / name).exists()
