"""Tests of the benchmark's own parts.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import filecmp
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import fake_endpoint  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_generator_is_a_function_of_the_seed(tmp_path, name):
    generate = workloads.GENERATORS[name]
    first = generate(7, str(tmp_path / "a"))
    second = generate(7, str(tmp_path / "b"))
    other = generate(8, str(tmp_path / "c"))
    assert first.pairs == second.pairs == other.pairs > 0
    assert first.expected == second.expected
    for path_a, path_b, path_c in zip(first.files, second.files, other.files):
        assert filecmp.cmp(path_a, path_b, shallow=False), path_a
    assert not filecmp.cmp(first.files[0], other.files[0], shallow=False)


def test_breadth_scales_the_packaged_fixture(tmp_path):
    workload = workloads.generate_breadth(3, str(tmp_path))
    counts = workload.expected["counts"]
    assert workload.pairs == counts["trajectories"] * workloads.BREADTH_REPLICAS
    with open(workload.files[0], encoding="utf-8") as handle:
        cases = json.load(handle)["cases"]
    assert len({case["case_id"] for case in cases}) == len(cases)


def test_depth_cases_parse_and_their_oracles_pass(tmp_path):
    from paramfuzz.classify import classify_trajectory
    from paramfuzz.corpus import load_corpus
    from paramfuzz.driver import ScriptedBehavior

    workload = workloads.generate_depth(5, str(tmp_path))
    cases = load_corpus(workload.files[0])
    assert len(cases) == workloads.DEPTH_CASES
    for case in cases[:10]:
        steps = ScriptedBehavior.replaying(case).steps
        observed = [step.invocation for step in steps if step.invocation is not None]
        assert classify_trajectory(observed, list(case.oracle), list(case.tools)).case_pass
        for invocation in case.oracle:
            assert case.scripted_lookup(invocation.tool_name, invocation.arguments) is not None


@pytest.mark.parametrize("kind", workloads.DEFECT_KINDS)
def test_every_defect_kind_fails_the_case(tmp_path, kind):
    import random

    from paramfuzz.classify import ObservedInvocation, classify_trajectory
    from paramfuzz.corpus import parse_corpus

    raw = workloads.depth_case(random.Random(1), 0)
    case = parse_corpus(json.dumps({"schema_version": 1, "cases": [raw]}))[0]
    calls = workloads.defective_calls(raw, 2, kind)
    observed = [ObservedInvocation.of(call["tool_name"], call["arguments"]) for call in calls]
    assert not classify_trajectory(observed, list(case.oracle), list(case.tools)).case_pass


def _plan() -> dict:
    return {
        "t0": [
            {"tool_name": "t0", "arguments": {"q": "a"}},
            {"tool_name": "t1", "arguments": {"q": "b", "n": 2}},
        ]
    }


def _messages(assistant_turns: int) -> list[dict]:
    messages = [
        {"role": "system", "content": '[{"tool_name": "t0"}, {"tool_name": "t1"}]'},
        {"role": "user", "content": "do it"},
    ]
    for turn in range(assistant_turns):
        messages.append({"role": "assistant", "content": f"turn {turn}"})
        messages.append({"role": "user", "content": "Observation: ok"})
    return messages


def test_fake_completion_is_a_pure_function_of_the_messages():
    plan = _plan()
    assert fake_endpoint.completion(plan, _messages(1)) == fake_endpoint.completion(plan, _messages(1))
    assert "Action: t0\n" in fake_endpoint.completion(plan, _messages(0))
    assert 'Action Input: {"n": 2, "q": "b"}' in fake_endpoint.completion(plan, _messages(1))
    assert "Final Answer:" in fake_endpoint.completion(plan, _messages(2))


def test_fake_endpoint_throttles_the_same_first_attempts_every_time(monkeypatch):
    monkeypatch.setattr(fake_endpoint, "LATENCY_S", 0.0)
    url = workloads.FAKE_BASE_URL + "/chat/completions"
    payloads = [{"model": "m", "messages": _messages(0) + [{"role": "user", "content": str(i)}]}
                for i in range(200)]

    def statuses() -> list[int]:
        endpoint = fake_endpoint.FakeEndpoint(_plan())
        first = [endpoint.post(url, json=payload).status_code for payload in payloads]
        retry = [endpoint.post(url, json=payload).status_code for payload in payloads]
        assert retry == [200] * len(payloads)
        assert endpoint.requests == 2 * len(payloads)
        assert endpoint.throttled == first.count(429)
        return first

    first = statuses()
    assert first == statuses()
    assert 0 < first.count(429) < len(payloads) // 5


def test_http_driver_replays_the_plan_through_the_fake_endpoint(tmp_path, monkeypatch):
    import requests

    from paramfuzz.corpus import load_corpus
    from paramfuzz.driver import EndpointConfig, HttpDriver, run_case

    workload = workloads.generate_http_fake(2, str(tmp_path))
    case = load_corpus(workload.files[0])[0]
    endpoint = fake_endpoint.FakeEndpoint.load(workload.fake_plan)
    monkeypatch.setattr(requests, "post", endpoint.post)
    driver = HttpDriver(EndpointConfig(base_url=workloads.FAKE_BASE_URL, model="m",
                                       rate_per_minute=0, backoff_base_s=0.0))
    trajectory = run_case(case, "RD", driver)
    planned = endpoint.plan[case.tools[0].tool_name]
    assert [(inv.tool_name, inv.arguments) for inv in trajectory.invocations] == [
        (call["tool_name"], call["arguments"]) for call in planned
    ]
    assert endpoint.requests >= len(planned) + 1


def _span(thread, metric, start, end, parent):
    return [thread, metric, start, end, parent, None, None, None, None]


def test_self_time_subtracts_only_the_time_children_cover():
    spans = [
        _span(0, "root", 0.0, 10.0, -1),
        _span(0, "a", 1.0, 4.0, 0),
        _span(0, "a.child", 2.0, 3.0, 1),
        _span(0, "b", 5.0, 6.5, 0),
        _span(1, "other", 0.0, 2.0, -1),
        _span(1, "other.child", 0.5, 1.0, 0),
    ]
    assert tracer.self_times(spans) == pytest.approx([5.5, 2.0, 1.0, 1.5, 1.5, 0.5])


def test_self_time_clips_children_and_counts_overlap_once():
    spans = [
        _span(0, "root", 0.0, 4.0, -1),
        _span(0, "x", 1.0, 3.0, 0),
        _span(0, "y", 2.0, 5.0, 0),
    ]
    assert tracer.self_times(spans)[0] == pytest.approx(1.0)


def test_a_layer_missing_at_run_time_reports_null():
    dump = {
        "spans": [_span(0, "driver.run_case", 0.0, 1.0, -1)],
        "counters": {},
        "installed": ["driver.run_case"],
        "missing": ["paramfuzz.corpus.load_corpus"],
    }
    metrics = tracer.layer_metrics([dump])
    assert metrics["driver.run_case.calls"] == 1
    assert metrics["driver.run_case.self_s"] == pytest.approx(1.0)
    assert metrics["corpus.load_corpus.self_s"] is None
    assert metrics["corpus.load_corpus.calls"] is None


def test_benchmark_json_lists_every_metric_the_benchmark_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert {(m["name"], m["unit"]) for m in spec["per_layer"]} == {
        (m.name, m.unit) for m in tracer.LAYER_METRICS
    }
    assert {(m["name"], m["unit"]) for m in spec["end_to_end"]} == set(run.END_TO_END.items())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.GENERATORS)


def test_traced_command_writes_the_same_bytes_and_every_layer(tmp_path):
    data = os.path.join(SRC, "paramfuzz", "data", "mock_campaign")
    outputs = {}
    for traced in (False, True):
        out = tmp_path / ("traced" if traced else "plain")
        argv = [sys.executable, os.path.join(HERE, "child.py"), "--stats", str(tmp_path / "stats.json")]
        if traced:
            argv += ["--trace", str(tmp_path / "trace.json")]
        argv += ["--", "run", "--corpus", os.path.join(data, "corpus.json"),
                 "--scripts", os.path.join(data, "scripts.json"), "--out", str(out), "--report"]
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL, timeout=120)
        outputs[traced] = {
            name: (out / name).read_bytes()
            for name in ("campaign.jsonl", *run.REPORT_FILES)
        }
    assert outputs[True] == outputs[False]
    with open(tmp_path / "trace.json", encoding="utf-8") as handle:
        dump = json.load(handle)
    assert dump["missing"] == []
    metrics = tracer.layer_metrics([dump])
    assert all(value is not None for value in metrics.values())
    assert metrics["driver.run_case.calls"] == 300
    assert metrics["campaign.derived_seed.calls"] == 600
    assert metrics["corpus.load_corpus.calls"] == 2
