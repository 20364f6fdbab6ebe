"""ReAct parsing and HTTP chat-completions driver tests.

Network behavior is tested through an injected fake transport; nothing
here opens a socket.
"""

import hashlib
import importlib.resources
import json
import types

import pytest
import requests

from conftest import make_tool
from paramfuzz.campaign import derived_seed
from paramfuzz.corpus import all_tools, canonical_json, load_corpus
from paramfuzz import driver
from paramfuzz.driver import (
    PROMPT_TEMPLATE_VERSION,
    AgentContext,
    EndpointConfig,
    HttpDriver,
    TrajectoryStep,
    _RateLimiter,
    _requests_transport,
    parse_react_step,
    run_case,
)
from paramfuzz.perturb import donor_pool
from paramfuzz.errors import AuthFailure, RateLimited, SchemaViolation, TransportError


class TestParseReactStep:
    def test_action_with_json_input(self):
        step = parse_react_step(
            "Thought: search first\n"
            "Action: searcher\n"
            'Action Input: {"query": "whales", "limit": 3}\n'
        )
        assert step.thought == "search first"
        assert step.invocation.tool_name == "searcher"
        assert step.invocation.arguments == {"query": "whales", "limit": 3}
        assert not step.is_final

    def test_action_before_final_answer_wins(self):
        step = parse_react_step(
            "Action: searcher\n"
            'Action Input: {"query": "x"}\n'
            "Final Answer: premature\n"
        )
        assert step.invocation is not None

    def test_final_answer_alone(self):
        step = parse_react_step("Thought: done\nFinal Answer: 42 items.\n")
        assert step.final_answer == "42 items."

    def test_neither_marker_counts_as_final(self):
        step = parse_react_step("I refuse to follow the format.")
        assert step.final_answer == "I refuse to follow the format."

    def test_input_runs_to_end_minus_observation_echo(self):
        step = parse_react_step(
            "Action: searcher\n"
            'Action Input: {"query": "x"}\n'
            "Observation: hallucinated echo\n"
        )
        assert step.invocation.arguments == {"query": "x"}
        assert "hallucinated echo" not in step.invocation.raw_text

    def test_embedded_json_extracted_from_prose(self):
        step = parse_react_step(
            "Action: searcher\n"
            'Action Input: here you go {"query": "x"} thanks\n'
        )
        assert step.invocation.arguments == {"query": "x"}

    def test_malformed_input_preserved_with_empty_arguments(self):
        step = parse_react_step(
            "Action: searcher\nAction Input: query = whales, limit = 3\n"
        )
        assert step.invocation.arguments == {}
        assert "query = whales" in step.invocation.raw_text

    def test_non_object_json_input_yields_empty_arguments(self):
        step = parse_react_step("Action: searcher\nAction Input: [1, 2]\n")
        assert step.invocation.arguments == {}

    def test_missing_action_input_line(self):
        step = parse_react_step("Action: searcher\n")
        assert step.invocation.tool_name == "searcher"
        assert step.invocation.arguments == {}


class TestEndpointConfig:
    def test_from_json_minimal(self):
        config = EndpointConfig.from_json({"base_url": "http://h", "model": "m"}, "config.endpoint")
        assert config.base_url == "http://h" and config.model == "m"
        assert config.temperature == 0.0

    def test_from_json_refuses_unknown_keys(self):
        with pytest.raises(SchemaViolation) as err:
            EndpointConfig.from_json(
                {"base_url": "http://h", "model": "m", "max_retires": 0, "temprature": 0.9},
                "config.endpoint",
            )
        assert str(err.value) == "config.endpoint has unknown key 'max_retires'"
        assert err.value.field == "config.endpoint.max_retires"

    def test_from_json_requires_base_url_and_model(self):
        with pytest.raises(SchemaViolation):
            EndpointConfig.from_json({"model": "m"}, "config.endpoint")
        with pytest.raises(SchemaViolation):
            EndpointConfig.from_json({"base_url": "http://h"}, "config.endpoint")

    @pytest.mark.parametrize(
        ("key", "value"),
        [
            ("max_retries", -1),
            ("timeout_s", 0.0),
            ("backoff_base_s", -1.0),
            ("rate_per_minute", -0.5),
            ("temperature", -0.1),
            ("temperature", float("nan")),
            ("temperature", float("inf")),
            ("timeout_s", float("inf")),
            ("backoff_base_s", float("inf")),
            ("rate_per_minute", float("inf")),
        ],
    )
    def test_rejects_values_out_of_range(self, key, value):
        with pytest.raises(SchemaViolation) as err:
            EndpointConfig(base_url="http://h", model="m", **{key: value})
        assert err.value.field == key

    def test_zero_rate_and_retries_are_allowed(self):
        config = EndpointConfig(base_url="http://h", model="m", rate_per_minute=0, max_retries=0)
        assert config.rate_per_minute == 0 and config.max_retries == 0


class TestRateLimiter:
    def test_spaces_calls_by_the_interval(self, monkeypatch):
        clock, slept = [100.0], []

        def sleep(seconds):
            slept.append(seconds)
            clock[0] += seconds

        monkeypatch.setattr(driver, "time", types.SimpleNamespace(monotonic=lambda: clock[0], sleep=sleep))
        limiter = _RateLimiter(120.0)  # one call per 0.5 s
        limiter.wait()
        limiter.wait()
        clock[0] += 0.2
        limiter.wait()
        clock[0] += 2.0
        limiter.wait()
        assert slept == pytest.approx([0.5, 0.3])


def test_requests_transport_turns_a_request_failure_into_a_transport_error(monkeypatch):
    def refuse(url, headers=None, json=None, timeout=None):
        raise requests.ConnectionError("connection refused")

    monkeypatch.setattr(requests, "post", refuse)
    with pytest.raises(TransportError) as err:
        _requests_transport("http://endpoint.test/v1/chat/completions", {}, {}, 1.0)
    assert str(err.value) == "request to http://endpoint.test/v1/chat/completions failed: connection refused"


def fast_config(**overrides):
    settings = dict(
        base_url="http://endpoint.test/v1",
        model="test-model",
        rate_per_minute=0.0,
        backoff_base_s=0.0,
        max_retries=2,
    )
    settings.update(overrides)
    return EndpointConfig(**settings)


class FakeTransport:
    """Returns queued (status, body) responses and records every request."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.requests = []

    def __call__(self, url, headers, payload, timeout):
        self.requests.append((url, headers, payload, timeout))
        item = self.responses.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


def completion(content):
    return (200, {"choices": [{"message": {"content": content}}]})


def simple_context():
    return AgentContext(query="Find whales.", tools=(make_tool(),))


@pytest.fixture(autouse=True)
def no_credential(monkeypatch):
    """HttpDriver reads its credential from the variable credential_env
    names: each test starts with none set."""
    monkeypatch.delenv(fast_config().credential_env, raising=False)


class TestHttpDriver:
    def test_happy_path(self, monkeypatch):
        monkeypatch.setenv(fast_config().credential_env, "sk-test")
        transport = FakeTransport([completion("Final Answer: done")])
        driver = HttpDriver(fast_config(), transport=transport)
        step = driver.next_step(simple_context())
        assert step.final_answer == "done"
        url, headers, payload, timeout = transport.requests[0]
        assert url == "http://endpoint.test/v1/chat/completions"
        assert headers["Authorization"] == "Bearer sk-test"
        assert payload["model"] == "test-model"
        assert payload["stop"] == ["Observation:"]
        assert timeout == 60.0

    def test_no_credential_means_no_auth_header(self):
        transport = FakeTransport([completion("Final Answer: x")])
        driver = HttpDriver(fast_config(), transport=transport)
        driver.next_step(simple_context())
        assert "Authorization" not in transport.requests[0][1]

    def test_messages_structure(self):
        transport = FakeTransport([completion("Final Answer: x")])
        driver = HttpDriver(fast_config(), transport=transport)
        from paramfuzz.classify import ObservedInvocation

        invocation = ObservedInvocation.of("searcher", {"query": "whales"})
        ctx = AgentContext(
            query="Find whales.",
            tools=(make_tool(),),
            history=(TrajectoryStep(thought="look it up", invocation=invocation, observation="3 hits"),),
        )
        driver.next_step(ctx)
        messages = transport.requests[0][2]["messages"]
        assert [m["role"] for m in messages] == ["system", "user", "assistant", "user"]
        assert "searcher" in messages[0]["content"]
        assert messages[1]["content"] == "Find whales."
        assert "Action: searcher" in messages[2]["content"]
        assert 'Action Input: {"query":"whales"}' in messages[2]["content"]
        assert messages[3]["content"] == "Observation: 3 hits"

    def test_auth_failure_is_immediate(self):
        transport = FakeTransport([(401, {"error": "bad key"})])
        driver = HttpDriver(fast_config(), transport=transport)
        with pytest.raises(AuthFailure):
            driver.next_step(simple_context())
        assert len(transport.requests) == 1

    def test_forbidden_is_immediate(self):
        transport = FakeTransport([(403, "")])
        driver = HttpDriver(fast_config(), transport=transport)
        with pytest.raises(AuthFailure):
            driver.next_step(simple_context())

    def test_rate_limit_retries_then_succeeds(self):
        transport = FakeTransport([(429, ""), (429, ""), completion("Final Answer: ok")])
        driver = HttpDriver(fast_config(), transport=transport)
        assert driver.next_step(simple_context()).final_answer == "ok"
        assert len(transport.requests) == 3

    def test_rate_limit_exhausts_retries(self):
        transport = FakeTransport([(429, "")] * 3)
        driver = HttpDriver(fast_config(max_retries=2), transport=transport)
        with pytest.raises(RateLimited):
            driver.next_step(simple_context())
        assert len(transport.requests) == 3

    def test_server_errors_retry_then_surface(self):
        transport = FakeTransport([(500, ""), (503, ""), (502, "")])
        driver = HttpDriver(fast_config(max_retries=2), transport=transport)
        with pytest.raises(TransportError):
            driver.next_step(simple_context())
        assert len(transport.requests) == 3

    def test_transport_exception_is_retried(self):
        transport = FakeTransport(
            [TransportError("connection reset"), completion("Final Answer: ok")]
        )
        driver = HttpDriver(fast_config(), transport=transport)
        assert driver.next_step(simple_context()).final_answer == "ok"

    def test_unexpected_status_fails_immediately(self):
        transport = FakeTransport([(418, "short and stout")])
        driver = HttpDriver(fast_config(), transport=transport)
        with pytest.raises(TransportError):
            driver.next_step(simple_context())
        assert len(transport.requests) == 1

    def test_malformed_completion_body(self):
        transport = FakeTransport([(200, {"choices": []})])
        driver = HttpDriver(fast_config(), transport=transport)
        with pytest.raises(TransportError):
            driver.next_step(simple_context())


class OracleTransport:
    """Answers a case's oracle calls in turn, then finishes, and records
    every request's messages."""

    def __init__(self, case):
        self.oracle = case.oracle
        self.messages = []

    def __call__(self, url, headers, payload, timeout):
        messages = payload["messages"]
        self.messages.append(messages)
        step = sum(1 for message in messages if message["role"] == "assistant")
        if step >= len(self.oracle):
            return completion("Thought: The task is complete.\nFinal Answer: Done.")
        call = self.oracle[step]
        return completion(
            f"Thought: Call {call.tool_name}.\nAction: {call.tool_name}\n"
            f"Action Input: {canonical_json(call.arguments)}"
        )


# sha256 of each request's messages (sorted keys, compact separators) for
# mock_campaign case m01 under one operator of each source. A change to the
# prompt bytes needs a new PROMPT_TEMPLATE_VERSION and a new entry here.
PROMPT_SHA256 = {
    "react-v1": {
        "WD": [
            "e641e1a374adf634af44eec72bf0f7fd492ab1085f7c590b97f0f1d770174a7c",
            "3a089b52d8601b8b953d53a4ac6ed0f42dd15ba5764cabf279e242676b161b73",
        ],
        "AN": [
            "4c8e1329adc734969056dc83dff498f8bcbbfe7989df972238747b89a89a525b",
            "ea83aefade46e267d21698b68a9fefc461c21af688a04f6f5913cb09b9d0f060",
        ],
        "CK": [
            "1d4b0aab5d697292d795ca9a7a8c11d49caa014e4a8dd037021da72ce5811d60",
            "511d8f92ba802ba16cbd74a8935c5a6a6f61ee7c1d2ec86a62cd36111c27d7b9",
        ],
    },
}


def test_prompt_bytes_are_pinned_per_template_version():
    root = importlib.resources.files("paramfuzz").joinpath("data", "mock_campaign")
    with importlib.resources.as_file(root) as path:
        cases = load_corpus(str(path / "corpus.json"))
    case = next(case for case in cases if case.case_id == "m01")
    donors = donor_pool(all_tools(cases))
    digests = {}
    for operator in ("WD", "AN", "CK"):
        transport = OracleTransport(case)
        driver = HttpDriver(fast_config(), transport=transport)
        trajectory = run_case(case, operator, driver, seed=derived_seed(0, operator, case.case_id), donors=donors)
        assert trajectory.perturbation_applied and trajectory.outcome == "answered"
        digests[operator] = [
            hashlib.sha256(
                json.dumps(messages, sort_keys=True, separators=(",", ":")).encode("utf-8")
            ).hexdigest()
            for messages in transport.messages
        ]
    assert digests == PROMPT_SHA256[PROMPT_TEMPLATE_VERSION]


class TestMisbehavingCompletion:
    @pytest.mark.parametrize(
        "action_input",
        [
            pytest.param('{"query": "\\ud800"}', id="lone_surrogate_escape"),
            pytest.param("[" * 100_000, id="deep_nesting"),
            pytest.param('here {"query": ' + "[" * 100_000 + "} thanks", id="deep_embedded_object"),
        ],
    )
    def test_undecodable_action_input_is_malformed_input(self, action_input):
        transport = FakeTransport([completion(f"Action: searcher\nAction Input: {action_input}")])
        driver = HttpDriver(fast_config(), transport=transport)
        step = driver.next_step(simple_context())
        assert step.invocation.arguments == {}
        assert step.invocation.raw_text == f"Action: searcher\nAction Input: {action_input}"

    def test_action_input_nested_past_canonical_json_is_malformed_input(self):
        """An argument map the decoder follows but canonical_json refuses
        reaches run_case as empty arguments, its text kept."""
        root = importlib.resources.files("paramfuzz").joinpath("data", "mock_campaign")
        with importlib.resources.as_file(root) as path:
            cases = load_corpus(str(path / "corpus.json"))
        case = next(case for case in cases if case.case_id == "m01")
        tool = case.oracle[0].tool_name
        action_input = '{"query": ' + "[" * 500 + "]" * 500 + "}"
        transport = FakeTransport([
            completion(f"Action: {tool}\nAction Input: {action_input}"),
            completion("Final Answer: Done."),
        ])
        driver = HttpDriver(fast_config(), transport=transport)
        trajectory = run_case(case, "RD", driver, seed=0, donors=donor_pool(all_tools(cases)))
        assert [(i.arguments, i.raw_text) for i in trajectory.invocations] == [
            ({}, f"Action: {tool}\nAction Input: {action_input}")
        ]

    def test_content_that_is_not_utf8_is_a_malformed_body(self):
        transport = FakeTransport([completion("Thought: \ud800\nFinal Answer: x")])
        driver = HttpDriver(fast_config(), transport=transport)
        with pytest.raises(TransportError, match="^malformed completion body: .*surrogates not allowed"):
            driver.next_step(simple_context())
        assert len(transport.requests) == 1
