"""ReAct parsing and HTTP chat-completions driver tests.

Network behavior is tested through an injected fake transport; nothing
here opens a socket.
"""

import pytest

from conftest import make_tool
from paramfuzz.driver import (
    AgentContext,
    EndpointConfig,
    HttpDriver,
    parse_react_step,
)
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
        config = EndpointConfig.from_json({"base_url": "http://h", "model": "m"})
        assert config.base_url == "http://h" and config.model == "m"
        assert config.temperature == 0.0

    def test_from_json_ignores_unknown_keys(self):
        config = EndpointConfig.from_json(
            {"base_url": "http://h", "model": "m", "vendor_extra": True, "workers": 2, "max_steps": 8}
        )
        assert not hasattr(config, "vendor_extra")
        assert not hasattr(config, "workers")

    def test_from_json_requires_base_url_and_model(self):
        with pytest.raises(SchemaViolation):
            EndpointConfig.from_json({"model": "m"})
        with pytest.raises(SchemaViolation):
            EndpointConfig.from_json({"base_url": "http://h"})

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


class TestHttpDriver:
    def test_happy_path(self):
        transport = FakeTransport([completion("Final Answer: done")])
        driver = HttpDriver(fast_config(), credential="sk-test", transport=transport)
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
        driver = HttpDriver(fast_config(), credential="", transport=transport)
        driver.next_step(simple_context())
        assert "Authorization" not in transport.requests[0][1]

    def test_messages_structure(self):
        transport = FakeTransport([completion("Final Answer: x")])
        driver = HttpDriver(fast_config(), credential="", transport=transport)
        from paramfuzz.classify import ObservedInvocation

        ctx = AgentContext(
            query="Find whales.",
            tools=(make_tool(),),
            history=(
                ("look it up", ObservedInvocation.of("searcher", {"query": "whales"}), "3 hits"),
            ),
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
        driver = HttpDriver(fast_config(), credential="sk-bad", transport=transport)
        with pytest.raises(AuthFailure):
            driver.next_step(simple_context())
        assert len(transport.requests) == 1

    def test_forbidden_is_immediate(self):
        transport = FakeTransport([(403, "")])
        driver = HttpDriver(fast_config(), credential="sk", transport=transport)
        with pytest.raises(AuthFailure):
            driver.next_step(simple_context())

    def test_rate_limit_retries_then_succeeds(self):
        transport = FakeTransport([(429, ""), (429, ""), completion("Final Answer: ok")])
        driver = HttpDriver(fast_config(), credential="sk", transport=transport)
        assert driver.next_step(simple_context()).final_answer == "ok"
        assert len(transport.requests) == 3

    def test_rate_limit_exhausts_retries(self):
        transport = FakeTransport([(429, "")] * 3)
        driver = HttpDriver(fast_config(max_retries=2), credential="sk", transport=transport)
        with pytest.raises(RateLimited):
            driver.next_step(simple_context())
        assert len(transport.requests) == 3

    def test_server_errors_retry_then_surface(self):
        transport = FakeTransport([(500, ""), (503, ""), (502, "")])
        driver = HttpDriver(fast_config(max_retries=2), credential="sk", transport=transport)
        with pytest.raises(TransportError):
            driver.next_step(simple_context())
        assert len(transport.requests) == 3

    def test_transport_exception_is_retried(self):
        transport = FakeTransport(
            [TransportError("connection reset"), completion("Final Answer: ok")]
        )
        driver = HttpDriver(fast_config(), credential="sk", transport=transport)
        assert driver.next_step(simple_context()).final_answer == "ok"

    def test_unexpected_status_fails_immediately(self):
        transport = FakeTransport([(418, "short and stout")])
        driver = HttpDriver(fast_config(), credential="sk", transport=transport)
        with pytest.raises(TransportError):
            driver.next_step(simple_context())
        assert len(transport.requests) == 1

    def test_malformed_completion_body(self):
        transport = FakeTransport([(200, {"choices": []})])
        driver = HttpDriver(fast_config(), credential="sk", transport=transport)
        with pytest.raises(TransportError):
            driver.next_step(simple_context())
