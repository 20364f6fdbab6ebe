"""An in-process chat-completions endpoint for the http_fake workload.

``FakeEndpoint.post`` has the signature of ``requests.post`` and replaces
it, so the HTTP driver's own transport, retry and ReAct parsing code runs
while no socket is opened. Each completion is a pure function of the
request's messages: the case is found by the first tool name in the
rendered declarations, the step by the number of assistant turns, and the
answer comes from the plan the workload generator wrote. Every request
waits a fixed latency, and the first attempt of about one distinct
request in twenty is answered with HTTP 429.
"""

from __future__ import annotations

import hashlib
import json
import re
import threading
import time

LATENCY_S = 0.002
THROTTLE_ONE_IN = 20

_FIRST_TOOL = re.compile(r'"tool_name":\s*"([^"]+)"')


class FakeResponse:
    """The part of ``requests.Response`` the HTTP driver reads."""

    def __init__(self, status_code: int, body: object) -> None:
        self.status_code = status_code
        self._body = body
        self.text = json.dumps(body)

    def json(self) -> object:
        return self._body


def completion(plan: dict[str, list[dict]], messages: list[dict]) -> str:
    """The ReAct completion for one request, from the plan alone."""
    match = _FIRST_TOOL.search(messages[0]["content"])
    if match is None or match.group(1) not in plan:
        return "Thought: I cannot tell which task this is.\nFinal Answer: unknown task"
    calls = plan[match.group(1)]
    step = sum(1 for message in messages if message["role"] == "assistant")
    if step >= len(calls):
        return "Thought: The task is complete.\nFinal Answer: Done."
    call = calls[step]
    return (
        f"Thought: Step {step + 1} calls {call['tool_name']}.\n"
        f"Action: {call['tool_name']}\n"
        f"Action Input: {json.dumps(call['arguments'], sort_keys=True)}"
    )


class FakeEndpoint:
    """Replacement for ``requests.post``; thread-safe, opens no socket."""

    def __init__(self, plan: dict[str, list[dict]]) -> None:
        self.plan = plan
        self.requests = 0
        self.throttled = 0
        self._seen: set[bytes] = set()
        self._lock = threading.Lock()

    @classmethod
    def load(cls, path: str) -> "FakeEndpoint":
        with open(path, "r", encoding="utf-8") as handle:
            return cls(json.load(handle))

    def post(self, url: str, headers=None, json=None, timeout=None) -> FakeResponse:  # noqa: A002
        time.sleep(LATENCY_S)
        if not url.endswith("/chat/completions") or not isinstance(json, dict):
            return FakeResponse(404, {"error": "not found"})
        messages = json["messages"]
        digest = hashlib.sha256(_dumps(messages).encode("utf-8")).digest()
        with self._lock:
            self.requests += 1
            first = digest not in self._seen
            self._seen.add(digest)
            throttle = first and int.from_bytes(digest[:4], "big") % THROTTLE_ONE_IN == 0
            if throttle:
                self.throttled += 1
        if throttle:
            return FakeResponse(429, {"error": "rate limited"})
        content = completion(self.plan, messages)
        return FakeResponse(200, {"choices": [{"message": {"role": "assistant", "content": content}}]})


def _dumps(value: object) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))
