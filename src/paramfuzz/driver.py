"""Agent drivers and the perturbed case-execution loop.

A driver produces one agent step from an AgentContext. Two ship here:

  * ReplayDriver plays back a ScriptedBehavior, making every campaign
    fully deterministic and network-free.
  * HttpDriver speaks the common chat-completions protocol against any
    HTTP endpoint, using a fixed, version-stamped ReAct prompt.

run_case owns the loop: it perturbs the designated input source, feeds
the agent, answers every tool call from the case's scripted returns,
perturbs and truncates observations, and assembles the Trajectory.
"""

from __future__ import annotations

import json
import math
import re
import threading
import time
import unicodedata
from dataclasses import dataclass

from paramfuzz.classify import ObservedInvocation
from paramfuzz.corpus import (
    JsonRecord,
    TestCase,
    ToolDocument,
    ToolReturn,
    _build,
    _each,
    _expect,
    _record,
    canonical_json,
    json_keys,
    tool_to_json,
)
from paramfuzz.errors import (
    AuthFailure,
    DriverError,
    PerturbSkip,
    RateLimited,
    SchemaViolation,
    TransportError,
)
from paramfuzz.perturb import (
    SOURCE_OF_OPERATOR,
    PerturbationRecord,
    apply_document_operator,
    apply_query_operator,
    apply_return_operator,
)

DEFAULT_STEP_LIMIT = 8
DEFAULT_MAX_OBSERVATION_LENGTH = 1024

PROMPT_TEMPLATE_VERSION = "react-v1"

SYSTEM_TEMPLATE = """\
You are a tool-using assistant. Solve the user's query by calling the
tools documented below, then give a final answer.

Available tools, as JSON documents:
{declarations}

Respond in exactly this format:

Thought: your reasoning about the next step
Action: the tool to call, one of: {tool_names}
Action Input: the arguments as one JSON object

After each action you will be shown:

Observation: the tool's response

Repeat until you can answer, then finish with:

Thought: your final reasoning
Final Answer: the answer to the user's query
"""


@dataclass(frozen=True)
class TruncationEvent(JsonRecord):
    """A record that one observation was cut down to the budget."""

    step_index: int
    original_length: int
    truncated_length: int


def truncate_observation(text: str, budget: int) -> tuple[str, int | None]:
    """Cut text to at most budget code points, never splitting a base
    character from its combining marks. Returns (text, cut length or
    None when nothing was truncated)."""
    if len(text) <= budget:
        return text, None
    cut = budget
    while cut > 0 and unicodedata.combining(text[cut]):
        cut -= 1
    return text[:cut], cut


@dataclass(frozen=True)
class AgentContext:
    """Everything a driver may look at to produce the next step."""

    query: str
    tools: tuple[ToolDocument, ...]
    history: tuple[tuple[str, ObservedInvocation, str], ...] = ()


@dataclass(frozen=True)
class AgentStep:
    """One driver output: either a tool invocation or a final answer."""

    thought: str = ""
    invocation: ObservedInvocation | None = None
    final_answer: str | None = None

    def __post_init__(self) -> None:
        if (self.invocation is None) == (self.final_answer is None):
            raise SchemaViolation(
                "a step is exactly one of: tool invocation, final answer"
            )

    @property
    def is_final(self) -> bool:
        return self.final_answer is not None


_STEP_KEYS = (
    ("thought", "string", False),
    ("action", "object", False),
    ("final_answer", "string", False),
)
_ACTION_KEYS = (("tool_name", "string", True), ("arguments", "object", True))


def _parse_step(obj: object, where: str, case_id: str | None) -> AgentStep:
    obj = _record(obj, _STEP_KEYS, where, case_id)
    invocation = None
    if obj.get("action") is not None:
        action = _record(obj["action"], _ACTION_KEYS, f"{where}.action", case_id)
        invocation = ObservedInvocation.of(action["tool_name"], action["arguments"])
    return _build(
        AgentStep,
        where,
        case_id,
        thought=obj.get("thought") or "",
        invocation=invocation,
        final_answer=obj.get("final_answer"),
    )


@dataclass(frozen=True)
class ScriptedBehavior:
    """A pre-written sequence of agent steps ending in a final answer."""

    steps: tuple[AgentStep, ...]

    def __post_init__(self) -> None:
        if not self.steps:
            raise SchemaViolation("a script needs at least one step")
        if not self.steps[-1].is_final:
            raise SchemaViolation("the last scripted step must be a final answer")
        for step in self.steps[:-1]:
            if step.is_final:
                raise SchemaViolation(
                    "a final answer may only appear as the last scripted step"
                )

    @classmethod
    def from_json(cls, steps: object, where: str = "script") -> "ScriptedBehavior":
        """Parse a script: a JSON array of steps, each a thought plus
        exactly one of an action or a final answer."""
        parsed = _each(_expect("array", steps, where), where, None, _parse_step)
        return _build(cls, where, None, steps=parsed)

    @classmethod
    def replaying(cls, case: TestCase) -> "ScriptedBehavior":
        """The script that reproduces the case's own oracle trajectory."""
        steps = [
            AgentStep(
                thought=f"Call {inv.tool_name} as the task requires.",
                invocation=ObservedInvocation.of(inv.tool_name, dict(inv.arguments)),
            )
            for inv in case.oracle
        ]
        steps.append(AgentStep(thought="The task is complete.", final_answer="Done."))
        return cls(steps=tuple(steps))


class ReplayDriver:
    """Deterministic driver that emits a ScriptedBehavior step by step.

    The step index is the number of prior invocations in the context, so
    the driver itself is stateless.
    """

    driver_id = "replay"

    def __init__(self, script: ScriptedBehavior) -> None:
        self.script = script

    def next_step(self, ctx: AgentContext) -> AgentStep:
        index = min(len(ctx.history), len(self.script.steps) - 1)
        return self.script.steps[index]


def render_function_declarations(tools: list[ToolDocument] | tuple[ToolDocument, ...]) -> str:
    """Render tool documents losslessly for inclusion in a prompt.

    Perturbed fields pass through verbatim; a corrupted type or a blanked
    description must reach the model exactly as corrupted.
    """
    return json.dumps([tool_to_json(t) for t in tools], indent=2, ensure_ascii=False)


@dataclass(frozen=True)
class EndpointConfig:
    """Connection settings for the chat-completions driver."""

    base_url: str
    model: str
    temperature: float = 0.0
    rate_per_minute: float = 60.0
    credential_env: str = "OPENAI_API_KEY"
    timeout_s: float = 60.0
    max_retries: int = 4
    backoff_base_s: float = 1.0

    def __post_init__(self) -> None:
        # A JSON config may hold NaN, which fails every comparison, and
        # Infinity, which only the finiteness check catches.
        for name in ("temperature", "rate_per_minute", "max_retries", "backoff_base_s", "timeout_s"):
            value, positive = getattr(self, name), name == "timeout_s"
            if not (value > 0 if positive else value >= 0):
                bound = "greater than 0" if positive else "at least 0"
                raise SchemaViolation(f"{name} must be {bound}, got {value}", field=name)
            if isinstance(value, float) and not math.isfinite(value):
                raise SchemaViolation(f"{name} must be finite, got {value}", field=name)

    @classmethod
    def from_json(cls, obj: dict[str, object]) -> "EndpointConfig":
        """Read the config file's endpoint object. Each known key must hold
        the JSON type of its field; unknown keys are ignored."""
        known = {
            key: _expect(jtype, obj[key], f"config.endpoint.{key}")
            for key, jtype, _ in json_keys(cls)
            if key in obj
        }
        if "base_url" not in known or "model" not in known:
            raise SchemaViolation("endpoint config needs base_url and model")
        return _build(cls, "config.endpoint", None, **known)


class _RateLimiter:
    """Serializes calls so at most rate_per_minute go out per minute."""

    def __init__(self, rate_per_minute: float) -> None:
        self.interval = 60.0 / rate_per_minute if rate_per_minute > 0 else 0.0
        self._lock = threading.Lock()
        self._next_allowed = 0.0

    def wait(self) -> None:
        if self.interval <= 0:
            return
        with self._lock:
            now = time.monotonic()
            delay = self._next_allowed - now
            self._next_allowed = max(now, self._next_allowed) + self.interval
        if delay > 0:
            time.sleep(delay)


def _requests_transport(
    url: str, headers: dict[str, str], payload: dict[str, object], timeout: float
) -> tuple[int, object]:
    import requests

    try:
        response = requests.post(url, headers=headers, json=payload, timeout=timeout)
    except requests.RequestException as exc:
        raise TransportError(f"request to {url} failed: {exc}") from exc
    try:
        body = response.json()
    except ValueError:
        body = response.text
    return response.status_code, body


_ACTION_LINE = re.compile(r"^[ \t]*Action:[ \t]*(.+?)[ \t]*$", re.MULTILINE)
_ACTION_INPUT = re.compile(r"^[ \t]*Action Input:[ \t]*", re.MULTILINE)
_FINAL_ANSWER = re.compile(r"^[ \t]*Final Answer:[ \t]*", re.MULTILINE)
_THOUGHT = re.compile(r"^[ \t]*Thought:[ \t]*(.*?)[ \t]*$", re.MULTILINE)
_JSON_OBJECT = re.compile(r"\{.*\}", re.DOTALL)


def parse_react_step(content: str) -> AgentStep:
    """Parse one model completion into an AgentStep, best-effort.

    Malformed action input is preserved in the invocation's raw_text with
    empty arguments rather than dropped; content with neither an action
    nor a final answer counts as a final answer.
    """
    thought_match = _THOUGHT.search(content)
    thought = thought_match.group(1) if thought_match else ""
    action_match = _ACTION_LINE.search(content)
    final_match = _FINAL_ANSWER.search(content)
    if action_match and (not final_match or action_match.start() < final_match.start()):
        tool_name = action_match.group(1).strip()
        arguments: dict[str, object] = {}
        raw_args = ""
        input_match = _ACTION_INPUT.search(content, action_match.end())
        if input_match:
            raw_args = content[input_match.end() :].strip()
            raw_args = re.split(r"^[ \t]*Observation:", raw_args, maxsplit=1, flags=re.MULTILINE)[0].strip()
            parsed = _best_effort_json(raw_args)
            if isinstance(parsed, dict):
                arguments = parsed
        return AgentStep(
            thought=thought,
            invocation=ObservedInvocation(
                tool_name=tool_name,
                arguments=arguments,
                raw_text=f"Action: {tool_name}\nAction Input: {raw_args}",
            ),
        )
    if final_match:
        return AgentStep(thought=thought, final_answer=content[final_match.end() :].strip())
    return AgentStep(thought=thought, final_answer=content.strip())


def _best_effort_json(text: str) -> object:
    try:
        return json.loads(text)
    except ValueError:
        embedded = _JSON_OBJECT.search(text)
        if embedded:
            try:
                return json.loads(embedded.group(0))
            except ValueError:
                return None
        return None


class HttpDriver:
    """Drives any chat-completions endpoint with a fixed ReAct prompt.

    One request per step. 401/403 raise AuthFailure immediately; 429 and
    5xx retry with exponential backoff until max_retries, then surface as
    RateLimited / TransportError. Safe for concurrent workers: the rate
    limiter is the only shared state.
    """

    driver_id = "http"

    def __init__(self, config: EndpointConfig, credential: str | None = None, transport=None) -> None:
        import os

        self.config = config
        self.credential = credential if credential is not None else os.environ.get(config.credential_env, "")
        self._transport = transport if transport is not None else _requests_transport
        self._limiter = _RateLimiter(config.rate_per_minute)

    def next_step(self, ctx: AgentContext) -> AgentStep:
        content = self._complete(self._messages(ctx))
        return parse_react_step(content)

    def _messages(self, ctx: AgentContext) -> list[dict[str, str]]:
        tool_names = ", ".join(t.tool_name for t in ctx.tools) or "(none)"
        system = SYSTEM_TEMPLATE.format(
            declarations=render_function_declarations(ctx.tools),
            tool_names=tool_names,
        )
        messages = [
            {"role": "system", "content": system},
            {"role": "user", "content": ctx.query},
        ]
        for thought, invocation, observation in ctx.history:
            messages.append(
                {
                    "role": "assistant",
                    "content": (
                        f"Thought: {thought}\n"
                        f"Action: {invocation.tool_name}\n"
                        f"Action Input: {canonical_json(invocation.arguments)}"
                    ),
                }
            )
            messages.append({"role": "user", "content": f"Observation: {observation}"})
        return messages

    def _complete(self, messages: list[dict[str, str]]) -> str:
        url = self.config.base_url.rstrip("/") + "/chat/completions"
        headers = {"Content-Type": "application/json"}
        if self.credential:
            headers["Authorization"] = f"Bearer {self.credential}"
        payload: dict[str, object] = {
            "model": self.config.model,
            "messages": messages,
            "temperature": self.config.temperature,
            "stop": ["Observation:"],
        }
        last_error: DriverError | None = None
        for attempt in range(self.config.max_retries + 1):
            if attempt:
                time.sleep(self.config.backoff_base_s * (2 ** (attempt - 1)))
            self._limiter.wait()
            try:
                status, body = self._transport(url, headers, payload, self.config.timeout_s)
            except TransportError as exc:
                last_error = exc
                continue
            if status in (401, 403):
                raise AuthFailure(f"endpoint rejected the credential (HTTP {status})")
            if status == 429:
                last_error = RateLimited("endpoint rate limit hit (HTTP 429)")
                continue
            if status >= 500:
                last_error = TransportError(f"endpoint failure (HTTP {status})")
                continue
            if status != 200:
                raise TransportError(f"unexpected endpoint response (HTTP {status})")
            try:
                return str(body["choices"][0]["message"]["content"])  # type: ignore[index]
            except (KeyError, IndexError, TypeError) as exc:
                raise TransportError(f"malformed completion body: {exc}") from exc
        assert last_error is not None
        raise last_error


@dataclass(frozen=True)
class TrajectoryStep(JsonRecord):
    """One executed step: the agent's output plus what it observed."""

    thought: str = ""
    invocation: ObservedInvocation | None = None
    observation: str | None = None
    final_answer: str | None = None


@dataclass(frozen=True)
class SkipNote(JsonRecord):
    """An input source the operator could not perturb, and why."""

    target: str
    reason: str
    message: str

    @classmethod
    def of(cls, target: str, exc: PerturbSkip) -> "SkipNote":
        return cls(target=target, reason=type(exc).__name__, message=str(exc))


@dataclass(frozen=True)
class Trajectory(JsonRecord):
    """The full record of one (case, operator) agent run."""

    case_id: str
    operator: str
    seed: int
    driver_id: str
    outcome: str
    perturbation_applied: bool
    steps: tuple[TrajectoryStep, ...] = ()
    perturbations: tuple[PerturbationRecord, ...] = ()
    skips: tuple[SkipNote, ...] = ()
    truncations: tuple[TruncationEvent, ...] = ()

    @property
    def invocations(self) -> list[ObservedInvocation]:
        return [step.invocation for step in self.steps if step.invocation is not None]

    @classmethod
    def from_json(cls, obj: object, where: str = "trajectory") -> "Trajectory":
        # Its own attribute, so that perfbench can trace trajectory decoding.
        return super().from_json(obj, where)


def run_case(
    case: TestCase,
    operator: str,
    driver,
    *,
    seed: int = 0,
    donors: list[ToolDocument] | None = None,
    step_limit: int = DEFAULT_STEP_LIMIT,
    max_observation_length: int = DEFAULT_MAX_OBSERVATION_LENGTH,
) -> Trajectory:
    """Run the agent over the case with one input source perturbed.

    Document and query operators apply exactly once before step 1; return
    operators apply to every observation. Tool calls are answered from
    the case's scripted returns, falling back to an error payload for
    unscripted calls. The loop ends at a final answer or the step limit.
    """
    source = SOURCE_OF_OPERATOR.get(operator)
    if source is None:
        raise SchemaViolation(f"unknown operator id {operator!r}")
    perturbations: list[PerturbationRecord] = []
    skips: list[SkipNote] = []
    tools = case.tools
    query_text = case.query.text
    applied = False
    if source == "document":
        perturbed_tools = []
        for tool in case.tools:
            try:
                perturbed, record = apply_document_operator(
                    operator, tool, seed=seed, donors=donors or []
                )
                perturbed_tools.append(perturbed)
                perturbations.append(record)
                applied = True
            except PerturbSkip as exc:
                perturbed_tools.append(tool)
                skips.append(SkipNote.of(tool.tool_name, exc))
        tools = tuple(perturbed_tools)
    elif source == "query":
        try:
            perturbed_query, record = apply_query_operator(operator, case.query)
            query_text = perturbed_query.text
            perturbations.append(record)
            applied = True
        except PerturbSkip as exc:
            skips.append(SkipNote.of("query", exc))
    steps: list[TrajectoryStep] = []
    truncations: list[TruncationEvent] = []
    outcome = "step_limit_exceeded"
    for step_index in range(step_limit):
        ctx = AgentContext(
            query=query_text,
            tools=tools,
            history=tuple(
                (s.thought, s.invocation, s.observation)
                for s in steps
                if s.invocation is not None and s.observation is not None
            ),
        )
        step = driver.next_step(ctx)
        if step.is_final:
            steps.append(TrajectoryStep(thought=step.thought, final_answer=step.final_answer))
            outcome = "answered"
            break
        invocation = step.invocation
        assert invocation is not None
        returned = case.scripted_lookup(invocation.tool_name, invocation.arguments)
        if returned is None:
            returned = ToolReturn(
                payload={
                    "error": (
                        f"no scripted return for {invocation.tool_name} with "
                        f"arguments {canonical_json(invocation.arguments)}"
                    )
                }
            )
        if source == "return":
            try:
                returned, record = apply_return_operator(operator, returned)
                perturbations.append(record)
                applied = True
            except PerturbSkip as exc:
                skips.append(SkipNote.of(f"observation[{step_index}]", exc))
        observation = returned.rendered()
        truncated, cut = truncate_observation(observation, max_observation_length)
        if cut is not None:
            truncations.append(
                TruncationEvent(
                    step_index=step_index,
                    original_length=len(observation),
                    truncated_length=cut,
                )
            )
        steps.append(
            TrajectoryStep(
                thought=step.thought,
                invocation=invocation,
                observation=truncated,
            )
        )
    return Trajectory(
        case_id=case.case_id,
        operator=operator,
        seed=seed,
        driver_id=getattr(driver, "driver_id", "unknown"),
        outcome=outcome,
        perturbation_applied=applied,
        steps=tuple(steps),
        perturbations=tuple(perturbations),
        skips=tuple(skips),
        truncations=tuple(truncations),
    )
