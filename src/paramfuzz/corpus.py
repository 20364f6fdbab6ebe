"""Corpus model: test cases, tool documents, annotated queries, oracles.

A corpus file is one UTF-8 JSON document:

    {"schema_version": 1, "cases": [ ... ]}

Every case bundles an annotated user query, the tool documents visible to
the agent, an ordered reference trajectory (the oracle), and optional
scripted returns for deterministic replay. All values are immutable after
parsing and safe to share across worker threads. Each model is a record
class of paramfuzz.records, which reads and writes it.

Span offsets are Unicode code points, never bytes.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from typing import Any

from paramfuzz.errors import SchemaViolation, SpanMismatch
from paramfuzz.records import JSON_TYPES, JsonRecord, json_document, json_type_name, lone_surrogate, utf8, violation

SCHEMA_VERSION = 1

PARAM_TYPES = tuple(JSON_TYPES)


# The deepest nesting of arrays and objects canonical_json follows. The JSON
# decoder follows about ten times as deep, less the caller's stack, which is
# more than a recursive walk at two frames per level has room for.
MAX_NESTING = 100
_TOO_DEEP = f"arrays and objects nest more than {MAX_NESTING} levels deep"


def _nests_too_deep(value: object) -> bool:
    """Whether value nests arrays and objects more than MAX_NESTING levels
    deep. It walks one level at a time, so no depth exhausts the stack."""
    level = [value]
    for _ in range(MAX_NESTING):
        level = [
            item
            for node in level
            if type(node) in (dict, list)
            for item in (node.values() if type(node) is dict else node)
        ]
        if not level:
            return False
    return any(type(node) in (dict, list) for node in level)


# json.dumps builds a new encoder on each call that passes options, which
# costs more than encoding a small value; these are built once.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode
_RENDER = json.JSONEncoder(separators=(", ", ": "), ensure_ascii=False).encode


def _canonicalize(value: object, room: int) -> object:
    # bool is a subclass of int; test it first so True never collapses to 1.
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return int(value) if value.is_integer() else value
    if isinstance(value, (list, dict)) and not room:
        raise SchemaViolation(_TOO_DEEP)
    if isinstance(value, list):
        return [_canonicalize(item, room - 1) for item in value]
    if isinstance(value, dict):
        return {str(key): _canonicalize(item, room - 1) for key, item in value.items()}
    raise SchemaViolation(f"value of type {type(value).__name__} is not a JSON value")


def canonical_json(value: object) -> str:
    """Serialize a JSON value in canonical form.

    Keys are sorted, separators are compact, and integral floats collapse
    to integers so 5 and 5.0 compare equal. Booleans stay distinct from
    numbers. A value that nests arrays and objects more than MAX_NESTING
    levels deep is a SchemaViolation.
    """
    return _CANONICAL(_canonicalize(value, MAX_NESTING))


# Types whose values are equal under canonicalization exactly when == says
# so. Not float: canonically NaN equals NaN.
_PLAIN_TYPES = frozenset((str, int, bool, type(None)))


def values_equal(a: object, b: object) -> bool:
    """Structural equality of two JSON values under canonicalization."""
    kind = type(a)
    if kind is type(b) and kind in _PLAIN_TYPES:
        return a == b
    return canonical_json(a) == canonical_json(b)


def canonical_args_hash(arguments: dict[str, object]) -> str:
    """Order-insensitive fingerprint of an argument map. TestCase indexes
    its scripted returns by canonical_json instead, which is cheaper."""
    return hashlib.sha256(canonical_json(arguments).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ParameterSpec(JsonRecord, omit_none=True):
    """One parameter slot in a tool document.

    ``ptype`` is the declared JSON type. ``enum_values``, ``format`` (a
    regex matched against the whole string value), ``range`` (inclusive
    numeric bounds) and ``example`` are optional refinements.
    """

    name: str
    ptype: str
    description: str
    required: bool
    enum_values: tuple[Any, ...] | None = None
    format: str | None = None
    range: tuple[float, float] | None = None
    example: Any = None

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise SchemaViolation("parameter name must be a non-empty string")
        if self.ptype not in PARAM_TYPES:
            raise SchemaViolation(
                f"parameter {self.name!r} has unknown ptype {self.ptype!r}"
            )
        if self.enum_values is not None and len(self.enum_values) == 0:
            raise SchemaViolation(f"parameter {self.name!r} has an empty enum")
        if self.range is not None:
            lo, hi = self.range
            if lo > hi:
                raise SchemaViolation(
                    f"parameter {self.name!r} has inverted range [{lo}, {hi}]"
                )

    @property
    def has_example(self) -> bool:
        return self.example is not None

    @classmethod
    def check_json(cls, values: dict, where: str) -> None:
        """Check what the model does not: the format is a regex, the range
        is a pair of numbers on a numeric parameter, the example and each
        enum member nest at most MAX_NESTING levels deep, and the example
        is an enum member."""
        if values.get("format") is not None:
            try:
                re.compile(values["format"])
            except re.error as exc:
                raise violation(f"{where}.format", f"is not a valid regex: {exc}") from exc
        value_range = values.get("range")
        if value_range is not None:
            if len(value_range) != 2 or not all(type(v) in JSON_TYPES["number"][0] for v in value_range):
                raise violation(f"{where}.range", "must be a [min, max] pair of numbers")
            if values["ptype"] not in ("integer", "number"):
                raise violation(
                    f"{where}.range",
                    f"is only meaningful for numeric parameters, not ptype {values['ptype']!r}",
                )
        example, enum_values = values.get("example"), values.get("enum_values")
        for i, value in enumerate((example, *(enum_values or ()))):
            if type(value) in (dict, list) and _nests_too_deep(value):
                key = f"enum_values[{i - 1}]" if i else "example"
                raise SchemaViolation(_TOO_DEEP, field=f"{where}.{key}")
        if example is not None and enum_values is not None:
            if not any(values_equal(example, member) for member in enum_values):
                raise violation(f"{where}.example", f"{canonical_json(example)} is not an enum member")


@dataclass(frozen=True)
class ToolDocument(JsonRecord, optional=("usage_examples",)):
    """A tool as documented to the agent.

    Parameter order is significant and preserved by serialization; the
    shuffle operator perturbs exactly that order.
    """

    tool_name: str
    description: str
    parameters: tuple[ParameterSpec, ...] = ()
    usage_examples: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.tool_name, str) or not self.tool_name:
            raise SchemaViolation("tool_name must be a non-empty string", field="tool_name")
        seen: set[str] = set()
        for spec in self.parameters:
            if spec.name in seen:
                raise SchemaViolation(
                    f"tool {self.tool_name!r} declares parameter {spec.name!r} more than once",
                    field="parameters",
                )
            seen.add(spec.name)

    def param(self, name: str) -> ParameterSpec | None:
        for spec in self.parameters:
            if spec.name == name:
                return spec
        return None

    @property
    def required_names(self) -> frozenset[str]:
        return frozenset(p.name for p in self.parameters if p.required)


@dataclass(frozen=True)
class Mention(JsonRecord, pair={"span": ("start", "end")}):
    """One annotated parameter-information span inside the query text."""

    start: int
    end: int
    param_name: str
    tool_name: str
    value_text: str

    def __post_init__(self) -> None:
        if self.start < 0 or self.start >= self.end:
            raise SpanMismatch(
                f"span [{self.start}, {self.end}) is empty or negative",
                span=(self.start, self.end),
            )


# Span-order errors concern the mentions as a whole and name no field.
@dataclass(frozen=True)
class AnnotatedQuery(JsonRecord, located=False):
    """The user query plus ordered, non-overlapping parameter mentions."""

    text: str
    mentions: tuple[Mention, ...] = ()

    def __post_init__(self) -> None:
        previous_end = 0
        for mention in self.mentions:
            if mention.start < previous_end:
                raise SchemaViolation(
                    f"mention span [{mention.start}, {mention.end}) overlaps or "
                    "precedes an earlier mention; spans must be sorted and disjoint"
                )
            if mention.end > len(self.text):
                raise SpanMismatch(
                    f"span [{mention.start}, {mention.end}) runs past the end "
                    f"of the query ({len(self.text)} code points)",
                    span=(mention.start, mention.end),
                )
            covered = self.text[mention.start : mention.end]
            if covered != mention.value_text:
                raise SpanMismatch(
                    f"span [{mention.start}, {mention.end}) covers {covered!r}, "
                    f"not the annotated value {mention.value_text!r}",
                    span=(mention.start, mention.end),
                )
            previous_end = mention.end


# A JSON return is held as the observation text an agent sees, rendered once
# when the return is made; its payload is decoded from that text on each
# access, so payload is a field that the instance does not hold.
@dataclass(frozen=True, init=False)
class ToolReturn(JsonRecord, exclusive=("payload", "raw_text")):
    """A tool's response: either JSON or raw unparseable text."""

    payload: Any
    raw_text: str | None

    def __init__(self, payload: Any = None, raw_text: str | None = None) -> None:
        if raw_text is not None and payload is not None:
            raise SchemaViolation("a tool return is JSON or raw text, never both")
        object.__setattr__(self, "raw_text", raw_text)
        object.__setattr__(self, "_text", _RENDER(payload) if raw_text is None else raw_text)

    def __getattr__(self, name: str) -> Any:
        if name != "payload":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        # json.loads of the rendering gives back an equal tree, a fresh one
        # each time, so a caller may change it.
        return None if self.raw_text is not None else json.loads(self._text)

    @property
    def is_json(self) -> bool:
        return self.raw_text is None

    @classmethod
    def check_json(cls, values: dict, where: str) -> None:
        """Refuse a payload nested more than MAX_NESTING levels deep, as
        arguments are refused: the return operators walk it recursively."""
        if _nests_too_deep(values.get("payload")):
            raise SchemaViolation(_TOO_DEEP, field=f"{where}.payload")

    def rendered(self) -> str:
        """The observation string an agent would actually see."""
        return self._text


@dataclass(frozen=True)
class OracleInvocation(JsonRecord):
    """One step of the reference trajectory.

    ``needed_params`` names the parameters the task genuinely requires for
    this call; it may exceed the schema-required set (an optional
    parameter can still be essential to the specific query).
    """

    tool_name: str
    arguments: dict[str, object]
    needed_params: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if not isinstance(self.tool_name, str) or not self.tool_name:
            raise SchemaViolation(
                "oracle tool_name must be a non-empty string", field="tool_name"
            )


@dataclass(frozen=True)
class ScriptedReturn(JsonRecord, keys={"value": "return"}):
    """A canned response for one exact (tool, arguments) pair."""

    tool_name: str
    arguments: dict[str, object]
    value: ToolReturn


# A case names its values by bare key ("tools[0]", "solvable"), and its own
# errors name their fields relative to the case.
@dataclass(frozen=True)
class TestCase(
    JsonRecord,
    bare=("query", "tools", "oracle", "scripted_returns", "solvable"),
    optional=("scripted_returns",),
    located=False,
):
    """The unit of campaign data: query, tools, oracle, scripted returns."""

    case_id: str
    query: AnnotatedQuery
    tools: tuple[ToolDocument, ...]
    oracle: tuple[OracleInvocation, ...]
    scripted_returns: tuple[ScriptedReturn, ...] = ()
    solvable: bool = True

    def __post_init__(self) -> None:
        if not isinstance(self.case_id, str) or not self.case_id:
            raise SchemaViolation("case_id must be a non-empty string")
        seen: set[str] = set()
        for tool in self.tools:
            if tool.tool_name in seen:
                raise SchemaViolation(
                    f"tool {tool.tool_name!r} appears twice in case {self.case_id!r}",
                    case_id=self.case_id,
                )
            seen.add(tool.tool_name)
        for position, invocation in enumerate(self.oracle):
            tool = self.tool(invocation.tool_name)
            if tool is None:
                raise SchemaViolation(
                    f"oracle step {position} calls unknown tool "
                    f"{invocation.tool_name!r}",
                    case_id=self.case_id,
                    field=f"oracle[{position}].tool_name",
                )
            for arg_name in invocation.arguments:
                if tool.param(arg_name) is None:
                    raise SchemaViolation(
                        f"oracle step {position} passes {arg_name!r}, which "
                        f"{invocation.tool_name!r} does not declare",
                        case_id=self.case_id,
                        field=f"oracle[{position}].arguments.{arg_name}",
                    )
            # Refused here rather than when replay or classification compares it.
            self._canonical(invocation.arguments, f"oracle[{position}].arguments")
        returns: dict[tuple[str, str], ToolReturn] = {}
        for position, entry in enumerate(self.scripted_returns):
            arguments = self._canonical(entry.arguments, f"scripted_returns[{position}].arguments")
            key = (entry.tool_name, arguments)
            if key in returns:
                raise SchemaViolation(
                    f"duplicate scripted return for tool {entry.tool_name!r} with "
                    "identical arguments",
                    case_id=self.case_id,
                    field="scripted_returns",
                )
            returns[key] = entry.value
        # Not a field: an index of the scripted returns that scripted_lookup reads.
        object.__setattr__(self, "_returns", returns)

    @classmethod
    def from_json(cls, obj: object, where: str) -> "TestCase":
        """Decode a case. Every error in it names the case: by its case_id,
        or by where when the case_id is not a non-empty string."""
        case_id = None
        if isinstance(obj, dict):
            raw_id = obj.get("case_id")
            case_id = raw_id if isinstance(raw_id, str) and raw_id else where
        try:
            return super().from_json(obj, where)
        except (SchemaViolation, SpanMismatch) as exc:
            exc.case_id = case_id
            raise

    def _canonical(self, value: object, field: str) -> str:
        """canonical_json of one of the case's values; a failure names it."""
        try:
            return canonical_json(value)
        except SchemaViolation as exc:
            exc.case_id, exc.field = self.case_id, field
            raise

    def tool(self, name: str) -> ToolDocument | None:
        for tool in self.tools:
            if tool.tool_name == name:
                return tool
        return None

    def scripted_lookup(self, tool_name: str, arguments: dict[str, object]) -> ToolReturn | None:
        """Find the canned return for an exact (tool, arguments) pair."""
        return self._returns.get((tool_name, canonical_json(arguments)))


@dataclass(frozen=True)
class LintFinding:
    """One advisory problem found in a case; never fatal by itself."""

    code: str
    case_id: str
    message: str


@dataclass(frozen=True)
class Corpus(JsonRecord, bare=("cases",)):
    """A corpus file: its schema version and its cases."""

    schema_version: int
    cases: tuple[TestCase, ...]

    @classmethod
    def check_json(cls, values: dict, where: str) -> None:
        if values["schema_version"] != SCHEMA_VERSION:
            raise SchemaViolation(
                f"unsupported schema_version {values['schema_version']!r}; "
                f"this reader understands {SCHEMA_VERSION}",
                field="schema_version",
            )


_DECODER = json.JSONDecoder()
_SPACE = re.compile(r"[ \t\n\r]*")


def _decoded(text: str, pos: int) -> tuple[object, int]:
    """The JSON value that starts at pos and the position after it. A lone
    surrogate escape in it is a ValueError, as loads refuses one."""
    value, end = _DECODER.raw_decode(text, pos)
    if lone_surrogate(text, pos, end) is not None:
        raise ValueError("lone surrogate escape")
    return value, end


def _past(text: str, pos: int, token: str) -> int:
    """The position after token, which must start at pos, and after the
    whitespace that follows it."""
    if not text.startswith(token, pos):
        raise ValueError(f"expected {token!r}")
    return _SPACE.match(text, pos + 1).end()


def _streamed_cases(text: str) -> tuple[TestCase, ...]:
    """The cases of a corpus text, decoded one element of the cases array
    at a time: each element's JSON tree is dropped once its case is built.

    It accepts only a text that json_document and Corpus.from_json accept,
    and gives the same cases. Anything else raises, and the caller re-reads
    the text through them, so that they report the refusal as they would."""
    fields: dict[str, object] = {}
    pos = _past(text, _SPACE.match(text).end(), "{")
    while True:
        key, pos = _decoded(text, pos)
        if type(key) is not str or key in fields:
            raise ValueError("not a new key")
        pos = _past(text, _SPACE.match(text, pos).end(), ":")
        if key == "cases" and text.startswith("[", pos):
            built: list[TestCase] = []
            pos = _SPACE.match(text, pos + 1).end()
            closed = text.startswith("]", pos)
            while not closed:
                element, pos = _decoded(text, pos)
                built.append(TestCase.from_json(element, f"cases[{len(built)}]"))
                del element
                pos = _SPACE.match(text, pos).end()
                closed = text.startswith("]", pos)
                if not closed:
                    pos = _past(text, pos, ",")
            fields[key], pos = tuple(built), pos + 1
        else:
            fields[key], pos = _decoded(text, pos)
        pos = _SPACE.match(text, pos).end()
        if text.startswith("}", pos):
            break
        pos = _past(text, pos, ",")
    cases = fields.get("cases")
    version = fields.get("schema_version")
    if len(fields) != 2 or type(cases) is not tuple or type(version) is not int or version != SCHEMA_VERSION:
        raise ValueError("not a corpus of this schema")
    if _SPACE.match(text, pos + 1).end() != len(text):
        raise ValueError("extra data")
    return cases


def parse_corpus(raw: bytes | str) -> list[TestCase]:
    """Parse corpus bytes into validated test cases.

    Raises MalformedInput (with a byte offset) for encoding or JSON
    failures, SchemaViolation for structural problems, and SpanMismatch
    when a mention span does not address its own value text.
    """
    text = utf8(raw, "corpus") if isinstance(raw, (bytes, bytearray)) else raw
    # load_corpus keeps no reference to the text, so it goes once the cases
    # are built; no more than one case's JSON tree is held at a time.
    del raw
    # Whatever the streamed reader raises, the whole-document reader reports
    # the refusal, in its own order: a JSON fault anywhere in the text comes
    # before a schema error in an earlier case, so no error of the streamed
    # reader's may escape.
    try:
        cases = _streamed_cases(text)
    except Exception:
        cases = None
    if cases is None:
        cases = Corpus.from_json(json_document(text, "corpus"), "corpus").cases
    del text
    seen_ids: set[str] = set()
    for case in cases:
        if case.case_id in seen_ids:
            raise SchemaViolation(
                f"case_id {case.case_id!r} appears more than once",
                case_id=case.case_id,
                field="case_id",
            )
        seen_ids.add(case.case_id)
    tools_by_name: dict[str, ToolDocument] = {}
    for case in cases:
        for tool in case.tools:
            known = tools_by_name.get(tool.tool_name)
            if known is None:
                tools_by_name[tool.tool_name] = tool
            elif known != tool:
                raise SchemaViolation(
                    f"tool {tool.tool_name!r} is defined twice with different "
                    "documents; a name must mean one document corpus-wide",
                    case_id=case.case_id,
                    field="tools",
                )
    return list(cases)


def load_corpus(path: str) -> list[TestCase]:
    """Read and parse a corpus file from disk. Its bytes are decoded and
    dropped before the JSON is parsed, so the file is held once, and
    parse_corpus releases the text once the cases are built."""
    with open(path, "rb") as handle:
        return parse_corpus(utf8(handle.read(), "corpus"))


def serialize_corpus(cases: list[TestCase]) -> str:
    """Serialize cases to corpus-JSON; parse(serialize(x)) == x."""
    document = Corpus(schema_version=SCHEMA_VERSION, cases=tuple(cases)).to_json()
    return json.dumps(document, indent=2, ensure_ascii=False) + "\n"


def filter_cases(cases: list[TestCase]) -> list[TestCase]:
    """Drop unsolvable cases and cases where no tool takes any parameter."""
    kept = []
    for case in cases:
        if not case.solvable:
            continue
        if not any(tool.parameters for tool in case.tools):
            continue
        kept.append(case)
    return kept


def violations_against_spec(spec: ParameterSpec, value: object) -> list[tuple[str, str]]:
    """Check one argument value against its declared parameter spec.

    Returns (rule, detail) pairs; empty means the value conforms. Rules:
    type_mismatch, enum_violation, format_violation, range_violation.
    """
    out: list[tuple[str, str]] = []
    if not _type_matches(spec.ptype, value):
        out.append(
            (
                "type_mismatch",
                f"declared {spec.ptype}, got {json_type_name(value)} "
                f"{canonical_json(value)}",
            )
        )
    if spec.enum_values is not None and not any(
        values_equal(value, member) for member in spec.enum_values
    ):
        admissible = ", ".join(canonical_json(m) for m in spec.enum_values)
        out.append(
            (
                "enum_violation",
                f"value {canonical_json(value)} is not one of [{admissible}]",
            )
        )
    if spec.format is not None and isinstance(value, str):
        if re.fullmatch(spec.format, value) is None:
            out.append(
                (
                    "format_violation",
                    f"value {value!r} does not match pattern {spec.format!r}",
                )
            )
    if spec.range is not None and type(value) in JSON_TYPES["number"][0]:
        lo, hi = spec.range
        if not (lo <= value <= hi):
            out.append(
                (
                    "range_violation",
                    f"value {canonical_json(value)} is outside [{lo}, {hi}]",
                )
            )
    return out


def _type_matches(ptype: str, value: object) -> bool:
    # The codec's type table decides, but an integral float is an integer too.
    if ptype == "integer" and type(value) is float and value.is_integer():
        return True
    return type(value) in JSON_TYPES[ptype][0]


def lint_case(case: TestCase) -> list[LintFinding]:
    """Advisory checks: annotation coverage, name clashes, oracle quality.

    The oracle must itself be failure-free; any oracle argument that
    violates its own parameter spec is reported, as is a needed_params set
    that does not square with the schema or the arguments actually passed.
    Parsing has already refused an oracle step that calls an undeclared
    tool or passes an undeclared argument.
    """
    findings: list[LintFinding] = []

    def note(code: str, message: str) -> None:
        findings.append(LintFinding(code, case.case_id, message))

    owners: dict[str, list[str]] = {}
    for tool in case.tools:
        for p in tool.parameters:
            owners.setdefault(p.name, []).append(tool.tool_name)
    for name in sorted(owners):
        tools = owners[name]
        if len(tools) > 1:
            note(
                "DuplicateParamName",
                f"parameter name {name!r} appears in several tools "
                f"({', '.join(sorted(tools))}), which reads ambiguously",
            )
    covered = {(m.tool_name, m.param_name) for m in case.query.mentions}
    for position, invocation in enumerate(case.oracle):
        for arg_name, arg_value in sorted(invocation.arguments.items()):
            literal = arg_value if isinstance(arg_value, str) else canonical_json(arg_value)
            if literal and literal in case.query.text and (invocation.tool_name, arg_name) not in covered:
                note(
                    "UncoveredMention",
                    f"oracle step {position} argument {arg_name!r} value {literal!r} "
                    "appears in the query but carries no mention annotation",
                )
    for position, invocation in enumerate(case.oracle):
        tool = case.tool(invocation.tool_name)
        for arg_name, arg_value in sorted(invocation.arguments.items()):
            for rule, detail in violations_against_spec(tool.param(arg_name), arg_value):
                note("OracleViolatesSpec", f"oracle step {position} argument {arg_name!r}: {rule}: {detail}")
        for name in sorted(invocation.needed_params - {p.name for p in tool.parameters}):
            note(
                "OracleViolatesSpec",
                f"oracle step {position} marks {name!r} as needed but "
                f"{invocation.tool_name!r} does not declare it",
            )
        for name in sorted(tool.required_names - invocation.needed_params):
            note(
                "OracleViolatesSpec",
                f"oracle step {position} omits schema-required parameter {name!r} from needed_params",
            )
        for name in sorted(invocation.needed_params - set(invocation.arguments)):
            note(
                "OracleViolatesSpec",
                f"oracle step {position} marks {name!r} as needed but does not pass it",
            )
    for i, mention in enumerate(case.query.mentions):
        tool = case.tool(mention.tool_name)
        if tool is None:
            note("DanglingMentionRef", f"mention {i} references unknown tool {mention.tool_name!r}")
        elif tool.param(mention.param_name) is None:
            note(
                "DanglingMentionRef",
                f"mention {i} references parameter {mention.param_name!r}, "
                f"which {mention.tool_name!r} does not declare",
            )
    return findings


def all_tools(cases: list[TestCase]) -> list[ToolDocument]:
    """Every distinct tool document in the corpus, first-seen order."""
    seen: set[str] = set()
    out: list[ToolDocument] = []
    for case in cases:
        for tool in case.tools:
            if tool.tool_name not in seen:
                seen.add(tool.tool_name)
                out.append(tool)
    return out
