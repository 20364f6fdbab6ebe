"""Corpus model: test cases, tool documents, annotated queries, oracles.

A corpus file is one UTF-8 JSON document:

    {"schema_version": 1, "cases": [ ... ]}

Every case bundles an annotated user query, the tool documents visible to
the agent, an ordered reference trajectory (the oracle), and optional
scripted returns for deterministic replay. All values are immutable after
parsing and safe to share across worker threads.

Span offsets are Unicode code points, never bytes.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import re
import types
import typing
from dataclasses import dataclass

from paramfuzz.errors import MalformedInput, SchemaViolation, SpanMismatch

SCHEMA_VERSION = 1

PARAM_TYPES = ("string", "integer", "number", "boolean", "array", "object")

_JSON_TYPE_NAMES = {
    str: "string",
    bool: "boolean",
    int: "integer",
    float: "number",
    list: "array",
    dict: "object",
    type(None): "null",
}


def json_type_name(value: object) -> str:
    """Name the JSON type of a decoded value ("string", "integer", ...)."""
    for pytype, name in _JSON_TYPE_NAMES.items():
        if type(value) is pytype:
            return name
    return type(value).__name__


def _canonicalize(value: object) -> object:
    # bool is a subclass of int; test it first so True never collapses to 1.
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return int(value) if value.is_integer() else value
    if isinstance(value, list):
        return [_canonicalize(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _canonicalize(item) for key, item in value.items()}
    raise SchemaViolation(f"value of type {type(value).__name__} is not a JSON value")


def canonical_json(value: object) -> str:
    """Serialize a JSON value in canonical form.

    Keys are sorted, separators are compact, and integral floats collapse
    to integers so 5 and 5.0 compare equal. Booleans stay distinct from
    numbers.
    """
    return json.dumps(
        _canonicalize(value), sort_keys=True, separators=(",", ":"), ensure_ascii=False
    )


def values_equal(a: object, b: object) -> bool:
    """Structural equality of two JSON values under canonicalization."""
    return canonical_json(a) == canonical_json(b)


def canonical_args_hash(arguments: dict[str, object]) -> str:
    """Order-insensitive fingerprint of an argument map."""
    return hashlib.sha256(canonical_json(arguments).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ParameterSpec:
    """One parameter slot in a tool document.

    ``ptype`` is the declared JSON type. ``enum_values``, ``format`` (a
    regex matched against the whole string value), ``range`` (inclusive
    numeric bounds) and ``example`` are optional refinements.
    """

    name: str
    ptype: str
    description: str
    required: bool
    enum_values: tuple[object, ...] | None = None
    format: str | None = None
    range: tuple[float, float] | None = None
    example: object = None
    has_example: bool = False

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


@dataclass(frozen=True)
class ToolDocument:
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
class Mention:
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


@dataclass(frozen=True)
class AnnotatedQuery:
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


@dataclass(frozen=True)
class ToolReturn:
    """A tool's response: either parsed JSON or raw unparseable text."""

    payload: object = None
    raw_text: str | None = None

    def __post_init__(self) -> None:
        if self.raw_text is not None and self.payload is not None:
            raise SchemaViolation("a tool return is JSON or raw text, never both")

    @property
    def is_json(self) -> bool:
        return self.raw_text is None

    def rendered(self) -> str:
        """The observation string an agent would actually see."""
        if self.raw_text is not None:
            return self.raw_text
        return json.dumps(self.payload, separators=(", ", ": "), ensure_ascii=False)


@dataclass(frozen=True)
class OracleInvocation:
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
class ScriptedReturn:
    """A canned response for one exact (tool, arguments) pair."""

    tool_name: str
    arguments: dict[str, object]
    value: ToolReturn


@dataclass(frozen=True)
class TestCase:
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

    def tool(self, name: str) -> ToolDocument | None:
        for tool in self.tools:
            if tool.tool_name == name:
                return tool
        return None

    def scripted_lookup(self, tool_name: str, arguments: dict[str, object]) -> ToolReturn | None:
        """Find the canned return for an exact (tool, arguments) pair."""
        wanted = canonical_args_hash(arguments)
        for entry in self.scripted_returns:
            if entry.tool_name == tool_name and canonical_args_hash(entry.arguments) == wanted:
                return entry.value
        return None


@dataclass(frozen=True)
class LintFinding:
    """One advisory problem found in a case; never fatal by itself."""

    code: str
    case_id: str
    message: str


# JSON type -> (decoded Python types, noun). bool is never a number here.
_JSON_TYPES = {
    "string": ((str,), "a string"),
    "boolean": ((bool,), "a boolean"),
    "integer": ((int,), "an integer"),
    "number": ((int, float), "a number"),
    "array": ((list,), "a JSON array"),
    "object": ((dict,), "a JSON object"),
}


def _violation(field: str, complaint: str, case_id: str | None) -> SchemaViolation:
    return SchemaViolation(f"{field} {complaint}", case_id=case_id, field=field)


def _expect(jtype: str, value: object, where: str, case_id: str | None = None):
    """Return a decoded value whose JSON type is jtype; raise naming where."""
    pytypes, noun = _JSON_TYPES[jtype]
    if type(value) not in pytypes:
        raise _violation(where, f"must be {noun}, got {json_type_name(value)}", case_id)
    return value


_string = functools.partial(_expect, "string")


def _record(
    obj: object,
    keys: tuple[tuple[str, str | None, bool], ...],
    where: str,
    case_id: str | None = None,
) -> dict:
    """Check one record against its key table and return it.

    keys lists (key, JSON type or None for any value, required). The record
    must be an object that has every required key and no key outside the
    table, and each key must hold its type. A null optional key counts as
    absent.
    """
    _expect("object", obj, where, case_id)
    present = 0
    for key, _, required in keys:
        if key in obj:
            present += 1
        elif required:
            raise SchemaViolation(
                f"{where} is missing required key {key!r}", case_id=case_id, field=f"{where}.{key}"
            )
    if present != len(obj):
        unknown = min(set(obj).difference(key for key, _, _ in keys))
        raise SchemaViolation(
            f"{where} has unknown key {unknown!r}", case_id=case_id, field=f"{where}.{unknown}"
        )
    # Every logged record passes here, so a value of its type costs no call.
    for key, jtype, required in keys:
        value = obj.get(key)
        if jtype and (required or value is not None) and type(value) not in _JSON_TYPES[jtype][0]:
            _expect(jtype, value, f"{where}.{key}", case_id)
    return obj


# Annotation -> JSON type, for json_keys; a JsonRecord is an object too.
_JSON_TYPE_OF_ANNOTATION = {
    str: "string",
    int: "integer",
    float: "number",
    bool: "boolean",
    tuple: "array",
    dict: "object",
}


def _is_record(hint: object) -> bool:
    return isinstance(hint, type) and issubclass(hint, JsonRecord)


def _decode_tuple(model, items: list, where: str) -> tuple:
    if model is None:
        return tuple(items)
    decode = model.from_json
    return tuple([decode(item, f"{where}[{i}]") for i, item in enumerate(items)])


@functools.cache
def _json_table(model: type) -> tuple[tuple, tuple]:
    """json_keys's table, and from_json's plan: a (field, decode) pair for
    each field whose value it converts, a nested record or a tuple."""
    hints = typing.get_type_hints(model)
    keys, plan = [], []
    for field in dataclasses.fields(model):
        hint, required = hints[field.name], True
        if typing.get_origin(hint) in (typing.Union, types.UnionType):
            others = [arg for arg in typing.get_args(hint) if arg is not type(None)]
            if len(others) == 1:
                hint, required = others[0], False
        origin = typing.get_origin(hint) or hint
        jtype = "object" if _is_record(origin) else _JSON_TYPE_OF_ANNOTATION.get(origin)
        if jtype is None:
            raise TypeError(f"{model.__name__}.{field.name}: {hint!r} has no JSON type")
        keys.append((field.name, jtype, required))
        if _is_record(origin):
            plan.append((field.name, origin.from_json))
        elif origin is tuple:
            item = (typing.get_args(hint) or (None,))[0]
            decode = functools.partial(_decode_tuple, item if _is_record(item) else None)
            plan.append((field.name, decode))
    return tuple(keys), tuple(plan)


def json_keys(model: type) -> tuple[tuple[str, str, bool], ...]:
    """The key table of a dataclass, for _record: one (field, JSON type,
    required) per field, in field order.

    str, int, float and bool are strings, integers, numbers and booleans;
    tuple[...] is an array; dict[...] and a JsonRecord are objects. A field
    is required unless its annotation admits None. Any other annotation is
    a TypeError.
    """
    return _json_table(model)[0]


# Values that a record writes as they are; a tuple becomes a list, and any
# other value is a nested record.
_PLAIN_JSON = frozenset((str, int, float, bool, type(None), dict))


def _json_value(value: object) -> object:
    kind = type(value)
    if kind in _PLAIN_JSON:
        return value
    if kind is tuple:
        return [_json_value(item) for item in value]
    return value.to_json()  # type: ignore[attr-defined]


class JsonRecord:
    """A dataclass that is logged as one JSON object, keyed by json_keys."""

    def to_json(self) -> dict[str, object]:
        record = {}
        for key, _, _ in json_keys(type(self)):
            value = getattr(self, key)
            # Every logged record passes here; most values are plain, so
            # they skip the call.
            if type(value) not in _PLAIN_JSON:
                value = _json_value(value)
            record[key] = value
        return record

    @classmethod
    def from_json(cls, obj: object, where: str):
        """Decode a record, checking it against its key table. A nested
        record, or each record of a tuple, is decoded by its own from_json
        at where.key or where.key[i]; any other array becomes a tuple."""
        keys, plan = _json_table(cls)
        values = _record(obj, keys, where)
        if plan:
            values = dict(values)
            for key, decode in plan:
                if values.get(key) is not None:
                    values[key] = decode(values[key], f"{where}.{key}")
        return _build(cls, where, None, **values)


def _each(items: list, where: str, case_id: str | None, parse) -> tuple:
    """Parse each item of a checked JSON array, located as where[i]."""
    return tuple(parse(item, f"{where}[{i}]", case_id) for i, item in enumerate(items))


def _build(model, where: str, case_id: str | None, /, **values):
    """Construct a model, tagging its error with the case.

    A model names its field relative to itself; the reader prefixes the
    record's location, or gives that location when the model named none.
    The helper's own parameters are positional-only so that model fields
    such as TestCase.case_id pass through values.
    """
    try:
        return model(**values)
    except (SchemaViolation, SpanMismatch) as exc:
        exc.case_id = case_id
        if isinstance(exc, SchemaViolation):
            exc.field = ".".join(part for part in (where, exc.field) if part) or None
        raise


# Key tables. Most keys are also the field names of the record's model.
_PARAMETER_KEYS = (
    ("name", "string", True),
    ("ptype", "string", True),
    ("description", "string", True),
    ("required", "boolean", True),
    ("enum_values", "array", False),
    ("format", "string", False),
    ("range", "array", False),
    ("example", None, False),
)
_TOOL_KEYS = (
    ("tool_name", "string", True),
    ("description", "string", True),
    ("parameters", "array", True),
    ("usage_examples", "array", False),
)
_MENTION_KEYS = (
    ("span", "array", True),
    ("param_name", "string", True),
    ("tool_name", "string", True),
    ("value_text", "string", True),
)
_QUERY_KEYS = (("text", "string", True), ("mentions", "array", True))
_ORACLE_KEYS = (
    ("tool_name", "string", True),
    ("arguments", "object", True),
    ("needed_params", "array", True),
)
_SCRIPTED_RETURN_KEYS = (
    ("tool_name", "string", True),
    ("arguments", "object", True),
    ("return", None, True),
)
# The corpus and each case name their values by bare key ("cases",
# "tools", "solvable"), so the parser checks those types itself.
_CASE_KEYS = (
    ("case_id", "string", True),
    ("query", None, True),
    ("tools", None, True),
    ("oracle", None, True),
    ("solvable", None, True),
    ("scripted_returns", None, False),
)
_CORPUS_KEYS = (("schema_version", "integer", True), ("cases", None, True))


def _parse_parameter(obj: object, where: str, case_id: str) -> ParameterSpec:
    obj = _record(obj, _PARAMETER_KEYS, where, case_id)
    if obj.get("format") is not None:
        try:
            re.compile(obj["format"])
        except re.error as exc:
            raise _violation(f"{where}.format", f"is not a valid regex: {exc}", case_id) from exc
    value_range = obj.get("range")
    if value_range is not None:
        if len(value_range) != 2 or not all(type(v) in (int, float) for v in value_range):
            raise _violation(f"{where}.range", "must be a [min, max] pair of numbers", case_id)
        if obj["ptype"] not in ("integer", "number"):
            raise _violation(
                f"{where}.range",
                f"is only meaningful for numeric parameters, not ptype {obj['ptype']!r}",
                case_id,
            )
        value_range = tuple(value_range)
    enum_values = obj.get("enum_values")
    if enum_values is not None:
        enum_values = tuple(enum_values)
    example = obj.get("example")
    if example is not None and enum_values is not None:
        if not any(values_equal(example, member) for member in enum_values):
            raise _violation(
                f"{where}.example", f"{canonical_json(example)} is not an enum member", case_id
            )
    has_example = example is not None
    return _build(
        ParameterSpec,
        where,
        case_id,
        **{**obj, "enum_values": enum_values, "range": value_range, "has_example": has_example},
    )


def _parse_tool(obj: object, where: str, case_id: str) -> ToolDocument:
    obj = _record(obj, _TOOL_KEYS, where, case_id)
    parameters = _each(obj["parameters"], f"{where}.parameters", case_id, _parse_parameter)
    examples = _each(obj.get("usage_examples") or [], f"{where}.usage_examples", case_id, _string)
    return _build(
        ToolDocument, where, case_id, **{**obj, "parameters": parameters, "usage_examples": examples}
    )


def _parse_mention(obj: object, where: str, case_id: str) -> Mention:
    obj = _record(obj, _MENTION_KEYS, where, case_id)
    span = obj["span"]
    if len(span) != 2 or not all(type(v) is int for v in span):
        raise _violation(f"{where}.span", "must be a [start, end) pair of integers", case_id)
    return _build(
        Mention,
        where,
        case_id,
        start=span[0],
        end=span[1],
        param_name=obj["param_name"],
        tool_name=obj["tool_name"],
        value_text=obj["value_text"],
    )


def _parse_query(obj: object, case_id: str) -> AnnotatedQuery:
    obj = _record(obj, _QUERY_KEYS, "query", case_id)
    mentions = _each(obj["mentions"], "query.mentions", case_id, _parse_mention)
    # Span-order errors concern the mentions as a whole and name no field.
    return _build(AnnotatedQuery, "", case_id, text=obj["text"], mentions=mentions)


def _parse_oracle_invocation(obj: object, where: str, case_id: str) -> OracleInvocation:
    obj = _record(obj, _ORACLE_KEYS, where, case_id)
    needed = _each(obj["needed_params"], f"{where}.needed_params", case_id, _string)
    return _build(OracleInvocation, where, case_id, **{**obj, "needed_params": frozenset(needed)})


def _parse_tool_return(obj: object, where: str, case_id: str) -> ToolReturn:
    _expect("object", obj, where, case_id)
    if set(obj) == {"raw_text"}:
        _expect("string", obj["raw_text"], f"{where}.raw_text", case_id)
    elif set(obj) != {"payload"}:
        raise _violation(where, "must have exactly one of the keys 'payload' or 'raw_text'", case_id)
    return _build(ToolReturn, where, case_id, **obj)


def _parse_scripted_return(obj: object, where: str, case_id: str) -> ScriptedReturn:
    obj = _record(obj, _SCRIPTED_RETURN_KEYS, where, case_id)
    value = _parse_tool_return(obj["return"], f"{where}.return", case_id)
    return _build(
        ScriptedReturn,
        where,
        case_id,
        tool_name=obj["tool_name"],
        arguments=obj["arguments"],
        value=value,
    )


def _parse_case(obj: object, index: int) -> TestCase:
    where = f"cases[{index}]"
    case_id = None
    if isinstance(obj, dict):
        raw_id = obj.get("case_id")
        case_id = raw_id if isinstance(raw_id, str) and raw_id else where
    obj = _record(obj, _CASE_KEYS, where, case_id)

    def items(key, parse):
        return _each(_expect("array", obj[key], key, case_id), key, case_id, parse)

    tools = items("tools", _parse_tool)
    oracle = items("oracle", _parse_oracle_invocation)
    scripted: tuple[ScriptedReturn, ...] = ()
    if obj.get("scripted_returns") is not None:
        scripted = items("scripted_returns", _parse_scripted_return)
    seen_scripts: set[tuple[str, str]] = set()
    for entry in scripted:
        key = (entry.tool_name, canonical_args_hash(entry.arguments))
        if key in seen_scripts:
            raise SchemaViolation(
                f"duplicate scripted return for tool {entry.tool_name!r} with "
                "identical arguments",
                case_id=case_id,
                field="scripted_returns",
            )
        seen_scripts.add(key)
    # Case-level errors name their fields relative to the case already.
    return _build(
        TestCase,
        "",
        case_id,
        case_id=obj["case_id"],
        query=_parse_query(obj["query"], case_id),
        tools=tools,
        oracle=oracle,
        scripted_returns=scripted,
        solvable=_expect("boolean", obj["solvable"], "solvable", case_id),
    )


def _json_document(raw: bytes | str, what: str) -> object:
    """Decode one UTF-8 JSON document. An encoding or JSON failure is
    MalformedInput naming what and the byte offset."""
    if isinstance(raw, (bytes, bytearray)):
        try:
            text = bytes(raw).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedInput(
                f"{what} is not valid UTF-8 at byte {exc.start}: {exc.reason}",
                byte_offset=exc.start,
            ) from exc
    else:
        text = raw
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        byte_offset = len(text[: exc.pos].encode("utf-8"))
        raise MalformedInput(
            f"{what} is not valid JSON at byte {byte_offset}: {exc.msg}",
            byte_offset=byte_offset,
        ) from exc


def parse_corpus(raw: bytes | str) -> list[TestCase]:
    """Parse corpus bytes into validated test cases.

    Raises MalformedInput (with a byte offset) for encoding or JSON
    failures, SchemaViolation for structural problems, and SpanMismatch
    when a mention span does not address its own value text.
    """
    document = _json_document(raw, "corpus")
    document = _record(document, _CORPUS_KEYS, "corpus")
    if document["schema_version"] != SCHEMA_VERSION:
        raise SchemaViolation(
            f"unsupported schema_version {document['schema_version']!r}; "
            f"this reader understands {SCHEMA_VERSION}",
            field="schema_version",
        )
    cases = [
        _parse_case(raw_case, index)
        for index, raw_case in enumerate(_expect("array", document["cases"], "cases"))
    ]
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
    return cases


def load_corpus(path: str) -> list[TestCase]:
    """Read and parse a corpus file from disk."""
    with open(path, "rb") as handle:
        return parse_corpus(handle.read())


def _parameter_to_json(spec: ParameterSpec) -> dict[str, object]:
    out: dict[str, object] = {
        "name": spec.name,
        "ptype": spec.ptype,
        "description": spec.description,
        "required": spec.required,
    }
    if spec.enum_values is not None:
        out["enum_values"] = list(spec.enum_values)
    if spec.format is not None:
        out["format"] = spec.format
    if spec.range is not None:
        out["range"] = list(spec.range)
    if spec.has_example:
        out["example"] = spec.example
    return out


def tool_to_json(tool: ToolDocument) -> dict[str, object]:
    """Convert one tool document to its corpus-JSON shape."""
    return {
        "tool_name": tool.tool_name,
        "description": tool.description,
        "parameters": [_parameter_to_json(p) for p in tool.parameters],
        "usage_examples": list(tool.usage_examples),
    }


def query_to_json(query: AnnotatedQuery) -> dict[str, object]:
    """Convert one annotated query to its corpus-JSON shape."""
    return {
        "text": query.text,
        "mentions": [
            {
                "span": [m.start, m.end],
                "param_name": m.param_name,
                "tool_name": m.tool_name,
                "value_text": m.value_text,
            }
            for m in query.mentions
        ],
    }


def return_to_json(value: ToolReturn) -> dict[str, object]:
    """Convert one tool return to its corpus-JSON shape."""
    if value.raw_text is not None:
        return {"raw_text": value.raw_text}
    return {"payload": value.payload}


def case_to_json(case: TestCase) -> dict[str, object]:
    """Convert one case back to its corpus-JSON shape."""
    return {
        "case_id": case.case_id,
        "query": query_to_json(case.query),
        "tools": [tool_to_json(t) for t in case.tools],
        "oracle": [
            {
                "tool_name": inv.tool_name,
                "arguments": inv.arguments,
                "needed_params": sorted(inv.needed_params),
            }
            for inv in case.oracle
        ],
        "scripted_returns": [
            {
                "tool_name": entry.tool_name,
                "arguments": entry.arguments,
                "return": return_to_json(entry.value),
            }
            for entry in case.scripted_returns
        ],
        "solvable": case.solvable,
    }


def serialize_corpus(cases: list[TestCase]) -> str:
    """Serialize cases to corpus-JSON; parse(serialize(x)) == x."""
    document = {
        "schema_version": SCHEMA_VERSION,
        "cases": [case_to_json(case) for case in cases],
    }
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
    if spec.range is not None and isinstance(value, (int, float)) and not isinstance(value, bool):
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
    if ptype == "string":
        return isinstance(value, str)
    if ptype == "boolean":
        return isinstance(value, bool)
    if ptype == "integer":
        if isinstance(value, bool):
            return False
        return isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if ptype == "number":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if ptype == "array":
        return isinstance(value, list)
    if ptype == "object":
        return isinstance(value, dict)
    return False


def lint_case(case: TestCase) -> list[LintFinding]:
    """Advisory checks: annotation coverage, name clashes, oracle quality.

    The oracle must itself be failure-free; any oracle argument that
    violates its own parameter spec is reported, as is a needed_params set
    that does not square with the schema or the arguments actually passed.
    """
    findings: list[LintFinding] = []
    owners: dict[str, list[str]] = {}
    for tool in case.tools:
        for p in tool.parameters:
            owners.setdefault(p.name, []).append(tool.tool_name)
    for name in sorted(owners):
        tools = owners[name]
        if len(tools) > 1:
            findings.append(
                LintFinding(
                    code="DuplicateParamName",
                    case_id=case.case_id,
                    message=(
                        f"parameter name {name!r} appears in several tools "
                        f"({', '.join(sorted(tools))}), which reads ambiguously"
                    ),
                )
            )
    covered = {(m.tool_name, m.param_name) for m in case.query.mentions}
    for position, invocation in enumerate(case.oracle):
        for arg_name, arg_value in sorted(invocation.arguments.items()):
            literal = arg_value if isinstance(arg_value, str) else canonical_json(arg_value)
            if literal and literal in case.query.text:
                if (invocation.tool_name, arg_name) not in covered:
                    findings.append(
                        LintFinding(
                            code="UncoveredMention",
                            case_id=case.case_id,
                            message=(
                                f"oracle step {position} argument {arg_name!r} value "
                                f"{literal!r} appears in the query but carries no "
                                "mention annotation"
                            ),
                        )
                    )
    for position, invocation in enumerate(case.oracle):
        tool = case.tool(invocation.tool_name)
        if tool is None:
            continue
        schema_names = {p.name for p in tool.parameters}
        for arg_name, arg_value in sorted(invocation.arguments.items()):
            spec = tool.param(arg_name)
            if spec is None:
                continue
            for rule, detail in violations_against_spec(spec, arg_value):
                findings.append(
                    LintFinding(
                        code="OracleViolatesSpec",
                        case_id=case.case_id,
                        message=(
                            f"oracle step {position} argument {arg_name!r}: "
                            f"{rule}: {detail}"
                        ),
                    )
                )
        for name in sorted(invocation.needed_params - schema_names):
            findings.append(
                LintFinding(
                    code="OracleViolatesSpec",
                    case_id=case.case_id,
                    message=(
                        f"oracle step {position} marks {name!r} as needed but "
                        f"{invocation.tool_name!r} does not declare it"
                    ),
                )
            )
        missing_required = sorted(tool.required_names - invocation.needed_params)
        for name in missing_required:
            findings.append(
                LintFinding(
                    code="OracleViolatesSpec",
                    case_id=case.case_id,
                    message=(
                        f"oracle step {position} omits schema-required parameter "
                        f"{name!r} from needed_params"
                    ),
                )
            )
        for name in sorted(invocation.needed_params - set(invocation.arguments)):
            findings.append(
                LintFinding(
                    code="OracleViolatesSpec",
                    case_id=case.case_id,
                    message=(
                        f"oracle step {position} marks {name!r} as needed but "
                        "does not pass it"
                    ),
                )
            )
    known_tools = {tool.tool_name for tool in case.tools}
    for i, mention in enumerate(case.query.mentions):
        tool = case.tool(mention.tool_name)
        if mention.tool_name not in known_tools:
            findings.append(
                LintFinding(
                    code="DanglingMentionRef",
                    case_id=case.case_id,
                    message=f"mention {i} references unknown tool {mention.tool_name!r}",
                )
            )
        elif tool is not None and tool.param(mention.param_name) is None:
            findings.append(
                LintFinding(
                    code="DanglingMentionRef",
                    case_id=case.case_id,
                    message=(
                        f"mention {i} references parameter {mention.param_name!r}, "
                        f"which {mention.tool_name!r} does not declare"
                    ),
                )
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
