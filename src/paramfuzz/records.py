"""One codec for every JSON record paramfuzz reads or writes: the corpus,
the script book, the run config file and the campaign log.

A record class is a dataclass that subclasses JsonRecord. Its key table
(json_keys) comes from its fields, in order: a str, int, float or bool
field is a string, integer, number or boolean, a tuple or frozenset an
array, a dict or a record an object, and Any any value. from_json checks
each item of a tuple[T, ...] or frozenset[T] at where.key[i], decoding it
when T is a record; the items of a fixed-length tuple, such as a
mention's span, are its record's check_json to check. A key is optional
when its field admits None, as Any does; an optional key may be absent or
null, and either way the field takes its default, or None when it has
none. to_json writes a frozenset sorted.

Where the JSON shape differs from the fields, the class declares each
difference once, as a class keyword:

    keys={"value": "return"}      the field value is stored as "return";
                                  a renamed key may be optional
    optional=("usage_examples",)  optional though the field admits no None
    omit_none=True                to_json leaves out a None value (the
                                  corpus), not writing null (the log)
    bare=("tools", ...)           located by bare key ("tools[0]"), not
                                  under the record ("cases[0].tools[0]")
    located=False                 the constructor's errors keep the field
                                  they name, not located under the record

A class may also define a classmethod check_json(values, where), which
checks what the key table let through before it is decoded and built. A
shape that only one record has, such as a tool return's one key of two,
is stated by that record's own from_json and to_json.

Every input is decoded by loads, through json_document for a whole file
and directly for each log line. Besides the decoder's own errors, loads
refuses a lone surrogate escape, which no UTF-8 writer can take back, and
nesting deeper than the decoder can follow.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import re
import sys
import types
import typing

from paramfuzz.errors import MalformedInput, SchemaViolation

# JSON type -> (decoded Python types, noun). bool is never a number here.
# The corpus's parameter types are these keys, in this order.
JSON_TYPES = {
    "string": ((str,), "a string"),
    "integer": ((int,), "an integer"),
    "number": ((int, float), "a number"),
    "boolean": ((bool,), "a boolean"),
    "array": ((list,), "a JSON array"),
    "object": ((dict,), "a JSON object"),
}

# Python type -> the JSON type it decodes from: the last type of each entry,
# so that an int is an integer and a float a number.
_JSON_TYPE_OF = {pytypes[-1]: jtype for jtype, (pytypes, _) in JSON_TYPES.items()}


def json_type_name(value: object) -> str:
    """Name the JSON type of a decoded value ("string", "integer", ...)."""
    if value is None:
        return "null"
    return _JSON_TYPE_OF.get(type(value), type(value).__name__)


def violation(field: str, complaint: str) -> SchemaViolation:
    return SchemaViolation(f"{field} {complaint}", field=field)


def expect(jtype: str, value: object, where: str):
    """Return a decoded value whose JSON type is jtype; raise naming where."""
    pytypes, noun = JSON_TYPES[jtype]
    if type(value) not in pytypes:
        raise violation(where, f"must be {noun}, got {json_type_name(value)}")
    return value


def check_record(obj: object, keys: tuple[tuple[str, str | None, bool], ...], where: str) -> dict:
    """Check one record against its key table and return it.

    keys lists (key, JSON type or None for any value, required). The record
    must be an object that has every required key and no key outside the
    table, and each key must hold its type. A null optional key counts as
    absent.
    """
    expect("object", obj, where)
    present = 0
    for key, _, required in keys:
        if key in obj:
            present += 1
        elif required:
            raise SchemaViolation(f"{where} is missing required key {key!r}", field=f"{where}.{key}")
    if present != len(obj):
        unknown = min(set(obj).difference(key for key, _, _ in keys))
        raise SchemaViolation(f"{where} has unknown key {unknown!r}", field=f"{where}.{unknown}")
    # Every logged record passes here, so a value of its type costs no call.
    for key, jtype, required in keys:
        value = obj.get(key)
        if jtype and (required or value is not None) and type(value) not in JSON_TYPES[jtype][0]:
            expect(jtype, value, f"{where}.{key}")
    return obj


def array_of(decode, value: object, where: str, into: type = tuple):
    """Check a JSON array and decode each item as decode(item, where[i]),
    into a tuple or a frozenset; decode None takes the items as they are."""
    if type(value) is not list:
        expect("array", value, where)
    if decode is None:
        return into(value)
    return into([decode(item, f"{where}[{i}]") for i, item in enumerate(value)])


def build(model, where: str, /, **values):
    """Construct a model, locating its error under the record.

    A model names its field relative to itself; the reader prefixes the
    record's location, or gives that location when the model named none.
    The helper's own parameters are positional-only so that model fields
    such as EndpointConfig.model pass through values.
    """
    try:
        return model(**values)
    except SchemaViolation as exc:
        exc.field = ".".join(part for part in (where, exc.field) if part) or None
        raise


# Annotation -> JSON type, for json_keys: a field holds the Python type of
# its JSON type, except that an array is an immutable tuple or frozenset,
# and Any is any value. A JsonRecord is an object too.
_JSON_TYPE_OF_ANNOTATION = {
    **{pytype: jtype for pytype, jtype in _JSON_TYPE_OF.items() if jtype != "array"},
    tuple: "array",
    frozenset: "array",
    typing.Any: None,
}


def _is_record(hint: object) -> bool:
    return isinstance(hint, type) and issubclass(hint, JsonRecord)


def _json_type(model: type, name: str, hint: object) -> str | None:
    if _is_record(hint):
        return "object"
    if hint not in _JSON_TYPE_OF_ANNOTATION:
        raise TypeError(f"{model.__name__}.{name}: {hint!r} has no JSON type")
    return _JSON_TYPE_OF_ANNOTATION[hint]


def _item(hint: object):
    """The item annotation of a tuple[T, ...] or frozenset[T] field; None for
    a bare or fixed-length tuple, whose shape is the record's own check."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        args = args[:1] if len(args) == 2 and args[1] is Ellipsis else ()
    return args[0] if args else None


def _item_decoder(model: type, name: str, item: object):
    """from_json's decoder for the items of a tuple or frozenset field."""
    if item is None:
        return None
    if _is_record(item):
        return item.from_json
    jtype = _json_type(model, name, item)
    return functools.partial(expect, jtype) if jtype else None


@dataclasses.dataclass(frozen=True)
class _Plan:
    keys: tuple  # json_keys; a bare key has no type, as from_json checks it where it decodes it
    decodes: tuple  # (key, decode, bare, required) for each value that from_json converts
    fills: tuple  # (key, value) for each optional key whose None means another value
    renames: tuple  # (key, field name) for each key that is not its field's name
    write: object  # to_json's body, compiled
    located: bool
    check: object


@functools.cache
def _plan(model: type) -> _Plan:
    rules = getattr(model, "json_rules", {})
    keys_of = rules.get("keys", {})
    optional, bare = rules.get("optional", ()), rules.get("bare", ())
    hints = typing.get_type_hints(model)
    keys, decodes, fills, renames, writes = [], [], [], [], []
    for field in dataclasses.fields(model):
        hint, required, name = hints[field.name], True, field.name
        if typing.get_origin(hint) in (typing.Union, types.UnionType):
            others = [arg for arg in typing.get_args(hint) if arg is not type(None)]
            if len(others) == 1:
                hint, required = others[0], False
        origin = typing.get_origin(hint) or hint
        jtype = _json_type(model, name, origin)
        # value is the Python expression whose result to_json writes.
        key, decode, attribute = keys_of.get(name, name), None, f"self.{name}"
        value = attribute
        if _is_record(origin):
            decode, value = origin.from_json, f"{attribute}.to_json()"
        elif origin in (tuple, frozenset):
            item = _item(hint)
            decode = functools.partial(array_of, _item_decoder(model, name, item), into=origin)
            if origin is frozenset:
                value = f"sorted({attribute})"
            elif _is_record(item):
                value = f"[item.to_json() for item in {attribute}]"
            else:
                value = f"list({attribute})"
        if key in bare and decode is None and jtype:
            decode = functools.partial(expect, jtype)
        required = required and jtype is not None and key not in optional
        keys.append((key, None if key in bare else jtype, required))
        if decode is not None:
            decodes.append((key, decode, key in bare, required))
        default = field.default
        if field.default_factory is not dataclasses.MISSING:
            default = field.default_factory()
        if not required and default is not None:
            fills.append((key, None if default is dataclasses.MISSING else default))
        if key != name:
            renames.append((key, name))
        if value != attribute and not required:
            value = f"None if {attribute} is None else {value}"
        writes.append((key, value, required))
    return _Plan(
        keys=tuple(keys),
        decodes=tuple(decodes),
        fills=tuple(fills),
        renames=tuple(renames),
        write=_writer(writes, rules.get("omit_none", False)),
        located=rules.get("located", True),
        check=getattr(model, "check_json", None),
    )


def _writer(writes: list, omit_none: bool):
    """to_json's body for one record class, compiled once as dataclasses
    compiles __init__: one statement per key, so writing a record costs
    what a dict written out by hand does. writes holds (key, Python
    expression of its value, required)."""
    lines = ["def write(self):", "    record = {}"]
    for key, value, required in writes:
        if omit_none and not required:
            lines += [f"    value = {value}", "    if value is not None:", f"        record[{key!r}] = value"]
        else:
            lines.append(f"    record[{key!r}] = {value}")
    namespace: dict = {}
    exec("\n".join([*lines, "    return record"]), namespace)
    return namespace["write"]


def json_keys(model: type) -> tuple[tuple[str, str | None, bool], ...]:
    """The key table of a dataclass, for check_record: one (key, JSON type
    or None for any value, required) per key, by the rules above; a bare
    key has no type. An annotation with no JSON type is a TypeError."""
    return _plan(model).keys


_RULES = ("keys", "optional", "omit_none", "bare", "located")


class JsonRecord:
    """A dataclass that is read and written as one JSON object, keyed by
    json_keys. The class keywords are the shape rules in the module
    docstring."""

    def __init_subclass__(cls, **rules) -> None:
        # object refuses any keyword that is not a rule.
        super().__init_subclass__(**{key: value for key, value in rules.items() if key not in _RULES})
        cls.json_rules = rules

    def to_json(self) -> dict[str, object]:
        return _plan(type(self)).write(self)

    @classmethod
    def from_json(cls, obj: object, where: str):
        """Decode a record, checking it against its key table. A nested
        record, or each record of a tuple, is decoded by its own from_json
        at where.key or where.key[i]; any other array becomes a tuple, or a
        frozenset for a frozenset field."""
        plan = _plan(cls)
        values = check_record(obj, plan.keys, where)
        if plan.check is not None:
            plan.check(values, where)
        if plan.decodes or plan.fills or plan.renames:
            values = dict(values)
            for key, decode, bare, required in plan.decodes:
                # The key table let a bare key's value through unchecked.
                if values.get(key) is not None or (bare and required):
                    values[key] = decode(values[key], key if bare else f"{where}.{key}")
            for key, default in plan.fills:
                if values.get(key) is None:
                    values[key] = default
            for key, name in plan.renames:
                # An absent optional key leaves its field to the default.
                if key in values:
                    values[name] = values.pop(key)
        return build(cls, where if plan.located else "", **values)


# A JSON string escape of a surrogate pair, a lone surrogate (group 1), or
# an escaped backslash, so that "\\ud800" is not read as an escape.
_SURROGATE_ESCAPE = re.compile(
    r"\\\\|\\u(?:[dD][89abAB][0-9a-fA-F]{2}\\u[dD][c-fC-F][0-9a-fA-F]{2}|([dD][89a-fA-F][0-9a-fA-F]{2}))"
)
_NESTING_TOKEN = re.compile(r'"(?:\\.|[^"\\])*"|[][{}]')


def _deepest(text: str) -> int:
    """The offset of the first bracket at the deepest nesting of text."""
    depth = deepest = offset = 0
    for match in _NESTING_TOKEN.finditer(text):
        token = match.group()
        if token in ("[", "{"):
            depth += 1
            if depth > deepest:
                deepest, offset = depth, match.start()
        elif token in ("]", "}"):
            depth -= 1
    return offset


_SPACE = re.compile(r"[ \t\n\r]*")


def loads(text: str) -> object:
    """Decode one JSON text. A lone surrogate escape, or nesting deeper than
    the decoder can follow, is a JSONDecodeError at its position. Every
    error reads alike on each Python version."""
    try:
        document = json.loads(text)
    except RecursionError:
        raise json.JSONDecodeError("arrays and objects nest too deeply", text, _deepest(text)) from None
    except json.JSONDecodeError as exc:
        # Python 3.13 names a trailing comma at the comma; 3.10 to 3.12 name
        # the token that should follow it, where that token is.
        if not exc.msg.startswith("Illegal trailing comma"):
            raise
        expected = "property name enclosed in double quotes" if exc.msg.endswith("object") else "value"
        raise json.JSONDecodeError(f"Expecting {expected}", text, _SPACE.match(text, exc.pos + 1).end()) from None
    lone = lone_surrogate(text)
    if lone is not None:
        raise json.JSONDecodeError(f"lone surrogate escape \\u{lone.group(1)}", text, lone.start())
    return document


def lone_surrogate(text: str, start: int = 0, end: int = sys.maxsize) -> re.Match | None:
    """The first lone surrogate escape in text[start:end], which must begin
    outside a string; its group 1 holds the escape's four hex digits."""
    for match in _SURROGATE_ESCAPE.finditer(text, start, end):
        if match.group(1):
            return match
    return None


def utf8(raw: bytes, what: str) -> str:
    """Decode UTF-8 bytes; a failure is MalformedInput naming what and the
    byte offset."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedInput(
            f"{what} is not valid UTF-8 at byte {exc.start}: {exc.reason}", byte_offset=exc.start
        ) from exc


def json_document(raw: bytes | str, what: str) -> object:
    """Decode one UTF-8 JSON document. An encoding or JSON failure is
    MalformedInput naming what and the byte offset."""
    text = utf8(bytes(raw), what) if isinstance(raw, (bytes, bytearray)) else raw
    try:
        return loads(text)
    except json.JSONDecodeError as exc:
        byte_offset = len(text[: exc.pos].encode("utf-8", "surrogatepass"))
        raise MalformedInput(
            f"{what} is not valid JSON at byte {byte_offset}: {exc.msg}",
            byte_offset=byte_offset,
        ) from exc
