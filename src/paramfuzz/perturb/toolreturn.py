"""Tool-return perturbations.

Five operators degrade the parameter information an agent reads back out
of tool responses:

    FK  fuzz_keys         rename object keys to Object_1..Object_n
    AP  prefix_id_values  rewrite ID-keyed values to "ID_" + value
    CK  camel_case_keys   re-spell every key in lowerCamelCase
    UK  snake_case_keys   re-spell every key in snake_case
    CF  corrupt_format    truncate the serialized JSON into raw text

All five are deterministic and use no randomness. FK, AP, CK and UK keep
the output valid JSON and never touch leaf values outside their targets;
CF is the one operator that destroys parseability on purpose. Each needs
parsed JSON and raises NotJson on raw text. A payload with nothing to
rename or prefix comes back as it was, and apply_return_operator reports
a return that renders unchanged as a NoEffect skip.

FK, CK and UK are one key walker, _respell_keys, with a different new
name for each key; it recurses through every nested object and array,
and copies a scalar without a call. The recursive walks are module-level
functions that take their output lists as arguments: a nested function
that calls itself is a reference cycle, which would keep each walk's
records until the cyclic GC runs.
"""

from __future__ import annotations

import functools
import json
import re
from typing import Callable

from paramfuzz.corpus import ToolReturn, canonical_json
from paramfuzz.errors import NotJson
from paramfuzz.perturb.base import PerturbationRecord

KeyPath = tuple[object, ...]

_DEFAULT_ID_KEY = re.compile(r"(?i:^id$)|.*(_id|Id|ID)$")

_KEY_CHUNK = re.compile(r"[A-Z]+(?![a-z])|[A-Z][a-z]*|[a-z]+|\d+")

# The walks recurse into these alone; a payload is decoded JSON, so every
# object is a dict and every array a list.
_CONTAINERS = (dict, list)


def _require_json(ret: ToolReturn, operator: str) -> object:
    if not ret.is_json:
        raise NotJson(f"{operator} needs parsed JSON; this return is raw text")
    return ret.payload


def split_key_tokens(key: str) -> list[str]:
    """Tokenize a key on underscores, hyphens, spaces, case humps and
    letter-digit boundaries; tokens come back lowercased."""
    tokens: list[str] = []
    for chunk in re.split(r"[_\-\s]+", key):
        for match in _KEY_CHUNK.finditer(chunk):
            tokens.append(match.group(0).lower())
    return tokens


# Both respellings are pure, and payloads repeat the same few keys. The
# caches hold one entry per distinct key of the corpus's scripted returns.
@functools.cache
def to_camel_case(key: str) -> str:
    tokens = split_key_tokens(key)
    if not tokens:
        return key
    return tokens[0] + "".join(t.capitalize() for t in tokens[1:])


@functools.cache
def to_snake_case(key: str) -> str:
    tokens = split_key_tokens(key)
    if not tokens:
        return key
    return "_".join(tokens)


def fuzz_keys(ret: ToolReturn) -> tuple[ToolReturn, PerturbationRecord]:
    """Rename every object's keys to Object_1..Object_n in place order (FK).

    Numbering restarts inside each object. Values are untouched, so the
    multiset of leaf values survives exactly.
    """
    return _respell_keys(ret, "FK", lambda index, key: _object_key(index))


@functools.cache
def _object_key(index: int) -> str:
    """FK's name for the key at index: one string per index, shared by
    every payload and record that uses it."""
    return f"Object_{index + 1}"


def prefix_id_values(ret: ToolReturn) -> tuple[ToolReturn, PerturbationRecord]:
    """Rewrite every ID-keyed value to the string "ID_" + value (AP).

    A key counts as an ID when it equals "id" case-insensitively or ends
    with "_id", "Id" or "ID".
    """
    modified: list[list[object]] = []
    perturbed = _prefix_ids(_require_json(ret, "AP"), (), modified)
    record = PerturbationRecord(operator="AP", details={"modified_paths": modified})
    return ToolReturn(payload=perturbed), record


def _prefix_ids(value: object, path: KeyPath, modified: list[list[object]]) -> object:
    """value with each ID-keyed value under it prefixed; appends each
    prefixed key's path to modified."""
    if type(value) is dict:
        out = {}
        for key, item in value.items():
            if _DEFAULT_ID_KEY.fullmatch(key):
                modified.append(list(path) + [key])
                item = "ID_" + (item if isinstance(item, str) else canonical_json(item))
            elif type(item) in _CONTAINERS:
                item = _prefix_ids(item, path + (key,), modified)
            out[key] = item
        return out
    if type(value) is list:
        return [
            _prefix_ids(item, path + (i,), modified) if type(item) in _CONTAINERS else item
            for i, item in enumerate(value)
        ]
    return value


def _respell_keys(
    ret: ToolReturn, operator: str, respell: Callable[[int, str], str]
) -> tuple[ToolReturn, PerturbationRecord]:
    """Rename each key of every object to respell(index in its object, key)."""
    renames: list[dict[str, object]] = []
    collisions: list[dict[str, object]] = []
    perturbed = _respelled(_require_json(ret, operator), (), respell, renames, collisions)
    details: dict[str, object] = {"renames": renames}
    if collisions:
        details["collisions"] = collisions
    record = PerturbationRecord(operator=operator, details=details)
    return ToolReturn(payload=perturbed), record


def _respelled(
    value: object,
    path: KeyPath,
    respell: Callable[[int, str], str],
    renames: list[dict[str, object]],
    collisions: list[dict[str, object]],
) -> object:
    """value with every key under it respelled; appends each rename and
    each collision to its list. The renames and collisions of one object
    share one path list; nothing mutates a record's details."""
    if type(value) is dict:
        out = {}
        shared_path = list(path)
        for index, (key, item) in enumerate(value.items()):
            new_key = respell(index, key)
            if new_key != key:
                renames.append({"path": shared_path, "from": key, "to": new_key})
            if new_key in out:
                collisions.append({"path": shared_path, "key": new_key})
            if type(item) in _CONTAINERS:
                item = _respelled(item, path + (key,), respell, renames, collisions)
            out[new_key] = item
        return out
    if type(value) is list:
        return [
            _respelled(item, path + (i,), respell, renames, collisions) if type(item) in _CONTAINERS else item
            for i, item in enumerate(value)
        ]
    return value


def camel_case_keys(ret: ToolReturn) -> tuple[ToolReturn, PerturbationRecord]:
    """Re-spell every object key as lowerCamelCase (CK). Idempotent.

    When two keys collapse to one spelling the later key wins and the
    loss is reported as a collision in the record.
    """
    return _respell_keys(ret, "CK", lambda index, key: to_camel_case(key))


def snake_case_keys(ret: ToolReturn) -> tuple[ToolReturn, PerturbationRecord]:
    """Re-spell every object key as snake_case (UK). Idempotent."""
    return _respell_keys(ret, "UK", lambda index, key: to_snake_case(key))


def corrupt_format(ret: ToolReturn) -> tuple[ToolReturn, PerturbationRecord]:
    """Break the return's JSON syntax (CF).

    The payload is serialized compactly, its final code point dropped,
    and "..." appended; the result is raw text that no longer parses for
    any object or array payload.
    """
    payload = _require_json(ret, "CF")
    serialized = json.dumps(payload, separators=(",", ":"), ensure_ascii=False)
    corrupted = serialized[:-1] + "..."
    record = PerturbationRecord(
        operator="CF",
        details={"serialized_length": len(serialized)},
    )
    return ToolReturn(raw_text=corrupted), record
