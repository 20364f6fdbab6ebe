"""User-query perturbations.

Four operators degrade the parameter information carried by the query:

    RPF remove_first_mention   excise the first annotated mention
    RPL remove_last_mention    excise the last annotated mention
    CP  complicate_mentions    rewrite each mention as a descriptive phrase
    AN  append_noise           append one distractor sentence per mention

Excision normalizes the surrounding whitespace (no doubled spaces, no
space left dangling before punctuation) and re-offsets every surviving
mention, so the output still satisfies text[span] == value_text.

CP and AN generate their text with fixed, deterministic rewrites (a
descriptive phrase and a near-miss value), so the same query always gives
the same perturbation. On a query with no mentions they leave the text as
it is, which apply_query_operator reports as a NoEffect skip; RPF and RPL
cannot run there and raise NoMentions.
"""

from __future__ import annotations

import re
from dataclasses import replace

from paramfuzz.corpus import AnnotatedQuery, Mention
from paramfuzz.errors import NoMentions
from paramfuzz.perturb.base import PerturbationRecord

_NO_SPACE_BEFORE = ".,!?;:"

_INTEGER_SHAPE = re.compile(r"[+-]?\d+")
_DECIMAL_SHAPE = re.compile(r"[+-]?\d+\.\d+")


def _complicate(value_text: str) -> str:
    return f"the value that would be written as '{value_text}'"


def _distract(value_text: str) -> str:
    """Produce a near-miss of the value: off by one, or one case flip."""
    if _INTEGER_SHAPE.fullmatch(value_text):
        candidate = str(int(value_text) + 1)
    elif _DECIMAL_SHAPE.fullmatch(value_text):
        candidate = str(float(value_text) + 1)
    else:
        lowered = value_text.lower()
        pivot = len(lowered) // 2
        candidate = lowered[:pivot] + lowered[pivot:].capitalize()
    if candidate == value_text:
        candidate = f"not {value_text}"
    return candidate


def _excise(
    query: AnnotatedQuery, index: int
) -> tuple[AnnotatedQuery, dict[str, object]]:
    """Remove mentions[index] from the text, keeping other spans intact."""
    target = query.mentions[index]
    text = query.text
    left = target.start
    floor = max(
        (m.end for m in query.mentions if m is not target and m.end <= target.start),
        default=0,
    )
    while left > floor and text[left - 1].isspace():
        left -= 1
    right = target.end
    ceiling = min(
        (m.start for m in query.mentions if m is not target and m.start >= target.end),
        default=len(text),
    )
    while right < ceiling and text[right].isspace():
        right += 1
    head, tail = text[:left], text[right:]
    joiner = " "
    if not head or not tail:
        joiner = ""
    elif head[-1].isspace() or tail[0].isspace():
        joiner = ""
    elif tail[0] in _NO_SPACE_BEFORE:
        joiner = ""
    elif left == target.start and right == target.end:
        joiner = ""
    shift = (right - left) - len(joiner)
    survivors = []
    for m in query.mentions:
        if m is target:
            continue
        if m.start >= right:
            survivors.append(replace(m, span=(m.start - shift, m.end - shift)))
        else:
            survivors.append(m)
    details = {
        "removed": {
            "span": [target.start, target.end],
            "param_name": target.param_name,
            "tool_name": target.tool_name,
            "value_text": target.value_text,
        },
        "shift": shift,
    }
    return AnnotatedQuery(text=head + joiner + tail, mentions=tuple(survivors)), details


def remove_first_mention(query: AnnotatedQuery) -> tuple[AnnotatedQuery, PerturbationRecord]:
    """Excise the first annotated parameter mention (RPF)."""
    if not query.mentions:
        raise NoMentions("query carries no annotated parameter mentions")
    out, details = _excise(query, 0)
    return out, PerturbationRecord(operator="RPF", details=details)


def remove_last_mention(query: AnnotatedQuery) -> tuple[AnnotatedQuery, PerturbationRecord]:
    """Excise the last annotated parameter mention (RPL)."""
    if not query.mentions:
        raise NoMentions("query carries no annotated parameter mentions")
    out, details = _excise(query, len(query.mentions) - 1)
    return out, PerturbationRecord(operator="RPL", details=details)


def complicate_mentions(query: AnnotatedQuery) -> tuple[AnnotatedQuery, PerturbationRecord]:
    """Rewrite every mention into a longer descriptive phrase (CP)."""
    pieces: list[str] = []
    mentions: list[Mention] = []
    replacements: list[dict[str, str]] = []
    cursor = 0
    offset = 0
    for m in query.mentions:
        replacement = _complicate(m.value_text)
        pieces.append(query.text[cursor : m.start])
        start = m.start + offset
        pieces.append(replacement)
        mentions.append(
            Mention(
                span=(start, start + len(replacement)),
                param_name=m.param_name,
                tool_name=m.tool_name,
                value_text=replacement,
            )
        )
        replacements.append(
            {"param_name": m.param_name, "original": m.value_text, "replacement": replacement}
        )
        offset += len(replacement) - (m.end - m.start)
        cursor = m.end
    pieces.append(query.text[cursor:])
    record = PerturbationRecord(
        operator="CP",
        details={"rewriter": "descriptive-phrase", "replacements": replacements},
    )
    return AnnotatedQuery(text="".join(pieces), mentions=tuple(mentions)), record


def append_noise(query: AnnotatedQuery) -> tuple[AnnotatedQuery, PerturbationRecord]:
    """Append one distractor sentence per mention after the query (AN).

    The original text and all mention annotations survive byte-for-byte;
    the appended sentences carry no annotations.
    """
    distractors: list[dict[str, str]] = []
    suffix: list[str] = []
    for m in query.mentions:
        noise = _distract(m.value_text)
        distractors.append(
            {"param_name": m.param_name, "original": m.value_text, "distractor": noise}
        )
        suffix.append(f" Unrelated note: {noise}.")
    record = PerturbationRecord(
        operator="AN",
        details={"rewriter": "near-miss", "distractors": distractors},
    )
    out = AnnotatedQuery(text=query.text + "".join(suffix), mentions=query.mentions)
    return out, record
