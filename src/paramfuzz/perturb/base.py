"""Shared perturbation plumbing: operator ids and application records."""

from __future__ import annotations

from dataclasses import dataclass, field

from paramfuzz.corpus import JsonRecord

DOCUMENT_OPERATORS = ("RD", "RE", "WD", "SD", "CO", "WT")
QUERY_OPERATORS = ("RPF", "RPL", "CP", "AN")
RETURN_OPERATORS = ("FK", "AP", "CK", "UK", "CF")

ALL_OPERATORS = DOCUMENT_OPERATORS + QUERY_OPERATORS + RETURN_OPERATORS

SOURCE_OF_OPERATOR = {
    **{op: "document" for op in DOCUMENT_OPERATORS},
    **{op: "query" for op in QUERY_OPERATORS},
    **{op: "return" for op in RETURN_OPERATORS},
}


@dataclass(frozen=True)
class PerturbationRecord(JsonRecord):
    """What one operator application actually did, for exact replay.

    ``details`` is operator-specific JSON (the drawn permutation, the
    swapped pair, donor assignments, renamed key paths, replacement
    strings, collision warnings).
    """

    operator: str
    seed: int | None = None
    details: dict[str, object] = field(default_factory=dict)
