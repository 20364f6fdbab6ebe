"""Perturbation operators over the three parameter-information sources.

Fifteen operators, grouped by the input they corrupt:

    document  RD RE WD SD CO WT
    query     RPF RPL CP AN
    return    FK AP CK UK CF

Each application returns (perturbed value, PerturbationRecord). apply_operator
drives any operator by id through the dispatch helper of its source below,
one per source, which normalizes the per-group signatures.
"""

from __future__ import annotations

from paramfuzz.corpus import AnnotatedQuery, ToolDocument, ToolReturn
from paramfuzz.errors import SchemaViolation
from paramfuzz.perturb.base import (
    ALL_OPERATORS,
    DOCUMENT_OPERATORS,
    QUERY_OPERATORS,
    RETURN_OPERATORS,
    SOURCE_OF_OPERATOR,
    PerturbationRecord,
)
from paramfuzz.perturb.document import (
    Donor,
    corrupt_types,
    donor_pool,
    remove_examples,
    remove_required_descriptions,
    shuffle_descriptions,
    substitute_foreign_descriptions,
    swap_descriptions,
)
from paramfuzz.perturb.query import (
    append_noise,
    complicate_mentions,
    remove_first_mention,
    remove_last_mention,
)
from paramfuzz.perturb.toolreturn import (
    camel_case_keys,
    corrupt_format,
    fuzz_keys,
    prefix_id_values,
    snake_case_keys,
)

__all__ = [
    "ALL_OPERATORS",
    "DOCUMENT_OPERATORS",
    "QUERY_OPERATORS",
    "RETURN_OPERATORS",
    "SOURCE_OF_OPERATOR",
    "Donor",
    "PerturbationRecord",
    "append_noise",
    "apply_document_operator",
    "apply_operator",
    "apply_query_operator",
    "apply_return_operator",
    "camel_case_keys",
    "complicate_mentions",
    "corrupt_format",
    "corrupt_types",
    "donor_pool",
    "fuzz_keys",
    "prefix_id_values",
    "remove_examples",
    "remove_first_mention",
    "remove_last_mention",
    "remove_required_descriptions",
    "shuffle_descriptions",
    "snake_case_keys",
    "substitute_foreign_descriptions",
    "swap_descriptions",
]


def apply_document_operator(
    operator: str,
    doc: ToolDocument,
    *,
    seed: int = 0,
    donors: list[Donor] | None = None,
) -> tuple[ToolDocument, PerturbationRecord]:
    """Apply one document operator by id; donors is the donor_pool that WD
    draws from."""
    if operator == "RD":
        return remove_required_descriptions(doc)
    if operator == "RE":
        return remove_examples(doc)
    if operator == "WD":
        return substitute_foreign_descriptions(doc, donors or [], seed)
    if operator == "SD":
        return swap_descriptions(doc)
    if operator == "CO":
        return shuffle_descriptions(doc, seed)
    if operator == "WT":
        return corrupt_types(doc)
    raise SchemaViolation(f"{operator!r} is not a document operator")


def apply_query_operator(
    operator: str, query: AnnotatedQuery
) -> tuple[AnnotatedQuery, PerturbationRecord]:
    """Apply one query operator by id."""
    if operator == "RPF":
        return remove_first_mention(query)
    if operator == "RPL":
        return remove_last_mention(query)
    if operator == "CP":
        return complicate_mentions(query)
    if operator == "AN":
        return append_noise(query)
    raise SchemaViolation(f"{operator!r} is not a query operator")


def apply_return_operator(
    operator: str, ret: ToolReturn
) -> tuple[ToolReturn, PerturbationRecord]:
    """Apply one tool-return operator by id."""
    if operator == "FK":
        return fuzz_keys(ret)
    if operator == "AP":
        return prefix_id_values(ret)
    if operator == "CK":
        return camel_case_keys(ret)
    if operator == "UK":
        return snake_case_keys(ret)
    if operator == "CF":
        return corrupt_format(ret)
    raise SchemaViolation(f"{operator!r} is not a tool-return operator")


_Input = ToolDocument | AnnotatedQuery | ToolReturn


def apply_operator(
    operator: str, value: _Input, *, seed: int = 0, donors: list[Donor] | None = None
) -> tuple[_Input, PerturbationRecord]:
    """Apply any operator by id to a value of its source: a tool document,
    the query or a tool return. seed and donors reach document operators only."""
    source = SOURCE_OF_OPERATOR.get(operator)
    if source == "document":
        return apply_document_operator(operator, value, seed=seed, donors=donors)
    if source == "query":
        return apply_query_operator(operator, value)
    if source == "return":
        return apply_return_operator(operator, value)
    raise SchemaViolation(f"unknown operator id {operator!r}")
