"""Perturbation operators over the three parameter-information sources.

Fifteen operators, grouped by the input they corrupt:

    document  RD RE WD SD CO WT
    query     RPF RPL CP AN
    return    FK AP CK UK CF

Each application returns (perturbed value, PerturbationRecord). apply_operator
drives any operator by id through the dispatch helper of its source below,
one per source, which normalizes the per-group signatures. Each helper ends
with the one rule that decides whether an operator applied: a result the
agent would see exactly as it sees the input is a NoEffect skip.
"""

from __future__ import annotations

from paramfuzz.corpus import AnnotatedQuery, ToolDocument, ToolReturn
from paramfuzz.errors import NoEffect, SchemaViolation
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


def _seen_changed(operator: str, value, result: tuple, seen) -> tuple:
    """Return the operator's (value, record) result, or raise NoEffect when
    the agent would see its value exactly as it sees the input; seen gives
    what the agent sees of a value."""
    if seen(result[0]) == seen(value):
        raise NoEffect(f"{operator} changes nothing the agent sees")
    return result


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
        result = remove_required_descriptions(doc)
    elif operator == "RE":
        result = remove_examples(doc)
    elif operator == "WD":
        result = substitute_foreign_descriptions(doc, donors or [], seed)
    elif operator == "SD":
        result = swap_descriptions(doc)
    elif operator == "CO":
        result = shuffle_descriptions(doc, seed)
    elif operator == "WT":
        result = corrupt_types(doc)
    else:
        raise SchemaViolation(f"{operator!r} is not a document operator")
    # Operators write only strings, None and type names into a document, so
    # two documents are equal exactly when they render alike.
    return _seen_changed(operator, doc, result, lambda tool: tool)


def apply_query_operator(
    operator: str, query: AnnotatedQuery
) -> tuple[AnnotatedQuery, PerturbationRecord]:
    """Apply one query operator by id."""
    if operator == "RPF":
        result = remove_first_mention(query)
    elif operator == "RPL":
        result = remove_last_mention(query)
    elif operator == "CP":
        result = complicate_mentions(query)
    elif operator == "AN":
        result = append_noise(query)
    else:
        raise SchemaViolation(f"{operator!r} is not a query operator")
    return _seen_changed(operator, query, result, lambda query: query.text)


def apply_return_operator(
    operator: str, ret: ToolReturn
) -> tuple[ToolReturn, PerturbationRecord]:
    """Apply one tool-return operator by id. The return is compared before
    any truncation of the observation."""
    if operator == "FK":
        result = fuzz_keys(ret)
    elif operator == "AP":
        result = prefix_id_values(ret)
    elif operator == "CK":
        result = camel_case_keys(ret)
    elif operator == "UK":
        result = snake_case_keys(ret)
    elif operator == "CF":
        result = corrupt_format(ret)
    else:
        raise SchemaViolation(f"{operator!r} is not a tool-return operator")
    return _seen_changed(operator, ret, result, ToolReturn.rendered)


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
