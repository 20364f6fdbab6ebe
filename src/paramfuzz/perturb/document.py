"""Tool-document perturbations.

Six operators corrupt what the tool document tells the agent about its
parameters, without ever breaking document syntax:

    RD  remove_required_descriptions   blank every required description
    RE  remove_examples                erase usage and parameter examples
    WD  substitute_foreign_descriptions  graft descriptions from other tools
    SD  swap_descriptions              exchange one pair of descriptions
    CO  shuffle_descriptions           permute all descriptions (never identity)
    WT  corrupt_types                  remap every declared type

All are pure; WD and CO draw their randomness from an explicit seed.
Operators that find nothing to perturb raise a typed PerturbSkip so a
campaign can keep its failure-rate denominators honest.
"""

from __future__ import annotations

import dataclasses
import random

from paramfuzz.corpus import ParameterSpec, ToolDocument
from paramfuzz.errors import (
    NoDistinctPair,
    NoDonor,
    NoExamples,
    NoRequiredParams,
    TooFewParams,
)
from paramfuzz.perturb.base import PerturbationRecord

TYPE_SUBSTITUTION = {
    "string": "integer",
    "integer": "boolean",
    "number": "string",
    "boolean": "array",
    "array": "object",
    "object": "string",
}


def remove_required_descriptions(doc: ToolDocument) -> tuple[ToolDocument, PerturbationRecord]:
    """Blank the description of every required parameter (RD)."""
    targets = [p.name for p in doc.parameters if p.required]
    if not targets:
        raise NoRequiredParams(
            f"tool {doc.tool_name!r} has no required parameters to strip"
        )
    parameters = tuple(
        dataclasses.replace(p, description="") if p.required else p
        for p in doc.parameters
    )
    record = PerturbationRecord(operator="RD", details={"blanked": targets})
    return dataclasses.replace(doc, parameters=parameters), record


def remove_examples(doc: ToolDocument) -> tuple[ToolDocument, PerturbationRecord]:
    """Erase every usage example and parameter example (RE)."""
    param_targets = [p.name for p in doc.parameters if p.has_example]
    if not doc.usage_examples and not param_targets:
        raise NoExamples(f"tool {doc.tool_name!r} carries no examples to erase")
    parameters = tuple(
        dataclasses.replace(p, example=None, has_example=False) if p.has_example else p
        for p in doc.parameters
    )
    record = PerturbationRecord(
        operator="RE",
        details={
            "erased_usage_examples": len(doc.usage_examples),
            "erased_param_examples": param_targets,
        },
    )
    return dataclasses.replace(doc, parameters=parameters, usage_examples=()), record


def substitute_foreign_descriptions(
    doc: ToolDocument, donors: list[ToolDocument], seed: int
) -> tuple[ToolDocument, PerturbationRecord]:
    """Replace every parameter description with one from another tool (WD).

    The donor pool is every non-empty parameter description belonging to a
    tool with a different name. Assignment is a seeded shuffle, cycling
    when the target has more parameters than the pool. A description is
    never knowingly mapped to itself; when the pool forces that collision
    it happens anyway and is reported in the record.
    """
    if not doc.parameters:
        record = PerturbationRecord(
            operator="WD", seed=seed, details={"assignments": [], "collisions": []}
        )
        return doc, record
    pool = [
        (donor.tool_name, p.name, p.description)
        for donor in donors
        if donor.tool_name != doc.tool_name
        for p in donor.parameters
        if p.description
    ]
    if not pool:
        raise NoDonor(
            f"no foreign parameter descriptions available for {doc.tool_name!r}"
        )
    shuffled = list(pool)
    random.Random(seed).shuffle(shuffled)
    assignments: list[dict[str, str]] = []
    collisions: list[str] = []
    parameters: list[ParameterSpec] = []
    for index, param in enumerate(doc.parameters):
        chosen = None
        for probe in range(len(shuffled)):
            candidate = shuffled[(index + probe) % len(shuffled)]
            if candidate[2] != param.description:
                chosen = candidate
                break
        if chosen is None:
            chosen = shuffled[index % len(shuffled)]
            collisions.append(param.name)
        donor_tool, donor_param, donor_description = chosen
        assignments.append(
            {"param": param.name, "donor_tool": donor_tool, "donor_param": donor_param}
        )
        parameters.append(dataclasses.replace(param, description=donor_description))
    record = PerturbationRecord(
        operator="WD",
        seed=seed,
        details={"assignments": assignments, "collisions": collisions},
    )
    return dataclasses.replace(doc, parameters=tuple(parameters)), record


def swap_descriptions(doc: ToolDocument) -> tuple[ToolDocument, PerturbationRecord]:
    """Exchange the descriptions of one pair of parameters (SD): the first
    index pair (in (i, j) order, i < j) whose descriptions differ."""
    count = len(doc.parameters)
    if count < 2:
        raise TooFewParams(
            f"tool {doc.tool_name!r} has {count} parameter(s); swapping needs two"
        )
    pair = _first_differing_pair(doc)
    if pair is None:
        raise NoDistinctPair(
            f"every parameter of {doc.tool_name!r} shares one description; "
            "swapping would change nothing"
        )
    i, j = pair
    parameters = list(doc.parameters)
    parameters[i] = dataclasses.replace(
        doc.parameters[i], description=doc.parameters[j].description
    )
    parameters[j] = dataclasses.replace(
        doc.parameters[j], description=doc.parameters[i].description
    )
    record = PerturbationRecord(
        operator="SD",
        details={
            "pair": [i, j],
            "params": [doc.parameters[i].name, doc.parameters[j].name],
        },
    )
    return dataclasses.replace(doc, parameters=tuple(parameters)), record


def _first_differing_pair(doc: ToolDocument) -> tuple[int, int] | None:
    for i in range(len(doc.parameters)):
        for j in range(i + 1, len(doc.parameters)):
            if doc.parameters[i].description != doc.parameters[j].description:
                return (i, j)
    return None


def shuffle_descriptions(
    doc: ToolDocument, seed: int
) -> tuple[ToolDocument, PerturbationRecord]:
    """Reassign all descriptions by a seeded non-identity permutation (CO).

    Parameter names keep their positions; description k moves to position
    i whenever permutation[i] == k. The identity draw is rejected and
    redrawn so the operator always perturbs.
    """
    count = len(doc.parameters)
    if count < 2:
        raise TooFewParams(
            f"tool {doc.tool_name!r} has {count} parameter(s); shuffling needs two"
        )
    rng = random.Random(seed)
    identity = list(range(count))
    permutation = identity[:]
    while permutation == identity:
        rng.shuffle(permutation)
    parameters = tuple(
        dataclasses.replace(
            doc.parameters[i], description=doc.parameters[permutation[i]].description
        )
        for i in range(count)
    )
    record = PerturbationRecord(
        operator="CO", seed=seed, details={"permutation": permutation}
    )
    return dataclasses.replace(doc, parameters=parameters), record


def corrupt_types(doc: ToolDocument) -> tuple[ToolDocument, PerturbationRecord]:
    """Remap every declared parameter type to a different one (WT).

    Uses a fixed derangement of the six JSON types, so no type ever maps
    to itself and results are reproducible everywhere. A parameter-free
    document passes through unchanged.
    """
    parameters = tuple(
        dataclasses.replace(p, ptype=TYPE_SUBSTITUTION[p.ptype]) for p in doc.parameters
    )
    record = PerturbationRecord(
        operator="WT",
        details={
            "retyped": [
                {"param": p.name, "from": p.ptype, "to": TYPE_SUBSTITUTION[p.ptype]}
                for p in doc.parameters
            ]
        },
    )
    return dataclasses.replace(doc, parameters=parameters), record
