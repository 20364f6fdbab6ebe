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
An operator that finds nothing to perturb returns the document unchanged,
and apply_document_operator turns that into a NoEffect skip, so a
campaign can keep its failure-rate denominators honest. Only the checks
an operator cannot run without raise a skip of their own: WD's NoDonor
and CO's TooFewParams.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import random

from paramfuzz.corpus import ParameterSpec, ToolDocument
from paramfuzz.errors import NoDonor, TooFewParams
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
    parameters = tuple(
        dataclasses.replace(p, description="") if p.required else p
        for p in doc.parameters
    )
    record = PerturbationRecord(operator="RD", details={"blanked": targets})
    return dataclasses.replace(doc, parameters=parameters), record


def remove_examples(doc: ToolDocument) -> tuple[ToolDocument, PerturbationRecord]:
    """Erase every usage example and parameter example (RE)."""
    param_targets = [p.name for p in doc.parameters if p.has_example]
    parameters = tuple(
        dataclasses.replace(p, example=None) if p.has_example else p
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


# One parameter description another tool can lend: (tool, parameter, text).
Donor = tuple[str, str, str]


def donor_pool(tools: list[ToolDocument]) -> list[Donor]:
    """Every non-empty parameter description of the tools, in order. A
    campaign builds it once and WD draws every tool's donors from it."""
    return [
        (tool.tool_name, p.name, p.description)
        for tool in tools
        for p in tool.parameters
        if p.description
    ]


# The tools of one WD pair share its seed and, when they describe as many
# parameters, the length of their pools, so they share one draw. One entry
# of plain ints is enough for that, and lru_cache is safe across threads.
@functools.lru_cache(maxsize=1)
def _shuffled_order(seed: int, length: int) -> tuple[int, ...]:
    """order[i] is the index of the item that random.Random(seed).shuffle
    moves to position i of any list of the length."""
    order = list(range(length))
    random.Random(seed).shuffle(order)
    return tuple(order)


def substitute_foreign_descriptions(
    doc: ToolDocument, donors: list[Donor], seed: int
) -> tuple[ToolDocument, PerturbationRecord]:
    """Replace every parameter description with one from another tool (WD).

    The donor pool is every entry of donors that belongs to a tool with a
    different name. Assignment is a seeded shuffle, cycling when the
    target has more parameters than the pool. A description is never
    knowingly mapped to itself; when the pool forces that collision it
    happens anyway and is reported in the record.

    The shuffle is random.Random(seed).shuffle of the pool. Its swaps
    depend only on the seed and the pool's length, so it is drawn once per
    (seed, pool length) as an order of positions, and the pool is read
    through that order.
    """
    pool = [donor for donor in donors if donor[0] != doc.tool_name]
    if not pool:
        raise NoDonor(
            f"no foreign parameter descriptions available for {doc.tool_name!r}"
        )
    order = _shuffled_order(seed, len(pool))
    assignments: list[dict[str, str]] = []
    collisions: list[str] = []
    parameters: list[ParameterSpec] = []
    for index, param in enumerate(doc.parameters):
        chosen = None
        for probe in range(len(pool)):
            candidate = pool[order[(index + probe) % len(pool)]]
            if candidate[2] != param.description:
                chosen = candidate
                break
        if chosen is None:
            chosen = pool[order[index % len(pool)]]
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
    index pair (in (i, j) order, i < j) whose descriptions differ. A tool
    with no such pair comes back unchanged."""
    pair = next(
        (
            (i, j)
            for i, j in itertools.combinations(range(len(doc.parameters)), 2)
            if doc.parameters[i].description != doc.parameters[j].description
        ),
        None,
    )
    if pair is None:
        return doc, PerturbationRecord(operator="SD")
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


def shuffle_descriptions(
    doc: ToolDocument, seed: int
) -> tuple[ToolDocument, PerturbationRecord]:
    """Reassign all descriptions by a seeded non-identity permutation (CO).

    Parameter names keep their positions; description k moves to position
    i whenever permutation[i] == k. The identity draw is rejected and
    redrawn, so a tool whose descriptions differ is always perturbed.
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
    to itself and results are reproducible everywhere.
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
