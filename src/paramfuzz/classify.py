"""Differential classification of observed tool invocations.

Every invocation an agent emits is compared against the tool document and
the case's reference invocation (the oracle), producing a FailureLabel
over five independent categories:

    task_deviation          a shared argument's value differs from the oracle
    specification_mismatch  an in-schema value violates its parameter spec
    hallucination_name      an argument name the tool does not declare
    missing_information     a needed parameter was not filled
    redundant_information   an in-schema argument the oracle never passes

classify_invocation judges each argument once, in key order:

- an undeclared name is a hallucination only: never redundancy or a spec
  mismatch, and never a deviation, as a corpus oracle passes only
  declared names;
- a declared name is checked against its spec, and, against the oracle,
  is redundant when the oracle does not pass it and a task deviation when
  the oracle passes an unequal value; so a declared argument can raise
  spec mismatch together with task deviation (a wrong-typed oracle value)
  or together with redundancy;
- after the arguments, each needed parameter the call leaves out is
  missing, in name order.

Every true flag carries evidence entries {param_name, observed, expected,
rule}, listed in key order whichever caller passes the arguments.

A Rouge-L score over the canonicalized argument maps is attached whenever
task deviation or specification mismatch fires, for threshold reporting.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from paramfuzz.corpus import (
    OracleInvocation,
    ToolDocument,
    canonical_json,
    values_equal,
    violations_against_spec,
)
from paramfuzz.errors import SchemaViolation, ToolMismatch
from paramfuzz.records import JsonRecord, build, check_record, json_keys, violation

CLASSIFIER_VERSION = "1.0"

CATEGORIES = (
    "task_deviation",
    "specification_mismatch",
    "hallucination_name",
    "missing_information",
    "redundant_information",
)

CATEGORY_TITLES = {
    "task_deviation": "Task Deviation",
    "specification_mismatch": "Specification Mismatch",
    "hallucination_name": "Hallucination Name",
    "missing_information": "Missing Information",
    "redundant_information": "Redundant Information",
}

_TOKEN = re.compile(r"[^\W_]+")


def tokenize(text: str) -> list[str]:
    """Lowercase and split on whitespace/punctuation, dropping both."""
    return _TOKEN.findall(text.lower())


def _lcs_length(a: list[str], b: list[str]) -> int:
    if not a or not b:
        return 0
    previous = [0] * (len(b) + 1)
    for token in a:
        current = [0]
        for j, other in enumerate(b):
            if token == other:
                current.append(previous[j] + 1)
            else:
                current.append(max(previous[j + 1], current[j]))
        previous = current
    return previous[len(b)]


def rouge_l(candidate: list[str], reference: list[str]) -> float:
    """Rouge-L F1 over the longest common subsequence of two token lists.

    F = 2·LCS/(|candidate|+|reference|), which is 2PR/(P+R) for
    P = LCS/|candidate| and R = LCS/|reference|; zero whenever the LCS is
    empty, one only for identical non-empty sequences. One division of two
    integers, so the float is the correctly rounded value of F.
    """
    lcs = _lcs_length(candidate, reference)
    if lcs == 0:
        return 0.0
    return 2 * lcs / (len(candidate) + len(reference))


@dataclass(frozen=True)
class ObservedInvocation(JsonRecord):
    """One tool call as the agent actually emitted it."""

    tool_name: str
    arguments: dict[str, object]
    raw_text: str = ""

    @classmethod
    def of(cls, tool_name: str, arguments: dict[str, object]) -> "ObservedInvocation":
        return cls(
            tool_name=tool_name,
            arguments=arguments,
            raw_text=f"{tool_name}({canonical_json(arguments)})",
        )


@dataclass(frozen=True)
class FailureLabel(JsonRecord):
    """The five category flags plus per-flag evidence and Rouge-L scores."""

    task_deviation: bool = False
    specification_mismatch: bool = False
    hallucination_name: bool = False
    missing_information: bool = False
    redundant_information: bool = False
    evidence: dict[str, list[dict[str, object]]] = field(default_factory=dict)
    rouge_td: float | None = None
    rouge_sm: float | None = None

    def __post_init__(self) -> None:
        for category in CATEGORIES:
            flagged = getattr(self, category)
            entries = self.evidence.get(category, [])
            if flagged and not entries:
                raise SchemaViolation(f"flag {category} is set without evidence", field="evidence")
            if not flagged and entries:
                raise SchemaViolation(f"evidence present for unset flag {category}", field="evidence")

    @property
    def passed(self) -> bool:
        return not any(getattr(self, category) for category in CATEGORIES)

    def flagged_categories(self) -> tuple[str, ...]:
        return tuple(c for c in CATEGORIES if getattr(self, c))

    def to_json(self) -> dict[str, object]:
        return {**super().to_json(), "passed": self.passed}

    @classmethod
    def from_json(cls, obj: object, where: str = "label") -> "FailureLabel":
        """Decode a label, checking it and its evidence against their key tables."""
        obj = check_record(obj, json_keys(cls) + (("passed", "boolean", True),), where)
        evidence = check_record(obj["evidence"], _EVIDENCE_KEYS, f"{where}.evidence")
        evidence = {category: entries for category, entries in evidence.items() if entries is not None}
        for category, entries in evidence.items():
            for i, entry in enumerate(entries):
                check_record(entry, _EVIDENCE_ENTRY_KEYS, f"{where}.evidence.{category}[{i}]")
        # "passed" is derived from the flags, so it is checked against them but not passed on.
        values = {key: value for key, value in obj.items() if key != "passed"}
        label = build(cls, where, **{**values, "evidence": evidence})
        if obj["passed"] != label.passed:
            raise violation(f"{where}.passed", f"must be {str(label.passed).lower()}, as the flags say")
        return label


_EVIDENCE_KEYS = tuple((category, "array", False) for category in CATEGORIES)
# _entry writes these.
_EVIDENCE_ENTRY_KEYS = (
    ("param_name", "string", False),
    ("observed", None, False),
    ("expected", "string", True),
    ("rule", "string", True),
)


def _entry(param_name: str | None, observed: object, expected: str, rule: str) -> dict[str, object]:
    return {
        "param_name": param_name,
        "observed": observed,
        "expected": expected,
        "rule": rule,
    }


def classify_invocation(
    obs: ObservedInvocation, oracle: OracleInvocation | None, doc: ToolDocument
) -> FailureLabel:
    """Label one observed invocation in one pass over its arguments in key
    order; without an oracle only the document-grounded categories
    (hallucination, spec mismatch) can fire."""
    if obs.tool_name != doc.tool_name:
        raise ToolMismatch(
            f"invocation of {obs.tool_name!r} classified against document "
            f"for {doc.tool_name!r}"
        )
    evidence: dict[str, list[dict[str, object]]] = {category: [] for category in CATEGORIES}
    for name, value in sorted(obs.arguments.items()):
        spec = doc.param(name)
        observed = canonical_json(value)
        if spec is None:
            declared = ", ".join(p.name for p in doc.parameters) or "(none)"
            evidence["hallucination_name"].append(
                _entry(name, observed, f"one of the declared parameters: {declared}", "unknown_parameter")
            )
        else:
            for rule, detail in violations_against_spec(spec, value):
                evidence["specification_mismatch"].append(_entry(name, observed, detail, rule))
        if oracle is None:
            continue
        if name not in oracle.arguments:
            if spec is not None:
                evidence["redundant_information"].append(
                    _entry(name, observed, "omitted; the reference invocation does not pass it", "not_in_oracle")
                )
        elif not values_equal(value, oracle.arguments[name]):
            expected = canonical_json(oracle.arguments[name])
            evidence["task_deviation"].append(_entry(name, observed, expected, "value_deviation"))
    if oracle is not None:
        for name in sorted(oracle.needed_params.difference(obs.arguments)):
            spec = doc.param(name)
            rule = "schema_required_missing" if spec is not None and spec.required else "task_needed_missing"
            expected = canonical_json(oracle.arguments[name]) if name in oracle.arguments else "a filled value"
            evidence["missing_information"].append(_entry(name, None, expected, rule))
    flags = {category: bool(entries) for category, entries in evidence.items()}
    td, sm = flags["task_deviation"], flags["specification_mismatch"]
    score = None
    if oracle is not None and (td or sm):
        score = rouge_l(tokenize(canonical_json(obs.arguments)), tokenize(canonical_json(oracle.arguments)))
    return FailureLabel(
        **flags,
        evidence={category: entries for category, entries in evidence.items() if entries},
        rouge_td=score if td else None,
        rouge_sm=score if sm else None,
    )


@dataclass(frozen=True)
class AlignedLabel(JsonRecord):
    """One classification outcome with its alignment provenance.

    ``observed_index`` is None for synthesized labels covering oracle
    invocations the agent never attempted; ``oracle_index`` is None for
    observed calls with no oracle counterpart.
    """

    label: FailureLabel
    observed_index: int | None
    oracle_index: int | None


@dataclass(frozen=True)
class TrajectoryClassification:
    """All labels for one trajectory plus the case-level verdict."""

    aligned: tuple[AlignedLabel, ...]
    case_pass: bool


def _sole_flag(category: str, observed: object, expected: str, rule: str) -> FailureLabel:
    """A label that sets one category, on one evidence entry naming no parameter."""
    return FailureLabel(**{category: True}, evidence={category: [_entry(None, observed, expected, rule)]})


def classify_trajectory(
    trajectory: list[ObservedInvocation] | tuple[ObservedInvocation, ...],
    oracle: list[OracleInvocation],
    tools: list[ToolDocument],
) -> TrajectoryClassification:
    """Label every observed invocation against the aligned oracle step.

    Alignment is by tool name in order of occurrence: the k-th observed
    call of a tool matches the k-th oracle invocation of that tool, and
    calls beyond the oracle's count match its last invocation (retries).
    A call to an unknown tool is a tool-level hallucination. Oracle
    invocations never attempted each yield a synthesized missing
    information label, so the case cannot pass on silence.
    """
    docs = {tool.tool_name: tool for tool in tools}
    oracle_by_tool: dict[str, list[int]] = {}
    for index, invocation in enumerate(oracle):
        oracle_by_tool.setdefault(invocation.tool_name, []).append(index)
    seen_count: dict[str, int] = {}
    attempted: set[int] = set()
    aligned: list[AlignedLabel] = []
    for obs_index, obs in enumerate(trajectory):
        doc = docs.get(obs.tool_name)
        indices = oracle_by_tool.get(obs.tool_name, [])
        if doc is None:
            known = ", ".join(sorted(docs)) or "(none)"
            expected = f"one of the case's tools: {known}"
            label = _sole_flag("hallucination_name", obs.tool_name, expected, "unknown_tool")
            oracle_index = None
        elif indices:
            ordinal = seen_count.get(obs.tool_name, 0)
            seen_count[obs.tool_name] = ordinal + 1
            oracle_index = indices[min(ordinal, len(indices) - 1)]
            attempted.add(oracle_index)
            label = classify_invocation(obs, oracle[oracle_index], doc)
        else:
            label, oracle_index = classify_invocation(obs, None, doc), None
        aligned.append(AlignedLabel(label=label, observed_index=obs_index, oracle_index=oracle_index))
    for oracle_index, invocation in enumerate(oracle):
        if oracle_index in attempted:
            continue
        needed = ", ".join(sorted(invocation.needed_params)) or "its parameters"
        expected = f"an invocation of {invocation.tool_name!r} filling {needed}"
        label = _sole_flag("missing_information", None, expected, "invocation_not_attempted")
        aligned.append(AlignedLabel(label=label, observed_index=None, oracle_index=oracle_index))
    case_pass = all(item.label.passed for item in aligned)
    return TrajectoryClassification(aligned=tuple(aligned), case_pass=case_pass)
