"""Differential classification of observed tool invocations.

Every invocation an agent emits is compared against the tool document and
the case's reference invocation (the oracle), producing a FailureLabel
over five independent categories:

    task_deviation          a shared argument's value differs from the oracle
    specification_mismatch  an in-schema value violates its parameter spec
    hallucination_name      an argument name the tool does not declare
    missing_information     a needed parameter was not filled
    redundant_information   an in-schema argument the oracle never passes

The categories partition argument defects: an out-of-schema name counts
as hallucination only, never as redundancy or a spec mismatch. Every true
flag carries evidence entries {param_name, observed, expected, rule}.

A Rouge-L score over the canonicalized argument maps is attached whenever
task deviation or specification mismatch fires, for threshold reporting.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

from paramfuzz.corpus import (
    JsonRecord,
    OracleInvocation,
    ToolDocument,
    _build,
    _record,
    canonical_json,
    json_keys,
    values_equal,
    violations_against_spec,
)
from paramfuzz.errors import SchemaViolation, ToolMismatch

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

    P = LCS/|candidate|, R = LCS/|reference|, F = 2PR/(P+R); zero whenever
    the LCS is empty, one only for identical non-empty sequences.
    """
    lcs = _lcs_length(candidate, reference)
    if lcs == 0:
        return 0.0
    precision = Fraction(lcs, len(candidate))
    recall = Fraction(lcs, len(reference))
    # Exact rational arithmetic, rounded to a float exactly once, so two
    # algebraically equal formulations can never disagree in the last bit.
    return float(2 * precision * recall / (precision + recall))


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
        obj = _record(obj, json_keys(cls) + (("passed", "boolean", True),), where)
        evidence = _record(obj["evidence"], _EVIDENCE_KEYS, f"{where}.evidence")
        evidence = {category: entries for category, entries in evidence.items() if entries is not None}
        for category, entries in evidence.items():
            for i, entry in enumerate(entries):
                _record(entry, _EVIDENCE_ENTRY_KEYS, f"{where}.evidence.{category}[{i}]")
        # "passed" is derived from the flags, so it is checked but not passed on.
        values = {key: value for key, value in obj.items() if key != "passed"}
        return _build(cls, where, None, **{**values, "evidence": evidence})


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


def _check_tool(obs: ObservedInvocation, doc: ToolDocument) -> None:
    if obs.tool_name != doc.tool_name:
        raise ToolMismatch(
            f"invocation of {obs.tool_name!r} classified against document "
            f"for {doc.tool_name!r}"
        )


def detect_hallucination_name(
    obs: ObservedInvocation, doc: ToolDocument
) -> tuple[bool, list[dict[str, object]]]:
    """Flag argument names the tool does not declare (case-sensitive)."""
    _check_tool(obs, doc)
    declared = [p.name for p in doc.parameters]
    evidence = [
        _entry(
            name,
            canonical_json(value),
            "one of the declared parameters: " + (", ".join(declared) or "(none)"),
            "unknown_parameter",
        )
        for name, value in obs.arguments.items()
        if doc.param(name) is None
    ]
    return bool(evidence), evidence


def detect_missing(
    obs: ObservedInvocation, oracle: OracleInvocation, doc: ToolDocument
) -> tuple[bool, list[dict[str, object]]]:
    """Flag needed parameters the agent did not fill.

    Evidence distinguishes schema-required omissions (the invocation
    itself breaks) from task-needed omissions (results lose precision).
    """
    _check_tool(obs, doc)
    evidence = []
    for name in sorted(oracle.needed_params):
        if name in obs.arguments:
            continue
        spec = doc.param(name)
        rule = (
            "schema_required_missing"
            if spec is not None and spec.required
            else "task_needed_missing"
        )
        expected = (
            canonical_json(oracle.arguments[name])
            if name in oracle.arguments
            else "a filled value"
        )
        evidence.append(_entry(name, None, expected, rule))
    return bool(evidence), evidence


def detect_redundant(
    obs: ObservedInvocation, oracle: OracleInvocation, doc: ToolDocument
) -> tuple[bool, list[dict[str, object]]]:
    """Flag in-schema arguments the reference invocation never passes."""
    _check_tool(obs, doc)
    evidence = [
        _entry(
            name,
            canonical_json(value),
            "omitted; the reference invocation does not pass it",
            "not_in_oracle",
        )
        for name, value in obs.arguments.items()
        if doc.param(name) is not None and name not in oracle.arguments
    ]
    return bool(evidence), evidence


def detect_spec_mismatch(
    obs: ObservedInvocation, doc: ToolDocument
) -> tuple[bool, list[dict[str, object]]]:
    """Flag in-schema values that violate their own parameter spec."""
    _check_tool(obs, doc)
    evidence = []
    for name, value in obs.arguments.items():
        spec = doc.param(name)
        if spec is None:
            continue
        for rule, detail in violations_against_spec(spec, value):
            evidence.append(_entry(name, canonical_json(value), detail, rule))
    return bool(evidence), evidence


def detect_task_deviation(
    obs: ObservedInvocation, oracle: OracleInvocation
) -> tuple[bool, list[dict[str, object]]]:
    """Flag shared arguments whose values deviate from the oracle."""
    evidence = []
    for name, value in obs.arguments.items():
        if name not in oracle.arguments:
            continue
        if not values_equal(value, oracle.arguments[name]):
            evidence.append(
                _entry(
                    name,
                    canonical_json(value),
                    canonical_json(oracle.arguments[name]),
                    "value_deviation",
                )
            )
    return bool(evidence), evidence


def _arguments_rouge(obs: ObservedInvocation, oracle: OracleInvocation) -> float:
    return rouge_l(
        tokenize(canonical_json(obs.arguments)),
        tokenize(canonical_json(oracle.arguments)),
    )


def classify_invocation(
    obs: ObservedInvocation, oracle: OracleInvocation | None, doc: ToolDocument
) -> FailureLabel:
    """Run all five detectors against one observed invocation; without an
    oracle only the document-grounded detectors (hallucination, spec
    mismatch) can run."""
    hn, hn_ev = detect_hallucination_name(obs, doc)
    sm, sm_ev = detect_spec_mismatch(obs, doc)
    if oracle is not None:
        mi, mi_ev = detect_missing(obs, oracle, doc)
        ri, ri_ev = detect_redundant(obs, oracle, doc)
        td, td_ev = detect_task_deviation(obs, oracle)
    else:
        mi, mi_ev = False, []
        ri, ri_ev = False, []
        td, td_ev = False, []
    evidence: dict[str, list[dict[str, object]]] = {}
    for category, flagged, entries in (
        ("task_deviation", td, td_ev),
        ("specification_mismatch", sm, sm_ev),
        ("hallucination_name", hn, hn_ev),
        ("missing_information", mi, mi_ev),
        ("redundant_information", ri, ri_ev),
    ):
        if flagged:
            evidence[category] = entries
    score = _arguments_rouge(obs, oracle) if oracle is not None and (td or sm) else None
    return FailureLabel(
        task_deviation=td,
        specification_mismatch=sm,
        hallucination_name=hn,
        missing_information=mi,
        redundant_information=ri,
        evidence=evidence,
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


def classify_trajectory(
    trajectory: list[ObservedInvocation],
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
        if doc is None:
            known = ", ".join(sorted(docs)) or "(none)"
            label = FailureLabel(
                hallucination_name=True,
                evidence={
                    "hallucination_name": [
                        _entry(
                            None,
                            obs.tool_name,
                            f"one of the case's tools: {known}",
                            "unknown_tool",
                        )
                    ]
                },
            )
            aligned.append(AlignedLabel(label=label, observed_index=obs_index, oracle_index=None))
            continue
        ordinal = seen_count.get(obs.tool_name, 0)
        seen_count[obs.tool_name] = ordinal + 1
        indices = oracle_by_tool.get(obs.tool_name, [])
        if indices:
            oracle_index = indices[min(ordinal, len(indices) - 1)]
            attempted.add(oracle_index)
            label = classify_invocation(obs, oracle[oracle_index], doc)
            aligned.append(
                AlignedLabel(label=label, observed_index=obs_index, oracle_index=oracle_index)
            )
        else:
            label = classify_invocation(obs, None, doc)
            aligned.append(AlignedLabel(label=label, observed_index=obs_index, oracle_index=None))
    for oracle_index, invocation in enumerate(oracle):
        if oracle_index in attempted:
            continue
        label = FailureLabel(
            missing_information=True,
            evidence={
                "missing_information": [
                    _entry(
                        None,
                        None,
                        f"an invocation of {invocation.tool_name!r} filling "
                        + (", ".join(sorted(invocation.needed_params)) or "its parameters"),
                        "invocation_not_attempted",
                    )
                ]
            },
        )
        aligned.append(AlignedLabel(label=label, observed_index=None, oracle_index=oracle_index))
    case_pass = all(item.label.passed for item in aligned)
    return TrajectoryClassification(aligned=tuple(aligned), case_pass=case_pass)
