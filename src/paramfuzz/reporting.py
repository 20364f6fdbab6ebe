"""Aggregate a classified campaign log into failure-rate reports.

Three artifacts, all pure functions of the log (regeneration is
byte-identical):

    report.json       full per-case labels plus every aggregate
    report_table.csv  the category x operator grid, 15 fixed columns
    report.md         the same grid (both from _grid) and counts, for humans

report.json is the indented, key-sorted JSON of build_report's document.
Its cases block is written one operator at a time, and most of its
entries repeat (every passing case of an operator has the same labels),
so each distinct entry of an operator is rendered once.

Failure Rate is case-level: FR = 1 - N_pass/N_total, computed in exact
rational arithmetic and rendered as a percentage with two decimals,
half-up. A cell with an empty denominator is null in report.json and
"n/a" in the grid, never 0.00, so "no failures" cannot be confused with
"no data".

Trajectories whose perturbation could not be applied (typed skips) and
trajectories that died in the driver are excluded from every
denominator; both exclusions are counted and reported.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction
from typing import TextIO

from paramfuzz.campaign import CampaignLog
from paramfuzz.classify import CATEGORIES, CATEGORY_TITLES, FailureLabel
from paramfuzz.errors import CampaignError, EmptyCampaign
from paramfuzz.perturb import ALL_OPERATORS

ROUGE_THRESHOLD = 0.8

REPORT_JSON_NAME = "report.json"
REPORT_CSV_NAME = "report_table.csv"
REPORT_MD_NAME = "report.md"

NOT_AVAILABLE = "n/a"


def failure_rate(n_pass: int, n_total: int) -> Fraction:
    """FR = 1 - N_pass/N_total, exact."""
    if n_total < 1:
        raise EmptyCampaign("failure rate over zero attempted test cases")
    if not 0 <= n_pass <= n_total:
        raise CampaignError(f"impossible counts: {n_pass} passes of {n_total}")
    return 1 - Fraction(n_pass, n_total)


def percent_string(value: Fraction) -> str:
    """Render a rate as a percentage with two decimals, half-up."""
    scaled = Decimal(value.numerator * 100) / Decimal(value.denominator)
    return str(scaled.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


@dataclass(frozen=True)
class CaseOutcome:
    """One (operator, case) result joined across log events."""

    operator: str
    case_id: str
    applied: bool
    case_pass: bool
    labels: tuple[FailureLabel, ...]


@dataclass(frozen=True)
class CampaignResults:
    """Everything the report needs, decoded from the log once."""

    meta: dict[str, object]
    outcomes: tuple[CaseOutcome, ...]
    error_counts: dict[str, int]


def collect_results(log: CampaignLog) -> CampaignResults:
    """Join each trajectory with its classification. The pairs that share
    one classification object share one labels tuple."""
    outcomes: list[CaseOutcome] = []
    # id of a classification in the index -> its labels.
    labels_of: dict[int, tuple[FailureLabel, ...]] = {}
    for key, entry in log.trajectories.items():
        verdict = log.classifications.get(key)
        if verdict is None:
            raise CampaignError(
                f"trajectory ({key[0]}, {key[1]}) has no classification; "
                "classify the log before reporting"
            )
        labels = labels_of.get(id(verdict))
        if labels is None:
            labels = labels_of[id(verdict)] = tuple(aligned.label for aligned in verdict.aligned)
        outcomes.append(
            CaseOutcome(
                operator=key[0],
                case_id=key[1],
                applied=entry.applied,
                case_pass=verdict.case_pass,
                labels=labels,
            )
        )
    error_counts: dict[str, int] = {}
    for operator, _ in log.errors:
        error_counts[operator] = error_counts.get(operator, 0) + 1
    return CampaignResults(
        meta=log.header.to_json(), outcomes=tuple(outcomes), error_counts=error_counts
    )


def _exceedance(scores: list[float]) -> Fraction | None:
    if not scores:
        return None
    hits = sum(1 for score in scores if score >= ROUGE_THRESHOLD)
    return Fraction(hits, len(scores))


def rouge_exceedance(labels: list[FailureLabel]) -> dict[str, Fraction | None]:
    """Fractions of flagged invocations with Rouge-L at or above ROUGE_THRESHOLD.

    Computed separately over Task Deviation and Specification Mismatch
    flags, plus jointly over their union; None where nothing was flagged.
    Labels flagged without an attached score (no oracle to compare to)
    stay out of numerator and denominator alike.
    """
    td_scores = [l.rouge_td for l in labels if l.task_deviation and l.rouge_td is not None]
    sm_scores = [l.rouge_sm for l in labels if l.specification_mismatch and l.rouge_sm is not None]
    joint_scores = [
        (l.rouge_td if l.rouge_td is not None else l.rouge_sm)
        for l in labels
        if (l.task_deviation or l.specification_mismatch)
        and (l.rouge_td is not None or l.rouge_sm is not None)
    ]
    return {
        "task_deviation": _exceedance(td_scores),
        "specification_mismatch": _exceedance(sm_scores),
        "joint": _exceedance(joint_scores),
    }


def transfer_matrix(labels: list[FailureLabel]) -> dict[str, object]:
    """Co-occurrence of failure categories over failing invocations.

    counts[a][b] is the number of failing labels carrying both flags;
    the diagonal holds the per-category marginals. normalized[a][b] is
    counts[a][b] / counts[a][a] (null for categories never seen), which
    is deliberately not symmetric.
    """
    failing = [label for label in labels if not label.passed]
    size = len(CATEGORIES)
    counts = [[0] * size for _ in range(size)]
    for label in failing:
        flagged = [i for i, category in enumerate(CATEGORIES) if getattr(label, category)]
        for a in flagged:
            for b in flagged:
                counts[a][b] += 1
    normalized: list[list[float | None]] = []
    for a in range(size):
        row: list[float | None] = []
        for b in range(size):
            row.append(counts[a][b] / counts[a][a] if counts[a][a] else None)
        normalized.append(row)
    return {
        "order": list(CATEGORIES),
        "counts": counts,
        "normalized": normalized,
        "failing_invocations": len(failing),
    }


def _rate(n_pass: int, n_total: int) -> str | None:
    """One cell's failure rate as a percentage; None over no attempted cases."""
    return percent_string(failure_rate(n_pass, n_total)) if n_total else None


def _operator_block(outcomes: list[CaseOutcome], errors: int) -> dict[str, object]:
    attempted = [o for o in outcomes if o.applied]
    passed = sum(1 for o in attempted if o.case_pass)
    labels = [label for outcome in attempted for label in outcome.labels]
    # A case passes a category when none of its labels carries the flag.
    flagged = [{c for label in o.labels for c in label.flagged_categories()} for o in attempted]
    return {
        "attempted": len(attempted),
        "skipped_unperturbable": len(outcomes) - len(attempted),
        "driver_errors": errors,
        "passed": passed,
        "failure_rate_percent": _rate(passed, len(attempted)),
        "categories": {c: _rate(sum(c not in f for f in flagged), len(attempted)) for c in CATEGORIES},
        "rouge_exceedance": {
            key: percent_string(value) if value is not None else None
            for key, value in rouge_exceedance(labels).items()
        },
    }


def build_report(results: CampaignResults) -> dict[str, object]:
    """The full report as one JSON-ready structure. Outcomes that share
    one labels tuple, as collect_results gives the pairs of one
    classification, share one rendering of their labels."""
    by_operator: dict[str, list[CaseOutcome]] = {}
    cases: dict[str, dict[str, object]] = {}
    # id of a labels tuple -> its labels as JSON.
    rendered: dict[int, list[object]] = {}
    all_labels: list[FailureLabel] = []
    for outcome in results.outcomes:
        by_operator.setdefault(outcome.operator, []).append(outcome)
        labels = rendered.get(id(outcome.labels))
        if labels is None:
            labels = rendered[id(outcome.labels)] = [label.to_json() for label in outcome.labels]
        cases.setdefault(outcome.operator, {})[outcome.case_id] = {
            "applied": outcome.applied,
            "case_pass": outcome.case_pass,
            "labels": labels,
        }
        if outcome.applied:
            all_labels.extend(outcome.labels)
    operators = {
        op: _operator_block(by_operator.get(op, []), results.error_counts.get(op, 0))
        for op in ALL_OPERATORS
        if op in by_operator or op in results.error_counts
    }
    return {
        "campaign": results.meta,
        "rouge_threshold": ROUGE_THRESHOLD,
        "operators": operators,
        "transfer_matrix": transfer_matrix(all_labels),
        "cases": cases,
    }


def _grid(report: dict[str, object]) -> list[list[str]]:
    """The category x operator grid: the header row over the 15 fixed
    operator columns, a row per category, then the joint Rouge-L row."""
    rows = [(CATEGORY_TITLES[c], "categories", c) for c in CATEGORIES]
    blocks = [report["operators"].get(op) for op in ALL_OPERATORS]  # type: ignore[union-attr]
    grid = [["Failure Taxonomy", *ALL_OPERATORS]]
    for title, group, key in rows + [("Rouge-L", "rouge_exceedance", "joint")]:
        values = [block[group][key] if block is not None else None for block in blocks]
        grid.append([title] + [v if v is not None else NOT_AVAILABLE for v in values])
    return grid


def render_csv(report: dict[str, object]) -> str:
    """The category x operator grid with the fixed 15-operator columns."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(_grid(report))
    return buffer.getvalue()


def render_markdown(report: dict[str, object]) -> str:
    meta = report["campaign"]
    lines = [
        "# Campaign report",
        "",
        f"- corpus sha256: `{meta.get('corpus_sha256')}`",  # type: ignore[union-attr]
        f"- driver: {meta.get('driver')}",  # type: ignore[union-attr]
        f"- campaign seed: {meta.get('seed')}",  # type: ignore[union-attr]
        f"- cases: {meta.get('case_count')}",  # type: ignore[union-attr]
        f"- classifier: {meta.get('classifier_version')}",  # type: ignore[union-attr]
        "",
        "## Failure rate (%) by category and operator",
        "",
        "Cells show case-level FR; `n/a` means no attempted cases. The",
        "Rouge-L row is the share of deviating or mismatched invocations",
        f"scoring at least {report['rouge_threshold']} against the oracle.",
        "",
    ]
    header, *rows = _grid(report)
    lines.append("| " + " | ".join(header) + " |")
    lines.append("|" + "---|" * len(header))
    lines.extend("| " + " | ".join(row) + " |" for row in rows)
    lines.append("")
    lines.append("## Overall failure rate by operator")
    lines.append("")
    lines.append("| Operator | Attempted | Passed | FR (%) | Skipped | Driver errors |")
    lines.append("|---|---|---|---|---|---|")
    for operator in ALL_OPERATORS:
        block = report["operators"].get(operator)  # type: ignore[union-attr]
        if block is None:
            continue
        fr = block["failure_rate_percent"]
        lines.append(
            f"| {operator} | {block['attempted']} | {block['passed']} | "
            f"{fr if fr is not None else NOT_AVAILABLE} | "
            f"{block['skipped_unperturbable']} | {block['driver_errors']} |"
        )
    matrix = report["transfer_matrix"]
    lines.append("")
    lines.append("## Failure transfer matrix (co-occurrence counts)")
    lines.append("")
    lines.append(
        f"Over {matrix['failing_invocations']} failing invocations; "  # type: ignore[index]
        "diagonal entries are per-category totals."
    )
    lines.append("")
    titles = [CATEGORY_TITLES[c] for c in CATEGORIES]
    lines.append("| | " + " | ".join(titles) + " |")
    lines.append("|" + "---|" * (len(titles) + 1))
    for name, row in zip(titles, matrix["counts"]):  # type: ignore[index]
        lines.append("| " + name + " | " + " | ".join(str(v) for v in row) + " |")
    lines.append("")
    return "\n".join(lines)


# The memo key of a case entry, and the JSON of a key, as the indented
# writer encodes it.
_COMPACT = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
_KEY = json.JSONEncoder(ensure_ascii=False).encode


def _indented(value: object, depth: int) -> str:
    """value as json.dumps(indent=2, sort_keys=True) writes it at depth."""
    text = json.dumps(value, indent=2, sort_keys=True, ensure_ascii=False)
    return text.replace("\n", "\n" + "  " * depth)


def _write_report_json(report: dict[str, object], handle: TextIO) -> None:
    """Write json.dumps(report, indent=2, sort_keys=True, ensure_ascii=False)
    and a newline, holding no more of the cases text than one operator's.

    The cases block goes out one operator at a time. Each distinct case
    entry of the operator is rendered once, keyed by its compact JSON, and
    the renderings are dropped before the next operator.
    """
    head, tail = _indented({**report, "cases": None}, 0).split('\n  "cases": null', 1)
    cases: dict[str, dict[str, object]] = report["cases"]  # type: ignore[assignment]
    handle.write(head + '\n  "cases": {')
    for i, operator in enumerate(sorted(cases)):
        handle.write(f'{"," if i else ""}\n    {_KEY(operator)}: {{')
        rendered: dict[str, str] = {}
        for j, (case_id, entry) in enumerate(sorted(cases[operator].items())):
            key = _COMPACT(entry)
            text = rendered.get(key)
            if text is None:
                text = rendered[key] = _indented(entry, 3)
            handle.write(f'{"," if j else ""}\n      {_KEY(case_id)}: {text}')
        handle.write("\n    }")
    handle.write(("\n  }" if cases else "}") + tail + "\n")


def emit_report(log: CampaignLog, out_dir: str) -> dict[str, str]:
    """Write report.json, report_table.csv and report.md; returns paths."""
    results = collect_results(log)
    report = build_report(results)
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "json": os.path.join(out_dir, REPORT_JSON_NAME),
        "csv": os.path.join(out_dir, REPORT_CSV_NAME),
        "md": os.path.join(out_dir, REPORT_MD_NAME),
    }
    with open(paths["json"], "w", encoding="utf-8") as handle:
        _write_report_json(report, handle)
    with open(paths["csv"], "w", encoding="utf-8") as handle:
        handle.write(render_csv(report))
    with open(paths["md"], "w", encoding="utf-8") as handle:
        handle.write(render_markdown(report))
    return paths
