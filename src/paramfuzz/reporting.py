"""Aggregate a classified campaign log into failure-rate reports.

Three artifacts, all pure functions of the log (regeneration is
byte-identical):

    report.json       full per-case labels plus every aggregate
    report_table.csv  the category x operator grid, 15 fixed columns
    report.md         the same numbers for humans

Failure Rate is case-level: FR = 1 - N_pass/N_total, computed in exact
rational arithmetic and rendered as a percentage with two decimals,
half-up. Cells with an empty denominator render "n/a", never 0.00, so
"no failures" cannot be confused with "no data".

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
    seed: int
    applied: bool
    case_pass: bool
    labels: tuple[FailureLabel, ...]


@dataclass(frozen=True)
class CampaignResults:
    """Everything the report needs, decoded from the log once."""

    meta: dict[str, object]
    outcomes: tuple[CaseOutcome, ...]
    error_counts: dict[str, int]

    def for_operator(self, operator: str) -> list[CaseOutcome]:
        return [o for o in self.outcomes if o.operator == operator]


def collect_results(log: CampaignLog) -> CampaignResults:
    """Join each trajectory with its classification."""
    outcomes: list[CaseOutcome] = []
    for key, trajectory in log.trajectories.items():
        verdict = log.classifications.get(key)
        if verdict is None:
            raise CampaignError(
                f"trajectory ({key[0]}, {key[1]}) has no classification; "
                "classify the log before reporting"
            )
        outcomes.append(
            CaseOutcome(
                operator=key[0],
                case_id=key[1],
                seed=key[2],
                applied=trajectory.perturbation_applied,
                case_pass=verdict.case_pass,
                labels=tuple(aligned.label for aligned in verdict.labels),
            )
        )
    error_counts: dict[str, int] = {}
    for operator, _, _ in log.errors:
        error_counts[operator] = error_counts.get(operator, 0) + 1
    return CampaignResults(
        meta=log.header.to_json(), outcomes=tuple(outcomes), error_counts=error_counts
    )


def category_rates(outcomes: list[CaseOutcome]) -> dict[str, Fraction]:
    """Per-category FR: a case passes a category when no invocation
    label carries that flag."""
    attempted = [o for o in outcomes if o.applied]
    if not attempted:
        raise EmptyCampaign("category rates over zero attempted test cases")
    rates = {}
    for category in CATEGORIES:
        passed = sum(
            1
            for outcome in attempted
            if all(not getattr(label, category) for label in outcome.labels)
        )
        rates[category] = failure_rate(passed, len(attempted))
    return rates


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


def _operator_block(outcomes: list[CaseOutcome], errors: int) -> dict[str, object]:
    attempted = [o for o in outcomes if o.applied]
    skipped = len(outcomes) - len(attempted)
    block: dict[str, object] = {
        "attempted": len(attempted),
        "skipped_unperturbable": skipped,
        "driver_errors": errors,
    }
    if not attempted:
        block["failure_rate_percent"] = None
        block["passed"] = 0
        block["categories"] = {c: None for c in CATEGORIES}
        block["rouge_exceedance"] = {
            "task_deviation": None,
            "specification_mismatch": None,
            "joint": None,
        }
        return block
    passed = sum(1 for o in attempted if o.case_pass)
    block["passed"] = passed
    block["failure_rate_percent"] = percent_string(failure_rate(passed, len(attempted)))
    block["categories"] = {
        category: percent_string(rate)
        for category, rate in category_rates(outcomes).items()
    }
    labels = [label for outcome in attempted for label in outcome.labels]
    block["rouge_exceedance"] = {
        key: percent_string(value) if value is not None else None
        for key, value in rouge_exceedance(labels).items()
    }
    return block


def build_report(results: CampaignResults) -> dict[str, object]:
    """The full report as one JSON-ready structure."""
    operators: dict[str, object] = {}
    for operator in ALL_OPERATORS:
        outcomes = results.for_operator(operator)
        if not outcomes and operator not in results.error_counts:
            continue
        operators[operator] = _operator_block(
            outcomes, results.error_counts.get(operator, 0)
        )
    all_labels = [
        label
        for outcome in results.outcomes
        if outcome.applied
        for label in outcome.labels
    ]
    cases: dict[str, object] = {}
    for outcome in results.outcomes:
        per_op = cases.setdefault(outcome.operator, {})
        per_op[outcome.case_id] = {  # type: ignore[index]
            "applied": outcome.applied,
            "case_pass": outcome.case_pass,
            "labels": [label.to_json() for label in outcome.labels],
        }
    return {
        "campaign": results.meta,
        "rouge_threshold": ROUGE_THRESHOLD,
        "operators": operators,
        "transfer_matrix": transfer_matrix(all_labels),
        "cases": cases,
    }


def _grid_cell(report: dict[str, object], operator: str, row: str) -> str:
    block = report["operators"].get(operator)  # type: ignore[union-attr]
    if block is None:
        return NOT_AVAILABLE
    if row in CATEGORIES:
        value = block["categories"][row]
    else:
        value = block["rouge_exceedance"]["joint"]
    return value if value is not None else NOT_AVAILABLE


def render_csv(report: dict[str, object]) -> str:
    """The category x operator grid with the fixed 15-operator columns."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["Failure Taxonomy", *ALL_OPERATORS])
    for category in CATEGORIES:
        writer.writerow(
            [CATEGORY_TITLES[category]]
            + [_grid_cell(report, op, category) for op in ALL_OPERATORS]
        )
    writer.writerow(
        ["Rouge-L"] + [_grid_cell(report, op, "rouge") for op in ALL_OPERATORS]
    )
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
    header = ["Failure Taxonomy", *ALL_OPERATORS]
    lines.append("| " + " | ".join(header) + " |")
    lines.append("|" + "---|" * len(header))
    for category in CATEGORIES:
        row = [CATEGORY_TITLES[category]] + [
            _grid_cell(report, op, category) for op in ALL_OPERATORS
        ]
        lines.append("| " + " | ".join(row) + " |")
    rouge_row = ["Rouge-L"] + [_grid_cell(report, op, "rouge") for op in ALL_OPERATORS]
    lines.append("| " + " | ".join(rouge_row) + " |")
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
        handle.write(json.dumps(report, indent=2, sort_keys=True, ensure_ascii=False) + "\n")
    with open(paths["csv"], "w", encoding="utf-8") as handle:
        handle.write(render_csv(report))
    with open(paths["md"], "w", encoding="utf-8") as handle:
        handle.write(render_markdown(report))
    return paths
