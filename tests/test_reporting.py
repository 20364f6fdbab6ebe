"""Aggregation and report rendering tests."""

import csv
import importlib.resources
import io
import json
import os
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import log_events, make_case, scripted_return
from paramfuzz import reporting
from paramfuzz.campaign import (
    CampaignConfig,
    CampaignLog,
    CampaignMeta,
    Classification,
    TrajectoryEntry,
    TrajectoryError,
    classify_log,
    derived_seed,
    log_line,
    read_log,
    run_campaign,
)
from paramfuzz.classify import CATEGORIES, AlignedLabel, FailureLabel
from paramfuzz.corpus import serialize_corpus
from paramfuzz.errors import CampaignError, EmptyCampaign
from paramfuzz.perturb import ALL_OPERATORS
from paramfuzz.reporting import (
    CampaignResults,
    CaseOutcome,
    build_report,
    collect_results,
    emit_report,
    failure_rate,
    percent_string,
    render_csv,
    render_markdown,
    rouge_exceedance,
    transfer_matrix,
)


def label(rouge_td=None, rouge_sm=None, **flags):
    """A FailureLabel with one stub evidence entry per raised flag."""
    evidence = {
        name: [{"param_name": "p", "observed": "x", "expected": "y", "rule": "stub"}]
        for name, raised in flags.items()
        if raised
    }
    return FailureLabel(evidence=evidence, rouge_td=rouge_td, rouge_sm=rouge_sm, **flags)


def outcome(operator="RD", case_id="k1", applied=True, labels=()):
    labels = tuple(labels)
    return CaseOutcome(
        operator=operator,
        case_id=case_id,
        applied=applied,
        case_pass=all(l.passed for l in labels),
        labels=labels,
    )


class TestFailureRate:
    def test_exact_fraction(self):
        assert failure_rate(3, 4) == Fraction(1, 4)
        assert failure_rate(4, 4) == Fraction(0)
        assert failure_rate(0, 4) == Fraction(1)

    def test_zero_total_is_typed(self):
        with pytest.raises(EmptyCampaign):
            failure_rate(0, 0)

    def test_impossible_counts(self):
        with pytest.raises(CampaignError):
            failure_rate(5, 4)
        with pytest.raises(CampaignError):
            failure_rate(-1, 4)


class TestPercentString:
    def test_two_decimals(self):
        assert percent_string(Fraction(1, 8)) == "12.50"
        assert percent_string(Fraction(1, 3)) == "33.33"
        assert percent_string(Fraction(2, 3)) == "66.67"
        assert percent_string(Fraction(1)) == "100.00"
        assert percent_string(Fraction(0)) == "0.00"

    def test_half_rounds_up_not_to_even(self):
        # 1/800 is exactly 0.125%; half-even would print "0.12".
        assert percent_string(Fraction(1, 800)) == "0.13"
        assert percent_string(Fraction(3, 800)) == "0.38"


def report_of(*outcomes, error_counts=None):
    return build_report(CampaignResults(meta={}, outcomes=outcomes, error_counts=error_counts or {}))


class TestOperatorBlock:
    def test_counts_cases_not_invocations(self):
        block = report_of(
            outcome("RD", "k1", labels=[label(task_deviation=True), label(task_deviation=True)]),
            outcome("RD", "k2", labels=[label()]),
        )["operators"]["RD"]
        assert block["categories"]["task_deviation"] == "50.00"
        assert block["categories"]["missing_information"] == "0.00"

    def test_unapplied_cases_stay_out_of_the_denominator(self):
        block = report_of(
            outcome("RD", "k1", labels=[label(task_deviation=True)]),
            outcome("RD", "k2", applied=False, labels=[label()]),
        )["operators"]["RD"]
        assert block["categories"]["task_deviation"] == "100.00"

    def test_no_attempted_cases_renders_not_available(self):
        rows = list(csv.reader(io.StringIO(render_csv(report_of(outcome(applied=False))))))
        column = rows[0].index("RD")
        assert [row[column] for row in rows[1:]] == ["n/a"] * 6

    @pytest.mark.parametrize(
        "outcomes, error_counts, counts",
        [
            ((outcome(applied=False), outcome(case_id="k2", applied=False)), {}, (2, 0)),
            ((), {"RD": 3}, (0, 3)),
        ],
        ids=["only_skipped", "only_driver_errors"],
    )
    def test_a_block_with_nothing_attempted(self, outcomes, error_counts, counts):
        assert report_of(*outcomes, error_counts=error_counts)["operators"]["RD"] == {
            "attempted": 0,
            "skipped_unperturbable": counts[0],
            "driver_errors": counts[1],
            "passed": 0,
            "failure_rate_percent": None,
            "categories": {
                "task_deviation": None,
                "specification_mismatch": None,
                "hallucination_name": None,
                "missing_information": None,
                "redundant_information": None,
            },
            "rouge_exceedance": {"task_deviation": None, "specification_mismatch": None, "joint": None},
        }


class TestRougeExceedance:
    def test_threshold_is_inclusive(self):
        labels = [
            label(task_deviation=True, rouge_td=0.8),
            label(task_deviation=True, rouge_td=0.79),
        ]
        assert rouge_exceedance(labels)["task_deviation"] == Fraction(1, 2)

    def test_unscored_flags_are_excluded(self):
        labels = [
            label(task_deviation=True, rouge_td=None),
            label(task_deviation=True, rouge_td=0.9),
        ]
        assert rouge_exceedance(labels)["task_deviation"] == Fraction(1)

    def test_none_when_nothing_flagged(self):
        result = rouge_exceedance([label(), label(missing_information=True)])
        assert result == {
            "task_deviation": None,
            "specification_mismatch": None,
            "joint": None,
        }

    def test_joint_counts_union_once_per_label(self):
        labels = [
            label(task_deviation=True, specification_mismatch=True, rouge_td=0.9, rouge_sm=0.9),
            label(specification_mismatch=True, rouge_sm=0.1),
        ]
        result = rouge_exceedance(labels)
        assert result["joint"] == Fraction(1, 2)
        assert result["task_deviation"] == Fraction(1)
        assert result["specification_mismatch"] == Fraction(1, 2)


class TestTransferMatrix:
    def test_counts_and_normalization(self):
        labels = [
            label(task_deviation=True, specification_mismatch=True),
            label(task_deviation=True),
            label(redundant_information=True),
            label(),
        ]
        matrix = transfer_matrix(labels)
        assert matrix["order"] == list(CATEGORIES)
        assert matrix["failing_invocations"] == 3
        td, sm = CATEGORIES.index("task_deviation"), CATEGORIES.index("specification_mismatch")
        ri = CATEGORIES.index("redundant_information")
        counts = matrix["counts"]
        assert counts[td][td] == 2 and counts[sm][sm] == 1 and counts[ri][ri] == 1
        assert counts[td][sm] == 1 and counts[sm][td] == 1
        assert counts[td][ri] == 0
        normalized = matrix["normalized"]
        assert normalized[td][sm] == 0.5
        assert normalized[sm][td] == 1.0
        hn = CATEGORIES.index("hallucination_name")
        assert normalized[hn] == [None] * len(CATEGORIES)

    def test_empty_label_set(self):
        matrix = transfer_matrix([])
        assert matrix["failing_invocations"] == 0
        assert all(v == 0 for row in matrix["counts"] for v in row)
        assert all(v is None for row in matrix["normalized"] for v in row)


def mini_campaign(tmp_path, operators=("RD", "CK"), scripts=None):
    """The path of the classified log of one case under operators; scripts,
    when given, is the script book's "scripts" object."""
    corpus_path = tmp_path / "corpus.json"
    corpus_path.write_text(
        serialize_corpus(
            [
                make_case(
                    "k1",
                    # A key that CK respells, so that both operators apply.
                    scripted=(
                        scripted_return(
                            "searcher", {"query": "books about whales"}, payload={"hit_count": 1}
                        ),
                    ),
                )
            ]
        ),
        encoding="utf-8",
    )
    scripts_path = None
    if scripts is not None:
        scripts_path = str(tmp_path / "scripts.json")
        Path(scripts_path).write_text(json.dumps({"scripts": scripts}), encoding="utf-8")
    config = CampaignConfig(
        corpus_path=str(corpus_path),
        out_dir=str(tmp_path / "out"),
        operators=operators,
        seed=0,
        scripts_path=scripts_path,
    )
    log_path = run_campaign(config).path
    classify_log(read_log(log_path), str(corpus_path))
    return log_path


class TestCollectResults:
    def test_joins_trajectories_with_classifications(self, tmp_path):
        results = collect_results(read_log(mini_campaign(tmp_path)))
        assert len(results.outcomes) == 2
        assert {o.operator for o in results.outcomes} == {"RD", "CK"}
        assert all(o.applied and o.case_pass for o in results.outcomes)
        assert results.error_counts == {}
        assert "corpus_sha256" in results.meta

    def test_unclassified_log_is_an_error(self, tmp_path):
        corpus_path = tmp_path / "corpus.json"
        corpus_path.write_text(serialize_corpus([make_case("k1")]), encoding="utf-8")
        log_path = run_campaign(
            CampaignConfig(
                corpus_path=str(corpus_path), out_dir=str(tmp_path / "out"), operators=("RD",)
            )
        ).path
        with pytest.raises(CampaignError):
            collect_results(read_log(log_path))

    def test_headerless_log_is_an_error(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text(log_line({"event": "trajectory"}) + "\n", encoding="utf-8")
        with pytest.raises(CampaignError):
            collect_results(read_log(str(path)))

    def test_driver_errors_counted_per_operator(self, tmp_path):
        log_path = mini_campaign(tmp_path)
        # An error for a pair that did not run, as (RD, k1) did.
        with open(log_path, "a", encoding="utf-8") as handle:
            handle.write(
                log_line(
                    {
                        "event": "trajectory_error",
                        "operator": "RD",
                        "case_id": "k2",
                        "seed": derived_seed(0, "RD", "k2"),
                        "error": "TransportError",
                        "message": "boom",
                    }
                )
                + "\n"
            )
        results = collect_results(read_log(log_path))
        assert results.error_counts == {"RD": 1}


class TestReportRendering:
    def test_csv_grid_shape_and_values(self, tmp_path):
        report = build_report(collect_results(read_log(mini_campaign(tmp_path))))
        grid = render_csv(report)
        lines = grid.strip().split("\n")
        assert len(lines) == 7
        header = lines[0].split(",")
        assert header == ["Failure Taxonomy", *ALL_OPERATORS]
        td_row = lines[1].split(",")
        assert td_row[0] == "Task Deviation"
        by_column = dict(zip(header[1:], td_row[1:]))
        assert by_column["RD"] == "0.00" and by_column["CK"] == "0.00"
        assert by_column["WT"] == "n/a"
        rouge_row = lines[6].split(",")
        assert rouge_row[0] == "Rouge-L"
        assert set(rouge_row[1:]) == {"n/a"}

    def test_operator_block_contents(self, tmp_path):
        report = build_report(collect_results(read_log(mini_campaign(tmp_path))))
        block = report["operators"]["RD"]
        assert block["attempted"] == 1 and block["passed"] == 1
        assert block["failure_rate_percent"] == "0.00"
        assert block["skipped_unperturbable"] == 0
        assert set(block["categories"]) == set(CATEGORIES)
        assert "WT" not in report["operators"]

    def test_markdown_mentions_the_essentials(self, tmp_path):
        report = build_report(collect_results(read_log(mini_campaign(tmp_path))))
        text = render_markdown(report)
        assert "# Campaign report" in text
        assert "Failure Taxonomy" in text
        assert "transfer matrix" in text
        assert str(report["campaign"]["corpus_sha256"]) in text

    def test_emit_report_writes_three_files(self, tmp_path):
        log_path = mini_campaign(tmp_path)
        paths = emit_report(read_log(log_path), str(tmp_path / "report"))
        assert sorted(paths) == ["csv", "json", "md"]
        loaded = json.loads(Path(paths["json"]).read_text(encoding="utf-8"))
        assert loaded["rouge_threshold"] == 0.8
        assert loaded["cases"]["RD"]["k1"]["case_pass"] is True

    def test_report_regeneration_is_byte_identical(self, tmp_path):
        log_path = mini_campaign(tmp_path)
        first = emit_report(read_log(log_path), str(tmp_path / "r1"))
        second = emit_report(read_log(log_path), str(tmp_path / "r2"))
        for key in ("json", "csv", "md"):
            assert Path(first[key]).read_bytes() == Path(second[key]).read_bytes()

    def test_report_json_is_the_indented_document_with_a_newline(self, tmp_path):
        """Non-ASCII evidence is written as is, not escaped."""
        steps = [
            {"thought": "Search.", "action": {"tool_name": "searcher", "arguments": {"query": "Zürich 東京"}}},
            {"thought": "Done.", "final_answer": "Done."},
        ]
        log = read_log(mini_campaign(tmp_path, scripts={"k1": steps}))
        text = Path(emit_report(log, str(tmp_path / "report"))["json"]).read_text(encoding="utf-8")
        report = build_report(collect_results(log))
        assert text == json.dumps(report, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
        assert '\\"Zürich 東京\\"' in text


# Case ids that JSON must escape or that UTF-8 writes in two to four bytes.
AWKWARD_CASE_IDS = ('say "hi"', "back\\slash", "two\nlines", "Zürich 東京", "astral \U0001f600", "k1")


def _indexed_log(tmp_path, with_cases: bool) -> CampaignLog:
    """A log index built in memory: RD and CK over AWKWARD_CASE_IDS, with
    repeated passing labels and failing ones that carry Rouge-L floats, and
    WD with only driver errors, on k1 and k2; or, without cases, the driver
    errors alone. Each record has its pair's derived seed."""
    header = CampaignMeta(
        corpus_sha256="0" * 64, seed=0, driver="replay", operators=("RD", "WD", "CK"), step_limit=8,
        max_observation_length=1024, case_count=len(AWKWARD_CASE_IDS), classifier_version="1.0",
        prompt_template_version="1", package_version="0",
    )
    log = CampaignLog(str(tmp_path / "campaign.jsonl"), header)
    passing = (AlignedLabel(label(), 0, 0),)
    failing = (
        AlignedLabel(label(task_deviation=True, rouge_td=2 / 3), 0, 0),
        AlignedLabel(label(specification_mismatch=True, task_deviation=True, rouge_td=0.1, rouge_sm=0.1), 1, None),
    )
    cases = AWKWARD_CASE_IDS if with_cases else ()
    for operator in ("RD", "CK"):
        for number, case_id in enumerate(cases):
            labels = failing if number % 3 == 1 else passing
            seed = derived_seed(0, operator, case_id)
            log.trajectories[(operator, case_id)] = TrajectoryEntry(seed, number != 5, ())
            log.add(Classification(operator, case_id, seed, "1.0", labels is passing, labels))
    for case_id in ("k1", "k2"):
        log.add(TrajectoryError("WD", case_id, derived_seed(0, "WD", case_id), "TransportError", "endpoint failure"))
    return log


@pytest.mark.parametrize("with_cases", [True, False])
def test_report_json_is_byte_for_byte_the_reference_encoding(tmp_path, with_cases):
    log = _indexed_log(tmp_path, with_cases)
    path = emit_report(log, str(tmp_path / "report"))["json"]
    report = build_report(collect_results(log))
    assert report["operators"]["WD"]["driver_errors"] == 2
    assert "WD" not in report["cases"]
    expected = json.dumps(report, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
    assert Path(path).read_bytes() == expected.encode("utf-8")


def mock_campaign_log(tmp_path) -> CampaignLog:
    """The classified index of the packaged mock campaign."""
    data = importlib.resources.files("paramfuzz").joinpath("data", "mock_campaign")
    with importlib.resources.as_file(data) as root:
        config = CampaignConfig(
            corpus_path=str(root / "corpus.json"),
            out_dir=str(tmp_path / "run"),
            scripts_path=str(root / "scripts.json"),
        )
        log = run_campaign(config)
        classify_log(log, config.corpus_path)
    return log


def test_csv_and_markdown_grids_agree_cell_for_cell(tmp_path):
    paths = emit_report(mock_campaign_log(tmp_path), str(tmp_path / "report"))
    with open(paths["csv"], encoding="utf-8", newline="") as handle:
        csv_rows = list(csv.reader(handle))
    lines = Path(paths["md"]).read_text(encoding="utf-8").splitlines()
    start = lines.index("| " + " | ".join(csv_rows[0]) + " |")
    assert lines[start + 1] == "|" + "---|" * len(csv_rows[0])
    md_rows = [line[2:-2].split(" | ") for line in lines[start + 2 : start + 1 + len(csv_rows)]]
    assert md_rows == csv_rows[1:]
    assert len(csv_rows) == 7 and any(cell not in ("n/a", "0.00") for row in csv_rows[1:] for cell in row[1:])


REPLICAS = 5


def test_emit_report_never_holds_the_whole_report_json(tmp_path, monkeypatch):
    """Once the report is built, emit_report's traced peak rises by less
    than the size of the report.json it writes, on the packaged
    mock_campaign log replicated REPLICAS times under renamed case ids,
    each event with its renamed pair's derived seed.

    The rise is measured from the report's own objects, which outweigh
    its JSON text, so the guard sees only what writing it allocates."""
    header, *events = log_events(mock_campaign_log(tmp_path).path)
    lines = [log_line(header)] + [
        log_line({**event, "case_id": case_id, "seed": derived_seed(header["seed"], event["operator"], case_id)})
        for copy in range(REPLICAS)
        for event in events
        for case_id in [f"{event['case_id']}_{copy}"]
    ]
    replicated = tmp_path / "replicated.jsonl"
    replicated.write_text("\n".join(lines) + "\n", encoding="utf-8")
    log = read_log(str(replicated))
    assert len(log.trajectories) == REPLICAS * len(events) // 2
    built = []

    def build(results):
        report = build_report(results)
        built.append(tracemalloc.get_traced_memory()[0])
        return report

    monkeypatch.setattr(reporting, "build_report", build)
    tracemalloc.start()
    try:
        paths = emit_report(log, str(tmp_path / "report"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - built[0] < os.path.getsize(paths["json"])
