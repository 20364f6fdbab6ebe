"""Aggregation and report rendering tests."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import make_case, scripted_return
from paramfuzz.campaign import CampaignConfig, classify_log, log_line, read_log, run_campaign
from paramfuzz.classify import CATEGORIES, FailureLabel
from paramfuzz.corpus import serialize_corpus
from paramfuzz.errors import CampaignError, EmptyCampaign
from paramfuzz.perturb import ALL_OPERATORS
from paramfuzz.reporting import (
    CaseOutcome,
    build_report,
    category_rates,
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
        seed=0,
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


class TestCategoryRates:
    def test_counts_cases_not_invocations(self):
        outcomes = [
            outcome("RD", "k1", labels=[label(task_deviation=True), label(task_deviation=True)]),
            outcome("RD", "k2", labels=[label()]),
        ]
        rates = category_rates(outcomes)
        assert rates["task_deviation"] == Fraction(1, 2)
        assert rates["missing_information"] == Fraction(0)

    def test_unapplied_cases_stay_out_of_the_denominator(self):
        outcomes = [
            outcome("RD", "k1", labels=[label(task_deviation=True)]),
            outcome("RD", "k2", applied=False, labels=[label()]),
        ]
        assert category_rates(outcomes)["task_deviation"] == Fraction(1)

    def test_no_attempted_cases_is_typed(self):
        with pytest.raises(EmptyCampaign):
            category_rates([outcome(applied=False)])


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


def mini_campaign(tmp_path, operators=("RD", "CK")):
    corpus_path = tmp_path / "corpus.json"
    corpus_path.write_text(
        serialize_corpus(
            [
                make_case(
                    "k1",
                    scripted=(
                        scripted_return(
                            "searcher", {"query": "books about whales"}, payload={"hits": 1}
                        ),
                    ),
                )
            ]
        ),
        encoding="utf-8",
    )
    config = CampaignConfig(
        corpus_path=str(corpus_path),
        out_dir=str(tmp_path / "out"),
        operators=operators,
        seed=0,
    )
    log_path = run_campaign(config)
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
        )
        with pytest.raises(CampaignError):
            collect_results(read_log(log_path))

    def test_headerless_log_is_an_error(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text(log_line({"event": "trajectory"}) + "\n", encoding="utf-8")
        with pytest.raises(CampaignError):
            collect_results(read_log(str(path)))

    def test_driver_errors_counted_per_operator(self, tmp_path):
        log_path = mini_campaign(tmp_path)
        with open(log_path, "a", encoding="utf-8") as handle:
            handle.write(
                log_line(
                    {
                        "event": "trajectory_error",
                        "operator": "RD",
                        "case_id": "k1",
                        "seed": 1,
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
