"""Mutation fuzzing of every input file, through the command line.

Each input kind contributes one record: a corpus of one demo case, the
script book entry for that case, a run config file, and one event of each
kind in a demo campaign log. Every path of the record is set to each value
of a fixed palette, or deleted, and the command that reads the input runs
in-process. Any exit code is allowed, but no exception may escape
cli.main: a malformed input ends in a typed error (a ParamFuzzError,
which main turns into exit 1 or 2) or in a missing-file message.

The mutations are enumerated in a fixed order, so every run tries the
same inputs.
"""

from __future__ import annotations

import copy
import functools
import importlib.resources
import itertools
import json
import sys

import pytest

from paramfuzz import cli
from paramfuzz.campaign import derived_seed, read_log
from paramfuzz.cli import EXIT_CAMPAIGN, EXIT_OK, EXIT_VALIDATION, main
from paramfuzz.corpus import MAX_NESTING
from paramfuzz.perturb import RETURN_OPERATORS

CASE_ID = "d3_wrong_region"
# Deeper than the JSON decoder can follow at the interpreter's recursion limit.
DEEP = "[" * (3 * sys.getrecursionlimit()) + "]" * (3 * sys.getrecursionlimit())
_DEEP_MARK = "deep nesting goes here"

# Wrong type, null, NaN, a big integer, empty values, a lone surrogate and
# deep nesting; a deleted key is the eleventh mutation.
PALETTE = (True, None, float("nan"), 2**70, "", [], {}, "\ud800", _DEEP_MARK)
_DELETE = object()


def _demo(name):
    root = importlib.resources.files("paramfuzz").joinpath("data", "demo")
    return json.loads((root / name).read_text(encoding="utf-8"))


def _paths(value, prefix=()):
    yield prefix
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, item in items:
        yield from _paths(item, prefix + (key,))


def _mutated(record, path, value):
    """A copy of record whose value at path is value, or deleted."""
    if not path:
        return None if value is _DELETE else value
    record = copy.deepcopy(record)
    parent = record
    for key in path[:-1]:
        parent = parent[key]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return record


def mutations(record):
    """(label, mutated record) for each palette value and the deletion at
    every path of record; the root is replaced but never deleted."""
    for path in _paths(record):
        for value in PALETTE + ((_DELETE,) if path else ()):
            change = "delete" if value is _DELETE else repr(value)
            label = f"{'.'.join(map(str, path)) or '<root>'} = {change}"
            yield label, _mutated(record, path, value)


def dumps(value) -> str:
    """JSON text with lone surrogates as escapes and the deep-nesting mark
    replaced by deeply nested arrays."""
    return json.dumps(value).replace(json.dumps(_DEEP_MARK), DEEP)


def _run(argv) -> int | str:
    """main's exit code, or the exception that escaped it."""
    try:
        return main(argv)
    except Exception as exc:  # An escape is what the test looks for.
        return f"{type(exc).__name__}: {exc}"


def _fuzz(record, command):
    """Run command(text) for every mutation of record; return the ones
    that did not end in an exit code of main."""
    escaped = []
    for label, mutated in mutations(record):
        outcome = command(dumps(mutated))
        if outcome not in (EXIT_OK, EXIT_VALIDATION, EXIT_CAMPAIGN):
            escaped.append(f"{label}: {outcome}")
    return escaped


@pytest.fixture
def inputs(tmp_path, monkeypatch):
    """A one-case corpus, its script book, and a classified log of it with
    a trajectory error added for a pair that did not run, as files, and the
    log's events."""
    # Building the parser costs more than most runs; parsing does not change it.
    monkeypatch.setattr(cli, "build_parser", functools.cache(cli.build_parser))
    cases = [case for case in _demo("corpus.json")["cases"] if case["case_id"] == CASE_ID]
    corpus = {"schema_version": 1, "cases": cases}
    scripts = {"scripts": {CASE_ID: _demo("scripts.json")["scripts"][CASE_ID]}}
    (tmp_path / "corpus.json").write_text(json.dumps(corpus), encoding="utf-8")
    (tmp_path / "scripts.json").write_text(json.dumps(scripts), encoding="utf-8")
    argv = ["run", "--corpus", str(tmp_path / "corpus.json"), "--scripts", str(tmp_path / "scripts.json")]
    assert main(argv + ["--out", str(tmp_path / "run"), "--operators", "RD,CK", "--classify"]) == EXIT_OK
    with open(tmp_path / "run" / "campaign.jsonl", encoding="utf-8") as handle:
        events = [json.loads(line) for line in handle]
    error = {"event": "trajectory_error", "operator": "RD", "case_id": "d3_unrun",
             "seed": derived_seed(0, "RD", "d3_unrun"),
             "error": "TransportError", "message": "endpoint failure (HTTP 503)"}
    events.insert(3, error)
    return tmp_path, corpus, scripts, events


def _writer(path):
    def write(text):
        path.write_text(text, encoding="utf-8")
        return str(path)
    return write


def test_corpus_mutations_end_in_typed_errors(inputs):
    tmp_path, corpus, _, _ = inputs
    write = _writer(tmp_path / "mutated.json")
    assert _fuzz(corpus, lambda text: _run(["validate", "--corpus", write(text)])) == []


def test_script_book_mutations_end_in_typed_errors(inputs):
    tmp_path, _, scripts, _ = inputs
    write = _writer(tmp_path / "mutated.json")
    runs = itertools.count()

    def command(text):
        return _run([
            "run", "--corpus", str(tmp_path / "corpus.json"), "--scripts", write(text),
            "--operators", "RD", "--out", str(tmp_path / f"out{next(runs)}"),
        ])

    assert _fuzz(scripts, command) == []


def test_config_mutations_end_in_typed_errors(inputs):
    tmp_path, _, _, _ = inputs
    write = _writer(tmp_path / "config.json")
    config = {
        "corpus": str(tmp_path / "corpus.json"),
        "out": str(tmp_path / "out"),
        "operators": ["RD"],
        "driver": "replay",
        "seed": 0,
        "workers": 1,
        "step_limit": 8,
        "max_observation_length": 1024,
        "scripts": str(tmp_path / "scripts.json"),
        # Read and checked, never contacted: the replay driver makes no request.
        "endpoint": {"base_url": "http://127.0.0.1:9", "model": "m", "max_retries": 0},
    }
    runs = itertools.count()

    def command(text):
        # Each run writes a new log unless the mutation moved "out".
        text = text.replace(json.dumps(config["out"]), json.dumps(f"{config['out']}{next(runs)}"))
        return _run(["run", "--config", write(text)])

    assert _fuzz(config, command) == []


@pytest.mark.parametrize("kind", ["campaign_meta", "trajectory", "trajectory_error", "classification"])
def test_log_mutations_end_in_typed_errors(inputs, kind):
    tmp_path, _, _, events = inputs
    index = next(i for i, event in enumerate(events) if event["event"] == kind)
    lines = [dumps(event) for event in events]

    def command(text):
        log = tmp_path / "mutated.jsonl"
        log.write_text("\n".join(lines[:index] + [text] + lines[index + 1:]) + "\n", encoding="utf-8")
        classified = _run(["classify", "--log", str(log), "--corpus", str(tmp_path / "corpus.json")])
        reported = _run(["report", "--log", str(log), "--out", str(tmp_path / "report")])
        return classified if classified not in (EXIT_OK, EXIT_VALIDATION, EXIT_CAMPAIGN) else reported

    assert _fuzz(events[index], command) == []


# ------------------------------------------------ one case per defect class


def _log_with(tmp_path, events, change):
    events = copy.deepcopy(events)
    change(events)
    log = tmp_path / "changed.jsonl"
    log.write_text("".join(dumps(event) + "\n" for event in events), encoding="utf-8")
    return str(log)


def test_an_unknown_top_level_script_book_key_is_a_validation_error(inputs, capsys):
    tmp_path, _, scripts, _ = inputs
    write = _writer(tmp_path / "mutated.json")
    argv = ["run", "--corpus", str(tmp_path / "corpus.json"), "--operators", "RD", "--out", str(tmp_path / "out")]
    # A misspelled copy of the scripts, or any other value, under a key the book does not have.
    for value in (scripts["scripts"], None, {}, [], ""):
        assert main(argv + ["--scripts", write(dumps({**scripts, "scripz": value}))]) == EXIT_VALIDATION
        assert capsys.readouterr().err == "validation error: script book has unknown key 'scripz'\n"
    assert not (tmp_path / "out").exists()


def test_a_header_operator_that_is_not_a_string_is_a_validation_error(inputs, capsys):
    tmp_path, _, _, events = inputs
    for bad, got in (([], "array"), (1, "integer")):
        log = _log_with(tmp_path, events, lambda e: e[0].update(operators=[bad, *e[0]["operators"]]))
        assert main(["report", "--log", log, "--out", str(tmp_path / "report")]) == EXIT_VALIDATION
        assert f"log line 1.operators[0] must be a string, got {got}" in capsys.readouterr().err
    assert not (tmp_path / "report").exists()


def test_an_aligned_label_without_its_indices_reads_them_as_null(inputs):
    tmp_path, _, _, events = inputs
    index = next(i for i, event in enumerate(events) if event["event"] == "classification")
    label = events[index]["labels"][0]

    def drop_indices(e):
        for key in ("observed_index", "oracle_index"):
            del e[index]["labels"][0][key]

    log = _log_with(tmp_path, events, drop_indices)
    read = read_log(log).classifications
    event = events[index]
    aligned = read[(event["operator"], event["case_id"])].aligned[0]
    assert (aligned.observed_index, aligned.oracle_index) == (None, None)
    assert main(["report", "--log", log, "--out", str(tmp_path / "report")]) == EXIT_OK
    report = json.loads((tmp_path / "report" / "report.json").read_text(encoding="utf-8"))
    assert report["cases"][events[index]["operator"]][CASE_ID]["labels"][0] == label["label"]


def test_a_lone_surrogate_is_malformed_input(inputs, capsys):
    tmp_path, corpus, _, events = inputs
    corpus = copy.deepcopy(corpus)
    corpus["cases"][0]["scripted_returns"][0]["arguments"]["region"] = "\ud800"
    text = dumps(corpus)
    path = _writer(tmp_path / "surrogate.json")(text)
    assert main(["validate", "--corpus", path]) == EXIT_VALIDATION
    offset = len(text[: text.index("\\ud800")].encode("utf-8"))
    expected = f"corpus is not valid JSON at byte {offset}: lone surrogate escape \\ud800"
    assert expected in capsys.readouterr().err
    # A surrogate pair is one character, and an escaped backslash starts no escape.
    for fine in ("\U0001f600", "\\ud800"):
        corpus["cases"][0]["scripted_returns"][0]["arguments"]["region"] = fine
        assert main(["validate", "--corpus", _writer(tmp_path / "fine.json")(dumps(corpus))]) == EXIT_OK
    log = _log_with(tmp_path, events, lambda e: e[1].update(case_id="\ud800"))
    assert main(["report", "--log", log, "--out", str(tmp_path / "report")]) == EXIT_VALIDATION
    assert "log line 2 is not valid JSON: lone surrogate escape \\ud800" in capsys.readouterr().err


def test_deep_nesting_is_malformed_input(inputs, capsys):
    tmp_path, _, _, events = inputs
    path = tmp_path / "deep.json"
    path.write_bytes(b"[" * 100_000)
    assert main(["validate", "--corpus", str(path)]) == EXIT_VALIDATION
    expected = "corpus is not valid JSON at byte 99999: arrays and objects nest too deeply"
    assert expected in capsys.readouterr().err
    log = tmp_path / "deep.jsonl"
    log.write_text(dumps(events[0]) + "\n" + "[" * 100_000 + "\n", encoding="utf-8")
    assert main(["report", "--log", str(log), "--out", str(tmp_path / "report")]) == EXIT_VALIDATION
    assert "log line 2 is not valid JSON: arrays and objects nest too deeply" in capsys.readouterr().err


DEEPER_THAN_CANONICAL = json.loads("[" * 600 + "]" * 600)


@pytest.mark.parametrize("record", ["oracle", "scripted_returns"])
def test_arguments_nested_past_canonical_json_are_a_validation_error(inputs, capsys, record):
    """Nesting the decoder follows but canonical_json refuses, in the
    arguments replay and classification compare."""
    tmp_path, corpus, _, _ = inputs
    corpus = copy.deepcopy(corpus)
    arguments = corpus["cases"][0][record][0]["arguments"]
    arguments[next(iter(arguments))] = DEEPER_THAN_CANONICAL
    path = _writer(tmp_path / "deep.json")(json.dumps(corpus))
    assert main(["validate", "--corpus", path]) == EXIT_VALIDATION
    expected = (
        f"validation error: {record}[0].arguments: arrays and objects nest more than "
        f"{MAX_NESTING} levels deep (case {CASE_ID})"
    )
    assert expected in capsys.readouterr().err


def test_script_arguments_nested_past_canonical_json_are_a_validation_error(inputs, capsys):
    tmp_path, _, scripts, _ = inputs
    scripts = copy.deepcopy(scripts)
    arguments = scripts["scripts"][CASE_ID][0]["action"]["arguments"]
    arguments[next(iter(arguments))] = DEEPER_THAN_CANONICAL
    path = _writer(tmp_path / "deep.json")(json.dumps(scripts))
    argv = ["run", "--corpus", str(tmp_path / "corpus.json"), "--scripts", path, "--out", str(tmp_path / "o")]
    assert main(argv) == EXIT_VALIDATION
    expected = (
        f"validation error: scripts.{CASE_ID}[0].action.arguments: arrays and objects nest more "
        f"than {MAX_NESTING} levels deep"
    )
    assert expected in capsys.readouterr().err


def _mock_campaign_with_deep_payload(tmp_path, depth: int) -> str:
    """The packaged mock_campaign corpus, with m01's first scripted-return
    payload nested depth levels deep (the payload object is level 1), as a
    file."""
    root = importlib.resources.files("paramfuzz").joinpath("data", "mock_campaign")
    corpus = json.loads((root / "corpus.json").read_text(encoding="utf-8"))
    nested: object = 0
    for _ in range(depth - 1):
        nested = [nested]
    case = next(case for case in corpus["cases"] if case["case_id"] == "m01")
    case["scripted_returns"][0]["return"]["payload"]["items"] = nested
    return _writer(tmp_path / f"deep{depth}.json")(json.dumps(corpus))


def test_a_payload_nested_max_nesting_deep_runs_under_every_return_operator(tmp_path):
    path = _mock_campaign_with_deep_payload(tmp_path, MAX_NESTING)
    assert main(["validate", "--corpus", path]) == EXIT_OK
    out = tmp_path / "out"
    argv = ["run", "--corpus", path, "--operators", ",".join(RETURN_OPERATORS), "--out", str(out)]
    assert main(argv + ["--report"]) == EXIT_OK
    log = read_log(str(out / "campaign.jsonl"))
    assert not log.errors
    assert {key[0] for key in log.trajectories if key[1] == "m01"} == set(RETURN_OPERATORS)


def test_a_payload_nested_deeper_is_a_validation_error(tmp_path, capsys):
    """The return operators walk a payload recursively, so a payload deeper
    than MAX_NESTING is refused when the corpus is read, never run."""
    path = _mock_campaign_with_deep_payload(tmp_path, MAX_NESTING + 1)
    expected = (
        "validation error: scripted_returns[0].return.payload: arrays and objects nest more "
        f"than {MAX_NESTING} levels deep (case m01)"
    )
    assert main(["validate", "--corpus", path]) == EXIT_VALIDATION
    assert expected in capsys.readouterr().err
    argv = ["run", "--corpus", path, "--operators", ",".join(RETURN_OPERATORS)]
    assert main(argv + ["--out", str(tmp_path / "out"), "--report"]) == EXIT_VALIDATION
    assert expected in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
