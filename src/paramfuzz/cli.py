"""Command-line entry point.

Subcommands cover the whole pipeline:

    validate   parse a corpus and print lint findings
    perturb    apply one operator to one case and print the artifact
    run        execute a campaign (optionally classify + report in one go)
    classify   append classifications to an existing campaign log
    report     emit report.json / report_table.csv / report.md
    demo       run the five shipped failure fixtures and check them

Exit codes: 0 success, 1 validation failure, 2 campaign error (including
an input or output file that cannot be opened), 3 demo assertion failure.
"""

from __future__ import annotations

import argparse
import importlib.resources
import json
import sys
import tempfile

from paramfuzz import __version__
from paramfuzz.campaign import (
    CampaignConfig,
    classify_log,
    read_log,
    run_campaign,
)
from paramfuzz.corpus import (
    _each,
    _expect,
    _json_document,
    _record,
    _string,
    all_tools,
    filter_cases,
    lint_case,
    load_corpus,
    query_to_json,
    return_to_json,
    tool_to_json,
)
from paramfuzz.driver import EndpointConfig
from paramfuzz.errors import (
    CampaignError,
    MalformedInput,
    ParamFuzzError,
    PerturbSkip,
    SchemaViolation,
    SpanMismatch,
)
from paramfuzz.perturb import (
    ALL_OPERATORS,
    SOURCE_OF_OPERATOR,
    apply_document_operator,
    apply_query_operator,
    apply_return_operator,
)
from paramfuzz.reporting import collect_results, emit_report

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CAMPAIGN = 2
EXIT_DEMO = 3


def _print_json(obj: object) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False))


def cmd_validate(args: argparse.Namespace) -> int:
    cases = load_corpus(args.corpus)
    findings = [finding for case in cases for finding in lint_case(case)]
    kept = filter_cases(cases)
    print(
        f"{len(cases)} case(s) parsed, {len(kept)} survive filtering, "
        f"{len(findings)} lint finding(s)"
    )
    for finding in findings:
        print(f"{finding.case_id}: {finding.code}: {finding.message}", file=sys.stderr)
    return EXIT_VALIDATION if findings else EXIT_OK


def cmd_perturb(args: argparse.Namespace) -> int:
    cases = load_corpus(args.corpus)
    case = next((c for c in cases if c.case_id == args.case), None)
    if case is None:
        raise CampaignError(f"case {args.case!r} not found in {args.corpus}")
    operator = args.operator
    source = SOURCE_OF_OPERATOR.get(operator)
    if source is None:
        raise CampaignError(
            f"unknown operator {operator!r}; valid ids: {', '.join(ALL_OPERATORS)}"
        )
    if source == "document":
        donors = all_tools(cases)
        for tool in case.tools:
            try:
                perturbed, record = apply_document_operator(
                    operator, tool, seed=args.seed, donors=donors
                )
            except PerturbSkip as exc:
                print(f"skip {tool.tool_name}: {exc}")
                continue
            _print_json({"tool": tool_to_json(perturbed), "record": record.to_json()})
    elif source == "query":
        try:
            perturbed_query, record = apply_query_operator(operator, case.query)
        except PerturbSkip as exc:
            print(f"skip query: {exc}")
            return EXIT_OK
        _print_json({"query": query_to_json(perturbed_query), "record": record.to_json()})
    else:
        if not case.scripted_returns:
            print("skip return: case has no scripted returns")
            return EXIT_OK
        first = case.scripted_returns[0]
        try:
            perturbed_return, record = apply_return_operator(operator, first.value)
        except PerturbSkip as exc:
            print(f"skip return: {exc}")
            return EXIT_OK
        _print_json({"return": return_to_json(perturbed_return), "record": record.to_json()})
    return EXIT_OK


# The run settings: each config-file key, the JSON type the file must give
# it, and the CampaignConfig field it sets. Each key is also the dest of the
# run flag that sets it; endpoint is read from the file alone.
_RUN_SETTINGS = (
    ("corpus", "string", "corpus_path"),
    ("out", "string", "out_dir"),
    ("operators", None, "operators"),
    ("driver", "string", "driver"),
    ("seed", "integer", "seed"),
    ("workers", "integer", "workers"),
    ("step_limit", "integer", "step_limit"),
    ("max_observation_length", "integer", "max_observation_length"),
    ("scripts", "string", "scripts_path"),
    ("endpoint", "object", "endpoint"),
)


def _load_config_file(path: str | None) -> dict[str, object]:
    if path is None:
        return {}
    with open(path, "rb") as handle:
        obj = _json_document(handle.read(), "config file")
    return _record(obj, tuple((key, jtype, False) for key, jtype, _ in _RUN_SETTINGS), "config")


def _build_campaign_config(args: argparse.Namespace) -> CampaignConfig:
    """Pass CampaignConfig each setting a flag or the config file gives; a
    flag wins over the file, and CampaignConfig holds every default."""
    file_config = _load_config_file(args.config)
    values: dict[str, object] = {}
    for key, _, name in _RUN_SETTINGS:
        value = getattr(args, key, None)
        if value is None:
            value = file_config.get(key)
        if value is not None:
            values[name] = value
    if "corpus_path" not in values:
        raise CampaignError("a corpus path is required (--corpus or config 'corpus')")
    if "out_dir" not in values:
        raise CampaignError("an output directory is required (--out or config 'out')")
    operators = values.get("operators")
    if isinstance(operators, str):
        values["operators"] = tuple(op.strip() for op in operators.split(",") if op.strip())
    elif operators is not None:
        where = "config.operators"
        values["operators"] = _each(_expect("array", operators, where), where, None, _string)
    if "endpoint" in values:
        values["endpoint"] = EndpointConfig.from_json(values["endpoint"])
    return CampaignConfig(**values)  # type: ignore[arg-type]


def cmd_run(args: argparse.Namespace) -> int:
    config = _build_campaign_config(args)
    log_path = run_campaign(config)
    print(f"campaign log: {log_path}")
    if args.classify or args.report:
        log = read_log(log_path)
        appended = classify_log(log, config.corpus_path)
        print(f"classified {appended} trajectory(ies)")
        if args.report:
            paths = emit_report(log, config.out_dir)
            for kind in ("json", "csv", "md"):
                print(f"report {kind}: {paths[kind]}")
    return EXIT_OK


def cmd_classify(args: argparse.Namespace) -> int:
    appended = classify_log(read_log(args.log), args.corpus)
    print(f"classified {appended} trajectory(ies)")
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    paths = emit_report(read_log(args.log), args.out)
    for kind in ("json", "csv", "md"):
        print(f"report {kind}: {paths[kind]}")
    return EXIT_OK


def _demo_dir():
    return importlib.resources.files("paramfuzz").joinpath("data", "demo")


def cmd_demo(args: argparse.Namespace) -> int:
    data = _demo_dir()
    with importlib.resources.as_file(data) as root:
        manifest = json.loads((root / "manifest.json").read_text(encoding="utf-8"))
        with tempfile.TemporaryDirectory(prefix="paramfuzz-demo-") as out_dir:
            config = CampaignConfig(
                corpus_path=str(root / "corpus.json"),
                out_dir=out_dir,
                operators=(str(manifest["operator"]),),
                driver="replay",
                scripts_path=str(root / "scripts.json"),
            )
            log = read_log(run_campaign(config))
            classify_log(log, config.corpus_path)
            results = collect_results(log)
    outcomes = {outcome.case_id: outcome for outcome in results.outcomes}
    failures = 0
    for fixture in manifest["cases"]:
        case_id = str(fixture["case_id"])
        category = str(fixture["category"])
        exact = sorted(str(f) for f in fixture["exact_flags"])
        outcome = outcomes.get(case_id)
        problems: list[str] = []
        if outcome is None:
            problems.append("no trajectory was classified")
        else:
            flagged = sorted({f for label in outcome.labels for f in label.flagged_categories()})
            hits = [
                label
                for label in outcome.labels
                if getattr(label, category) and label.evidence.get(category)
            ]
            if not hits:
                problems.append(f"{category} did not fire with evidence")
            if flagged != exact:
                problems.append(f"flagged {flagged or ['nothing']}, wanted {exact}")
        if problems:
            failures += 1
            print(f"FAIL {case_id} [{category}]: " + "; ".join(problems))
        else:
            print(f"pass {case_id} [{category}]")
    total = len(manifest["cases"])
    print(f"{total - failures}/{total} fixtures classified as intended")
    return EXIT_OK if failures == 0 else EXIT_DEMO


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paramfuzz",
        description=(
            "Perturb the parameter-information sources of tool-agent test "
            "cases, replay an agent over them, and classify every tool "
            "invocation against the case oracle."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="parse a corpus and lint every case")
    p_validate.add_argument("--corpus", required=True, help="corpus JSON path")
    p_validate.set_defaults(func=cmd_validate)

    p_perturb = sub.add_parser("perturb", help="apply one operator to one case")
    p_perturb.add_argument("--corpus", required=True)
    p_perturb.add_argument("--operator", required=True, metavar="ID")
    p_perturb.add_argument("--case", required=True, metavar="CASE_ID")
    p_perturb.add_argument("--seed", type=int, default=0)
    p_perturb.set_defaults(func=cmd_perturb)

    p_run = sub.add_parser("run", help="execute a perturbation campaign")
    p_run.add_argument("--corpus")
    p_run.add_argument("--out")
    p_run.add_argument("--operators", help="comma-separated operator ids (default: all 15)")
    p_run.add_argument("--driver", choices=("replay", "http"))
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--workers", type=int)
    p_run.add_argument("--step-limit", type=int, dest="step_limit")
    p_run.add_argument("--max-obs-len", type=int, dest="max_observation_length")
    p_run.add_argument("--scripts", help="script book JSON for the replay driver")
    p_run.add_argument("--config", help="JSON config file (endpoint and run settings; flags win)")
    p_run.add_argument("--classify", action="store_true", help="classify after running")
    p_run.add_argument("--report", action="store_true", help="classify and report after running")
    p_run.set_defaults(func=cmd_run)

    p_classify = sub.add_parser("classify", help="append classifications to a log")
    p_classify.add_argument("--log", required=True)
    p_classify.add_argument("--corpus", required=True)
    p_classify.set_defaults(func=cmd_classify)

    p_report = sub.add_parser("report", help="emit reports from a classified log")
    p_report.add_argument("--log", required=True)
    p_report.add_argument("--out", required=True)
    p_report.set_defaults(func=cmd_report)

    p_demo = sub.add_parser("demo", help="run the five shipped failure fixtures")
    p_demo.set_defaults(func=cmd_demo)

    return parser


def _located(exc: Exception) -> str:
    """The error message, led by the field it concerns unless the message
    already starts with that field or with the record holding it, and
    followed by the case it concerns."""
    message = str(exc)
    where = getattr(exc, "field", None)
    if where and not message.startswith((where, where.rpartition(".")[0] + " ")):
        message = f"{where}: {message}"
    case_id = getattr(exc, "case_id", None)
    if case_id:
        message += f" (case {case_id})"
    return message


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MalformedInput, SchemaViolation, SpanMismatch) as exc:
        print(f"validation error: {_located(exc)}", file=sys.stderr)
        return EXIT_VALIDATION
    except ParamFuzzError as exc:
        print(f"campaign error: {exc}", file=sys.stderr)
        return EXIT_CAMPAIGN
    except OSError as exc:
        if exc.filename is None:
            raise
        print(f"campaign error: cannot open {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_CAMPAIGN


if __name__ == "__main__":
    sys.exit(main())
