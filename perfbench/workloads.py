"""Workload generators and correctness checks for the pipeline benchmark.

Each generator takes the workload seed and an output directory, writes a
corpus, a script book and (for ``http_fake``) a fake-endpoint plan and a
config file, and returns a ``Workload``: the CLI command sequence to run
and what a correct report must contain. The same seed always writes the
same bytes. The generators write JSON themselves instead of calling the
package's serializers, so a change to those serializers cannot change
the benchmark's inputs.
"""

from __future__ import annotations

import importlib.resources
import json
import os
import random
from dataclasses import dataclass, field

from paramfuzz.perturb import ALL_OPERATORS

# breadth: the packaged mock campaign, replicated. Every pair is a one-call
# trajectory over a 20-tool donor pool, so per-pair fixed costs (script
# resolution, seed derivation, log serialization and the log parse-back)
# dominate, and WD costs almost nothing. 25 replicas (500 runnable cases,
# 7,500 trajectories) keep one `run --report` near 3 s on a 2-core VM, so a
# run of the benchmark holds several samples and the median is steady.
BREADTH_REPLICAS = 25

# depth: few cases, each deep. 4 tools x 10 parameters, a 6-call oracle,
# 32 scripted returns scanned per call, 25-item payloads longer than the
# 1024-character observation budget, and tool names unique to each case, so
# WD's donor pool grows with the corpus. Per-step and per-document costs
# dominate: the scripted-return scan, return operators walking large
# payloads at every step, truncation and classifying 6 invocations.
DEPTH_CASES = 60

# http_fake: depth-shaped cases through the HTTP driver against an
# in-process fake endpoint. The driver waits instead of computing, so the
# thread pool, retries, prompt rendering and ReAct parsing matter, and
# replay-only optimisations should leave it unchanged. Its separate
# classify and report commands cover the standalone read path.
HTTP_CASES = 24
HTTP_WORKERS = 2

# Share of (operator, case) pairs in depth, and of cases in http_fake, that
# are planted to fail.
PLANTED_SHARE = 0.1

DEPTH_TOOLS = 4
DEPTH_ORACLE_CALLS = 6
DEPTH_SCRIPTED_RETURNS = 32
DEPTH_PAYLOAD_ITEMS = 25

FAKE_BASE_URL = "http://127.0.0.1:9/v1"

_WORDS = (
    "amber", "basin", "cobalt", "delta", "ember", "fjord", "granite", "harbor",
    "indigo", "juniper", "kestrel", "lagoon", "meadow", "nectar", "onyx",
    "prairie", "quartz", "ridge", "saffron", "tundra", "umber", "valley",
    "willow", "xenon", "yarrow", "zephyr",
)


@dataclass
class Workload:
    """Generated inputs plus the commands and the expected report."""

    name: str
    commands: list[list[str]]
    out_dir: str
    log_path: str
    pairs: int
    expected: dict[str, object]
    fake_plan: str | None = None
    files: list[str] = field(default_factory=list)


def _write_json(path: str, obj: object) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(obj, sort_keys=True, ensure_ascii=False) + "\n")


def _mock_campaign() -> tuple[dict, dict, dict]:
    data = importlib.resources.files("paramfuzz").joinpath("data", "mock_campaign")
    corpus = json.loads(data.joinpath("corpus.json").read_text(encoding="utf-8"))
    scripts = json.loads(data.joinpath("scripts.json").read_text(encoding="utf-8"))
    counts = json.loads(data.joinpath("expected_counts.json").read_text(encoding="utf-8"))
    return corpus, scripts, counts


def generate_breadth(seed: int, root: str) -> Workload:
    """The packaged mock campaign, replicated BREADTH_REPLICAS times.

    The fixture is read from the installed package at run time, so a later
    correction of its cases or expected counts flows through unchanged. The
    seed is the campaign seed and also orders the replica labels.
    """
    corpus, scripts, counts = _mock_campaign()
    labels = [f"r{index:03d}" for index in range(BREADTH_REPLICAS)]
    random.Random(f"breadth:{seed}").shuffle(labels)
    cases = []
    book = {}
    for label in labels:
        for case in corpus["cases"]:
            cases.append({**case, "case_id": f"{case['case_id']}{label}"})
        for key, steps in scripts["scripts"].items():
            operator, sep, case_id = key.rpartition(":")
            book[f"{operator}{sep}{case_id}{label}"] = steps
    return _replay_workload(
        "breadth",
        root,
        seed,
        {"schema_version": corpus["schema_version"], "cases": cases},
        {"scripts": book},
        pairs=int(counts["trajectories"]) * BREADTH_REPLICAS,
        expected={"kind": "scaled_counts", "factor": BREADTH_REPLICAS, "counts": counts},
    )


def _replay_workload(
    name: str, root: str, seed: int, corpus: dict, book: dict, *, pairs: int, expected: dict
) -> Workload:
    os.makedirs(root, exist_ok=True)
    corpus_path = os.path.join(root, "corpus.json")
    scripts_path = os.path.join(root, "scripts.json")
    _write_json(corpus_path, corpus)
    _write_json(scripts_path, book)
    out_dir = os.path.join(root, "out")
    run = [
        "run", "--corpus", corpus_path, "--scripts", scripts_path,
        "--out", out_dir, "--seed", str(seed), "--report",
    ]
    return Workload(
        name=name,
        commands=[run],
        out_dir=out_dir,
        log_path=os.path.join(out_dir, "campaign.jsonl"),
        pairs=pairs,
        expected=expected,
        files=[corpus_path, scripts_path],
    )


def _sentence(rng: random.Random, count: int) -> str:
    return " ".join(rng.choice(_WORDS) for _ in range(count))


def _tool(rng: random.Random, name: str) -> dict:
    """One 10-parameter tool; every operator has something to perturb."""
    topic = _sentence(rng, 2)

    def desc(what: str) -> str:
        return f"{what} for {name} ({topic}); {_sentence(rng, 4)}."

    parameters = [
        {"name": "record_id", "ptype": "string", "required": True,
         "description": desc("Record identifier"), "format": "[A-Z]{3}-[0-9]{4}",
         "example": "ABC-1234"},
        {"name": "query", "ptype": "string", "required": True,
         "description": desc("Search text")},
        {"name": "limit", "ptype": "integer", "required": True,
         "description": desc("Maximum rows"), "range": [1, 100]},
        {"name": "mode", "ptype": "string", "required": False,
         "description": desc("Result verbosity"), "enum_values": ["brief", "full", "raw"]},
        {"name": "threshold", "ptype": "number", "required": False,
         "description": desc("Minimum score"), "range": [0, 1]},
        {"name": "include_archived", "ptype": "boolean", "required": False,
         "description": desc("Whether archived rows count")},
        {"name": "tags", "ptype": "array", "required": False,
         "description": desc("Tags every row must carry")},
        {"name": "filters", "ptype": "object", "required": False,
         "description": desc("Field filters")},
        {"name": "owner_id", "ptype": "string", "required": False,
         "description": desc("Owner identifier")},
        {"name": "locale", "ptype": "string", "required": False,
         "description": desc("Response language"), "enum_values": ["en", "de", "fr", "ja"]},
    ]
    return {
        "tool_name": name,
        "description": f"Look up {topic} records in {name}.",
        "parameters": parameters,
        "usage_examples": [f'{name}(record_id="ABC-1234", query="{topic}", limit=5)'],
    }


_OPTIONAL_VALUES = {
    "mode": lambda rng: rng.choice(["brief", "full", "raw"]),
    "threshold": lambda rng: rng.choice([0.25, 0.5, 0.75]),
    "include_archived": lambda rng: rng.random() < 0.5,
    "tags": lambda rng: [rng.choice(_WORDS), rng.choice(_WORDS)],
    "owner_id": lambda rng: f"usr_{rng.randrange(10000):04d}",
    "locale": lambda rng: rng.choice(["en", "de", "fr", "ja"]),
}


def _arguments(rng: random.Random) -> dict:
    args = {
        "record_id": f"{''.join(rng.choice('ABCDEFGHJKLMNPQRSTUVWXYZ') for _ in range(3))}-{rng.randrange(10000):04d}",
        "query": f"{rng.choice(_WORDS)} {rng.choice(_WORDS)} {rng.randrange(1000)}",
        "limit": rng.randrange(1, 101),
    }
    for name in rng.sample(sorted(_OPTIONAL_VALUES), 2):
        args[name] = _OPTIONAL_VALUES[name](rng)
    return args


def _payload(rng: random.Random, call: int) -> dict:
    """A 25-item result, longer than the 1024-character observation budget,
    with snake_case, camelCase and ID keys for every return operator."""
    items = [
        {
            "item_id": rng.randrange(100000),
            "itemName": f"{rng.choice(_WORDS)}-{index}",
            "owner_id": f"usr_{rng.randrange(10000):04d}",
            "score": round(rng.random(), 3),
        }
        for index in range(DEPTH_PAYLOAD_ITEMS)
    ]
    return {
        "result_id": f"RES-{call}-{rng.randrange(100000)}",
        "items": items,
        "pageInfo": {"page": 1, "total_count": len(items)},
    }


def depth_case(rng: random.Random, index: int) -> dict:
    """One synthetic deep case whose oracle passes every classifier check."""
    case_id = f"d{index:04d}"
    tools = [_tool(rng, f"{case_id}_t{j}") for j in range(DEPTH_TOOLS)]
    order = list(range(DEPTH_TOOLS)) + [rng.randrange(DEPTH_TOOLS) for _ in range(DEPTH_ORACLE_CALLS - DEPTH_TOOLS)]
    rng.shuffle(order)
    oracle = []
    text = "Please help with these lookups."
    mentions = []
    for step, tool_index in enumerate(order):
        tool_name = tools[tool_index]["tool_name"]
        args = _arguments(rng)
        oracle.append({"tool_name": tool_name, "arguments": args, "needed_params": sorted(args)})
        for param in ("record_id", "query"):
            prefix = f" Step {step + 1} uses {param} " if param == "record_id" else " and "
            start = len(text) + len(prefix)
            value = args[param]
            text = text + prefix + value
            mentions.append({"span": [start, start + len(value)], "param_name": param,
                             "tool_name": tool_name, "value_text": value})
        text += "."
    scripted = [
        {"tool_name": call["tool_name"], "arguments": call["arguments"],
         "return": {"payload": _payload(rng, step)}}
        for step, call in enumerate(oracle)
    ]
    seen = {(call["tool_name"], json.dumps(call["arguments"], sort_keys=True)) for call in oracle}
    while len(scripted) < DEPTH_SCRIPTED_RETURNS:
        call = rng.choice(oracle)
        decoy = {**call["arguments"], "limit": rng.randrange(1, 101)}
        key = (call["tool_name"], json.dumps(decoy, sort_keys=True))
        if key in seen:
            continue
        seen.add(key)
        scripted.append({"tool_name": call["tool_name"], "arguments": decoy,
                         "return": {"payload": {"result_id": f"RES-decoy-{len(scripted)}", "items": []}}})
    rng.shuffle(scripted)
    return {
        "case_id": case_id,
        "query": {"text": text, "mentions": mentions},
        "tools": tools,
        "oracle": oracle,
        "scripted_returns": scripted,
        "solvable": True,
    }


DEFECT_KINDS = ("value", "extra", "drop")


def defective_calls(case: dict, step: int, kind: str) -> list[dict]:
    """The oracle calls with one defect planted at ``step``.

    ``value`` changes a shared argument (task deviation), ``extra`` adds an
    undeclared argument (hallucinated name) and ``drop`` omits a needed
    parameter (missing information): each makes the case fail.
    """
    calls = [{"tool_name": c["tool_name"], "arguments": dict(c["arguments"])} for c in case["oracle"]]
    args = calls[step]["arguments"]
    if kind == "value":
        args["query"] = args["query"] + " (edited)"
    elif kind == "extra":
        args["page_token"] = "next"
    else:
        del args["limit"]
    return calls


def _script(calls: list[dict]) -> list[dict]:
    steps: list[dict] = [
        {"thought": f"Call {call['tool_name']}.", "action": call} for call in calls
    ]
    steps.append({"thought": "The task is complete.", "final_answer": "Done."})
    return steps


def generate_depth(seed: int, root: str) -> Workload:
    """DEPTH_CASES synthetic deep cases; PLANTED_SHARE of each operator's
    pairs are scripted to fail, every other pair replays its oracle."""
    rng = random.Random(f"depth:{seed}")
    cases = [depth_case(rng, index) for index in range(DEPTH_CASES)]
    book = {}
    failing = {}
    for operator in ALL_OPERATORS:
        planted = rng.sample(range(len(cases)), round(PLANTED_SHARE * len(cases)))
        failing[operator] = len(planted)
        for index in sorted(planted):
            case = cases[index]
            calls = defective_calls(case, rng.randrange(DEPTH_ORACLE_CALLS), rng.choice(DEFECT_KINDS))
            book[f"{operator}:{case['case_id']}"] = _script(calls)
    return _replay_workload(
        "depth",
        root,
        seed,
        {"schema_version": 1, "cases": cases},
        {"scripts": book},
        pairs=len(cases) * len(ALL_OPERATORS),
        expected={"kind": "planted", "attempted": len(cases), "failing": failing},
    )


def generate_http_fake(seed: int, root: str) -> Workload:
    """HTTP_CASES depth-shaped cases run through `--driver http` against the
    fake endpoint, then standalone `classify` and `report` commands.

    The plan maps each case's first tool name to the completions the fake
    endpoint gives; PLANTED_SHARE of the cases carry one defective call,
    so they fail under every operator.
    """
    rng = random.Random(f"http_fake:{seed}")
    cases = [depth_case(rng, index) for index in range(HTTP_CASES)]
    defective = set(rng.sample(range(len(cases)), round(PLANTED_SHARE * len(cases))))
    plan = {}
    for index, case in enumerate(cases):
        if index in defective:
            calls = defective_calls(case, rng.randrange(DEPTH_ORACLE_CALLS), rng.choice(DEFECT_KINDS))
        else:
            calls = [{"tool_name": c["tool_name"], "arguments": c["arguments"]} for c in case["oracle"]]
        plan[case["tools"][0]["tool_name"]] = calls
    os.makedirs(root, exist_ok=True)
    corpus_path = os.path.join(root, "corpus.json")
    plan_path = os.path.join(root, "fake_plan.json")
    config_path = os.path.join(root, "config.json")
    _write_json(corpus_path, {"schema_version": 1, "cases": cases})
    _write_json(plan_path, plan)
    _write_json(
        config_path,
        {
            "endpoint": {
                "base_url": FAKE_BASE_URL,
                "model": "fake-model",
                "rate_per_minute": 0,
                "backoff_base_s": 0.002,
            }
        },
    )
    out_dir = os.path.join(root, "out")
    log_path = os.path.join(out_dir, "campaign.jsonl")
    commands = [
        ["run", "--config", config_path, "--corpus", corpus_path, "--out", out_dir,
         "--driver", "http", "--workers", str(HTTP_WORKERS), "--seed", str(seed)],
        ["classify", "--log", log_path, "--corpus", corpus_path],
        ["report", "--log", log_path, "--out", out_dir],
    ]
    failing = {operator: len(defective) for operator in ALL_OPERATORS}
    return Workload(
        name="http_fake",
        commands=commands,
        out_dir=out_dir,
        log_path=log_path,
        pairs=len(cases) * len(ALL_OPERATORS),
        expected={"kind": "planted", "attempted": len(cases), "failing": failing},
        fake_plan=plan_path,
        files=[corpus_path, plan_path, config_path],
    )


GENERATORS = {
    "breadth": generate_breadth,
    "depth": generate_depth,
    "http_fake": generate_http_fake,
}


def trajectories_in_report(report: dict) -> tuple[int, int]:
    """(classified trajectories, trajectory_error events) in a report."""
    classified = errors = 0
    for block in report["operators"].values():
        classified += block["attempted"] + block["skipped_unperturbable"]
        errors += block["driver_errors"]
    return classified, errors


def check_report(workload: Workload, report: dict) -> list[str]:
    """Compare a report with what the generator planted; returns problems."""
    expected = workload.expected
    problems: list[str] = []
    operators = report["operators"]
    if expected["kind"] == "scaled_counts":
        factor = int(expected["factor"])
        counts = expected["counts"]
        for operator, attempted in counts["attempted"].items():
            block = operators.get(operator)
            if block is None:
                problems.append(f"{operator}: missing from the report")
                continue
            wanted = {
                "attempted": attempted * factor,
                "failure_rate_percent": counts["overall_failure_rate_percent"][operator],
                "categories": counts["category_failure_rate_percent"][operator],
                "rouge_joint": counts["rouge_joint_exceedance_percent"][operator],
            }
            joint = block["rouge_exceedance"]["joint"]
            got = {
                "attempted": block["attempted"],
                "failure_rate_percent": block["failure_rate_percent"],
                "categories": block["categories"],
                "rouge_joint": "n/a" if joint is None else joint,
            }
            for key in wanted:
                if got[key] != wanted[key]:
                    problems.append(f"{operator}: {key} is {got[key]!r}, expected {wanted[key]!r}")
        matrix = report["transfer_matrix"]
        if matrix["order"] != counts["transfer_category_order"]:
            problems.append("transfer matrix category order differs")
        scaled = [[value * factor for value in row] for row in counts["transfer_counts"]]
        if matrix["counts"] != scaled:
            problems.append("transfer matrix counts differ from the scaled fixture")
        if matrix["failing_invocations"] != counts["failing_invocations"] * factor:
            problems.append("failing invocation count differs from the scaled fixture")
    else:
        for operator, failing in expected["failing"].items():
            block = operators.get(operator)
            if block is None:
                problems.append(f"{operator}: missing from the report")
                continue
            attempted = int(expected["attempted"])
            wanted = (attempted, attempted - failing)
            got = (block["attempted"], block["passed"])
            if got != wanted:
                problems.append(f"{operator}: (attempted, passed) is {got}, planted {wanted}")
    return problems
