"""Run the same inputs under several interpreters and compare the outputs.

    python3 tests/interpreters.py [--seed N] PYTHON [PYTHON ...]

Each PYTHON is the path of an interpreter. For each one, the packaged
`mock_campaign` `run --report` (seed 0, the seed of its pins) and every
command sequence of `perfbench.workloads` (at `--seed`, default 3) run
in fresh processes through `perfbench/child.py`, with this checkout's
`src` first on the import path. Nothing is installed: an interpreter
without `requests` gets a stub module that the fake endpoint replaces, so
the http workload sends no request either way. The inputs are generated
once, by the interpreter that runs this script.

The script prints one sha256 table of each campaign log and its three
reports, with the number of interpreters that wrote each digest. It
exits 1 when an output has more than one digest, when a command fails,
or when a workload's report breaks its own check; otherwise 0. pytest
does not collect this file.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.resources
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
CHILD = os.path.join(PERFBENCH, "child.py")
sys.path[:0] = [os.path.join(ROOT, "src"), PERFBENCH]

import workloads  # noqa: E402

OUTPUTS = ("campaign.jsonl", "report.json", "report_table.csv", "report.md")

# Just what the HTTP driver reads of requests; the fake endpoint
# replaces post before the command starts.
REQUESTS_STUB = '''\
class RequestException(Exception):
    pass


def post(*args, **kwargs):
    raise RequestException("requests is not installed")
'''


def mock_campaign(root: str) -> workloads.Workload:
    data = importlib.resources.files("paramfuzz").joinpath("data", "mock_campaign")
    out_dir = os.path.join(root, "out")
    command = [
        "run", "--corpus", str(data / "corpus.json"), "--scripts", str(data / "scripts.json"),
        "--out", out_dir, "--seed", "0", "--report",
    ]
    return workloads.Workload(
        name="mock_campaign", commands=[command], out_dir=out_dir,
        log_path=os.path.join(out_dir, "campaign.jsonl"), pairs=0, expected={},
    )


def version_of(python: str, env: dict[str, str]) -> str:
    return subprocess.run(
        [python, "-c", "import platform; print(platform.python_version())"],
        capture_output=True, text=True, check=True, env=env,
    ).stdout.strip()


def environment(python: str, stub_dir: str) -> dict[str, str]:
    """The environment for one interpreter: the stub's directory on its path
    only when it cannot import requests itself."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    found = subprocess.run([python, "-c", "import requests"], capture_output=True, env=env)
    if found.returncode != 0:
        env["PYTHONPATH"] = stub_dir
    return env


def run_sequence(python: str, env: dict[str, str], workload, scratch: str) -> list[str]:
    """Run the workload's commands once from a clean output directory; the
    problems found, none when every command exited 0."""
    shutil.rmtree(workload.out_dir, ignore_errors=True)
    for command in workload.commands:
        argv = [python, CHILD, "--stats", os.path.join(scratch, "stats.json")]
        if workload.fake_plan and command[0] == "run":
            argv += ["--fake", workload.fake_plan]
        proc = subprocess.run([*argv, "--", *command], capture_output=True, text=True, env=env)
        if proc.returncode != 0:
            tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
            return [f"{command[0]} exited with {proc.returncode}: {tail}"]
    if not workload.expected:
        return []
    with open(os.path.join(workload.out_dir, "report.json"), encoding="utf-8") as handle:
        return workloads.check_report(workload, json.load(handle))


def digest(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=3, help="the workloads' seed (default 3)")
    parser.add_argument("pythons", nargs="+", metavar="PYTHON")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="paramfuzz-interpreters-") as scratch:
        stub_dir = os.path.join(scratch, "stub")
        os.makedirs(stub_dir)
        with open(os.path.join(stub_dir, "requests.py"), "w", encoding="utf-8") as handle:
            handle.write(REQUESTS_STUB)
        sequences = [mock_campaign(os.path.join(scratch, "mock_campaign"))]
        for name, generate in workloads.GENERATORS.items():
            sequences.append(generate(args.seed, os.path.join(scratch, name)))
        # digests[(sequence, output)][sha256] = versions that wrote it
        digests: dict[tuple[str, str], dict[str, list[str]]] = {}
        problems: list[str] = []
        versions = []
        for python in args.pythons:
            env = environment(python, stub_dir)
            version = version_of(python, env)
            versions.append(version)
            for workload in sequences:
                found = run_sequence(python, env, workload, scratch)
                problems += [f"{version} {workload.name}: {problem}" for problem in found]
                for output in OUTPUTS:
                    path = os.path.join(workload.out_dir, output)
                    sha = digest(path) if os.path.exists(path) else "missing"
                    digests.setdefault((workload.name, output), {}).setdefault(sha, []).append(version)
    print(f"interpreters: {', '.join(versions)}")
    print(f"{'output':<32} {'sha256':<64} interpreters")
    for (name, output), by_sha in digests.items():
        for sha, wrote in by_sha.items():
            who = "all" if len(wrote) == len(versions) else ", ".join(wrote)
            print(f"{name + '/' + output:<32} {sha:<64} {who}")
        if len(by_sha) > 1:
            problems.append(f"{name}/{output} has {len(by_sha)} digests")
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
