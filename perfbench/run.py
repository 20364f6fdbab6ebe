"""Pipeline benchmark for paramfuzz.

    python3 perfbench/run.py --workload {breadth,depth,http_fake}
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout. The benchmark generates the
workload's inputs from the seed (set-up, timed every time), then runs
the workload's CLI command sequence in a closed loop: each command in a
fresh Python process through ``paramfuzz.cli.main``, the next sequence
only after the previous one ended, until S seconds have passed. Every
sequence's report is checked against what the generator planted, and
every sequence must write the same log and reports byte for byte.

With ``--trace 0`` it reports the end-to-end metrics: medians over the
sequences. With ``--trace 1`` it alternates untraced and traced sequences
and reports the per-layer metrics of the traced ones, plus the tracing
overhead. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

# Set-up runs SETUP_BEFORE times before the first sequence and
# SETUP_PER_SEQUENCE times before each sequence. One generation takes only
# 15-120 ms, so a single one is at the mercy of the scheduler; the median
# of several dozen, spread over the whole run, is steady.
SETUP_BEFORE = 8
SETUP_PER_SEQUENCE = 3
# Leave room under the 180-second limit for one more sequence.
HARD_LIMIT_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "pipeline_traj_per_s": "1/s",
    "peak_rss_mb": "MB",
    "log_bytes_per_traj": "B",
}

REPORT_FILES = ("report.json", "report_table.csv", "report.md")


@dataclass
class Iteration:
    """One command sequence: its timing, footprint and check results."""

    wall_s: float = 0.0
    rss_mb: float = 0.0
    trajectories: int = 0
    failed: int = 0
    log_bytes: int = 0
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    dumps: list[dict] = field(default_factory=list)


def _digest(path: str) -> str:
    hasher = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            hasher.update(block)
    return hasher.hexdigest()


def run_sequence(workload, scratch: str, deadline: float, traced: bool) -> Iteration:
    """Run the workload's commands once, from a clean output directory."""
    shutil.rmtree(workload.out_dir, ignore_errors=True)
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    result = Iteration()
    stats_paths = []
    trace_paths = []
    started = time.perf_counter()
    for index, command in enumerate(workload.commands):
        stats_path = os.path.join(scratch, f"stats{index}.json")
        argv = [sys.executable, os.path.join(HERE, "child.py"), "--stats", stats_path]
        if workload.fake_plan and command[0] == "run":
            argv += ["--fake", workload.fake_plan]
        if traced:
            trace_path = os.path.join(scratch, f"trace{index}.json")
            argv += ["--trace", trace_path]
            trace_paths.append(trace_path)
        argv += ["--", *command]
        try:
            proc = subprocess.run(
                argv,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                timeout=max(1.0, deadline - time.monotonic()),
                check=False,
            )
        except subprocess.TimeoutExpired:
            result.problems.append(f"{command[0]} did not finish before the time limit")
            break
        if proc.returncode != 0:
            tail = proc.stderr.decode("utf-8", "replace").strip().splitlines()[-3:]
            result.problems.append(f"{command[0]} exited with {proc.returncode}: {' | '.join(tail)}")
            break
        stats_paths.append(stats_path)
    result.wall_s = time.perf_counter() - started
    if result.problems:
        result.failed = workload.pairs
        return result
    for path in stats_paths:
        with open(path, encoding="utf-8") as handle:
            stats = json.load(handle)
        result.rss_mb = max(result.rss_mb, stats["maxrss_kb"] / 1024.0)
    for path in trace_paths:
        with open(path, encoding="utf-8") as handle:
            result.dumps.append(json.load(handle))
    _check_outputs(workload, result)
    return result


def _check_outputs(workload, result: Iteration) -> None:
    import workloads

    with open(os.path.join(workload.out_dir, "report.json"), encoding="utf-8") as handle:
        report = json.load(handle)
    classified, errors = workloads.trajectories_in_report(report)
    result.trajectories = classified
    # Failed: pairs that ended in trajectory_error or never got classified.
    result.failed = workload.pairs - classified
    if errors:
        result.problems.append(f"{errors} trajectory_error event(s)")
    if result.failed:
        result.problems.append(f"{result.failed} of {workload.pairs} pairs not classified")
    result.problems += workloads.check_report(workload, report)
    result.log_bytes = os.path.getsize(workload.log_path)
    result.digests = {
        name: _digest(os.path.join(workload.out_dir, name))
        for name in ("campaign.jsonl", *REPORT_FILES)
    }


def _median_or_none(values: list[float | None]) -> float | None:
    if not values or any(value is None for value in values):
        return None
    return statistics.median(values)


def measure(args: argparse.Namespace) -> tuple[dict, list[str], list[float], float]:
    """Set up, run the closed loop and check; returns the result line's
    object, the problems found, each sequence's wall time and the run's
    elapsed time."""
    import tracer
    import workloads

    generate = workloads.GENERATORS[args.workload]
    base = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    inputs = os.path.join(base, "inputs")
    scratch = os.path.join(base, "scratch")
    started = time.monotonic()
    deadline = started + HARD_LIMIT_S
    # Byte-compile once up front, so the first sequence does not pay for it.
    compileall.compile_dir(SRC, quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)
    try:
        # Inputs are generated again before every sequence, so set-up time
        # is sampled across the whole run, not only at its start.
        setup_times = []

        def set_up(times):
            for _ in range(times):
                shutil.rmtree(inputs, ignore_errors=True)
                began = time.perf_counter()
                generated = generate(args.seed, inputs)
                setup_times.append(time.perf_counter() - began)
            return generated

        set_up(SETUP_BEFORE)
        plain: list[Iteration] = []
        traced: list[Iteration] = []
        measure_start = time.monotonic()
        while True:
            workload = set_up(SETUP_PER_SEQUENCE)
            run_traced = bool(args.trace) and len(traced) < len(plain)
            iteration = run_sequence(workload, scratch, deadline, run_traced)
            (traced if run_traced else plain).append(iteration)
            if iteration.problems and not iteration.digests:
                break
            now = time.monotonic()
            # Stop when one more typical sequence would end more than half
            # a sequence past --seconds, so a run lasts about --seconds.
            typical = statistics.median(it.wall_s for it in plain + traced)
            if now - measure_start + typical / 2 >= args.seconds and (not args.trace or traced):
                break
            if now + 1.5 * iteration.wall_s > deadline:
                break
    finally:
        shutil.rmtree(base, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass  # another run still uses it

    everything = plain + traced
    problems = [problem for it in everything for problem in it.problems]
    digests = {json.dumps(it.digests, sort_keys=True) for it in everything if it.digests}
    if len(digests) > 1:
        problems.append("log or reports differ between sequences of the same seed")
    if args.trace and not traced:
        problems.append("no traced sequence finished")
    complete = [it for it in plain if not it.problems]
    if args.trace:
        complete_traced = [it for it in traced if not it.problems]
        per_run = [tracer.layer_metrics(it.dumps) for it in complete_traced]
        units = {metric.name: metric.unit for metric in tracer.LAYER_METRICS}
        values = {name: _median_or_none([run[name] for run in per_run]) for name in per_run[0]} if per_run else {}
        overhead = None
        if complete and complete_traced:
            untraced_wall = statistics.median(it.wall_s for it in complete)
            overhead = statistics.median(it.wall_s for it in complete_traced) / untraced_wall - 1.0
        values[tracer.OVERHEAD_METRIC.name] = overhead
    else:
        units = END_TO_END
        values = {
            "setup_s": statistics.median(setup_times),
            "pipeline_traj_per_s": _median_or_none([it.trajectories / it.wall_s for it in complete]),
            "peak_rss_mb": _median_or_none([it.rss_mb for it in complete]),
            "log_bytes_per_traj": _median_or_none([it.log_bytes / it.trajectories for it in complete]),
        }
    result = {
        "correct": not problems,
        "attempted": workload.pairs * len(everything),
        "failed": sum(it.failed for it in everything),
        "metrics": {name: {"value": values.get(name), "unit": unit} for name, unit in units.items()},
    }
    return result, problems, [it.wall_s for it in everything], time.monotonic() - started


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("breadth", "depth", "http_fake"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "paramfuzz", "cli.py")):
        print(f"no paramfuzz source under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # On SIGTERM, unwind normally: subprocess.run kills and reaps the
    # running command, and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    result, problems, walls, elapsed = measure(args)
    print(f"workload {args.workload}, seed {args.seed}: {len(walls)} sequence(s) in {elapsed:.1f} s")
    if walls:
        print(f"sequence wall s: min {min(walls):.3f} median {statistics.median(walls):.3f} max {max(walls):.3f}")
    for problem in problems[:20]:
        print(f"problem: {problem}")
    attempted = int(result["attempted"])
    print(f"failed_traj_ratio {result['failed'] / attempted if attempted else 0.0} ratio")
    for name, entry in result["metrics"].items():
        print(f"{name} {entry['value']} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
