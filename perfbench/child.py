"""Run one paramfuzz CLI command in a fresh process, as a user would.

    python3 perfbench/child.py --stats STATS.json
        [--fake PLAN.json] [--trace SPANS.json] -- <paramfuzz arguments>

The checkout's ``src`` directory is put first on the import path, so the
checkout's own source is measured. ``--fake`` replaces ``requests.post``
with the fake endpoint before the CLI starts; ``--trace`` wraps the layer
functions and writes their spans when the command ends. The exit code is
the CLI's; the stats file records the process's peak RSS.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--stats", required=True)
    parser.add_argument("--fake")
    parser.add_argument("--trace")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    sys.path.insert(0, SRC)

    import paramfuzz.cli

    if not os.path.abspath(paramfuzz.cli.__file__).startswith(SRC + os.sep):
        print(f"paramfuzz was imported from {paramfuzz.cli.__file__}, not {SRC}", file=sys.stderr)
        return 97
    if args.fake:
        import requests

        from fake_endpoint import FakeEndpoint

        requests.post = FakeEndpoint.load(args.fake).post
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.install()
    code = paramfuzz.cli.main(command)
    stats = {"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    with open(args.stats, "w", encoding="utf-8") as handle:
        json.dump(stats, handle)
    if tracer is not None:
        tracing.write_dump(tracer, args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
