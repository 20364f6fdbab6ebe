"""Per-layer tracing for the benchmark's traced runs.

``install`` wraps the public layer-boundary functions of each paramfuzz
module from outside the package. A wrapper is bound wherever the name is
used, not only where it is defined: every loaded paramfuzz module that
imported the function by name gets the wrapper too, and methods are
patched on their classes. A name that no longer exists is reported as
missing, and its metrics come out as null.

Spans record name, start, end and parent on a thread-local stack, plus
the (operator, case_id) of the call when its arguments carry them. They
stay in memory until ``dump`` writes them at the end of the process.
Functions hot enough that a span would distort the run are only counted
(COUNT) or counted and timed (TIMED), never spanned.

``layer_metrics`` turns the dumps of one traced command sequence into the
per-layer metrics. A span's self time is its duration minus the part of
it that its child spans cover.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

# The operator ids in the perturb.<OP>.self_s metric names; fixed here,
# not read from the package, because BENCHMARK.json lists each name.
OPERATORS = (
    "RD", "RE", "WD", "SD", "CO", "WT",
    "RPF", "RPL", "CP", "AN",
    "FK", "AP", "CK", "UK", "CF",
)

SPAN = "span"
COUNT = "count"
TIMED = "timed"


@dataclass(frozen=True)
class Target:
    """One function to wrap: metric prefix, where it lives, how to record.

    ``flag`` maps the call's result to a number summed per metric, such as
    a hit (1 or 0) or a byte count.
    """

    metric: str
    module: str
    name: str
    mode: str = SPAN
    flag: Callable[[object], float] | None = None


def _utf8_len(text: object) -> int:
    return len(str(text).encode("utf-8"))


TARGETS = (
    Target("cli.main", "paramfuzz.cli", "main"),
    Target("corpus.load_corpus", "paramfuzz.corpus", "load_corpus"),
    Target("corpus.scripted_lookup", "paramfuzz.corpus", "TestCase.scripted_lookup",
           flag=lambda result: result is not None),
    Target("corpus.canonical_args_hash", "paramfuzz.corpus", "canonical_args_hash", COUNT),
    Target("perturb.document", "paramfuzz.perturb", "apply_document_operator"),
    Target("perturb.query", "paramfuzz.perturb", "apply_query_operator"),
    Target("perturb.return", "paramfuzz.perturb", "apply_return_operator"),
    Target("driver.run_case", "paramfuzz.driver", "run_case"),
    Target("driver.next_step", "paramfuzz.driver", "ReplayDriver.next_step"),
    Target("driver.next_step", "paramfuzz.driver", "HttpDriver.next_step"),
    Target("driver.truncate_observation", "paramfuzz.driver", "truncate_observation", COUNT,
           flag=lambda result: result[1] is not None),
    Target("driver.trajectory_from_json", "paramfuzz.driver", "Trajectory.from_json"),
    Target("driver.render_function_declarations", "paramfuzz.driver",
           "render_function_declarations"),
    Target("driver.parse_react_step", "paramfuzz.driver", "parse_react_step"),
    Target("driver.http", "requests", "post", TIMED),
    Target("campaign.resolve", "paramfuzz.campaign", "ScriptBook.resolve"),
    Target("campaign.derived_seed", "paramfuzz.campaign", "derived_seed", COUNT),
    Target("campaign.log_line", "paramfuzz.campaign", "log_line", TIMED, flag=_utf8_len),
    Target("campaign.read_log", "paramfuzz.campaign", "read_log", flag=len),
    Target("campaign.run_campaign", "paramfuzz.campaign", "run_campaign"),
    Target("campaign.classify_log", "paramfuzz.campaign", "classify_log"),
    Target("classify.classify_trajectory", "paramfuzz.classify", "classify_trajectory"),
    Target("classify.rouge_l", "paramfuzz.classify", "rouge_l"),
    Target("reporting.collect_results", "paramfuzz.reporting", "collect_results"),
    Target("reporting.build_report", "paramfuzz.reporting", "build_report"),
    Target("reporting.render", "paramfuzz.reporting", "render_csv"),
    Target("reporting.render", "paramfuzz.reporting", "render_markdown"),
    Target("reporting.emit_report", "paramfuzz.reporting", "emit_report"),
)

# A span record: [thread, metric, start, end, parent index or -1,
# operator, case_id, flag, exception]. The parent index counts spans of the
# same thread; the exception is "skip" for a PerturbSkip.
_THREAD, _METRIC, _START, _END, _PARENT, _OPERATOR, _CASE, _FLAG, _EXC = range(9)


class _ThreadState:
    def __init__(self, thread: int) -> None:
        self.thread = thread
        self.spans: list[list] = []
        self.stack: list[int] = []
        # metric -> [calls, seconds, flag total]
        self.counters: dict[str, list[float]] = {}


class Tracer:
    """Holds the spans and counters of one process, per thread."""

    def __init__(self, skip_type: type | None = None) -> None:
        self.skip_type = skip_type
        self.installed: set[str] = set()
        self.missing: set[str] = set()
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            with self._lock:
                state = _ThreadState(len(self._states))
                self._states.append(state)
            self._local.state = state
            return state

    def wrap(self, target: Target, fn: Callable) -> Callable:
        if target.mode == SPAN:
            return self._span_wrapper(target, fn)
        return self._counting_wrapper(target, fn)

    def _span_wrapper(self, target: Target, fn: Callable) -> Callable:
        metric, flag, skip_type = target.metric, target.flag, self.skip_type
        find_attrs = _attribute_finder(fn)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            state = self._state()
            operator, case_id = find_attrs(args, kwargs)
            parent = state.stack[-1] if state.stack else -1
            record = [state.thread, metric, 0.0, 0.0, parent, operator, case_id, None, None]
            index = len(state.spans)
            state.spans.append(record)
            state.stack.append(index)
            record[_START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record[_END] = clock()
                is_skip = skip_type is not None and isinstance(exc, skip_type)
                record[_EXC] = "skip" if is_skip else type(exc).__name__
                raise
            finally:
                state.stack.pop()
            record[_END] = clock()
            if flag is not None:
                record[_FLAG] = float(flag(result))
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def _counting_wrapper(self, target: Target, fn: Callable) -> Callable:
        metric, flag, timed = target.metric, target.flag, target.mode == TIMED
        clock = time.perf_counter

        def counted(*args, **kwargs):
            counters = self._state().counters
            entry = counters.get(metric)
            if entry is None:
                entry = counters[metric] = [0, 0.0, 0.0]
            entry[0] += 1
            if timed:
                start = clock()
                result = fn(*args, **kwargs)
                entry[1] += clock() - start
            else:
                result = fn(*args, **kwargs)
            if flag is not None:
                entry[2] += flag(result)
            return result

        counted.__wrapped__ = fn  # type: ignore[attr-defined]
        return counted

    def dump(self) -> dict[str, object]:
        """Everything recorded, as JSON-ready data."""
        spans = []
        counters: dict[str, list[float]] = {}
        for state in self._states:
            for record in state.spans:
                spans.append(record)
            for metric, (calls, seconds, flagged) in state.counters.items():
                total = counters.setdefault(metric, [0, 0.0, 0.0])
                total[0] += calls
                total[1] += seconds
                total[2] += flagged
        return {
            "spans": spans,
            "counters": counters,
            "installed": sorted(self.installed),
            "missing": sorted(self.missing),
        }


def _attribute_finder(fn: Callable) -> Callable:
    """Build a cheap (args, kwargs) -> (operator, case_id) extractor."""
    try:
        names = list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        names = []
    wanted = [name for name in ("operator", "case", "case_id") if name in names]
    if not wanted:
        return lambda args, kwargs: (None, None)
    positions = {name: names.index(name) for name in wanted}

    def find(args, kwargs):
        found = {}
        for name, position in positions.items():
            value = kwargs[name] if name in kwargs else (args[position] if position < len(args) else None)
            found[name] = value
        operator = found.get("operator")
        case_id = found.get("case_id")
        case = found.get("case")
        if case is not None:
            case_id = getattr(case, "case_id", None)
        return (
            operator if isinstance(operator, str) else None,
            case_id if isinstance(case_id, str) else None,
        )

    return find


def install(targets: tuple[Target, ...] = TARGETS) -> Tracer:
    """Wrap every target in the running process; returns the tracer."""
    try:
        from paramfuzz.errors import PerturbSkip
    except ImportError:
        PerturbSkip = None  # type: ignore[assignment,misc]
    tracer = Tracer(skip_type=PerturbSkip)
    for target in targets:
        if _patch(tracer, target):
            tracer.installed.add(target.metric)
        else:
            tracer.missing.add(f"{target.module}.{target.name}")
    return tracer


def _patch(tracer: Tracer, target: Target) -> bool:
    try:
        module = importlib.import_module(target.module)
    except ImportError:
        return False
    owner_name, _, attr = target.name.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name, None)
        if not isinstance(owner, type) or attr not in owner.__dict__:
            return False
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(tracer.wrap(target, raw.__func__)))
        elif callable(raw):
            setattr(owner, attr, tracer.wrap(target, raw))
        else:
            return False
        return True
    original = getattr(module, attr, None)
    if not callable(original):
        return False
    wrapper = tracer.wrap(target, original)
    setattr(module, attr, wrapper)
    for name, other in list(sys.modules.items()):
        if other is None or not (name == "paramfuzz" or name.startswith("paramfuzz.")):
            continue
        if getattr(other, attr, None) is original:
            setattr(other, attr, wrapper)
    return True


# ---------------------------------------------------------------- analysis


def self_times(spans: list[list]) -> list[float]:
    """Self time of each span: its duration minus the union of the
    intervals its children cover, clipped to the span itself.

    ``spans`` holds span records as dumped; a parent index refers to a
    span of the same thread, counted in that thread's own order.
    """
    by_thread: dict[int, list[int]] = {}
    for position, span in enumerate(spans):
        by_thread.setdefault(span[_THREAD], []).append(position)
    children: dict[int, list[int]] = {}
    for positions in by_thread.values():
        for position in positions:
            parent = spans[position][_PARENT]
            if parent >= 0:
                children.setdefault(positions[parent], []).append(position)
    out = []
    for position, span in enumerate(spans):
        start, end = span[_START], span[_END]
        covered = 0.0
        cursor = start
        for child in sorted(children.get(position, ()), key=lambda c: spans[c][_START]):
            lo = max(spans[child][_START], cursor)
            hi = min(spans[child][_END], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def percentile(values: list[float], q: float) -> float | None:
    """Nearest-rank percentile (q in (0, 1]); None for no values."""
    if not values:
        return None
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str


class _Finished(NamedTuple):
    duration: float
    own: float
    operator: str | None
    flag: float | None
    exc: str | None


class _Aggregate:
    """The dumps of one command sequence, indexed by metric."""

    def __init__(self, dumps: list[dict]) -> None:
        self.spans: dict[str, list[_Finished]] = {}
        self.counters: dict[str, list[float]] = {}
        self.installed: set[str] = set()
        for dump in dumps:
            spans = dump["spans"]
            for span, own in zip(spans, self_times(spans)):
                self.spans.setdefault(span[_METRIC], []).append(
                    _Finished(span[_END] - span[_START], own, span[_OPERATOR], span[_FLAG], span[_EXC])
                )
            for metric, values in dump["counters"].items():
                total = self.counters.setdefault(metric, [0, 0.0, 0.0])
                for i in range(3):
                    total[i] += values[i]
            self.installed.update(dump["installed"])

    def of(self, metric: str) -> list:
        return self.spans.get(metric, [])

    def counter(self, metric: str) -> list[float]:
        return self.counters.get(metric, [0, 0.0, 0.0])


def _ratio(numerator: float, denominator: float) -> float | None:
    return numerator / denominator if denominator else None


def _calls(metric: str):
    return lambda agg: len(agg.of(metric))


def _self_s(metric: str):
    return lambda agg: sum(span.own for span in agg.of(metric))


def _duration_us(metric: str, q: float):
    def compute(agg):
        value = percentile([span.duration for span in agg.of(metric)], q)
        return None if value is None else value * 1e6

    return compute


def _flag_ratio(metric: str):
    return lambda agg: _ratio(sum(span.flag or 0.0 for span in agg.of(metric)), len(agg.of(metric)))


def _skip_ratio(metric: str):
    return lambda agg: _ratio(sum(1 for span in agg.of(metric) if span.exc == "skip"), len(agg.of(metric)))


def _operator_self_s(operator: str):
    def compute(agg):
        return sum(
            span.own
            for metric in ("perturb.document", "perturb.query", "perturb.return")
            for span in agg.of(metric)
            if span.operator == operator
        )

    return compute


def _counter(metric: str, index: int):
    return lambda agg: agg.counter(metric)[index]


def _attempts_per_step(agg: _Aggregate) -> float | None:
    return _ratio(agg.counter("driver.http")[0], len(agg.of("driver.next_step")))


# name -> (unit, source metrics, compute). A metric is null when
# no target of one of its source metrics could be installed.
_LAYER_TABLE: list[tuple[str, str, tuple[str, ...], Callable]] = [
    ("corpus.scripted_lookup.calls", "count", ("corpus.scripted_lookup",), _calls("corpus.scripted_lookup")),
    ("corpus.scripted_lookup.self_s", "s", ("corpus.scripted_lookup",), _self_s("corpus.scripted_lookup")),
    ("corpus.scripted_lookup.hit_ratio", "ratio", ("corpus.scripted_lookup",), _flag_ratio("corpus.scripted_lookup")),
    ("corpus.canonical_args_hash.calls", "count", ("corpus.canonical_args_hash",), _counter("corpus.canonical_args_hash", 0)),
    ("corpus.load_corpus.calls", "count", ("corpus.load_corpus",), _calls("corpus.load_corpus")),
    ("corpus.load_corpus.self_s", "s", ("corpus.load_corpus",), _self_s("corpus.load_corpus")),
]
for _source in ("document", "query", "return"):
    _metric = f"perturb.{_source}"
    _LAYER_TABLE += [
        (f"{_metric}.calls", "count", (_metric,), _calls(_metric)),
        (f"{_metric}.self_s", "s", (_metric,), _self_s(_metric)),
        (f"{_metric}.skip_ratio", "ratio", (_metric,), _skip_ratio(_metric)),
    ]
for _op in OPERATORS:
    _LAYER_TABLE.append(
        (f"perturb.{_op}.self_s", "s",
         ("perturb.document", "perturb.query", "perturb.return"), _operator_self_s(_op))
    )
_LAYER_TABLE += [
    ("driver.run_case.calls", "count", ("driver.run_case",), _calls("driver.run_case")),
    ("driver.run_case.self_s", "s", ("driver.run_case",), _self_s("driver.run_case")),
    ("driver.run_case.p50_us", "us", ("driver.run_case",), _duration_us("driver.run_case", 0.5)),
    ("driver.run_case.p99_us", "us", ("driver.run_case",), _duration_us("driver.run_case", 0.99)),
    ("driver.next_step.calls", "count", ("driver.next_step",), _calls("driver.next_step")),
    ("driver.next_step.self_s", "s", ("driver.next_step",), _self_s("driver.next_step")),
    ("driver.truncate_observation.cut_ratio", "ratio", ("driver.truncate_observation",),
     lambda agg: _ratio(agg.counter("driver.truncate_observation")[2], agg.counter("driver.truncate_observation")[0])),
    ("driver.trajectory_from_json.self_s", "s", ("driver.trajectory_from_json",), _self_s("driver.trajectory_from_json")),
    ("driver.render_function_declarations.calls", "count", ("driver.render_function_declarations",),
     _calls("driver.render_function_declarations")),
    ("driver.render_function_declarations.self_s", "s", ("driver.render_function_declarations",),
     _self_s("driver.render_function_declarations")),
    ("driver.parse_react_step.self_s", "s", ("driver.parse_react_step",), _self_s("driver.parse_react_step")),
    ("driver.http.requests", "count", ("driver.http",), _counter("driver.http", 0)),
    ("driver.http.attempts_per_step", "ratio", ("driver.http", "driver.next_step"), _attempts_per_step),
    ("driver.http.wait_s", "s", ("driver.http",), _counter("driver.http", 1)),
    ("campaign.resolve.calls", "count", ("campaign.resolve",), _calls("campaign.resolve")),
    ("campaign.resolve.self_s", "s", ("campaign.resolve",), _self_s("campaign.resolve")),
    ("campaign.derived_seed.calls", "count", ("campaign.derived_seed",), _counter("campaign.derived_seed", 0)),
    ("campaign.log_line.calls", "count", ("campaign.log_line",), _counter("campaign.log_line", 0)),
    ("campaign.log_line.self_s", "s", ("campaign.log_line",), _counter("campaign.log_line", 1)),
    ("campaign.log_line.bytes", "B", ("campaign.log_line",), _counter("campaign.log_line", 2)),
    ("campaign.read_log.calls", "count", ("campaign.read_log",), _calls("campaign.read_log")),
    ("campaign.read_log.self_s", "s", ("campaign.read_log",), _self_s("campaign.read_log")),
    ("campaign.read_log.events", "count", ("campaign.read_log",),
     lambda agg: sum(span.flag or 0.0 for span in agg.of("campaign.read_log"))),
    ("campaign.run_campaign.self_s", "s", ("campaign.run_campaign",), _self_s("campaign.run_campaign")),
    ("campaign.classify_log.self_s", "s", ("campaign.classify_log",), _self_s("campaign.classify_log")),
    ("classify.classify_trajectory.calls", "count", ("classify.classify_trajectory",),
     _calls("classify.classify_trajectory")),
    ("classify.classify_trajectory.self_s", "s", ("classify.classify_trajectory",),
     _self_s("classify.classify_trajectory")),
    ("classify.classify_trajectory.p99_us", "us", ("classify.classify_trajectory",),
     _duration_us("classify.classify_trajectory", 0.99)),
    ("classify.rouge_l.calls", "count", ("classify.rouge_l",), _calls("classify.rouge_l")),
    ("classify.rouge_l.self_s", "s", ("classify.rouge_l",), _self_s("classify.rouge_l")),
    ("reporting.collect_results.self_s", "s", ("reporting.collect_results",), _self_s("reporting.collect_results")),
    ("reporting.build_report.self_s", "s", ("reporting.build_report",), _self_s("reporting.build_report")),
    ("reporting.render.self_s", "s", ("reporting.render",), _self_s("reporting.render")),
    ("reporting.emit_report.self_s", "s", ("reporting.emit_report",), _self_s("reporting.emit_report")),
    ("cli.main.self_s", "s", ("cli.main",), _self_s("cli.main")),
]

OVERHEAD_METRIC = LayerMetric("trace.overhead_ratio", "ratio")

LAYER_METRICS = tuple(LayerMetric(name, unit) for name, unit, _, _ in _LAYER_TABLE) + (
    OVERHEAD_METRIC,
)


def layer_metrics(dumps: list[dict]) -> dict[str, float | None]:
    """Per-layer metrics of one traced command sequence (one dump per
    process); trace.overhead_ratio is added by the caller."""
    agg = _Aggregate(dumps)
    out: dict[str, float | None] = {}
    for name, _unit, sources, compute in _LAYER_TABLE:
        if not all(source in agg.installed for source in sources):
            out[name] = None
        else:
            value = compute(agg)
            out[name] = None if value is None else float(value)
    return out


def write_dump(tracer: Tracer, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(tracer.dump(), handle, separators=(",", ":"))
