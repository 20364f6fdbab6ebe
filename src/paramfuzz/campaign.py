"""Campaign execution: operators x cases, logged as JSON lines.

A campaign takes every filtered case through every selected operator,
one trajectory per (operator, case) pair. All randomness flows from one
campaign seed through per-pair derived seeds, so a single integer
reproduces every run byte for byte.

The log is append-only JSON lines. Each line is one record whose keys
are its fields, tagged with its event kind: the CampaignMeta header first
(campaign_meta), one Trajectory (trajectory) or TrajectoryError
(trajectory_error) per run, and one Classification (classification) per
trajectory, appended by classify_log. Most pairs leave a case's calls as
the oracle makes them, so classify_log classifies each distinct (case,
calls) outcome once, and encodes its labels once for every line that
carries them.

A CampaignLog indexes a log by (operator, case_id), each record checked
against the header's operators and seed, and keeps of each trajectory
only what classifying and reporting read: its seed, whether the
perturbation applied, and the invocations; of each classification, the
classifier's outcome, one object for all the pairs that share it.
run_campaign returns the index of the log it wrote, built as it writes
each record, so `run --report` never reads its own log back; a bare
`run`, which reads nothing back, has it keep the header and path only.
read_log checks every line of a log file in full and builds the same
index; classify and report start from it, and a resumed run reads the
existing log through it.
Runs are resumable: pairs already present in the log are skipped, a
final line left unfinished by a stopped run is dropped, and a resumed run
must match the header's corpus hash, seed, driver, operators, step limit
and observation limit.
"""

from __future__ import annotations

import collections
import concurrent.futures
import hashlib
import json
import os
import sys
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field

from paramfuzz import __version__
from paramfuzz.classify import (
    CLASSIFIER_VERSION,
    AlignedLabel,
    ObservedInvocation,
    TrajectoryClassification,
    classify_trajectory,
)
from paramfuzz.corpus import TestCase, all_tools, filter_cases, load_corpus
from paramfuzz.driver import (
    DEFAULT_MAX_OBSERVATION_LENGTH,
    DEFAULT_STEP_LIMIT,
    PROMPT_TEMPLATE_VERSION,
    EndpointConfig,
    HttpDriver,
    ReplayDriver,
    ScriptedBehavior,
    Trajectory,
    run_case,
)
from paramfuzz.errors import AuthFailure, CampaignError, DriverError, MalformedInput
from paramfuzz.perturb import ALL_OPERATORS, donor_pool
from paramfuzz.records import JsonRecord, json_document, loads, utf8, violation

LOG_FILE_NAME = "campaign.jsonl"

# Pairs an http run keeps submitted per worker. The log is written in job
# order, so a pair slowed by backoff at the head of the window holds back
# the writes behind it; with twice as many pairs as workers, the other
# workers still run one window ahead meanwhile. The window, not the pair
# count, bounds what a campaign holds in flight.
_WINDOW_PER_WORKER = 2


def derived_seed(campaign_seed: int, operator: str, case_id: str) -> int:
    """Stable per-(operator, case) seed from the one campaign seed."""
    material = f"{campaign_seed}|{operator}|{case_id}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(material).digest()[:8], "big")


_LOG_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def log_line(event: dict[str, object]) -> str:
    return _LOG_ENCODER.encode(event)


@dataclass(frozen=True)
class CampaignMeta(JsonRecord):
    """The log's header: what a resumed run must match, and the versions
    that wrote the log."""

    corpus_sha256: str
    seed: int
    driver: str
    operators: tuple[str, ...]
    step_limit: int
    max_observation_length: int
    case_count: int
    classifier_version: str
    prompt_template_version: str
    package_version: str


@dataclass(frozen=True)
class TrajectoryError(JsonRecord):
    """A run that died in the driver."""

    operator: str
    case_id: str
    seed: int
    error: str
    message: str


@dataclass(frozen=True)
class Classification(JsonRecord):
    """The labels that classify_log gave one trajectory."""

    operator: str
    case_id: str
    seed: int
    classifier_version: str
    case_pass: bool
    labels: tuple[AlignedLabel, ...]


# The record class of each event kind. read_log decodes each line through
# it, and _event_line tags each record from it.
_EVENTS: dict[str, type[JsonRecord]] = {
    "campaign_meta": CampaignMeta,
    "trajectory": Trajectory,
    "trajectory_error": TrajectoryError,
    "classification": Classification,
}
_KIND_OF = {model: kind for kind, model in _EVENTS.items()}


def _event_line(record: JsonRecord) -> str:
    return log_line({"event": _KIND_OF[type(record)], **record.to_json()}) + "\n"


Key = tuple[str, str]
# (operator, case, derived seed): one pair for run_campaign to run.
Job = tuple[str, TestCase, int]


def _pair(key: Key) -> str:
    return f"({key[0]}, {key[1]})"


@dataclass(frozen=True)
class TrajectoryEntry:
    """What classifying and reporting read of one logged trajectory."""

    seed: int
    applied: bool
    invocations: tuple[ObservedInvocation, ...]


@dataclass
class CampaignLog:
    """One campaign log, checked and indexed by (operator, case_id).

    ``trajectories`` keeps log order; ``errors`` lists the pairs of runs
    that died in the driver; ``classifications`` holds each classified
    key's outcome, the one object that classify_log shares among the
    pairs with equal outcomes (read_log gives each line its own).
    run_campaign and classify_log index each record they write, so a
    caller that runs, classifies and then reports never reads the file
    back; a run that will not be classified indexes nothing and its log
    holds the path and header alone. len() is the number of events
    indexed.
    """

    path: str
    header: CampaignMeta
    trajectories: dict[Key, TrajectoryEntry] = field(default_factory=dict)
    errors: list[Key] = field(default_factory=list)
    classifications: dict[Key, TrajectoryClassification] = field(default_factory=dict)

    def __len__(self) -> int:
        return 1 + len(self.trajectories) + len(self.errors) + len(self.classifications)

    def add(self, record: Trajectory | TrajectoryError | Classification, where: str = "record") -> None:
        """Index one record that follows the header. A record under an
        operator the header does not list, or whose seed is not
        derived_seed(header seed, operator, case_id), is a SchemaViolation
        at where.operator or where.seed."""
        if record.operator not in self.header.operators:
            listed = ", ".join(self.header.operators)
            raise violation(f"{where}.operator", f"must be one of the header's operators ({listed}), got {record.operator!r}")
        seed = derived_seed(self.header.seed, record.operator, record.case_id)
        if record.seed != seed:
            raise violation(f"{where}.seed", f"must be {seed}, as the header's seed derives it, got {record.seed}")
        key = (record.operator, record.case_id)
        if isinstance(record, Trajectory):
            self.trajectories[key] = TrajectoryEntry(
                seed, record.perturbation_applied, tuple(record.invocations)
            )
        elif isinstance(record, TrajectoryError):
            self.errors.append(key)
        else:
            self.classifications[key] = TrajectoryClassification(record.labels, record.case_pass)


def _first_line(lines: dict[Key, int], key: Key, number: int, what: str) -> None:
    """Note that log line number holds the key's event of one sort, unless an
    earlier line already did."""
    if key in lines:
        raise CampaignError(
            f"log line {number} is a second {what} of {_pair(key)}; "
            f"the first is on line {lines[key]}"
        )
    lines[key] = number


def read_log(path: str) -> CampaignLog:
    """Read a JSON-lines campaign log, keyed by (operator, case_id), into
    one checked index. Every line is decoded and checked in full; a log
    with one bad line is refused whole.

    A line that is not JSON or not a tagged object is MalformedInput. A
    line whose shape breaks the key table of its event kind is a
    SchemaViolation at "log line N.<path>", and so is a record that
    CampaignLog.add refuses, at "log line N.operator" or "log line N.seed";
    these are checked before the line's place. A header that is missing,
    repeated or not first, a second run (trajectory or trajectory_error)
    or second classification of one pair, a classification with no
    earlier trajectory, and a classification whose classifier version
    differs from the header's are CampaignErrors naming the lines.
    A classification whose case_pass is not the conjunction of its labels'
    passed is a SchemaViolation at "log line N.case_pass", and so is a
    trajectory whose perturbation_applied is not whether it records a
    perturbation, at "log line N.perturbation_applied".
    """
    log: CampaignLog | None = None
    header_line = 0
    runs: dict[Key, int] = {}
    classified: dict[Key, int] = {}
    with open(path, "rb") as handle:
        for number, raw in enumerate(handle, start=1):
            where = f"log line {number}"
            line = utf8(raw, where).strip()
            if not line:
                continue
            try:
                event = loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedInput(f"{where} is not valid JSON: {exc.msg}") from exc
            if not isinstance(event, dict) or "event" not in event:
                raise MalformedInput(f"{where} is not a tagged event")
            kind = event.pop("event")
            # An unhashable kind, such as a list, cannot be looked up.
            if not isinstance(kind, str) or kind not in _EVENTS:
                raise violation(f"{where}.event", f"must be one of {', '.join(_EVENTS)}, got {kind!r}")
            # The header's place is checked before its line is decoded.
            if log is None and kind != "campaign_meta":
                raise CampaignError(
                    f"{where} is a {kind} event, but a campaign log must start "
                    "with its campaign_meta header"
                )
            if log is not None and kind == "campaign_meta":
                raise CampaignError(
                    f"{where} is a second campaign_meta header; the first is on line {header_line}"
                )
            record = _EVENTS[kind].from_json(event, where)
            if log is None:
                log = CampaignLog(path, record)
                header_line = number
                continue
            log.add(record, where)
            key = (record.operator, record.case_id)
            if kind == "classification":
                if key not in log.trajectories:
                    raise CampaignError(
                        f"{where} classifies {_pair(key)}, but no earlier line holds its trajectory"
                    )
                _first_line(classified, key, number, "classification")
                if record.case_pass != all(aligned.label.passed for aligned in record.labels):
                    raise violation(
                        f"{where}.case_pass",
                        f"must be {str(not record.case_pass).lower()}, as the labels say",
                    )
                if record.classifier_version != log.header.classifier_version:
                    raise CampaignError(
                        f"{where} has classifier_version {record.classifier_version!r}, but the "
                        f"header on line {header_line} has {log.header.classifier_version!r}"
                    )
            else:
                _first_line(runs, key, number, "run")
    if log is None:
        raise CampaignError(f"log {path} has no campaign_meta header")
    return log


@dataclass(frozen=True)
class ScriptBookFile(JsonRecord):
    """A script book file: its one key, scripts, maps each script key to
    an array of ScriptStep records."""

    scripts: dict[str, object]


@dataclass(frozen=True)
class ScriptBook:
    """Scripted agent behaviors for replay campaigns.

    Lookup tries "<operator>:<case_id>" first, then "<case_id>", then
    falls back to replaying the case's own oracle. The fallback means an
    unscripted pair passes classification; fixtures plant failures by
    scripting exactly the pairs that should misbehave. Each campaign has
    its own book, which builds a case's fallback script once and gives the
    same object to every operator: the replay driver is stateless and
    nothing changes a script's arguments.
    """

    scripts: dict[str, ScriptedBehavior] = field(default_factory=dict)
    _replays: dict[str, ScriptedBehavior] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def resolve(self, operator: str, case: TestCase) -> ScriptedBehavior:
        for key in (f"{operator}:{case.case_id}", case.case_id):
            if key in self.scripts:
                return self.scripts[key]
        replay = self._replays.get(case.case_id)
        if replay is None:
            # setdefault: callers that race here still share one script.
            replay = self._replays.setdefault(case.case_id, ScriptedBehavior.replaying(case))
        return replay

    def check_keys(self, cases: list[TestCase]) -> None:
        """Refuse the first key that names no runnable case or no known
        operator, which resolve would otherwise never match."""
        case_ids = {case.case_id for case in cases}
        for key in self.scripts:
            operator, colon, case_id = key.partition(":")
            if key in case_ids or (operator in ALL_OPERATORS and case_id in case_ids):
                continue
            complaint = "names no runnable case"
            if colon and operator not in ALL_OPERATORS:
                complaint = f"names unknown operator {operator!r}"
            raise violation(f"scripts.{key}", complaint)

    @classmethod
    def from_json(cls, obj: object) -> "ScriptBook":
        scripts = ScriptBookFile.from_json(obj, "script book").scripts
        return cls(scripts={key: ScriptedBehavior.from_json(steps, f"scripts.{key}") for key, steps in scripts.items()})

    @classmethod
    def load(cls, path: str) -> "ScriptBook":
        with open(path, "rb") as handle:
            return cls.from_json(json_document(handle.read(), "script book"))


@dataclass(frozen=True)
class CampaignConfig(
    JsonRecord,
    keys={"corpus_path": "corpus", "out_dir": "out", "scripts_path": "scripts"},
    optional=("corpus", "out", "operators", "driver", "seed", "workers", "step_limit", "max_observation_length"),
):
    """Everything a campaign run needs, reproducibly.

    Its key table is the run settings: from_json reads the config file's
    object, with the run flags copied over it, and each field's default
    here is the only one. corpus and out may be left out of the file but
    not of the run. workers apply to the http driver alone; replay runs in
    one thread.
    """

    corpus_path: str
    out_dir: str
    operators: tuple[str, ...] = ALL_OPERATORS
    driver: str = "replay"
    seed: int = 0
    workers: int = 1
    step_limit: int = DEFAULT_STEP_LIMIT
    max_observation_length: int = DEFAULT_MAX_OBSERVATION_LENGTH
    scripts_path: str | None = None
    endpoint: EndpointConfig | None = None

    def __post_init__(self) -> None:
        if self.corpus_path is None:
            raise CampaignError("a corpus path is required (--corpus or config 'corpus')")
        if self.out_dir is None:
            raise CampaignError("an output directory is required (--out or config 'out')")
        unknown = [op for op in self.operators if op not in ALL_OPERATORS]
        if unknown:
            raise CampaignError(
                f"unknown operator id(s): {', '.join(unknown)}; "
                f"valid ids are {', '.join(ALL_OPERATORS)}"
            )
        if not self.operators:
            raise CampaignError("a campaign needs at least one operator")
        if self.driver not in ("replay", "http"):
            raise CampaignError(f"driver must be 'replay' or 'http', not {self.driver!r}")
        if self.driver == "http" and self.endpoint is None:
            raise CampaignError("the http driver needs an endpoint config")
        if self.workers < 1:
            raise CampaignError("workers must be at least 1")
        if self.driver == "replay" and self.workers > 1:
            raise CampaignError(
                "the replay driver runs with 1 worker; workers apply only to the http driver"
            )
        if self.step_limit < 1:
            raise CampaignError("step_limit must be at least 1")
        if self.max_observation_length < 1:
            raise CampaignError("max_observation_length must be at least 1")

    @property
    def ordered_operators(self) -> tuple[str, ...]:
        """The selected operators in canonical reporting order."""
        selected = set(self.operators)
        return tuple(op for op in ALL_OPERATORS if op in selected)


def corpus_sha256(path: str) -> str:
    """The file's sha256, read in 64 KiB chunks so the file is never held
    whole (hashlib.file_digest needs Python 3.11)."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _check_resume(meta: CampaignMeta, existing: CampaignMeta) -> None:
    for key in ("corpus_sha256", "seed", "driver", "operators", "step_limit", "max_observation_length"):
        was, now = getattr(existing, key), getattr(meta, key)
        if was != now:
            raise CampaignError(
                f"cannot resume: log was written with {key}={was!r}, this run uses {now!r}"
            )


def _drop_torn_line(log_path: str) -> int:
    """Cut the bytes after the log's last newline, which a run stopped
    mid-write leaves, and say so on stderr. A log with no newline holds no
    whole line and is emptied. Returns the size the log is left with."""
    with open(log_path, "rb+") as handle:
        size = end = handle.seek(0, os.SEEK_END)
        kept = 0
        while end > 0:
            start = max(0, end - 65536)
            handle.seek(start)
            newline = handle.read(end - start).rfind(b"\n")
            if newline >= 0:
                kept = start + newline + 1
                break
            end = start
        if kept < size:
            handle.truncate(kept)
            print(
                f"resuming {log_path}: dropped {size - kept} byte(s) after its last newline"
                + ("" if kept else "; it held no whole line, so the run starts afresh"),
                file=sys.stderr,
            )
    return kept


def run_campaign(config: CampaignConfig, *, index: bool = True) -> CampaignLog:
    """Execute (or resume) the campaign; returns the index of its log.

    A fresh run's index is its header plus each record as it is written; a
    resumed run's is read_log of the existing file plus the new records.
    With index=False, for a caller that reads nothing back, the records
    are only written and the index holds the path and header alone.
    A resumed run first drops an unfinished final line (_drop_torn_line);
    any other bad line is read_log's error.

    With the http driver and more than one worker, trajectories are
    computed by a thread pool that holds at most 2 x workers pairs in
    flight (_in_order); they are always written in job order, so the log
    is deterministic for any worker count. A driver error ends its pair in
    a TrajectoryError record, except AuthFailure: a rejected credential
    fails every pair alike, so it stops the run, the records already
    written stay, the window's pairs not yet begun are cancelled, and a
    resume runs the rest.
    """
    cases = filter_cases(load_corpus(config.corpus_path))
    if not cases:
        raise CampaignError("no cases survive filtering; nothing to run")
    donors = donor_pool(all_tools(cases))
    script_book = ScriptBook()
    if config.scripts_path is not None:
        script_book = ScriptBook.load(config.scripts_path)
        script_book.check_keys(cases)
    shared_http: HttpDriver | None = None
    if config.driver == "http":
        assert config.endpoint is not None
        shared_http = HttpDriver(config.endpoint)
    os.makedirs(config.out_dir, exist_ok=True)
    log_path = os.path.join(config.out_dir, LOG_FILE_NAME)
    meta = CampaignMeta(
        corpus_sha256=corpus_sha256(config.corpus_path),
        seed=config.seed,
        driver=config.driver,
        operators=config.ordered_operators,
        step_limit=config.step_limit,
        max_observation_length=config.max_observation_length,
        case_count=len(cases),
        classifier_version=CLASSIFIER_VERSION,
        prompt_template_version=PROMPT_TEMPLATE_VERSION,
        package_version=__version__,
    )
    resumed = os.path.exists(log_path) and _drop_torn_line(log_path) > 0
    if resumed:
        log = read_log(log_path)
        _check_resume(meta, log.header)
    else:
        log = CampaignLog(log_path, meta)
    done = {*log.trajectories, *log.errors}
    if not index:
        log = CampaignLog(log_path, log.header)
    jobs = (
        (operator, case, derived_seed(config.seed, operator, case.case_id))
        for operator in config.ordered_operators
        for case in cases
        if (operator, case.case_id) not in done
    )

    def execute(job: Job) -> Trajectory | TrajectoryError:
        operator, case, seed = job
        if shared_http is not None:
            agent = shared_http
        else:
            agent = ReplayDriver(script_book.resolve(operator, case))
        try:
            return run_case(
                case,
                operator,
                agent,
                seed=seed,
                donors=donors,
                step_limit=config.step_limit,
                max_observation_length=config.max_observation_length,
            )
        except AuthFailure:
            raise
        except DriverError as exc:
            return TrajectoryError(operator, case.case_id, seed, type(exc).__name__, str(exc))

    with open(log_path, "a", encoding="utf-8") as handle, concurrent.futures.ThreadPoolExecutor(
        max_workers=config.workers
    ) as pool:
        try:
            if not resumed:
                handle.write(_event_line(meta))
                handle.flush()
            if config.workers == 1:
                records = map(execute, jobs)
            else:
                records = _in_order(pool, execute, jobs, _WINDOW_PER_WORKER * config.workers)
            for record in records:
                handle.write(_event_line(record))
                handle.flush()
                if index:
                    log.add(record)
        finally:
            # A run stopped by an auth failure, a failed write or a Ctrl-C
            # starts none of the window's pairs not yet begun.
            pool.shutdown(cancel_futures=True)
    return log


def _in_order(
    pool: concurrent.futures.Executor,
    execute: Callable[[Job], Trajectory | TrajectoryError],
    jobs: Iterable[Job],
    window: int,
) -> Iterator[Trajectory | TrajectoryError]:
    """execute(job) of each job, run on the pool and yielded in job order.
    At most window jobs are submitted and not yet yielded: the next is
    submitted only once the oldest has been handed on."""
    pending: collections.deque[concurrent.futures.Future] = collections.deque()
    for job in jobs:
        if len(pending) == window:
            yield pending.popleft().result()
        pending.append(pool.submit(execute, job))
    while pending:
        yield pending.popleft().result()


def classify_log(log: CampaignLog, corpus_path: str) -> int:
    """Append one classification event per unclassified trajectory, to the
    log file and to its index.

    Classification always runs against the original corpus documents and
    oracle: the agent saw perturbed inputs, the judge never does. It is a
    pure function of the case and the calls, so each distinct outcome is
    classified once: pairs whose case and calls are equal share one
    outcome object, which the index holds for each of them. The JSON of an
    outcome's labels is encoded once, when it is classified, and spliced
    into the line of every pair that shares it. Calls are equal when their
    tool names and arguments encode to the same JSON, argument order
    included, so 1, 1.0 and true stay apart. A log naming a case the corpus
    lacks is refused before anything is appended. Returns the number of
    events appended; idempotent on a fully classified log.
    """
    cases = {case.case_id: case for case in load_corpus(corpus_path)}
    if log.header.corpus_sha256 != corpus_sha256(corpus_path):
        raise CampaignError(
            "corpus file does not match the log's corpus_sha256; "
            "classify with the corpus the campaign ran on"
        )
    if log.header.classifier_version != CLASSIFIER_VERSION:
        raise CampaignError(
            f"log header has classifier_version {log.header.classifier_version!r}, "
            f"but this build classifies with {CLASSIFIER_VERSION!r}"
        )
    for _, case_id in log.trajectories:
        if case_id not in cases:
            raise CampaignError(f"log references case {case_id!r} absent from the corpus")
    # (case_id, calls as JSON) -> the outcome, and the JSON of its labels.
    outcomes: dict[tuple[str, str], tuple[TrajectoryClassification, str]] = {}
    appended = 0
    # read_log takes a whole final line that has lost its newline; it is
    # ended before the first line is appended, or that line would join it.
    with open(log.path, "rb") as existing:
        existing.seek(max(existing.seek(0, os.SEEK_END) - 1, 0))
        unended = existing.read(1) not in (b"", b"\n")
    with open(log.path, "a", encoding="utf-8") as handle:
        for key, entry in log.trajectories.items():
            if key in log.classifications:
                continue
            if unended:
                handle.write("\n")
                unended = False
            case = cases[key[1]]
            calls = (key[1], json.dumps([(call.tool_name, call.arguments) for call in entry.invocations]))
            shared = outcomes.get(calls)
            if shared is None:
                outcome = classify_trajectory(entry.invocations, list(case.oracle), list(case.tools))
                labels = log_line([aligned.to_json() for aligned in outcome.aligned])
                outcomes[calls] = shared = (outcome, labels)
            outcome, labels = shared
            # The line is written from a record with no labels, and the
            # encoded labels take the place of its empty array.
            line = _event_line(Classification(*key, entry.seed, CLASSIFIER_VERSION, outcome.case_pass, ()))
            handle.write(line.replace('"labels":[]', f'"labels":{labels}', 1))
            log.classifications[key] = outcome
            appended += 1
    return appended
