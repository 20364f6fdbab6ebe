"""Campaign execution: operators x cases, logged as JSON lines.

A campaign takes every filtered case through every selected operator,
one trajectory per (operator, case) pair. All randomness flows from one
campaign seed through per-pair derived seeds, so a single integer
reproduces every run byte for byte.

The log is append-only JSON lines. Each line is one record whose keys
are its fields, tagged with its event kind: the CampaignMeta header first
(campaign_meta), one Trajectory (trajectory) or TrajectoryError
(trajectory_error) per run, and one Classification (classification) per
trajectory, appended by classify_log.

read_log checks every line and indexes the log by (operator, case_id,
seed) once; running, classifying and reporting all share that index.
Runs are resumable: pairs already present in the log are skipped, and a
resumed run must match the header's corpus hash, seed and driver.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import json
import os
from dataclasses import dataclass, field

from paramfuzz import __version__
from paramfuzz.classify import CLASSIFIER_VERSION, AlignedLabel, classify_trajectory
from paramfuzz.corpus import (
    JsonRecord,
    TestCase,
    _json_document,
    _violation,
    all_tools,
    filter_cases,
    load_corpus,
)
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
from paramfuzz.errors import CampaignError, DriverError, MalformedInput
from paramfuzz.perturb import ALL_OPERATORS

LOG_FILE_NAME = "campaign.jsonl"


def derived_seed(campaign_seed: int, operator: str, case_id: str) -> int:
    """Stable per-(operator, case) seed from the one campaign seed."""
    material = f"{campaign_seed}|{operator}|{case_id}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(material).digest()[:8], "big")


def log_line(event: dict[str, object]) -> str:
    return json.dumps(event, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


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


Key = tuple[str, str, int]


def _pair(key: Key) -> str:
    return f"({key[0]}, {key[1]}, seed {key[2]})"


@dataclass
class CampaignLog:
    """One campaign log, checked and indexed by (operator, case_id, seed).

    ``trajectories`` keeps log order; ``errors`` lists the keys of runs
    that died in the driver. classify_log adds its classifications here as
    well as to the file, so a caller that classifies and then reports
    reads the log once. len() is the number of events.
    """

    path: str
    header: CampaignMeta
    trajectories: dict[Key, Trajectory] = field(default_factory=dict)
    errors: list[Key] = field(default_factory=list)
    classifications: dict[Key, Classification] = field(default_factory=dict)

    def __len__(self) -> int:
        return 1 + len(self.trajectories) + len(self.errors) + len(self.classifications)


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
    """Read a JSON-lines campaign log into one checked index.

    A line that is not JSON or not a tagged object is MalformedInput. A
    line whose shape breaks the key table of its event kind is a
    SchemaViolation at "log line N.<path>". A header that is missing,
    repeated or not first, a second event for one key, a classification
    with no earlier trajectory, and a classification whose classifier
    version differs from the header's are CampaignErrors naming the lines.
    """
    log: CampaignLog | None = None
    header_line = 0
    runs: dict[Key, int] = {}
    classified: dict[Key, int] = {}
    with open(path, "rb") as handle:
        for number, raw in enumerate(handle, start=1):
            where = f"log line {number}"
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise MalformedInput(
                    f"{where} is not valid UTF-8 at byte {exc.start}: {exc.reason}"
                ) from exc
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedInput(f"{where} is not valid JSON: {exc.msg}") from exc
            if not isinstance(event, dict) or "event" not in event:
                raise MalformedInput(f"{where} is not a tagged event")
            kind = event.pop("event")
            # An unhashable kind, such as a list, cannot be looked up.
            if not isinstance(kind, str) or kind not in _EVENTS:
                raise _violation(
                    f"{where}.event", f"must be one of {', '.join(_EVENTS)}, got {kind!r}", None
                )
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
            key = (record.operator, record.case_id, record.seed)
            if kind == "classification":
                if key not in log.trajectories:
                    raise CampaignError(
                        f"{where} classifies {_pair(key)}, but no earlier line holds its trajectory"
                    )
                _first_line(classified, key, number, "classification")
                if record.classifier_version != log.header.classifier_version:
                    raise CampaignError(
                        f"{where} has classifier_version {record.classifier_version!r}, but the "
                        f"header on line {header_line} has {log.header.classifier_version!r}"
                    )
                log.classifications[key] = record
            else:
                _first_line(runs, key, number, "run")
                if kind == "trajectory":
                    log.trajectories[key] = record
                else:
                    log.errors.append(key)
    if log is None:
        raise CampaignError(f"log {path} has no campaign_meta header")
    return log


@dataclass(frozen=True)
class ScriptBook:
    """Scripted agent behaviors for replay campaigns.

    Lookup tries "<operator>:<case_id>" first, then "<case_id>", then
    falls back to replaying the case's own oracle. The fallback means an
    unscripted pair passes classification; fixtures plant failures by
    scripting exactly the pairs that should misbehave.
    """

    scripts: dict[str, ScriptedBehavior] = field(default_factory=dict)

    def resolve(self, operator: str, case: TestCase) -> ScriptedBehavior:
        for key in (f"{operator}:{case.case_id}", case.case_id):
            if key in self.scripts:
                return self.scripts[key]
        return ScriptedBehavior.replaying(case)

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
            raise _violation(f"scripts.{key}", complaint, None)

    @classmethod
    def from_json(cls, obj: object) -> "ScriptBook":
        raw = obj.get("scripts") if isinstance(obj, dict) else None
        if not isinstance(raw, dict):
            raise MalformedInput("script book needs a top-level 'scripts' object")
        return cls(
            scripts={
                key: ScriptedBehavior.from_json(steps, f"scripts.{key}")
                for key, steps in raw.items()
            }
        )

    @classmethod
    def load(cls, path: str) -> "ScriptBook":
        with open(path, "rb") as handle:
            return cls.from_json(_json_document(handle.read(), "script book"))


@dataclass(frozen=True)
class CampaignConfig:
    """Everything a campaign run needs, reproducibly.

    Each field's default here is the only one: the CLI passes only the
    settings a flag or the config file gives. workers apply to the http
    driver alone; replay runs in one thread.
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
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _check_resume(meta: CampaignMeta, existing: CampaignMeta) -> None:
    for key in ("corpus_sha256", "seed", "driver", "step_limit", "max_observation_length"):
        was, now = getattr(existing, key), getattr(meta, key)
        if was != now:
            raise CampaignError(
                f"cannot resume: log was written with {key}={was!r}, this run uses {now!r}"
            )


def run_campaign(config: CampaignConfig) -> str:
    """Execute (or resume) the campaign; returns the log path.

    With the http driver and more than one worker, trajectories are
    computed by a bounded thread pool; they are always written in job
    order, so the log is deterministic for any worker count.
    """
    cases = filter_cases(load_corpus(config.corpus_path))
    if not cases:
        raise CampaignError("no cases survive filtering; nothing to run")
    donors = all_tools(cases)
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
    done: set[Key] = set()
    needs_header = True
    if os.path.exists(log_path) and os.path.getsize(log_path) > 0:
        log = read_log(log_path)
        _check_resume(meta, log.header)
        needs_header = False
        done.update(log.trajectories, log.errors)
    pairs = [
        (operator, case)
        for operator in config.ordered_operators
        for case in cases
    ]
    jobs = [
        (operator, case, derived_seed(config.seed, operator, case.case_id))
        for operator, case in pairs
        if (operator, case.case_id, derived_seed(config.seed, operator, case.case_id)) not in done
    ]

    def execute(job: tuple[str, TestCase, int]) -> Trajectory | TrajectoryError:
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
        except DriverError as exc:
            return TrajectoryError(operator, case.case_id, seed, type(exc).__name__, str(exc))

    with open(log_path, "a", encoding="utf-8") as handle, concurrent.futures.ThreadPoolExecutor(
        max_workers=config.workers
    ) as pool:
        if needs_header:
            handle.write(_event_line(meta))
            handle.flush()
        records = map(execute, jobs) if config.workers == 1 else pool.map(execute, jobs)
        for record in records:
            handle.write(_event_line(record))
            handle.flush()
    return log_path


def classify_log(log: CampaignLog, corpus_path: str) -> int:
    """Append one classification event per unclassified trajectory, to the
    log file and to its index.

    Classification always runs against the original corpus documents and
    oracle: the agent saw perturbed inputs, the judge never does. Returns
    the number of events appended; idempotent on a fully classified log.
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
    appended = 0
    with open(log.path, "a", encoding="utf-8") as handle:
        for key, trajectory in log.trajectories.items():
            if key in log.classifications:
                continue
            case = cases.get(key[1])
            if case is None:
                raise CampaignError(
                    f"log references case {key[1]!r} absent from the corpus"
                )
            outcome = classify_trajectory(
                trajectory.invocations, list(case.oracle), list(case.tools)
            )
            record = Classification(*key, CLASSIFIER_VERSION, outcome.case_pass, outcome.aligned)
            handle.write(_event_line(record))
            log.classifications[key] = record
            appended += 1
    return appended
