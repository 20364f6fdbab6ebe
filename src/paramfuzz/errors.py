"""Exception taxonomy shared across the package.

Two families matter to callers: hard errors (bad input, broken contract)
and :class:`PerturbSkip` subclasses, which mean "this operator has nothing
to perturb here": either it cannot run on the input at all, or it ran and
changed nothing the agent sees (:class:`NoEffect`). Campaign code records
skips and moves on; it never swallows hard errors.
"""

from __future__ import annotations


class ParamFuzzError(Exception):
    """Base class for all errors raised by this package."""


class MalformedInput(ParamFuzzError):
    """An input file or log line is not valid UTF-8 JSON of the expected kind.

    Carries the failing byte offset when known.
    """

    def __init__(self, message: str, *, byte_offset: int | None = None) -> None:
        super().__init__(message)
        self.byte_offset = byte_offset


class SchemaViolation(ParamFuzzError):
    """A corpus value violates the documented schema or a type invariant."""

    def __init__(self, message: str, *, case_id: str | None = None, field: str | None = None) -> None:
        super().__init__(message)
        self.case_id = case_id
        self.field = field


class SpanMismatch(ParamFuzzError):
    """A mention span does not address its own value_text."""

    def __init__(self, message: str, *, case_id: str | None = None, span: tuple[int, int] | None = None) -> None:
        super().__init__(message)
        self.case_id = case_id
        self.span = span


class ToolMismatch(ParamFuzzError):
    """Observed invocation and reference document name different tools."""


class PerturbSkip(ParamFuzzError):
    """An operator is inapplicable to this input (nothing to perturb).

    Skips are a reported outcome, not a silent identity: campaigns must be
    able to exclude unperturbable inputs from failure-rate denominators.
    """


class NoEffect(PerturbSkip):
    """The operator's result is what the agent would see unperturbed: the
    same tool document, query text or rendered tool return."""


class NoDonor(PerturbSkip):
    """WD donor pool is empty, self-only, or has no non-empty descriptions."""


class TooFewParams(PerturbSkip):
    """CO target has fewer than two parameters."""


class NoMentions(PerturbSkip):
    """RPF or RPL target has no annotated parameter mentions."""


class NotJson(PerturbSkip):
    """Return operator target is raw text, not parsed JSON."""


class DriverError(ParamFuzzError):
    """Agent driver failed to produce a step after exhausting its retry policy."""


class TransportError(DriverError):
    """Network or server failure talking to the agent endpoint."""


class AuthFailure(DriverError):
    """Endpoint rejected the configured credential; never retried."""


class RateLimited(DriverError):
    """Endpoint rate limit persisted through every backoff attempt."""


class CampaignError(ParamFuzzError):
    """Campaign configuration or execution failed (bad config, log mismatch)."""


class EmptyCampaign(ParamFuzzError):
    """A metric was requested over zero attempted test cases."""
