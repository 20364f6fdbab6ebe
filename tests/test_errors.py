"""Exception taxonomy contracts that the rest of the package relies on."""

import pytest

from paramfuzz import errors


def test_everything_descends_from_the_package_root():
    for name in dir(errors):
        obj = getattr(errors, name)
        if isinstance(obj, type) and issubclass(obj, Exception) and obj is not Exception:
            assert issubclass(obj, errors.ParamFuzzError), name


def test_skip_family_membership():
    skips = (
        errors.NoEffect,
        errors.NoDonor,
        errors.TooFewParams,
        errors.NoMentions,
        errors.NotJson,
    )
    for exc in skips:
        assert issubclass(exc, errors.PerturbSkip)
    # Hard errors must never be catchable as skips.
    for exc in (errors.SchemaViolation, errors.CampaignError, errors.DriverError):
        assert not issubclass(exc, errors.PerturbSkip)


def test_driver_family_membership():
    for exc in (errors.TransportError, errors.AuthFailure, errors.RateLimited):
        assert issubclass(exc, errors.DriverError)
    assert not issubclass(errors.CampaignError, errors.DriverError)


def test_structured_fields_survive():
    malformed = errors.MalformedInput("bad byte", byte_offset=17)
    assert malformed.byte_offset == 17
    violation = errors.SchemaViolation("bad field", case_id="k1", field="ptype")
    assert (violation.case_id, violation.field) == ("k1", "ptype")
    mismatch = errors.SpanMismatch("bad span", case_id="k1", span=(3, 9))
    assert mismatch.span == (3, 9)
    with pytest.raises(errors.ParamFuzzError):
        raise errors.EmptyCampaign("nothing ran")
