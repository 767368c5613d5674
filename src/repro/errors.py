"""Exception hierarchy for the reproduction.

All library errors derive from :class:`ReproError` so that callers can
catch library failures without also swallowing programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class ConfigurationError(ReproError):
    """A component was constructed or wired with invalid parameters."""


class SimulationError(ReproError):
    """The simulator reached an inconsistent internal state."""


class ProtocolError(ReproError):
    """A protocol implementation violated its own preconditions."""


class SpecViolation(ReproError):
    """An executable specification check failed.

    Raised by :mod:`repro.core.spec` and :mod:`repro.analysis.invariants`
    when an execution violates Validity, Agreement, Liveness, or one of the
    paper's lemmas.  Carries enough context to reproduce the failure.
    """

    def __init__(self, message: str, *, context: dict | None = None) -> None:
        super().__init__(message)
        self.context = dict(context or {})


class ScheduleError(ReproError):
    """A virtual-node broadcast schedule is incomplete or conflicting."""


class ServiceError(ReproError):
    """A live-service request could not be honoured.

    Raised by :mod:`repro.service` for session-level failures: proposing
    into an instance the world has already begun, exceeding the session
    limit, or submitting to a world that has completed.  Wire transports
    translate it into an ``error`` event rather than tearing the
    connection down.
    """
