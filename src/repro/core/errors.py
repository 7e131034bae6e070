"""Exception hierarchy for the FJS reproduction library.

All library-specific errors derive from :class:`FJSError` so callers can
catch the whole family with a single ``except`` clause while still being
able to distinguish modelling errors (bad input data) from runtime
scheduling violations (a scheduler breaking the rules of the game).
"""

from __future__ import annotations

__all__ = [
    "FJSError",
    "InvalidJobError",
    "InvalidInstanceError",
    "InvalidScheduleError",
    "DeadlineMissedError",
    "SchedulingViolationError",
    "ClairvoyanceError",
    "SimulationError",
    "SolverError",
    "CapacityExceededError",
]


class FJSError(Exception):
    """Base class for all errors raised by this library."""


class InvalidJobError(FJSError, ValueError):
    """A job's parameters are inconsistent (e.g. deadline before arrival)."""


class InvalidInstanceError(FJSError, ValueError):
    """A job collection violates instance-level requirements."""


class InvalidScheduleError(FJSError, ValueError):
    """A schedule assigns an infeasible start time to some job."""


class DeadlineMissedError(FJSError, RuntimeError):
    """An online scheduler failed to start a job by its starting deadline.

    In FJS every job *must* be started somewhere in ``[a(J), d(J)]``; a
    scheduler that lets the deadline pass has produced an infeasible run,
    which is a bug in the scheduler rather than a legitimate outcome.
    """


class SchedulingViolationError(FJSError, RuntimeError):
    """A scheduler attempted an illegal action (e.g. starting a job twice,
    starting before arrival, or starting a job it has never been shown)."""


class ClairvoyanceError(FJSError, RuntimeError):
    """Processing-length information was accessed in a non-clairvoyant run
    before the job completed."""


class SimulationError(FJSError, RuntimeError):
    """The discrete-event simulation reached an inconsistent state."""


class SolverError(FJSError, RuntimeError):
    """An offline solver was applied to an instance it cannot handle
    (e.g. the exact solver on non-integral data) or exceeded its budget."""


class CapacityExceededError(FJSError, RuntimeError):
    """A dynamic-bin-packing assignment exceeded a bin's capacity."""
