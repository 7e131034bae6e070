"""The ambient (process-global) recorder.

Sweeps fan simulations out across processes; requiring every call site to
thread a recorder through ``run_grid`` → ``ParallelRunner`` → worker →
``Simulator`` would make observability an API-breaking change.  Instead
each process owns one *ambient* recorder, armed once at import:

* ``REPRO_TRACE`` unset/falsey → the shared :data:`~repro.obs.recorder.NULL_RECORDER`
  (zero state, zero cost);
* ``REPRO_TRACE`` truthy → a fresh :class:`~repro.obs.recorder.TraceRecorder`.

Worker processes inherit the environment, so arming the parent arms the
whole pool; :func:`repro.perf.parallel._run_chunk` ships each worker's
metrics delta back for merging (see :mod:`repro.obs.aggregate`).

Tests use :func:`set_recorder` / :func:`reset_recorder` for isolation.
"""

from __future__ import annotations

from .recorder import NULL_RECORDER, Recorder, TraceRecorder, trace_enabled

__all__ = ["get_recorder", "reset_recorder", "set_recorder"]


def _from_env() -> Recorder:
    return TraceRecorder() if trace_enabled() else NULL_RECORDER


# Armed once at import (workers inherit the environment, so arming the
# parent before the pool spawns arms every worker identically).  Eager
# initialisation keeps :func:`get_recorder` a *pure read*: pool-submitted
# work functions call it on every ``Simulator`` construction, and a lazy
# global write there would be exactly the cross-process divergence
# ``tests/test_perf_parallel.py`` checks pool work for.
_ambient: Recorder = _from_env()


def get_recorder() -> Recorder:
    """This process's ambient recorder (armed from ``REPRO_TRACE`` at import)."""
    return _ambient


def set_recorder(recorder: Recorder) -> Recorder:
    """Install an explicit ambient recorder; returns the previous one."""
    global _ambient
    previous = _ambient
    _ambient = recorder
    return previous


def reset_recorder() -> None:
    """Re-arm the ambient recorder from the environment."""
    global _ambient
    _ambient = _from_env()
