"""Scheduler base class and shared behaviour.

Every online scheduler in the library derives from
:class:`OnlineScheduler`, which provides no-op default hooks, a fresh
:meth:`clone` for reuse across simulations (schedulers are stateful — one
object per run), and declarative metadata (name, information-model
requirement) used by the registry, the CLI, and the benchmark harness.

Schedulers that designate *flag jobs* (Batch, Batch+, CDB, Profit) record
them in ``self.flag_job_ids`` in designation order; the analysis module
consumes this to verify the paper's structural lemmas.

A scheduler that holds no view or row index of a completed job whenever
its run is idle (nothing pending or running) declares ``foldable``: a
streaming engine may then fold at idle instants
(:meth:`repro.core.engine.Simulator.fold`) and calls its :meth:`fold`,
which drops the per-job analysis history.  Batch runs never fold, so the
analysis modules always see the whole history.
"""

from __future__ import annotations

import copy
from typing import Any, ClassVar

from ..core.engine import JobView, SchedulerContext
from ..obs.recorder import NULL_RECORDER, Recorder

__all__ = ["OnlineScheduler"]


class OnlineScheduler:
    """Base class for online FJS schedulers.

    Class attributes
    ----------------
    name:
        Short registry identifier (e.g. ``"batch+"``).
    requires_clairvoyance:
        ``True`` for schedulers that read ``job.length`` at arrival (CDB,
        Profit, Doubler); the simulator must then run with
        ``clairvoyant=True``.
    foldable:
        ``True`` when the scheduler holds no view or row index of a
        completed job at an idle instant, so a streaming engine may drop
        its completed rows there (see the module docstring).
    """

    name: ClassVar[str] = "base"
    requires_clairvoyance: ClassVar[bool] = False
    foldable: ClassVar[bool] = False

    def __init__(self) -> None:
        #: Flag jobs in designation order (meaningful for batch-style
        #: schedulers; empty otherwise).
        self.flag_job_ids: list[int] = []
        #: Decision-provenance channel.  The engine replaces this with the
        #: armed recorder before the run starts (``Simulator.__init__``);
        #: disarmed it stays the shared ``NULL_RECORDER``, and
        #: instrumentation sites guard with ``if self.obs.enabled`` so a
        #: disarmed scheduler pays one attribute read per decision site.
        self.obs: Recorder = NULL_RECORDER
        #: Label used in decision records.  Defaults to the registry
        #: ``name``; composite schedulers (CDB) relabel their inner
        #: per-category instances (e.g. ``"cdb/cat3"``).
        self._obs_scheduler: str = type(self).name

    # -- lifecycle ---------------------------------------------------------
    def setup(self, ctx: SchedulerContext) -> None:
        """Called once before the first event."""

    def clone(self) -> "OnlineScheduler":
        """A fresh scheduler with the same configuration, no run state.

        The default implementation deep-copies the object as constructed;
        subclasses with non-trivial constructor arguments override this.
        """
        fresh = copy.copy(self)
        fresh.reset()
        return fresh

    def reset(self) -> None:
        """Clear per-run state.  Subclasses must call ``super().reset()``."""
        self.flag_job_ids = []
        self.obs = NULL_RECORDER

    def fold(self) -> None:
        """Drop per-job analysis history; the engine folded at an idle
        instant.  Subclasses with more history call ``super().fold()``."""
        self.flag_job_ids = []

    # -- hooks (no-op defaults) ---------------------------------------------
    def on_arrival(self, ctx: SchedulerContext, job: JobView) -> None:
        """A job became known (and startable)."""

    def on_deadline(self, ctx: SchedulerContext, job: JobView) -> None:
        """An unstarted job reached its starting deadline (last chance)."""

    def on_completion(self, ctx: SchedulerContext, job: JobView) -> None:
        """A running job finished; its length is now visible."""

    def on_timer(self, ctx: SchedulerContext, tag: Any) -> None:
        """A previously requested timer fired."""

    # -- cosmetics -----------------------------------------------------------
    def describe(self) -> str:
        """Human-readable one-line description (parameters included)."""
        return type(self).__name__

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{self.describe()}>"


# The engine resolves hooks once per run and skips inherited no-op
# defaults entirely (no Python call per event, and the columnar core can
# vectorise a cohort only when no per-job callback is due).  Overriding a
# hook — even with ``super()`` delegation — clears the marker, because the
# override is a different function object.
for _hook in (
    OnlineScheduler.on_arrival,
    OnlineScheduler.on_deadline,
    OnlineScheduler.on_completion,
    OnlineScheduler.on_timer,
):
    setattr(_hook, "_repro_noop_hook", True)
del _hook
