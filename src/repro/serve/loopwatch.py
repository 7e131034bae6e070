"""``REPRO_LOOPWATCH=1`` — the instrumented event loop (RL017/RL018 twin).

The async-safety lint rules prove event-loop hygiene *statically*:
RL017 that no loop-reachable coroutine's sync call closure blocks,
RL018 that no ``create_task`` handle is discarded.  This module is the
*runtime* half of that certificate, in the same mold as the
``REPRO_STRICT`` clairvoyance oracle (RL007):

* :class:`InstrumentedEventLoop` wraps every scheduled callback —
  including every coroutine step, since tasks advance via
  ``call_soon`` — with a monotonic timer.  A callback that holds the
  loop past the stall threshold is RL017's runtime signature: during
  those milliseconds *every* tenant queue, drain watchdog, and client
  socket is frozen.
* its ``call_exception_handler`` intercepts asyncio's two orphan
  diagnostics (``Task exception was never retrieved`` / ``Task was
  destroyed but it is pending``) — RL018's runtime signature, made
  deterministic by the ``gc.collect()`` in :func:`watched_run` (a
  dropped task handle is refcount-collected immediately under
  CPython).

Measurements land in a :class:`repro.obs.metrics.MetricsRegistry`
(``loopwatch.callbacks`` counter, ``loopwatch.callback_seconds``
histogram, ``loopwatch.stalls`` / ``loopwatch.orphans`` counters, a
``loopwatch.pending_tasks`` census gauge), so loop health aggregates
exactly like every other observation in the repo.  Past the threshold,
:meth:`LoopWatch.raise_if_unsafe` raises :class:`LoopStallError`
naming the worst offender.

The static and runtime halves are cross-validated **both directions**
on the shared ``tests/data/lint_fixtures/async_*_pkg`` packages: every
fixture RL017/RL018 flags must stall (or orphan) under the watch, and
every clean twin must run quiet — see ``tests/test_serve_loopwatch.py``.

Knobs: ``REPRO_LOOPWATCH`` enables the loop in ``repro serve``
(:mod:`repro.serve.cli`); ``REPRO_LOOPWATCH_THRESHOLD`` overrides the
stall threshold in seconds (default ``0.25``).
"""

from __future__ import annotations

import asyncio
import gc
import os
import time
from typing import Any, Callable, Coroutine, TypeVar

from ..obs.metrics import MetricsRegistry

__all__ = [
    "DEFAULT_STALL_THRESHOLD",
    "InstrumentedEventLoop",
    "LoopStallError",
    "LoopWatch",
    "loopwatch_enabled",
    "stall_threshold",
    "watched_run",
]

_T = TypeVar("_T")

#: Seconds one callback may hold the loop before it counts as a stall.
DEFAULT_STALL_THRESHOLD = 0.25

#: Histogram bucket edges for per-callback hold times (seconds).
_STALL_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 5.0)

#: Worst offenders kept verbatim (the counters see everything).
_MAX_KEPT = 32


def loopwatch_enabled() -> bool:
    """Whether ``REPRO_LOOPWATCH`` asks for the instrumented loop."""
    raw = os.environ.get("REPRO_LOOPWATCH", "").strip().lower()
    return raw not in ("", "0", "false", "off")


def stall_threshold() -> float:
    """The stall threshold in seconds (``REPRO_LOOPWATCH_THRESHOLD``)."""
    raw = os.environ.get("REPRO_LOOPWATCH_THRESHOLD", "").strip()
    if not raw:
        return DEFAULT_STALL_THRESHOLD
    try:
        value = float(raw)
    except ValueError:
        return DEFAULT_STALL_THRESHOLD
    return value if value > 0.0 else DEFAULT_STALL_THRESHOLD


class LoopStallError(RuntimeError):
    """The instrumented loop observed a stall or an orphaned task."""


def _label(callback: Callable[..., Any]) -> str:
    """A stable human label for a scheduled callback.

    Task steps arrive as bound methods (or C ``TaskStepMethWrapper``s)
    whose ``__self__`` is the task — label those with the coroutine's
    qualname, which is what the static rules talk about too.
    """
    owner = getattr(callback, "__self__", None)
    if isinstance(owner, asyncio.Task):
        coro = owner.get_coro()
        qual = getattr(coro, "__qualname__", None)
        if qual:
            return str(qual)
    qual = getattr(callback, "__qualname__", None)
    if qual:
        return str(qual)
    return type(callback).__name__


class LoopWatch:
    """Accumulated loop-health observations for one watched run."""

    def __init__(self, threshold: float = DEFAULT_STALL_THRESHOLD) -> None:
        self.threshold = threshold
        self.metrics = MetricsRegistry()
        #: worst (label, seconds) holds past the threshold
        self.stalls: list[tuple[str, float]] = []
        #: labels of tasks whose handle was dropped (never awaited)
        self.orphans: list[str] = []

    # ------------------------------------------------------------ recording
    def observe_callback(self, label: str, seconds: float) -> None:
        self.metrics.counter_add("loopwatch.callbacks")
        self.metrics.histogram_observe(
            "loopwatch.callback_seconds", seconds, edges=_STALL_BUCKETS
        )
        if seconds >= self.threshold:
            self.metrics.counter_add("loopwatch.stalls")
            self.stalls.append((label, seconds))
            if len(self.stalls) > _MAX_KEPT:
                self.stalls.sort(key=lambda item: -item[1])
                del self.stalls[_MAX_KEPT:]

    def observe_orphan(self, label: str) -> None:
        self.metrics.counter_add("loopwatch.orphans")
        if len(self.orphans) < _MAX_KEPT:
            self.orphans.append(label)

    def observe_pending(self, count: int) -> None:
        self.metrics.gauge_set("loopwatch.pending_tasks", float(count))

    # ------------------------------------------------------------ verdicts
    def raise_if_unsafe(self) -> None:
        """Raise :class:`LoopStallError` if the run violated loop hygiene."""
        if self.stalls:
            label, seconds = max(self.stalls, key=lambda item: item[1])
            raise LoopStallError(
                f"{len(self.stalls)} callback(s) held the event loop past "
                f"{self.threshold:.3f}s (RL017's runtime signature); worst: "
                f"{label} for {seconds:.3f}s — move the blocking work into "
                "asyncio.to_thread/run_in_executor"
            )
        if self.orphans:
            raise LoopStallError(
                f"{len(self.orphans)} task(s) orphaned — handle dropped, "
                "exception never retrieved (RL018's runtime signature): "
                + ", ".join(self.orphans)
            )


class InstrumentedEventLoop(asyncio.SelectorEventLoop):
    """A selector loop that times every callback it runs.

    Only ``call_soon`` / ``call_soon_threadsafe`` / ``call_at`` are
    overridden — ``call_later`` delegates to ``call_at`` in the base
    class, and the wrapper marks itself so a double path can never
    double-count a callback.
    """

    def __init__(self, watch: LoopWatch) -> None:
        super().__init__()
        self.watch = watch

    def _timed(self, callback: Callable[..., Any]) -> Callable[..., Any]:
        if getattr(callback, "_loopwatch_wrapped", False):
            return callback
        watch = self.watch

        def timed(*args: Any) -> Any:
            start = time.perf_counter()
            try:
                return callback(*args)
            finally:
                watch.observe_callback(
                    _label(callback), time.perf_counter() - start
                )

        timed._loopwatch_wrapped = True  # type: ignore[attr-defined]
        return timed

    def call_soon(self, callback, *args, context=None):  # type: ignore[no-untyped-def]
        return super().call_soon(self._timed(callback), *args, context=context)

    def call_soon_threadsafe(self, callback, *args, context=None):  # type: ignore[no-untyped-def]
        return super().call_soon_threadsafe(
            self._timed(callback), *args, context=context
        )

    def call_at(self, when, callback, *args, context=None):  # type: ignore[no-untyped-def]
        return super().call_at(
            when, self._timed(callback), *args, context=context
        )

    def call_exception_handler(self, context: dict[str, Any]) -> None:
        """Capture asyncio's orphaned-task diagnostics as observations.

        ``Task.__del__`` routes both "exception was never retrieved"
        and "destroyed but it is pending" through here; each is the
        runtime shadow of a discarded ``create_task`` handle (RL018).
        Recorded orphans are swallowed (the verdict surfaces through
        :meth:`LoopWatch.raise_if_unsafe`), everything else falls
        through to the default handler.
        """
        message = str(context.get("message", ""))
        if (
            "exception was never retrieved" in message
            or "destroyed but it is pending" in message
        ):
            victim = context.get("task") or context.get("future")
            label = message
            if victim is not None and isinstance(victim, asyncio.Task):
                coro = victim.get_coro()
                label = getattr(coro, "__qualname__", None) or message
            self.watch.observe_orphan(str(label))
            return
        super().call_exception_handler(context)


def _cancel_pending(loop: asyncio.AbstractEventLoop) -> None:
    """The teardown half of ``asyncio.run``: cancel and reap leftovers."""
    pending = asyncio.all_tasks(loop)
    if not pending:
        return
    for task in pending:
        task.cancel()
    loop.run_until_complete(
        asyncio.gather(*pending, return_exceptions=True)
    )


def watched_run(
    main: Coroutine[Any, Any, _T],
    *,
    threshold: float | None = None,
    check: bool = True,
    watch: LoopWatch | None = None,
) -> tuple[_T, LoopWatch]:
    """``asyncio.run`` on an instrumented loop; returns (result, watch).

    After the main coroutine returns, the still-pending task census is
    recorded and a ``gc.collect()`` forces any dropped task handles to
    surface their orphan diagnostics deterministically.  With
    ``check=True`` a stall or orphan raises :class:`LoopStallError`;
    pass ``check=False`` to inspect the watch yourself (the tests'
    cross-validation path).  A caller-supplied ``watch`` lets the
    daemon's telemetry snapshot read the loop-health metrics *while*
    the run is still in flight (``threshold`` is then ignored).
    """
    if watch is None:
        watch = LoopWatch(stall_threshold() if threshold is None else threshold)
    loop = InstrumentedEventLoop(watch)
    try:
        asyncio.set_event_loop(loop)
        result = loop.run_until_complete(main)
        watch.observe_pending(
            sum(1 for t in asyncio.all_tasks(loop) if not t.done())
        )
        gc.collect()  # deterministic orphan delivery (CPython refcounts)
        if check:
            watch.raise_if_unsafe()
        return result, watch
    finally:
        try:
            _cancel_pending(loop)
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.run_until_complete(loop.shutdown_default_executor())
        finally:
            asyncio.set_event_loop(None)
            loop.close()
