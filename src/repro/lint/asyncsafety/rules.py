"""RL017–RL021 — async-safety rules for the serving layer.

The ``repro.serve`` daemon multiplexes every tenant over one event
loop, so its correctness properties are *temporal*: the loop must never
block (RL017), every spawned task must have an owner (RL018), every
channel must be bounded (RL019), cleanup awaits must survive
cancellation (RL020), and the ``Queue.join()`` drain protocol must be
balanced (RL021).  All five are whole-program rules over the
:class:`~repro.lint.asyncsafety.model.AsyncModel` built from file
summaries — no source re-reads — and each is cross-validated against
the ``REPRO_LOOPWATCH`` runtime twin
(:mod:`repro.serve.loopwatch`) on shared fixture packages.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator

from ..base import ProgramRule, register
from ..findings import LintFinding
from .model import AsyncModel, external_name

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..dataflow.program import Program
    from ..dataflow.summary import FileSummary

__all__ = [
    "BlockingCallInCoroutineRule",
    "OrphanedTaskRule",
    "QueueJoinProtocolRule",
    "UnboundedChannelRule",
    "UnshieldedCleanupAwaitRule",
]

#: asyncio channel constructors that take an explicit bound.
_QUEUE_CTORS = frozenset(
    {
        "asyncio.Queue",
        "asyncio.LifoQueue",
        "asyncio.PriorityQueue",
        "asyncio.queues.Queue",
    }
)
_READER_CTORS = frozenset({"asyncio.StreamReader", "asyncio.streams.StreamReader"})


def _serve_scoped(fs: "FileSummary") -> bool:
    """Inside ``repro.serve`` or opted in via ``_SERVE_SCOPE = True``."""
    if fs.module == "repro.serve" or fs.module.startswith("repro.serve."):
        return True
    const = fs.constants.get("_SERVE_SCOPE")
    return bool(const is not None and const.get("v"))


@register
class BlockingCallInCoroutineRule(ProgramRule):
    """RL017 — a loop-reachable coroutine blocks the event loop thread.

    The daemon is one thread: every tenant, every connection, every
    drain shares the same event loop.  A single synchronous call inside
    any coroutine the loop runs — ``time.sleep``, ``open``/``fsync``
    file I/O, a ``subprocess`` round trip, a whole-instance
    ``Simulator.run()``, a ``ParallelRunner.map()`` — freezes *all* of
    them for its full duration: heartbeats stall, backpressure windows
    close, and the ``REPRO_LOOPWATCH`` twin measures the stall as one
    oversized callback.  The rule computes the coroutine-reachability
    graph (public coroutine API, ``create_task`` spawn targets,
    callback references, sync entries) and a blocking fixpoint over the
    *sync* call closure of each reachable coroutine, so blocking
    laundered through sync helpers is still charged to the coroutine
    that runs it.

    Offending::

        async def _tenant_loop(self, state):
            op = await state.queue.get()
            self._mutate(state, op)          # RL017: _mutate() →
                                             #   save_checkpoint() → os.fsync()

    Clean::

        async def _tenant_loop(self, state):
            op = await state.queue.get()
            await asyncio.to_thread(self._mutate, state, op)

    ``await asyncio.to_thread(fn, ...)`` and
    ``loop.run_in_executor(None, fn, ...)`` pass the blocking callable
    *by reference* — no call edge, so the sanctioned escape hatches are
    exempt by construction.  A deliberate inline block takes an
    explicit ``# lint: ignore[RL017]``.
    """

    code = "RL017"
    name = "blocking-call-in-coroutine"
    description = (
        "synchronous blocking call reachable from an event-loop "
        "coroutine — move it behind asyncio.to_thread/run_in_executor"
    )

    def check_program(self, program: "Program") -> Iterator[LintFinding]:
        model = AsyncModel(program)
        for fqid in sorted(model.reachable):
            hit = model.blocking.get(fqid)
            if hit is None:
                continue
            chain, path, line, col = hit
            yield self.program_finding(
                path,
                line,
                col,
                f"coroutine {fqid} ({model.reachable[fqid]}) blocks the "
                f"event loop: {chain} — run it via asyncio.to_thread / "
                "run_in_executor instead",
                symbol=fqid,
            )


@register
class OrphanedTaskRule(ProgramRule):
    """RL018 — a ``create_task`` handle is discarded.

    ``asyncio.create_task(...)`` as a bare expression statement orphans
    the task twice over: the only strong reference dies immediately (the
    event loop keeps weak references, so the task can be garbage
    collected *mid-flight*), and any exception it raises is silently
    parked until the interpreter logs "Task exception was never
    retrieved" at teardown — the runtime signature the
    ``REPRO_LOOPWATCH`` twin detects via the loop exception handler.
    Every spawned task needs an owner: store the handle and await or
    cancel it on shutdown, gather it, or chain
    ``.add_done_callback(...)`` for fire-and-forget work.

    Offending::

        async def _on_connection(self, reader, writer):
            asyncio.create_task(self._write_loop())      # RL018

    Clean::

        async def _on_connection(self, reader, writer):
            self.task = asyncio.create_task(self._write_loop())
            ...
            await self.task

    Receiver-typed spawns (``loop.create_task``, ``TaskGroup``) manage
    their own lifetimes and are out of scope.  A deliberate
    fire-and-forget takes an explicit ``# lint: ignore[RL018]``.
    """

    code = "RL018"
    name = "orphaned-task"
    description = (
        "create_task() result discarded — the task can be collected "
        "mid-flight and its exceptions are never retrieved"
    )

    def check_program(self, program: "Program") -> Iterator[LintFinding]:
        for fqid, fn, fs, _cls in program.all_functions():
            for callee, spawned, handled, line, col in fn.spawns:
                if handled or not AsyncModel.is_asyncio_spawn(fs, callee):
                    continue
                what = f"{spawned}()" if spawned else "the spawned coroutine"
                yield self.program_finding(
                    fs.path,
                    line,
                    col,
                    f"{callee}(...) in {fqid} discards the task handle — "
                    f"{what} can be garbage-collected mid-flight and its "
                    "exceptions are never retrieved; store/await the task, "
                    "gather it, or add_done_callback",
                    symbol=fqid,
                )


@register
class UnboundedChannelRule(ProgramRule):
    """RL019 — an unbounded channel inside the serving layer.

    The daemon's backpressure invariant is that *every* hop of
    ``socket → line reader → tenant queue → worker → output queue →
    writer`` is bounded: a stalled consumer must push back to the
    sender's TCP window instead of growing daemon memory.  One default
    ``asyncio.Queue()`` (infinite) or ``StreamReader()`` (default
    limit, decoupled from ``--max-line``) silently breaks the chain —
    memory grows until the OOM killer, not the backpressure, ends the
    connection.  Inside ``repro.serve`` (or any module declaring
    ``_SERVE_SCOPE = True``), channel constructors must pass an
    explicit bound.

    Offending::

        self.out = asyncio.Queue()                       # RL019
        reader = asyncio.StreamReader()                  # RL019

    Clean::

        self.out = asyncio.Queue(daemon.queue_size)
        reader = asyncio.StreamReader(limit=daemon._reader_limit())

    The rule checks bound *presence*, not value — the bound should come
    from the one configured knob (``--queue-size`` / ``--max-line``),
    which is not a foldable constant.  A deliberately unbounded channel
    takes an explicit ``# lint: ignore[RL019]``.
    """

    code = "RL019"
    name = "unbounded-channel"
    description = (
        "asyncio.Queue()/StreamReader() without an explicit bound in "
        "the serving layer — every backpressure hop must be bounded"
    )

    def check_program(self, program: "Program") -> Iterator[LintFinding]:
        for fqid, fn, fs, _cls in program.all_functions():
            if not _serve_scoped(fs):
                continue
            for call in fn.calls:
                ext = external_name(fs, call.callee)
                if ext in _QUEUE_CTORS:
                    bound = call.kwargs.get("maxsize")
                    bounded = bool(call.args) or (
                        bound is not None and not self._is_zero(bound)
                    )
                    kind = "queue"
                elif ext in _READER_CTORS:
                    bounded = bool(call.args) or "limit" in call.kwargs
                    kind = "stream reader"
                else:
                    continue
                if bounded:
                    continue
                yield self.program_finding(
                    fs.path,
                    call.lineno,
                    call.col,
                    f"{call.callee}() in {fqid} constructs an unbounded "
                    f"{kind} — pass an explicit bound so a stalled "
                    "consumer stalls intake instead of growing memory",
                    symbol=fqid,
                )

    @staticmethod
    def _is_zero(arg: dict[str, Any]) -> bool:
        const = arg.get("const")
        return (
            arg.get("kind") == "const"
            and const is not None
            and const.get("k") == "num"
            and not const.get("v")
        )


@register
class UnshieldedCleanupAwaitRule(ProgramRule):
    """RL020 — an await inside ``finally`` with no cancellation story.

    A ``finally`` block runs on the cancellation path too — and the
    *first* ``await`` inside it re-raises the pending
    ``CancelledError``, abandoning the rest of the cleanup mid-flight
    (half-flushed output queues, unwritten checkpoints).  Worse, an
    await that *suspends* there can hang a second cancellation forever.
    A cleanup await needs one of the two established patterns: wrap the
    awaitable in ``asyncio.shield(...)`` so cancellation of the outer
    task cannot tear it, or use the daemon's hard-stop pattern — an
    ``except asyncio.CancelledError`` handler on the same ``try`` that
    flips the drain/abort flags first, so the ``finally`` awaits are
    guarded and bounded when they run.

    Offending::

        try:
            await self._pump(reader)
        finally:
            await state.queue.join()                 # RL020

    Clean::

        try:
            await self._pump(reader)
        except asyncio.CancelledError:
            self._abort(state)                       # hard stop: flags off
            raise
        finally:
            if not self.draining:
                await state.queue.join()             # guarded
        # ... or: await asyncio.shield(self._flush())

    A deliberate unshielded cleanup await takes an explicit
    ``# lint: ignore[RL020]``.
    """

    code = "RL020"
    name = "unshielded-cleanup-await"
    description = (
        "await in a finally block without asyncio.shield or a "
        "CancelledError hard-stop handler — cancellation abandons "
        "cleanup mid-flight"
    )

    def check_program(self, program: "Program") -> Iterator[LintFinding]:
        for fqid, fn, fs, _cls in program.all_functions():
            for desc, shielded, guarded, line, col in fn.finally_awaits:
                if shielded or guarded:
                    continue
                yield self.program_finding(
                    fs.path,
                    line,
                    col,
                    f"await {desc} in a finally block of {fqid} is neither "
                    "shielded (asyncio.shield) nor guarded by a "
                    "CancelledError hard-stop handler — cancellation "
                    "abandons the cleanup mid-flight",
                    symbol=fqid,
                )


@register
class QueueJoinProtocolRule(ProgramRule):
    """RL021 — an unbalanced ``Queue.join()`` drain protocol.

    ``await queue.join()`` resolves only when ``task_done()`` has been
    called once per ``put``: a consumer that skips ``task_done()`` on
    *any* path (an exception between ``get()`` and ``task_done()``, an
    early ``return``) leaves the join counter high and the drain hangs
    forever — the daemon's graceful shutdown then dies by watchdog
    instead of finishing.  The rule groups queue operations by receiver
    (``self.out``, ``state.queue``) within a module/class and checks,
    wherever an awaited ``join()`` exists:

    * some ``task_done()`` exists at all for that receiver (else the
      join can never complete);
    * every consumer (a function awaiting ``<recv>.get()``) calls
      ``task_done()``, and at least one of its calls sits in a
      ``finally`` block, so exception paths cannot skip it;
    * shutdown ordering: in a function that both joins and enqueues the
      ``None`` poison pill, the pill is put *after* the join — a pill
      enqueued first can make the consumer exit early and strand
      queued work, hanging the join.

    Offending::

        async def _write_loop(self):
            while True:
                record = await self.out.get()
                await self._send(record)     # an exception here skips...
                self.out.task_done()         # RL021: ...task_done()

    Clean::

        async def _write_loop(self):
            while True:
                record = await self.out.get()
                try:
                    await self._send(record)
                finally:
                    self.out.task_done()

    A deliberate protocol variation takes an explicit
    ``# lint: ignore[RL021]``.
    """

    code = "RL021"
    name = "queue-join-protocol"
    description = (
        "Queue.join() without task_done() on every consumer path (or "
        "poison pill enqueued before the join) — the drain hangs"
    )

    #: per-receiver operation record: (fqid, fs, line, col, in_finally)
    def check_program(self, program: "Program") -> Iterator[LintFinding]:
        groups: dict[tuple[str, str | None, str], dict[str, list[Any]]] = {}
        for fqid, fn, fs, cls_name in program.all_functions():
            for call in fn.calls:
                recv, _, leaf = call.callee.rpartition(".")
                if not recv:
                    continue
                recv_leaf = recv.rsplit(".", 1)[-1]
                key = (fs.module, cls_name, recv_leaf)
                ops = groups.setdefault(
                    key,
                    {"join": [], "task_done": [], "get": [], "pill": []},
                )
                site = (fqid, fs, call.lineno, call.col, call.in_finally)
                if leaf == "join" and call.awaited:
                    ops["join"].append(site)
                elif leaf == "task_done":
                    ops["task_done"].append(site)
                elif leaf == "get" and call.awaited:
                    ops["get"].append(site)
                elif (
                    leaf in ("put", "put_nowait")
                    and call.args
                    and call.args[0].get("kind") == "const"
                    and (call.args[0].get("const") or {}).get("k") == "none"
                ):
                    ops["pill"].append(site)
        for key in sorted(groups, key=lambda k: (k[0], k[1] or "", k[2])):
            yield from self._check_group(key[2], groups[key])

    def _check_group(
        self, recv: str, ops: dict[str, list[Any]]
    ) -> Iterator[LintFinding]:
        if not ops["join"]:
            return
        if not ops["task_done"]:
            for fqid, fs, line, col, _fin in ops["join"]:
                yield self.program_finding(
                    fs.path,
                    line,
                    col,
                    f"await {recv}.join() in {fqid} but no "
                    f"{recv}.task_done() exists anywhere — the join "
                    "can never complete",
                    symbol=fqid,
                )
            return
        # Per-consumer balance: every getter must task_done, with at
        # least one call on a finally path.
        done_by_fn: dict[str, list[Any]] = {}
        for site in ops["task_done"]:
            done_by_fn.setdefault(site[0], []).append(site)
        for fqid, fs, line, col, _fin in ops["get"]:
            dones = done_by_fn.get(fqid)
            if dones is None:
                yield self.program_finding(
                    fs.path,
                    line,
                    col,
                    f"consumer {fqid} awaits {recv}.get() but never "
                    f"calls {recv}.task_done() — items it takes keep "
                    "the join counter high forever",
                    symbol=fqid,
                )
            elif not any(site[4] for site in dones):
                _dfq, dfs, dline, dcol, _dfin = dones[0]
                yield self.program_finding(
                    dfs.path,
                    dline,
                    dcol,
                    f"{recv}.task_done() in {fqid} is not on every "
                    "consumer path (an exception between get() and "
                    "task_done() skips it) — move it into a finally "
                    "block",
                    symbol=fqid,
                )
        # Shutdown ordering: pill after join, within one function.
        joins_by_fn: dict[str, list[Any]] = {}
        for site in ops["join"]:
            joins_by_fn.setdefault(site[0], []).append(site)
        for fqid, fs, line, col, _fin in ops["pill"]:
            for _jfq, _jfs, jline, _jcol, _jfin in joins_by_fn.get(fqid, []):
                if line < jline:
                    yield self.program_finding(
                        fs.path,
                        line,
                        col,
                        f"{recv}.put(None) poison pill in {fqid} is "
                        f"enqueued before the {recv}.join() at line "
                        f"{jline} — the consumer can exit early and "
                        "strand queued work, hanging the join",
                        symbol=fqid,
                    )
                    break
