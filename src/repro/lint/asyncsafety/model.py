"""The coroutine-reachability graph and blocking-call fixpoint.

The serving layer is a single-threaded event loop: one blocking call in
any coroutine the loop runs stalls *every* tenant at once.  Proving the
loop non-blocking statically needs two whole-program facts, both built
here from :class:`~repro.lint.dataflow.FileSummary` data only (so a
cached run gives the same verdicts as a fresh one):

* **which** ``async def``s actually run on the event loop — the
  *coroutine-reachability graph*.  Roots are public coroutines (the API
  surface sync code enters via ``asyncio.run``), coroutines spawned via
  ``create_task`` / ``ensure_future`` anywhere, coroutines invoked from
  sync code, and coroutines passed by reference as callbacks
  (``start_unix_server(self._on_connection)``).  Edges follow resolved
  calls and spawns out of reachable coroutines, so private helpers
  awaited or gathered by a reachable coroutine are reachable too;
* **which** callables block — the *blocking fixpoint*.  Seeds are known
  blocking externals (``time.sleep``, ``open``, sync file/socket I/O,
  ``subprocess``), whole-instance simulations (``Simulator.run()`` on a
  ``Simulator``-origin receiver) and process-pool round trips
  (``ParallelRunner.map``/``starmap``).  Blocking propagates through
  *sync* call edges only: calling an ``async def`` merely constructs a
  coroutine, and the blocking inside it is charged to that coroutine
  itself when it is reachable.  A blocking callable passed as an
  *argument* (``await asyncio.to_thread(save_checkpoint, ...)``,
  ``loop.run_in_executor(None, fn)``) produces no call edge, so the
  sanctioned off-loop escape hatches are exempt by construction.

RL017 is the product of the two: a reachable coroutine whose sync call
closure blocks.  The same model feeds the ``REPRO_LOOPWATCH`` runtime
twin's cross-validation tests (static verdicts vs. measured stall
durations on shared fixture packages).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..dataflow.program import Program
    from ..dataflow.summary import CallSite, FileSummary

__all__ = ["AsyncModel", "BLOCKING_CALLS", "BLOCKING_LEAVES", "external_name"]

#: Fully-qualified external callables that block the calling thread.
BLOCKING_CALLS = frozenset(
    {
        "time.sleep",
        "os.fsync",
        "os.replace",
        "os.rename",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "socket.create_connection",
        "urllib.request.urlopen",
    }
)

#: Method leaves that are synchronous file I/O wherever they appear
#: (``Path.read_text`` and friends, ``path.open(...)``).
BLOCKING_LEAVES = frozenset(
    {"read_text", "write_text", "read_bytes", "write_bytes", "open"}
)

_SPAWN_CALLS = frozenset({"asyncio.create_task", "asyncio.ensure_future"})


def external_name(fs: "FileSummary", callee: str) -> str:
    """Resolve a callee's import alias to its external dotted name.

    ``sleep`` under ``from time import sleep`` becomes ``time.sleep``;
    ``time.sleep`` under ``import time`` stays ``time.sleep``; names
    with no import binding are returned as written (builtins).
    """
    head, _, rest = callee.partition(".")
    fq = fs.imports.get(head)
    if fq is None:
        return callee
    return fq + ("." + rest if rest else "")


class AsyncModel:
    """Reachability + blocking facts over one assembled ``Program``."""

    def __init__(self, program: "Program") -> None:
        self.program = program
        #: async fn id -> how it reaches the event loop (short note)
        self.reachable: dict[str, str] = {}
        #: fn id -> (chain description, witness path, line, col)
        self.blocking: dict[str, tuple[str, str, int, int]] = {}
        self._build_reachability()
        self._blocking_fixpoint()

    # -- shared helpers ------------------------------------------------------
    def _resolved_key(self, call: "CallSite", fs: "FileSummary", cls_name: str | None) -> str | None:
        resolved = self.program.resolve_call(call, fs.module, cls_name)
        if resolved is None:
            return None
        kind, symbol = resolved
        return symbol + ".__init__" if kind == "class" else symbol

    def is_async(self, key: str) -> bool:
        fn = self.program.functions.get(key)
        return fn is not None and fn.is_async

    def spawn_target(
        self, spawned: str | None, fs: "FileSummary", cls_name: str | None
    ) -> str | None:
        """Resolve a spawn's coroutine expression to a program symbol."""
        if spawned is None:
            return None
        if spawned.startswith("self.") and cls_name is not None:
            rest = spawned[5:]
            if "." in rest:
                return None
            hit = self.program.lookup_method(f"{fs.module}.{cls_name}", rest)
            if hit is None:
                return None
            owner, _fn = hit
            return f"{owner}.{rest}"
        resolved = self.program.resolve_name(fs.module, spawned)
        if resolved is not None:
            return resolved
        # ``create_task(daemon._tenant_loop(self))`` — a method spawned
        # through an instance-typed local.  Fall back to a same-module
        # leaf-name match over async methods (deterministic: first class
        # in definition order wins).
        leaf = spawned.rsplit(".", 1)[-1]
        if "." in spawned:
            for cls in fs.classes.values():
                m = cls.methods.get(leaf)
                if m is not None and m.is_async:
                    return f"{fs.module}.{cls.name}.{leaf}"
        return None

    @staticmethod
    def is_asyncio_spawn(fs: "FileSummary", callee: str) -> bool:
        """Is this ``create_task``/``ensure_future`` the asyncio one?

        Receiver-typed spawns (``loop.create_task``, task groups) are a
        documented soundness limit — only module-rooted asyncio spawns
        are modelled.
        """
        return external_name(fs, callee) in _SPAWN_CALLS

    # -- reachability --------------------------------------------------------
    def _build_reachability(self) -> None:
        program = self.program
        roots: dict[str, str] = {}

        for fqid, fn, fs, cls_name in program.all_functions():
            if fn.is_async and not fn.name.rsplit(".", 1)[-1].startswith("_"):
                roots.setdefault(fqid, "public coroutine API")
            for callee, spawned, _handled, line, _col in fn.spawns:
                if not self.is_asyncio_spawn(fs, callee):
                    continue
                target = self.spawn_target(spawned, fs, cls_name)
                if target is not None and self.is_async(target):
                    roots.setdefault(
                        target, f"spawned via create_task at {fs.path}:{line}"
                    )
            for call in fn.calls:
                key = self._resolved_key(call, fs, cls_name)
                if key is not None and self.is_async(key) and not fn.is_async:
                    roots.setdefault(
                        key, f"entered from sync code at {fs.path}:{call.lineno}"
                    )
                for arg in [*call.args, *call.kwargs.values()]:
                    target = self._callback_ref(arg, fs, cls_name)
                    if target is not None and self.is_async(target):
                        roots.setdefault(
                            target,
                            f"scheduled as a callback at {fs.path}:{call.lineno}",
                        )

        # Closure: follow calls and spawns out of reachable coroutines.
        self.reachable = dict(roots)
        work = sorted(self.reachable)
        while work:
            fqid = work.pop()
            fn = program.functions.get(fqid)
            if fn is None or not fn.is_async:
                continue
            fs, cls_name = program.fn_context[fqid]
            targets: list[str] = []
            for call in fn.calls:
                key = self._resolved_key(call, fs, cls_name)
                if key is not None:
                    targets.append(key)
            for callee, spawned, _handled, _line, _col in fn.spawns:
                if self.is_asyncio_spawn(fs, callee):
                    target = self.spawn_target(spawned, fs, cls_name)
                    if target is not None:
                        targets.append(target)
            for key in targets:
                if self.is_async(key) and key not in self.reachable:
                    self.reachable[key] = f"driven by {fqid}"
                    work.append(key)

    def _callback_ref(
        self, arg: dict, fs: "FileSummary", cls_name: str | None
    ) -> str | None:
        kind = arg.get("kind")
        if kind == "attr" and cls_name is not None:
            hit = self.program.lookup_method(
                f"{fs.module}.{cls_name}", str(arg["attr"])
            )
            if hit is None:
                return None
            owner, _fn = hit
            return f"{owner}.{arg['attr']}"
        if kind == "ref":
            resolved = self.program.resolve_name(fs.module, str(arg["ref"]))
            if resolved is not None and resolved in self.program.functions:
                return resolved
        return None

    # -- blocking ------------------------------------------------------------
    def _seed_detail(
        self, call: "CallSite", fs: "FileSummary", cls_name: str | None
    ) -> str | None:
        """Why this single call blocks, or ``None``."""
        if call.recv_sim:
            return f"{call.callee}() runs a whole simulation inline"
        if call.recv_runner:
            return f"{call.callee}() is a process-pool round trip"
        # A name that resolves *inside* the program is a call edge, not
        # an external seed (covers a local helper named ``open``).
        if self._resolved_key(call, fs, cls_name) is not None:
            return None
        ext = external_name(fs, call.callee)
        if ext == "open" or ext in BLOCKING_CALLS:
            return f"{ext}() blocks the event loop thread"
        leaf = call.callee.rsplit(".", 1)[-1]
        if leaf in BLOCKING_LEAVES:
            return f".{leaf}() is synchronous file I/O"
        return None

    def _blocking_fixpoint(self) -> None:
        program = self.program
        blocking = self.blocking
        for fqid, fn, fs, cls_name in program.all_functions():
            for call in fn.calls:
                detail = self._seed_detail(call, fs, cls_name)
                if detail is not None:
                    blocking.setdefault(
                        fqid, (detail, fs.path, call.lineno, call.col)
                    )
                    break
        changed = True
        while changed:
            changed = False
            for fqid, fn, fs, cls_name in program.all_functions():
                if fqid in blocking:
                    continue
                for call in fn.calls:
                    key = self._resolved_key(call, fs, cls_name)
                    if key is None or key not in blocking:
                        continue
                    # Blocking propagates through *sync* calls only:
                    # calling an async def just builds a coroutine.
                    if self.is_async(key):
                        continue
                    detail = blocking[key][0]
                    blocking[fqid] = (
                        f"{call.callee}() → {detail}",
                        fs.path,
                        call.lineno,
                        call.col,
                    )
                    changed = True
                    break
