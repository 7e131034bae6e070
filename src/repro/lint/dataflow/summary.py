"""Per-file fact extraction for the whole-program dataflow pass.

A :class:`FileSummary` is a pure-data snapshot of everything the
program rules need to know about one module — no AST nodes, no
cross-references — so it can be cached on disk keyed by content hash.
The whole-program pass (:mod:`repro.lint.dataflow.program`) then runs
over summaries only.

Extraction is a single AST walk per function with a small origin-tag
fixpoint: every local name carries a set of *origins* —

``("param", p)``
    derived from parameter ``p`` (aliases included);
``("job",)``
    intrinsically job-typed (``ctx.pending()`` loop targets,
    ``JobView``-annotated locals, job-ish lambda parameters);
``("attr", a)``
    derived from ``self.<a>`` (job-container attributes are resolved
    against the class hierarchy at program time);
``("runner",)`` / ``("sim",)``
    a :class:`repro.perf.ParallelRunner` or an engine ``Simulator``
    (their ``map``/``run`` calls block the event loop, RL017).

The facts are the clairvoyance reads and taint edges of RL007 and the
async facts of RL017–RL021: awaited, discarded and ``finally`` call
contexts, task spawns, and ``finally``-block awaits.
"""

from __future__ import annotations

import ast
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Iterator

__all__ = [
    "CallSite",
    "ClassSummary",
    "FileSummary",
    "FunctionSummary",
    "extract_summary",
    "fold_const",
    "module_name_for",
]

#: Annotations marking a parameter/local as job-typed.
_JOB_TYPES = {"JobView", "Job"}

#: ``ctx`` accessors whose elements are job views.
_JOB_LIST_CALLS = {"pending", "running"}

#: Clairvoyant attributes: reading any of these on a job is the taint source.
_TAINT_ATTRS = {"length", "with_length", "_lengths"}

#: Constructors producing a ParallelRunner.
_RUNNER_CTORS = {"ParallelRunner", "get_default_runner"}

#: Constructors producing an engine ``Simulator`` (the asyncsafety rules
#: treat a ``.run()`` on such a receiver as a whole-instance blocking
#: simulation, which must never run inline on the event loop).
_SIM_CTORS = {"Simulator"}


# ---------------------------------------------------------------------------
# Data model (JSON-native field types only)
# ---------------------------------------------------------------------------


@dataclass
class CallSite:
    """One call expression inside a function."""

    callee: str  #: dotted name as written ("self._peek", "helpers.peek")
    lineno: int
    col: int
    args: list[dict[str, Any]]  #: positional argument descriptors
    kwargs: dict[str, dict[str, Any]]  #: keyword argument descriptors
    recv_runner: bool = False  #: receiver resolved to a ParallelRunner
    recv_sim: bool = False  #: receiver resolved to a Simulator
    awaited: bool = False  #: the call is the operand of an ``await``
    in_finally: bool = False  #: lexically inside a ``finally`` block


@dataclass
class FunctionSummary:
    """Facts about one function or method."""

    name: str  #: module-level qualname ("Cls.m", "f", "f.<locals>.g")
    lineno: int
    params: list[str]  #: positional parameter names, ``self`` included
    job_params: list[str]  #: heuristically job-typed parameters
    #: ``.length``/``.with_length``/``._lengths`` reads on param-derived
    #: names: ``[param, attr, lineno, col]``
    param_length_reads: list[list[Any]] = field(default_factory=list)
    #: reads on intrinsically job-typed names: ``[attr, lineno, col]``
    intrinsic_length_reads: list[list[Any]] = field(default_factory=list)
    #: reads on ``self.<a>``-derived names: ``[self_attr, attr, lineno, col]``
    attr_length_reads: list[list[Any]] = field(default_factory=list)
    #: ``self.<a>`` attributes assigned job-typed values in this function
    job_attr_stores: list[str] = field(default_factory=list)
    calls: list[CallSite] = field(default_factory=list)
    returns_taint: bool = False  #: returns clairvoyant data directly
    #: callees whose return value this function returns (taint propagation)
    returns_call_of: list[str] = field(default_factory=list)
    is_async: bool = False  #: declared ``async def``
    #: ``create_task``/``ensure_future`` sites (RL018): ``[callee as
    #: written, spawned coroutine dotted name or None, handled, lineno,
    #: col]`` — ``handled`` is 0 when the returned task is discarded (a
    #: bare expression statement), 1 when it is stored, awaited, passed
    #: on, or chained into ``.add_done_callback``.
    spawns: list[list[Any]] = field(default_factory=list)
    #: ``await`` expressions inside ``finally`` blocks (RL020):
    #: ``[awaited desc, shielded, cancel_guarded, lineno, col]`` —
    #: ``shielded`` is 1 for ``await asyncio.shield(...)``;
    #: ``cancel_guarded`` is 1 when the owning ``try`` also has a
    #: ``CancelledError`` (or broader) handler, the hard-stop pattern.
    finally_awaits: list[list[Any]] = field(default_factory=list)


@dataclass
class ClassSummary:
    """Facts about one class definition."""

    name: str
    lineno: int
    bases: list[str]  #: base names as written (dotted allowed)
    #: literal class attributes (``requires_clairvoyance``, …)
    class_attrs: dict[str, Any] = field(default_factory=dict)
    methods: dict[str, FunctionSummary] = field(default_factory=dict)
    #: ``self.<a>`` attributes assigned job-typed values anywhere in class
    job_attrs: list[str] = field(default_factory=list)


@dataclass
class FileSummary:
    """Everything the whole-program pass knows about one file."""

    path: str  #: path as reported in findings (scan-root relative)
    module: str  #: dotted module name ("repro.schedulers.cdb")
    imports: dict[str, str] = field(default_factory=dict)  #: alias -> fq name
    functions: dict[str, FunctionSummary] = field(default_factory=dict)
    classes: dict[str, ClassSummary] = field(default_factory=dict)
    #: module-level literal and alias bindings: name -> const descriptor
    constants: dict[str, Any] = field(default_factory=dict)
    #: line -> suppressed codes (mirrors FileContext.suppressions; "*" = all)
    suppressions: dict[str, list[str]] = field(default_factory=dict)

    # -- (de)serialisation --------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FileSummary":
        def fn(d: dict[str, Any]) -> FunctionSummary:
            d = dict(d)
            d["calls"] = [CallSite(**c) for c in d.get("calls", [])]
            return FunctionSummary(**d)

        def klass(d: dict[str, Any]) -> ClassSummary:
            d = dict(d)
            d["methods"] = {k: fn(v) for k, v in d.get("methods", {}).items()}
            return ClassSummary(**d)

        d = dict(data)
        d["functions"] = {k: fn(v) for k, v in d.get("functions", {}).items()}
        d["classes"] = {k: klass(v) for k, v in d.get("classes", {}).items()}
        return cls(**d)

    def is_suppressed(self, line: int, code: str) -> bool:
        codes = self.suppressions.get(str(line))
        return codes is not None and ("*" in codes or code in codes)


# ---------------------------------------------------------------------------
# Module naming
# ---------------------------------------------------------------------------


def module_name_for(file: Path) -> str:
    """Dotted module name inferred from the filesystem package layout.

    Walks up from ``file`` while ``__init__.py`` markers are present, so
    ``src/repro/schedulers/cdb.py`` maps to ``repro.schedulers.cdb`` and a
    fixture package ``laundered_pkg/helpers.py`` to
    ``laundered_pkg.helpers``.
    """
    file = file.resolve()
    parts = [file.stem]
    parent = file.parent
    while (parent / "__init__.py").exists():
        parts.append(parent.name)
        parent = parent.parent
    if parts[0] == "__init__":
        parts = parts[1:]
        if not parts:  # a bare __init__.py outside any package
            return file.parent.name
    return ".".join(reversed(parts))


# ---------------------------------------------------------------------------
# Constants
# ---------------------------------------------------------------------------


def fold_const(node: ast.expr) -> dict[str, Any] | None:
    """Describe a literal or a name, or ``None``.

    Descriptors: ``{"k": "num"|"str"|"none", "v": value}`` for literals
    (booleans fold to ``num``), ``{"k": "ref", "v": dotted}`` for names
    resolvable only at program time.
    """
    if isinstance(node, ast.Constant):
        v = node.value
        if v is None:
            return {"k": "none", "v": None}
        if isinstance(v, bool):
            return {"k": "num", "v": int(v)}
        if isinstance(v, (int, float)):
            return {"k": "num", "v": v}
        if isinstance(v, str):
            return {"k": "str", "v": v}
        return None
    if isinstance(node, (ast.Name, ast.Attribute)):
        dotted = _dotted(node)
        if dotted is not None:
            return {"k": "ref", "v": dotted}
    return None


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for Name/Attribute chains; ``super.m`` for super() calls."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "super"
        and parts
    ):
        parts.append("super")
        return ".".join(reversed(parts))
    return None


def _annotation_leaf(node: ast.expr | None) -> str | None:
    """Rightmost identifier of an annotation (Optional/union/str forms)."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.strip().rsplit(".", 1)[-1].rstrip("]").strip('"')
    if isinstance(node, ast.Subscript):
        return _annotation_leaf(node.slice)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        # ``X | None`` — prefer the non-None side.
        left = _annotation_leaf(node.left)
        return left if left not in (None, "None") else _annotation_leaf(node.right)
    name = _dotted(node)
    if name is not None:
        return name.rsplit(".", 1)[-1]
    return None


# ---------------------------------------------------------------------------
# Per-function origin analysis
# ---------------------------------------------------------------------------

Origin = tuple  # ("param", n) | ("job",) | ("attr", n) | ("runner",) | ("sim",)

#: ``try`` statement node types (``except*`` groups included on 3.11+).
_TRY_NODES: tuple = (ast.Try, *((ast.TryStar,) if hasattr(ast, "TryStar") else ()))


class _FunctionAnalyzer:
    """Single-function dataflow: origin tags, reads, calls, async facts."""

    def __init__(
        self, fn: ast.FunctionDef | ast.AsyncFunctionDef, qualname: str
    ) -> None:
        self.fn = fn
        self.origins: dict[str, set[Origin]] = {}
        self.out = FunctionSummary(
            name=qualname,
            lineno=fn.lineno,
            params=[],
            job_params=[],
            is_async=isinstance(fn, ast.AsyncFunctionDef),
        )
        #: ``Call`` node ids that are the direct operand of an ``await``.
        self._awaited_ids: set[int] = set()
        #: ``Call`` node ids whose result is discarded (bare ``Expr``).
        self._bare_expr_ids: set[int] = set()
        #: ``Call`` node ids lexically inside a ``finally`` block.
        self._finally_ids: set[int] = set()

    # -- origin helpers ------------------------------------------------------
    def _add_origin(self, name: str, origin: Origin) -> bool:
        bucket = self.origins.setdefault(name, set())
        if origin in bucket:
            return False
        bucket.add(origin)
        return True

    def origins_of(self, node: ast.expr) -> set[Origin]:
        if isinstance(node, ast.Name):
            return self.origins.get(node.id, set())
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                return {("attr", node.attr)}
            return set()
        if isinstance(node, (ast.Subscript, ast.Starred)):
            return self.origins_of(node.value)
        if isinstance(node, ast.IfExp):
            return self.origins_of(node.body) | self.origins_of(node.orelse)
        if isinstance(node, ast.Call):
            name = _dotted(node.func)
            if name is not None:
                leaf = name.rsplit(".", 1)[-1]
                if leaf in _JOB_LIST_CALLS:
                    return {("job",)}
                if leaf in _RUNNER_CTORS:
                    return {("runner",)}
                if leaf in _SIM_CTORS:
                    return {("sim",)}
                if leaf in ("list", "sorted", "tuple", "reversed", "iter", "next"):
                    if node.args:
                        return self.origins_of(node.args[0])
                if leaf in ("values", "keys", "items", "get", "copy"):
                    # self._pending.values() — origins of the receiver.
                    if isinstance(node.func, ast.Attribute):
                        return self.origins_of(node.func.value)
        return set()

    def _is_job_valued(self, node: ast.expr) -> bool:
        """Does ``node`` plausibly evaluate to a job object/container?

        ``self.<attr>`` origins do not count here: which attributes hold
        jobs is resolved over the class hierarchy at program time.
        """
        for origin in self.origins_of(node):
            if origin[0] == "job":
                return True
            if origin[0] == "param" and origin[1] in self.out.job_params:
                return True
        return False

    def _bind_target(self, target: ast.expr, origins: set[Origin]) -> bool:
        changed = False
        if isinstance(target, ast.Name):
            for origin in origins:
                changed |= self._add_origin(target.id, origin)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                changed |= self._bind_target(elt, origins)
        elif isinstance(target, ast.Starred):
            changed |= self._bind_target(target.value, origins)
        return changed

    # -- main entry ----------------------------------------------------------
    def run(self) -> FunctionSummary:
        self._seed_params()
        self._origin_fixpoint()
        self._collect_async_contexts()
        self._scan_body()
        return self.out

    def _seed_params(self) -> None:
        args = self.fn.args
        ordered = [*args.posonlyargs, *args.args, *args.kwonlyargs]
        extras = [a for a in (args.vararg, args.kwarg) if a is not None]
        for a in ordered:
            self.out.params.append(a.arg)
        for a in [*ordered, *extras]:
            self._add_origin(a.arg, ("param", a.arg))
            leaf = _annotation_leaf(a.annotation)
            if a.arg not in ("self", "ctx") and (leaf in _JOB_TYPES or a.arg == "job"):
                self.out.job_params.append(a.arg)
                self._add_origin(a.arg, ("job",))
            if leaf == "ParallelRunner":
                self._add_origin(a.arg, ("runner",))
            if leaf in _SIM_CTORS:
                self._add_origin(a.arg, ("sim",))

    def _walk_own(self) -> Iterator[ast.AST]:
        """Walk the function body, *excluding* nested function bodies
        (summarised separately); lambdas are analysed inline (sort keys
        read job attributes)."""
        stack: list[ast.AST] = list(self.fn.body)
        while stack:
            node = stack.pop()
            yield node
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                stack.extend(ast.iter_child_nodes(node))

    def _origin_fixpoint(self) -> None:
        changed = True
        while changed:
            changed = False
            for node in self._walk_own():
                if isinstance(node, ast.Assign):
                    origins = self.origins_of(node.value)
                    if origins:
                        for t in node.targets:
                            changed |= self._bind_target(t, origins)
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    origins = set(self.origins_of(node.value))
                    leaf = _annotation_leaf(node.annotation)
                    if leaf in _JOB_TYPES:
                        origins.add(("job",))
                    if leaf == "ParallelRunner":
                        origins.add(("runner",))
                    if leaf in _SIM_CTORS:
                        origins.add(("sim",))
                    if origins:
                        changed |= self._bind_target(node.target, origins)
                elif isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)):
                    origins = self.origins_of(node.iter)
                    if origins:
                        changed |= self._bind_target(node.target, origins)
                elif isinstance(node, ast.Lambda):
                    for a in node.args.args:
                        if a.arg in ("job", "j", "jv"):
                            changed |= self._add_origin(a.arg, ("job",))

    # -- async contexts ------------------------------------------------------
    @staticmethod
    def _walk_shallow(stmts: list[ast.stmt]) -> Iterator[ast.AST]:
        """Walk statements without descending into nested ``def``s."""
        stack: list[ast.AST] = list(stmts)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            yield node
            stack.extend(ast.iter_child_nodes(node))

    @staticmethod
    def _catches_cancel(handlers: list[ast.ExceptHandler]) -> bool:
        """Does any handler catch ``CancelledError`` (or broader)?

        A ``try`` whose cancellation path is intercepted before the
        ``finally`` runs implements the daemon's hard-stop pattern: on
        cancel, the handler flips the drain/abort flags so the guarded
        cleanup awaits in ``finally`` are skipped or bounded.
        """
        for h in handlers:
            if h.type is None:
                return True
            types = h.type.elts if isinstance(h.type, ast.Tuple) else [h.type]
            for t in types:
                name = _dotted(t)
                # ``except Exception`` does *not* catch CancelledError
                # (it derives from BaseException), so it does not count.
                if name is not None and name.rsplit(".", 1)[-1] in (
                    "CancelledError",
                    "BaseException",
                ):
                    return True
        return False

    def _collect_async_contexts(self) -> None:
        """Record await/discard/finally contexts for the body scan.

        :meth:`_walk_own` yields nodes without parent links, so the
        per-call facts the asyncsafety rules need (is this call awaited?
        discarded? inside a ``finally``?) are precomputed here as node-id
        sets, and ``finally``-block awaits are summarised directly.
        """
        for node in self._walk_own():
            if isinstance(node, ast.Await) and isinstance(node.value, ast.Call):
                self._awaited_ids.add(id(node.value))
            elif isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
                self._bare_expr_ids.add(id(node.value))
            elif isinstance(node, _TRY_NODES):
                guarded = self._catches_cancel(node.handlers)
                for sub in self._walk_shallow(node.finalbody):
                    if isinstance(sub, ast.Call):
                        self._finally_ids.add(id(sub))
                    elif isinstance(sub, ast.Await):
                        self._record_finally_await(sub, guarded)

    def _record_finally_await(self, node: ast.Await, guarded: bool) -> None:
        value = node.value
        target = value.func if isinstance(value, ast.Call) else value
        desc = _dotted(target) or "<expr>"
        shielded = isinstance(value, ast.Call) and desc.rsplit(".", 1)[-1] == "shield"
        self.out.finally_awaits.append(
            [desc, int(shielded), int(guarded), node.lineno, node.col_offset]
        )

    # -- body scan ----------------------------------------------------------
    def _scan_body(self) -> None:
        for node in self._walk_own():
            if isinstance(node, ast.Attribute):
                self._scan_attribute(node)
            elif isinstance(node, ast.Call):
                self._scan_call(node)
            elif isinstance(node, ast.Return) and node.value is not None:
                self._scan_return(node.value)
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                self._scan_job_store(node)

    def _scan_attribute(self, node: ast.Attribute) -> None:
        if node.attr not in _TAINT_ATTRS:
            return
        if node.attr == "length" and not isinstance(node.ctx, ast.Load):
            return
        # ``Job._lengths`` / ``Instance._lengths``: adversary-committed
        # lengths — an unconditional clairvoyant source.
        if node.attr == "_lengths":
            self.out.intrinsic_length_reads.append(
                ["_lengths", node.lineno, node.col_offset]
            )
            return
        origins = self.origins_of(node.value)
        recorded = False
        for origin in origins:
            if origin[0] == "param":
                self.out.param_length_reads.append(
                    [origin[1], node.attr, node.lineno, node.col_offset]
                )
                recorded = True
            elif origin[0] == "attr":
                self.out.attr_length_reads.append(
                    [origin[1], node.attr, node.lineno, node.col_offset]
                )
                recorded = True
        if not recorded and ("job",) in origins:
            self.out.intrinsic_length_reads.append(
                [node.attr, node.lineno, node.col_offset]
            )

    def _describe_arg(self, arg: ast.expr) -> dict[str, Any]:
        const = fold_const(arg)
        if const is not None and const["k"] != "ref":
            return {"kind": "const", "const": const}
        origins = self.origins_of(arg)
        for origin in origins:
            if origin[0] == "param":
                job = ("job",) in origins or origin[1] in self.out.job_params
                return {"kind": "param", "param": origin[1], "job": job}
        if ("job",) in origins:
            return {"kind": "job"}
        for origin in origins:
            if origin[0] == "attr":
                return {"kind": "attr", "attr": origin[1]}
        if const is not None:  # a ref
            return {"kind": "ref", "ref": const["v"]}
        return {"kind": "other"}

    def _scan_call(self, node: ast.Call) -> None:
        callee = _dotted(node.func)
        if callee is None:
            return
        leaf = callee.rsplit(".", 1)[-1]
        # RL017 receiver typing: <runner>.map/starmap is a process-pool
        # round trip, <sim>.run() a whole-instance simulation.
        recv_runner = recv_sim = False
        if isinstance(node.func, ast.Attribute):
            recv = self.origins_of(node.func.value)
            recv_runner = leaf in ("map", "starmap") and ("runner",) in recv
            recv_sim = leaf == "run" and ("sim",) in recv
        args = [self._describe_arg(a) for a in node.args if not isinstance(a, ast.Starred)]
        kwargs = {
            kw.arg: self._describe_arg(kw.value)
            for kw in node.keywords
            if kw.arg is not None
        }
        self.out.calls.append(
            CallSite(
                callee=callee,
                lineno=node.lineno,
                col=node.col_offset,
                args=args,
                kwargs=kwargs,
                recv_runner=recv_runner,
                recv_sim=recv_sim,
                awaited=id(node) in self._awaited_ids,
                in_finally=id(node) in self._finally_ids,
            )
        )
        # Task spawns (RL018): record whether the returned handle is kept.
        if leaf in ("create_task", "ensure_future"):
            spawned: str | None = None
            if node.args and isinstance(node.args[0], ast.Call):
                spawned = _dotted(node.args[0].func)
            handled = 0 if id(node) in self._bare_expr_ids else 1
            self.out.spawns.append(
                [callee, spawned, handled, node.lineno, node.col_offset]
            )

    def _scan_return(self, value: ast.expr) -> None:
        for node in ast.walk(value):
            if isinstance(node, ast.Attribute) and node.attr in _TAINT_ATTRS:
                origins = self.origins_of(node.value)
                if (
                    node.attr == "_lengths"
                    or ("job",) in origins
                    or any(o[0] in ("param", "attr") for o in origins)
                ):
                    self.out.returns_taint = True
        if isinstance(value, ast.Call):
            callee = _dotted(value.func)
            if callee is not None:
                self.out.returns_call_of.append(callee)

    def _scan_job_store(self, node: ast.Assign | ast.AugAssign) -> None:
        """``self.X = job`` / ``self.X[...] = job`` → job-container attribute."""
        if not self._is_job_valued(node.value):
            return
        for t in node.targets if isinstance(node, ast.Assign) else [node.target]:
            attr_node = t.value if isinstance(t, ast.Subscript) else t
            if (
                isinstance(attr_node, ast.Attribute)
                and isinstance(attr_node.value, ast.Name)
                and attr_node.value.id == "self"
                and attr_node.attr not in self.out.job_attr_stores
            ):
                self.out.job_attr_stores.append(attr_node.attr)


# ---------------------------------------------------------------------------
# File-level extraction
# ---------------------------------------------------------------------------


def _resolve_import_from(
    node: ast.ImportFrom, module: str, is_package: bool
) -> Iterator[tuple[str, str]]:
    if node.level == 0:
        base = node.module or ""
    else:
        # Relative import: resolve against the containing package.  For a
        # package ``__init__`` the module *is* the package; for a plain
        # module the package is its parent.
        pkg_parts = module.split(".") if is_package else module.split(".")[:-1]
        if node.level > 1:
            pkg_parts = pkg_parts[: len(pkg_parts) - (node.level - 1)]
        base = ".".join(pkg_parts)
        if node.module:
            base = f"{base}.{node.module}" if base else node.module
    for alias in node.names:
        if alias.name == "*":
            continue
        local = alias.asname or alias.name
        fq = f"{base}.{alias.name}" if base else alias.name
        yield local, fq


def _extract_function(
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
    prefix: str,
    sink: dict[str, FunctionSummary],
) -> FunctionSummary:
    qualname = f"{prefix}{fn.name}"
    summary = _FunctionAnalyzer(fn, qualname).run()
    # Nested defs become separate (module-level keyed) summaries.
    stack: list[ast.AST] = list(ast.iter_child_nodes(fn))
    while stack:
        child = stack.pop()
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = _extract_function(child, f"{qualname}.<locals>.", sink)
            sink[inner.name] = inner
        else:
            stack.extend(ast.iter_child_nodes(child))
    return summary


def extract_summary(
    path: str,
    tree: ast.Module,
    module: str,
    suppressions: dict[int, set[str]] | None = None,
) -> FileSummary:
    """Extract the whole-program facts of one parsed file."""
    out = FileSummary(path=path, module=module)
    is_package = Path(path).name == "__init__.py"
    if suppressions:
        out.suppressions = {
            str(line): sorted(codes) for line, codes in suppressions.items()
        }
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = (alias.asname or alias.name).split(".")[0]
                out.imports[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom):
            for local, fq in _resolve_import_from(node, module, is_package):
                out.imports[local] = fq
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            target = node.targets[0] if isinstance(node, ast.Assign) else node.target
            single = not isinstance(node, ast.Assign) or len(node.targets) == 1
            const = fold_const(node.value) if node.value is not None else None
            if single and isinstance(target, ast.Name) and const is not None:
                out.constants[target.id] = const
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            summary = _extract_function(node, "", out.functions)
            out.functions[summary.name] = summary
        elif isinstance(node, ast.ClassDef):
            out.classes[node.name] = _extract_class(node, out.functions)
    return out


def _extract_class(
    cls: ast.ClassDef, fn_sink: dict[str, FunctionSummary]
) -> ClassSummary:
    summary = ClassSummary(name=cls.name, lineno=cls.lineno, bases=[])
    for base in cls.bases:
        dotted = _dotted(base)
        if dotted is not None:
            summary.bases.append(dotted)
    job_attrs: set[str] = set()
    for node in cls.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            target = node.targets[0] if isinstance(node, ast.Assign) else node.target
            const = fold_const(node.value) if node.value is not None else None
            if isinstance(target, ast.Name) and const is not None and const["k"] != "ref":
                summary.class_attrs[target.id] = const["v"]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            method = _extract_function(node, f"{cls.name}.", fn_sink)
            summary.methods[node.name] = method
            job_attrs.update(method.job_attr_stores)
    summary.job_attrs = sorted(job_attrs)
    return summary
