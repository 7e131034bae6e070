"""Per-file fact extraction for the whole-program dataflow pass.

A :class:`FileSummary` is a pure-data snapshot of everything the
interprocedural analyses need to know about one module — no AST nodes,
no cross-references — so it can be pickled across the ``--jobs`` process
pool and cached on disk keyed by content hash.  The whole-program pass
(:mod:`repro.lint.dataflow.program`) then runs over summaries only.

Extraction is a single AST walk per function with a small origin-tag
fixpoint (the dataflow generalisation of
:func:`repro.lint.astutils.job_name_visitor`): every local name carries
a set of *origins* —

``("param", p)``
    derived from parameter ``p`` (aliases included);
``("job",)``
    intrinsically job-typed (``ctx.pending()`` loop targets,
    ``JobView``-annotated locals, job-ish lambda parameters);
``("attr", a)``
    derived from ``self.<a>`` (job-container attributes are resolved
    against the class hierarchy at program time);
``("runner",)``
    a :class:`repro.perf.ParallelRunner` (RL008 submission sites).

Constant values are folded at extraction (literals, unary/binary
arithmetic, a few ``math`` calls); names that cannot be folded locally
are recorded as ``ref`` descriptors and resolved against module-level
constants — across modules — by the program pass (RL009).
"""

from __future__ import annotations

import ast
import math
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

#: Sanctioned seeded-RNG constructors (shared with RL002's notion).
_SEEDED_OK = {
    "random.Random",
    "random.SystemRandom",
    "np.random.default_rng",
    "numpy.random.default_rng",
    "np.random.Generator",
    "numpy.random.Generator",
    "np.random.SeedSequence",
    "numpy.random.SeedSequence",
}

_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "datetime.now",
    "datetime.utcnow",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
}

#: Method calls that mutate their receiver in place.
_MUTATOR_METHODS = {
    "append",
    "extend",
    "insert",
    "add",
    "update",
    "setdefault",
    "pop",
    "popitem",
    "remove",
    "discard",
    "clear",
    "sort",
    "reverse",
}

#: Event-kind identifiers of the engine's raw-tuple heap (leading
#: underscores stripped, ``EventKind.`` prefixes reduced to the leaf).
_EVENT_KIND_NAMES = {
    "COMPLETION",
    "ASSIGN",
    "ARRIVAL",
    "DEADLINE",
    "TIMER",
    "ADVERSARY",
}

#: Receiver-mutating methods that count as *state* writes on the field
#: they are called through (``self._pending.pop(...)``).  Deliberately
#: excludes append/extend-style growth so trace/log buffers do not show
#: up as state fields.
_INDEX_MUTATORS = {
    "pop",
    "popitem",
    "clear",
    "update",
    "setdefault",
    "remove",
    "discard",
}


#: ``math`` functions folded during constant propagation.
_FOLDABLE_MATH = {
    "math.sqrt": math.sqrt,
    "math.log": math.log,
    "math.log2": math.log2,
    "math.log10": math.log10,
    "math.exp": math.exp,
    "math.floor": math.floor,
    "math.ceil": math.ceil,
    "math.fabs": math.fabs,
}


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
    #: raise-guard derived parameter domains: ``[param, op, const, lineno]``
    guards: list[list[Any]] = field(default_factory=list)
    #: direct effects: ``[kind, detail, lineno]`` with kind in
    #: {"global_write", "rng", "clock"}
    effects: list[list[Any]] = field(default_factory=list)
    #: ``heappush`` sites: ``[heap_ref, [elt categories], lineno, col]``
    heap_pushes: list[list[Any]] = field(default_factory=list)
    returns_taint: bool = False  #: returns clairvoyant data directly
    #: callees whose return value this function returns (taint propagation)
    returns_call_of: list[str] = field(default_factory=list)
    nested: bool = False  #: defined inside another function
    free_vars: list[str] = field(default_factory=list)
    #: attribute-carried state writes (RL014): ``[field, value,
    #: lineno, col]`` for stores through ``<recv>.<field>`` /
    #: ``<recv>.<field>[...]`` and index-mutator calls
    #: (``<recv>.<field>.pop(...)``).  ``value`` is a ref leaf
    #: ("_RUNNING"), "now"/"now+" for clock-anchored values, "const",
    #: "aug" for augmented assignment, or ``None`` when unclassifiable.
    state_writes: list[list[Any]] = field(default_factory=list)
    #: event-queue pushes (RL016): ``[key desc, kind leaf, lineno, col]``
    #: from ``<q>.push(key, KIND, …)`` calls and raw ``(key, KIND, seq,
    #: payload)`` tuple literals whose kind slot names an event kind.
    push_keys: list[list[Any]] = field(default_factory=list)
    #: leaves proven ``>= now`` by a raise guard (``if x < now: raise``,
    #: vectorised ``late = xs < now; if late.any(): raise`` included)
    now_guards: list[str] = field(default_factory=list)
    #: clock writes ``<recv>._now = value``: ``[value desc, lineno]``
    now_writes: list[list[Any]] = field(default_factory=list)
    #: leaves assigned clock-anchored values (``x = now + dt``)
    now_anchored: list[str] = field(default_factory=list)
    #: locals bound to call results: ``[local, callee dotted name]``
    call_assigns: list[list[str]] = field(default_factory=list)
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
    #: literal class attributes (``name``, ``requires_clairvoyance``, …)
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
    #: module-level foldable constants: name -> const descriptor
    constants: dict[str, Any] = field(default_factory=dict)
    #: module-level dict literals mapping refs to refs (registries):
    #: name -> [[key descriptor, value descriptor], ...]
    registries: dict[str, list[list[Any]]] = field(default_factory=dict)
    #: line -> suppressed codes (mirrors FileContext.suppressions; "*" = all)
    suppressions: dict[str, list[str]] = field(default_factory=dict)
    #: module-level pure-literal dicts with string keys (decision
    #: vocabularies): name -> {"line": …, "items": {…}}
    dict_constants: dict[str, dict[str, Any]] = field(default_factory=dict)

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
# Constant folding
# ---------------------------------------------------------------------------


def fold_const(node: ast.expr) -> dict[str, Any] | None:
    """Fold an expression to a constant descriptor, or ``None``.

    Descriptors: ``{"k": "num"|"str"|"none", "v": value}``,
    ``{"k": "ref", "v": dotted}`` for names resolvable only at program
    time, ``{"k": "tuple", "v": [elt descriptors (None allowed)]}``.
    Booleans fold to ``num`` (they order like integers).
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
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        inner = fold_const(node.operand)
        if inner is not None and inner["k"] == "num":
            sign = -1 if isinstance(node.op, ast.USub) else 1
            return {"k": "num", "v": sign * inner["v"]}
        return None
    if isinstance(node, ast.BinOp):
        left, right = fold_const(node.left), fold_const(node.right)
        if (
            left is not None
            and right is not None
            and left["k"] == "num"
            and right["k"] == "num"
        ):
            a, b = left["v"], right["v"]
            try:
                if isinstance(node.op, ast.Add):
                    return {"k": "num", "v": a + b}
                if isinstance(node.op, ast.Sub):
                    return {"k": "num", "v": a - b}
                if isinstance(node.op, ast.Mult):
                    return {"k": "num", "v": a * b}
                if isinstance(node.op, ast.Div):
                    return {"k": "num", "v": a / b}
                if isinstance(node.op, ast.Pow):
                    return {"k": "num", "v": a**b}
            except (ZeroDivisionError, OverflowError, ValueError):
                return None
        return None
    if isinstance(node, ast.Call):
        name = _dotted(node.func)
        if name in _FOLDABLE_MATH and len(node.args) == 1 and not node.keywords:
            arg = fold_const(node.args[0])
            if arg is not None and arg["k"] == "num":
                try:
                    return {"k": "num", "v": _FOLDABLE_MATH[name](arg["v"])}
                except (ValueError, OverflowError):
                    return None
        return None
    if isinstance(node, ast.Tuple):
        return {"k": "tuple", "v": [fold_const(e) for e in node.elts]}
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


def _is_now_ref(node: ast.expr) -> bool:
    """Is this expression the engine clock (``self._now`` / local ``now``)?"""
    if isinstance(node, ast.Attribute):
        return node.attr == "_now"
    return isinstance(node, ast.Name) and node.id == "now"


def _expr_leaf(node: ast.expr) -> str | None:
    """Rightmost identifying name: ``st.completion`` → "completion",
    ``arrival_l[i]`` → "arrival_l", ``when`` → "when"."""
    if isinstance(node, ast.Subscript):
        return _expr_leaf(node.value)
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _value_desc(node: ast.expr) -> Any:
    """Classify an assigned/pushed value for the temporal rules.

    ``"now"`` (the clock itself), ``"now+"`` (an expression anchored on
    the clock), a ref leaf ("_RUNNING", "completion"), ``"const"`` for
    folded literals, or ``None``.
    """
    if _is_now_ref(node):
        return "now"
    if any(_is_now_ref(sub) for sub in ast.walk(node) if isinstance(sub, ast.expr)):
        return "now+"
    leaf = _expr_leaf(node)
    if leaf is not None:
        return leaf
    const = fold_const(node)
    if const is not None and const["k"] != "ref":
        return "const"
    return None


def _kind_leaf(node: ast.expr) -> str | None:
    """Normalised event-kind name of a ref (``_DEADLINE`` /
    ``EventKind.DEADLINE`` → "DEADLINE"), or ``None``."""
    dotted = _dotted(node)
    if dotted is None:
        return None
    leaf = dotted.rsplit(".", 1)[-1].lstrip("_")
    return leaf if leaf in _EVENT_KIND_NAMES else None


# ---------------------------------------------------------------------------
# Per-function origin analysis
# ---------------------------------------------------------------------------

Origin = tuple  # ("param", n) | ("job",) | ("attr", n) | ("runner",) | ("sim",)

#: ``try`` statement node types (``except*`` groups included on 3.11+).
_TRY_NODES: tuple = (ast.Try, *((ast.TryStar,) if hasattr(ast, "TryStar") else ()))


class _FunctionAnalyzer:
    """Single-function dataflow: origin tags, reads, calls, effects."""

    def __init__(
        self,
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
        qualname: str,
        module_globals: set[str],
        nested: bool,
    ) -> None:
        self.fn = fn
        self.qualname = qualname
        self.module_globals = module_globals
        self.nested = nested
        self.origins: dict[str, set[Origin]] = {}
        self.locals: set[str] = set()
        self.globals_declared: set[str] = set()
        self._now_guards: set[str] = set()
        self._now_anchored: set[str] = set()
        self.out = FunctionSummary(
            name=qualname,
            lineno=fn.lineno,
            params=[],
            job_params=[],
            nested=nested,
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
        if isinstance(node, ast.Subscript):
            return self.origins_of(node.value)
        if isinstance(node, ast.Starred):
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
        """Does ``node`` plausibly evaluate to a job object/container?"""
        for origin in self.origins_of(node):
            if origin[0] == "job":
                return True
            if origin[0] == "param" and origin[1] in self.out.job_params:
                return True
            if origin[0] == "attr":
                # Conservative: only attrs known to hold jobs count, which
                # is resolved at program time; record the store anyway.
                return False
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
        self._collect_locals()
        self._origin_fixpoint()
        self._collect_async_contexts()
        self._scan_body()
        self._derive_guards()
        self.out.now_guards = sorted(self._now_guards)
        self.out.now_anchored = sorted(self._now_anchored)
        self.out.free_vars = sorted(self._free_vars()) if self.nested else []
        return self.out

    def _seed_params(self) -> None:
        args = self.fn.args
        ordered = [*args.posonlyargs, *args.args, *args.kwonlyargs]
        extras = [a for a in (args.vararg, args.kwarg) if a is not None]
        for a in ordered:
            self.out.params.append(a.arg)
        for a in [*ordered, *extras]:
            self.locals.add(a.arg)
            self._add_origin(a.arg, ("param", a.arg))
            leaf = _annotation_leaf(a.annotation)
            if a.arg not in ("self", "ctx") and (leaf in _JOB_TYPES or a.arg == "job"):
                self.out.job_params.append(a.arg)
                self._add_origin(a.arg, ("job",))
            if leaf == "ParallelRunner":
                self._add_origin(a.arg, ("runner",))
            if leaf in _SIM_CTORS:
                self._add_origin(a.arg, ("sim",))

    def _collect_locals(self) -> None:
        for node in self._walk_own():
            if isinstance(node, ast.Global):
                self.globals_declared.update(node.names)
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for t in targets:
                    for leaf_node in ast.walk(t):
                        if isinstance(leaf_node, ast.Name) and isinstance(
                            leaf_node.ctx, (ast.Store, ast.Del)
                        ):
                            self.locals.add(leaf_node.id)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                for leaf_node in ast.walk(node.target):
                    if isinstance(leaf_node, ast.Name):
                        self.locals.add(leaf_node.id)
            elif isinstance(node, ast.comprehension):
                for leaf_node in ast.walk(node.target):
                    if isinstance(leaf_node, ast.Name):
                        self.locals.add(leaf_node.id)
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if item.optional_vars is not None:
                        for leaf_node in ast.walk(item.optional_vars):
                            if isinstance(leaf_node, ast.Name):
                                self.locals.add(leaf_node.id)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.locals.add(node.name)

    def _walk_own(self) -> Iterator[ast.AST]:
        """Walk the function body, *excluding* nested function bodies."""
        stack: list[ast.AST] = list(self.fn.body)
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # summarised separately
            if isinstance(node, ast.Lambda):
                # lambdas are analysed inline (sort keys read job attrs)
                stack.extend(ast.iter_child_nodes(node))
                continue
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
                    if _annotation_leaf(node.annotation) in _JOB_TYPES:
                        origins.add(("job",))
                    if _annotation_leaf(node.annotation) == "ParallelRunner":
                        origins.add(("runner",))
                    if _annotation_leaf(node.annotation) in _SIM_CTORS:
                        origins.add(("sim",))
                    if origins:
                        changed |= self._bind_target(node.target, origins)
                elif isinstance(node, (ast.For, ast.AsyncFor)):
                    origins = self.origins_of(node.iter)
                    if origins:
                        changed |= self._bind_target(node.target, origins)
                elif isinstance(node, ast.comprehension):
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
                leaf = _expr_leaf(t)
                # ``except Exception`` does *not* catch CancelledError
                # (it derives from BaseException), so it does not count.
                if leaf in ("CancelledError", "BaseException"):
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
        shielded = False
        desc = "<expr>"
        if isinstance(value, ast.Call):
            callee = _dotted(value.func)
            if callee is not None:
                desc = callee
                if callee.rsplit(".", 1)[-1] == "shield":
                    shielded = True
        else:
            leaf = _dotted(value)
            if leaf is not None:
                desc = leaf
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
                self._scan_store(node)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                self._scan_state_write(node.target, node.value, node, False)
            elif isinstance(node, ast.Tuple):
                self._scan_event_tuple(node)

    def _scan_attribute(self, node: ast.Attribute) -> None:
        if node.attr not in _TAINT_ATTRS:
            return
        if node.attr == "length" and not isinstance(node.ctx, ast.Load):
            return
        value = node.value
        # ``Job._lengths`` / ``Instance._lengths``: adversary-committed
        # lengths — an unconditional clairvoyant source.
        if node.attr == "_lengths":
            self.out.intrinsic_length_reads.append(
                ["_lengths", node.lineno, node.col_offset]
            )
            return
        origins = self.origins_of(value)
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
        if isinstance(arg, ast.Lambda):
            free = self._lambda_free_vars(arg)
            return {"kind": "lambda", "free": sorted(free), "lineno": arg.lineno}
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
        # RL008 receiver typing for <runner>.map/<runner>.starmap
        recv_runner = False
        if isinstance(node.func, ast.Attribute) and node.func.attr in (
            "map",
            "starmap",
        ):
            recv_origins = self.origins_of(node.func.value)
            recv_runner = ("runner",) in recv_origins
        # RL017 receiver typing for <sim>.run(): a whole-instance
        # simulation on a Simulator-origin receiver.
        recv_sim = False
        if isinstance(node.func, ast.Attribute) and node.func.attr == "run":
            recv_sim = ("sim",) in self.origins_of(node.func.value)
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
        leaf = callee.rsplit(".", 1)[-1]
        if leaf in ("create_task", "ensure_future"):
            spawned: str | None = None
            if node.args and isinstance(node.args[0], ast.Call):
                spawned = _dotted(node.args[0].func)
            handled = 0 if id(node) in self._bare_expr_ids else 1
            self.out.spawns.append(
                [callee, spawned, handled, node.lineno, node.col_offset]
            )
        # Effects: unseeded RNG / wall clocks.
        if callee in _SEEDED_OK:
            return
        if (
            callee.startswith("random.")
            or callee.startswith("np.random.")
            or callee.startswith("numpy.random.")
        ):
            self.out.effects.append(["rng", callee, node.lineno])
        elif callee in _CLOCK_CALLS:
            self.out.effects.append(["clock", callee, node.lineno])
        # Global mutation through a method call (CACHE.append(...)).
        if isinstance(node.func, ast.Attribute) and node.func.attr in _MUTATOR_METHODS:
            recv = node.func.value
            if (
                isinstance(recv, ast.Name)
                and recv.id in self.module_globals
                and recv.id not in self.locals
            ):
                self.out.effects.append(
                    ["global_write", f"{recv.id}.{node.func.attr}()", node.lineno]
                )
        # heappush key shape (RL010).
        leaf = callee.rsplit(".", 1)[-1]
        if leaf == "heappush" and len(node.args) == 2:
            heap_ref = _dotted(node.args[0]) or "<expr>"
            key = node.args[1]
            if isinstance(key, ast.Tuple):
                cats = [self._key_category(e) for e in key.elts]
                self.out.heap_pushes.append(
                    [heap_ref, cats, node.lineno, node.col_offset]
                )
        # Event-queue pushes whose kind slot names an event kind
        # (``queue.push(time, EventKind.DEADLINE, payload)``) — the key
        # description feeds RL016.
        if leaf == "push" and len(node.args) >= 2:
            kind = _kind_leaf(node.args[1])
            if kind is not None:
                self.out.push_keys.append(
                    [_value_desc(node.args[0]), kind, node.lineno, node.col_offset]
                )
        # Index-structure mutation through an attribute receiver
        # (``self._running.pop(jid, None)``, ``self._pending.update(...)``)
        # is a state write (RL014's lifecycle model).  Bare-Name receivers
        # (hoisted locals) are deliberately out of scope.
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _INDEX_MUTATORS
            and isinstance(node.func.value, ast.Attribute)
        ):
            self.out.state_writes.append(
                [node.func.value.attr, None, node.lineno, node.col_offset]
            )

    @staticmethod
    def _key_category(node: ast.expr) -> str:
        const = fold_const(node)
        if const is None:
            if isinstance(node, (ast.Dict, ast.Set)):
                # dicts/sets define no ordering: `<` raises even between
                # two dicts, so any tie ahead of this slot is fatal.
                return "unorderable"
            return "unknown"
        if const["k"] == "num":
            return "num"
        if const["k"] == "str":
            return "str"
        if const["k"] == "none":
            return "none"
        return "unknown"

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

    def _scan_store(self, node: ast.Assign | ast.AugAssign) -> None:
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        value = node.value
        is_aug = isinstance(node, ast.AugAssign)
        job_valued = self._is_job_valued(value)
        for t in targets:
            self._scan_state_write(t, value, node, is_aug)
            # self.X = job / self.X[...] = job  → job-container attribute.
            attr_node: ast.Attribute | None = None
            if isinstance(t, ast.Attribute):
                attr_node = t
            elif isinstance(t, ast.Subscript) and isinstance(t.value, ast.Attribute):
                attr_node = t.value
            if (
                attr_node is not None
                and isinstance(attr_node.value, ast.Name)
                and attr_node.value.id == "self"
                and job_valued
            ):
                if attr_node.attr not in self.out.job_attr_stores:
                    self.out.job_attr_stores.append(attr_node.attr)
            # Global writes: ``global X; X = …`` or ``X[k] = …`` on a module
            # global that is never bound locally.
            if isinstance(t, ast.Name):
                if t.id in self.globals_declared and t.id in self.module_globals:
                    self.out.effects.append(
                        ["global_write", f"{t.id} = ...", node.lineno]
                    )
            elif isinstance(t, ast.Subscript) and isinstance(t.value, ast.Name):
                base = t.value.id
                if (
                    base in self.module_globals
                    and base not in self.locals
                    and base not in ("self",)
                ):
                    self.out.effects.append(
                        ["global_write", f"{base}[...] = ...", node.lineno]
                    )

    def _scan_state_write(
        self,
        target: ast.expr,
        value: ast.expr,
        node: ast.stmt,
        is_aug: bool,
    ) -> None:
        desc: Any = "aug" if is_aug else _value_desc(value)
        # Clock-anchored bindings: ``completion = self._now + length`` /
        # ``st.completion = self._now + st.length`` — the bound leaf is a
        # provably current-or-future time (RL016).
        if not is_aug and desc in ("now", "now+"):
            leaf = _expr_leaf(target)
            if leaf is not None:
                self._now_anchored.add(leaf)
        # Call-derived locals: ``when = self._decision_times(...)`` — the
        # callee's own guards can vouch for the local (RL016).
        if not is_aug and isinstance(target, ast.Name) and isinstance(value, ast.Call):
            callee = _dotted(value.func)
            if callee is not None:
                self.out.call_assigns.append([target.id, callee])
        # Attribute-rooted state writes: ``st.completed = True``,
        # ``table.state[idx] = _RUNNING``, ``self._pending[jid] = st``.
        # Bare-Name receivers (hoisted column locals) are out of scope.
        attr_node: ast.Attribute | None = None
        if isinstance(target, ast.Attribute):
            attr_node = target
        elif isinstance(target, ast.Subscript) and isinstance(
            target.value, ast.Attribute
        ):
            attr_node = target.value
        if attr_node is None:
            return
        if attr_node.attr == "_now" and isinstance(target, ast.Attribute):
            self.out.now_writes.append([desc, node.lineno])
            return
        self.out.state_writes.append(
            [attr_node.attr, desc, node.lineno, node.col_offset]
        )

    def _scan_event_tuple(self, node: ast.Tuple) -> None:
        """Raw event tuples ``(time, KIND, …)`` built for ``EventQueue.extend``
        or bulk heapify carry the same key/kind shape as an explicit push."""
        if len(node.elts) < 3 or not isinstance(node.ctx, ast.Load):
            return
        kind = _kind_leaf(node.elts[1])
        if kind is None or _kind_leaf(node.elts[0]) is not None:
            # A kind in the key slot means this is a tuple *of* kinds
            # (e.g. a dispatch table), not an event with a time key.
            return
        self.out.push_keys.append(
            [_value_desc(node.elts[0]), kind, node.lineno, node.col_offset]
        )

    # -- guards --------------------------------------------------------------
    def _derive_guards(self) -> None:
        """``if <param> <op> <const>: raise …`` → parameter-domain guard;
        ``if <x> < now: raise`` (scalar, or vectorised through a boolean
        compare local like ``past = completions < now``) → clock guard."""
        params = set(self.out.params)
        # Map vectorised guard locals to the leaves they compare to the clock.
        compare_locals: dict[str, list[str]] = {}
        for node in self._walk_own():
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Compare):
                guarded = self._now_compare_leaves(node.value)
                if guarded:
                    for t in node.targets:
                        if isinstance(t, ast.Name):
                            compare_locals[t.id] = guarded
        for node in self._walk_own():
            if not isinstance(node, ast.If):
                continue
            if not any(isinstance(s, ast.Raise) for s in node.body):
                continue
            for test in self._guard_atoms(node.test):
                guard = self._guard_from_compare(test, params)
                if guard is not None:
                    self.out.guards.append([*guard, node.lineno])
            for sub in ast.walk(node.test):
                if isinstance(sub, ast.Compare):
                    self._now_guards.update(self._now_compare_leaves(sub))
                elif isinstance(sub, ast.Name) and sub.id in compare_locals:
                    self._now_guards.update(compare_locals[sub.id])

    @staticmethod
    def _now_compare_leaves(test: ast.Compare) -> list[str]:
        """Leaves compared directly against the clock (either side)."""
        if len(test.ops) != 1 or len(test.comparators) != 1:
            return []
        left, right = test.left, test.comparators[0]
        out: list[str] = []
        if _is_now_ref(right):
            leaf = _expr_leaf(left)
            if leaf is not None:
                out.append(leaf)
        if _is_now_ref(left):
            leaf = _expr_leaf(right)
            if leaf is not None:
                out.append(leaf)
        return out

    @staticmethod
    def _guard_atoms(test: ast.expr) -> list[ast.Compare]:
        if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.Or):
            return [v for v in test.values if isinstance(v, ast.Compare)]
        if isinstance(test, ast.Compare):
            return [test]
        return []

    @staticmethod
    def _guard_from_compare(
        test: ast.Compare, params: set[str]
    ) -> tuple[str, str, float] | None:
        if len(test.ops) != 1 or len(test.comparators) != 1:
            return None
        op_names = {
            ast.Lt: "<",
            ast.LtE: "<=",
            ast.Gt: ">",
            ast.GtE: ">=",
            ast.Eq: "==",
            ast.NotEq: "!=",
        }
        op = op_names.get(type(test.ops[0]))
        if op is None:
            return None
        left, right = test.left, test.comparators[0]
        lc, rc = fold_const(left), fold_const(right)
        if (
            isinstance(left, ast.Name)
            and left.id in params
            and rc is not None
            and rc["k"] == "num"
        ):
            return (left.id, op, float(rc["v"]))
        if (
            isinstance(right, ast.Name)
            and right.id in params
            and lc is not None
            and lc["k"] == "num"
        ):
            flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "==", "!=": "!="}
            return (right.id, flipped[op], float(lc["v"]))
        return None

    # -- free variables ------------------------------------------------------
    def _free_vars(self) -> set[str]:
        import builtins

        loaded: set[str] = set()
        for node in self._walk_own():
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
        bound = self.locals | self.globals_declared | self.module_globals
        return {
            n
            for n in loaded
            if n not in bound and not hasattr(builtins, n)
        }

    def _lambda_free_vars(self, node: ast.Lambda) -> set[str]:
        import builtins

        params = {a.arg for a in [*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs]}
        loaded = {
            n.id
            for n in ast.walk(node.body)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        return {
            n
            for n in loaded - params
            if n not in self.module_globals and not hasattr(builtins, n)
        }


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
    module_globals: set[str],
    nested: bool,
    sink: dict[str, FunctionSummary],
) -> FunctionSummary:
    qualname = f"{prefix}{fn.name}" if prefix else fn.name
    summary = _FunctionAnalyzer(fn, qualname, module_globals, nested).run()
    # Nested defs become separate (module-level keyed) summaries.
    for node in ast.iter_child_nodes(fn):
        _extract_nested(node, f"{qualname}.<locals>.", module_globals, sink)
    return summary


def _extract_nested(
    node: ast.AST,
    prefix: str,
    module_globals: set[str],
    sink: dict[str, FunctionSummary],
) -> None:
    stack: list[ast.AST] = [node]
    while stack:
        child = stack.pop()
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = _extract_function(child, prefix, module_globals, True, sink)
            sink[inner.name] = inner
            continue  # _extract_function recurses for deeper nesting
        stack.extend(ast.iter_child_nodes(child))


def extract_summary(
    path: str,
    source: str,
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

    # Pass 0: module-level names (globals) for effect/closure analysis.
    module_globals: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for t in node.targets:
                if isinstance(t, ast.Name):
                    module_globals.add(t.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            module_globals.add(node.target.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            module_globals.add(node.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                module_globals.add((alias.asname or alias.name).split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name != "*":
                    module_globals.add(alias.asname or alias.name)

    # Pass 1: imports, constants, registries, functions, classes.
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = (alias.asname or alias.name).split(".")[0]
                fq = alias.name if alias.asname is None else alias.name
                out.imports[local] = fq.split(".")[0] if alias.asname is None else fq
        elif isinstance(node, ast.ImportFrom):
            for local, fq in _resolve_import_from(node, module, is_package):
                out.imports[local] = fq
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                _record_module_binding(out, target.id, node.value, node.lineno)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if isinstance(node.target, ast.Name):
                _record_module_binding(out, node.target.id, node.value, node.lineno)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            summary = _extract_function(node, "", module_globals, False, out.functions)
            out.functions[summary.name] = summary
        elif isinstance(node, ast.ClassDef):
            out.classes[node.name] = _extract_class(node, module_globals, out.functions)
    return out


def _record_module_binding(
    out: FileSummary, name: str, value: ast.expr, lineno: int
) -> None:
    if isinstance(value, ast.Dict):
        entries: list[list[Any]] = []
        has_ref = False
        items: dict[str, Any] = {}
        all_const = bool(value.keys)
        for k, v in zip(value.keys, value.values):
            if k is None:
                all_const = False
                continue
            kd = fold_const(k)
            vd = fold_const(v)
            if vd is not None and vd["k"] == "ref":
                has_ref = True
            entries.append([kd, vd])
            if (
                kd is not None
                and kd["k"] == "str"
                and vd is not None
                and vd["k"] in ("num", "str", "none")
            ):
                items[kd["v"]] = vd["v"]
            else:
                all_const = False
        if has_ref:
            out.registries[name] = entries
        elif all_const:
            # Fully-literal str-keyed dicts (e.g. the decision-rule
            # vocabulary) feed RL015's closed-vocabulary check.
            out.dict_constants[name] = {"line": lineno, "items": items}
        return
    const = fold_const(value)
    if const is not None and const["k"] in ("num", "str", "none", "ref"):
        out.constants[name] = const


def _extract_class(
    cls: ast.ClassDef,
    module_globals: set[str],
    fn_sink: dict[str, FunctionSummary],
) -> ClassSummary:
    summary = ClassSummary(name=cls.name, lineno=cls.lineno, bases=[])
    for base in cls.bases:
        dotted = _dotted(base)
        if dotted is not None:
            summary.bases.append(dotted)
    job_attrs: set[str] = set()
    for node in cls.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            t = node.targets[0]
            if isinstance(t, ast.Name):
                const = fold_const(node.value)
                if const is not None and const["k"] in ("num", "str", "none"):
                    summary.class_attrs[t.id] = const["v"]
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if isinstance(node.target, ast.Name):
                const = fold_const(node.value)
                if const is not None and const["k"] in ("num", "str", "none"):
                    summary.class_attrs[node.target.id] = const["v"]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            method = _extract_function(
                node, f"{cls.name}.", module_globals, False, fn_sink
            )
            summary.methods[node.name] = method
            job_attrs.update(method.job_attr_stores)
    summary.job_attrs = sorted(job_attrs)
    return summary
