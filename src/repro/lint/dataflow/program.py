"""Whole-program symbol table, call graph, and fixpoint analyses.

A :class:`Program` is assembled from the :class:`FileSummary` of every
scanned file.  It provides:

* a **symbol table** — module-qualified functions, classes and
  module-level constants, with import-alias resolution that chases
  package re-exports (``from repro.schedulers import Profit`` resolves
  to ``repro.schedulers.profit.Profit``);
* **method resolution** — a C3-ish linearisation over the class
  hierarchy (``OnlineScheduler`` subclasses spanning modules), used both
  to resolve ``self.<m>()`` / ``super().<m>()`` call edges and to
  inherit ``requires_clairvoyance`` declarations and job-container
  attributes;
* a **clairvoyance-taint fixpoint** — for every function, which
  parameters' lengths it (transitively) reads, whether merely *calling*
  it performs a pre-completion length read, and whether its return value
  carries clairvoyant data (RL007).

Everything operates on summaries only: no source re-reads, no ASTs —
which is what lets the runner cache the per-file stage without
affecting whole-program verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

from .summary import CallSite, ClassSummary, FileSummary, FunctionSummary

__all__ = ["Program", "Witness"]

#: Entry hooks the engine may invoke before any completion.
_ENTRY_HOOKS = ("setup", "on_arrival", "on_deadline", "on_timer")

#: Hooks whose third parameter is a job by engine contract.
_JOB_ARG_HOOKS = {"on_arrival", "on_deadline", "on_completion"}

_MAX_REF_DEPTH = 8


@dataclass(frozen=True)
class Witness:
    """Where a dataflow fact was established (for finding messages)."""

    path: str
    line: int
    note: str

    def render(self) -> str:
        return f"{self.note} at {self.path}:{self.line}"


class Program:
    """The whole-program view over all file summaries."""

    def __init__(self, summaries: list[FileSummary]) -> None:
        self.files: dict[str, FileSummary] = {s.path: s for s in summaries}
        self.modules: dict[str, FileSummary] = {}
        for s in summaries:
            # First writer wins so a shadowing duplicate never hides the
            # canonical package module.
            self.modules.setdefault(s.module, s)

        #: fq function id ("module.Class.meth" / "module.fn") -> summary
        self.functions: dict[str, FunctionSummary] = {}
        #: fq function id -> (file summary, enclosing class name or None)
        self.fn_context: dict[str, tuple[FileSummary, str | None]] = {}
        #: fq class id ("module.Class") -> summary
        self.classes: dict[str, ClassSummary] = {}
        self.class_file: dict[str, FileSummary] = {}

        for s in self.modules.values():
            for fn in s.functions.values():
                fqid = f"{s.module}.{fn.name}"
                self.functions[fqid] = fn
                self.fn_context[fqid] = (s, None)
            for cls in s.classes.values():
                cls_fq = f"{s.module}.{cls.name}"
                self.classes[cls_fq] = cls
                self.class_file[cls_fq] = s
                for mname, m in cls.methods.items():
                    fqid = f"{cls_fq}.{mname}"
                    self.functions[fqid] = m
                    self.fn_context[fqid] = (s, cls.name)

        self._mro_cache: dict[str, list[str]] = {}
        self._leaks_params: dict[str, dict[str, Witness]] | None = None
        self._leaks_always: dict[str, Witness] | None = None
        self._returns_taint: dict[str, Witness] | None = None

    # ------------------------------------------------------------------ names
    def canonical(self, fq: str, _depth: int = 0) -> str | None:
        """Resolve a fully-qualified dotted name to a program symbol id.

        Chases package re-exports: if ``repro.schedulers.Profit`` is not
        a definition, but ``repro.schedulers`` (the package
        ``__init__``) imports ``Profit`` from ``repro.schedulers.profit``,
        the canonical id is ``repro.schedulers.profit.Profit``.
        """
        if _depth > _MAX_REF_DEPTH:
            return None
        if fq in self.functions or fq in self.classes:
            return fq
        base, _, leaf = fq.rpartition(".")
        if base in self.classes and leaf in self.classes[base].methods:
            return fq
        # Longest module prefix + re-export / alias chase.
        parts = fq.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            mod = ".".join(parts[:cut])
            fs = self.modules.get(mod)
            if fs is None:
                continue
            head = parts[cut]
            rest = parts[cut + 1 :]
            suffix = "." + ".".join(rest) if rest else ""
            if head in fs.imports:
                return self.canonical(fs.imports[head] + suffix, _depth + 1)
            # Module-level alias: ``CDB = ClassifyByDurationBatchPlus``
            # is recorded as a ``ref`` constant binding.
            const = fs.constants.get(head)
            if const is not None and const.get("k") == "ref":
                return self.resolve_name(mod, const["v"] + suffix, _depth + 1)
            return None
        return None

    def resolve_name(
        self, module: str, dotted: str, _depth: int = 0
    ) -> str | None:
        """Resolve a name as written inside ``module`` to a symbol id."""
        if _depth > _MAX_REF_DEPTH:
            return None
        fs = self.modules.get(module)
        if fs is None:
            return None
        parts = dotted.split(".")
        head = parts[0]
        if head in fs.imports:
            rest = parts[1:]
            fq = fs.imports[head] + ("." + ".".join(rest) if rest else "")
            return self.canonical(fq, _depth)
        return self.canonical(f"{module}.{dotted}", _depth)

    # ------------------------------------------------------------------- MRO
    def mro(self, class_fq: str) -> list[str]:
        """Linearised ancestry (self first).  Unresolvable bases appear
        as ``"?<LeafName>"`` markers so hierarchy *membership* tests keep
        working when a base module is outside the scan set."""
        cached = self._mro_cache.get(class_fq)
        if cached is not None:
            return cached
        self._mro_cache[class_fq] = [class_fq]  # cycle guard
        out = [class_fq]
        cls = self.classes.get(class_fq)
        if cls is not None:
            fs = self.class_file[class_fq]
            for base in cls.bases:
                resolved = self.resolve_name(fs.module, base)
                if resolved is not None and resolved in self.classes:
                    for ancestor in self.mro(resolved):
                        if ancestor not in out:
                            out.append(ancestor)
                else:
                    marker = "?" + base.rsplit(".", 1)[-1]
                    if marker not in out:
                        out.append(marker)
        self._mro_cache[class_fq] = out
        return out

    def lookup_method(
        self, class_fq: str, name: str, *, skip_self: bool = False
    ) -> tuple[str, FunctionSummary] | None:
        """MRO method lookup; returns ``(owner_class_fq, summary)``."""
        chain = self.mro(class_fq)
        if skip_self:
            chain = chain[1:]
        for ancestor in chain:
            cls = self.classes.get(ancestor)
            if cls is not None and name in cls.methods:
                return ancestor, cls.methods[name]
        return None

    def is_scheduler(self, class_fq: str) -> bool:
        for ancestor in self.mro(class_fq)[1:]:
            leaf = ancestor.rsplit(".", 1)[-1].lstrip("?")
            if leaf == "OnlineScheduler":
                return True
        return False

    def scheduler_classes(self) -> list[str]:
        return sorted(c for c in self.classes if self.is_scheduler(c))

    def requires_clairvoyance(self, class_fq: str) -> bool:
        for ancestor in self.mro(class_fq):
            cls = self.classes.get(ancestor)
            if cls is not None and "requires_clairvoyance" in cls.class_attrs:
                return bool(cls.class_attrs["requires_clairvoyance"])
        return False

    def job_attrs(self, class_fq: str) -> set[str]:
        """Job-container ``self`` attributes, inherited over the MRO."""
        out: set[str] = set()
        for ancestor in self.mro(class_fq):
            cls = self.classes.get(ancestor)
            if cls is not None:
                out.update(cls.job_attrs)
        return out

    # ------------------------------------------------------------ call edges
    def resolve_call(
        self, call: CallSite, module: str, cls_name: str | None
    ) -> tuple[str, str] | None:
        """Resolve a call site to ``(kind, symbol id)``.

        Kinds: ``"method"`` (id is ``module.Class.meth``), ``"function"``
        or ``"class"``.
        """
        callee = call.callee
        if callee.startswith("self.") and cls_name is not None:
            rest = callee[5:]
            if "." in rest:
                return None
            hit = self.lookup_method(f"{module}.{cls_name}", rest)
            if hit is None:
                return None
            owner, _ = hit
            return ("method", f"{owner}.{rest}")
        if callee.startswith("super.") and cls_name is not None:
            rest = callee[6:]
            if "." in rest:
                return None
            hit = self.lookup_method(f"{module}.{cls_name}", rest, skip_self=True)
            if hit is None:
                return None
            owner, _ = hit
            return ("method", f"{owner}.{rest}")
        resolved = self.resolve_name(module, callee)
        if resolved is None:
            return None
        if resolved in self.classes:
            return ("class", resolved)
        if resolved in self.functions:
            base, _, leaf = resolved.rpartition(".")
            if base in self.classes:
                return ("method", resolved)
            return ("function", resolved)
        return None

    def callable_summary(
        self, kind: str, symbol: str
    ) -> tuple[FunctionSummary | None, bool]:
        """The function summary executed by calling ``symbol``.

        Returns ``(summary, skip_self)`` — ``skip_self`` is True when the
        first parameter is bound implicitly (methods, constructors).
        """
        if kind == "class":
            cls = self.classes.get(symbol)
            if cls is None:
                return None, True
            init = cls.methods.get("__init__")
            if init is None:
                # Inherited __init__ (e.g. BatchPlus() with base init).
                hit = self.lookup_method(symbol, "__init__")
                init = hit[1] if hit is not None else None
            return init, True
        fn = self.functions.get(symbol)
        if fn is None:
            return None, False
        base = symbol.rpartition(".")[0]
        return fn, base in self.classes

    @staticmethod
    def bind_args(
        call: CallSite, target: FunctionSummary, skip_self: bool
    ) -> list[tuple[str, dict[str, Any]]]:
        """Map call arguments onto the target's parameter names."""
        params = target.params[1:] if skip_self and target.params else target.params
        out: list[tuple[str, dict[str, Any]]] = []
        for i, arg in enumerate(call.args):
            if i < len(params):
                out.append((params[i], arg))
        for name, arg in call.kwargs.items():
            if name in target.params:
                out.append((name, arg))
        return out

    def all_functions(
        self,
    ) -> Iterator[tuple[str, FunctionSummary, FileSummary, str | None]]:
        for fqid, fn in self.functions.items():
            fs, cls_name = self.fn_context[fqid]
            yield fqid, fn, fs, cls_name

    # --------------------------------------------------- clairvoyance taint
    @property
    def leaks_params(self) -> dict[str, dict[str, Witness]]:
        """fn id -> {param: witness}: params whose length is read."""
        if self._leaks_params is None:
            self._taint_fixpoint()
        assert self._leaks_params is not None
        return self._leaks_params

    @property
    def leaks_always(self) -> dict[str, Witness]:
        """fn ids whose mere invocation reads some job's hidden length."""
        if self._leaks_always is None:
            self._taint_fixpoint()
        assert self._leaks_always is not None
        return self._leaks_always

    @property
    def returns_taint(self) -> dict[str, Witness]:
        """fn ids whose return value carries clairvoyant length data."""
        if self._returns_taint is None:
            self._taint_fixpoint()
        assert self._returns_taint is not None
        return self._returns_taint

    def _taint_fixpoint(self) -> None:
        leaks: dict[str, dict[str, Witness]] = {}
        always: dict[str, Witness] = {}
        taints: dict[str, Witness] = {}

        # Seeds.
        for fqid, fn, fs, cls_name in self.all_functions():
            for p, attr, line, _col in fn.param_length_reads:
                leaks.setdefault(fqid, {}).setdefault(
                    p, Witness(fs.path, line, f"reads {p}.{attr}")
                )
            for attr, line, _col in fn.intrinsic_length_reads:
                always.setdefault(
                    fqid, Witness(fs.path, line, f"reads job .{attr}")
                )
            if cls_name is not None:
                # Job-container attribute reads resolved against the class.
                ja = self.job_attrs(f"{fs.module}.{cls_name}")
                for self_attr, attr, line, _col in fn.attr_length_reads:
                    if self_attr in ja:
                        always.setdefault(
                            fqid,
                            Witness(
                                fs.path,
                                line,
                                f"reads .{attr} of jobs stored in self.{self_attr}",
                            ),
                        )
            if fn.returns_taint:
                taints.setdefault(
                    fqid, Witness(fs.path, fn.lineno, "returns clairvoyant data")
                )

        # Propagation.
        changed = True
        while changed:
            changed = False
            for fqid, fn, fs, cls_name in self.all_functions():
                for call in fn.calls:
                    resolved = self.resolve_call(call, fs.module, cls_name)
                    if resolved is None:
                        continue
                    kind, symbol = resolved
                    target, skip_self = self.callable_summary(kind, symbol)
                    key = symbol if kind != "class" else symbol + ".__init__"
                    if key in always and fqid not in always:
                        always[fqid] = always[key]
                        changed = True
                    if target is None:
                        continue
                    tleaks = leaks.get(self._target_key(kind, symbol, target), {})
                    for tparam, arg in self.bind_args(call, target, skip_self):
                        w = tleaks.get(tparam)
                        if w is None:
                            continue
                        if arg.get("kind") == "param":
                            bucket = leaks.setdefault(fqid, {})
                            if arg["param"] not in bucket:
                                bucket[arg["param"]] = w
                                changed = True
                        elif arg.get("kind") == "job" and fqid not in always:
                            always[fqid] = w
                            changed = True
                        elif (
                            arg.get("kind") == "attr"
                            and cls_name is not None
                            and arg["attr"]
                            in self.job_attrs(f"{fs.module}.{cls_name}")
                            and fqid not in always
                        ):
                            always[fqid] = w
                            changed = True
                # Return-taint propagation through returned calls.
                if fqid not in taints:
                    for callee in fn.returns_call_of:
                        fake = CallSite(callee=callee, lineno=fn.lineno, col=0, args=[], kwargs={})
                        resolved = self.resolve_call(fake, fs.module, cls_name)
                        if resolved is None:
                            continue
                        key = self._symbol_key(resolved)
                        if key in taints:
                            taints[fqid] = taints[key]
                            changed = True
                            break

        self._leaks_params = leaks
        self._leaks_always = always
        self._returns_taint = taints

    @staticmethod
    def _symbol_key(resolved: tuple[str, str]) -> str:
        kind, symbol = resolved
        return symbol + ".__init__" if kind == "class" else symbol

    def _target_key(
        self, kind: str, symbol: str, target: FunctionSummary
    ) -> str:
        if kind == "class":
            # The summary is the (possibly inherited) __init__.
            for cls_fq in self.mro(symbol):
                cls = self.classes.get(cls_fq)
                if cls is not None and cls.methods.get("__init__") is target:
                    return f"{cls_fq}.__init__"
            return symbol + ".__init__"
        return symbol

    # ------------------------------------------------------------ pre-completion
    def pre_completion_reach(
        self, class_fq: str
    ) -> dict[tuple[str, str], tuple[FunctionSummary, set[str]]]:
        """Methods reachable before any completion, with job-parameter
        context: ``{(owner_class_fq, method): (summary, job_params)}``."""
        reach: dict[tuple[str, str], tuple[FunctionSummary, set[str]]] = {}
        work: list[tuple[str, set[str]]] = []
        for hook in _ENTRY_HOOKS:
            hit = self.lookup_method(class_fq, hook)
            if hit is None:
                continue
            owner, fn = hit
            jctx = set(fn.job_params)
            if hook in _JOB_ARG_HOOKS and len(fn.params) >= 3:
                jctx.add(fn.params[2])
            work.append((hook, jctx))
        while work:
            mname, jctx = work.pop()
            if mname == "on_completion":
                continue
            hit = self.lookup_method(class_fq, mname)
            if hit is None:
                continue
            owner, fn = hit
            key = (owner, mname)
            seen = reach.get(key)
            if seen is not None and jctx <= seen[1]:
                continue
            merged = (jctx | seen[1]) if seen is not None else set(jctx)
            reach[key] = (fn, merged)
            for call in fn.calls:
                target_name: str | None = None
                if call.callee.startswith("self."):
                    target_name = call.callee[5:]
                elif call.callee.startswith("super."):
                    target_name = call.callee[6:]
                if target_name is None or "." in target_name:
                    continue
                hit2 = self.lookup_method(class_fq, target_name)
                if hit2 is None:
                    continue
                _owner2, fn2 = hit2
                bound = self.bind_args(call, fn2, skip_self=True)
                jnext = set(fn2.job_params)
                for tparam, arg in bound:
                    if (
                        arg.get("kind") == "job"
                        or (arg.get("kind") == "param" and arg.get("param") in merged)
                        or (
                            arg.get("kind") == "attr"
                            and arg.get("attr") in self.job_attrs(class_fq)
                        )
                    ):
                        jnext.add(tparam)
                work.append((target_name, jnext))
        return reach
