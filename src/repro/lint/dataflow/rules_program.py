"""RL007 — the non-clairvoyant contract over the whole-program call graph.

The rule receives the assembled :class:`~repro.lint.dataflow.Program`;
its docstring doubles as the ``python -m repro lint --explain RL007``
payload (rationale plus a minimal offending/clean snippet pair).
"""

from __future__ import annotations

from typing import Iterator

from ..base import ProgramRule, register
from ..findings import LintFinding
from .program import Program
from .summary import FileSummary, FunctionSummary

__all__ = ["CrossModuleClairvoyanceTaint"]


def _leaf(fq: str) -> str:
    return fq.rsplit(".", 1)[-1]


@register
class CrossModuleClairvoyanceTaint(ProgramRule):
    """RL007 — a non-clairvoyant scheduler reads ``p(J)`` before ``J`` completes.

    Why
    ---
    The paper's non-clairvoyant model (§3, Theorems 3.3–3.5) forbids a
    scheduler with ``requires_clairvoyance = False`` from observing
    ``job.length`` before the job completes.  RL007 follows every
    method reachable before ``on_completion`` (over the class
    hierarchy) and tracks clairvoyant taint through the cross-module
    call graph: direct reads, function returns, job-valued arguments,
    ``self`` attributes holding jobs, and registry-resolved methods — so
    a helper in *another module* cannot launder the leak.  The runtime
    ``ClairvoyanceGuard`` (``REPRO_STRICT=1``) sees only executed paths,
    and a clairvoyant run's ``JobView.length`` does not raise; this rule
    covers every path.

    Offending
    ---------
    ::

        # helpers.py
        def peek(job):
            return job.length          # taints any caller

        # sched.py
        from . import helpers

        class Sneaky(OnlineScheduler):
            requires_clairvoyance = False

            def on_arrival(self, ctx, job):
                if helpers.peek(job) > 2:   # RL007: cross-module leak
                    ctx.start(job)

    Clean
    -----
    ::

        class Honest(OnlineScheduler):
            requires_clairvoyance = False

            def on_completion(self, ctx, job):
                self.observed[job.id] = job.length  # post-completion OK
    """

    code = "RL007"
    name = "cross-module-clairvoyance-taint"
    description = (
        "non-clairvoyant scheduler reaches a pre-completion job.length "
        "read through the whole-program call graph"
    )

    def check_program(self, program: Program) -> Iterator[LintFinding]:
        seen: set[tuple[str, int, int, str]] = set()
        for cls_fq in program.scheduler_classes():
            if program.requires_clairvoyance(cls_fq):
                continue
            job_attrs = program.job_attrs(cls_fq)
            for (owner, mname), (fn, jctx) in sorted(
                program.pre_completion_reach(cls_fq).items()
            ):
                fqid = f"{owner}.{mname}"
                fs, _cls = program.fn_context[fqid]
                symbol = f"{_leaf(owner)}.{mname}"
                for finding in self._method_findings(
                    program, cls_fq, fs, fn, jctx, job_attrs, symbol
                ):
                    key = (finding.path, finding.line, finding.col, finding.message)
                    if key in seen:
                        continue
                    seen.add(key)
                    yield finding

    def _method_findings(
        self,
        program: Program,
        cls_fq: str,
        fs: FileSummary,
        fn: FunctionSummary,
        jctx: set[str],
        job_attrs: set[str],
        symbol: str,
    ) -> Iterator[LintFinding]:
        cname = _leaf(cls_fq)
        # (1) direct reads of job-context parameters.
        for p, attr, line, col in fn.param_length_reads:
            if p in jctx:
                yield self.program_finding(
                    fs.path,
                    line,
                    col,
                    f"non-clairvoyant scheduler '{cname}' reads {p}.{attr} "
                    "before completion",
                    symbol,
                )
        # (2) reads on intrinsically job-typed values (ctx.pending() etc.).
        for attr, line, col in fn.intrinsic_length_reads:
            yield self.program_finding(
                fs.path,
                line,
                col,
                f"non-clairvoyant scheduler '{cname}' reads .{attr} of a "
                "live job before completion",
                symbol,
            )
        # (3) reads through self.<attr> job containers.
        for self_attr, attr, line, col in fn.attr_length_reads:
            if self_attr in job_attrs:
                yield self.program_finding(
                    fs.path,
                    line,
                    col,
                    f"non-clairvoyant scheduler '{cname}' reads .{attr} of "
                    f"jobs stored in self.{self_attr} before completion",
                    symbol,
                )
        # (4) boundary calls: leaks laundered through other functions,
        # possibly in other modules.
        cls_chain = set(program.mro(cls_fq))
        for call in fn.calls:
            if call.callee.startswith(("self.", "super.")):
                continue  # already covered by pre_completion_reach
            resolved = program.resolve_call(call, fs.module, cname)
            if resolved is None:
                continue
            kind, target_sym = resolved
            owner_cls = target_sym.rpartition(".")[0] if kind == "method" else None
            if owner_cls is not None and owner_cls in cls_chain:
                continue
            target, skip_self = program.callable_summary(kind, target_sym)
            key = program._symbol_key(resolved)
            w = program.leaks_always.get(key)
            if w is not None:
                yield self.program_finding(
                    fs.path,
                    call.lineno,
                    call.col,
                    f"non-clairvoyant scheduler '{cname}' calls "
                    f"{call.callee}(), which {w.render()}",
                    symbol,
                )
                continue
            w = program.returns_taint.get(key)
            if w is not None:
                yield self.program_finding(
                    fs.path,
                    call.lineno,
                    call.col,
                    f"non-clairvoyant scheduler '{cname}' calls "
                    f"{call.callee}(), which {w.render()}",
                    symbol,
                )
                continue
            if target is None:
                continue
            tleaks = program.leaks_params.get(
                program._target_key(kind, target_sym, target), {}
            )
            if not tleaks:
                continue
            for tparam, arg in program.bind_args(call, target, skip_self):
                wp = tleaks.get(tparam)
                if wp is None:
                    continue
                jobbish = (
                    arg.get("kind") == "job"
                    or (arg.get("kind") == "param" and arg.get("param") in jctx)
                    or (arg.get("kind") == "attr" and arg.get("attr") in job_attrs)
                )
                if jobbish:
                    yield self.program_finding(
                        fs.path,
                        call.lineno,
                        call.col,
                        f"non-clairvoyant scheduler '{cname}' passes a live "
                        f"job to {call.callee}(), which {wp.render()}",
                        symbol,
                    )
