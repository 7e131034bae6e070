"""RL003 — float hygiene in theorem-certification code.

The rationale and snippets are :class:`FloatHygieneRule`'s docstring,
which ``python -m repro lint --explain RL003`` prints.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .base import FileContext, Rule, register
from .findings import LintFinding

__all__ = ["FloatHygieneRule"]

#: Model attributes statically known to be floats (paper quantities).
KNOWN_FLOAT_ATTRS = {
    "arrival",
    "deadline",
    "laxity",
    "length",
    "size",
    "span",
    "measure",
    "left",
    "right",
    "mu",
    "total_work",
    "max_length",
    "min_length",
    "horizon",
    "start_time",
    "lower",
    "upper",
    "width",
}


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for nested Name/Attribute chains, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _annotation_leaf(node: ast.expr | None) -> str | None:
    """The rightmost identifier of an annotation (handles strings/Optional)."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.strip().rsplit(".", 1)[-1].rstrip("]").strip('"')
    if isinstance(node, ast.Subscript):  # Optional[JobView] etc.
        return _annotation_leaf(node.slice)
    name = dotted_name(node)
    if name is not None:
        return name.rsplit(".", 1)[-1]
    return None


class FloatTyper:
    """Heuristic float-typedness for RL003.

    A conservative, annotation-driven local inference:

    * float literals with any value, and true division ``/``;
    * ``math.*`` calls (the module is all-float), ``float(...)``;
    * names of parameters / locals annotated ``float``;
    * locals assigned from calls to module functions whose *return
      annotation* is ``float``;
    * attributes in :data:`KNOWN_FLOAT_ATTRS` (the model's quantities).

    ``is_float(node)`` answers for one expression; the typer is built per
    module (for the return-annotation map) and then primed per function.
    """

    def __init__(self, tree: ast.Module) -> None:
        self._float_returning: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _annotation_leaf(node.returns) == "float":
                    self._float_returning.add(node.name)
        self._float_names: set[str] = set()

    def reset(self) -> None:
        """Clear per-function state (module-level expressions)."""
        self._float_names = set()

    def prime(self, fn: ast.FunctionDef) -> None:
        """Collect float-annotated / float-assigned local names of ``fn``."""
        names: set[str] = set()
        args = fn.args
        for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            if _annotation_leaf(a.annotation) == "float":
                names.add(a.arg)
        changed = True
        while changed:
            before = len(names)
            self._float_names = names
            for node in ast.walk(fn):
                if isinstance(node, ast.Assign) and self.is_float(node.value):
                    for t in node.targets:
                        if isinstance(t, ast.Name):
                            names.add(t.id)
                elif isinstance(node, ast.AnnAssign):
                    if _annotation_leaf(node.annotation) == "float" and isinstance(
                        node.target, ast.Name
                    ):
                        names.add(node.target.id)
            changed = len(names) != before
        self._float_names = names

    def is_float(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Constant):
            return isinstance(node.value, float)
        if isinstance(node, ast.Name):
            return node.id in self._float_names
        if isinstance(node, ast.Attribute):
            return node.attr in KNOWN_FLOAT_ATTRS
        if isinstance(node, ast.UnaryOp):
            return self.is_float(node.operand)
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.Div):
                return True
            return self.is_float(node.left) or self.is_float(node.right)
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name is None:
                return False
            if name.startswith("math.") and name != "math.isqrt":
                return True
            if name in ("float", "abs") and node.args:
                return name == "float" or self.is_float(node.args[0])
            leaf = name.rsplit(".", 1)[-1]
            return leaf in self._float_returning
        if isinstance(node, ast.IfExp):
            return self.is_float(node.body) or self.is_float(node.orelse)
        return False

    def is_intlike(self, node: ast.expr) -> bool:
        """Obviously-integer expressions (``len(...)``, int literals)."""
        if isinstance(node, ast.Constant):
            return isinstance(node.value, int) and not isinstance(node.value, bool)
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            return name in ("len", "int", "round", "math.isqrt", "ord", "id")
        return False


def walk_functions(tree: ast.Module) -> Iterator[ast.FunctionDef]:
    """Every (sync or async) function/method definition in the module."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node  # type: ignore[misc]


_TARGET_SUFFIXES = (
    "analysis/theory.py",
    "analysis/certify.py",
)


def _in_scope(path: str) -> bool:
    norm = path.replace("\\", "/")
    if "/offline/" in norm:
        return True
    return any(norm.endswith(sfx) for sfx in _TARGET_SUFFIXES)


@register
class FloatHygieneRule(Rule):
    """RL003 — exact ``==`` / ``!=`` between floats in certification code.

    The certification stack (``analysis/theory.py``,
    ``analysis/certify.py`` and everything under ``offline/``) turns
    measured spans into *verdicts* about the paper's theorems.  An exact
    comparison between float-typed expressions there is a latent
    soundness bug: two mathematically equal spans computed along
    different operation orders differ in ULPs, silently flipping a
    certification.  Use exact :class:`fractions.Fraction` arithmetic
    where the theorem demands equality, or a documented tolerance where
    rounding is accepted.

    Float-typedness is inferred locally (annotations, float literals,
    true division, ``math.*`` calls, known model attributes) — see
    :class:`FloatTyper`.  Obviously integral comparisons
    (``len(x) == 0``, int literals on both sides) and ``None``/str/bool
    sentinels are never flagged.

    Offending::

        def rigid(job):
            return job.laxity == 0              # RL003

    Clean::

        def rigid(job):
            return job.laxity <= 1e-12          # documented tolerance
    """

    code = "RL003"
    name = "float-hygiene"
    severity = "error"
    description = (
        "exact ==/!= between float-typed expressions in theorem "
        "certification code; use Fraction or a documented tolerance"
    )

    def applies_to(self, path: str) -> bool:
        return _in_scope(path)

    def check(self, ctx: FileContext) -> Iterator[LintFinding]:
        typer = FloatTyper(ctx.tree)
        seen: set[int] = set()
        for fn in walk_functions(ctx.tree):
            typer.prime(fn)
            for node in ast.walk(fn):
                if id(node) in seen or not isinstance(node, ast.Compare):
                    continue
                seen.add(id(node))
                yield from self._check_compare(ctx, typer, fn.name, node)
        # Module-level comparisons (rare but possible in constants).
        typer.reset()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Compare) and id(node) not in seen:
                yield from self._check_compare(ctx, typer, "<module>", node)

    def _check_compare(
        self,
        ctx: FileContext,
        typer: FloatTyper,
        symbol: str,
        node: ast.Compare,
    ) -> Iterator[LintFinding]:
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            # Skip None / string / bool sentinels.
            if _is_sentinel(left) or _is_sentinel(right):
                continue
            if typer.is_intlike(left) and typer.is_intlike(right):
                continue
            if not (typer.is_float(left) or typer.is_float(right)):
                continue
            # float vs int literal/len() is still exact, so still flagged:
            # `laxity == 0` misses laxity == 5e-17 jitter.
            opname = "==" if isinstance(op, ast.Eq) else "!="
            yield self.finding(
                ctx,
                node,
                f"exact {opname} between float-typed expressions in "
                "certification code; compare Fractions or use a documented "
                "tolerance (abs(a - b) <= 1e-12)",
                symbol=symbol,
            )


def _is_sentinel(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and (
        node.value is None
        or isinstance(node.value, (str, bool))
    )
