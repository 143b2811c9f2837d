"""BAT02 — a batched protocol and its symbolic cost model travel together.

The engine's ``vectorized=True`` fast path runs any protocol that
overrides ``batch_decisions``, and it *synthesizes* that batch's
``CostReport`` from transcript-key lengths instead of measuring it.  The
only gate on that synthesis is the cost-model conformance matrix — which
needs a ``cost_model()``.  A batched protocol without a model ships
unverifiable synthesized costs; a protocol with a model but no batch
implementation never has that model exercised against the fast path it
exists to certify.
"""

from __future__ import annotations

import ast
from typing import Callable, Iterator

from ..lint import Finding, LintRule, SourceModule
from . import base_names, trial_path_classes

__all__ = ["CostModelContractRule"]

#: Methods tracked through inheritance chains.
_METHOD_NAMES = {"batch_decisions", "cost_model"}


def _is_abstract_stub(fn: ast.FunctionDef) -> bool:
    """True for bodies that just raise NotImplementedError (the base-class
    stub pattern) — declaring the contract, not implementing it."""
    body = [
        stmt
        for stmt in fn.body
        if not (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str)
        )
    ]
    if len(body) != 1 or not isinstance(body[0], ast.Raise):
        return False
    exc = body[0].exc
    if isinstance(exc, ast.Call):
        exc = exc.func
    return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"


def _own_methods(cls: ast.ClassDef) -> dict[str, ast.FunctionDef]:
    return {
        stmt.name: stmt
        for stmt in cls.body
        if isinstance(stmt, ast.FunctionDef)
        and stmt.name in _METHOD_NAMES
        and not _is_abstract_stub(stmt)
    }


def _resolve_chain(
    cls: ast.ClassDef, by_name: dict[str, ast.ClassDef]
) -> set[str]:
    """Methods effective on ``cls``, following in-module bases (single-
    inheritance approximation)."""
    methods: set[str] = set()
    seen: set[str] = set()
    current: "ast.ClassDef | None" = cls
    while current is not None and current.name not in seen:
        seen.add(current.name)
        methods.update(_own_methods(current))
        current = next(
            (by_name[base] for base in base_names(current) if base in by_name),
            None,
        )
    return methods


def _descendant_provides(
    base: ast.ClassDef,
    by_name: dict[str, ast.ClassDef],
    predicate: Callable[[ast.ClassDef], bool],
) -> bool:
    """True when some in-module subclass of ``base`` satisfies
    ``predicate`` — ``base`` is then a shared mixin completed downstream."""
    for other in by_name.values():
        if other.name == base.name:
            continue
        seen: set[str] = set()
        current: "ast.ClassDef | None" = other
        through_base = False
        while current is not None and current.name not in seen:
            seen.add(current.name)
            if current.name == base.name:
                through_base = True
                break
            current = next(
                (by_name[b] for b in base_names(current) if b in by_name),
                None,
            )
        if through_base and predicate(other):
            return True
    return False


class CostModelContractRule(LintRule):
    """BAT02 — batch_decisions() and cost_model() must travel together."""

    id = "BAT02"
    title = "batched protocols must declare a cost_model (and vice versa)"
    rationale = (
        "vectorized costs are synthesized, not measured — only the "
        "cost-model conformance matrix verifies them, and it needs "
        "cost_model(); a model without batch_decisions() never meets the "
        "fast path it certifies."
    )

    def check(self, module: SourceModule) -> Iterator[Finding]:
        by_name = {
            n.name: n
            for n in ast.walk(module.tree)
            if isinstance(n, ast.ClassDef)
        }

        def chain_has_batch(cls: ast.ClassDef) -> bool:
            return "batch_decisions" in _resolve_chain(cls, by_name)

        def chain_has_model(cls: ast.ClassDef) -> bool:
            return "cost_model" in _resolve_chain(cls, by_name)

        protocols = {cls.name: cls for cls in trial_path_classes(module)}
        for cls in protocols.values():
            own = _own_methods(cls)
            if "batch_decisions" in own and not (
                chain_has_model(cls)
                or _descendant_provides(cls, by_name, chain_has_model)
            ):
                yield self.finding(
                    module,
                    own["batch_decisions"],
                    f"{cls.name} implements batch_decisions() without a "
                    "cost_model() — its synthesized vectorized costs are "
                    "invisible to the cost-model conformance matrix",
                )
            if "cost_model" in own and not (
                chain_has_batch(cls)
                or _descendant_provides(cls, by_name, chain_has_batch)
            ):
                yield self.finding(
                    module,
                    own["cost_model"],
                    f"{cls.name} declares cost_model() but no "
                    "batch_decisions() — the model is never checked against "
                    "the vectorized fast path's synthesized costs",
                )
