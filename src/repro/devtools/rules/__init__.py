"""The repro-lint rule catalog.

Rules are instantiated fresh per run via :func:`all_rules`; each rule id
is documented (with rationale and examples) in ``docs/correctness.md``.

Shared helper: :func:`trial_path_classes` — the syntactic approximation
of "code that runs inside an engine trial": any class whose (in-module)
base-class chain mentions ``Protocol`` or ``Distribution``.  The base
abstractions themselves (``Protocol``, ``InputDistribution``) have no
such base and are deliberately excluded.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..lint import LintRule, SourceModule

__all__ = ["all_rules", "trial_path_classes", "base_names"]

#: A base-class name containing one of these marks a trial-path class.
_TRIAL_MARKERS = ("Protocol", "Distribution")


def base_names(node: ast.ClassDef) -> list[str]:
    """Syntactic base-class names (``Name`` ids / ``Attribute`` attrs)."""
    names = []
    for base in node.bases:
        if isinstance(base, ast.Name):
            names.append(base.id)
        elif isinstance(base, ast.Attribute):
            names.append(base.attr)
    return names


def trial_path_classes(module: SourceModule) -> set[ast.ClassDef]:
    """Classes whose instances run inside engine trials.

    A class qualifies when a base name contains ``Protocol`` or
    ``Distribution``, directly or through in-module ancestors.  This is a
    lint heuristic, not a proof: cross-module ancestry under a neutral
    name is invisible — acceptable, since every concrete protocol and
    distribution in this repo names its abstraction in its bases.
    """
    classes = [n for n in ast.walk(module.tree) if isinstance(n, ast.ClassDef)]
    by_name = {cls.name: cls for cls in classes}
    cache: dict[str, bool] = {}

    def qualifies(cls: ast.ClassDef, seen: frozenset[str]) -> bool:
        if cls.name in cache:
            return cache[cls.name]
        verdict = False
        for base in base_names(cls):
            if any(marker in base for marker in _TRIAL_MARKERS):
                verdict = True
                break
            parent = by_name.get(base)
            if parent is not None and base not in seen:
                if qualifies(parent, seen | {base}):
                    verdict = True
                    break
        cache[cls.name] = verdict
        return verdict

    return {cls for cls in classes if qualifies(cls, frozenset({cls.name}))}


def iter_calls_with_class(
    module: SourceModule,
) -> Iterator[tuple[ast.Call, "ast.ClassDef | None"]]:
    """Every Call node paired with its innermost enclosing class."""
    stack: list[ast.ClassDef] = []

    def visit(node: ast.AST) -> Iterator[tuple[ast.Call, "ast.ClassDef | None"]]:
        if isinstance(node, ast.ClassDef):
            stack.append(node)
            for child in ast.iter_child_nodes(node):
                yield from visit(child)
            stack.pop()
            return
        if isinstance(node, ast.Call):
            yield node, stack[-1] if stack else None
        for child in ast.iter_child_nodes(node):
            yield from visit(child)

    yield from visit(module.tree)


def all_rules() -> list[LintRule]:
    """The full catalog, in reporting order."""
    from .batching import CostModelContractRule
    from .concurrency import (
        BareAcquireRule,
        PickleQuarantineRule,
        SilentExceptRule,
    )
    from .determinism import AmbientRandomnessRule, FrozenSpecMutationRule

    return [
        AmbientRandomnessRule(),
        FrozenSpecMutationRule(),
        CostModelContractRule(),
        PickleQuarantineRule(),
        BareAcquireRule(),
        SilentExceptRule(),
    ]
