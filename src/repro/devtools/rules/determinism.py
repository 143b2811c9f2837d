"""Determinism rules: DET01 (ambient randomness), DET02 (frozen specs).

The engine's cross-backend bit-identical guarantee holds because every
random draw in a trial flows from ``SeedSequence(seed).spawn(trials)``
— per-trial, location-independent seeding.  Code that reaches for
ambient randomness (``np.random.*`` module state, the stdlib ``random``
module, OS entropy via unseeded ``default_rng()``, wall-clock seeding)
silently re-introduces run-to-run and backend-to-backend divergence.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..lint import Finding, LintRule, SourceModule, dotted_name
from . import iter_calls_with_class, trial_path_classes

__all__ = ["AmbientRandomnessRule", "FrozenSpecMutationRule"]

#: Legacy numpy global-state draws (``np.random.<fn>``): all of these
#: read or mutate process-wide hidden state.
_NUMPY_LEGACY = {
    "rand",
    "randn",
    "randint",
    "random",
    "random_sample",
    "ranf",
    "sample",
    "choice",
    "shuffle",
    "permutation",
    "seed",
    "standard_normal",
    "normal",
    "uniform",
    "binomial",
    "poisson",
    "bytes",
    "get_state",
    "set_state",
}

#: Draw/seed functions of the stdlib ``random`` module.
_STDLIB_RANDOM = {
    "random",
    "randint",
    "randrange",
    "choice",
    "choices",
    "shuffle",
    "sample",
    "seed",
    "uniform",
    "getrandbits",
    "randbytes",
    "gauss",
    "normalvariate",
    "betavariate",
    "expovariate",
}

#: Wall-clock sources that must never feed a seed.
_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
}

#: The module holding the sanctioned expansion helpers is the one place
#: allowed to construct generators directly.
_ALLOWED_PATHS = ("repro/core/randomness.py",)


class _ImportMap:
    """What this module's names mean: numpy roots, stdlib-random names."""

    def __init__(self, tree: ast.Module):
        self.numpy_roots: set[str] = set()
        #: names bound to the ``numpy.random`` submodule itself
        self.numpy_random_roots: set[str] = set()
        #: local names imported ``from numpy.random import ...``, mapped
        #: to the ``numpy.random`` attribute each one is bound to
        self.numpy_random_names: dict[str, str] = {}
        self.stdlib_random_roots: set[str] = set()
        #: local names imported ``from random import ...``
        self.stdlib_random_names: set[str] = set()
        self.time_roots: set[str] = set()
        self.time_names: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.partition(".")[0]
                    if alias.name == "numpy" or alias.name.startswith("numpy."):
                        if alias.name == "numpy.random" and alias.asname:
                            self.numpy_random_roots.add(alias.asname)
                        else:
                            self.numpy_roots.add(bound)
                    elif alias.name == "random":
                        self.stdlib_random_roots.add(bound)
                    elif alias.name == "time":
                        self.time_roots.add(bound)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module == "numpy":
                    for alias in node.names:
                        if alias.name == "random":
                            self.numpy_random_roots.add(alias.asname or "random")
                elif node.module == "numpy.random":
                    for alias in node.names:
                        self.numpy_random_names[alias.asname or alias.name] = alias.name
                elif node.module == "random":
                    for alias in node.names:
                        self.stdlib_random_names.add(alias.asname or alias.name)
                elif node.module == "time":
                    for alias in node.names:
                        self.time_names.add(alias.asname or alias.name)

    def numpy_random_tail(self, dotted: str) -> str | None:
        """``"default_rng"`` for ``np.random.default_rng``, a bare
        ``default_rng`` imported from ``numpy.random`` etc., else None."""
        root, _, rest = dotted.partition(".")
        if root in self.numpy_roots and rest.startswith("random."):
            return rest.partition(".")[2]
        if root in self.numpy_random_roots and rest and "." not in rest:
            return rest
        return self.numpy_random_names.get(dotted)

    def is_clock_call(self, call: ast.Call) -> bool:
        name = dotted_name(call.func)
        if name is None:
            return False
        root = name.partition(".")[0]
        if root in self.time_roots and name.partition(".")[2] in {
            tail.partition(".")[2] for tail in _CLOCK_CALLS
        }:
            return True
        return "." not in name and name in self.time_names


class AmbientRandomnessRule(LintRule):
    """DET01 — randomness must flow from engine-spawned generators."""

    id = "DET01"
    title = "no ambient randomness in trial paths"
    rationale = (
        "np.random module state, the stdlib random module, unseeded "
        "default_rng() and wall-clock seeding all break the engine's "
        "bit-identical cross-backend guarantee; protocols and "
        "distributions must expand seeds via repro.core.randomness."
    )

    def check(self, module: SourceModule) -> Iterator[Finding]:
        if module.path.endswith(_ALLOWED_PATHS):
            return
        imports = _ImportMap(module.tree)
        trial_classes = trial_path_classes(module)
        for call, enclosing in iter_calls_with_class(module):
            name = dotted_name(call.func)
            in_trial = enclosing in trial_classes
            if name is not None:
                yield from self._check_named_call(
                    module, call, name, imports, in_trial
                )
            yield from self._check_time_seeding(module, call, name, imports)

    def _check_named_call(
        self,
        module: SourceModule,
        call: ast.Call,
        name: str,
        imports: _ImportMap,
        in_trial: bool,
    ) -> Iterator[Finding]:
        tail = imports.numpy_random_tail(name)
        if tail in _NUMPY_LEGACY:
            yield self.finding(
                module,
                call,
                f"legacy global-state draw {name}() — use a Generator "
                "passed in by the engine",
            )
        elif tail in {"default_rng", "Generator"}:
            if in_trial:
                yield self.finding(
                    module,
                    call,
                    f"{name}() inside a Protocol/Distribution class — "
                    "expand drawn seeds via "
                    "repro.core.randomness.expand_seed instead",
                )
            elif tail == "default_rng" and not call.args and not call.keywords:
                yield self.finding(
                    module,
                    call,
                    f"unseeded {name}() draws OS entropy — thread a seeded "
                    "Generator through, or use "
                    "repro.core.randomness.fresh_generator at an "
                    "entry-point boundary",
                )
        root = name.partition(".")[0]
        if (
            root in imports.stdlib_random_roots
            and name.partition(".")[2] in _STDLIB_RANDOM
        ) or ("." not in name and name in imports.stdlib_random_names):
            yield self.finding(
                module,
                call,
                f"stdlib random call {name}() uses hidden global state — "
                "draw from a numpy Generator supplied by the engine",
            )

    def _check_time_seeding(
        self,
        module: SourceModule,
        call: ast.Call,
        name: "str | None",
        imports: _ImportMap,
    ) -> Iterator[Finding]:
        if name is None:
            return
        tail = imports.numpy_random_tail(name)
        is_seed_sink = tail in {"default_rng", "SeedSequence", "seed"} or (
            name.rpartition(".")[2] == "seed"
            and name.partition(".")[0] in imports.stdlib_random_roots
        )
        if not is_seed_sink:
            return
        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            for sub in ast.walk(arg):
                if isinstance(sub, ast.Call) and imports.is_clock_call(sub):
                    yield self.finding(
                        module,
                        call,
                        "wall-clock-seeded generator is nondeterministic "
                        "by construction — derive seeds from the RunSpec",
                    )
                    return


#: Fields of the frozen records; assignment to them on a spec/result
#: value is a mutation the dataclass machinery would reject at runtime
#: only if attempted directly (object.__setattr__ bypasses it silently).
_RUNSPEC_FIELDS = {
    "protocol",
    "inputs",
    "distribution",
    "scheduler",
    "seed",
    "rounds",
    "private_bit_budget",
    "public_coins",
    "record_inputs",
    "record_transcripts",
    "vectorized",
}
_SPEC_NAMES = {"spec", "run_spec", "runspec"}
_RESULT_NAMES = {"batch", "result", "batch_result"}
_RESULT_FIELDS = {"trials"}


class FrozenSpecMutationRule(LintRule):
    """DET02 — RunSpec/BatchResult are frozen records."""

    id = "DET02"
    title = "no mutation of frozen RunSpec/BatchResult fields"
    rationale = (
        "resumable sweeps and the content-digest input cache assume a "
        "spec never changes after construction; object.__setattr__ "
        "bypasses the frozen-dataclass guard silently.  Use "
        "dataclasses.replace to derive a modified spec."
    )

    def check(self, module: SourceModule) -> Iterator[Finding]:
        yield from self._check_setattr_bypass(module)
        yield from self._check_field_assignments(module)

    def _check_setattr_bypass(self, module: SourceModule) -> Iterator[Finding]:
        # object.__setattr__ is legitimate only inside __post_init__ (a
        # frozen dataclass normalising its own fields during init).
        func_stack: list[str] = []

        def visit(node: ast.AST) -> Iterator[Finding]:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                func_stack.append(node.name)
                for child in ast.iter_child_nodes(node):
                    yield from visit(child)
                func_stack.pop()
                return
            if (
                isinstance(node, ast.Call)
                and dotted_name(node.func) == "object.__setattr__"
                and (not func_stack or func_stack[-1] != "__post_init__")
            ):
                yield self.finding(
                    module,
                    node,
                    "object.__setattr__ outside __post_init__ bypasses the "
                    "frozen-dataclass guard — use dataclasses.replace",
                )
            for child in ast.iter_child_nodes(node):
                yield from visit(child)

        yield from visit(module.tree)

    def _check_field_assignments(self, module: SourceModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Delete):
                targets = node.targets
            else:
                continue
            for target in targets:
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                ):
                    continue
                owner = target.value.id
                if owner in _SPEC_NAMES and target.attr in _RUNSPEC_FIELDS:
                    yield self.finding(
                        module,
                        node,
                        f"assignment to frozen RunSpec field "
                        f"{owner}.{target.attr} — use dataclasses.replace",
                    )
                elif owner in _RESULT_NAMES and target.attr in _RESULT_FIELDS:
                    yield self.finding(
                        module,
                        node,
                        f"assignment to BatchResult field "
                        f"{owner}.{target.attr} — results are immutable "
                        "records",
                    )
