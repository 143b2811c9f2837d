"""True-positive / false-positive fixture pairs for every lint rule.

Each rule gets at least one source snippet it MUST flag and one deceptively
similar snippet it MUST NOT flag — the false-positive fixtures encode the
allowlists (sanctioned helpers, the wire module, abstract stubs) that keep
the linter quiet on the real tree.
"""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path

import pytest

from repro.devtools.lint import Finding, lint_paths, lint_source


def rules_fired(source: str, path: str = "src/repro/core/example.py") -> set[str]:
    return {f.rule for f in lint_source(textwrap.dedent(source), path=path)}


def findings(source: str, path: str = "src/repro/core/example.py") -> list[Finding]:
    return lint_source(textwrap.dedent(source), path=path)


# ----------------------------------------------------------------------
# DET01 — ambient randomness in trial paths
# ----------------------------------------------------------------------
class TestDET01:
    def test_flags_legacy_numpy_global_draw(self):
        src = """
            import numpy as np

            def sample():
                return np.random.randint(0, 2)
        """
        assert "DET01" in rules_fired(src)

    def test_flags_stdlib_random_module(self):
        src = """
            import random

            def sample():
                return random.random()
        """
        assert "DET01" in rules_fired(src)

    def test_flags_default_rng_inside_protocol_subclass(self):
        src = """
            import numpy as np
            from repro.core.protocol import Protocol

            class MyProtocol(Protocol):
                def setup(self, proc):
                    self.rng = np.random.default_rng(123)
        """
        assert "DET01" in rules_fired(src)

    def test_flags_unseeded_default_rng_anywhere(self):
        src = """
            import numpy as np

            def helper():
                return np.random.default_rng()
        """
        assert "DET01" in rules_fired(src)

    def test_flags_wall_clock_seeding(self):
        src = """
            import time
            import numpy as np

            def seeded():
                return np.random.default_rng(int(time.time()))
        """
        assert "DET01" in rules_fired(src)

    def test_allows_seeded_default_rng_outside_trial_classes(self):
        # Engine-level seeding from a SeedSequence is the sanctioned
        # pattern — only trial-path classes must route through expand_seed.
        src = """
            import numpy as np

            def make(seed_seq):
                return np.random.default_rng(seed_seq)
        """
        assert "DET01" not in rules_fired(src)

    def test_allows_expand_seed_in_protocol_subclass(self):
        src = """
            from repro.core.protocol import Protocol
            from repro.core.randomness import expand_seed

            class MyProtocol(Protocol):
                def setup(self, proc):
                    self.rng = expand_seed(proc.public_coins.draw_int(32))
        """
        assert "DET01" not in rules_fired(src)

    def test_allows_seed_sequence_plumbing(self):
        src = """
            import numpy as np

            def spawn(seed, index):
                return np.random.SeedSequence(seed, spawn_key=(index,))
        """
        assert "DET01" not in rules_fired(src)

    def test_randomness_module_is_allowlisted(self):
        src = """
            import numpy as np

            def fresh_generator():
                return np.random.default_rng()
        """
        assert (
            "DET01"
            not in rules_fired(src, path="src/repro/core/randomness.py")
        )

    def test_import_alias_is_tracked(self):
        src = """
            import numpy.random as nr

            def sample():
                return nr.randint(0, 2)
        """
        assert "DET01" in rules_fired(src)

    def test_flags_default_rng_imported_from_numpy_random_in_protocol(self):
        src = """
            from numpy.random import default_rng
            from repro.core.protocol import Protocol

            class MyProtocol(Protocol):
                def broadcast(self, proc, round_index):
                    return int(default_rng(7).integers(2))
        """
        assert "DET01" in rules_fired(src)

    def test_flags_unseeded_default_rng_imported_under_an_alias(self):
        src = """
            from numpy.random import default_rng as make_rng

            def helper():
                return make_rng()
        """
        assert "DET01" in rules_fired(src)

    def test_flags_legacy_seed_imported_from_numpy_random(self):
        src = """
            from numpy.random import seed

            def reset():
                seed(0)
        """
        assert "DET01" in rules_fired(src)

    def test_allows_names_imported_from_numpy_random_for_plumbing(self):
        # A seeded generator outside trial classes, and SeedSequence
        # plumbing, are the sanctioned patterns whatever the import form.
        src = """
            from numpy.random import SeedSequence, default_rng

            def make(seed, index):
                return default_rng(SeedSequence(seed, spawn_key=(index,)))
        """
        assert "DET01" not in rules_fired(src)


# ----------------------------------------------------------------------
# DET02 — frozen spec mutation
# ----------------------------------------------------------------------
class TestDET02:
    def test_flags_object_setattr_outside_post_init(self):
        src = """
            def hack(spec):
                object.__setattr__(spec, "seed", 7)
        """
        assert "DET02" in rules_fired(src)

    def test_allows_object_setattr_in_post_init(self):
        src = """
            class RunSpec:
                def __post_init__(self):
                    object.__setattr__(self, "inputs", None)
        """
        assert "DET02" not in rules_fired(src)

    def test_flags_direct_field_assignment_on_spec(self):
        src = """
            def hack(spec):
                spec.seed = 99
        """
        assert "DET02" in rules_fired(src)

    def test_flags_trials_reassignment_on_batch_result(self):
        src = """
            def hack(result):
                result.trials = []
        """
        assert "DET02" in rules_fired(src)

    def test_allows_unrelated_attribute_assignment(self):
        src = """
            def configure(spec):
                spec.note = "not a RunSpec field"

            def other(result):
                result.cache = {}
        """
        assert "DET02" not in rules_fired(src)

    def test_allows_self_spec_binding(self):
        src = """
            class Runner:
                def __init__(self, spec):
                    self.spec = spec
        """
        assert "DET02" not in rules_fired(src)


# ----------------------------------------------------------------------
# BAT02 — batched protocols carry a symbolic cost model
# ----------------------------------------------------------------------
class TestBAT02:
    def test_flags_batch_without_cost_model(self):
        src = """
            from repro.core.protocol import Protocol

            class Broken(Protocol):
                def batch_decisions(self, inputs):
                    return inputs.sum(axis=(1, 2))
        """
        fired = findings(src)
        assert any(
            f.rule == "BAT02" and "batch_decisions" in f.message
            for f in fired
        )

    def test_flags_cost_model_without_batch_contract(self):
        src = """
            from repro.core.protocol import Protocol
            from repro.costs import CostModel, Phase, Sym

            class ScalarOnly(Protocol):
                def cost_model(self):
                    n = Sym("n")
                    return CostModel([Phase("reveal", rounds=1, turns=n)])
        """
        fired = findings(src)
        assert any(
            f.rule == "BAT02" and "cost_model" in f.message for f in fired
        )

    def test_allows_matched_contract(self):
        src = """
            from repro.core.protocol import Protocol
            from repro.costs import CostModel, Phase, Sym

            class Good(Protocol):
                def cost_model(self):
                    n = Sym("n")
                    return CostModel([Phase("reveal", rounds=1, turns=n)])

                def batch_decisions(self, inputs):
                    return inputs.sum(axis=(1, 2))
        """
        assert "BAT02" not in rules_fired(src)

    def test_inherited_cost_model_satisfies_batch(self):
        src = """
            from repro.core.protocol import Protocol
            from repro.costs import CostModel, Phase, Sym

            class Modeled(Protocol):
                def cost_model(self):
                    n = Sym("n")
                    return CostModel([Phase("reveal", rounds=1, turns=n)])

                def batch_decisions(self, inputs):
                    return inputs.sum(axis=(1, 2))

            class Child(Modeled):
                pass
        """
        assert "BAT02" not in rules_fired(src)

    def test_mixin_completed_by_subclass_is_allowed(self):
        src = """
            from repro.core.protocol import Protocol
            from repro.costs import CostModel, Phase, Sym

            class BatchMixin(Protocol):
                def batch_decisions(self, inputs):
                    return inputs.sum(axis=(1, 2))

            class Complete(BatchMixin):
                def cost_model(self):
                    n = Sym("n")
                    return CostModel([Phase("reveal", rounds=1, turns=n)])
        """
        assert "BAT02" not in rules_fired(src)

    def test_abstract_stub_is_declaration_not_implementation(self):
        src = """
            class Protocol:
                def cost_model(self):
                    raise NotImplementedError("no model")

                def batch_decisions(self, inputs):
                    raise NotImplementedError("no batching")
        """
        assert "BAT02" not in rules_fired(src)

    def test_non_protocol_class_is_out_of_scope(self):
        src = """
            class Planner:
                def cost_model(self):
                    return {"rounds": 1}
        """
        assert "BAT02" not in rules_fired(src)


# ----------------------------------------------------------------------
# EXC01 — pickle quarantine
# ----------------------------------------------------------------------
class TestEXC01:
    def test_flags_pickle_loads_outside_wire(self):
        src = """
            import pickle

            def decode(blob):
                return pickle.loads(blob)
        """
        assert "EXC01" in rules_fired(src, path="src/repro/exec/worker.py")

    def test_flags_from_import_alias(self):
        src = """
            from pickle import loads as unfreeze

            def decode(blob):
                return unfreeze(blob)
        """
        assert "EXC01" in rules_fired(src, path="src/repro/exec/helper.py")

    def test_wire_module_is_no_longer_exempt(self):
        """The v1 protocol quarantined pickle inside wire.py; the v2
        schema protocol needs no pickle at all, so even the wire module
        is held to the rule now."""
        src = """
            import pickle

            def recv_frame(blob):
                return pickle.loads(blob)
        """
        assert "EXC01" in rules_fired(src, path="src/repro/exec/wire.py")

    def test_no_pickle_import_anywhere_in_exec(self):
        """Regression for the pickle-RCE fix: no repro.exec module may
        even import pickle — the schema codec replaced it wholesale."""
        from pathlib import Path

        exec_dir = Path(__file__).resolve().parents[2] / "src" / "repro" / "exec"
        offenders = [
            path.name
            for path in sorted(exec_dir.glob("*.py"))
            if any(
                line.startswith(("import pickle", "from pickle"))
                for line in path.read_text().splitlines()
            )
        ]
        assert offenders == []

    def test_allows_pickle_dumps(self):
        # Serialization is safe; only deserialization executes code.
        src = """
            import pickle

            def encode(obj):
                return pickle.dumps(obj)
        """
        assert "EXC01" not in rules_fired(src, path="src/repro/exec/worker.py")


# ----------------------------------------------------------------------
# One in-machine process backend
# ----------------------------------------------------------------------
#: Names that start processes, by the module exporting them.
PROCESS_STARTERS = {
    "concurrent.futures": {"ProcessPoolExecutor"},
    "concurrent.futures.process": {"ProcessPoolExecutor"},
    "multiprocessing": {"Pool", "Process"},
}


def process_starters(source: str) -> list[str]:
    """``module.name`` of every process starter ``source`` imports or uses."""
    tree = ast.parse(source)
    modules: dict[str, str] = {}  # local name -> the module it is bound to
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                modules[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                if alias.name in PROCESS_STARTERS.get(node.module, ()):
                    found.append(f"{node.module}.{alias.name}")
                modules[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            base = ast.unparse(node.value)
            module = modules.get(base, base)
            if node.attr in PROCESS_STARTERS.get(module, ()):
                found.append(f"{module}.{node.attr}")
    return found


class TestOneProcessBackend:
    @pytest.mark.parametrize(
        "src",
        [
            "from concurrent.futures import ProcessPoolExecutor",
            "from multiprocessing import Pool",
            "import multiprocessing\nmultiprocessing.Process(target=print)",
            "import multiprocessing as mp\nmp.Pool(2)",
            "import concurrent.futures\nconcurrent.futures.ProcessPoolExecutor()",
            "from concurrent import futures\nfutures.ProcessPoolExecutor()",
        ],
    )
    def test_flags_process_starters(self, src):
        assert process_starters(src)

    @pytest.mark.parametrize(
        "src",
        [
            "from multiprocessing import shared_memory",
            "from concurrent.futures import ThreadPoolExecutor",
            "import concurrent.futures\nconcurrent.futures.wait([])",
        ],
    )
    def test_allows_threads_and_shared_memory(self, src):
        assert process_starters(src) == []

    def test_only_the_pool_module_starts_processes(self):
        """``WorkerPool`` is the one in-machine process backend: no other
        module under ``src/repro`` may start a process pool or a process
        (a wire worker runs its chunks inline; many-core hosts run one
        worker per core)."""
        src = Path(__file__).resolve().parents[2] / "src"
        found = {
            path.relative_to(src).as_posix(): starters
            for path in sorted((src / "repro").rglob("*.py"))
            if (starters := process_starters(path.read_text()))
        }
        pool = found.pop("repro/exec/pool.py", [])
        assert "multiprocessing.Process" in pool
        assert found == {}


# ----------------------------------------------------------------------
# One dispatch loop
# ----------------------------------------------------------------------
def scheduler_constructions(source: str) -> list[str]:
    """The enclosing function of every ``ChunkScheduler(...)`` call."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else None
                if isinstance(func, ast.Name):
                    name = func.id
                if name == "ChunkScheduler":
                    found.append(scope)
            inner = (ast.FunctionDef, ast.AsyncFunctionDef)
            visit(child, child.name if isinstance(child, inner) else scope)

    visit(ast.parse(source), "<module>")
    return found


class TestOneDispatchLoop:
    @pytest.mark.parametrize(
        "src, scopes",
        [
            ("ChunkScheduler(items, 2, lanes=2)", ["<module>"]),
            (
                "from repro.exec import stealing\n"
                "def _map_once(items):\n"
                "    return stealing.ChunkScheduler(items, 1, 1)",
                ["_map_once"],
            ),
            (
                "def map(items):\n"
                "    def feed():\n"
                "        return ChunkScheduler(items, 1, 1)\n"
                "    return feed",
                ["feed"],
            ),
        ],
    )
    def test_flags_scheduler_construction(self, src, scopes):
        assert scheduler_constructions(src) == scopes

    @pytest.mark.parametrize(
        "src",
        [
            "from repro.exec.stealing import ChunkScheduler",
            "def feed(scheduler):\n    return scheduler.next_chunk(0)",
            "results, leftovers = dispatch(items, lanes)",
            '"""ChunkScheduler(items, 2, lanes=2)"""',
            "isinstance(obj, ChunkScheduler)",
        ],
    )
    def test_allows_imports_uses_and_mentions(self, src):
        assert scheduler_constructions(src) == []

    def test_only_dispatch_builds_a_chunk_scheduler(self):
        """Both executors feed their lanes through ``stealing.dispatch``:
        no other code under ``src/repro`` runs its own loop over a
        ``ChunkScheduler``."""
        src = Path(__file__).resolve().parents[2] / "src"
        found = {
            path.relative_to(src).as_posix(): scopes
            for path in sorted((src / "repro").rglob("*.py"))
            if (scopes := scheduler_constructions(path.read_text()))
        }
        assert found == {"repro/exec/stealing.py": ["dispatch"]}


# ----------------------------------------------------------------------
# EXC02 — bare acquire/release in repro.exec
# ----------------------------------------------------------------------
class TestEXC02:
    def test_flags_bare_acquire_in_exec(self):
        src = """
            import threading

            lock = threading.Lock()

            def work():
                lock.acquire()
                try:
                    pass
                finally:
                    lock.release()
        """
        assert "EXC02" in rules_fired(src, path="src/repro/exec/pool.py")

    def test_out_of_scope_module_not_flagged(self):
        src = """
            import threading

            lock = threading.Lock()

            def work():
                lock.acquire()
                lock.release()
        """
        assert "EXC02" not in rules_fired(src, path="src/repro/core/engine.py")

    def test_with_statement_not_flagged(self):
        src = """
            import threading

            lock = threading.Lock()

            def work():
                with lock:
                    pass
        """
        assert "EXC02" not in rules_fired(src, path="src/repro/exec/pool.py")

    def test_release_with_argument_not_flagged(self):
        # Lock releases are nullary; release(digest) is a store protocol.
        src = """
            def drop(store, digest):
                store.release(digest)
        """
        assert "EXC02" not in rules_fired(src, path="src/repro/exec/worker.py")


# ----------------------------------------------------------------------
# EXC03 — silent except-pass swallows in repro.exec
# ----------------------------------------------------------------------
class TestEXC03:
    def test_flags_typed_except_pass_in_exec(self):
        src = """
            def drop(sock):
                try:
                    sock.close()
                except OSError:
                    pass
        """
        assert "EXC03" in rules_fired(src, path="src/repro/exec/distributed.py")

    def test_flags_bare_except_pass(self):
        src = """
            def probe(link):
                try:
                    link.ping()
                except:
                    pass
        """
        assert "EXC03" in rules_fired(src, path="src/repro/exec/pool.py")

    def test_flags_ellipsis_body(self):
        src = """
            def probe(link):
                try:
                    link.ping()
                except ConnectionError:
                    ...
        """
        assert "EXC03" in rules_fired(src, path="src/repro/exec/worker.py")

    def test_out_of_scope_module_not_flagged(self):
        src = """
            def load(path):
                try:
                    open(path).close()
                except FileNotFoundError:
                    pass
        """
        assert "EXC03" not in rules_fired(src, path="src/repro/core/engine.py")

    def test_handler_with_real_body_not_flagged(self):
        src = """
            def probe(link, telemetry):
                try:
                    link.ping()
                except ConnectionError:
                    telemetry.record(link.address, "ping")
        """
        assert "EXC03" not in rules_fired(src, path="src/repro/exec/distributed.py")

    def test_handler_returning_sentinel_not_flagged(self):
        src = """
            def load(path):
                journal = {}
                try:
                    stream = open(path)
                except FileNotFoundError:
                    return journal
                with stream:
                    return journal
        """
        assert "EXC03" not in rules_fired(src, path="src/repro/exec/sweep.py")

    def test_pragma_with_reason_suppresses(self):
        src = """
            def drop(sock):
                try:
                    sock.close()
                except OSError:  # repro-lint: disable=EXC03 close is best-effort teardown
                    pass
        """
        assert "EXC03" not in rules_fired(src, path="src/repro/exec/distributed.py")


# ----------------------------------------------------------------------
# Pragmas and framework behaviour
# ----------------------------------------------------------------------
class TestPragmas:
    def test_pragma_with_reason_suppresses(self):
        src = """
            import numpy as np

            def sample():
                return np.random.randint(0, 2)  # repro-lint: disable=DET01 fixture noise
        """
        assert "DET01" not in rules_fired(src)

    def test_pragma_without_reason_is_sup01(self):
        src = """
            import numpy as np

            def sample():
                return np.random.randint(0, 2)  # repro-lint: disable=DET01
        """
        fired = rules_fired(src)
        assert "SUP01" in fired
        assert "DET01" in fired  # reasonless pragma does not suppress

    def test_malformed_pragma_is_sup01(self):
        src = """
            x = 1  # repro-lint: disable=
        """
        assert "SUP01" in rules_fired(src)

    def test_pragma_only_covers_its_line(self):
        src = """
            import numpy as np

            a = np.random.randint(0, 2)  # repro-lint: disable=DET01 test fixture
            b = np.random.randint(0, 2)
        """
        fired = findings(src)
        det = [f for f in fired if f.rule == "DET01"]
        assert len(det) == 1
        assert det[0].line == 5

    def test_multi_rule_pragma(self):
        src = """
            import pickle
            import numpy as np

            def f(blob):
                return np.random.randint(int(pickle.loads(blob)))  # repro-lint: disable=DET01,EXC01 sanctioned test decoder
        """
        assert rules_fired(src, path="src/repro/exec/helper.py") == set()

    def test_prose_mention_is_not_a_pragma(self):
        src = '''
            """Docs that mention repro-lint by name are fine."""

            MESSAGE = "run repro-lint before committing"
        '''
        assert "SUP01" not in rules_fired(src)


class TestFramework:
    def test_unparseable_file_reports_lnt00(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        results, n_files = lint_paths([str(tmp_path)])
        assert n_files == 1
        assert [f.rule for f in results] == ["LNT00"]

    def test_clean_tree_exits_zero(self, tmp_path):
        good = tmp_path / "good.py"
        good.write_text("x = 1\n")
        results, n_files = lint_paths([str(tmp_path)])
        assert results == []
        assert n_files == 1

    def test_findings_sorted_by_position(self):
        src = """
            import numpy as np

            b = np.random.randint(0, 2)
            a = np.random.rand()
        """
        fired = findings(src)
        assert [f.line for f in fired] == sorted(f.line for f in fired)

    def test_finding_format_is_clickable(self):
        finding = Finding("DET01", "src/x.py", 3, 7, "message")
        assert finding.format() == "src/x.py:3:7: DET01 message"

    def test_cli_reports_and_exits_nonzero(self, tmp_path, capsys):
        from repro.devtools.lint import main

        bad = tmp_path / "mod.py"
        bad.write_text("import numpy as np\nx = np.random.rand()\n")
        report = tmp_path / "report.json"
        status = main([str(tmp_path), "--report", str(report)])
        assert status == 1
        out = capsys.readouterr().out
        assert "DET01" in out
        import json

        payload = json.loads(report.read_text())
        assert payload["counts"]["DET01"] == 1
        assert payload["files_checked"] == 1

    def test_cli_clean_exits_zero(self, tmp_path):
        from repro.devtools.lint import main

        good = tmp_path / "mod.py"
        good.write_text("x = 1\n")
        assert main([str(tmp_path)]) == 0

    def test_rule_filter(self, tmp_path):
        from repro.devtools.lint import main

        mixed = tmp_path / "mod.py"
        mixed.write_text(
            "import numpy as np\nimport pickle\n"
            "x = np.random.rand()\ny = pickle.loads(b'')\n"
        )
        # Only EXC01 requested: DET01 must not fail the run... but the
        # file is outside repro/exec so EXC01 still fires on pickle.loads.
        assert main([str(tmp_path), "--rules", "EXC01"]) == 1
        assert main([str(tmp_path), "--rules", "DET01"]) == 1

    def test_repo_tree_is_clean(self):
        # The acceptance gate: the shipped tree must lint clean.
        from pathlib import Path

        tree = Path(__file__).resolve().parents[2] / "src" / "repro"
        results, n_files = lint_paths([str(tree)])
        assert n_files > 0
        assert results == [], "\n".join(f.format() for f in results)
