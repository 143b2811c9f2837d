"""Runtime lock-order checker: cycle detection, reentrancy, restoration.

The synthetic reproducer takes locks A→B on one thread and B→A on another
*sequentially* — no real deadlock ever happens, which is exactly the
point: the monitor flags the ordering hazard without needing the unlucky
interleaving.
"""

from __future__ import annotations

import threading
from typing import Iterator

import pytest

from repro.devtools.lockorder import (
    LockOrderError,
    LockOrderMonitor,
    TrackedLock,
)

#: This test module must itself be tracked by the monitors it builds.
_PREFIXES = ("repro.", __name__)


@pytest.fixture
def monitor() -> Iterator[LockOrderMonitor]:
    mon = LockOrderMonitor(module_prefixes=_PREFIXES)
    mon.install()
    try:
        yield mon
    finally:
        mon.uninstall()


def run_thread(fn) -> None:
    errors: list[BaseException] = []

    def wrapped() -> None:
        try:
            fn()
        except BaseException as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    thread = threading.Thread(target=wrapped)
    thread.start()
    thread.join()
    if errors:
        raise errors[0]


class TestCycleDetection:
    def test_consistent_order_is_acyclic(self, monitor):
        a, b = threading.Lock(), threading.Lock()
        with a:
            with b:
                pass

        def same_order():
            with a:
                with b:
                    pass

        run_thread(same_order)
        assert monitor.find_cycle() is None
        monitor.assert_no_cycles()

    def test_opposite_orders_form_a_cycle(self, monitor):
        a, b = threading.Lock(), threading.Lock()
        with a:
            with b:
                pass

        def reversed_order():
            with b:
                with a:
                    pass

        # Sequential, so no deadlock occurs — but the hazard is recorded.
        run_thread(reversed_order)
        cycle = monitor.find_cycle()
        assert cycle is not None
        with pytest.raises(LockOrderError) as excinfo:
            monitor.assert_no_cycles()
        # The report carries acquisition evidence for diagnosis.
        assert "acquired" in str(excinfo.value)

    def test_three_lock_rotation_cycle(self, monitor):
        a, b, c = threading.Lock(), threading.Lock(), threading.Lock()
        for first, second in ((a, b), (b, c), (c, a)):
            def pair(first=first, second=second):
                with first:
                    with second:
                        pass

            run_thread(pair)
        assert monitor.find_cycle() is not None

    def test_disjoint_pairs_are_acyclic(self, monitor):
        a, b, c, d = (threading.Lock() for _ in range(4))
        with a:
            with b:
                pass
        with c:
            with d:
                pass
        monitor.assert_no_cycles()


class TestReentrancy:
    def test_rlock_reacquire_adds_no_edge(self, monitor):
        lock = threading.RLock()
        with lock:
            with lock:  # reentrant: must not create a self-edge
                pass
        assert monitor.find_cycle() is None
        assert all(src != dst for src, dst in monitor.edges())

    def test_rlock_nested_under_other_lock_is_tracked(self, monitor):
        outer, inner = threading.Lock(), threading.RLock()
        with outer:
            with inner:
                pass
        assert len(list(monitor.edges())) == 1


class TestConditionIntegration:
    def test_condition_wait_releases_held_state(self, monitor):
        cond = threading.Condition()
        other = threading.Lock()
        done = threading.Event()

        def waiter():
            with cond:
                cond.wait(timeout=5)
                done.set()

        thread = threading.Thread(target=waiter)
        thread.start()
        # Give the waiter time to block, then notify under the condition:
        # if wait() failed to release the tracked lock this would deadlock.
        with cond:
            cond.notify()
        thread.join(timeout=5)
        assert done.is_set()
        # Taking another lock afterwards must not see the condition's
        # lock as still held by the waiter thread.
        with other:
            pass
        monitor.assert_no_cycles()

    def test_condition_with_explicit_tracked_lock(self, monitor):
        lock = threading.RLock()
        cond = threading.Condition(lock)
        with cond:
            cond.notify_all()
        monitor.assert_no_cycles()


class TestInstallation:
    def test_uninstall_restores_factories(self):
        real_lock, real_rlock = threading.Lock, threading.RLock
        real_cond = threading.Condition
        mon = LockOrderMonitor(module_prefixes=_PREFIXES)
        mon.install()
        try:
            assert isinstance(threading.Lock(), TrackedLock)
        finally:
            mon.uninstall()
        assert threading.Lock is real_lock
        assert threading.RLock is real_rlock
        assert threading.Condition is real_cond

    def test_untracked_modules_get_native_locks(self, monitor):
        # Simulate an acquisition from a caller outside the tracked
        # prefixes: build the lock through a namespace whose __name__
        # does not match.
        namespace = {"threading": threading, "__name__": "not_tracked"}
        exec("lock = threading.Lock()", namespace)
        assert not isinstance(namespace["lock"], TrackedLock)

    def test_double_install_is_rejected(self):
        mon = LockOrderMonitor(module_prefixes=_PREFIXES)
        mon.install()
        try:
            with pytest.raises(RuntimeError):
                mon.install()
        finally:
            mon.uninstall()

    def test_tracked_lock_supports_locked_probe(self, monitor):
        lock = threading.Lock()
        assert not lock.locked()
        with lock:
            assert lock.locked()
        assert not lock.locked()

    def test_exec_suite_edges_stay_acyclic(self, monitor):
        """End-to-end: drive a WorkerPool's feeder threads under the monitor."""
        from repro.exec.futures import BatchFuture  # noqa: F401  (import side effects)
        from repro.core import Engine, RunSpec
        from repro.exec import WorkerPool
        from repro.protocols.equality import DeterministicEqualityProtocol
        import numpy as np

        spec = RunSpec(
            protocol=DeterministicEqualityProtocol(m=2),
            inputs=np.ones((3, 2), dtype=np.uint8),
            seed=7,
        )
        with WorkerPool(max_workers=2) as pool:
            batch = Engine(pool).run_batch(spec, 8)
        assert len(batch) == 8
        monitor.assert_no_cycles()
