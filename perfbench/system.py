"""Processes the benchmark starts or measures: import probe, CLI workers, RSS."""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

__all__ = [
    "REFERENCE_KERNEL_S",
    "WorkerFleet",
    "import_seconds",
    "kernel_seconds",
    "peak_rss_mb",
    "program_env",
]

ROOT = Path(__file__).resolve().parent.parent

#: Seconds to wait for a CLI worker's readiness line, and for any process
#: the benchmark started to exit once asked to.
PROCESS_TIMEOUT = 30.0

_IMPORT_PROBE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import repro\n"
    "print(time.perf_counter() - start)\n"
)


#: Seconds the calibration kernel takes on the reference machine.  It only
#: fixes the scale of speed-scaled times: 5 ms is about the kernel's
#: median on the 2-vCPU x86-64 VM the bounds were tuned on, so scaled
#: times there read close to raw ones.
REFERENCE_KERNEL_S = 0.005

_KERNEL_ROWS = (np.arange(64 * 64).reshape(64, 64) * 2654435761 % 7 % 2).astype(np.uint8)


def kernel_seconds() -> float:
    """Wall seconds of a fixed mix of small-array numpy and interpreter work.

    Shared machines change speed by tens of percent from minute to
    minute.  Timing this kernel next to every call, and scaling the call
    by ``REFERENCE_KERNEL_S / kernel_seconds()``, cancels most of that
    drift; the kernel runs no program code, so a change to the program
    moves scaled times exactly as much as raw ones.
    """
    rows = _KERNEL_ROWS
    start = time.perf_counter()
    total = 0
    for i in range(600):
        total += int((rows[i % 64] ^ rows[(7 * i) % 64]).sum())
        total += len([j for j in range(40) if j & 1])
    return time.perf_counter() - start


def program_env() -> dict[str, str]:
    """The environment a program subprocess needs to import ``repro``."""
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def import_seconds() -> float:
    """Seconds a fresh interpreter spends importing the ``repro`` package.

    Measured in a new process every time, so repeated set-ups each pay —
    and report — the import cost a user's first call pays.
    """
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        env=program_env(),
        capture_output=True,
        text=True,
        timeout=PROCESS_TIMEOUT,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


class WorkerFleet:
    """``python -m repro.exec.worker`` subprocesses on OS-assigned ports."""

    def __init__(self, count: int) -> None:
        self.processes: list[subprocess.Popen] = []
        self.endpoints: list[str] = []
        try:
            for _ in range(count):
                self.processes.append(
                    subprocess.Popen(
                        [sys.executable, "-m", "repro.exec.worker", "--port", "0"],
                        env=program_env(),
                        stdout=subprocess.PIPE,
                        stderr=subprocess.DEVNULL,
                        text=True,
                    )
                )
            for proc in self.processes:
                # The worker's one stdout line is its readiness signal:
                # "repro.exec worker listening on HOST:PORT".
                banner = proc.stdout.readline().strip()
                if "listening on" not in banner:
                    raise RuntimeError(f"worker failed to start: {banner!r}")
                self.endpoints.append(banner.rpartition(" ")[2])
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        """Stop every worker and wait until each has exited."""
        for proc in self.processes:
            if proc.poll() is None:
                proc.terminate()
        for proc in self.processes:
            try:
                proc.wait(timeout=PROCESS_TIMEOUT)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            if proc.stdout is not None:
                proc.stdout.close()
        self.processes = []


def _peak_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass  # the process exited between listing and reading
    return 0


def _descendants(root: int) -> list[int]:
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as stat:
                fields = stat.read().rpartition(")")[2].split()
        except OSError:
            continue
        children.setdefault(int(fields[1]), []).append(int(entry))
    found, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        for child in children.get(pid, ()):
            found.append(child)
            frontier.append(child)
    return found


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its live descendants, MB.

    The sum of each process's own peak (``VmHWM``): an upper bound on the
    simultaneous peak, and what a machine must provision for the run.
    """
    pids = [os.getpid(), *_descendants(os.getpid())]
    return sum(_peak_kb(pid) for pid in pids) / 1024.0
