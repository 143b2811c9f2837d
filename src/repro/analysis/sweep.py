"""Parameter-sweep runner for experiments.

A tiny, dependency-free experiment harness: declare a grid of parameter
points, a measurement function, and get back a :class:`SweepResult` that
can select series, fit scaling laws, and render markdown — the shape every
bench in ``benchmarks/`` follows, factored into the library so downstream
users can add their own experiments in the same style.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

from ..core.engine import Executor, resolve_executor
from .scaling import ExponentialFit, PowerLawFit, fit_exponential_decay, fit_power_law

__all__ = ["SweepPoint", "SweepResult", "run_sweep"]


@dataclass(frozen=True)
class SweepPoint:
    """One grid point: the parameters and the measured values."""

    params: Mapping[str, Any]
    values: Mapping[str, float]

    def __getitem__(self, key: str) -> Any:
        if key in self.params:
            return self.params[key]
        return self.values[key]


@dataclass
class SweepResult:
    """All measured points of a sweep, with analysis conveniences."""

    points: list[SweepPoint] = field(default_factory=list)

    def series(self, x_key: str, y_key: str) -> tuple[list[float], list[float]]:
        """Extract ``(xs, ys)`` sorted by x."""
        pairs = sorted(
            (float(p[x_key]), float(p[y_key])) for p in self.points
        )
        return [x for x, _ in pairs], [y for _, y in pairs]

    def fit_power_law(self, x_key: str, y_key: str) -> PowerLawFit:
        xs, ys = self.series(x_key, y_key)
        return fit_power_law(xs, ys)

    def fit_exponential_decay(self, x_key: str, y_key: str) -> ExponentialFit:
        xs, ys = self.series(x_key, y_key)
        return fit_exponential_decay(xs, ys)

    def to_markdown(self, columns: Sequence[str]) -> str:
        """Render the sweep as a GitHub-flavoured markdown table."""
        lines = [
            "| " + " | ".join(columns) + " |",
            "|" + "|".join("---" for _ in columns) + "|",
        ]
        for point in self.points:
            cells = []
            for col in columns:
                value = point[col]
                cells.append(
                    f"{value:.4g}" if isinstance(value, float) else str(value)
                )
            lines.append("| " + " | ".join(cells) + " |")
        return "\n".join(lines)

    def column(self, key: str) -> list[Any]:
        return [p[key] for p in self.points]


class _MeasureCall:
    """Picklable ``params → measure(**params)`` wrapper for executors.

    Validates the return type here, inside the mapped call, so a bad
    ``measure`` fails on its first grid point instead of after the whole
    (possibly expensive, possibly pooled) sweep has run.
    """

    def __init__(self, measure: Callable[..., Mapping[str, float]]):
        self.measure = measure

    def __call__(self, params: Mapping[str, Any]) -> Mapping[str, float]:
        values = self.measure(**params)
        if not isinstance(values, Mapping):
            raise TypeError(
                "measure must return a mapping of named values, got "
                f"{type(values).__name__}"
            )
        return values


def run_sweep(
    grid: Iterable[Mapping[str, Any]],
    measure: Callable[..., Mapping[str, float]],
    executor: Executor | str | None = None,
    checkpoint: "str | Path | None" = None,
) -> SweepResult:
    """Run ``measure(**params)`` for every grid point.

    ``measure`` returns a mapping of measured values; parameters and
    values are kept side by side in the result.  ``executor`` selects the
    engine backend grid points run on: the default runs them serially in
    order, and a :class:`~repro.exec.pool.WorkerPool` held in a ``with``
    block spreads independent points over its warm process pool,
    amortizing start-up across repeated sweeps (``measure`` must be
    picklable — module-level functions and :func:`functools.partial`
    are, closures are not and fall back to serial with a warning).

    ``checkpoint`` names a JSONL journal (shared format with
    :class:`~repro.exec.sweep.SweepDriver`): completed points are
    appended as they are measured, and points already present are loaded
    instead of re-measured — an interrupted sweep rerun with the same
    journal recomputes nothing it already finished.  Measured values must
    then be JSON-serializable (floats are), and points run in-process one
    at a time (an explicit ``executor`` is ignored, with a
    ``RuntimeWarning``): durable per-point progress is the journaled
    path's contract.  For cross-point parallelism *with*
    journaling — plus adaptive trial counts and overlapped asynchronous
    batches — use :class:`~repro.exec.sweep.SweepDriver` directly.
    """
    grid = list(grid)
    result = SweepResult()
    if checkpoint is None:
        all_values = resolve_executor(executor).map(_MeasureCall(measure), grid)
        for params, values in zip(grid, all_values):
            result.points.append(
                SweepPoint(params=dict(params), values=dict(values))
            )
        return result

    # Journaled path: measure only the points missing from the journal,
    # appending each as it completes so an interruption loses at most the
    # point in flight.  Points run in-process one at a time — durable
    # progress is the contract here (a per-point executor.map would build
    # a one-task pool per point for nothing); SweepDriver provides
    # journaling *and* cross-point parallelism.
    from ..exec.sweep import append_journal, load_journal, params_key

    if executor is not None:
        warnings.warn(
            "run_sweep(checkpoint=...) measures points in-process for "
            "durable per-point progress; the executor is not used. "
            "Use repro.exec.SweepDriver for journaled parallel sweeps.",
            RuntimeWarning,
            stacklevel=2,
        )
    journal = load_journal(checkpoint)
    call = _MeasureCall(measure)
    for params in grid:
        values = journal.get(params_key(params))
        if values is None:
            values = call(params)
            append_journal(checkpoint, params, values)
        result.points.append(SweepPoint(params=dict(params), values=dict(values)))
    return result
