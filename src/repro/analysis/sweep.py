"""Parameter-sweep results for experiments.

A :class:`SweepResult` holds the measured :class:`SweepPoint` of every
grid point and can select series, fit scaling laws, and render markdown
— the shape every bench in ``benchmarks/`` follows.
:class:`~repro.exec.sweep.SweepDriver` runs the sweep itself (journaled,
resumable, adaptive, over asynchronous batches) and returns one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from .scaling import ExponentialFit, PowerLawFit, fit_exponential_decay, fit_power_law

__all__ = ["SweepPoint", "SweepResult"]


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
