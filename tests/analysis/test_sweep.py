"""Tests for the sweep result type."""

import pytest

from repro.analysis import SweepPoint, SweepResult


def sweep(grid, measure):
    """The result a sweep over ``grid`` returns: one point per grid entry."""
    return SweepResult(
        points=[SweepPoint(params=dict(p), values=measure(**p)) for p in grid]
    )


def grid(ns):
    return [{"n": n} for n in ns]


class TestRunSweep:
    """What a sweep run returns: its points, series, fits and markdown."""

    def test_collects_points(self):
        result = sweep(grid([1, 2, 3]), lambda n: {"square": float(n * n)})
        assert len(result.points) == 3
        assert result.column("n") == [1, 2, 3]
        assert result.column("square") == [1.0, 4.0, 9.0]

    def test_series_sorted_by_x(self):
        result = sweep(grid([3, 1, 2]), lambda n: {"y": float(n)})
        xs, ys = result.series("n", "y")
        assert xs == [1.0, 2.0, 3.0]
        assert ys == [1.0, 2.0, 3.0]

    def test_fit_through_sweep(self):
        result = sweep(grid([1, 2, 4, 8]), lambda n: {"y": 2.0 * n**3})
        fit = result.fit_power_law("n", "y")
        assert fit.exponent == pytest.approx(3.0)

    def test_exponential_fit_through_sweep(self):
        result = sweep(grid([1, 2, 3, 4]), lambda n: {"y": 2.0 ** (-n)})
        fit = result.fit_exponential_decay("n", "y")
        assert fit.rate == pytest.approx(-1.0)

    def test_markdown_rendering(self):
        result = sweep(grid([1, 2]), lambda n: {"y": n / 3})
        md = result.to_markdown(["n", "y"])
        assert md.startswith("| n | y |")
        assert "0.3333" in md

    def test_multi_parameter_grid(self):
        points = [{"n": n, "k": k} for n in (2, 4) for k in (1, 2)]
        result = sweep(points, lambda n, k: {"ratio": n / k})
        assert len(result.points) == 4
        assert result.points[0]["ratio"] == 2.0

    def test_point_getitem_priority(self):
        point = SweepPoint(params={"n": 5}, values={"v": 1.0})
        assert point["n"] == 5
        assert point["v"] == 1.0
        with pytest.raises(KeyError):
            point["missing"]
