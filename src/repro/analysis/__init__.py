"""Experiment analysis: scaling-law fits and parameter-sweep results.

These are the tools DESIGN.md §4 commits to — checking asymptotic
statements as finite-size scaling laws (fitted exponents/rates and
dominance constants) rather than absolute numbers.
"""

from .scaling import (
    ExponentialFit,
    PowerLawFit,
    dominance_constant,
    fit_exponential_decay,
    fit_power_law,
    is_dominated,
)
from .sweep import SweepPoint, SweepResult

__all__ = [
    "ExponentialFit",
    "PowerLawFit",
    "dominance_constant",
    "fit_exponential_decay",
    "fit_power_law",
    "is_dominated",
    "SweepPoint",
    "SweepResult",
]
