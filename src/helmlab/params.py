"""Problem parameters and admissibility checks.

The solver operates in the rescaled frame where the wavenumber k enters
only through eps = 1/k; the admissibility window below is the regime in
which the concentration statements are proved, and runs outside it are
allowed but flagged.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
import math

OUTSIDE_HYPOTHESES_MARKER = "outside paper hypotheses"


@dataclass(frozen=True)
class HypothesisCheck:
    """One hypothesis of the paper: its name, whether it holds, the value tested and the range it must lie in."""

    name: str
    passed: bool
    value: float
    admissible: str


@dataclass(frozen=True)
class Exponents:
    """Dimension, fractional order, nonlinearity exponent and wavenumber.

    Requires p > 2 so that the dual exponent p' = p/(p-1) lies in (1, 2);
    the Nehari scaling exponent 1/(2 - p') would be undefined otherwise.
    """

    dim: int
    s: float
    p: float
    k: float

    def __post_init__(self):
        if int(self.dim) != self.dim or self.dim < 1:
            raise ValueError("dim must be a positive integer")
        if not self.s > 0:
            raise ValueError("s must be positive")
        if not self.p > 2:
            raise ValueError("p must exceed 2")
        if not self.k > 0:
            raise ValueError("k must be positive")

    @property
    def p_dual(self) -> float:
        return self.p / (self.p - 1.0)

    @property
    def lambda_p(self) -> float:
        """Decay rate (dim-1)/2 - (dim+1)/p of disjoint-support interactions."""
        return (self.dim - 1) / 2.0 - (self.dim + 1) / self.p

    @property
    def eps(self) -> float:
        """Length scale 1/k of the rescaling x = eps y; see `scale_factor` for the equation it fits."""
        return 1.0 / self.k

    @property
    def scale_factor(self) -> float:
        """Amplitude A = k^(2s/(p-2)) of the rescaling u(x) = A w(k x).

        u solves (-Delta)^s u - k^(2s) u = Q(x) |u|^(p-2) u exactly when w solves
        (-Delta)^s w - w = Q(eps y) |w|^(p-2) w. The paper writes k^2 u, so `k` is
        the paper's wavenumber to the power 1/s; the two agree at s = 1 only.
        """
        return self.k ** (2.0 * self.s / (self.p - 2.0))

    def with_k(self, k: float) -> "Exponents":
        return replace(self, k=float(k))

    def p_window(self) -> tuple[float, float]:
        """Admissible open interval for p at this (dim, s)."""
        lo = 2.0 * (self.dim + 1) / (self.dim - 1) if self.dim > 1 else math.inf
        hi = 2.0 * self.dim / (self.dim - 2.0 * self.s) if self.dim > 2.0 * self.s else math.inf
        return lo, hi

    def hypothesis_report(self) -> list[HypothesisCheck]:
        """Per-hypothesis pass/fail with the admissible window for each."""
        s_lo = self.dim / (self.dim + 1)
        s_hi = self.dim / 2.0
        p_lo, p_hi = self.p_window()
        return [
            HypothesisCheck(
                name="dimension",
                passed=self.dim >= 3,
                value=float(self.dim),
                admissible="dim >= 3",
            ),
            HypothesisCheck(
                name="fractional order",
                passed=s_lo < self.s < s_hi,
                value=self.s,
                admissible=f"s in ({s_lo:.6g}, {s_hi:.6g})",
            ),
            HypothesisCheck(
                name="nonlinearity exponent",
                passed=p_lo < self.p < p_hi,
                value=self.p,
                admissible=f"p in ({p_lo:.6g}, {p_hi:.6g})",
            ),
        ]

    @property
    def within_hypotheses(self) -> bool:
        return all(check.passed for check in self.hypothesis_report())
