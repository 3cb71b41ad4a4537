"""Dyadic box construction driving the divergence lower bound.

Boxes live in recentered coefficients (beta) at grid centers (nu/P, mu/P):
every index except the top one is confined to a small symmetric interval,
while the top coefficient sits in [c P^(n+m-1)/2, c P^(n+m-1)].  Any phase
drawn from a box has gradient norm at most 1/sqrt(2k) on the grid square
below its center, boxes at distinct centers or distinct dyadic scales are
pairwise disjoint in original coefficients, and the box volumes produce the
dyadic series whose exponent sign decides divergence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .poly import (
    PolySpec,
    beta_to_alpha,
    monomial_count,
    monomial_indices,
)
from .theta import shell_series_term


def c_constant(n: int, m: int, k: int) -> float:
    """Gradient budget constant 1 / (n m sqrt(2k (n^2 + m^2)))."""
    if n < 1 or m < 1 or k < 1:
        raise ValueError("n, m, k must be >= 1")
    return 1.0 / (n * m * math.sqrt(2.0 * k * (n * n + m * m)))


@dataclass(frozen=True)
class BoxRegion:
    """Per-index coefficient intervals in beta coordinates at center (nu/P, mu/P)."""

    n: int
    m: int
    k: int
    P: int
    nu: int
    mu: int
    lower: np.ndarray
    upper: np.ndarray

    @property
    def center(self) -> tuple[float, float]:
        return (self.nu / self.P, self.mu / self.P)

    @property
    def indices(self) -> list[tuple[int, int]]:
        return monomial_indices(self.n, self.m)

    def top_interval(self) -> tuple[float, float]:
        r = self.indices.index((self.n, self.m))
        return (float(self.lower[r]), float(self.upper[r]))


def box_bounds(n: int, m: int, k: int, P: int, nu: int, mu: int) -> BoxRegion:
    """Interval bounds of the box at dyadic scale P and center (nu/P, mu/P)."""
    if P < 1:
        raise ValueError("P must be >= 1")
    if not (1 <= nu <= P and 1 <= mu <= P):
        raise ValueError(f"center indices must lie in 1..{P}, got ({nu}, {mu})")
    c = c_constant(n, m, k)
    idx = monomial_indices(n, m)
    lower = np.empty(len(idx))
    upper = np.empty(len(idx))
    for r, (i, j) in enumerate(idx):
        if (i, j) == (n, m):
            lower[r] = 0.5 * c * P ** (n + m - 1)
            upper[r] = c * P ** (n + m - 1)
        else:
            half = 0.1 * c * P ** (i + j - 1)
            lower[r] = -half
            upper[r] = half
    return BoxRegion(n, m, k, P, nu, mu, lower, upper)


def box_volume(region: BoxRegion) -> float:
    """Exact product of the interval lengths."""
    return float(np.prod(region.upper - region.lower))


def box_volume_exponent(n: int, m: int) -> int:
    """Power of P in the box volume: (n+m)(n+1)(m+1)/2 - N."""
    return (n + m) * (n + 1) * (m + 1) // 2 - monomial_count(n, m)


def sample_box(region: BoxRegion, rng: np.random.Generator, size: int) -> np.ndarray:
    """Uniform beta draws from the box, shape (size, N), ascending index order."""
    return rng.uniform(region.lower, region.upper, (size, len(region.lower)))


def box_to_alpha(region: BoxRegion, beta: np.ndarray) -> np.ndarray:
    """Map beta draws from the box to original coefficients at the box center."""
    u1, u2 = region.center
    beta = np.atleast_2d(beta)
    return np.stack([beta_to_alpha(region.n, region.m, u1, u2, b) for b in beta])


def e_set_margin(F: PolySpec, k: int, square: tuple[float, float, int],
                 grid: int = 32) -> float:
    """Max of |grad F|^2 - 1/(2k) on a sample grid over the square below (u1, u2).

    The square is [u1 - 1/P, u1] x [u2 - 1/P, u2] intersected with the unit
    square; a nonpositive margin certifies (to grid resolution) that the
    square lies in the small-gradient set.
    """
    u1, u2, P = square
    x_lo, x_hi = max(u1 - 1.0 / P, 0.0), min(u1, 1.0)
    y_lo, y_hi = max(u2 - 1.0 / P, 0.0), min(u2, 1.0)
    if x_lo >= x_hi or y_lo >= y_hi:
        raise ValueError("square does not intersect the unit square")
    xs = np.linspace(x_lo, x_hi, grid)
    ys = np.linspace(y_lo, y_hi, grid)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    fx, fy = F.grad(X, Y)
    return float(np.max(fx * fx + fy * fy) - 1.0 / (2.0 * k))


def boxes_disjoint(r1: BoxRegion, r2: BoxRegion) -> bool:
    """Certify that two boxes are disjoint in original coefficients.

    Same scale, centers differing in nu: along the (n-1, m) coefficient, the
    shared top coefficient t forces a gap |d_nu|/P * n * t exceeding the sum
    of the residual interval widths.  Centers differing only in mu: the
    symmetric argument on (n, m-1).  Different scales: the top-coefficient
    intervals are separated (touching endpoints count as disjoint, half-open).
    """
    if (r1.n, r1.m, r1.k) != (r2.n, r2.m, r2.k):
        raise ValueError("boxes must share (n, m, k)")
    n, m = r1.n, r1.m
    c = c_constant(n, m, r1.k)
    if r1.P != r2.P:
        lo1, hi1 = r1.top_interval()
        lo2, hi2 = r2.top_interval()
        return hi1 <= lo2 or hi2 <= lo1
    P = r1.P
    if (r1.nu, r1.mu) == (r2.nu, r2.mu):
        return False
    t_min = 0.5 * c * P ** (n + m - 1)
    if r1.nu != r2.nu:
        gap = abs(r1.nu - r2.nu) / P * n * t_min
        widths = 0.2 * c * P ** (n + m - 2)
        return gap > widths
    gap = abs(r1.mu - r2.mu) / P * m * t_min
    widths = 0.2 * c * P ** (n + m - 2)
    return gap > widths


@dataclass
class DisjointnessReport:
    n: int
    m: int
    k: int
    scales: list
    n_pairs: int
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "n": self.n, "m": self.m, "k": self.k,
            "scales": list(self.scales),
            "n_pairs": self.n_pairs,
            "violations": [
                {"first": {"P": a.P, "nu": a.nu, "mu": a.mu},
                 "second": {"P": b.P, "nu": b.nu, "mu": b.mu}}
                for a, b in self.violations
            ],
        }


def disjointness_check(n: int, m: int, k: int, scales) -> DisjointnessReport:
    """Check pairwise disjointness of all boxes across the given dyadic scales."""
    scales = sorted(int(P) for P in scales)
    for a, b in zip(scales, scales[1:]):
        if b < 2 * a:
            raise ValueError("scales must be dyadic: each at least double the last")
    boxes = [
        box_bounds(n, m, k, P, nu, mu)
        for P in scales
        for nu in range(1, P + 1)
        for mu in range(1, P + 1)
    ]
    violations = []
    n_pairs = 0
    for i in range(len(boxes)):
        for j in range(i + 1, len(boxes)):
            n_pairs += 1
            if not boxes_disjoint(boxes[i], boxes[j]):
                violations.append((boxes[i], boxes[j]))
    return DisjointnessReport(n, m, k, scales, n_pairs, violations)


def divergence_partial_sum(n: int, m: int, k: int, L: int) -> float:
    """Partial sum of the dyadic series over l = 1..L (empty sum for L = 0)."""
    if L < 0:
        raise ValueError("L must be >= 0")
    return float(sum(shell_series_term(n, m, k, l) for l in range(1, L + 1)))
