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

_MARGIN_ROWS = 64  # phases per grid evaluation in e_set_margins
_MARGIN_GRID = 32  # sample points per side of the square in e_set_margins
_PAIR_ROWS = 256  # first boxes per block of pairs in disjointness_check


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
    if size < 1:
        raise ValueError(f"need at least one draw per box, got {size}")
    return rng.uniform(region.lower, region.upper, (size, len(region.lower)))


def box_to_alpha(region: BoxRegion, beta: np.ndarray) -> np.ndarray:
    """Map beta draws from the box to original coefficients at the box center."""
    u1, u2 = region.center
    return beta_to_alpha(region.n, region.m, u1, u2, np.atleast_2d(beta))


def e_set_margins(n: int, m: int, alphas: np.ndarray, k: int,
                  square: tuple[float, float, int]) -> np.ndarray:
    """Max of |grad F|^2 - 1/(2k) on a sample grid over the square below (u1, u2),
    for each phase F of degrees (n, m) given by a row of alphas (graded order).

    The square is [u1 - 1/P, u1] x [u2 - 1/P, u2] intersected with the unit
    square; a nonpositive margin certifies (to grid resolution) that the
    square lies in the small-gradient set.  Every grid value takes the same
    Horner steps as PolySpec.grad at that point, so a row's margin does not
    depend on the rest of the batch.
    """
    u1, u2, P = square
    x_lo, x_hi = max(u1 - 1.0 / P, 0.0), min(u1, 1.0)
    y_lo, y_hi = max(u2 - 1.0 / P, 0.0), min(u2, 1.0)
    if x_lo >= x_hi or y_lo >= y_hi:
        raise ValueError("square does not intersect the unit square")
    xs = np.linspace(x_lo, x_hi, _MARGIN_GRID)
    ys = np.linspace(y_lo, y_hi, _MARGIN_GRID)
    alphas = np.atleast_2d(np.asarray(alphas, dtype=float))
    C = np.zeros((n + 1, m + 1, alphas.shape[0]))
    for r, (i, j) in enumerate(monomial_indices(n, m)):
        C[i, j] = alphas[:, r]
    Cx = C[1:] * np.arange(1, n + 1)[:, None, None]
    Cy = C[:, 1:] * np.arange(1, m + 1)[None, :, None]
    out = np.empty(alphas.shape[0])
    # rows in blocks, so the (rows, grid, grid) values stay small
    for lo in range(0, out.size, _MARGIN_ROWS):
        sl = slice(lo, lo + _MARGIN_ROWS)
        fx = np.polynomial.polynomial.polygrid2d(xs, ys, Cx[..., sl])
        fy = np.polynomial.polynomial.polygrid2d(xs, ys, Cy[..., sl])
        out[sl] = np.max(fx * fx + fy * fy, axis=(1, 2))
    return out - 1.0 / (2.0 * k)


def e_set_margin(F: PolySpec, k: int, square: tuple[float, float, int]) -> float:
    """e_set_margins for the single phase F."""
    return float(e_set_margins(F.n, F.m, F.coeff_vector(), k, square)[0])


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


def _pairs_disjoint(n: int, m: int, k: int, P, nu, mu, i, j) -> np.ndarray:
    """boxes_disjoint for each pair (box i, box j) of the boxes (P, nu, mu).

    Evaluates boxes_disjoint's float expressions elementwise, so every
    entry equals the scalar result.
    """
    c = c_constant(n, m, k)
    e = n + m - 1
    scales = P.tolist()
    top_lo = np.array([0.5 * c * p ** e for p in scales])  # also t_min
    top_hi = np.array([c * p ** e for p in scales])
    widths = np.array([0.2 * c * p ** (e - 1) for p in scales])
    Pi = P[i]
    d_nu = np.abs(nu[i] - nu[j])
    d_mu = np.abs(mu[i] - mu[j])
    # the same box gives gap 0, never above the positive widths
    gap = np.where(d_nu != 0, d_nu / Pi * n, d_mu / Pi * m) * top_lo[i]
    return np.where(Pi == P[j], gap > widths[i],
                    (top_hi[i] <= top_lo[j]) | (top_hi[j] <= top_lo[i]))


def disjointness_check(n: int, m: int, k: int, scales) -> DisjointnessReport:
    """Check pairwise disjointness of all boxes across the given dyadic scales."""
    scales = sorted(int(P) for P in scales)
    if not scales or scales[0] < 1:
        raise ValueError(f"need one or more scales, each at least 1; got {scales}")
    for a, b in zip(scales, scales[1:]):
        if b < 2 * a:
            raise ValueError("scales must be dyadic: each at least double the last")
    centers = [(P, nu, mu) for P in scales
               for nu in range(1, P + 1) for mu in range(1, P + 1)]
    P, nu, mu = np.array(centers).T
    violations = []
    for lo in range(0, len(centers), _PAIR_ROWS):
        # pairs (a, b) with lo <= a < b, in the order of a double loop over a < b
        i, j = np.triu_indices(min(_PAIR_ROWS, len(centers) - lo), lo + 1, len(centers))
        i += lo
        bad = ~_pairs_disjoint(n, m, k, P, nu, mu, i, j)
        violations += [(box_bounds(n, m, k, *centers[a]), box_bounds(n, m, k, *centers[b]))
                       for a, b in zip(i[bad], j[bad])]
    n_pairs = len(centers) * (len(centers) - 1) // 2
    return DisjointnessReport(n, m, k, scales, n_pairs, violations)


def divergence_partial_sum(n: int, m: int, k: int, L: int) -> float:
    """Partial sum of the dyadic series over l = 1..L (empty sum for L = 0)."""
    if L < 0:
        raise ValueError("L must be >= 0")
    return float(sum(shell_series_term(n, m, k, l) for l in range(1, L + 1)))
