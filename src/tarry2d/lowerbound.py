"""Dyadic box construction driving the divergence lower bound.

Boxes live in recentered coefficients (beta) at grid centers (nu/P, mu/P):
every index except the top one is confined to a small symmetric interval,
while the top coefficient sits in [c P^(n+m-1)/2, c P^(n+m-1)].  Any phase
drawn from a box has gradient norm at most 1/sqrt(2k) on the grid square
below its center, and boxes at distinct centers or distinct dyadic scales are
pairwise disjoint in original coefficients.  Both facts have closed forms:
disjointness_check certifies the disjointness of every pair of boxes, and
gradient_margin is the exact margin of the gradient bound, one number for
every box, which box_sweep reports with each box's volume.  e_set_margin
and boxes_disjoint are their references for one phase and one pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .poly import PolySpec, beta_to_alpha, monomial_count, monomial_indices
from .rng import uniform32

_MARGIN_GRID = 32  # grid points per side of the square in e_set_margin
_MAX_SCALE = 256  # largest scale: P^2 sweep rows a scale, 87380 rows (12 MB of JSON) at 2..256


def c_constant(n: int, m: int, k: int) -> float:
    """Gradient budget constant 1 / (max(n m, 2) sqrt(2k (n^2 + m^2))); n m alone
    would put the (1,1) boxes' gradient_margin at +0.105/k, above 0."""
    if n < 1 or m < 1 or k < 1:
        raise ValueError("n, m, k must be >= 1")
    return 1.0 / (max(n * m, 2) * math.sqrt(2.0 * k * (n * n + m * m)))


def gradient_margin(n: int, m: int, k: int) -> float:
    """Largest |grad F|^2 - 1/(2k) over the phases F of a box and the points of
    the square below its center, the same for every box:
    c^2 [(sum_{i>=1} i w_ij)^2 + (sum_{j>=1} j w_ij)^2] - 1/(2k), with w = 1 on
    the top index and 0.1 elsewhere.

    At a point (u1 + s, u2 + t) of the square, s and t in [-1/P, 0] (the square
    lies in the unit square, as nu, mu >= 1), grad F is linear in beta, so
    |grad F|^2 is convex in beta and its maximum over the box is at a vertex,
    |beta_ij| = w_ij c P^(i+j-1).  There each term i beta_ij s^(i-1) t^j of dF/dx
    is at most i w_ij c in size, and each term j beta_ij s^i t^(j-1) of dF/dy at
    most j w_ij c: P scales out.  At the corner s = t = -1/P both terms of (i, j)
    carry the sign of beta_ij (-1)^(i+j-1), so the vertex with signs
    (-1)^(i+j-n-m), the top one positive, lines up every term of both partials
    and attains both sums at once.
    """
    c = c_constant(n, m, k)
    w = {ij: 1.0 if ij == (n, m) else 0.1 for ij in monomial_indices(n, m)}
    gx, gy = (sum(ij[axis] * v for ij, v in w.items()) for axis in (0, 1))
    return c * c * (gx * gx + gy * gy) - 1.0 / (2.0 * k)


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
    if not (1 <= nu <= P and 1 <= mu <= P):
        raise ValueError(f"center indices must lie in 1..{P}, got ({nu}, {mu})")
    c = c_constant(n, m, k)
    idx = monomial_indices(n, m)
    try:
        upper = np.array([0.1 * c * P ** (i + j - 1) for i, j in idx])
    except OverflowError:  # P^(i+j-1) beyond the largest float
        raise ValueError(f"box bounds of degrees ({n}, {m}) at scale {P} overflow a float") from None
    lower = -upper
    top = idx.index((n, m))
    lower[top], upper[top] = 0.5 * c * P ** (n + m - 1), c * P ** (n + m - 1)
    return BoxRegion(n, m, k, P, nu, mu, lower, upper)


def box_volume(region: BoxRegion) -> float:
    """Exact product of the interval lengths; ValueError unless it is in (0, inf)."""
    with np.errstate(over="ignore"):  # an overflow is the ValueError below
        volume = float(np.prod(region.upper - region.lower))
    if not 0.0 < volume < math.inf:
        raise ValueError(f"box volume at scale {region.P} is {volume}, outside (0, inf)")
    return volume


def box_volume_exponent(n: int, m: int) -> int:
    """Power of P in the box volume: (n+m)(n+1)(m+1)/2 - N."""
    return (n + m) * (n + 1) * (m + 1) // 2 - monomial_count(n, m)


def sample_box(region: BoxRegion, bitgen, size: int) -> np.ndarray:
    """Uniform beta draws from the box on a philox_stream bit generator, shape
    (size, N), ascending index order: lower + (upper - lower) u, u from
    rng.uniform32."""
    if size < 1:
        raise ValueError(f"need at least one draw per box, got {size}")
    return region.lower + (region.upper - region.lower) * uniform32(bitgen, size, len(region.lower))


def box_to_alpha(region: BoxRegion, beta: np.ndarray) -> np.ndarray:
    """Map beta draws from the box, one row each, to original coefficients at
    the box center."""
    return beta_to_alpha(region.n, region.m, *region.center, beta)


def e_set_margin(F: PolySpec, k: int, square: tuple[float, float, int]) -> float:
    """Max of |grad F|^2 - 1/(2k) on a grid over the square (u1, u2, P), [u1 - 1/P, u1] x
    [u2 - 1/P, u2] cut to the unit square: at most 0 if it is in the small-gradient set."""
    u1, u2, P = square
    sides = [(max(u - 1.0 / P, 0.0), min(u, 1.0)) for u in (u1, u2)]
    if any(lo >= hi for lo, hi in sides):
        raise ValueError("square does not intersect the unit square")
    X, Y = np.meshgrid(*(np.linspace(lo, hi, _MARGIN_GRID) for lo, hi in sides), indexing="ij")
    fx, fy = F.grad(X, Y)
    return float(np.max(fx * fx + fy * fy) - 1.0 / (2.0 * k))


def box_sweep(n: int, m: int, k: int, scales) -> list[dict]:
    """Volume and gradient_margin of every box at the given dyadic scales, in
    _centers' order; a box's bounds depend on P alone."""
    scales, centers = _centers(scales)
    volume = {P: box_volume(box_bounds(n, m, k, P, 1, 1)) for P in scales}
    margin = gradient_margin(n, m, k)
    return [{"P": P, "nu": nu, "mu": mu, "volume": volume[P], "margin_max": margin}
            for P, nu, mu in centers]


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
    widths = 0.2 * c * P ** (n + m - 2)
    if r1.nu != r2.nu:
        return abs(r1.nu - r2.nu) / P * n * t_min > widths
    return abs(r1.mu - r2.mu) / P * m * t_min > widths


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


def _centers(scales) -> tuple[list[int], list[tuple[int, int, int]]]:
    """The scales in increasing order, each at least 1 and double the last, and
    every box (P, nu, mu) at them, scale by scale, then by nu, then by mu."""
    scales = sorted(int(P) for P in scales)
    if not scales or scales[0] < 1 or scales[-1] > _MAX_SCALE:
        raise ValueError(f"need one or more scales, each in 1..{_MAX_SCALE}; got {scales}")
    for a, b in zip(scales, scales[1:]):
        if b < 2 * a:
            raise ValueError("scales must be dyadic: each at least double the last")
    return scales, [(P, nu, mu) for P in scales for nu in range(1, P + 1) for mu in range(1, P + 1)]


def disjointness_check(n: int, m: int, k: int, scales) -> DisjointnessReport:
    """Pairwise disjointness of all boxes across the given dyadic scales, in
    closed form: every pair passes boxes_disjoint, so there are no violations.

    In the terms of boxes_disjoint's float expressions, with e = n + m - 1:
    two boxes at one scale P and distinct centres have the gap |d| n t_min / P,
    d the difference in nu, or |d| m t_min / P when only mu differs, with
    t_min = c P^e / 2.  Against the widths 0.2 c P^(e-1) that is a ratio of
    2.5 |d| n (or m) >= 2.5, far beyond the few ulps of rounding on each side.
    Two scales P' >= 2P (_centers enforces this) have the top intervals
    [c P^e / 2, c P^e] and [c P'^e / 2, c P'^e], which can only touch, and only
    at e = 1 with P' = 2P.  Rounding is monotone and halving is exact, so
    c*P**e <= 0.5*c*P'**e holds in doubles too; at the touch c*P and
    0.5*c*(2P) are the same double, and the intervals are half-open.
    """
    scales, centers = _centers(scales)
    c_constant(n, m, k)  # rejects n, m or k below 1
    n_pairs = len(centers) * (len(centers) - 1) // 2
    return DisjointnessReport(n, m, k, scales, n_pairs, [])

