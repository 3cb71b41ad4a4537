"""The solution variety of the doubled power-sum system.

A point configuration is 2k planar points; the first k carry sign +1, the
rest -1.  The residual map sends a configuration to the N signed power sums
sum_s eps_s x_s^i y_s^j, one per monomial index.  This module provides the
residual, its Jacobi matrix, the Gram determinant of the gradient rows, the
translation map that preserves solutions, Monte Carlo estimators for the
thin-shell (coarea) surface measure, the ellipsoid-volume identity behind
the inverse square-root Gram factor, and the explicit 4x4 Jacobian of the
degree-(2,1) change of variables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .parallel import map_blocks
from .poly import monomial_count, monomial_indices
from .rng import philox_stream

GRAM_REL_FLOOR = 1e-12  # below this times the Hadamard scale, report 0


class HypothesisError(ValueError):
    """A structural hypothesis (2k >= N) is violated."""


@dataclass(frozen=True)
class PointConfig:
    """2k planar points; signs +1 for s < k, -1 for s >= k (0-based)."""

    k: int
    points: np.ndarray

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        pts = np.asarray(self.points, dtype=float)
        if pts.shape != (2 * self.k, 2):
            raise ValueError(f"expected {2 * self.k} points of 2 coords, got {pts.shape}")
        object.__setattr__(self, "points", pts)

    @property
    def signs(self) -> np.ndarray:
        return np.concatenate([np.ones(self.k), -np.ones(self.k)])

    def to_json_dict(self) -> dict:
        return {"k": self.k, "points": [[float(x), float(y)] for x, y in self.points]}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "PointConfig":
        try:
            return cls(int(obj["k"]), np.array(obj["points"], dtype=float))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed configuration object: {exc}") from exc


def residual(config: PointConfig, n: int, m: int) -> np.ndarray:
    """Signed power sums, one component per graded monomial index."""
    x, y = config.points[:, 0], config.points[:, 1]
    eps = config.signs
    return np.array(
        [np.sum(eps * x**i * y**j) for (i, j) in monomial_indices(n, m)]
    )


def translate_solution(config: PointConfig, a: float, b: float) -> PointConfig:
    """Shift every point by (a, b); solutions of the system stay solutions."""
    return PointConfig(config.k, config.points + np.array([a, b]))


def jacobi_A0(config: PointConfig, n: int, m: int) -> np.ndarray:
    """N x 4k Jacobi matrix of the residual; columns alternate d/dx_s, d/dy_s."""
    x, y = config.points[:, 0], config.points[:, 1]
    eps = config.signs
    idx = monomial_indices(n, m)
    A = np.zeros((len(idx), 4 * config.k))
    for r, (i, j) in enumerate(idx):
        dx = eps * i * (x ** (i - 1) if i >= 1 else 0.0) * y**j
        dy = eps * j * x**i * (y ** (j - 1) if j >= 1 else 0.0)
        A[r, 0::2] = dx
        A[r, 1::2] = dy
    return A


def _gram_det_psd(M: np.ndarray) -> float:
    """Determinant of a (numerically) PSD Gram matrix; round-off negatives clamp to 0."""
    g = float(np.linalg.det(M))
    return max(g, 0.0)


def gram_G0(config: PointConfig, n: int, m: int) -> float:
    """Gram determinant det(A0 A0^T) of the residual gradients."""
    A = jacobi_A0(config, n, m)
    return _gram_det_psd(A @ A.T)


def gram_half(points: np.ndarray, n: int, m: int) -> float:
    """Gram determinant of the unsigned k-point power-sum system."""
    pts = np.asarray(points, dtype=float)
    x, y = pts[:, 0], pts[:, 1]
    idx = monomial_indices(n, m)
    A = np.zeros((len(idx), 2 * len(pts)))
    for r, (i, j) in enumerate(idx):
        A[r, 0::2] = i * (x ** (i - 1) if i >= 1 else 0.0) * y**j
        A[r, 1::2] = j * x**i * (y ** (j - 1) if j >= 1 else 0.0)
    return _gram_det_psd(A @ A.T)


def _batch_gram_dets(samples: np.ndarray, k: int, n: int, m: int) -> np.ndarray:
    """det(A0 A0^T) for a batch of flat configurations, shape (S, 4k)."""
    S = samples.shape[0]
    x = samples[:, 0::2]
    y = samples[:, 1::2]
    eps = np.concatenate([np.ones(k), -np.ones(k)])
    idx = monomial_indices(n, m)
    A = np.zeros((S, len(idx), 4 * k))
    for r, (i, j) in enumerate(idx):
        A[:, r, 0::2] = eps * i * (x ** (i - 1) if i >= 1 else 0.0) * y**j
        A[:, r, 1::2] = eps * j * x**i * (y ** (j - 1) if j >= 1 else 0.0)
    M = A @ np.transpose(A, (0, 2, 1))
    dets = np.linalg.det(M)
    scale = np.prod(np.maximum(np.diagonal(M, axis1=1, axis2=2), 1.0), axis=1)
    dets = np.where(dets < GRAM_REL_FLOOR * scale, 0.0, dets)
    return dets


@dataclass
class EllipsoidCheck:
    mc_volume: float
    mc_std_error: float
    closed_form: float
    n_samples: int


def ellipsoid_volume_mc(M: np.ndarray, n_samples: int, seed: int):
    """Monte Carlo volume of {a : a^T M a <= 1} for PSD M, by box rejection.

    Returns (volume, std_error).  Sampling is in the eigenbasis of M, over
    the bounding box of the ellipsoid.
    """
    lam, _ = np.linalg.eigh(np.asarray(M, dtype=float))
    if lam.min() <= 0:
        raise ValueError("matrix must be positive definite")
    half = 1.0 / np.sqrt(lam)
    box_vol = float(np.prod(2.0 * half))
    rng = philox_stream(seed, 0)
    N = lam.size
    hits = 0
    done = 0
    chunk = 1_000_000
    while done < n_samples:
        s = min(chunk, n_samples - done)
        z = rng.uniform(-1.0, 1.0, (s, N)) * half
        hits += int(np.count_nonzero((z * z) @ lam <= 1.0))
        done += s
    p = hits / n_samples
    vol = box_vol * p
    se = box_vol * math.sqrt(max(p * (1.0 - p), 0.0) / n_samples)
    return vol, se


def ellipsoid_volume_check(
    config: PointConfig, n: int, m: int, n_samples: int, seed: int
) -> EllipsoidCheck:
    """Compare the MC ellipsoid volume with the closed form driven by the Gram value.

    The ellipsoid is {a in R^N : ||A0^T a|| <= 1}; its volume equals
    pi^(N/2) / Gamma(N/2 + 1) / sqrt(G0).
    """
    A = jacobi_A0(config, n, m)
    M = A @ A.T
    g = _gram_det_psd(M)
    if g <= 0.0:
        raise ValueError("singular configuration: Gram determinant is zero")
    N = M.shape[0]
    vol, se = ellipsoid_volume_mc(M, n_samples, seed)
    closed = math.pi ** (N / 2) / math.gamma(N / 2 + 1) / math.sqrt(g)
    return EllipsoidCheck(vol, se, closed, n_samples)


@dataclass
class SurfaceMeasureEstimate:
    n: int
    m: int
    k: int
    h: float
    value: float
    std_error: float
    n_samples: int
    n_accepted: int
    seed: int
    weight: str

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "k": self.k,
            "h": self.h,
            "value": self.value,
            "std_error": self.std_error,
            "n_samples": self.n_samples,
            "n_accepted": self.n_accepted,
            "seed": self.seed,
            "weight": self.weight,
        }


def thin_shell_measure(
    n: int,
    m: int,
    k: int,
    u,
    h: float,
    n_samples: int,
    seed: int,
    weight: str = "none",
    workers: int = 1,
) -> SurfaceMeasureEstimate:
    """(2h)^-N times the volume of the thin shell |residual - u| <= h in [0,1]^4k.

    With weight="none" this approximates the surface integral of 1/sqrt(G0)
    over the level set residual = u; with weight="sqrtG0" each accepted
    sample is weighted by sqrt(G0), approximating the plain surface area.
    Counter-based RNG: results depend only on (seed, n_samples), not on the
    worker count.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if weight not in ("none", "sqrtG0"):
        raise ValueError(f"unknown weight {weight!r}")
    N = monomial_count(n, m)
    u = np.broadcast_to(np.asarray(u, dtype=float), (N,))
    idx = monomial_indices(n, m)
    eps = np.concatenate([np.ones(k), -np.ones(k)])

    block = 1 << 18
    n_blocks = (n_samples + block - 1) // block

    def run_block(b: int):
        size = min(block, n_samples - b * block)
        rng = philox_stream(seed, 1, b)
        s = rng.random((size, 4 * k))
        x = s[:, 0::2]
        y = s[:, 1::2]
        ok = np.ones(size, dtype=bool)
        for r, (i, j) in enumerate(idx):
            ri = (x**i * y**j) @ eps
            ok &= np.abs(ri - u[r]) <= h
        acc = np.flatnonzero(ok)
        if weight == "none":
            w_sum = float(acc.size)
            w_sq = float(acc.size)
        else:
            dets = _batch_gram_dets(s[acc], k, n, m) if acc.size else np.zeros(0)
            w = np.sqrt(np.maximum(dets, 0.0))
            w_sum = float(w.sum())
            w_sq = float((w * w).sum())
        return w_sum, w_sq, int(acc.size)

    results = map_blocks(run_block, n_blocks, workers)
    w_sum = sum(r[0] for r in results)
    w_sq = sum(r[1] for r in results)
    n_acc = sum(r[2] for r in results)

    scale = (2.0 * h) ** (-N)
    mean = w_sum / n_samples
    var = max(w_sq / n_samples - mean * mean, 0.0) / n_samples
    return SurfaceMeasureEstimate(
        n=n, m=m, k=k, h=h,
        value=mean * scale,
        std_error=math.sqrt(var) * scale,
        n_samples=n_samples,
        n_accepted=n_acc,
        seed=seed,
        weight=weight,
    )


def theta_via_thin_shell(
    n: int, m: int, k: int, h: float, n_samples: int, seed: int, workers: int = 1
) -> SurfaceMeasureEstimate:
    """Thin-shell estimate of the surface integral of 1/sqrt(G0) at u = 0.

    Requires 2k >= N; the doubled-variable shell volume then converges, as
    h -> 0, to the weighted surface measure of the solution variety.
    """
    N = monomial_count(n, m)
    if 2 * k < N:
        raise HypothesisError(f"need 2k >= N = {N}, got k = {k}")
    return thin_shell_measure(
        n, m, k, np.zeros(N), h, n_samples, seed, weight="none", workers=workers
    )


def jacobian_D_case21(x: float, y: float, u: float, v: float) -> float:
    """Determinant of [[1,0,1,0],[0,1,0,1],[y,x,v,u],[2x,0,2u,0]].

    Closed form -2 (u - x)^2; independent of y and v, zero exactly when u = x.
    """
    return -2.0 * (u - x) ** 2
