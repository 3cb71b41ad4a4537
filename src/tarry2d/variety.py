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

SHELL_BLOCK = 1 << 16  # thin-shell draws per random stream; 4k rows of 512 kB


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
        if not np.all(np.isfinite(pts)):
            raise ValueError("point coordinates must be finite")
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


def jacobi_batch(x: np.ndarray, y: np.ndarray, n: int, m: int) -> np.ndarray:
    """Gradients of the unsigned power sums for a batch of point sets.

    Coordinate-major: x and y have shape (P, S), point p of set s at [p, s].
    Returns D of shape (N, 2P, S) with D[r, 2p] = d(x_p^i y_p^j)/dx_p and
    D[r, 2p + 1] = d(x_p^i y_p^j)/dy_p for the r-th index (i, j).  Each set
    stays contiguous along the last axis.  Powers are built by products.
    """
    xp, yp = _powers(x, n), _powers(y, m)
    idx = monomial_indices(n, m)
    D = np.zeros((len(idx), 2 * x.shape[0], x.shape[1]))
    for r, (i, j) in enumerate(idx):
        if i:
            D[r, 0::2] = i * _monomial(xp, yp, i - 1, j)
        if j:
            D[r, 1::2] = j * _monomial(xp, yp, i, j - 1)
    return D


def gram_dets(x: np.ndarray, y: np.ndarray, n: int, m: int) -> np.ndarray:
    """Gram determinants det(D D^T) for a batch of point sets, shape (S,).

    x, y as in jacobi_batch.  Signs square away, so this is also the Gram
    determinant of the signed system.  Round-off negatives read 0.
    """
    D = jacobi_batch(x, y, n, m)
    N = D.shape[0]
    G = np.empty((x.shape[1], N, N))
    for a in range(N):
        for b in range(a + 1):
            G[:, a, b] = G[:, b, a] = np.einsum("cs,cs->s", D[a], D[b])
    return np.maximum(np.linalg.det(G), 0.0)


def _powers(v: np.ndarray, d: int) -> list:
    """[None, v, v^2, ..., v^d]; the zeroth power stays implicit."""
    out = [None, v]
    for _ in range(d - 1):
        out.append(out[-1] * v)
    return out


def _monomial(xp: list, yp: list, i: int, j: int):
    """x^i y^j from power tables, with no multiplications by ones."""
    if i and j:
        return xp[i] * yp[j]
    if i or j:
        return xp[i] if i else yp[j]
    return 1.0


def jacobi_A0(config: PointConfig, n: int, m: int) -> np.ndarray:
    """N x 4k Jacobi matrix of the residual; columns alternate d/dx_s, d/dy_s."""
    pts = config.points
    D = jacobi_batch(pts[:, :1], pts[:, 1:], n, m)[:, :, 0]
    return D * np.repeat(config.signs, 2)


def gram_G0(config: PointConfig, n: int, m: int) -> float:
    """Gram determinant det(A0 A0^T) of the residual gradients."""
    pts = config.points
    return float(gram_dets(pts[:, :1], pts[:, 1:], n, m)[0])


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
    g = gram_G0(config, n, m)
    if g <= 0.0:
        raise ValueError("singular configuration: Gram determinant is zero")
    N = M.shape[0]
    vol, se = ellipsoid_volume_mc(M, n_samples, seed)
    closed = math.pi ** (N / 2) / math.gamma(N / 2 + 1) / math.sqrt(g)
    return EllipsoidCheck(vol, se, closed, n_samples)


@dataclass
class SurfaceMeasureEstimate:
    """Thin-shell estimate; n_accepted counts the draws with nonzero weight."""

    n: int
    m: int
    k: int
    h: float
    value: float
    std_error: float
    n_samples: int
    n_accepted: int
    effective_sample_size: float
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
            "effective_sample_size": self.effective_sample_size,
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
    over the level set residual = u; with weight="sqrtG0" each sample in the
    shell is weighted by sqrt(G0), approximating the plain surface area.

    The two linear sums are integrated exactly rather than by rejection.  The
    last point (sign -1) is dependent: x_last = sum_{p<2k-1} eps_p x_p - u_(1,0)
    - t with t = h (2U - 1), U being that point's own x draw, and likewise for
    y_last.  Uniform t over [-h, h] covers the (1,0) shell exactly once, so the
    draws landing with both solved coordinates in [0, 1] and the other N - 2
    residuals within h, times (2h)^-(N-2), estimate the same shell volume
    without bias for every h > 0.  Counter-based RNG: results depend only on
    (seed, n_samples), not on the worker count.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not (0.0 < h < math.inf):
        raise ValueError(f"h must be positive and finite, got {h}")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if weight not in ("none", "sqrtG0"):
        raise ValueError(f"unknown weight {weight!r}")
    idx = monomial_indices(n, m)
    N = len(idx)
    u = np.broadcast_to(np.asarray(u, dtype=float), (N,))
    if not np.all(np.isfinite(u)):
        raise ValueError("level u must be finite")
    u10, u01 = u[idx.index((1, 0))], u[idx.index((0, 1))]
    nonlinear = [(r, i, j) for r, (i, j) in enumerate(idx) if i + j > 1]

    n_blocks = (n_samples + SHELL_BLOCK - 1) // SHELL_BLOCK

    def run_block(b: int):
        size = min(SHELL_BLOCK, n_samples - b * SHELL_BLOCK)
        s = philox_stream(seed, 1, b).random((4 * k, size))
        x, y = s[: 2 * k], s[2 * k :]
        # solve the last point in place: x_last = sum eps_p x_p - u_(1,0) - t
        for v, c in ((x, h - u10), (y, h - u01)):
            last = v[-1]  # holds U, and -t = h - 2hU
            last *= -2.0 * h
            last += c
            for p in range(k):
                last += v[p]
            for p in range(k, 2 * k - 1):
                last -= v[p]
        inside = (x[-1] >= 0.0) & (x[-1] <= 1.0) & (y[-1] >= 0.0) & (y[-1] <= 1.0)
        s = s.compress(inside, axis=1)  # C order; s[:, inside] would be F order
        x, y = s[: 2 * k], s[2 * k :]
        xp, yp = _powers(x, n), _powers(y, m)
        ok = np.ones(s.shape[1], dtype=bool)
        for r, i, j in nonlinear:
            t = _monomial(xp, yp, i, j)
            ok &= np.abs(t[:k].sum(0) - t[k:].sum(0) - u[r]) <= h
        if weight == "none":
            n_in = int(np.count_nonzero(ok))
            return float(n_in), float(n_in), n_in
        s = s.compress(ok, axis=1)
        w = np.sqrt(gram_dets(s[: 2 * k], s[2 * k :], n, m))
        return float(w.sum()), float((w * w).sum()), int(np.count_nonzero(w))

    results = map_blocks(run_block, n_blocks, workers)
    w_sum = sum(r[0] for r in results)
    w_sq = sum(r[1] for r in results)
    n_acc = sum(r[2] for r in results)

    scale = (2.0 * h) ** (2 - N)
    mean = w_sum / n_samples
    var = max(w_sq / n_samples - mean * mean, 0.0) / n_samples
    return SurfaceMeasureEstimate(
        n=n, m=m, k=k, h=h,
        value=mean * scale,
        std_error=math.sqrt(var) * scale,
        n_samples=n_samples,
        n_accepted=n_acc,
        effective_sample_size=w_sum * w_sum / w_sq if w_sq > 0 else 0.0,
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
    if k < 1:
        raise ValueError("k must be >= 1")
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
