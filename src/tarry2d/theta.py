"""Coefficient-space estimates of the truncated modulus-power integral.

theta_truncated integrates |J(alpha)|^(2k) over the max-norm box [-R, R]^N
by stratified Monte Carlo over dyadic shells of the max norm, with a pilot
pass steering the per-shell sample allocation.  parseval_check evaluates the
two-coefficient marginal mass by deterministic quadrature, growth_diagnostic
fits the growth of the truncated integral against the radius, and
shell_series_term gives the dyadic series terms whose sign of exponent
separates growth from decay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import quad
from .parallel import map_blocks
from .poly import PolySpec, critical_threshold, monomial_count
from .rng import philox_stream

_BLOCK = 1 << 13
_PARSEVAL_ROWS = 1024  # rows of [cr; ci] per GEMM in parseval_check


@dataclass
class ThetaEstimate:
    n: int
    m: int
    k: int
    radius: float
    value: float
    std_error: float
    n_samples: int
    seed: int

    def to_dict(self) -> dict:
        return {
            "n": self.n, "m": self.m, "k": self.k, "R": self.radius,
            "value": self.value, "std_error": self.std_error,
            "n_samples": self.n_samples, "seed": self.seed,
        }


def _shell_bounds(R: float) -> list[tuple[float, float]]:
    """Dyadic max-norm shells (0,1], (1,2], (2,4], ... clipped at R."""
    if not 0.0 < R < math.inf:
        raise ValueError(f"R must be positive and finite, got {R}")
    bounds = [0.0]
    b = 1.0
    while b < R:
        bounds.append(b)
        b *= 2.0
    bounds.append(R)
    return list(zip(bounds[:-1], bounds[1:]))


def _sample_shell(rng: np.random.Generator, a: float, b: float, N: int, size: int):
    """Uniform draws from the max-norm shell {a < ||x||_inf <= b}."""
    u = rng.random(size)
    r = (a**N + u * (b**N - a**N)) ** (1.0 / N)
    pts = rng.uniform(-1.0, 1.0, (size, N)) * r[:, None]
    axis = rng.integers(0, N, size)
    sign = 2.0 * rng.integers(0, 2, size) - 1.0
    pts[np.arange(size), axis] = sign * r
    return pts


def _abs_J_pow(
    n: int, m: int, k: int, rows: np.ndarray, tol: float, workers: int
) -> np.ndarray:
    """|J(alpha)|^(2k) for a batch of coefficient vectors, rows on `workers` threads.

    Each J is within tol.
    """
    if m == 1:
        vals = quad.batch_osc_m1(n, rows, tol=tol, workers=workers)
    else:
        rows = np.atleast_2d(rows)
        vals = np.array(map_blocks(
            lambda r: quad.osc_integral(PolySpec.from_vector(n, m, rows[r]), tol=tol).value,
            rows.shape[0], workers,
        ))
    return np.abs(vals) ** (2 * k)


def theta_truncated(
    n: int,
    m: int,
    k: int,
    R: float,
    n_samples: int,
    seed: int,
    tol: float = 1e-6,
    workers: int = 1,
) -> ThetaEstimate:
    """Stratified MC estimate of the box-truncated integral of |J|^(2k).

    Shells get samples in proportion to shell volume times the square root
    of a pilot second moment (about 1% of the budget), rounded by largest
    remainder, so n_samples equals the request unless a shell is raised to
    its floor of 64; the estimator and its standard error combine shells
    exactly, in fixed order.  Each J is within tol; for m = 1 phases tol
    sizes the batch rule (see quad.batch_osc_m1).

    Shells and blocks run one after another; `workers` threads share the J
    evaluations of each block (see quad.batch_osc_m1), where the time goes.
    The result is bitwise independent of `workers`.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    quad._check_tol(tol)
    N = monomial_count(n, m)
    shells = _shell_bounds(R)
    vols = np.array([(2 * b) ** N - (2 * a) ** N for a, b in shells])

    n_pilot_per = max(64, int(0.01 * n_samples) // len(shells))
    pilot_m2 = np.empty(len(shells))
    for l, (a, b) in enumerate(shells):
        rng = philox_stream(seed, 2, l)
        rows = _sample_shell(rng, a, b, N, n_pilot_per)
        f = _abs_J_pow(n, m, k, rows, tol, workers)
        pilot_m2[l] = float(np.mean(f * f))

    main_budget = max(n_samples - n_pilot_per * len(shells), len(shells) * 64)
    w = vols * np.sqrt(pilot_m2)
    if w.sum() <= 0:
        w = vols.astype(float)
    # largest remainder: a round-off move in w shifts a sample only between
    # shells whose remainders nearly tie
    share = main_budget * w / w.sum()
    alloc = np.floor(share).astype(int)
    short = main_budget - int(alloc.sum())
    alloc[np.argsort(alloc - share, kind="stable")[:short]] += 1
    alloc = np.maximum(alloc, 64)

    def run_shell(l: int):
        a, b = shells[l]
        tot = 0.0
        tot2 = 0.0
        n_l = int(alloc[l])
        n_blocks = (n_l + _BLOCK - 1) // _BLOCK
        for blk in range(n_blocks):
            size = min(_BLOCK, n_l - blk * _BLOCK)
            rng = philox_stream(seed, 3, l, blk)
            rows = _sample_shell(rng, a, b, N, size)
            f = _abs_J_pow(n, m, k, rows, tol, workers)
            tot += float(f.sum())
            tot2 += float((f * f).sum())
        mean = tot / n_l
        var = max(tot2 / n_l - mean * mean, 0.0) / n_l
        return mean, var

    stats = [run_shell(l) for l in range(len(shells))]
    value = float(sum(vols[l] * stats[l][0] for l in range(len(shells))))
    var = float(sum(vols[l] ** 2 * stats[l][1] for l in range(len(shells))))
    return ThetaEstimate(
        n=n, m=m, k=k, radius=float(R), value=value,
        std_error=math.sqrt(var),
        n_samples=int(alloc.sum()) + n_pilot_per * len(shells),
        seed=seed,
    )


def parseval_check(gamma: float, R: float, tol: float = 1e-3) -> float:
    """Truncated two-coefficient mass of |J|^2 at fixed top coefficient gamma.

    Computes the integral of |J(a, b, gamma)|^2 over (a, b) in [-R, R]^2 for
    the phase a x + b y + gamma x y.  The x integral is discretized by a
    composite Gauss-Legendre rule, the a integral closes analytically against
    the Dirichlet kernel, and the b integral uses panel quadrature.  As
    R -> infinity the value approaches the unit-square mass of the transform,
    which is 1 under the exp(2 pi i .) kernel convention.
    """
    if not 0.0 < R < math.inf:
        raise ValueError(f"R must be positive and finite, got {R}")
    if not math.isfinite(gamma):
        raise ValueError(f"gamma must be finite, got {gamma}")
    quad._check_tol(tol)

    def compute(mx_panels: int, mb_panels: int) -> float:
        x, wx = quad._panel_nodes(mx_panels, quad._G12, quad._W12)
        # kernel of the analytic a-integral: int_{-R}^{R} e^{2 pi i a d} da
        diff = x[:, None] - x[None, :]
        K = 2.0 * R * np.sinc(2.0 * R * diff)
        Kw = (wx[:, None] * wx[None, :]) * K
        gb, wb = np.polynomial.legendre.leggauss(quad.ORDER_HIGH)
        offs = np.linspace(-R, R, mb_panels + 1)
        lo, hi = offs[:-1, None], offs[1:, None]
        beta = ((lo + hi) / 2.0 + (hi - lo) / 2.0 * gb).ravel()
        wts = ((hi - lo) / 2.0 * wb).ravel()
        # c = exp(i pi t) sinc(t) with t = beta + gamma x.  Kw is real and
        # symmetric, so Re(c Kw c^H) = cr Kw cr^T + ci Kw ci^T: one real GEMM
        # of [cr; ci] against Kw, in row blocks so memory stays near that of K
        mass = np.empty(beta.size)
        step = _PARSEVAL_ROWS // 2
        for s in range(0, beta.size, step):
            t = beta[s : s + step, None] + gamma * x[None, :]
            sinc = np.sinc(t)
            t *= np.pi
            C = np.concatenate([np.cos(t) * sinc, np.sin(t) * sinc])
            q = np.einsum("bi,bi->b", C @ Kw, C)
            mass[s : s + step] = q[: len(t)] + q[len(t) :]
        return float(wts @ mass)

    mx = max(8, int(np.ceil((R + abs(gamma)) / quad.PHASE_CYCLES_PER_PANEL)) + 4)
    mb = max(8, int(np.ceil(2.0 * R)))
    val = compute(mx, mb)
    for _ in range(3):
        mx2, mb2 = (3 * mx) // 2, (3 * mb) // 2
        val2 = compute(mx2, mb2)
        if abs(val2 - val) <= tol:
            return val2
        mx, mb, val = mx2, mb2, val2
    return val


def shell_series_term(n: int, m: int, k: int, l: int) -> float:
    """Term 2^(l e) of the dyadic lower-bound series, e = -4k + critical threshold."""
    if l < 1:
        raise ValueError("l must be >= 1")
    e = critical_threshold(n, m) - 4 * k
    return 2.0 ** (l * e)


@dataclass
class GrowthReport:
    n: int
    m: int
    k: int
    radii: list
    estimates: list
    fitted_exponent: float
    fitted_exponent_se: float
    classification: str
    theorem_sign: int

    def to_dict(self) -> dict:
        return {
            "n": self.n, "m": self.m, "k": self.k,
            "radii": list(self.radii),
            "estimates": [e.to_dict() for e in self.estimates],
            "fitted_exponent": self.fitted_exponent,
            "fitted_exponent_se": self.fitted_exponent_se,
            "classification": self.classification,
            "theorem_sign": self.theorem_sign,
        }


def growth_diagnostic(
    n: int,
    m: int,
    k: int,
    radii,
    n_samples: int,
    seed: int,
    tol: float = 1e-6,
    workers: int = 1,
) -> GrowthReport:
    """Fit log(value) against log(R) across radii and classify the growth.

    Convergent when every increment sits below 5% of the preceding value
    plus 3 combined standard errors (the slack absorbs the genuine but
    shrinking truncation tail); otherwise divergent when the fitted slope
    clears twice its own standard error; else inconclusive.  theorem_sign
    records the sign of 4k minus the critical threshold (negative or zero
    predicts growth).
    """
    radii = [float(r) for r in radii]
    if not all(0.0 < r < math.inf for r in radii):
        raise ValueError("radii must be positive and finite")
    if len(radii) < 3 or any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("need at least 3 strictly increasing radii")
    quad._check_tol(tol)
    ests = [
        theta_truncated(n, m, k, R, n_samples, seed + 1000 * i, tol=tol, workers=workers)
        for i, R in enumerate(radii)
    ]
    vals = np.array([e.value for e in ests])
    ses = np.array([e.std_error for e in ests])

    slope, slope_se = _wls_slope(np.log(radii), vals, ses)

    incs = np.diff(vals)
    inc_ses = np.sqrt(ses[:-1] ** 2 + ses[1:] ** 2)
    if np.all(incs < 0.05 * vals[:-1] + 3.0 * inc_ses):
        cls = "convergent"
    elif slope - 2.0 * slope_se > 0.0:
        cls = "divergent"
    else:
        cls = "inconclusive"
    t = 4 * k - critical_threshold(n, m)
    return GrowthReport(
        n=n, m=m, k=k, radii=radii, estimates=ests,
        fitted_exponent=float(slope), fitted_exponent_se=float(slope_se),
        classification=cls, theorem_sign=int(np.sign(t)),
    )


def _wls_slope(logx: np.ndarray, vals: np.ndarray, ses: np.ndarray):
    """Weighted LS slope of log(vals) on logx, with its standard error."""
    if np.any(vals <= 0):
        return float("nan"), float("inf")
    logy = np.log(vals)
    sig = np.where(vals > 0, np.maximum(ses / vals, 1e-12), np.inf)
    w = 1.0 / sig**2
    W = w.sum()
    xb = (w * logx).sum() / W
    yb = (w * logy).sum() / W
    sxx = (w * (logx - xb) ** 2).sum()
    slope = (w * (logx - xb) * (logy - yb)).sum() / sxx
    return float(slope), float(1.0 / math.sqrt(sxx))
