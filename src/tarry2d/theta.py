"""Coefficient-space estimates of the truncated modulus-power integral.

theta_truncated integrates |J(alpha)|^(2k) over the max-norm box [-R, R]^N
by randomly shifted lattice rules on dyadic shells of the max norm, with a
plain uniform pilot steering the per-shell allocation.  parseval_check
evaluates the two-coefficient marginal mass by one a-priori sized
quadrature, and growth_diagnostic fits the growth of the truncated integral
against the radius from theta_truncated at each radius with the caller's seed.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import quad
from .poly import critical_threshold, monomial_count, monomial_indices
from .rng import philox_stream, summarize, uniform32

_SHIFTS = 16  # random shifts of each shell's lattice rule
_CALL_ROWS = 1 << 16  # J rows per call at most


@dataclass
class ThetaEstimate:
    n: int
    m: int
    k: int
    R: float
    value: float
    std_error: float
    n_samples: int
    shells: list  # per shell: lo, hi, alloc (its J values), mean, std_error, ess of |J|^(2k)
    seed: int


def _shell_bounds(R: float, N: int) -> list[tuple[float, float]]:
    """Dyadic max-norm shells (0,1], (1,2], (2,4], ... clipped at R.  ValueError
    unless R > 0 and the box volume (2R)^N is a positive finite float: one that
    underflows to 0 would leave the shell allocation 0/0."""
    try:
        finite = 0.0 < R and 0.0 < (2.0 * R) ** N < math.inf
    except OverflowError:
        finite = False
    if not finite:
        raise ValueError(f"R must be positive with a box volume (2R)^{N} in (0, inf), got {R}")
    bounds = [0.0]
    b = 1.0
    while b < R:
        bounds.append(b)
        b *= 2.0
    bounds.append(R)
    return list(zip(bounds[:-1], bounds[1:]))


@functools.lru_cache(maxsize=128)
def _lattice(P: int, gamma: tuple) -> np.ndarray:
    """Generating vector z of a P-point rank-1 lattice rule, P prime, by fast
    component-by-component search (Nuyens & Cools, Math. Comp. 2006): z_j is the
    z in 1..P-1 that minimises the Korobov alpha = 2 criterion mean_k prod_j
    (1 + gamma_j 2 pi^2 B2({k z_j / P})), B2(x) = x^2 - x + 1/6, one cyclic
    convolution by FFT for all z = g^a and k = g^-b, g a primitive root.  Ties
    within a relative 1e-12 go to the least z, so round-off cannot pick z."""
    for g in range(1, P):  # the least primitive root: g^0..g^(P-2) are distinct
        pw = np.ones(1, dtype=np.int64)
        while len(pw) < P - 1:  # by doubling
            pw = np.concatenate([pw, pw * pow(g, len(pw), P) % P])
        if len(np.unique(pw := pw[: P - 1])) == P - 1:
            break
    B = lambda k: 2.0 * np.pi**2 * ((k / P) ** 2 - k / P + 1.0 / 6.0)  # noqa: E731
    kernel, inv = np.fft.rfft(B(pw)), pw[-np.arange(P - 1) % (P - 1)]  # inv: k = g^-b
    q, z = np.ones(P), np.empty(len(gamma), dtype=np.int64)
    for j, gj in enumerate(gamma):  # q_k: the product over the coordinates before j
        crit = q.sum() + gj * (q[0] * B(0) + np.fft.irfft(kernel * np.fft.rfft(q[inv]), P - 1))
        z[j] = pw[crit <= crit.min() * (1.0 + 1e-12)].min()
        q *= 1.0 + gj * B(np.arange(P) * z[j] % P)
    return z


def _lattice_size(share: int, faces: int) -> int:
    """Largest prime P with _SHIFTS faces P <= share, or the least giving 64 rows if larger."""
    unit = _SHIFTS * faces
    floor = max(2, -(-64 // unit))
    candidates = itertools.chain(range(share // unit, floor - 1, -1), itertools.count(floor))
    return next(p for p in candidates if all(p % d for d in range(2, math.isqrt(p) + 1)))


def _shell_rows(a: float, b: float, N: int, x: np.ndarray) -> np.ndarray:
    """J rows, shift by shift, of shifted lattice points x (shifts, P, N) in the
    shell (a, b]: u = 1 - |2 frac(x) - 1| (the tent transform) to the cube
    b (2u - 1) when a = 0, else to r by the inverse CDF of u_0 and one row a
    axis i of [r, (2u - 1) r] rolled by i, so a_i = +r; |J(-a)| = |J(a)|."""
    u = 1.0 - np.abs(2.0 * (x - np.floor(x)) - 1.0)
    if a == 0.0:
        return (b * (2.0 * u - 1.0)).reshape(-1, N)
    r = (a**N + u[..., :1] * (b**N - a**N)) ** (1.0 / N)
    full = np.concatenate([r, (2.0 * u[..., 1:] - 1.0) * r], axis=-1)
    return full[..., (np.arange(N) - np.arange(N)[:, None]) % N].reshape(-1, N)


def _abs_J_pow(n: int, m: int, k: int, rows: np.ndarray, tol: float, workers: int) -> np.ndarray:
    """|J(alpha)|^(2k) for a batch of coefficient vectors, each J within tol, on `workers`
    threads: quad.batch_osc_m1 for phases linear in x or y, else quad._batch_J."""
    n, m, rows = quad._orient(n, m, np.atleast_2d(rows))
    vals = (quad.batch_osc_m1(n, rows, tol=tol, workers=workers) if m == 1
            else quad._batch_J(n, m, rows, tol, workers)[0])
    return np.abs(vals) ** (2 * k)


def theta_truncated(n: int, m: int, k: int, R: float, n_samples: int, seed: int,
                    tol: float = 1e-6, workers: int = 1) -> ThetaEstimate:
    """Stratified estimate of the box-truncated integral of |J|^(2k).

    Shells get shares of the samples in proportion to shell volume times the
    square root of a pilot second moment (about 1% of the budget, plain
    uniform points), rounded down.  Shell l then takes _SHIFTS random shifts
    of a P-point rank-1 lattice rule (_lattice, weighted by the bound on
    |dJ/da| of each column), tent-transformed as in Dick, Nuyens &
    Pillichshammer (Numer. Math. 2014).  Both map points by _shell_rows, to
    one J row in the innermost shell and N elsewhere (the pilot keeps the
    first rows).  P is the largest prime whose _SHIFTS x rows x P J values
    fit the share, or the least giving 64.  A shell's alloc is its J values,
    _SHIFTS x rows x P, and n_samples the pilot's plus the allocs: the J
    values evaluated, which prime gaps leave a little below the request and
    the 64-row floor can raise above it.  A shell's mean and ESS are
    rng.summarize's of its values, its SE the sample SD of its shift means
    over sqrt(_SHIFTS); value and std_error weight them by the shell volumes
    in fixed order.  Each J is within tol, which sizes its rule (see quad).
    The box volume (2R)^N must be a finite float.

    J is evaluated on all pilot rows in one call, then on the main rows in
    calls of at most _CALL_ROWS cut at shift boundaries; `workers` threads
    share the tasks of each call (see quad._batch_J), where the time goes.
    The result is bitwise independent of `workers`; the streams are keyed by R.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    quad._check_tol(tol)
    N = monomial_count(n, m)
    shells = _shell_bounds(R, N)
    rtag = int(np.float64(R).view(np.uint64))  # R's bits (see rng)
    vols = np.array([(2 * b) ** N - (2 * a) ** N for a, b in shells])

    faces = [1] + [N] * (len(shells) - 1)  # J rows a point
    n_pilot_per = max(64, int(0.01 * n_samples) // len(shells))
    # every shell's pilot rows, each mapping uniforms of its own stream, in one
    # J call, which sizes every row before it evaluates any
    f = _abs_J_pow(n, m, k, np.concatenate([_shell_rows(a, b, N, uniform32(
        philox_stream(seed, 2, rtag, l), -(-n_pilot_per // faces[l]), N))[:n_pilot_per]
        for l, (a, b) in enumerate(shells)]), tol, workers)
    pilot_m2 = np.mean((f * f).reshape(len(shells), n_pilot_per), axis=1)

    main_budget = max(n_samples - n_pilot_per * len(shells), len(shells) * 64)
    w = vols * np.sqrt(pilot_m2)
    if w.sum() <= 0:
        w = vols.astype(float)
    share = np.floor(main_budget * w / w.sum())

    # main rule: _SHIFTS shifts of a P-point lattice per shell; a J call takes
    # pieces of whole shifts while they fit in _CALL_ROWS rows (a larger shift is cut)
    sizes = [_lattice_size(int(c), f) for c, f in zip(share, faces)]
    count = [f * P for f, P in zip(faces, sizes)]  # J rows of one shift
    pieces = [(l, s, min(s + step, _SHIFTS)) for l in range(len(shells))  # whole shifts
              for step in [max(1, _CALL_ROWS // count[l])] for s in range(0, _SHIFTS, step)]
    calls = [[]]
    for piece in pieces:
        if calls[-1] and sum(count[l] * (e - b) for l, b, e in calls[-1] + [piece]) > _CALL_ROWS:
            calls.append([])
        calls[-1].append(piece)
    # CBC weights from |dJ/da_ij| <= 2 pi / ((i + 1) (j + 1)), by column
    gamma = tuple(1.0 / ((i + 1) * (j + 1)) for i, j in monomial_indices(n, m))
    points = [np.arange(P)[:, None] * _lattice(P, gamma) % P / P for P in sizes]
    shifts = [uniform32(philox_stream(seed, 6, rtag, l), _SHIFTS, N) for l in range(len(shells))]
    f = []
    for call in calls:
        rows = np.concatenate([_shell_rows(*shells[l], N, points[l] + shifts[l][s0:s1, None])
                               for l, s0, s1 in call])
        f += [_abs_J_pow(n, m, k, rows[i : i + _CALL_ROWS], tol, workers)
              for i in range(0, len(rows), _CALL_ROWS)]
    vals = np.split(np.concatenate(f), _SHIFTS * np.cumsum(count)[:-1])  # shell by shell
    stats = [summarize([v], v.size) for v in vals]
    ses = [float(np.std(v.reshape(_SHIFTS, -1).mean(1), ddof=1)) / _SHIFTS**0.5 for v in vals]
    return ThetaEstimate(
        n=n, m=m, k=k, R=float(R), value=float(sum(v * s.mean for v, s in zip(vols, stats))),
        std_error=math.sqrt(float(sum((v * se) ** 2 for v, se in zip(vols, ses)))),
        n_samples=_SHIFTS * sum(count) + n_pilot_per * len(shells),
        shells=[{"lo": float(a), "hi": float(b), "alloc": _SHIFTS * c, "mean": s.mean,
                 "std_error": se, "ess": s.ess}
                for (a, b), c, s, se in zip(shells, count, stats, ses)], seed=seed)


@dataclass
class ParsevalMass:
    value: float
    abs_error_estimate: float  # a-priori bound on |value - mass|, at most tol
    x_rule: tuple[int, int]  # (q, M): Gauss order and panels in x and in x'
    b_rule: tuple[int, int]  # (q, M) on [-R, R]


def _sinc_cis(t: np.ndarray):
    """sinc(t) = sin(pi t) / (pi t) (1 at t = 0), cos(pi t) and sin(pi t), by quad._cos_sin at t / 2."""
    r = 0.5 * t - np.rint(0.5 * t)
    cos, sin = quad._cos_sin(r, np.empty_like(r), r)
    return np.divide(sin, np.pi * t, out=np.ones_like(t), where=t != 0.0), cos, sin


def parseval_check(gamma: float, R: float, tol: float = 1e-3) -> ParsevalMass:
    """Truncated two-coefficient mass of |J|^2 at fixed top coefficient gamma.

    The mass of |J(a, b, gamma)|^2 over (a, b) in [-R, R]^2, phase a x + b y
    + gamma x y, is the integral over b in [-R, R] and (x, x') in [0, 1]^2 of
    K(x - x') c(b + gamma x) conj c(b + gamma x'), where the a integral closes
    as K(d) = 2R sinc(2R d) and c(t) = int_0^1 e(t y) dy.  It tends to 1 as R grows.

    One pass on Gauss-Legendre rules sized a priori by quad._size (n = 1), one
    for x and x', one for b.  On a panel's ellipse the (x, x') integrand is at
    most 2R exp(2 pi (R + |gamma|) |Im x|), and with b = R (2s - 1) the b
    integrand at most 4R^2 exp(2 pi 2R |Im s|).  From Q - I = Qx (Qx' - I) +
    (Qx - I) I, b weights summing to 2R, the error is at most
    8R^2 E(qx, Mx; R + |gamma|, 1) + 4R^2 E(qb, Mb; 2R, 1): x is sized at
    tol / max(1, 16R^2), b at tol / max(1, 8R^2).  PanelBudgetError, before any
    node is built, if K or [cr; ci] would hold over quad.MAX_NODES floats.
    """
    if not 0.0 < R < math.inf:
        raise ValueError(f"R must be positive and finite, got {R}")
    if not math.isfinite(gamma):
        raise ValueError(f"gamma must be finite, got {gamma}")
    quad._check_tol(tol)
    Vx, Vb = R + abs(gamma), 2.0 * R
    quad._size(max(Vx, Vb), 1, tol)  # a V out of reach fails here, in the caller's tol
    try:
        (qx,), (Mx,) = quad._size(Vx, 1, tol / max(1.0, 16.0 * R * R))
        (qb,), (Mb,) = quad._size(Vb, 1, tol / max(1.0, 8.0 * R * R))
    except ValueError:  # a scaled tol beyond the reach: name tol
        raise ValueError(f"tol {tol} is below the reach of the error bound") from None
    X, B = int(qx * Mx), int(qb * Mb)
    if X * max(X, 2 * B) > quad.MAX_NODES:
        raise quad.PanelBudgetError(f"mass too large for tolerance {tol}: {X} x and "
                                    f"{B} b nodes need over {quad.MAX_NODES} floats")
    x, wx = quad._panel_nodes(Mx, *quad._gauss(qx))
    s, ws = quad._panel_nodes(Mb, *quad._gauss(qb))
    beta, wb = R * (2.0 * s - 1.0), 2.0 * R * ws
    # c = exp(i pi t) sinc(t), t = beta + gamma x.  Kw is real and symmetric, so
    # Re(c Kw c^H) = cr Kw cr^T + ci Kw ci^T: one real GEMM of [cr; ci] against Kw
    Kw = (wx[:, None] * wx[None, :]) * (2.0 * R * _sinc_cis(2.0 * R * (x[:, None] - x[None, :]))[0])
    sinc, cos, sin = _sinc_cis(beta[:, None] + gamma * x[None, :])
    C = np.concatenate([cos * sinc, sin * sinc])
    q = np.einsum("bi,bi->b", C @ Kw, C)
    bound = (8.0 * R * R * math.exp(quad._log_bound(qx, Mx, Vx, 1))
             + 4.0 * R * R * math.exp(quad._log_bound(qb, Mb, Vb, 1)))
    return ParsevalMass(float(wb @ (q[:B] + q[B:])), bound, (int(qx), int(Mx)), (int(qb), int(Mb)))


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


def growth_diagnostic(n: int, m: int, k: int, radii, n_samples: int, seed: int,
                      tol: float = 1e-6, workers: int = 1) -> GrowthReport:
    """Fit log(value) against log(R) across radii and classify the growth.

    Convergent when every increment after the first is negligible, below 5%
    of the preceding value plus 3 combined standard errors, or falls: its
    rate per unit of log R is below the rate before it by more than twice
    the SE of that fall (a convergent integral's truncation tail shrinks,
    where log R growth keeps its rate and R^e growth raises it); otherwise
    divergent when the fitted slope clears twice its own standard error;
    else inconclusive.  theorem_sign records the sign of 4k minus the
    critical threshold (negative or zero predicts growth).  Estimate i is
    theta_truncated at radii[i] with `seed`.
    """
    radii = [float(r) for r in radii]
    for r in radii:
        _shell_bounds(r, monomial_count(n, m))
    if len(radii) < 3 or any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("need at least 3 strictly increasing radii")
    quad._check_tol(tol)
    ests = [theta_truncated(n, m, k, R, n_samples, seed, tol=tol, workers=workers)
            for R in radii]
    vals = np.array([e.value for e in ests])
    ses = np.array([e.std_error for e in ests])

    slope, slope_se = _wls_slope(np.log(radii), vals, ses)

    incs = np.diff(vals)
    negligible = incs < 0.05 * vals[:-1] + 3.0 * np.sqrt(ses[:-1] ** 2 + ses[1:] ** 2)
    h = np.diff(np.log(radii))  # a fall is a drop in increment per unit of log R
    fall = incs[:-1] / h[:-1] - incs[1:] / h[1:]
    # adjacent increments share an estimate, which enters the fall twice
    fall_se = np.sqrt((ses[2:] / h[1:]) ** 2 + (ses[1:-1] * (1 / h[1:] + 1 / h[:-1])) ** 2
                      + (ses[:-2] / h[:-1]) ** 2)
    if np.all(negligible[1:] | (fall > 2.0 * fall_se)):
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
    w = 1.0 / np.maximum(ses / vals, 1e-12) ** 2
    W = w.sum()
    xb = (w * logx).sum() / W
    yb = (w * logy).sum() / W
    sxx = (w * (logx - xb) ** 2).sum()
    slope = (w * (logx - xb) * (logy - yb)).sum() / sxx
    return float(slope), float(1.0 / math.sqrt(sxx))
