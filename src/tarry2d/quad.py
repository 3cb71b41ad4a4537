"""Oscillatory double integral over the unit square with polynomial phase.

The integral J = int_0^1 int_0^1 exp(2 pi i F(x, y)) dx dy is evaluated by
panel-wise Gauss-Legendre rules of order 12.  When the phase is linear in y
(m = 1) the inner integral closes in elementary form and only x needs a
rule; otherwise a 2-D tensor rule is used.

osc_integral (one phase) starts from panels on which the phase varies by at
most half a cycle, estimates the error against an order-8 rule on the same
panels, and doubles the panels until the estimate meets tol.
batch_osc_m1 (many m = 1 phases) sizes the panels a priori instead: each
group of rows of similar phase variation gets the smallest panel count whose
Bernstein-ellipse error bound for order-12 Gauss-Legendre is at most tol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .parallel import map_blocks
from .poly import PolySpec, monomial_indices

PHASE_CYCLES_PER_PANEL = 0.5
ORDER_HIGH = 12
ORDER_LOW = 8
# Nodes per batch_osc_m1 task: its three float64 work arrays stay in a 2 MB L2.
CHUNK_NODES = 1 << 16

_G12, _W12 = np.polynomial.legendre.leggauss(ORDER_HIGH)
_G8, _W8 = np.polynomial.legendre.leggauss(ORDER_LOW)

# Bernstein ellipse parameters for the batch error bound (see _log_bound):
# b = (rho - 1/rho) / 2 and log of rho^(2 ORDER_HIGH) (rho^2 - 1) 15/32
_RHO = 1.0 + np.geomspace(1e-2, 1e3, 256)
_RHO_B = 0.5 * (_RHO - 1.0 / _RHO)
_RHO_LOG_DECAY = 2 * ORDER_HIGH * np.log(_RHO) + np.log(_RHO**2 - 1.0) + math.log(15 / 32)


class PanelBudgetError(RuntimeError):
    """Raised when honoring the tolerance would exceed the panel budget."""


def _check_tol(tol: float) -> None:
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")


@dataclass
class QuadResult:
    value: complex
    abs_error_estimate: float
    n_evals: int


def _panel_nodes(M: int, g: np.ndarray, w: np.ndarray):
    """Nodes and weights of an M-panel composite rule on [0, 1]."""
    offs = np.arange(M)[:, None]
    x = ((offs + (g + 1.0) / 2.0) / M).ravel()
    wts = np.tile(w / (2.0 * M), M)
    return x, wts


def _phase_variation(F: PolySpec) -> float:
    return sum(abs(v) * (i + j) for (i, j), v in F.coeffs.items())


def _unit_interval_transform(t):
    """int_0^1 exp(2 pi i t y) dy, stable near t = 0."""
    return np.exp(1j * np.pi * t) * np.sinc(t)


def _reduced_profiles(F: PolySpec):
    """For m = 1 phases F = A(x) + y B(x): coefficient arrays of A and B."""
    a = np.zeros(F.n + 1)
    b = np.zeros(F.n + 1)
    for (i, j), v in F.coeffs.items():
        if j == 0:
            a[i] = v
        else:
            b[i] = v
    return a, b


def _eval_reduced(a, b, M, g, w):
    x, wts = _panel_nodes(M, g, w)
    A = np.polynomial.polynomial.polyval(x, a)
    B = np.polynomial.polynomial.polyval(x, b)
    vals = np.exp(2j * np.pi * A) * _unit_interval_transform(B)
    return complex(vals @ wts), x.size


def _eval_tensor(F: PolySpec, M, g, w, row_chunk=512):
    x, wx = _panel_nodes(M, g, w)
    C = F.coeff_matrix()
    total = 0.0 + 0.0j
    for lo in range(0, x.size, row_chunk):
        xs = x[lo : lo + row_chunk]
        vals = np.polynomial.polynomial.polygrid2d(xs, x, C)
        total += wx[lo : lo + row_chunk] @ np.exp(2j * np.pi * vals) @ wx
    return complex(total), x.size**2


def osc_integral(F: PolySpec, tol: float = 1e-8, max_evals: int = 2**26) -> QuadResult:
    """Evaluate J(F) with an error estimate.

    Deterministic for fixed inputs.  Raises PanelBudgetError when the panel
    count needed to reach tol would exceed max_evals function evaluations.
    """
    _check_tol(tol)
    V = _phase_variation(F)
    if V == 0.0:
        return QuadResult(1.0 + 0.0j, 0.0, 1)

    reduced = F.m == 1
    if reduced:
        a, b = _reduced_profiles(F)

    M = max(2, int(np.ceil(V / PHASE_CYCLES_PER_PANEL)) + 2)
    best = None
    while True:
        cost = (ORDER_HIGH * M) + (ORDER_LOW * M) if reduced else \
            (ORDER_HIGH * M) ** 2 + (ORDER_LOW * M) ** 2
        if cost > max_evals:
            if best is not None and best.abs_error_estimate <= tol:
                return best
            raise PanelBudgetError(
                f"phase too large for tolerance {tol}: {M} panels exceed the "
                f"evaluation budget {max_evals}"
            )
        if reduced:
            hi, n_hi = _eval_reduced(a, b, M, _G12, _W12)
            lo, n_lo = _eval_reduced(a, b, M, _G8, _W8)
        else:
            hi, n_hi = _eval_tensor(F, M, _G12, _W12)
            lo, n_lo = _eval_tensor(F, M, _G8, _W8)
        err = abs(hi - lo)
        n_evals = n_hi + n_lo + (best.n_evals if best else 0)
        cand = QuadResult(hi, err, n_evals)
        # keep the smallest error seen so a tighter tol never worsens the estimate
        if best is None or cand.abs_error_estimate <= best.abs_error_estimate:
            best = QuadResult(cand.value, cand.abs_error_estimate, n_evals)
        else:
            best = QuadResult(best.value, best.abs_error_estimate, n_evals)
        if best.abs_error_estimate <= tol:
            return best
        M *= 2


def _log_bound(M: int, V: float, n: int) -> float:
    """Log of the order-12 Gauss-Legendre error bound for M panels, minimised over rho.

    The m = 1 integrand g(x) = exp(2 pi i A(x)) int_0^1 exp(2 pi i B(x) y) dy
    has |g(z)| <= exp(2 pi (|Im A(z)| + |Im B(z)|)).  The Bernstein ellipse
    E_rho of a panel of width h = 1/M holds |Im z| <= h b / 2 with
    b = (rho - 1/rho) / 2 and |z| <= r = 1 + h (rho - 1) / 2, so there
    |Im A| + |Im B| <= (h b / 2) V r^(n-1), where V = sum i (|a_i| + |b_i|).
    Trefethen (ATAP, Thm 19.3) bounds the error on one panel by
    (h / 2) (64/15) K rho^-24 / (rho^2 - 1), and the M panels sum to
    (32/15) K rho^-24 / (rho^2 - 1) with log K = pi h b V r^(n-1).
    """
    h = 1.0 / M
    log_k = (np.pi * h * V) * _RHO_B * (1.0 + 0.5 * h * (_RHO - 1.0)) ** (n - 1)
    return float(np.min(log_k - _RHO_LOG_DECAY))


def _panel_count(V: float, n: int, tol: float) -> int:
    """Smallest M whose bound _log_bound(M, V, n) is at most tol (rho on a grid)."""
    if V == 0.0:
        return 1
    # at r = 1 the bound solves for h on each rho; that M is exact for n = 1
    # and a lower limit for n > 1, where r > 1
    slack = math.log(tol) + _RHO_LOG_DECAY
    h = np.max(slack / (np.pi * V * _RHO_B))
    if h <= 0.0:
        raise ValueError(f"tol {tol} is below the reach of the order-12 error bound")
    M = math.ceil(1.0 / h)
    while _log_bound(M, V, n) > math.log(tol):
        M += 1
    return M


def batch_osc_m1(n: int, coeff_rows: np.ndarray, tol: float = 1e-8, workers: int = 1):
    """J values for a batch of coefficient vectors of (n, 1)-degree phases.

    coeff_rows has shape (S, N) in the graded index order.  The inner y
    integral is closed in elementary form; the remaining x integral uses an
    M-panel order-12 Gauss-Legendre rule per group of rows with similar
    phase variation V, M being the smallest panel count whose a-priori
    error bound (_log_bound, at the group's largest V) is at most tol.  So
    every value is within tol of J, up to round-off.  A tol below about
    1e-77 is out of the bound's reach and raises ValueError.  The phase is
    reduced to one cycle before the trig.

    Each group is cut into chunks of about CHUNK_NODES quadrature nodes, and
    the chunks run on up to `workers` threads.  The cut depends only on the
    rows and tol, so every value is bitwise independent of `workers`.
    """
    _check_tol(tol)
    rows = np.atleast_2d(np.asarray(coeff_rows, dtype=float))
    idx = monomial_indices(n, 1)
    a_cols = [c for c, (i, j) in enumerate(idx) if j == 0]
    b_cols = [c for c, (i, j) in enumerate(idx) if j == 1]
    a_pows = np.array([idx[c][0] for c in a_cols])
    b_pows = np.array([idx[c][0] for c in b_cols])
    rows_a = rows[:, a_cols]
    rows_b = rows[:, b_cols]

    V_all = np.abs(rows[:, a_cols + b_cols]) @ np.concatenate([a_pows, b_pows])
    order = np.argsort(V_all, kind="stable")
    V_sorted = V_all[order]
    tasks = []
    pos = 0
    while pos < order.size:
        # group samples of similar phase variation so panel counts stay tight
        V_lo = V_sorted[pos]
        end = int(np.searchsorted(V_sorted, max(2.0 * V_lo, V_lo + 4.0), side="right"))
        sel = order[pos:end]
        x, wts = _panel_nodes(_panel_count(V_sorted[end - 1], n, tol), _G12, _W12)
        # tables of x^i for A and x^i / 2 for B / 2, both in cycles
        xa = x[None, :] ** a_pows[:, None]
        xb = 0.5 * x[None, :] ** b_pows[:, None]
        chunk = max(1, CHUNK_NODES // x.size)
        tasks += [(sel[lo : lo + chunk], xa, xb, wts) for lo in range(0, sel.size, chunk)]
        pos = end

    def run(t: int) -> np.ndarray:
        # exp(2 pi i A) int_0^1 exp(2 pi i B y) dy = e^{2 pi i (A + B/2)} sin(pi B) / (pi B),
        # with A + B/2 and B/2 reduced by rint (odd, so J(-F) = conj J(F) bitwise)
        ss, xa, xb, wts = tasks[t]
        half_b = rows_b[ss] @ xb
        phase = rows_a[ss] @ xa
        phase += half_b
        work = np.rint(phase)
        phase -= work
        phase *= 2.0 * np.pi
        np.rint(half_b, out=work)
        np.subtract(half_b, work, out=work)
        work *= 2.0 * np.pi
        sinc = np.sin(work, out=work)
        pi_b = half_b
        pi_b *= 2.0 * np.pi
        zero = pi_b == 0.0
        pi_b[zero] = 1.0
        sinc[zero] = 1.0
        sinc /= pi_b
        work = np.cos(phase, out=pi_b)  # pi_b's buffer: three arrays per task
        work *= sinc
        re = work @ wts
        np.sin(phase, out=work)
        work *= sinc
        return re + 1j * (work @ wts)

    out = np.empty(rows.shape[0], dtype=complex)
    for (ss, *_), vals in zip(tasks, map_blocks(run, len(tasks), workers)):
        out[ss] = vals
    return out
