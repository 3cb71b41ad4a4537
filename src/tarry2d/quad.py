"""Oscillatory double integral over the unit square with polynomial phase.

The integral J = int_0^1 int_0^1 exp(2 pi i F(x, y)) dx dy is evaluated by
panel-wise Gauss-Legendre rules.  The unit square (or unit interval, when the
phase is linear in y and the inner integral closes in elementary form) is cut
into panels small enough that the phase varies by at most a fixed fraction of
a cycle per panel; each panel uses an order-12 rule, with the error estimated
against an order-8 rule on the same panels.
"""

from __future__ import annotations

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


class PanelBudgetError(RuntimeError):
    """Raised when honoring the tolerance would exceed the panel budget."""


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
    if tol <= 0:
        raise ValueError("tol must be positive")
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


def batch_osc_m1(n: int, coeff_rows: np.ndarray, workers: int = 1):
    """J values for a batch of coefficient vectors of (n, 1)-degree phases.

    coeff_rows has shape (S, N) in the graded index order.  The inner y
    integral is closed in elementary form; the remaining x integral uses a
    composite Gauss-Legendre rule sized from the worst phase variation in
    each group of rows with similar variation.  Deterministic; no error
    estimate (panel count is conservative).

    Each group is cut into chunks of about CHUNK_NODES quadrature nodes, and
    the chunks run on up to `workers` threads.  The cut depends only on the
    rows, so every value is bitwise independent of `workers`.
    """
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
        M = max(2, int(np.ceil(V_sorted[end - 1] / PHASE_CYCLES_PER_PANEL)) + 2)
        x, wts = _panel_nodes(M, _G12, _W12)
        # exp(2 pi i A) int_0^1 exp(2 pi i B y) dy = e^{i (2 pi A + pi B)} sin(pi B) / (pi B)
        xa = 2.0 * np.pi * x[None, :] ** a_pows[:, None]
        xb = np.pi * x[None, :] ** b_pows[:, None]
        chunk = max(1, CHUNK_NODES // x.size)
        tasks += [(sel[lo : lo + chunk], xa, xb, wts) for lo in range(0, sel.size, chunk)]
        pos = end

    def run(t: int) -> np.ndarray:
        ss, xa, xb, wts = tasks[t]
        phase = rows_a[ss] @ xa
        pi_b = rows_b[ss] @ xb
        phase += pi_b
        sinc = np.sin(pi_b)
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
