"""Oscillatory double integral over the unit square with polynomial phase.

J = int_0^1 int_0^1 exp(2 pi i F(x, y)) dx dy is evaluated by order-12
Gauss-Legendre panels sized a priori from tol: a direction of degree n and
phase variation V gets the fewest panels M whose Bernstein-ellipse error
bound exp(_log_bound(M, V, n)) meets its share of tol (_panel_count).

A phase with n == 1 < m is first swapped to F(y, x) (_orient).  A phase
linear in y closes its inner integral, so only x takes a rule, sized at tol
with V = sum i |a_ij| (batch_osc_m1, many phases at once).  Any other takes
an Mx x My tensor rule: from Q - I = Qx (Qy - Iy) + (Qx - Ix) Iy, with
weights positive and summing to 1, its error is at most E(Mx; Vx, n) +
E(My; Vy, m), Vx = sum i |a_ij|, Vy = sum j |a_ij|, each sized at tol / 2.
A panel count beyond the MAX_NODES budget raises PanelBudgetError before
any node is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .parallel import map_blocks
from .poly import PolySpec, monomial_indices

PHASE_CYCLES_PER_PANEL = 0.5  # parseval_check's x panels
ORDER_HIGH = 12
# Nodes per batch_osc_m1 task and tensor-rule chunk: work arrays stay in a 2 MB L2.
CHUNK_NODES = 1 << 16
MAX_NODES = 1 << 26  # node budget of one J, and of each direction of the tensor rule

_G12, _W12 = np.polynomial.legendre.leggauss(ORDER_HIGH)

# Bernstein ellipse parameters for the error bound (see _log_bound):
# b = (rho - 1/rho) / 2 and log of rho^(2 ORDER_HIGH) (rho^2 - 1) 15/32
_RHO = 1.0 + np.geomspace(1e-2, 1e3, 256)
_RHO_B = 0.5 * (_RHO - 1.0 / _RHO)
_RHO_LOG_DECAY = 2 * ORDER_HIGH * np.log(_RHO) + np.log(_RHO**2 - 1.0) + math.log(15 / 32)


class PanelBudgetError(RuntimeError):
    """Raised when honoring the tolerance would exceed the node budget."""


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


def _orient(n: int, m: int, rows: np.ndarray):
    """(n, m, rows), swapped to F(y, x) when n == 1 < m so the phase is linear in y;
    the swap permutes the columns of rows into the graded order of (m, n)."""
    if not n == 1 < m:
        return n, m, rows
    pos = {ij: c for c, ij in enumerate(monomial_indices(n, m))}
    return m, n, rows[..., [pos[(j, i)] for i, j in monomial_indices(m, n)]]


def _eval_tensor(C: np.ndarray, Mx: int, My: int) -> complex:
    """Mx x My-panel order-12 tensor rule for the coefficient matrix C, in row chunks."""
    x, wx = _panel_nodes(Mx, _G12, _W12)
    y, wy = _panel_nodes(My, _G12, _W12)
    step = max(1, CHUNK_NODES // y.size)
    total = 0.0 + 0.0j
    for lo in range(0, x.size, step):
        vals = np.polynomial.polynomial.polygrid2d(x[lo : lo + step], y, C)
        vals -= np.rint(vals)
        total += wx[lo : lo + step] @ np.exp(2j * np.pi * vals) @ wy
    return complex(total)


def osc_integral(F: PolySpec, tol: float = 1e-8, max_evals: int = MAX_NODES) -> QuadResult:
    """J(F) within tol by the rule of the module docstring (m = 1: batch_osc_m1).

    abs_error_estimate is its a-priori bound (at most tol), n_evals its node
    count.  Raises PanelBudgetError, before building any node, when that
    count would exceed max_evals.  Deterministic for fixed inputs.
    """
    _check_tol(tol)
    n, m, row = _orient(F.n, F.m, F.coeff_vector())
    if not row.any():
        return QuadResult(1.0 + 0.0j, 0.0, 1)
    with np.errstate(over="ignore"):  # an infinite variation raises PanelBudgetError
        Vx, Vy = np.abs(row) @ np.array(monomial_indices(n, m))
    if m == 1:
        M = _panel_count(Vx, n, tol)
        nodes, bound = ORDER_HIGH * M, _bound(M, Vx, n)
    else:
        Mx, My = _panel_count(Vx, n, tol / 2), _panel_count(Vy, m, tol / 2)
        nodes, bound = ORDER_HIGH**2 * Mx * My, _bound(Mx, Vx, n) + _bound(My, Vy, m)
    if nodes > max_evals:
        raise PanelBudgetError(f"phase too large for tolerance {tol}: {nodes} nodes > {max_evals}")
    if m == 1:
        # rows passed positionally: perfbench's spans read them from args[1]
        value = batch_osc_m1(n, row[None, :], tol)[0]
    else:
        value = _eval_tensor(F.coeff_matrix(), Mx, My)
    return QuadResult(complex(value), bound, nodes)


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
    """Smallest M whose bound _log_bound(M, V, n) is at most tol (rho on a grid).

    Raises PanelBudgetError when M panels would hold more than MAX_NODES
    nodes; the check comes first, so no V, however large, overflows.
    """
    if V == 0.0:
        return 1
    slack = math.log(tol) + _RHO_LOG_DECAY
    if np.max(slack) <= 0.0:
        raise ValueError(f"tol {tol} is below the reach of the order-12 error bound")
    # at r = 1 the bound solves for h on each rho; that M is exact for n = 1
    # and a lower limit for n > 1, where r > 1
    max_panels = MAX_NODES // ORDER_HIGH
    M = max_panels + 1
    if V <= np.max(slack / (np.pi * _RHO_B)) * max_panels:
        M = math.ceil(1.0 / np.max(slack / (np.pi * V * _RHO_B)))
        while M <= max_panels and _log_bound(M, V, n) > math.log(tol):
            M += 1
    if M > max_panels:
        raise PanelBudgetError(
            f"phase too large for tolerance {tol}: variation {V:.3g} needs over {MAX_NODES} nodes")
    return M


def _bound(M: int, V: float, n: int) -> float:
    """The error bound exp(_log_bound(M, V, n)); 0 for a direction the phase does not vary in."""
    return math.exp(_log_bound(M, V, n)) if V else 0.0


def batch_osc_m1(n: int, coeff_rows: np.ndarray, tol: float = 1e-8, workers: int = 1):
    """J values for a batch of coefficient vectors of (n, 1)-degree phases.

    coeff_rows has shape (S, N) in the graded index order.  The inner y
    integral is closed in elementary form; the remaining x integral uses an
    M-panel order-12 Gauss-Legendre rule per group of rows with similar
    phase variation V, M being the smallest panel count whose a-priori
    error bound (_log_bound, at the group's largest V) is at most tol.  So
    every value is within tol of J, up to round-off.  A tol below about
    1e-77 raises ValueError, and an M beyond MAX_NODES PanelBudgetError,
    before any nodes are built.  The phase is reduced to one cycle first.

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
    groups = []
    pos = 0
    while pos < order.size:
        # group samples of similar phase variation so panel counts stay tight
        V_lo = V_sorted[pos]
        end = int(np.searchsorted(V_sorted, max(2.0 * V_lo, V_lo + 4.0), side="right"))
        groups.append((order[pos:end], _panel_count(V_sorted[end - 1], n, tol)))
        pos = end
    tasks = []
    for sel, M in groups:  # every group is within the node budget
        x, wts = _panel_nodes(M, _G12, _W12)
        # tables of x^i for A and x^i / 2 for B / 2, both in cycles
        xa = x[None, :] ** a_pows[:, None]
        xb = 0.5 * x[None, :] ** b_pows[:, None]
        chunk = max(1, CHUNK_NODES // x.size)
        tasks += [(sel[lo : lo + chunk], xa, xb, wts) for lo in range(0, sel.size, chunk)]

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
