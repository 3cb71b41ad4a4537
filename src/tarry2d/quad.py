"""Oscillatory double integral over the unit square with polynomial phase.

J = int_0^1 int_0^1 exp(2 pi i F(x, y)) dx dy is evaluated by composite
Gauss-Legendre rules sized a priori from tol: a direction of degree n and
phase variation V gets the order q in ORDERS and M panels, the fewest nodes
q M whose Bernstein-ellipse error bound exp(_log_bound(q, M, V, n)) meets
its share of tol (_size, vectorised over phases).

A phase with n == 1 < m is first swapped to F(y, x) (_orient).  A phase
linear in y closes its inner integral, so only x takes a rule, sized at tol
with V = sum i |a_ij| (batch_osc_m1: many phases, each on its own rule).  Any
other takes a (qx Mx) x (qy My) tensor rule: from Q - I = Qx (Qy - Iy) +
(Qx - Ix) Iy, with weights positive and summing to 1, its error is at most
E(qx, Mx; Vx, n) + E(qy, My; Vy, m), Vx = sum i |a_ij|, Vy = sum j |a_ij|,
each sized at tol / 2.  A rule beyond the MAX_NODES budget raises
PanelBudgetError before any node is built.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .parallel import map_blocks
from .poly import PolySpec, monomial_indices

ORDERS = (8, 12, 16, 24, 32)  # Gauss-Legendre orders a rule may take
# Nodes per batch_osc_m1 task and tensor-rule chunk: work arrays stay in a 2 MB L2.
CHUNK_NODES = 1 << 16
MAX_NODES = 1 << 26  # node budget of one J, and of each direction of the tensor rule

# Bernstein ellipse parameters for the error bound (see _log_bound):
# b = (rho - 1/rho) / 2 and, per order q (rows), log of rho^(2q - 2) (rho^2 - 1) 15/32
_RHO = 1.0 + np.geomspace(1e-2, 1e3, 256)
_RHO_B = 0.5 * (_RHO - 1.0 / _RHO)
_RHO_LOG_DECAY = (2 * np.log(_RHO) * (np.array(ORDERS)[:, None] - 1)
                  + np.log(_RHO**2 - 1.0) + math.log(15 / 32))


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


@functools.cache
def _gauss(q: int):
    """Gauss-Legendre nodes and weights of order q on [-1, 1], built on first use."""
    return np.polynomial.legendre.leggauss(q)


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


def _eval_tensor(C: np.ndarray, rule_x, rule_y) -> complex:
    """Tensor rule of (nodes, weights) rule_x and rule_y for coefficients C, in CHUNK_NODES chunks."""
    (x, wx), (y, wy) = rule_x, rule_y
    step = max(1, CHUNK_NODES // y.size)
    total = 0.0 + 0.0j
    for lo in range(0, x.size, step):
        vals = np.polynomial.polynomial.polygrid2d(x[lo : lo + step], y, C)
        vals -= np.rint(vals)
        total += wx[lo : lo + step] @ np.exp(2j * np.pi * vals) @ wy
    return complex(total)


def osc_integral(F: PolySpec, tol: float = 1e-8, max_evals: int = MAX_NODES) -> QuadResult:
    """J(F) within tol by the rule of the module docstring, sized once.

    abs_error_estimate is that rule's a-priori bound (at most tol), n_evals
    its node count.  Raises PanelBudgetError, before building any node, when
    that count would exceed max_evals.  Deterministic for fixed inputs.
    """
    _check_tol(tol)
    n, m, row = _orient(F.n, F.m, F.coeff_vector())
    if not row.any():
        return QuadResult(1.0 + 0.0j, 0.0, 1)
    with np.errstate(over="ignore"):  # an infinite variation raises PanelBudgetError
        Vx, Vy = np.abs(row) @ np.array(monomial_indices(n, m))
    rules, bound = [], 0.0  # (q, M) of x, then of y for the tensor rule
    for V, d in [(Vx, n), (Vy, m)][: 1 + (m > 1)]:
        (q,), (M,) = _size(V, d, tol if m == 1 else tol / 2)
        rules.append((q, M))
        bound += math.exp(_log_bound(q, M, V, d)) if V else 0.0  # 0 where F does not vary
    nodes = math.prod(int(q * M) for q, M in rules)
    if nodes > max_evals:
        raise PanelBudgetError(f"phase too large for tolerance {tol}: {nodes} nodes > {max_evals}")
    if m == 1:
        value = _kernel(row[None, :], *_m1_tables(n, *rules[0]))[0]
    else:
        value = _eval_tensor(F.coeff_matrix(), *(_panel_nodes(M, *_gauss(q)) for q, M in rules))
    return QuadResult(complex(value), bound, nodes)


def _rate(M, n: int) -> np.ndarray:
    """log K / V on each rho of the grid (last axis) for M panels; see _log_bound."""
    h = 1.0 / np.asarray(M, dtype=float)[..., None]
    return np.pi * h * _RHO_B * (1.0 + 0.5 * h * (_RHO - 1.0)) ** (n - 1)


def _log_bound(q: int, M: int, V: float, n: int) -> float:
    """Log of the order-q Gauss-Legendre error bound for M panels, minimised over rho.

    The m = 1 integrand g(x) = exp(2 pi i A(x)) int_0^1 exp(2 pi i B(x) y) dy
    has |g(z)| <= exp(2 pi (|Im A(z)| + |Im B(z)|)).  The Bernstein ellipse
    E_rho of a panel of width h = 1/M holds |Im z| <= h b / 2 with
    b = (rho - 1/rho) / 2 and |z| <= r = 1 + h (rho - 1) / 2, so there
    |Im A| + |Im B| <= (h b / 2) V r^(n-1), where V = sum i (|a_i| + |b_i|).
    Trefethen (ATAP, Thm 19.3, whose n + 1 nodes are q here) bounds the
    error of q nodes on one panel by (h / 2) (64/15) K rho^(2 - 2q) / (rho^2 - 1),
    and the M panels sum to (32/15) K rho^(2 - 2q) / (rho^2 - 1) with
    log K = pi h b V r^(n-1).
    """
    return float(np.min(V * _rate(M, n) - _RHO_LOG_DECAY[ORDERS.index(q)]))


def _size(V, n: int, tol: float):
    """(q, M) per variation in V: the fewest nodes q M, q in ORDERS, whose
    bound _log_bound(q, M, V, n) is at most tol (ties to the lower order).

    The bound is linear in V at fixed rho, and M panels hold V up to M c_q
    at r = 1, so M = ceil(V / c_q): exact for n = 1, and for n > 1 a lower
    limit that rows short of tol step up one panel at a time.  ValueError if
    tol is beyond every order's reach; PanelBudgetError if a V needs over
    MAX_NODES nodes at every order, checked before any product V overflows.
    """
    V = np.atleast_1d(np.asarray(V, dtype=float))
    slack = math.log(tol) + _RHO_LOG_DECAY  # orders x rho
    c = np.max(slack / _rate(1, 1), axis=1)  # c_q
    if c[-1] <= 0.0:
        raise ValueError(f"tol {tol} is below the reach of the error bound")
    q = np.array(ORDERS)[:, None]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        M = np.maximum(np.ceil(V / c[:, None]), 1.0)  # orders x rows
    for o in np.flatnonzero(c > 0.0) if n > 1 else ():
        live = np.flatnonzero(M[o] <= MAX_NODES // q[o])
        while live.size:  # rows still short of tol take one more panel
            Ms, at = np.unique(M[o, live], return_inverse=True)
            live = live[V[live] > np.max(slack[o] / _rate(Ms, n), axis=1)[at]]
            M[o, live] += 1.0
    M[~((M <= MAX_NODES // q) & (c[:, None] > 0.0))] = np.inf  # over budget, nan V, or out of reach
    best = np.argmin(q * M, axis=0)  # fewest nodes; ties to the lower order
    M = M[best, np.arange(V.size)]
    if not np.all(np.isfinite(M)):
        raise PanelBudgetError(
            f"phase too large for tolerance {tol}: variation "
            f"{np.max(V[~np.isfinite(M)]):.3g} needs over {MAX_NODES} nodes")
    return q[best, 0], M.astype(np.int64)


def _m1_tables(n: int, q: int, M: int):
    """x-power tables of A and of B / 2 (zero in the other's columns) and weights, M-panel order-q rule."""
    x, wts = _panel_nodes(M, *_gauss(q))
    i, j = np.array(monomial_indices(n, 1)).T[:, :, None]
    return np.where(j == 0, x**i, 0.0), np.where(j == 1, 0.5 * x**i, 0.0), wts


def _kernel(rows: np.ndarray, xa, xb, wts) -> np.ndarray:
    """J of rows on one rule, in three rows x nodes work arrays: exp(2 pi i A) int_0^1
    exp(2 pi i B y) dy = e^{2 pi i (A + B/2)} sin(pi B) / (pi B), with A + B/2 and
    B/2 reduced by rint (odd, so J(-F) = conj J(F) bitwise)."""
    half_b = rows @ xb
    phase = rows @ xa
    phase += half_b
    work = np.rint(phase)
    phase -= work
    phase *= 2.0 * np.pi
    np.rint(half_b, out=work)
    np.subtract(half_b, work, out=work)
    work *= 2.0 * np.pi
    sinc = np.sin(work, out=work)
    pi_b = np.multiply(half_b, 2.0 * np.pi, out=half_b)
    zero = pi_b == 0.0
    pi_b[zero] = 1.0
    sinc[zero] = 1.0
    sinc /= pi_b
    work = np.cos(phase, out=pi_b)  # pi_b's buffer: three arrays per segment
    work *= sinc
    re = work @ wts
    np.sin(phase, out=work)
    work *= sinc
    return re + 1j * (work @ wts)


def batch_osc_m1(n: int, coeff_rows: np.ndarray, tol: float = 1e-8, workers: int = 1):
    """J values for a batch of coefficient vectors of (n, 1)-degree phases.

    coeff_rows has shape (S, N) in the graded index order.  The inner y
    integral is closed in elementary form; the x integral takes, row by row,
    the rule _size gives the row's phase variation V, whose a-priori error
    bound is at most tol, so every value is within tol of J up to round-off.
    A tol below about 1e-191 raises ValueError, and a rule beyond MAX_NODES
    PanelBudgetError, before any node is built.

    Rows sorted by rule (q, M) are cut into tasks of about CHUNK_NODES nodes,
    which may span rules, and the tasks run on up to `workers` threads.  The
    cut depends only on the rows and tol, so every value is bitwise
    independent of `workers`.
    """
    _check_tol(tol)
    rows = np.atleast_2d(np.asarray(coeff_rows, dtype=float))
    with np.errstate(over="ignore"):  # an infinite variation raises PanelBudgetError
        V = np.abs(rows) @ np.array([i for i, _ in monomial_indices(n, 1)], dtype=float)
    q, M = _size(V, n, tol)
    order = np.lexsort((M, q))
    rows, q, M = rows[order], q[order], M[order]
    nodes = q * M
    task = (np.cumsum(nodes) - nodes) // CHUNK_NODES  # by the row's first node
    # segments: runs of rows on one rule within one task
    lo = np.flatnonzero(np.diff(task, prepend=-1) | np.diff(q, prepend=0) | np.diff(M, prepend=0))
    hi = np.append(lo[1:], q.size)
    tasks = np.split(np.arange(lo.size), np.flatnonzero(np.diff(task[lo])) + 1)

    def run(t: int) -> np.ndarray:  # a segment's tables live only while it runs
        return np.concatenate([
            _kernel(rows[lo[s] : hi[s]], *_m1_tables(n, q[lo[s]], M[lo[s]])) for s in tasks[t]])

    out = np.empty(q.size, dtype=complex)
    out[order] = np.concatenate(map_blocks(run, len(tasks), workers))
    return out
