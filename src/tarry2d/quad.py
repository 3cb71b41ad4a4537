"""Oscillatory double integral over the unit square with polynomial phase.

J = int_0^1 int_0^1 exp(2 pi i F(x, y)) dx dy is evaluated by composite
Gauss-Legendre rules sized a priori from tol: a direction of degree n and
phase variation V gets the order q in ORDERS and M panels, the fewest nodes
q M whose Bernstein-ellipse error bound exp(_log_bound(q, M, V, n)) meets
its share of tol (_size, vectorised over phases).

A phase with n == 1 < m is first swapped to F(y, x) (_orient).  A phase
linear in y closes its inner integral, so only x takes a rule, sized at tol
with V = sum i |a_ij| (_kernel).  Any other takes a (qx Mx) x (qy My) tensor
rule (_tensor_kernel): from Q - I = Qx (Qy - Iy) + (Qx - Ix) Iy, with
weights positive and summing to 1, its error is at most E(qx, Mx; Vx, n) +
E(qy, My; Vy, m), Vx = sum i |a_ij|, Vy = sum j |a_ij|, each sized at tol / 2.
One driver, _batch_J, takes a batch of rows of any (n, m) through these
rules: batch_osc_m1 is the driver at m = 1, osc_integral on one row.  A rule
beyond the MAX_NODES budget raises PanelBudgetError before any node is built.
The kernels work in views of a per-thread pool (_work): no call allocates its work arrays.
Every cos and sin is formed by _cos_sin from tan(pi p) at a phase p in cycles
reduced by rint, within 4.5e-16 of the exact value: float64 round-off, as libm's.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

from .parallel import map_blocks
from .poly import PolySpec, monomial_indices

ORDERS = (8, 12, 16, 24, 32)  # Gauss-Legendre orders a rule may take
# Nodes per batch_osc_m1 task and tensor-rule chunk: work arrays stay in a 2 MB L2.
CHUNK_NODES = 1 << 16
MAX_NODES = 1 << 26  # node budget of one J, and of each direction of the tensor rule
_local = threading.local()  # each thread's kernel work pool, made on first use

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


def osc_integral(F: PolySpec, tol: float = 1e-8) -> QuadResult:
    """J(F) within tol by _batch_J on one row.  abs_error_estimate is the rule's
    a-priori bound (at most tol), n_evals its node count; PanelBudgetError, before
    any node is built, if that count would exceed MAX_NODES."""
    _check_tol(tol)
    n, m, row = _orient(F.n, F.m, F.coeff_vector())
    if not row.any():
        return QuadResult(1.0 + 0.0j, 0.0, 1)
    (value,), rules = _batch_J(n, m, row[None, :], tol)
    bound = sum(math.exp(_log_bound(q[0], M[0], V[0], d)) if V[0] else 0.0  # 0 where F is flat
                for (V, q, M), d in zip(rules, (n, m)))
    return QuadResult(complex(value), bound, math.prod(int(q[0] * M[0]) for _, q, M in rules))


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

    The bound is linear in V at fixed rho, and M panels hold V up to M c_q at
    r = 1, so M = ceil(V / c_q): exact for n = 1, and for n > 1 a lower limit
    that rows short of tol, unless already beaten by an order taken before,
    step up one panel at a time (V sorted once, no sort a step).  ValueError if
    tol is beyond every order's reach; PanelBudgetError if a V needs over
    MAX_NODES nodes at every order, checked before any product V overflows.
    """
    V = np.atleast_1d(np.asarray(V, dtype=float))
    slack = math.log(tol) + _RHO_LOG_DECAY  # orders x rho
    c = np.max(slack / _rate(1, 1), axis=1)  # c_q
    if c[-1] <= 0.0:
        raise ValueError(f"tol {tol} is below the reach of the error bound")
    by_V = np.argsort(V) if n > 1 else slice(None)  # M0 is monotone in V, and stays so
    Vs, key, top = V[by_V], np.full(V.size, np.inf), 8 * MAX_NODES + 8  # key: min of 8 q M + order
    with np.errstate(over="ignore"):  # a V past 1e300 fails the budget check below
        for o in np.flatnonzero(c > 0.0)[::-1]:  # the highest order first, whose keys prune most
            M = np.maximum(np.ceil(Vs / c[o]), 1.0)
            live = np.flatnonzero(M * (8 * ORDERS[o]) + o < np.minimum(key, top)) if n > 1 else ()
            while len(live):  # rows short of tol that may still win take one more panel
                run = np.flatnonzero(np.diff(M[live], prepend=0.0))  # first row of each M
                cap = np.max(slack[o] / _rate(M[live[run]], n), axis=1)
                live = live[Vs[live] > np.repeat(cap, np.diff(run, append=len(live)))]
                M[live] += 1.0
            np.minimum(key, M * (8 * ORDERS[o]) + o, out=key)  # stays nan for a nan V
    key[by_V] = key.copy()
    if not np.all(key < top):  # key < top iff q M <= MAX_NODES, iff M <= MAX_NODES // q
        raise PanelBudgetError(
            f"phase too large for tolerance {tol}: variation "
            f"{np.max(V[~(key < top)]):.3g} needs over {MAX_NODES} nodes")
    q = np.array(ORDERS)[key.astype(np.int64) & 7]
    return q, key.astype(np.int64) // (8 * q)


def _work(shape, count: int) -> list:
    """count float arrays of shape, views 64 bytes apart in this thread's pool; one request
    of over four arrays of 2 CHUNK_NODES floats (a huge row's) gets fresh arrays instead."""
    size, step = math.prod(shape), -(-math.prod(shape) // 8) * 8
    pool = getattr(_local, "pool", None)
    if pool is None or pool.size < count * step:
        pool = np.empty(count * step)
        if pool.size <= 8 * CHUNK_NODES:  # a task: CHUNK_NODES plus one row's nodes
            _local.pool = pool
    return [pool[k * step : k * step + size].reshape(shape) for k in range(count)]


def _cos_sin(p: np.ndarray, c: np.ndarray, s: np.ndarray, d: np.ndarray | None = None):
    """cos 2 pi p and sin 2 pi p into c (unless None) and s (may be p; d takes t^2), p in cycles
    reduced by rint to [-1/2, 1/2], from t = tan(pi p) (one vectorised loop, unlike libm's) as
    (1 - t^2) / (1 + t^2) and 2t / (1 + t^2): within 4.5e-16, cos even and sin odd bitwise."""
    t = np.tan(np.multiply(p, np.pi, out=s), out=s)
    d = np.square(t, out=d)
    c = c if c is None else np.subtract(1.0, d, out=c)
    d += 1.0
    return c if c is None else np.divide(c, d, out=c), np.divide(np.add(t, t, out=t), d, out=t)


def _m1_tables(n: int, q: int, M: int):
    """x-power tables of A and of B / 2 (zero in the other's columns) and weights, M-panel order-q rule."""
    x, wts = _panel_nodes(M, *_gauss(q))
    i, j = np.array(monomial_indices(n, 1)).T[:, :, None]
    return np.where(j == 0, x**i, 0.0), np.where(j == 1, 0.5 * x**i, 0.0), wts


def _kernel(rows: np.ndarray, xa, xb, wts) -> np.ndarray:
    """J of rows on one rule, in four rows x nodes work arrays of the pool: exp(2 pi i A)
    int_0^1 exp(2 pi i B y) dy = e^{2 pi i (A + B/2)} sin(pi B) / (pi B), with A + B/2 and
    r = B/2 reduced by rint and their cos and sin from _cos_sin (sin(pi B) = sin 2 pi r),
    each within 4.5e-16 of the exact value; odd, so J(-F) = conj J(F) bitwise.  The sinc is 1
    where |pi B| < 1e-300, as 1 - (pi B)^2 / 6 rounds to 1: a quotient of subnormals is not."""
    half_b, phase, work, sq = _work((len(rows), wts.size), 4)
    np.matmul(rows, xb, out=half_b)
    np.add(np.matmul(rows, xa, out=phase), half_b, out=phase)
    phase -= np.rint(phase, out=work)
    np.subtract(half_b, np.rint(half_b, out=work), out=work)
    _, sinc = _cos_sin(work, None, work, sq)
    pi_b = np.multiply(half_b, 2.0 * np.pi, out=half_b)
    zero = np.abs(pi_b, out=sq) < 1e-300
    pi_b[zero], sinc[zero] = 1.0, 1.0
    sinc /= pi_b
    cos, sin = _cos_sin(phase, half_b, phase, sq)  # pi B is spent: its array takes cos
    cos *= sinc
    sin *= sinc
    return cos @ wts + 1j * (sin @ wts)


def _tensor_kernel(n: int, m: int, rows: np.ndarray, qx: int, Mx: int, qy: int, My: int):
    """J of (n, m) rows on the (qx Mx) x (qy My) tensor rule, wx^T exp(2 pi i Px^T C Py) wy
    per row, the phase reduced by rint (odd, so J(-F) = conj J(F) bitwise) and x cut
    into chunks of about CHUNK_NODES nodes when the rows hold more, in three pool arrays."""
    (x, wx), (y, wy) = _panel_nodes(Mx, *_gauss(qx)), _panel_nodes(My, *_gauss(qy))
    i, j = np.array(monomial_indices(n, m)).T
    C = np.zeros((len(rows), n + 1, m + 1))
    C[:, i, j] = rows
    CPy = C @ y ** np.arange(m + 1)[:, None]  # rows x (n + 1) x y nodes
    step = max(1, CHUNK_NODES // (len(rows) * y.size))
    re, im = np.zeros(len(rows)), np.zeros(len(rows))
    for lo in range(0, x.size, step):
        phase, work, sq = _work((len(rows), len(x[lo : lo + step]), y.size), 3)
        np.matmul(x[lo : lo + step, None] ** np.arange(n + 1), CPy, out=phase)  # rows x chunk x y
        phase -= np.rint(phase, out=work)
        cos, sin = _cos_sin(phase, work, phase, sq)
        re += cos @ wy @ wx[lo : lo + step]
        im += sin @ wy @ wx[lo : lo + step]
    return re + 1j * im


def _batch_J(n: int, m: int, rows: np.ndarray, tol: float, workers: int = 1):
    """J of the (S, N) rows of oriented (n, m) phases (see _orient), and per direction,
    x then y, the rows' variations and rules (V, q, M), from one _size call each.

    ValueError if tol is beyond the bound's reach, PanelBudgetError if a rule needs
    over MAX_NODES nodes in a direction or in all, both before any node is
    built.  Rows sorted by rule are cut into tasks of about CHUNK_NODES nodes, which
    may span rules, run on up to `workers` threads; the cut depends only on the rows
    and tol, so every value is bitwise independent of `workers`."""
    pows = [np.array(p, dtype=float) for p in zip(*monomial_indices(n, m))][: 1 + (m > 1)]
    try:
        with np.errstate(over="ignore"):  # an infinite variation raises PanelBudgetError
            rules = [(V, *_size(V, d, tol if m == 1 else tol / 2))
                     for V, d in zip([np.abs(rows) @ p for p in pows], (n, m))]
    except ValueError:  # tol / 2 beyond the reach, or 0 for the least tol: name tol
        raise ValueError(f"tol {tol} is below the reach of the error bound") from None
    nodes = math.prod(q * M for _, q, M in rules)
    if np.max(nodes) > MAX_NODES:
        raise PanelBudgetError(
            f"phase too large for tolerance {tol}: {np.max(nodes)} nodes > {MAX_NODES}")
    keys = [k for _, q, M in rules for k in (q, M)]
    order = np.lexsort(keys[::-1])
    rows, nodes, keys = rows[order], nodes[order], [k[order] for k in keys]
    task = (np.cumsum(nodes) - nodes) // CHUNK_NODES  # by the row's first node
    # segments: runs of rows on one rule within one task
    lo = np.flatnonzero(functools.reduce(
        np.bitwise_or, [np.diff(k, prepend=0) for k in keys], np.diff(task, prepend=-1)))
    hi = np.append(lo[1:], len(rows))
    tasks = np.split(np.arange(lo.size), np.flatnonzero(np.diff(task[lo])) + 1)
    kernel = (functools.partial(_tensor_kernel, n, m) if m > 1
              else lambda r, q, M: _kernel(r, *_m1_tables(n, q, M)))

    def run(t: int) -> np.ndarray:  # a segment's tables live only while it runs
        return np.concatenate([kernel(rows[lo[s] : hi[s]], *(k[lo[s]] for k in keys))
                               for s in tasks[t]])

    out = np.empty(len(rows), dtype=complex)
    out[order] = np.concatenate(map_blocks(run, len(tasks), workers))
    return out, rules


def batch_osc_m1(n: int, coeff_rows: np.ndarray, tol: float = 1e-8, workers: int = 1):
    """J values for (S, N) coefficient rows of (n, 1)-degree phases in the graded
    index order: _batch_J at m = 1.  The inner y integral is closed in elementary
    form, and each row's x rule has an a-priori error bound of at most tol."""
    _check_tol(tol)
    return _batch_J(n, 1, np.atleast_2d(np.asarray(coeff_rows, dtype=float)), tol, workers)[0]
