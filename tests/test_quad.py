import math
import re
import sys
import threading
import tracemalloc
import weakref
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tarry2d import quad
from tarry2d.poly import PolySpec, monomial_count, monomial_indices
from tarry2d.quad import PanelBudgetError, batch_osc_m1, osc_integral
from tarry2d.rng import philox_stream, uniform32
from tarry2d.theta import _shell_bounds, _shell_rows


def midpoint_oracle(F, cells):
    # independent brute-force midpoint rule on a cells x cells grid
    t = (np.arange(cells) + 0.5) / cells
    total = 0.0 + 0.0j
    for lo in range(0, cells, 2048):
        xs = t[lo : lo + 2048]
        X, Y = np.broadcast_arrays(xs[:, None], t[None, :])
        vals = np.exp(2j * np.pi * F.eval(X, Y))
        total += vals.sum()
    return total / cells**2


def doubling_reference(F, tol):
    """J of an (n, 1) phase by an a-posteriori rule independent of the library's.

    The x integral of exp(2 pi i A(x)) times the closed-form y integral takes
    composite Gauss-Legendre rules of orders 12 and 8, starting at half a
    phase cycle per panel and doubling the panels until the two agree within
    tol; the order-12 value is returned.
    """
    assert F.m == 1
    a = np.zeros(F.n + 1)
    b = np.zeros(F.n + 1)
    for (i, j), v in F.coeffs.items():
        (b if j else a)[i] = v

    def rule(M, order):
        g, w = np.polynomial.legendre.leggauss(order)
        x = ((np.arange(M)[:, None] + (g + 1.0) / 2.0) / M).ravel()
        A = np.polynomial.polynomial.polyval(x, a)
        B = np.polynomial.polynomial.polyval(x, b)
        vals = np.exp(2j * np.pi * A) * (np.exp(1j * np.pi * B) * np.sinc(B))
        return complex(vals @ np.tile(w / (2.0 * M), M))

    V = sum(abs(v) * (i + j) for (i, j), v in F.coeffs.items())
    M = max(2, math.ceil(V / 0.5) + 2)
    while M < 1 << 22:
        hi = rule(M, 12)
        if abs(hi - rule(M, 8)) <= tol:
            return hi
        M *= 2
    raise AssertionError(f"reference did not reach tol {tol}")


def tensor_reference(C, rule_x, rule_y):
    """Tensor rule of (nodes, weights) rule_x and rule_y for the coefficient matrix C.

    The phase comes from polygrid2d, is reduced by rint and goes through a
    complex exp, x in chunks of about CHUNK_NODES nodes; the library forms
    Px^T C Py by matrix products and takes cos and sin.
    """
    (x, wx), (y, wy) = rule_x, rule_y
    step = max(1, quad.CHUNK_NODES // y.size)
    total = 0.0 + 0.0j
    for lo in range(0, x.size, step):
        vals = np.polynomial.polynomial.polygrid2d(x[lo : lo + step], y, C)
        vals -= np.rint(vals)
        total += wx[lo : lo + step] @ np.exp(2j * np.pi * vals) @ wy
    return complex(total)


def libm_kernel(rows, xa, xb, wts):
    # the m = 1 kernel's formula with np.cos and np.sin: e^{2 pi i (A + B/2)} sin(pi B) / (pi B),
    # A + B/2 and B/2 reduced by rint
    half_b = rows @ xb
    phase = rows @ xa + half_b
    phase = 2.0 * np.pi * (phase - np.rint(phase))
    pi_b = 2.0 * np.pi * half_b
    sin_pi_b = np.sin(2.0 * np.pi * (half_b - np.rint(half_b)))
    sinc = np.divide(sin_pi_b, pi_b, out=np.ones_like(pi_b), where=pi_b != 0.0)
    return (np.cos(phase) * sinc) @ wts + 1j * ((np.sin(phase) * sinc) @ wts)


def libm_tensor_kernel(n, m, rows, qx, Mx, qy, My):
    # the tensor kernel's formula with np.cos and np.sin, x in one chunk
    (x, wx), (y, wy) = quad._panel_nodes(Mx, *quad._gauss(qx)), quad._panel_nodes(My, *quad._gauss(qy))
    i, j = np.array(monomial_indices(n, m)).T
    C = np.zeros((len(rows), n + 1, m + 1))
    C[:, i, j] = rows
    phase = x[:, None] ** np.arange(n + 1) @ (C @ y ** np.arange(m + 1)[:, None])
    phase = 2.0 * np.pi * (phase - np.rint(phase))
    return np.cos(phase) @ wy @ wx + 1j * (np.sin(phase) @ wy @ wx)


def tensor_rows(rng, n, m, V_max, count):
    # random (n, m) rows rescaled to total variations sum (i + j) |a_ij| spread over 0..V_max
    idx = np.array(monomial_indices(n, m))
    rows = rng.uniform(-1.0, 1.0, (count, len(idx)))
    return rows * (np.linspace(0.0, V_max, count) / (np.abs(rows) @ idx.sum(axis=1)))[:, None]


def reference_size(V, n, tol):
    """(q, M) of one variation V by the rule stated in quad._size, or None past the budget.

    Each order q with c_q > 0 starts at ceil(V / c_q) panels and adds one panel at a time
    until V <= max over rho of slack / _rate(M, n); the fewest nodes q M win, ties to the
    lower order, and an order whose M passes MAX_NODES // q takes no part."""
    slack = math.log(tol) + quad._RHO_LOG_DECAY
    c = np.max(slack / quad._rate(1, 1), axis=1)
    best = None
    for o, q in enumerate(quad.ORDERS):
        if c[o] <= 0.0:
            continue
        M = max(math.ceil(V / c[o]), 1)
        while M <= quad.MAX_NODES // q and V > np.max(slack[o] / quad._rate(M, n)):
            M += 1
        if M <= quad.MAX_NODES // q and (best is None or q * M < best[0] * best[1]):
            best = (q, M)
    return best


def with_y_coeffs(n, rows, values):
    # copy of coefficient rows of an (n, 1) phase with the y-coefficients replaced
    cols = [c for c, (i, j) in enumerate(monomial_indices(n, 1)) if j == 1]
    rows = rows.copy()
    rows[:, cols] = values
    return rows


class TestValues:
    def test_zero_phase(self):
        res = osc_integral(PolySpec(1, 1, {}))
        assert res.value == 1.0 + 0.0j
        assert res.abs_error_estimate == 0.0

    def test_full_period_cancellation(self):
        res = osc_integral(PolySpec(1, 1, {(1, 0): 1.0}), tol=1e-10)
        assert abs(res.value) <= 1e-10

    def test_half_period_closed_form(self):
        # (e^{2 pi i a} - 1) / (2 pi i a) at a = 1/2 equals 2i/pi
        res = osc_integral(PolySpec(1, 1, {(1, 0): 0.5}), tol=1e-10)
        assert res.value == pytest.approx(2j / np.pi, abs=1e-10)

    @pytest.mark.parametrize("gamma", [0.3, 3.0, 30.0])
    def test_xy_phase_matches_closed_form(self, gamma):
        # J(gamma x y) = (Ci(a) - euler - ln a + i Si(a)) / (i a), a = 2 pi gamma
        res = osc_integral(PolySpec(1, 1, {(1, 1): gamma}), tol=1e-9)
        with mpmath.workdps(30):
            a = 2 * mpmath.pi * gamma
            exact = complex((mpmath.ci(a) - mpmath.euler - mpmath.log(a)
                             + 1j * mpmath.si(a)) / (1j * a))
        assert abs(res.value - exact) <= 1e-9

    def test_tensor_path_matches_reduced_path(self):
        # same phase declared with m = 2 forces the 2-D tensor rule
        got1 = osc_integral(PolySpec(1, 1, {(1, 1): 3.0}), tol=1e-9).value
        got2 = osc_integral(PolySpec(1, 2, {(1, 1): 3.0}), tol=1e-9).value
        assert got1 == pytest.approx(got2, abs=1e-9)

    def test_tensor_rule_matches_reduced_path(self):
        # declared (2, 2), the same phase still takes the 2-D tensor rule
        res = osc_integral(PolySpec(2, 2, {(1, 1): 3.0}), tol=1e-9)
        (q,), (M,) = quad._size(3.0, 2, 0.5e-9)
        assert res.n_evals == (q * M) ** 2
        got1 = osc_integral(PolySpec(1, 1, {(1, 1): 3.0}), tol=1e-9).value
        assert got1 == pytest.approx(res.value, abs=1e-9)

    def test_genuine_2d_phase_against_oracle(self):
        F = PolySpec(2, 2, {(1, 1): 1.2, (2, 2): 0.7, (0, 1): -0.4})
        res = osc_integral(F, tol=1e-9)
        assert abs(res.value - midpoint_oracle(F, 4096)) <= 1e-6


class TestInvariants:
    def test_conjugation_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            vec = rng.uniform(-5, 5, 3)
            F = PolySpec.from_vector(1, 1, vec)
            tol = 1e-8
            a = osc_integral(F, tol=tol).value
            b = osc_integral(PolySpec.from_vector(F.n, F.m, -F.coeff_vector()), tol=tol).value
            assert abs(b - np.conj(a)) <= 2 * tol

    def test_modulus_bound(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            F = PolySpec.from_vector(1, 1, rng.uniform(-20, 20, 3))
            res = osc_integral(F, tol=1e-6)
            assert abs(res.value) <= 1.0 + res.abs_error_estimate + 1e-6

    def test_refinement_monotonicity(self):
        F = PolySpec(2, 2, {(1, 1): 2.5, (2, 1): 1.0})
        errs = [osc_integral(F, tol=tol).abs_error_estimate
                for tol in (1e-4, 5e-5, 2.5e-5, 1e-8)]
        assert all(b <= a for a, b in zip(errs, errs[1:]))

    def test_separable_product(self):
        a, b = 0.8, -1.7

        def one_dim(c):
            if c == 0:
                return 1.0
            return (np.exp(2j * np.pi * c) - 1.0) / (2j * np.pi * c)

        F = PolySpec(1, 1, {(1, 0): a, (0, 1): b})
        res = osc_integral(F, tol=1e-9)
        assert res.value == pytest.approx(one_dim(a) * one_dim(b), abs=1e-9)

    def test_budget_error(self):
        # each direction's rule fits (12704 nodes), but their product, 1.6e8,
        # exceeds MAX_NODES = 2^26
        F = PolySpec(2, 2, {(2, 2): 2000})
        with pytest.raises(PanelBudgetError, match="phase too large"):
            osc_integral(F, tol=1e-12)

    @pytest.mark.parametrize("coeffs", [
        {(1, 0): 1e300}, {(1, 0): 1e308}, {(1, 1): 1e308}, {(2, 2): 1e300}, {(2, 2): 1e308},
    ])
    def test_huge_phase_exceeds_budget_at_once(self, coeffs):
        n = max(max(ij) for ij in coeffs)
        with pytest.raises(PanelBudgetError, match="phase too large"):
            osc_integral(PolySpec(n, n, coeffs), tol=1e-9)

    def test_batch_budget(self):
        # 1e9 x needs about 3e8 panels; 1e9 y is one panel, its y integral closed
        with pytest.raises(PanelBudgetError, match="phase too large"):
            batch_osc_m1(1, [[0.0, 1e9, 0.0]])
        assert batch_osc_m1(1, [[1e9, 0.0, 0.0]])[0] == 0.0

    def test_result_counts_evaluations(self):
        res = osc_integral(PolySpec(1, 1, {(1, 1): 1.0}), tol=1e-8)
        assert res.n_evals >= 1


def transpose(F):
    # F(y, x)
    return PolySpec(F.m, F.n, {(j, i): v for (i, j), v in F.coeffs.items()})


def mp_J(F):
    # 20-digit J of any phase by a 4 x 4-cell 2-D Gauss-Legendre rule
    mpmath.mp.dps = 20
    terms = [(i, j, mpmath.mpf(v)) for (i, j), v in F.coeffs.items()]

    def f(x, y):
        return mpmath.expjpi(2 * mpmath.fsum(v * x**i * y**j for i, j, v in terms))

    cuts = mpmath.linspace(0, 1, 5)
    val, err = mpmath.quad(f, cuts, cuts, method="gauss-legendre", error=True)
    assert err < 1e-13
    return complex(val)


class TestUnifiedRule:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 3), m=st.integers(1, 3), data=st.data())
    def test_swap_invariance(self, n, m, data):
        N = monomial_count(n, m)
        vec = data.draw(st.lists(st.floats(-4.0, 4.0), min_size=N, max_size=N))
        F = PolySpec.from_vector(n, m, vec)
        tol = 1e-8
        got = osc_integral(F, tol=tol).value
        assert abs(got - osc_integral(transpose(F), tol=tol).value) <= 2 * tol

    def test_tensor_row_chunks(self, monkeypatch):
        # a rule cut into several row chunks matches the same rule in one chunk
        F = PolySpec(3, 3, {(3, 3): 50.0, (1, 2): -25.0, (2, 0): 10.0})
        res = osc_integral(F, tol=1e-9)
        assert res.n_evals > 4 * quad.CHUNK_NODES
        monkeypatch.setattr(quad, "CHUNK_NODES", 1 << 40)
        assert osc_integral(F, tol=1e-9).value == pytest.approx(res.value, abs=1e-12)

    @pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (3, 2)])
    def test_tensor_rule_against_mpmath(self, n, m):
        rng = np.random.default_rng(40 + 4 * n + m)
        idx = monomial_indices(n, m)
        vec = rng.uniform(-1.0, 1.0, len(idx))
        vec *= 12.0 / (np.abs(vec) @ [i + j for i, j in idx])  # about 12 cycles
        F = PolySpec.from_vector(n, m, vec)
        want = mp_J(F)
        Vx = float(np.abs(vec) @ [i for i, _ in idx])
        Vy = float(np.abs(vec) @ [j for _, j in idx])
        for tol in (1e-6, 1e-9):
            res = osc_integral(F, tol=tol)
            assert abs(res.value - want) <= tol
            assert res.abs_error_estimate <= tol
            (qx,), (Mx,) = quad._size(Vx, n, tol / 2)
            (qy,), (My,) = quad._size(Vy, m, tol / 2)
            assert res.n_evals == qx * Mx * qy * My

    @pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (3, 2)])
    def test_batch_matches_tensor_reference(self, n, m):
        # a batch over at least three rules and three tasks: each value within
        # 1e-13 of tensor_reference on the row's rule, bitwise the same on any workers.
        # At a loose tol a neighbouring rule errs by far more than 1e-13
        rows = tensor_rows(np.random.default_rng(60 + 4 * n + m), n, m, 120.0, 40)
        tol = 1e-4
        got, rules = quad._batch_J(n, m, rows, tol)
        Vx, Vy = (np.abs(rows) @ np.array(monomial_indices(n, m))).T
        (qx, Mx), (qy, My) = quad._size(Vx, n, tol / 2), quad._size(Vy, m, tol / 2)
        for (_, q, M), want in zip(rules, [(qx, Mx), (qy, My)]):
            assert np.array_equal(q, want[0]) and np.array_equal(M, want[1])
        assert len(set(zip(qx, Mx, qy, My))) >= 3
        assert np.sum(qx * Mx * qy * My) > 3 * quad.CHUNK_NODES
        for workers in (2, 4):
            assert quad._batch_J(n, m, rows, tol, workers)[0].tobytes() == got.tobytes()
        for r, row in enumerate(rows):
            want = tensor_reference(
                PolySpec.from_vector(n, m, row).coeff_matrix(),
                quad._panel_nodes(Mx[r], *np.polynomial.legendre.leggauss(qx[r])),
                quad._panel_nodes(My[r], *np.polynomial.legendre.leggauss(qy[r])))
            assert abs(got[r] - want) <= 1e-13


class TestBatch:
    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(9)
        rows = np.vstack([
            rng.uniform(-8, 8, (40, 3)),
            # the R = 20..40 max-norm shell, 3 rows a point: several variation groups, many chunks
            _shell_rows(20.0, 40.0, 3, uniform32(philox_stream(9), 67, 3))[:200],
            # y-coefficients exactly 0 and about 1e-12: the sinc limit
            with_y_coeffs(1, rng.uniform(-8, 8, (10, 3)), 0.0),
            with_y_coeffs(1, rng.uniform(-8, 8, (10, 3)), rng.uniform(-2e-12, 2e-12, (10, 2))),
        ])
        got = batch_osc_m1(1, rows)
        for workers in (2, 4):
            assert batch_osc_m1(1, rows, workers=workers).tobytes() == got.tobytes()
        for row, g in zip(rows, got):
            want = doubling_reference(PolySpec.from_vector(1, 1, row), tol=1e-9)
            assert g == pytest.approx(want, abs=1e-7)

    def test_batch_degree_2(self):
        rng = np.random.default_rng(10)
        rows = rng.uniform(-4, 4, (20, 5))
        rows[:3] = with_y_coeffs(2, rows[:3], 0.0)
        rows[3:6] = with_y_coeffs(2, rows[3:6], rng.uniform(-2e-12, 2e-12, (3, 3)))
        got = batch_osc_m1(2, rows)
        for row, g in zip(rows, got):
            want = doubling_reference(PolySpec.from_vector(2, 1, row), tol=1e-9)
            assert g == pytest.approx(want, abs=1e-7)

    def test_antithetic_exactness(self):
        rng = np.random.default_rng(12)
        rows = np.vstack([rng.uniform(-10, 10, (30, 3)), rows_spanning_variation(rng, 1, 400, 600)])
        assert_spans_orders_and_tasks(1, rows, 1e-8)
        a = np.abs(batch_osc_m1(1, rows))
        b = np.abs(batch_osc_m1(1, -rows))
        assert np.array_equal(a, b)
        rows = tensor_rows(rng, 2, 2, 60.0, 40)
        a = np.abs(quad._batch_J(2, 2, rows, 1e-8)[0])
        b = np.abs(quad._batch_J(2, 2, -rows, 1e-8)[0])
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("n", [1, 2])
    def test_worker_invariance_across_orders_and_tasks(self, n):
        rows = rows_spanning_variation(np.random.default_rng(13 + n), n, 400, 600)
        assert_spans_orders_and_tasks(n, rows, 1e-8)
        got = batch_osc_m1(n, rows, workers=1)
        for workers in (2, 4):
            assert batch_osc_m1(n, rows, workers=workers).tobytes() == got.tobytes()

    def test_one_rule_table_live_at_a_time(self, monkeypatch):
        # a segment's node tables are built as it runs and dropped after it, so
        # rows on over a hundred rules never hold more than one rule's tables
        rows = rows_spanning_variation(np.random.default_rng(17), 1, 2000.0, 1500)
        q, M = quad._size(np.abs(rows) @ [0.0, 1.0, 1.0], 1, 1e-8)
        rules = len(set(zip(q.tolist(), M.tolist())))
        assert rules > 100
        build, live, peak = quad._m1_tables, [], []

        def tracked(*args):
            tables = build(*args)
            live[:] = [ref for ref in live if ref() is not None] + [weakref.ref(tables[0])]
            peak.append(len(live))
            return tables

        monkeypatch.setattr(quad, "_m1_tables", tracked)
        batch_osc_m1(1, rows)
        assert len(peak) >= rules and max(peak) == 1


class TestWorkPool:
    def test_values_do_not_depend_on_earlier_work(self):
        # the kernels' per-thread work arrays carry nothing from one batch to the next
        rng = np.random.default_rng(80)
        rows = rows_spanning_variation(rng, 2, 400.0, 600)
        assert_spans_orders_and_tasks(2, rows, 1e-8)
        fresh = {}
        thread = threading.Thread(target=lambda: fresh.setdefault("J", batch_osc_m1(2, rows)))
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        got = [fresh["J"]]
        batch_osc_m1(1, rows_spanning_variation(rng, 1, 3000.0, 3000))  # a larger m = 1 batch
        got.append(batch_osc_m1(2, rows))
        quad._batch_J(2, 2, tensor_rows(rng, 2, 2, 60.0, 40), 1e-8)  # a tensor-rule batch
        got.append(batch_osc_m1(2, rows))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # threads swap often: a shared array would mix their values
        try:
            got += [batch_osc_m1(2, rows, workers=workers) for workers in (1, 2, 4)]
        finally:
            sys.setswitchinterval(interval)
        assert all(J.tobytes() == got[0].tobytes() for J in got)

    def test_single_huge_row_keeps_no_arrays(self, monkeypatch):
        # one row on a rule near the node budget (lowered to 2^19 here) takes arrays
        # beyond the pool's size, and they go when its call returns
        budget = 1 << 19
        V = np.linspace(1e4, 3e5, 4000)
        q, M = quad._size(V, 1, 1e-8)
        at = np.flatnonzero(q * M <= budget)[-1]
        nodes = int(q[at] * M[at])
        assert nodes > max(budget // 2, 2 * quad.CHUNK_NODES)  # a pool holds four of 2 CHUNK_NODES
        monkeypatch.setattr(quad, "MAX_NODES", budget)
        row = np.array([[0.0, V[at], 0.0]])  # F = V x
        batch_osc_m1(1, rows_spanning_variation(np.random.default_rng(81), 1, 400.0, 300))
        tracemalloc.start()
        try:
            got = batch_osc_m1(1, row)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak >= 4 * 8 * nodes
        assert held < 8 * nodes
        with mpmath.workdps(30):
            v = mpmath.mpf(float(V[at]))
            assert abs(got[0] - complex((mpmath.expjpi(2 * v) - 1) / (2j * mpmath.pi * v))) <= 1e-8


def assert_spans_orders_and_tasks(n, rows, tol):
    # the rows take at least three Gauss orders and fill at least three tasks
    q, M = quad._size(np.abs(rows) @ [i for i, _ in monomial_indices(n, 1)], n, tol)
    assert len(set(q.tolist())) >= 3
    assert np.sum(q * M) > 3 * quad.CHUNK_NODES


def rows_spanning_variation(rng, n, V_max, count):
    # random (n, 1) rows rescaled to phase variations spread evenly over 0..V_max
    idx = monomial_indices(n, 1)
    pows = np.array([i for i, _ in idx], dtype=float)
    rows = rng.uniform(-1.0, 1.0, (count, len(idx)))
    V = np.abs(rows) @ pows
    return rows * (np.linspace(0.0, V_max, count) / V)[:, None]


def mp_J_m1(n, row):
    # 30-digit J of an (n, 1) phase: int_0^1 e^{2 pi i A(x)} int_0^1 e^{2 pi i B(x) y} dy dx
    mpmath.mp.dps = 30
    idx = monomial_indices(n, 1)
    coef = [(i, j, mpmath.mpf(float(v))) for (i, j), v in zip(idx, row)]

    def g(x):
        A = sum(v * x**i for i, j, v in coef if j == 0)
        B = sum(v * x**i for i, j, v in coef if j == 1)
        inner = 1 if B == 0 else (mpmath.expjpi(2 * B) - 1) / (2j * mpmath.pi * B)
        return mpmath.expjpi(2 * A) * inner

    cuts = mpmath.linspace(0, 1, 33)
    return complex(mpmath.quad(g, cuts))


class TestCosSin:
    # phases in cycles at the ends and middle of [-1/2, 1/2], the least normal-ish and the
    # float next below 1/2
    SPECIAL = [0.5, -0.5, 0.25, -0.25, 0.0, -0.0, 1e-300, 0.5 - 2.0**-53]

    def test_against_mpmath(self):
        p = np.concatenate([self.SPECIAL, np.random.default_rng(70).uniform(-0.5, 0.5, 2000)])
        buf = p.copy()
        c, s = quad._cos_sin(buf, np.empty_like(p), buf)
        with mpmath.workdps(30):
            for x, cx, sx in zip(p, c, s):
                angle = 2 * mpmath.pi * mpmath.mpf(float(x))
                assert abs(cx - mpmath.cos(angle)) <= 4.5e-16
                assert abs(sx - mpmath.sin(angle)) <= 4.5e-16

    def test_cos_even_sin_odd_bitwise(self):
        p = np.concatenate([self.SPECIAL, np.random.default_rng(71).uniform(-0.5, 0.5, 1 << 16)])
        c, s = quad._cos_sin(p, np.empty_like(p), np.empty_like(p))
        c_neg, s_neg = quad._cos_sin(-p, np.empty_like(p), np.empty_like(p))
        assert c_neg.tobytes() == c.tobytes()
        assert s_neg.tobytes() == (-s).tobytes()

    def test_no_other_trig_in_src(self):
        # every sine and cosine in the package comes from quad._cos_sin
        src = Path(quad.__file__).parent
        users = sorted(p.name for p in src.glob("*.py") if re.search(r"np\.(sin|cos)", p.read_text()))
        assert users == []

    @pytest.mark.parametrize("n,m", [(1, 1), (3, 1), (2, 2)])
    def test_batch_conjugation_bitwise(self, n, m):
        # J(-F) = conj J(F) bit for bit, over several rules and tasks
        rows = tensor_rows(np.random.default_rng(72 + n), n, m, 200.0 if m == 1 else 40.0, 60)[1:]
        got, ((_, q, M), *_) = quad._batch_J(n, m, rows, 1e-8)
        assert len(set(zip(q.tolist(), M.tolist()))) >= 3
        assert quad._batch_J(n, m, -rows, 1e-8)[0].tobytes() == np.conj(got).tobytes()

    @pytest.mark.parametrize("n,m,R,draws", [(1, 1, 64.0, 300), (3, 1, 64.0, 100), (2, 2, 16.0, 8)])
    def test_kernels_match_libm_formula(self, monkeypatch, n, m, R, draws):
        # rows from every dyadic shell to R, and for m = 1 the same rows with no y terms (no
        # sinc damps their phase error), each J within 1e-15 of the same rule's value with
        # cos and sin from np.cos and np.sin
        N = monomial_count(n, m)
        rows = np.vstack([_shell_rows(a, b, N, uniform32(philox_stream(74, l), draws, N))[:draws]
                          for l, (a, b) in enumerate(_shell_bounds(R, N))])
        if m == 1:
            rows = np.vstack([rows, with_y_coeffs(n, rows, 0.0)])
        got = quad._batch_J(n, m, rows, 1e-6)[0]
        if m == 1:
            monkeypatch.setattr(quad, "_kernel", libm_kernel)
        else:
            monkeypatch.setattr(quad, "_tensor_kernel", libm_tensor_kernel)
        assert np.max(np.abs(got - quad._batch_J(n, m, rows, 1e-6)[0])) <= 1e-15


class TestBatchRule:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_within_tol_of_scalar_reference(self, n):
        rng = np.random.default_rng(30 + n)
        rows = rows_spanning_variation(rng, n, 400.0, 41)
        ref = np.array([
            doubling_reference(PolySpec.from_vector(n, 1, r), tol=1e-13) for r in rows
        ])
        for tol in (1e-4, 1e-6, 1e-9, 1e-12):
            assert np.max(np.abs(batch_osc_m1(n, rows, tol=tol) - ref)) <= tol

    @pytest.mark.parametrize("n,V", [(1, 7.0), (1, 31.0), (2, 12.0), (3, 25.0)])
    def test_mpmath_spot_checks(self, n, V):
        rng = np.random.default_rng(int(V) + n)
        rows = rows_spanning_variation(rng, n, V, 2)[1:]
        for tol in (1e-6, 1e-12):
            got = batch_osc_m1(n, rows, tol=tol)[0]
            assert abs(got - mp_J_m1(n, rows[0])) <= tol

    @pytest.mark.parametrize("q", quad.ORDERS)
    def test_bound_covers_rule_error(self, q):
        # the q-node rule on e^{2 pi i a x^n} errs by at most exp(_log_bound) (ATAP
        # Thm 19.3 counts n + 1 nodes), against a 1024-node reference rule
        xr, wr = quad._panel_nodes(16, *np.polynomial.legendre.leggauss(64))
        for n in (1, 2):
            for M in (1, 2, 3):
                x, wts = quad._panel_nodes(M, *np.polynomial.legendre.leggauss(q))
                for a in np.linspace(0.05, 6.0 * M, 120):
                    err = abs(wts @ np.exp(2j * np.pi * a * x**n) - wr @ np.exp(2j * np.pi * a * xr**n))
                    assert err <= math.exp(quad._log_bound(q, M, n * a, n)) + 1e-14

    def test_panel_count_grows_as_tol_tightens(self):
        V = np.array([0.0, 0.3, 5.0, 20.0, 80.0, 320.0, 1000.0])
        for n in (1, 2, 3):
            nodes = [np.prod(quad._size(V, n, tol), axis=0) for tol in 10.0 ** -np.arange(2.0, 15.0)]
            assert all(np.all(a <= b) for a, b in zip(nodes, nodes[1:]))
            assert np.all(nodes[0] >= min(quad.ORDERS))

    def test_panel_count_is_smallest_meeting_tol(self):
        # the chosen (q, M) meets the bound; no (q', M') with fewer nodes, or as few
        # at a lower order, does.  The bound falls as M grows, so each q' is checked
        # at its largest such M'
        for n in (1, 2, 3):
            V = np.array([0.3, 2.0, 7.0, 20.0, 320.0, 1000.0])
            for tol in (1e-4, 1e-9, 1e-12):
                for v, q, M in zip(V, *quad._size(V, n, tol)):
                    assert quad._log_bound(q, M, v, n) <= math.log(tol)
                    for q2 in quad.ORDERS:
                        M2 = q * M // q2 if q2 < q else -(-q * M // q2) - 1
                        assert M2 < 1 or quad._log_bound(q2, M2, v, n) > math.log(tol)

    def test_fewer_nodes_than_half_cycle_panels(self):
        # the former rule: max(2, ceil(V / 0.5)) + 2 panels of 12 nodes, whatever tol
        V = np.array([20.0, 40.0, 80.0, 320.0, 1000.0])
        for n in (1, 2, 3):
            old_nodes = 12 * (np.maximum(2, np.ceil(V / 0.5)) + 2)
            q, M = quad._size(V, n, 1e-6)
            assert np.all(q * M < old_nodes / 2)

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 3), tol_exp=st.floats(3.0, 12.0), lo_exp=st.floats(-3.0, 3.0),
           u=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40), zero=st.booleans())
    def test_size_matches_scalar_reference(self, n, tol_exp, lo_exp, u, zero):
        # variations spread over up to 4 decades from 10^lo_exp, and V = 0; past the
        # budget (lo_exp near 3) every row of the call fails together
        V = np.array(([0.0] if zero else []) + [10.0 ** (lo_exp + 4.0 * t) for t in u])
        tol = 10.0**-tol_exp
        want = [reference_size(v, n, tol) for v in V]
        if None in want:
            with pytest.raises(PanelBudgetError):
                quad._size(V, n, tol)
        else:
            q, M = quad._size(V, n, tol)
            assert list(zip(q.tolist(), M.tolist())) == want

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("q", quad.ORDERS)
    def test_each_order_against_mpmath(self, n, q):
        # at a variation in the middle of the first run of V where order q is chosen
        V_grid = np.linspace(0.0, 40.0, 4001)
        rng = np.random.default_rng(50 + q + n)
        for tol in (1e-6, 1e-12):
            at = np.flatnonzero(quad._size(V_grid, n, tol)[0] == q)
            run = at[: np.argmax(np.diff(at, append=at[-1] + 2) > 1) + 1]
            V = V_grid[run[len(run) // 2]]
            row = rows_spanning_variation(rng, n, V, 2)[1:]
            assert quad._size(V, n, tol)[0][0] == q
            assert abs(batch_osc_m1(n, row, tol=tol)[0] - mp_J_m1(n, row[0])) <= tol

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 3), V=st.floats(0.0, 200.0), tol_exp=st.integers(2, 13),
           seed=st.integers(0, 2**32 - 1))
    # a subnormal V makes B = sum a_i1 x^i subnormal, where sinc must not divide subnormals
    @example(n=1, V=2.225073858507e-311, tol_exp=12, seed=0)
    def test_modulus_within_tol_of_one(self, n, V, tol_exp, seed):
        rows = rows_spanning_variation(np.random.default_rng(seed), n, V, 8)
        tol = 10.0**-tol_exp
        assert np.all(np.abs(batch_osc_m1(n, rows, tol=tol)) <= 1.0 + tol)

    def test_unreachable_tol_rejected(self):
        with pytest.raises(ValueError):
            batch_osc_m1(1, np.array([[1.0, 2.0, 3.0]]), tol=1e-200)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_tol_rejected(self, tol):
        rows = np.array([[1.0, 2.0, 3.0]])
        with pytest.raises(ValueError):
            batch_osc_m1(1, rows, tol=tol)
        with pytest.raises(ValueError):
            osc_integral(PolySpec.from_vector(1, 1, rows[0]), tol=tol)
