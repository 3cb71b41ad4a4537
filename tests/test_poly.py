import math

import numpy as np
import pytest

from tarry2d.poly import (
    PolySpec,
    alpha_inverse,
    beta_to_alpha,
    critical_threshold,
    monomial_count,
    monomial_indices,
    recoeff_matrix,
    taylor_recenter,
)


def naive_eval(F, x, y):
    # independent double-loop oracle
    total = 0.0
    for (i, j), v in F.coeffs.items():
        total += v * x**i * y**j
    return total


def random_poly(rng, n, m, lo=-10.0, hi=10.0):
    idx = monomial_indices(n, m)
    return PolySpec.from_vector(n, m, rng.uniform(lo, hi, len(idx)))


class TestCounts:
    @pytest.mark.parametrize("n,m,expect", [(1, 1, 3), (2, 1, 5), (3, 2, 11)])
    def test_monomial_count(self, n, m, expect):
        assert monomial_count(n, m) == expect

    @pytest.mark.parametrize("n,m,expect", [(1, 1, 6), (2, 1, 11), (2, 2, 20)])
    def test_critical_threshold(self, n, m, expect):
        assert critical_threshold(n, m) == expect

    @pytest.mark.parametrize("n,m,expect", [(1, 1, 1), (2, 1, 4), (2, 2, 10)])
    def test_alpha_inverse(self, n, m, expect):
        assert alpha_inverse(n, m) == expect

    def test_alpha_inverse_brute_force(self):
        # identity with the sum of (i+j-1) over all indices, all 2 <= n+m <= 8
        for n in range(1, 8):
            for m in range(1, 8):
                if 2 <= n + m <= 8:
                    brute = sum(i + j - 1 for (i, j) in monomial_indices(n, m))
                    assert alpha_inverse(n, m) == brute

    def test_bad_degrees_rejected(self):
        with pytest.raises(ValueError):
            monomial_count(0, 1)
        with pytest.raises(ValueError):
            critical_threshold(1, 0)

    def test_index_order_total(self):
        idx = monomial_indices(3, 2)
        assert len(idx) == len(set(idx)) == 11
        keys = [(i + j, i, j) for (i, j) in idx]
        assert keys == sorted(keys)


class TestPolySpec:
    def test_constant_term_rejected(self):
        with pytest.raises(ValueError):
            PolySpec(1, 1, {(0, 0): 1.0})

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            PolySpec(1, 1, {(2, 0): 1.0})

    def test_zero_poly_eval(self):
        F = PolySpec(2, 2, {})
        assert F.eval(0.3, -1.7) == 0.0

    def test_xy_eval(self):
        F = PolySpec(1, 1, {(1, 1): 1.0})
        assert F.eval(2.0, 3.0) == 6.0

    def test_eval_matches_naive(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            F = random_poly(rng, 3, 2)
            x, y = rng.uniform(-2, 2, 2)
            got = F.eval(x, y)
            want = naive_eval(F, x, y)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_json_roundtrip(self):
        F = PolySpec(2, 1, {(1, 0): 1.5, (2, 1): -0.25})
        G = PolySpec.from_json_dict(F.to_json_dict())
        assert G == F

    def test_json_constant_term_is_format_error(self):
        with pytest.raises(ValueError):
            PolySpec.from_json_dict(
                {"n": 1, "m": 1, "coeffs": [{"i": 0, "j": 0, "value": 1.0}]}
            )


class TestGrad:
    def test_xy(self):
        F = PolySpec(1, 1, {(1, 1): 1.0})
        assert F.grad(0.7, -0.2) == (pytest.approx(-0.2), pytest.approx(0.7))

    def test_x2y(self):
        F = PolySpec(2, 1, {(2, 1): 1.0})
        fx, fy = F.grad(1.0, 1.0)
        assert (fx, fy) == (pytest.approx(2.0), pytest.approx(1.0))

    def test_finite_differences(self):
        rng = np.random.default_rng(5)
        h = 1e-5
        for _ in range(1000):
            F = random_poly(rng, 2, 2)
            x, y = rng.uniform(0, 1, 2)
            fx, fy = F.grad(x, y)
            fx_fd = (F.eval(x + h, y) - F.eval(x - h, y)) / (2 * h)
            fy_fd = (F.eval(x, y + h) - F.eval(x, y - h)) / (2 * h)
            assert fx == pytest.approx(fx_fd, abs=1e-6)
            assert fy == pytest.approx(fy_fd, abs=1e-6)


class TestRecenter:
    def test_identity_at_origin(self):
        rng = np.random.default_rng(3)
        F = random_poly(rng, 2, 2)
        beta, beta00 = taylor_recenter(F, 0.0, 0.0)
        assert np.allclose(beta, F.coeff_vector())
        assert beta00 == 0.0

    def test_xy_closed_form(self):
        # xy = (x-a)(y-b) + b(x-a) + a(y-b) + ab
        a, b = 0.6, -1.1
        F = PolySpec(1, 1, {(1, 1): 1.0})
        beta, beta00 = taylor_recenter(F, a, b)
        got = {ij: v for ij, v in zip(F.indices, beta)}
        assert got[(1, 1)] == pytest.approx(1.0)
        assert got[(1, 0)] == pytest.approx(b)
        assert got[(0, 1)] == pytest.approx(a)
        assert beta00 == pytest.approx(a * b)

    def test_evaluation_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            F = random_poly(rng, 3, 2)
            u1, u2 = rng.uniform(-1, 1, 2)
            beta, beta00 = taylor_recenter(F, u1, u2)
            for _ in range(5):
                x, y = rng.uniform(-1, 1, 2)
                recentered = beta00 + sum(
                    bv * (x - u1) ** i * (y - u2) ** j
                    for (i, j), bv in zip(F.indices, beta)
                )
                assert recentered == pytest.approx(F.eval(x, y), abs=1e-9)

    def test_double_recenter_roundtrip(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            F = random_poly(rng, 2, 2)
            u1, u2 = rng.uniform(-1, 1, 2)
            beta, _ = taylor_recenter(F, u1, u2)
            G = PolySpec.from_vector(F.n, F.m, beta)
            back, _ = taylor_recenter(G, -u1, -u2)
            assert np.allclose(back, F.coeff_vector(), rtol=1e-9, atol=1e-9)


class TestRecoeffMatrix:
    def test_identity_at_origin(self):
        U = recoeff_matrix(2, 2, 0.0, 0.0)
        assert np.array_equal(U, np.eye(8))

    def test_11_closed_form(self):
        u1, u2 = 0.3, -0.7
        U = recoeff_matrix(1, 1, u1, u2)
        # descending order: (1,1), (1,0), (0,1)
        expect = np.array([
            [1.0, 0.0, 0.0],
            [-u2, 1.0, 0.0],
            [-u1, 0.0, 1.0],
        ])
        assert np.allclose(U, expect)

    def test_unitriangular_structure(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 5))
            u1, u2 = rng.uniform(-3, 3, 2)
            U = recoeff_matrix(n, m, u1, u2)
            N = monomial_count(n, m)
            assert np.array_equal(np.triu(U, 1), np.zeros((N, N)))
            assert np.array_equal(np.diag(U), np.ones(N))

    @pytest.mark.parametrize("n,m", [(3, 3), (4, 2)])
    def test_batch_rows_match_single_rows(self, n, m):
        rng = np.random.default_rng(41)
        N = monomial_count(n, m)
        for _ in range(50):
            u1, u2 = rng.uniform(-1, 1, 2)
            rows = rng.standard_normal((7, N)) * 10.0 ** rng.uniform(-6, 6, (7, N))
            batch = beta_to_alpha(n, m, u1, u2, rows)
            assert np.array_equal(batch, np.stack([beta_to_alpha(n, m, u1, u2, b) for b in rows]))
            U = recoeff_matrix(n, m, u1, u2)
            assert np.array_equal(batch, np.stack([(U @ b[::-1])[::-1] for b in rows]))

    def test_consistency_with_taylor_recenter(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            F = random_poly(rng, 3, 2)
            u1, u2 = rng.uniform(-1, 1, 2)
            beta, _ = taylor_recenter(F, u1, u2)
            alpha = beta_to_alpha(F.n, F.m, u1, u2, beta)
            assert np.allclose(alpha, F.coeff_vector(), rtol=1e-9, atol=1e-9)
