import numpy as np
import pytest

from tarry2d.poly import PolySpec, monomial_indices
from tarry2d.quad import PanelBudgetError, batch_osc_m1, osc_integral
from tarry2d.theta import _sample_shell


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

    @pytest.mark.parametrize("gamma,cells", [(0.3, 4096), (3.0, 4096), (30.0, 32768)])
    def test_xy_phase_matches_midpoint_oracle(self, gamma, cells):
        F = PolySpec(1, 1, {(1, 1): gamma})
        res = osc_integral(F, tol=1e-9)
        oracle = midpoint_oracle(F, cells)
        assert abs(res.value - oracle) <= 1e-6

    def test_tensor_path_matches_reduced_path(self):
        # same phase declared with m = 2 forces the 2-D tensor rule
        got1 = osc_integral(PolySpec(1, 1, {(1, 1): 3.0}), tol=1e-9).value
        got2 = osc_integral(PolySpec(1, 2, {(1, 1): 3.0}), tol=1e-9).value
        assert got1 == pytest.approx(got2, abs=1e-9)

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
            b = osc_integral(F.negate(), tol=tol).value
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
        F = PolySpec(1, 1, {(1, 0): 1e6})
        with pytest.raises(PanelBudgetError):
            osc_integral(F, tol=1e-12, max_evals=10_000)

    def test_result_counts_evaluations(self):
        res = osc_integral(PolySpec(1, 1, {(1, 1): 1.0}), tol=1e-8)
        assert res.n_evals >= 1


class TestBatch:
    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(9)
        rows = np.vstack([
            rng.uniform(-8, 8, (40, 3)),
            # the R = 20..40 max-norm shell: several variation groups, many chunks
            _sample_shell(rng, 20.0, 40.0, 3, 200),
            # y-coefficients exactly 0 and about 1e-12: the sinc limit
            with_y_coeffs(1, rng.uniform(-8, 8, (10, 3)), 0.0),
            with_y_coeffs(1, rng.uniform(-8, 8, (10, 3)), rng.uniform(-2e-12, 2e-12, (10, 2))),
        ])
        got = batch_osc_m1(1, rows)
        for workers in (2, 4):
            assert batch_osc_m1(1, rows, workers=workers).tobytes() == got.tobytes()
        for row, g in zip(rows, got):
            want = osc_integral(PolySpec.from_vector(1, 1, row), tol=1e-9).value
            assert g == pytest.approx(want, abs=1e-7)

    def test_batch_degree_2(self):
        rng = np.random.default_rng(10)
        rows = rng.uniform(-4, 4, (20, 5))
        rows[:3] = with_y_coeffs(2, rows[:3], 0.0)
        rows[3:6] = with_y_coeffs(2, rows[3:6], rng.uniform(-2e-12, 2e-12, (3, 3)))
        got = batch_osc_m1(2, rows)
        for row, g in zip(rows, got):
            want = osc_integral(PolySpec.from_vector(2, 1, row), tol=1e-9).value
            assert g == pytest.approx(want, abs=1e-7)

    def test_antithetic_exactness(self):
        rng = np.random.default_rng(12)
        rows = rng.uniform(-10, 10, (30, 3))
        a = np.abs(batch_osc_m1(1, rows))
        b = np.abs(batch_osc_m1(1, -rows))
        assert np.array_equal(a, b)
