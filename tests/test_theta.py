import math

import numpy as np
import pytest

from tarry2d import quad
from tarry2d.theta import (
    _sample_shell,
    _shell_bounds,
    _wls_slope,
    growth_diagnostic,
    parseval_check,
    shell_series_term,
    theta_truncated,
)


def _interval_transform(t):
    # independent closed form of the unit-interval transform
    t = np.asarray(t, dtype=float)
    out = np.ones(t.shape, dtype=complex)
    nz = np.abs(t) > 1e-12
    tn = t[nz]
    out[nz] = (np.exp(2j * np.pi * tn) - 1.0) / (2j * np.pi * tn)
    return out


def J_oracle_11(rows, nodes=1024):
    """Midpoint-rule oracle for the (1,1) oscillatory integral.

    rows columns in ascending index order: (0,1), (1,0), (1,1).
    """
    x = (np.arange(nodes) + 0.5) / nodes
    out = np.empty(len(rows), dtype=complex)
    for lo in range(0, len(rows), 8192):
        r = rows[lo : lo + 8192]
        b, a, g = r[:, 0:1], r[:, 1:2], r[:, 2:3]
        vals = np.exp(2j * np.pi * a * x[None, :]) * _interval_transform(b + g * x[None, :])
        out[lo : lo + 8192] = vals.mean(axis=1)
    return out


class TestShells:
    def test_bounds_clip(self):
        assert _shell_bounds(5.0) == [(0.0, 1.0), (1.0, 2.0), (2.0, 4.0), (4.0, 5.0)]
        assert _shell_bounds(1.0) == [(0.0, 1.0)]
        assert _shell_bounds(0.5) == [(0.0, 0.5)]

    def test_bounds_reject_nonpositive(self):
        with pytest.raises(ValueError):
            _shell_bounds(0.0)

    def test_sample_shell_support(self):
        rng = np.random.default_rng(7)
        pts = _sample_shell(rng, 1.0, 2.0, 3, 20000)
        r = np.max(np.abs(pts), axis=1)
        assert np.all(r > 1.0 - 1e-12)
        assert np.all(r <= 2.0 + 1e-12)

    def test_sample_shell_radial_law(self):
        # P(r <= c) inside the shell is (c^N - a^N) / (b^N - a^N)
        rng = np.random.default_rng(8)
        a, b, N = 1.0, 2.0, 3
        pts = _sample_shell(rng, a, b, N, 200000)
        r = np.max(np.abs(pts), axis=1)
        c = 1.5
        frac = np.mean(r <= c)
        want = (c**N - a**N) / (b**N - a**N)
        assert frac == pytest.approx(want, abs=0.01)


class TestThetaTruncated:
    def test_matches_plain_mc_oracle(self):
        R = 2.0
        est = theta_truncated(1, 1, 1, R, 100_000, seed=404)
        rng = np.random.default_rng(99)
        M = 300_000
        rows = rng.uniform(-R, R, (M, 3))
        f = np.abs(J_oracle_11(rows)) ** 2
        vol = (2 * R) ** 3
        oracle = vol * float(f.mean())
        oracle_se = vol * float(f.std(ddof=1)) / math.sqrt(M)
        tol = 3.0 * math.sqrt(est.std_error**2 + oracle_se**2)
        assert abs(est.value - oracle) <= tol

    def test_deterministic_same_seed(self):
        a = theta_truncated(1, 1, 1, 4.0, 20_000, seed=11)
        b = theta_truncated(1, 1, 1, 4.0, 20_000, seed=11)
        assert a.value == b.value
        assert a.std_error == b.std_error

    def test_worker_count_invariance(self):
        a = theta_truncated(1, 1, 1, 4.0, 20_000, seed=12, workers=1)
        b = theta_truncated(1, 1, 1, 4.0, 20_000, seed=12, workers=4)
        assert a.value == b.value
        assert a.std_error == b.std_error
        # m = 2 maps osc_integral over the rows instead of batch_osc_m1
        a = theta_truncated(1, 2, 1, 0.5, 128, seed=12, workers=1)
        b = theta_truncated(1, 2, 1, 0.5, 128, seed=12, workers=4)
        assert a.value == b.value
        assert a.std_error == b.std_error

    def test_seed_changes_value(self):
        a = theta_truncated(1, 1, 1, 4.0, 20_000, seed=13)
        b = theta_truncated(1, 1, 1, 4.0, 20_000, seed=14)
        assert a.value != b.value

    def test_to_dict_keys(self):
        est = theta_truncated(1, 1, 1, 2.0, 5_000, seed=15)
        assert set(est.to_dict()) == {
            "n", "m", "k", "R", "value", "std_error", "n_samples", "seed"
        }

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            theta_truncated(1, 1, 0, 2.0, 1000, seed=1)
        with pytest.raises(ValueError):
            theta_truncated(1, 1, 1, -1.0, 1000, seed=1)
        with pytest.raises(ValueError):
            theta_truncated(1, 1, 1, 2.0, 0, seed=1)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_tol(self, tol):
        with pytest.raises(ValueError):
            theta_truncated(1, 1, 1, 2.0, 1000, seed=1, tol=tol)
        with pytest.raises(ValueError):
            growth_diagnostic(1, 1, 1, [2.0, 4.0, 8.0], 1000, seed=1, tol=tol)
        with pytest.raises(ValueError):
            parseval_check(0.3, 3.0, tol=tol)

    def test_tol_sizes_the_m1_rule(self):
        # a looser tol takes fewer panels, so the value moves, but within the tols
        tight = theta_truncated(1, 1, 1, 8.0, 4000, seed=3, tol=1e-12).value
        loose = theta_truncated(1, 1, 1, 8.0, 4000, seed=3, tol=1e-3).value
        assert loose != tight
        assert loose == pytest.approx(tight, rel=0.05)


def _parseval_per_panel(gamma, R, tol=1e-3):
    """parseval_check with one complex product C Kw per b-panel of 12 nodes."""
    def compute(mx_panels, mb_panels):
        x, wx = quad._panel_nodes(mx_panels, quad._G12, quad._W12)
        K = 2.0 * R * np.sinc(2.0 * R * (x[:, None] - x[None, :]))
        Kw = (wx[:, None] * wx[None, :]) * K
        gb, wb = np.polynomial.legendre.leggauss(quad.ORDER_HIGH)
        offs = np.linspace(-R, R, mb_panels + 1)
        total = 0.0
        for lo, hi in zip(offs[:-1], offs[1:]):
            beta = (lo + hi) / 2.0 + (hi - lo) / 2.0 * gb
            wts = (hi - lo) / 2.0 * wb
            C = quad._unit_interval_transform(beta[:, None] + gamma * x[None, :])
            total += float(wts @ np.real(np.einsum("bi,bi->b", C @ Kw, np.conj(C))))
        return total

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


class TestParseval:
    def test_zero_top_coefficient_product_form(self):
        # with no cross term the mass factorizes into a squared sinc integral
        scipy_integrate = pytest.importorskip("scipy.integrate")
        R = 20.0
        one_dim, _ = scipy_integrate.quad(
            lambda a: np.sinc(a) ** 2, -R, R, limit=400
        )
        got = parseval_check(0.0, R)
        assert got == pytest.approx(one_dim**2, abs=1e-6)

    def test_matches_grid_oracle(self):
        R = 2.0
        cells = 600
        t = (np.arange(cells) + 0.5) / cells * 2 * R - R
        A, B = np.meshgrid(t, t, indexing="ij")
        rows = np.column_stack([B.ravel(), A.ravel(), np.full(A.size, 0.7)])
        f = np.abs(J_oracle_11(rows, nodes=512)) ** 2
        oracle = f.sum() * (2 * R / cells) ** 2
        assert parseval_check(0.7, R) == pytest.approx(oracle, abs=5e-3)

    def test_increases_toward_unit_mass(self):
        v5 = parseval_check(0.3, 5.0)
        v15 = parseval_check(0.3, 15.0)
        assert v5 < v15 < 1.0 + 1e-6

    def test_bad_radius(self):
        with pytest.raises(ValueError):
            parseval_check(0.3, 0.0)

    @pytest.mark.parametrize("gamma,R", [
        (math.inf, 3.0), (math.nan, 3.0), (0.3, math.inf), (0.3, math.nan),
    ])
    def test_non_finite_input_rejected(self, gamma, R):
        with pytest.raises(ValueError):
            parseval_check(gamma, R)

    @pytest.mark.parametrize("gamma,R", [(0.3, 30.0), (2.0, 5.0), (0.0, 3.0)])
    def test_real_gemm_matches_per_panel_product(self, gamma, R):
        # the real [cr; ci] GEMM moves the mass only at round-off
        want = _parseval_per_panel(gamma, R)
        assert parseval_check(gamma, R) == pytest.approx(want, rel=1e-13, abs=0.0)


class TestSeries:
    def test_divergent_terms(self):
        # (1,1), k=1: exponent 6 - 4 = 2, terms 4^l
        assert shell_series_term(1, 1, 1, 1) == 4.0
        assert shell_series_term(1, 1, 1, 3) == 64.0

    def test_convergent_terms(self):
        # (1,1), k=2: exponent 6 - 8 = -2
        assert shell_series_term(1, 1, 2, 2) == pytest.approx(1 / 16)

    def test_bad_l(self):
        with pytest.raises(ValueError):
            shell_series_term(1, 1, 1, 0)


class TestGrowthDiagnostic:
    def test_divergent_case(self):
        rep = growth_diagnostic(1, 1, 1, [2.0, 4.0, 8.0], 30_000, seed=21)
        assert rep.classification == "divergent"
        assert rep.theorem_sign == -1
        assert rep.fitted_exponent == pytest.approx(1.0, abs=0.2)

    def test_convergent_case(self):
        rep = growth_diagnostic(1, 1, 2, [5.0, 10.0, 20.0], 60_000, seed=22)
        assert rep.classification == "convergent"
        assert rep.theorem_sign == 1

    def test_to_dict_shape(self):
        rep = growth_diagnostic(1, 1, 1, [2.0, 4.0, 8.0], 5_000, seed=23)
        d = rep.to_dict()
        assert d["radii"] == [2.0, 4.0, 8.0]
        assert len(d["estimates"]) == 3
        assert d["classification"] in ("convergent", "divergent", "inconclusive")

    def test_bad_radii(self):
        with pytest.raises(ValueError):
            growth_diagnostic(1, 1, 1, [2.0, 4.0], 1000, seed=1)
        with pytest.raises(ValueError):
            growth_diagnostic(1, 1, 1, [2.0, 4.0, 3.0], 1000, seed=1)


class TestWlsSlope:
    def test_recovers_power_law(self):
        x = np.log(np.array([2.0, 4.0, 8.0, 16.0]))
        vals = 3.0 * np.exp(1.7 * x)
        ses = 1e-9 * vals
        slope, se = _wls_slope(x, vals, ses)
        assert slope == pytest.approx(1.7, abs=1e-6)
        assert se < 1e-6

    def test_nonpositive_values(self):
        slope, se = _wls_slope(np.array([0.0, 1.0, 2.0]),
                               np.array([1.0, -1.0, 1.0]),
                               np.array([0.1, 0.1, 0.1]))
        assert math.isnan(slope)
        assert se == float("inf")
