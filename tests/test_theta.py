import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tarry2d import quad
from tarry2d.poly import monomial_count, monomial_indices
from tarry2d.rng import philox_stream, uniform32
from tarry2d.theta import (
    _CALL_ROWS,
    _SHIFTS,
    _lattice,
    _lattice_size,
    _shell_bounds,
    _shell_rows,
    _wls_slope,
    growth_diagnostic,
    parseval_check,
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
        assert _shell_bounds(5.0, 3) == [(0.0, 1.0), (1.0, 2.0), (2.0, 4.0), (4.0, 5.0)]
        assert _shell_bounds(1.0, 3) == [(0.0, 1.0)]
        assert _shell_bounds(0.5, 3) == [(0.0, 0.5)]

    def test_bounds_reject_nonpositive(self):
        for R in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                _shell_bounds(R, 3)

    @pytest.mark.parametrize("R", [math.inf, 1e-300, 1e200])
    def test_bounds_reject_box_volume(self, R):
        # (2R)^3 must be a positive finite float: 1e-300 underflows to 0, 1e200 overflows
        with pytest.raises(ValueError):
            _shell_bounds(R, 3)

    def test_bounds_accept_small_box_volume(self):
        assert _shell_bounds(1e-100, 3) == [(0.0, 1e-100)]

    @pytest.mark.parametrize("a, b", [(1.0, 2.0), (0.0, 2.0)])
    def test_shell_rows_support(self, a, b):
        # plain uniforms, the pilot's input, land in the shell (or the innermost cube)
        rows = _shell_rows(a, b, 3, uniform32(philox_stream(7), 20000, 3))
        r = np.max(np.abs(rows), axis=1)
        assert np.all(r > a - 1e-12)
        assert np.all(r <= b + 1e-12)

    @pytest.mark.parametrize("a, b", [(1.0, 2.0), (0.0, 2.0)])
    def test_shell_rows_radial_law(self, a, b):
        # P(r <= c) inside the shell is (c^N - a^N) / (b^N - a^N)
        N = 3
        rows = _shell_rows(a, b, N, uniform32(philox_stream(8), 200000, N))
        r = np.max(np.abs(rows), axis=1)
        c = 1.5
        frac = np.mean(r <= c)
        want = (c**N - a**N) / (b**N - a**N)
        assert frac == pytest.approx(want, abs=0.01)


def plain_cbc(P, gamma):
    """Component-by-component search in O(d P^2): z_j minimises
    sum_k prod_(i <= j) (1 + gamma_i 2 pi^2 B2({k z_i / P})) over z in 1..P-1,
    ties within a relative 1e-12 to the least z."""
    x = (np.arange(1, P)[:, None] * np.arange(P)[None, :] % P) / P  # row z - 1, column k
    table = 2.0 * np.pi**2 * (x * x - x + 1.0 / 6.0)
    q, z = np.ones(P), []
    for g in gamma:
        crit = ((1.0 + g * table) * q).sum(axis=1)
        z.append(int(np.flatnonzero(crit <= crit.min() * (1.0 + 1e-12))[0]) + 1)
        q = q * (1.0 + g * table[z[-1] - 1])
    return z


PRIMES_BELOW_300 = [p for p in range(2, 300) if all(p % d for d in range(2, math.isqrt(p) + 1))]


class TestLattice:
    @pytest.mark.parametrize("P", PRIMES_BELOW_300)
    def test_fast_cbc_matches_plain_cbc(self, P):
        for N in range(1, 7):
            for gamma in ((1.0,) * N, tuple(1.0 / (j + 1) for j in range(N))):
                assert _lattice(P, gamma).tolist() == plain_cbc(P, gamma), (N, gamma)

    @pytest.mark.parametrize("gamma", [(1.0,) * 3, tuple(
        1.0 / ((i + 1) * (j + 1)) for i, j in monomial_indices(2, 1))])
    def test_shifted_tent_rule_beats_plain_mc(self, gamma):
        # prod_j (1 + g_j (x_j e^x_j - 1)) has mean 1 on [0, 1]^d, and each
        # factor variance g_j^2 ((e^2 - 1) / 4 - 1); plain MC on the same
        # 16 P points has RMS error sqrt(var / (16 P))
        P, g = 1021, np.array(gamma)
        pts = np.arange(P)[:, None] * _lattice(P, gamma) % P / P
        errs = []
        for rep in range(40):
            shifts = uniform32(philox_stream(rep, 99), 16, len(g))
            u = [(_shell_rows(0.0, 1.0, len(g), pts + d) + 1.0) / 2.0 for d in shifts]
            errs.append(np.mean([np.prod(1.0 + g * (v * np.exp(v) - 1.0), axis=1).mean()
                                 for v in u]) - 1.0)
        mc = math.sqrt((np.prod(1.0 + g**2 * ((math.e**2 - 1.0) / 4.0 - 1.0)) - 1.0) / (16 * P))
        assert math.sqrt(np.mean(np.square(errs))) * 20.0 <= mc

    def test_shift_stream_differs_from_other_tags(self):
        rtag = int(np.float64(4.0).view(np.uint64))
        shifts = uniform32(philox_stream(12, 6, rtag, 1), 16, 3)
        for tag in range(6):
            for key in ((tag,), (tag, rtag), (tag, rtag, 1), (tag, rtag, 1, 0)):
                assert not np.array_equal(uniform32(philox_stream(12, *key), 16, 3), shifts)

    @pytest.mark.parametrize("faces", [1, 3, 5, 8])
    def test_lattice_size(self, faces):
        # the largest prime whose 16 shifts give 64 to alloc rows, else the least giving 64
        for alloc in range(64, 4000, 7):
            fits = [p for p in PRIMES_BELOW_300 if 64 <= 16 * faces * p <= alloc]
            least = min(p for p in PRIMES_BELOW_300 if 16 * faces * p >= 64)
            assert _lattice_size(alloc, faces) == (max(fits) if fits else least)

    def test_shell_rows_cover_the_shell(self):
        # every row lies in the shell, and the N rows of a point put +r on each axis
        x = uniform32(philox_stream(5), 200, 5).reshape(2, 100, 5)
        rows = _shell_rows(2.0, 4.0, 5, x).reshape(2, 100, 5, 5)
        r = np.abs(rows).max(axis=-1)
        assert np.all((2.0 < r) & (r <= 4.0))
        assert np.array_equal(np.diagonal(rows, axis1=2, axis2=3), r)
        assert np.all(np.abs(_shell_rows(0.0, 0.5, 5, x)) <= 0.5)


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
        # (1, 2) phases are swapped to (2, 1) for batch_osc_m1; (2, 2) takes
        # the tensor rule of quad._batch_J
        for n, m in ((1, 2), (2, 2)):
            a = theta_truncated(n, m, 1, 0.5, 128, seed=12, workers=1)
            b = theta_truncated(n, m, 1, 0.5, 128, seed=12, workers=4)
            assert a.value == b.value
            assert a.std_error == b.std_error

    def test_seed_changes_value(self):
        a = theta_truncated(1, 1, 1, 4.0, 20_000, seed=13)
        b = theta_truncated(1, 1, 1, 4.0, 20_000, seed=14)
        assert a.value != b.value

    def test_to_dict_keys(self):
        est = theta_truncated(1, 1, 1, 2.0, 5_000, seed=15)
        assert set(asdict(est)) == {
            "n", "m", "k", "R", "value", "std_error", "n_samples", "shells", "seed"
        }
        assert [set(row) for row in est.shells] == [
            {"lo", "hi", "alloc", "mean", "std_error", "ess"}] * 2

    @pytest.mark.parametrize("n, m, R, samples", [(1, 1, 5.0, 3000), (2, 1, 1.0, 2000)])
    def test_shells_reproduce_value(self, n, m, R, samples):
        est = theta_truncated(n, m, 1, R, samples, seed=16)
        N = monomial_count(n, m)
        assert [(row["lo"], row["hi"]) for row in est.shells] == _shell_bounds(R, N)
        vols = [(2 * row["hi"]) ** N - (2 * row["lo"]) ** N for row in est.shells]
        # the shells sum to value bit for bit, in shell order
        assert sum(v * row["mean"] for v, row in zip(vols, est.shells)) == est.value
        se = math.sqrt(sum((v * row["std_error"]) ** 2 for v, row in zip(vols, est.shells)))
        assert se == pytest.approx(est.std_error, rel=1e-12)
        pilot = len(est.shells) * max(64, samples // 100 // len(est.shells))
        assert sum(row["alloc"] for row in est.shells) + pilot == est.n_samples
        assert all(row["alloc"] >= 64 and 0 < row["ess"] <= row["alloc"] for row in est.shells)

    @pytest.mark.parametrize("n, m, R, samples, J, raised", [
        (1, 1, 8.0, 3000, "batch_osc_m1", False),  # four shells, prime gaps below the request
        (2, 2, 1.5, 1000, "_batch_J", False),  # the tensor rule: (2, 2) skips batch_osc_m1
        (1, 1, 8.0, 100, "batch_osc_m1", True),  # the 64-row floor raises the shares past it
    ])
    def test_n_samples_counts_the_J_values(self, monkeypatch, n, m, R, samples, J, raised):
        rows, call = [], getattr(quad, J)

        def record(*args, **kwargs):
            rows.append(len(args[1 if J == "batch_osc_m1" else 2]))
            return call(*args, **kwargs)

        monkeypatch.setattr(quad, J, record)
        est = theta_truncated(n, m, 1, R, samples, seed=4, tol=1e-3)
        assert est.n_samples == sum(rows)
        # each shell's alloc is its lattice rule's J values: shifts x rows a point x a prime P
        faces = [1] + [monomial_count(n, m)] * (len(est.shells) - 1)
        for f, row in zip(faces, est.shells):
            P, rest = divmod(row["alloc"], _SHIFTS * f)
            assert rest == 0 and P in PRIMES_BELOW_300
        assert (est.n_samples > samples) == raised

    @pytest.mark.parametrize("R, samples", [(2.0, 500), (8.0, 2000)])
    def test_standard_error_coverage(self, R, samples):
        # theta(R) of (1,1,1) is the integral over gamma in [-R, R] of the
        # two-coefficient mass at gamma; Gauss-Legendre in gamma on 96 nodes
        # gives 3.529652796823611 at R = 2 and 15.51132712352392 at R = 8,
        # within 1e-14 of 128 nodes.  About 95% of small runs should land
        # within 2 se of it.
        g, w = np.polynomial.legendre.leggauss(96)
        ref = R * sum(wi * parseval_check(R * gi, R, tol=1e-9).value for gi, wi in zip(g, w))
        hits = sum(abs(est.value - ref) <= 2 * est.std_error
                   for est in (theta_truncated(1, 1, 1, R, samples, seed=s) for s in range(200)))
        assert 0.88 <= hits / 200 <= 0.99

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

    def test_pilot_evaluates_its_share_in_one_call(self, monkeypatch):
        # 7 shells to R = 40, each n_pilot_per = max(64, 120 // 7) = 64 J rows, in the first call
        sizes, batch = [], quad.batch_osc_m1

        def record(n, rows, **kwargs):
            sizes.append(len(rows))
            return batch(n, rows, **kwargs)

        monkeypatch.setattr(quad, "batch_osc_m1", record)
        est = theta_truncated(1, 1, 1, 40.0, 12000, seed=5)
        assert len(est.shells) == 7
        assert sizes[0] == 64 * 7

    def test_main_rows_split_into_calls_of_whole_shifts(self, monkeypatch):
        # 200000 samples to R = 40 need more than one main call of at most _CALL_ROWS rows
        sizes, batch = [], quad.batch_osc_m1

        def record(n, rows, **kwargs):
            sizes.append(len(rows))
            return batch(n, rows, **kwargs)

        monkeypatch.setattr(quad, "batch_osc_m1", record)
        est = theta_truncated(1, 1, 1, 40.0, 200_000, seed=7)
        pilot, main = sizes[0], sizes[1:]
        assert pilot == 7 * (2000 // 7) and len(main) > 1
        assert max(sizes) <= _CALL_ROWS
        # J rows of one shift: P lattice points of faces rows each, P sized from the allocation
        faces = [1] + [3] * (len(est.shells) - 1)
        shift = [f * _lattice_size(s["alloc"], f) for f, s in zip(faces, est.shells)]
        assert sum(main) == _SHIFTS * sum(shift)
        ends = set(np.cumsum(np.repeat(shift, _SHIFTS)).tolist())
        assert set(np.cumsum(main).tolist()) <= ends
        monkeypatch.undo()
        assert asdict(theta_truncated(1, 1, 1, 40.0, 200_000, seed=7, workers=2)) == asdict(est)

    @pytest.mark.parametrize("n,m", [(2, 2), (1, 1)])
    def test_over_budget_fails_on_first_phase(self, monkeypatch, n, m):
        # the pilot's one J call sizes every row before it evaluates any, so
        # no J is evaluated before the node budget stops the run
        def first_call_only(f):
            def call(*args, **kwargs):
                if not depth:  # a J call, not batch_osc_m1's own call of _batch_J
                    assert not calls, "a J was evaluated before the over-budget phase"
                    calls.append(args)
                depth.append(f)
                try:
                    return f(*args, **kwargs)
                finally:
                    depth.pop()
            return call

        calls, depth = [], []
        for name in ("osc_integral", "batch_osc_m1", "_batch_J"):
            monkeypatch.setattr(quad, name, first_call_only(getattr(quad, name)))
        with pytest.raises(quad.PanelBudgetError):
            theta_truncated(n, m, 1, 1e12, 200, seed=1)
        assert len(calls) == 1


def parseval_doubling_reference(gamma, R, tol=1e-12):
    """Independent reference for parseval_check: order-12 panels of half a cycle
    in x and one unit in b, grown 1.5x until two passes agree to tol, with one
    complex product C Kw per b-panel."""
    def compute(mx_panels, mb_panels):
        x, wx = quad._panel_nodes(mx_panels, *np.polynomial.legendre.leggauss(12))
        K = 2.0 * R * np.sinc(2.0 * R * (x[:, None] - x[None, :]))
        Kw = (wx[:, None] * wx[None, :]) * K
        gb, wb = np.polynomial.legendre.leggauss(12)
        offs = np.linspace(-R, R, mb_panels + 1)
        total = 0.0
        for lo, hi in zip(offs[:-1], offs[1:]):
            beta = (lo + hi) / 2.0 + (hi - lo) / 2.0 * gb
            wts = (hi - lo) / 2.0 * wb
            t = beta[:, None] + gamma * x[None, :]
            C = np.exp(1j * np.pi * t) * np.sinc(t)
            total += float(wts @ np.real(np.einsum("bi,bi->b", C @ Kw, np.conj(C))))
        return total

    mx = max(8, int(np.ceil((R + abs(gamma)) / 0.5)) + 4)
    mb = max(8, int(np.ceil(2.0 * R)))
    val = compute(mx, mb)
    for _ in range(3):
        mx2, mb2 = (3 * mx) // 2, (3 * mb) // 2
        val2 = compute(mx2, mb2)
        if abs(val2 - val) <= tol:
            return val2
        mx, mb, val = mx2, mb2, val2
    return val


def _parseval_per_panel(gamma, R, x_rule, b_rule):
    """parseval_check on its own rules, with one complex product C Kw per b-panel."""
    x, wx = quad._panel_nodes(x_rule[1], *np.polynomial.legendre.leggauss(x_rule[0]))
    Kw = (wx[:, None] * wx[None, :]) * 2.0 * R * np.sinc(2.0 * R * (x[:, None] - x[None, :]))
    gb, wb = np.polynomial.legendre.leggauss(b_rule[0])
    offs = np.linspace(-R, R, b_rule[1] + 1)
    total = 0.0
    for lo, hi in zip(offs[:-1], offs[1:]):
        t = ((lo + hi) / 2.0 + (hi - lo) / 2.0 * gb)[:, None] + gamma * x[None, :]
        C = np.exp(1j * np.pi * t) * np.sinc(t)
        total += float((hi - lo) / 2.0 * wb @ np.real(np.einsum("bi,bi->b", C @ Kw, np.conj(C))))
    return total


class TestParseval:
    def test_zero_top_coefficient_product_form(self):
        # with no cross term the mass factorizes into a squared sinc integral
        scipy_integrate = pytest.importorskip("scipy.integrate")
        R = 20.0
        one_dim, _ = scipy_integrate.quad(
            lambda a: np.sinc(a) ** 2, -R, R, limit=400
        )
        got = parseval_check(0.0, R).value
        assert got == pytest.approx(one_dim**2, abs=1e-6)

    def test_matches_grid_oracle(self):
        R = 2.0
        cells = 600
        t = (np.arange(cells) + 0.5) / cells * 2 * R - R
        A, B = np.meshgrid(t, t, indexing="ij")
        rows = np.column_stack([B.ravel(), A.ravel(), np.full(A.size, 0.7)])
        f = np.abs(J_oracle_11(rows, nodes=512)) ** 2
        oracle = f.sum() * (2 * R / cells) ** 2
        assert parseval_check(0.7, R).value == pytest.approx(oracle, abs=5e-3)

    def test_increases_toward_unit_mass(self):
        v5 = parseval_check(0.3, 5.0).value
        v15 = parseval_check(0.3, 15.0).value
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
        got = parseval_check(gamma, R)
        want = _parseval_per_panel(gamma, R, got.x_rule, got.b_rule)
        assert got.value == pytest.approx(want, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("R", [2.0, 5.0, 30.0])
    @pytest.mark.parametrize("gamma", [0.0, 0.3, 0.7, 2.0])
    def test_within_tol_of_doubling_reference(self, gamma, R):
        want = parseval_doubling_reference(gamma, R)
        for tol in (1e-3, 1e-6, 1e-9):
            got = parseval_check(gamma, R, tol=tol)
            assert abs(got.value - want) <= tol
            assert 0.0 < got.abs_error_estimate <= tol

    @settings(max_examples=25, deadline=None)
    @given(gamma=st.floats(0.0, 4.0), R=st.floats(0.5, 20.0), tol_exp=st.integers(3, 9))
    def test_symmetric_in_gamma(self, gamma, R, tol_exp):
        # |J(a, b, gamma)| = |J(-a, -b, -gamma)| and the box is symmetric
        tol = 10.0**-tol_exp
        plus, minus = parseval_check(gamma, R, tol), parseval_check(-gamma, R, tol)
        assert abs(plus.value - minus.value) <= 2 * tol
        assert (plus.x_rule, plus.b_rule) == (minus.x_rule, minus.b_rule)


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
        d = asdict(rep)
        assert d["radii"] == [2.0, 4.0, 8.0]
        assert len(d["estimates"]) == 3
        assert d["classification"] in ("convergent", "divergent", "inconclusive")

    def test_estimates_are_theta_at_each_radius(self):
        radii = [2.0, 4.0, 8.0]
        rep = growth_diagnostic(1, 1, 1, radii, 500, seed=2**64 - 1)
        for est, R in zip(rep.estimates, radii):
            assert asdict(est) == asdict(theta_truncated(1, 1, 1, R, 500, seed=2**64 - 1))

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
