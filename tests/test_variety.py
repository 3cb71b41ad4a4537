import math
import warnings
from dataclasses import asdict

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tarry2d.poly import alpha_inverse, monomial_count, monomial_indices
from tarry2d.variety import (
    HypothesisError,
    PointConfig,
    ellipsoid_volume_check,
    ellipsoid_volume_mc,
    gram_G0,
    gram_dets,
    jacobi_A0,
    jacobian_D_case21,
    residual,
    theta_via_thin_shell,
    thin_shell_measure,
    translate_solution,
)


# coordinates of up to 3 + 3 points in the unit square
COORDS = st.lists(st.floats(0.0, 1.0), min_size=12, max_size=12)

# two near-degenerate (2,1) sets of 2 + 2 points, as x0, y0, x1, y1, ...
NEAR_DEGENERATE = [
    # cond G = 1.3e24: LU on G = D D^T put G0 off by 1.4e-3 relative and the
    # residual of the scaling law at 6.7e-41 against a slack of 4.9e-47
    [0.0, 0.0, 1.7592873299784266e-07, 0.0, 0.0, 0.0, 0.0, 1.0],
    # near the origin, 6e-8 wide in x: centring buried the x^2 y row under the
    # x^2 one, det over Hadamard fell from 0.375 to 1e-14 and G0 was 4.9e-9 off
    [5.960464477539063e-08, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.859375],
]


def random_config(rng, k, lo=0.0, hi=1.0):
    return PointConfig(k, rng.uniform(lo, hi, (2 * k, 2)))


class TestConfig:
    def test_signs(self):
        cfg = random_config(np.random.default_rng(0), 2)
        assert list(cfg.signs) == [1.0, 1.0, -1.0, -1.0]

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            PointConfig(2, np.zeros((3, 2)))
        with pytest.raises(ValueError):
            PointConfig(0, np.zeros((0, 2)))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_coordinates_rejected(self, bad):
        pts = np.zeros((4, 2))
        pts[2, 1] = bad
        with pytest.raises(ValueError):
            PointConfig(2, pts)

    def test_json_roundtrip(self):
        cfg = random_config(np.random.default_rng(1), 2)
        back = PointConfig.from_json_dict(cfg.to_json_dict())
        assert back.k == cfg.k
        assert np.array_equal(back.points, cfg.points)

    def test_json_malformed(self):
        with pytest.raises(ValueError):
            PointConfig.from_json_dict({"points": [[0, 0]]})


class TestResidual:
    def test_hand_computed_k1(self):
        cfg = PointConfig(1, [[2.0, 3.0], [5.0, 7.0]])
        # ascending index order (0,1), (1,0), (1,1)
        want = [3.0 - 7.0, 2.0 - 5.0, 6.0 - 35.0]
        assert np.allclose(residual(cfg, 1, 1), want)

    def test_paired_points_solve_system(self):
        rng = np.random.default_rng(3)
        p = rng.uniform(0, 1, (2, 2))
        cfg = PointConfig(2, np.vstack([p, p]))
        assert np.allclose(residual(cfg, 2, 2), 0.0)

    def test_translation_preserves_solutions(self):
        rng = np.random.default_rng(4)
        p = rng.uniform(0, 1, (2, 2))
        cfg = PointConfig(2, np.vstack([p, p]))
        moved = translate_solution(cfg, 0.37, -0.21)
        assert np.allclose(residual(moved, 2, 2), 0.0, atol=1e-12)


class TestJacobi:
    def test_shape(self):
        cfg = random_config(np.random.default_rng(5), 2)
        assert jacobi_A0(cfg, 2, 1).shape == (5, 8)

    def test_finite_differences(self):
        rng = np.random.default_rng(6)
        h = 1e-6
        for _ in range(20):
            cfg = random_config(rng, 2)
            A = jacobi_A0(cfg, 2, 1)
            flat = cfg.points.ravel()
            for col in range(flat.size):
                bump = flat.copy()
                bump[col] += h
                up = residual(PointConfig(2, bump.reshape(-1, 2)), 2, 1)
                bump[col] -= 2 * h
                dn = residual(PointConfig(2, bump.reshape(-1, 2)), 2, 1)
                assert np.allclose(A[:, col], (up - dn) / (2 * h), atol=1e-6)


class TestGram:
    def test_nonnegative(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            assert gram_G0(random_config(rng, 2), 1, 1) >= 0.0

    def test_translation_invariance(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            cfg = random_config(rng, 2)
            a, b = rng.uniform(-2, 2, 2)
            g = gram_G0(cfg, 1, 1)
            g2 = gram_G0(translate_solution(cfg, a, b), 1, 1)
            assert g2 == pytest.approx(g, rel=1e-9, abs=1e-15)

    def test_translation_invariance_ill_conditioned_set(self):
        # an ill-conditioned set: with powers formed at the points as given,
        # not about their mean, this shift moved G0 by 1.1e-9 relative
        pts = [[0.48140895550802865, 0.014833769918360273],
               [0.4161836203933381, 0.7754457609755137],
               [0.5537377969831526, 0.8637252709675081],
               [0.4722526668258642, 0.5601244090595013]]
        cfg = PointConfig(2, np.array(pts))
        g = gram_G0(cfg, 2, 1)
        g2 = gram_G0(translate_solution(cfg, 0.4698640892129322, 0.8504309003387187), 2, 1)
        assert abs(g2 - g) <= 1e-9 * g
        with mpmath.workdps(40):  # det(A A^T) with A's entries at 40 digits
            A = mpmath.matrix([
                [c for e, (x, y) in zip((1, 1, -1, -1), pts)
                 for c in (e * i * mpmath.mpf(x) ** (i - 1) * mpmath.mpf(y) ** j if i else 0,
                           e * j * mpmath.mpf(x) ** i * mpmath.mpf(y) ** (j - 1) if j else 0)]
                for i, j in monomial_indices(2, 1)])
            exact = float(mpmath.det(A * A.T))
        assert abs(g - exact) <= 1e-9 * exact

    def test_scaling_law(self):
        rng = np.random.default_rng(9)
        for n, m in ((1, 1), (2, 1)):
            expo = 2 * alpha_inverse(n, m)
            for _ in range(100):
                cfg = random_config(rng, 2)
                lam = rng.uniform(0.5, 2.0)
                g = gram_G0(cfg, n, m)
                g2 = gram_G0(PointConfig(cfg.k, cfg.points * lam), n, m)
                assert g2 == pytest.approx(g * lam**expo, rel=1e-9, abs=1e-15)

    @staticmethod
    def _det_scale(cfg, n, m):
        # Hadamard bound on G0: the round-off in det(G) is relative to it
        A = jacobi_A0(cfg, n, m)
        return float(np.prod(np.sum(A * A, axis=1)))

    @settings(max_examples=100, deadline=None)
    @given(nm=st.sampled_from([(1, 1), (2, 1)]), k=st.integers(2, 3), coords=COORDS,
           shift=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)))
    def test_translation_invariance_property(self, nm, k, coords, shift):
        n, m = nm
        cfg = PointConfig(k, np.reshape(coords[: 4 * k], (2 * k, 2)))
        moved = translate_solution(cfg, *shift)
        slack = 1e-9 * max(self._det_scale(cfg, n, m), self._det_scale(moved, n, m))
        assert abs(gram_G0(moved, n, m) - gram_G0(cfg, n, m)) <= slack

    @settings(max_examples=100, deadline=None)
    @given(nm=st.sampled_from([(1, 1), (2, 1)]), k=st.integers(2, 3), coords=COORDS,
           lam=st.floats(0.25, 4.0))
    @example(nm=(2, 1), k=2, coords=NEAR_DEGENERATE[0] + [0.0] * 4, lam=1.5)
    @example(nm=(2, 1), k=2, coords=NEAR_DEGENERATE[1] + [0.0] * 4, lam=1.75)
    def test_scaling_law_property(self, nm, k, coords, lam):
        n, m = nm
        cfg = PointConfig(k, np.reshape(coords[: 4 * k], (2 * k, 2)))
        scaled = PointConfig(k, cfg.points * lam)
        want = gram_G0(cfg, n, m) * lam ** (2 * alpha_inverse(n, m))
        slack = 1e-9 * self._det_scale(scaled, n, m)
        assert abs(gram_G0(scaled, n, m) - want) <= slack

    def test_unit_cube_bound(self):
        rng = np.random.default_rng(10)
        for n, m, k in ((1, 1, 2), (2, 1, 2)):
            N = monomial_count(n, m)
            bound = (4.0 * k * (n + m) ** 2) ** N
            for _ in range(200):
                assert gram_G0(random_config(rng, k), n, m) <= bound

    def test_superadditivity(self):
        # square minors split into the two halves of the columns
        rng = np.random.default_rng(11)
        for _ in range(200):
            cfg = random_config(rng, 2)
            g0 = gram_G0(cfg, 1, 1)
            halves = cfg.points.reshape(2, 2, 2)  # (half, point, coordinate)
            g, gp = gram_dets(halves[:, :, 0].T, halves[:, :, 1].T, 1, 1)
            assert g0 >= g + gp - 1e-12 * max(g0, 1.0)

    def test_rank_deficient_sets_read_exactly_zero(self):
        # with fewer than N gradient columns G is singular, and a QR of D^T
        # would have too few diagonal entries to give its determinant
        rng = np.random.default_rng(13)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for S in (1, 4700):
                for n, m, points in ((2, 1, 2), (2, 2, 3), (3, 1, 3)):
                    x, y = rng.random((points, S)), rng.random((points, S))
                    assert np.array_equal(gram_dets(x, y, n, m), np.zeros(S))
                # one point repeated: G = 0, whose zero pivot gives NaN and takes the QR
                x, y = np.full((4, S), 0.3), np.full((4, S), 0.6)
                assert np.array_equal(gram_dets(x, y, 2, 1), np.zeros(S))

    @staticmethod
    def _mp_det(x, y, n, m):
        # det(D D^T) at 50 digits for the set as gram_dets centres it, and prod G_ii
        x, y = x - x.mean(), y - y.mean()
        with mpmath.workdps(50):
            xs, ys = [mpmath.mpf(v) for v in x], [mpmath.mpf(v) for v in y]
            D = mpmath.matrix([[c for a, b in zip(xs, ys)
                                for c in (i * a ** (i - 1) * b**j if i else 0,
                                          j * a**i * b ** (j - 1) if j else 0)]
                               for i, j in monomial_indices(n, m)])
            G = D * D.T
            return mpmath.det(G), math.prod(G[r, r] for r in range(G.rows))

    @pytest.mark.parametrize("n, m", [(1, 1), (2, 1), (3, 1), (2, 2)])
    def test_matches_mpmath_within_hadamard_bound(self, n, m):
        # random sets of 2 + 2 points and the near-degenerate ones, alone (S = 1)
        # and at random places of a batch of 4700, as many as a sqrtG0 block accepts
        rng = np.random.default_rng(17)
        sets = [rng.random((4, 2)) for _ in range(20)]
        sets += [np.reshape(c, (4, 2)) for c in NEAR_DEGENERATE]
        x, y = rng.random((2, 4, 4700))
        at = rng.choice(4700, len(sets), replace=False)
        for s, pts in zip(at, sets):
            x[:, s], y[:, s] = pts.T
        batch = gram_dets(x, y, n, m)
        for s, pts in zip(at, sets):
            exact, hadamard = self._mp_det(pts[:, 0], pts[:, 1], n, m)
            single = gram_dets(pts[:, :1], pts[:, 1:], n, m)[0]
            for g in (single, batch[s]):
                assert abs(g - exact) <= 1e-12 * hadamard

    def test_batch_matches_single(self):
        rng = np.random.default_rng(12)
        for n, m, k in ((1, 1, 2), (2, 1, 3)):
            cfgs = [random_config(rng, k) for _ in range(50)]
            pts = np.stack([c.points for c in cfgs], axis=-1)  # (point, coord, set)
            batch = gram_dets(pts[:, 0], pts[:, 1], n, m)
            single = [gram_G0(c, n, m) for c in cfgs]
            assert batch == pytest.approx(single, rel=1e-13)


class TestEllipsoid:
    def test_unit_ball(self):
        vol, se = ellipsoid_volume_mc(np.eye(3), 400_000, seed=12)
        assert abs(vol - 4.0 * math.pi / 3.0) <= 4 * se

    def test_diagonal(self):
        M = np.diag([1.0, 4.0, 0.25])
        vol, se = ellipsoid_volume_mc(M, 400_000, seed=13)
        want = 4.0 * math.pi / 3.0 / math.sqrt(np.prod(np.diag(M)))
        assert abs(vol - want) <= 4 * se

    def test_rejects_singular(self):
        with pytest.raises(ValueError):
            ellipsoid_volume_mc(np.diag([1.0, 0.0, 1.0]), 1000, seed=1)

    @pytest.mark.parametrize("n_samples", [0, -3])
    def test_bad_inputs(self, n_samples):
        with pytest.raises(ValueError, match="n_samples"):
            ellipsoid_volume_mc(np.eye(3), n_samples, seed=1)

    def test_standard_error_coverage(self):
        # about 95% of small runs should land within 2 se of the closed form
        A = np.array([[1.0, 0.3, 0.0], [0.2, 2.0, 0.5], [0.0, -0.4, 0.7]])
        M = A @ A.T
        want = 4.0 * math.pi / 3.0 / math.sqrt(np.linalg.det(M))
        hits = sum(abs(vol - want) <= 2 * se
                   for vol, se in (ellipsoid_volume_mc(M, 2000, seed=s) for s in range(200)))
        assert 0.88 <= hits / 200 <= 0.99

    def test_identity_against_gram(self):
        rng = np.random.default_rng(14)
        cfg = random_config(rng, 2)
        chk = ellipsoid_volume_check(cfg, 1, 1, 400_000, seed=15)
        assert abs(chk.mc_volume - chk.closed_form) <= 4 * chk.mc_std_error

    def test_deterministic(self):
        a = ellipsoid_volume_mc(np.eye(3), 100_000, seed=16)
        b = ellipsoid_volume_mc(np.eye(3), 100_000, seed=16)
        assert a == b


def rejection_oracle(n, m, k, u, h, weight, draws, seed):
    """Plain rejection in [0,1]^4k with its own Gram determinant: (value, se)."""
    rng = np.random.default_rng(seed)
    idx = monomial_indices(n, m)
    eps = np.r_[np.ones(k), -np.ones(k)]
    tot = tot2 = 0.0
    for start in range(0, draws, 250_000):
        s = rng.random((min(250_000, draws - start), 2 * k, 2))
        x, y = s[..., 0], s[..., 1]
        ok = np.ones(len(s), dtype=bool)
        for r, (i, j) in enumerate(idx):
            ok &= np.abs((x**i * y**j) @ eps - u[r]) <= h
        w = np.ones(int(ok.sum()))
        if weight == "sqrtG0":
            xa, ya = x[ok], y[ok]
            A = np.stack([np.concatenate(
                [eps * i * xa ** max(i - 1, 0) * ya**j,
                 eps * j * xa**i * ya ** max(j - 1, 0)], axis=1)
                for i, j in idx], axis=1)
            w = np.sqrt(np.maximum(np.linalg.det(A @ A.transpose(0, 2, 1)), 0.0))
        tot += w.sum()
        tot2 += (w * w).sum()
    mean = tot / draws
    scale = (2 * h) ** -len(idx)
    return mean * scale, math.sqrt((tot2 / draws - mean**2) / draws) * scale


class TestThinShell:
    @pytest.mark.parametrize("n, m, k, u, h, weight", [
        (1, 1, 2, (0.0, 0.0, 0.0), 0.05, "none"),
        (1, 1, 2, (0.0, 0.0, 0.0), 0.05, "sqrtG0"),
        (2, 1, 3, (0.1, -0.1, 0.05, 0.0, -0.05), 0.1, "none"),
    ])
    def test_matches_rejection_oracle(self, n, m, k, u, h, weight):
        # the solved linear sums must reproduce plain rejection at the same h
        est = thin_shell_measure(n, m, k, np.array(u), h, 400_000, seed=31,
                                 weight=weight)
        ref, ref_se = rejection_oracle(n, m, k, u, h, weight, 2_000_000, seed=32)
        assert abs(est.value - ref) <= 3 * math.hypot(est.std_error, ref_se)
        # and need at least 10x fewer draws for the same standard error
        assert 10 * est.std_error**2 * 400_000 < ref_se**2 * 2_000_000

    @pytest.mark.parametrize("weight", ["none", "sqrtG0"])
    def test_standard_error_coverage(self, weight):
        # about 95% of small runs should land within 2 se of a long run
        ref = thin_shell_measure(1, 1, 2, np.zeros(3), 0.05, 20_000_000,
                                 seed=33, weight=weight)
        hits = 0
        for seed in range(1000, 1200):
            est = thin_shell_measure(1, 1, 2, np.zeros(3), 0.05, 20_000,
                                     seed=seed, weight=weight)
            hits += abs(est.value - ref.value) <= 2 * est.std_error
        assert 0.88 <= hits / 200 <= 0.99

    def test_effective_sample_size(self):
        plain = thin_shell_measure(1, 1, 2, np.zeros(3), 0.05, 200_000, seed=34)
        assert plain.effective_sample_size == plain.n_accepted > 0
        w = thin_shell_measure(1, 1, 2, np.zeros(3), 0.05, 200_000, seed=34,
                               weight="sqrtG0")
        assert 0 < w.effective_sample_size < w.n_accepted
        assert asdict(w)["effective_sample_size"] == w.effective_sample_size

    def test_matches_plain_mc_oracle(self):
        n, m, k, h = 1, 1, 1, 0.05
        est = thin_shell_measure(n, m, k, np.zeros(3), h, 400_000, seed=17)
        rng = np.random.default_rng(18)
        M = 600_000
        s = rng.random((M, 4))
        x, y = s[:, 0::2], s[:, 1::2]
        ok = np.ones(M, dtype=bool)
        for i, j in monomial_indices(n, m):
            ok &= np.abs(x[:, 0] ** i * y[:, 0] ** j
                         - x[:, 1] ** i * y[:, 1] ** j) <= h
        p = ok.mean()
        scale = (2 * h) ** -3
        oracle = p * scale
        oracle_se = math.sqrt(p * (1 - p) / M) * scale
        tol = 3 * math.sqrt(est.std_error**2 + oracle_se**2)
        assert abs(est.value - oracle) <= tol

    def test_deterministic_and_worker_invariant(self):
        a = thin_shell_measure(1, 1, 2, np.zeros(3), 0.05, 600_000, seed=19)
        b = thin_shell_measure(1, 1, 2, np.zeros(3), 0.05, 600_000, seed=19,
                               workers=4)
        assert a.value == b.value
        assert a.std_error == b.std_error
        assert a.n_accepted == b.n_accepted

    def test_weighted_positive(self):
        est = thin_shell_measure(1, 1, 2, np.zeros(3), 0.05, 600_000, seed=20,
                                 weight="sqrtG0")
        assert est.value > 0.0
        assert est.value > 3 * est.std_error

    @pytest.mark.parametrize("k, u, h", [
        (0, 0.0, 0.1), (-1, 0.0, 0.1), (1, 0.0, math.inf), (1, 0.0, math.nan),
        (1, math.nan, 0.1), (1, -math.inf, 0.1),
    ])
    def test_bad_k_h_or_level(self, k, u, h):
        with pytest.raises(ValueError):
            thin_shell_measure(1, 1, k, np.full(3, u), h, 100, seed=1)

    @pytest.mark.parametrize("n, m, h", [(1, 1, 1e-320), (2, 2, 1e-60)])
    def test_h_with_overflowing_normaliser(self, n, m, h):
        # (2h)^(2 - N) is not a float: a ValueError, not an OverflowError
        N = monomial_count(n, m)
        with pytest.raises(ValueError, match="normaliser"):
            thin_shell_measure(n, m, 4, np.zeros(N), h, 1000, seed=1)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            thin_shell_measure(1, 1, 1, np.zeros(3), 0.0, 100, seed=1)
        with pytest.raises(ValueError):
            thin_shell_measure(1, 1, 1, np.zeros(3), 0.1, 0, seed=1)
        with pytest.raises(ValueError):
            thin_shell_measure(1, 1, 1, np.zeros(3), 0.1, 100, seed=1,
                               weight="bogus")

    def test_theta_form_hypothesis(self):
        with pytest.raises(HypothesisError):
            theta_via_thin_shell(1, 1, 1, 0.05, 1000, seed=1)

    def test_theta_form_runs(self):
        est = theta_via_thin_shell(1, 1, 2, 0.05, 400_000, seed=21)
        assert est.weight == "none"
        assert est.value > 0.0


class TestJacobianD:
    def cofactor_det(self, M):
        # Laplace expansion along the first row, recursively
        M = [list(r) for r in M]
        if len(M) == 1:
            return M[0][0]
        total = 0.0
        for c, v in enumerate(M[0]):
            minor = [r[:c] + r[c + 1 :] for r in M[1:]]
            total += (-1) ** c * v * self.cofactor_det(minor)
        return total

    def matrix(self, x, y, u, v):
        return [
            [1.0, 0.0, 1.0, 0.0],
            [0.0, 1.0, 0.0, 1.0],
            [y, x, v, u],
            [2 * x, 0.0, 2 * u, 0.0],
        ]

    def test_against_cofactor_oracle(self):
        rng = np.random.default_rng(22)
        for _ in range(500):
            x, y, u, v = rng.uniform(-2, 2, 4)
            want = self.cofactor_det(self.matrix(x, y, u, v))
            assert jacobian_D_case21(x, y, u, v) == pytest.approx(want, abs=1e-12)

    def test_against_numpy_det(self):
        rng = np.random.default_rng(23)
        for _ in range(1000):
            x, y, u, v = rng.uniform(-3, 3, 4)
            want = float(np.linalg.det(np.array(self.matrix(x, y, u, v))))
            assert jacobian_D_case21(x, y, u, v) == pytest.approx(want, abs=1e-12)

    def test_zero_exactly_on_diagonal(self):
        assert jacobian_D_case21(0.4, 0.9, 0.4, -2.0) == 0.0

    def test_independent_of_y_v(self):
        assert jacobian_D_case21(0.3, 5.0, 0.8, -7.0) == \
            jacobian_D_case21(0.3, 0.0, 0.8, 0.0)
