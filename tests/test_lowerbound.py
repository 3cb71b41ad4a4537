import itertools
import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tarry2d import lowerbound
from tarry2d.lowerbound import (
    BoxRegion,
    box_bounds,
    box_to_alpha,
    box_volume,
    box_volume_exponent,
    c_constant,
    disjointness_check,
    e_set_margin,
    gradient_margin,
    sample_box,
)
from tarry2d.poly import (
    PolySpec,
    critical_threshold,
    monomial_count,
    monomial_indices,
    recoeff_matrix,
)
from tarry2d.rng import philox_stream, uniform32


class TestConstant:
    def test_closed_forms(self):
        # max(n m, 2) = 2 for (1,1)
        assert c_constant(1, 1, 1) == pytest.approx(0.25)
        assert c_constant(2, 1, 2) == pytest.approx(1.0 / (4.0 * math.sqrt(5.0)))

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            c_constant(0, 1, 1)
        with pytest.raises(ValueError):
            c_constant(1, 1, 0)


class TestBoxes:
    def test_volume_smallest_case(self):
        region = box_bounds(1, 1, 1, 1, 1, 1)
        assert box_volume(region) == pytest.approx(3.125e-4)

    def test_top_interval(self):
        c = c_constant(2, 1, 2)
        region = box_bounds(2, 1, 2, 4, 1, 1)
        top = monomial_indices(2, 1).index((2, 1))
        assert region.lower[top] == pytest.approx(0.5 * c * 4**2)
        assert region.upper[top] == pytest.approx(c * 4**2)

    def test_interval_widths(self):
        c = c_constant(2, 1, 2)
        region = box_bounds(2, 1, 2, 2, 1, 2)
        widths = region.upper - region.lower
        for r, (i, j) in enumerate(monomial_indices(2, 1)):
            if (i, j) == (2, 1):
                assert widths[r] == pytest.approx(0.5 * c * 2**2)
            else:
                assert widths[r] == pytest.approx(0.2 * c * 2 ** (i + j - 1))

    def test_center(self):
        region = box_bounds(1, 1, 1, 4, 3, 2)
        assert region.center == (0.75, 0.5)

    def test_rejects_bad_centers(self):
        with pytest.raises(ValueError):
            box_bounds(1, 1, 1, 4, 0, 1)
        with pytest.raises(ValueError):
            box_bounds(1, 1, 1, 4, 1, 5)
        with pytest.raises(ValueError):
            box_bounds(1, 1, 1, 0, 1, 1)

    def test_volume_exponent_identity(self):
        # volume scales as P^e with e = (n+m)(n+1)(m+1)/2 - N, all 2 <= n+m <= 8
        for n in range(1, 8):
            for m in range(1, 8):
                if not 2 <= n + m <= 8:
                    continue
                e = box_volume_exponent(n, m)
                v1 = box_volume(box_bounds(n, m, 2, 1, 1, 1))
                v4 = box_volume(box_bounds(n, m, 2, 4, 1, 1))
                assert v4 / v1 == pytest.approx(4.0**e, rel=1e-12)

    def test_sample_box_support(self):
        region = box_bounds(2, 1, 2, 4, 2, 3)
        rng = philox_stream(1)
        betas = sample_box(region, rng, 500)
        assert betas.shape == (500, 5)
        assert np.all(betas >= region.lower)
        assert np.all(betas <= region.upper)

    def test_sample_box_is_affine_in_uniform32(self):
        region = box_bounds(2, 1, 2, 4, 2, 3)
        u = uniform32(philox_stream(1), 500, 5)
        assert np.array_equal(sample_box(region, philox_stream(1), 500),
                              region.lower + (region.upper - region.lower) * u)

    def test_box_to_alpha_keeps_top_coefficient(self):
        # the recoefficient map is unitriangular, so the top entry is fixed
        region = box_bounds(2, 1, 2, 4, 2, 3)
        rng = philox_stream(2)
        betas = sample_box(region, rng, 50)
        alphas = box_to_alpha(region, betas)
        top = monomial_indices(2, 1).index((2, 1))
        assert np.allclose(alphas[:, top], betas[:, top])


class TestGradientMargin:
    def test_box_phases_have_small_gradient(self):
        region = box_bounds(2, 1, 2, 2, 1, 2)
        rng = philox_stream(3)
        betas = sample_box(region, rng, 50)
        alphas = box_to_alpha(region, betas)
        for al in alphas:
            F = PolySpec.from_vector(2, 1, al)
            assert e_set_margin(F, 2, (0.5, 1.0, 2)) <= 0.0

    def test_large_gradient_flagged(self):
        F = PolySpec(1, 1, {(1, 0): 5.0})
        assert e_set_margin(F, 2, (1.0, 1.0, 2)) > 0.0

    def test_degenerate_square_rejected(self):
        F = PolySpec(1, 1, {(1, 0): 1.0})
        with pytest.raises(ValueError):
            e_set_margin(F, 2, (-1.0, 0.5, 2))

    @pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (1, 2), (3, 1), (1, 3), (2, 2)])
    def test_closed_form_is_the_largest_vertex_margin(self, n, m):
        # |grad F|^2 is convex in beta, so the grid margins peak at a vertex of the box;
        # every box has the same margin, so each scale's corner centres stand for all
        for k in (1, 2, 3):
            for P in (1, 2, 4, 8):
                for nu, mu in {(1, 1), (1, P), (P, 1), (P, P)}:
                    region = box_bounds(n, m, k, P, nu, mu)
                    vertices = itertools.product(*zip(region.lower, region.upper))
                    margin = max(e_set_margin(PolySpec.from_vector(n, m, a), k, (nu / P, mu / P, P))
                                 for a in box_to_alpha(region, np.array(list(vertices))))
                    assert abs(margin - gradient_margin(n, m, k)) <= 1e-12

    def test_negative_for_every_degree_and_divergent_k(self):
        for n, m in itertools.product(range(1, 8), range(1, 8)):
            if n + m > 8:
                continue
            # k = 1..8 and every divergent k, 4k <= critical threshold
            for k in range(1, max(9, critical_threshold(n, m) // 4 + 1)):
                assert gradient_margin(n, m, k) < 0.0


@st.composite
def _dyadic_scales(draw, top=16):
    """Increasing scales up to top, each at least double the last."""
    scales = [draw(st.integers(1, top))]
    while 2 * scales[-1] <= top and draw(st.booleans()):
        scales.append(draw(st.integers(2 * scales[-1], top)))
    return scales


def boxes_disjoint(r1: BoxRegion, r2: BoxRegion) -> bool:
    """Scalar reference: certify that two boxes are disjoint in original coefficients.

    Same scale, centers differing in nu: along the (n-1, m) coefficient, the
    shared top coefficient t forces a gap |d_nu|/P * n * t exceeding the sum
    of the residual interval widths.  Centers differing only in mu: the
    symmetric argument on (n, m-1).  Different scales: the top-coefficient
    intervals are separated (touching endpoints count as disjoint, half-open).
    """
    if (r1.n, r1.m, r1.k) != (r2.n, r2.m, r2.k):
        raise ValueError("boxes must share (n, m, k)")
    n, m = r1.n, r1.m
    c = c_constant(n, m, r1.k)
    if r1.P != r2.P:
        top = monomial_indices(n, m).index((n, m))
        return r1.upper[top] <= r2.lower[top] or r2.upper[top] <= r1.lower[top]
    P = r1.P
    if (r1.nu, r1.mu) == (r2.nu, r2.mu):
        return False
    t_min = 0.5 * c * P ** (n + m - 1)
    widths = 0.2 * c * P ** (n + m - 2)
    if r1.nu != r2.nu:
        return abs(r1.nu - r2.nu) / P * n * t_min > widths
    return abs(r1.mu - r2.mu) / P * m * t_min > widths


class TestDisjointness:
    def test_same_box_not_disjoint(self):
        a = box_bounds(1, 1, 1, 2, 1, 1)
        assert boxes_disjoint(a, a) is False

    def test_distinct_centers_same_scale(self):
        a = box_bounds(2, 1, 2, 4, 1, 1)
        b = box_bounds(2, 1, 2, 4, 2, 1)
        c = box_bounds(2, 1, 2, 4, 1, 3)
        assert boxes_disjoint(a, b)
        assert boxes_disjoint(a, c)

    def test_distinct_dyadic_scales(self):
        a = box_bounds(2, 1, 2, 2, 1, 1)
        b = box_bounds(2, 1, 2, 4, 1, 1)
        assert boxes_disjoint(a, b)

    def test_mismatched_parameters_rejected(self):
        a = box_bounds(1, 1, 1, 2, 1, 1)
        b = box_bounds(2, 1, 1, 2, 1, 1)
        with pytest.raises(ValueError):
            boxes_disjoint(a, b)

    def test_full_check_clean(self):
        report = disjointness_check(2, 1, 2, [2, 4])
        assert report.ok
        assert report.n_pairs == 20 * 19 // 2
        assert asdict(report)["violations"] == []

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 4), m=st.integers(1, 3), k=st.integers(1, 4), scales=_dyadic_scales())
    @example(n=1, m=1, k=1, scales=[4, 8])  # (1, 1) at P and 2P: the top intervals touch
    def test_closed_form_matches_scalar_reference(self, n, m, k, scales):
        boxes = [box_bounds(n, m, k, *c) for c in _centers(scales)]
        assert all(boxes_disjoint(a, b) for a, b in itertools.combinations(boxes, 2))
        report = disjointness_check(n, m, k, scales)
        assert report.violations == []
        assert report.n_pairs == len(boxes) * (len(boxes) - 1) // 2

    def test_non_dyadic_scales_rejected(self):
        with pytest.raises(ValueError):
            disjointness_check(1, 1, 1, [2, 3])


def _centers(scales):
    return [(P, nu, mu) for P in scales
            for nu in range(1, P + 1) for mu in range(1, P + 1)]


class TestBatchedSweep:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 3), m=st.integers(1, 3), k=st.integers(1, 4),
           P=st.sampled_from([1, 2, 4, 8]), data=st.data(),
           seed=st.integers(0, 2**32 - 1), size=st.integers(1, 150))
    def test_batched_margins_match_scalar_loop(self, n, m, k, P, data, seed, size):
        # box_to_alpha on a batch of rows maps each as the scalar recoeff_matrix product
        nu, mu = data.draw(st.integers(1, P)), data.draw(st.integers(1, P))
        region = box_bounds(n, m, k, P, nu, mu)
        betas = sample_box(region, philox_stream(seed), size)
        U = recoeff_matrix(n, m, *region.center)
        assert np.array_equal(box_to_alpha(region, betas),
                              np.stack([(U @ b[::-1])[::-1] for b in betas]))

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 4), m=st.integers(1, 3), k=st.integers(1, 4), scales=_dyadic_scales())
    def test_sweep_rows_are_volume_and_gradient_margin(self, n, m, k, scales):
        want = [{"P": P, "nu": nu, "mu": mu, "volume": box_volume(box_bounds(n, m, k, P, nu, mu)),
                 "margin_max": gradient_margin(n, m, k)} for P, nu, mu in _centers(scales)]
        assert lowerbound.box_sweep(n, m, k, scales) == want

    def test_sweep_scale_cap(self):
        # P^2 sweep rows a scale: 65536 at 256, 12 MB of JSON at scales 2..256
        sweep = lowerbound.box_sweep(1, 1, 1, [256])
        assert [(s["P"], s["nu"], s["mu"]) for s in sweep] == _centers([256])
        for check in (lambda scales: lowerbound.box_sweep(1, 1, 1, scales),
                      lambda scales: disjointness_check(1, 1, 1, scales)):
            with pytest.raises(ValueError, match="256"):
                check([2, 512])

    @pytest.mark.parametrize("scales", [[0, 2], [-2], []])
    def test_empty_sweep_rejected(self, scales):
        with pytest.raises(ValueError):
            disjointness_check(1, 1, 1, scales)

    def test_no_draws_rejected(self):
        with pytest.raises(ValueError):
            sample_box(box_bounds(1, 1, 1, 1, 1, 1), philox_stream(0), 0)

