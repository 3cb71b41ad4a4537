"""Numerical laboratory for two-dimensional oscillatory integrals with polynomial phases."""

from .poly import (
    PolySpec,
    alpha_inverse,
    beta_to_alpha,
    critical_threshold,
    monomial_count,
    monomial_indices,
    recoeff_matrix,
    taylor_recenter,
)
from .quad import PanelBudgetError, QuadResult, osc_integral
from .theta import (
    GrowthReport,
    ThetaEstimate,
    growth_diagnostic,
    parseval_check,
    theta_truncated,
)
from .variety import (
    HypothesisError,
    PointConfig,
    SurfaceMeasureEstimate,
    ellipsoid_volume_check,
    gram_G0,
    gram_dets,
    jacobi_A0,
    jacobian_D_case21,
    residual,
    theta_via_thin_shell,
    thin_shell_measure,
    translate_solution,
)
from .lowerbound import (
    BoxRegion,
    box_bounds,
    box_volume,
    c_constant,
    disjointness_check,
    divergence_partial_sum,
    e_set_margin,
    gradient_margin,
    shell_series_term,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
