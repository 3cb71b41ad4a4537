"""Numerical laboratory for two-dimensional oscillatory integrals with polynomial phases."""
