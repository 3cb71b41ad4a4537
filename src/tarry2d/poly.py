"""Bivariate polynomial phases without constant term.

Coefficient vectors are ordered by the graded index order: (i, j) precedes
(i', j') when i + j < i' + j', with ties broken first on i, then on j.
Recentering a polynomial at a new base point is a unitriangular linear map
on coefficient vectors, exposed here as an explicit matrix (recoeff_matrix),
which beta_to_alpha and taylor_recenter apply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


def _check_degrees(n: int, m: int) -> None:
    if n < 1 or m < 1:
        raise ValueError(f"degrees must satisfy n >= 1, m >= 1; got ({n}, {m})")


def as_int(value) -> int:
    """An integral JSON number, 2.0 included, as an int; TypeError otherwise."""
    if type(value) not in (int, float) or value % 1:
        raise TypeError(f"expected an integer, got {value!r}")
    return int(value)


def monomial_indices(n: int, m: int) -> list[tuple[int, int]]:
    """All exponent pairs (i, j), 0<=i<=n, 0<=j<=m, i+j>0, in graded order."""
    _check_degrees(n, m)
    idx = [(i, j) for i in range(n + 1) for j in range(m + 1) if i + j > 0]
    idx.sort(key=lambda ij: (ij[0] + ij[1], ij[0], ij[1]))
    return idx


def monomial_count(n: int, m: int) -> int:
    """Number of admissible monomials, (n+1)(m+1) - 1."""
    _check_degrees(n, m)
    return (n + 1) * (m + 1) - 1


def critical_threshold(n: int, m: int) -> int:
    """Critical value of 4k: growth below or at it, decay strictly above it.

    Equals 2 + (n+m)(n+1)(m+1)/2.  The product (n+m)(n+1)(m+1) is always
    even, so the threshold is an integer.
    """
    _check_degrees(n, m)
    prod = (n + m) * (n + 1) * (m + 1)
    assert prod % 2 == 0
    return 2 + prod // 2


def alpha_inverse(n: int, m: int) -> int:
    """Aggregate homogeneity weight 1 + (n+m-2)(n+1)(m+1)/2.

    Equals the sum of (i+j-1) over all admissible indices.
    """
    _check_degrees(n, m)
    prod = (n + m - 2) * (n + 1) * (m + 1)
    assert prod % 2 == 0
    return 1 + prod // 2


@dataclass(frozen=True)
class PolySpec:
    """A bivariate polynomial sum alpha_ij x^i y^j with no constant term."""

    n: int
    m: int
    coeffs: dict = field(default_factory=dict)

    def __post_init__(self):
        _check_degrees(self.n, self.m)
        clean = {}
        for (i, j), val in dict(self.coeffs).items():
            if not (0 <= i <= self.n and 0 <= j <= self.m):
                raise ValueError(
                    f"index ({i}, {j}) out of range for degrees ({self.n}, {self.m})"
                )
            if i + j == 0:
                raise ValueError("constant term (0, 0) is not allowed")
            val = float(val)
            if not math.isfinite(val):
                raise ValueError(f"coefficient ({i}, {j}) is not finite: {val}")
            clean[(int(i), int(j))] = val
        object.__setattr__(self, "coeffs", clean)

    @property
    def indices(self) -> list[tuple[int, int]]:
        return monomial_indices(self.n, self.m)

    def coeff_vector(self) -> np.ndarray:
        """Dense coefficients in graded index order, length N."""
        return np.array([self.coeffs.get(ij, 0.0) for ij in self.indices])

    @classmethod
    def from_vector(cls, n: int, m: int, vec) -> "PolySpec":
        vec = np.asarray(vec, dtype=float)
        idx = monomial_indices(n, m)
        if vec.shape != (len(idx),):
            raise ValueError(f"expected {len(idx)} coefficients, got {vec.shape}")
        return cls(n, m, {ij: v for ij, v in zip(idx, vec)})

    def coeff_matrix(self) -> np.ndarray:
        """(n+1) x (m+1) array C with C[i, j] = alpha_ij and C[0, 0] = 0."""
        C = np.zeros((self.n + 1, self.m + 1))
        for (i, j), v in self.coeffs.items():
            C[i, j] = v
        return C

    def eval(self, x, y):
        """Evaluate at x, y (scalars or broadcastable arrays)."""
        return np.polynomial.polynomial.polyval2d(x, y, self.coeff_matrix())

    def grad(self, x, y):
        """Exact partial derivatives (dF/dx, dF/dy) at x, y."""
        C = self.coeff_matrix()
        Cx = C[1:, :] * np.arange(1, self.n + 1)[:, None]
        Cy = C[:, 1:] * np.arange(1, self.m + 1)[None, :]
        fx = np.polynomial.polynomial.polyval2d(x, y, Cx)
        fy = np.polynomial.polynomial.polyval2d(x, y, Cy)
        return fx, fy

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "coeffs": [
                {"i": i, "j": j, "value": v}
                for (i, j), v in sorted(self.coeffs.items())
            ],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "PolySpec":
        try:
            n, m = as_int(obj["n"]), as_int(obj["m"])
            coeffs = {}
            for e in obj.get("coeffs", []):
                i, j, v = as_int(e["i"]), as_int(e["j"]), float(e["value"])
                if (i, j) in coeffs:
                    raise ValueError(f"duplicate coefficient at ({i}, {j})")
                coeffs[(i, j)] = v
        except (KeyError, TypeError, OverflowError) as exc:
            raise ValueError(f"malformed polynomial object: {exc}") from exc
        return cls(n, m, coeffs)


def taylor_recenter(F: PolySpec, u1: float, u2: float):
    """Coefficients of F in powers of (x - u1), (y - u2).

    Returns (beta, beta00) where beta is the length-N vector over the graded
    index order and beta00 = F(u1, u2) is the constant term, carried
    separately because coefficient vectors exclude it.  Recentering at u
    undoes recentering at -u, so beta is beta_to_alpha at -u.
    """
    return beta_to_alpha(F.n, F.m, -u1, -u2, F.coeff_vector()), float(F.eval(u1, u2))


def recoeff_matrix(n: int, m: int, u1: float, u2: float) -> np.ndarray:
    """N x N lower-unitriangular matrix U mapping recentered to original coefficients.

    Rows and columns are indexed by the graded index order taken in
    *descending* direction (highest index first), the arrangement under which
    the map is triangular with unit diagonal: with beta_desc the recentered
    coefficients listed from the top index down, U @ beta_desc gives the
    original coefficients alpha in the same descending arrangement.  Use
    beta_to_alpha for vectors kept in ascending order.
    """
    idx_desc = monomial_indices(n, m)[::-1]
    pos = {ij: r for r, ij in enumerate(idx_desc)}
    N = len(idx_desc)
    # powers by Python's float ** int: numpy's power rounds some of them differently
    x = [float(u1) ** p for p in range(n + 1)]
    y = [float(u2) ** q for q in range(m + 1)]
    U = np.zeros((N, N))
    for (s, t), r in pos.items():
        for p in range(s, n + 1):
            for q in range(t, m + 1):
                if p + q == 0:
                    continue
                U[r, pos[(p, q)]] = ((-1) ** (p - s + q - t) * math.comb(p, s) * math.comb(q, t)
                                     * x[p - s] * y[q - t])
    return U


def beta_to_alpha(n: int, m: int, u1: float, u2: float, beta) -> np.ndarray:
    """Map recentered coefficients (ascending graded order) back to original ones.

    beta is one vector or a batch of rows, all recentered at (u1, u2).  Each
    entry sums U's row times beta from 0 in column order, as numpy's loop for
    U @ beta_desc does, so a row maps to the same bits alone or in any batch
    (a GEMM would not).
    """
    U = recoeff_matrix(n, m, u1, u2)
    b = np.asarray(beta, dtype=float)[..., ::-1]
    return sum(U[:, c] * b[..., c, None] for c in range(b.shape[-1]))[..., ::-1]
