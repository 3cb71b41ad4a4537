"""The three benchmark workloads: fixed lists of tarry2d CLI jobs.

Each workload is built once per run from the workload seed.  Input files
(phase JSONs, point sets) are written then and stay fixed for the run; the
Monte Carlo `--seed` of every job changes from pass to pass, so a pass never
repeats the previous pass's draws.  Every job carries its own correctness
check against a reference the program did not produce in the same pass.
"""

from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Callable

import numpy as np

HERE = Path(__file__).resolve().parent
Z_MAX = 5.0  # a Monte Carlo job passes within this many combined standard errors
INTEGRAL_TOL = 1e-9

# Sample budgets, sized so that one pass takes a few seconds on two cores.
DIAGNOSE_RADII = ["5", "10", "20", "40"]
DIAGNOSE_SAMPLES = 12_000
THETA_213 = ("1", 16_000)  # (R, samples)
INTEGRAL_DEGREES = [(1, 1), (1, 2), (2, 2), (3, 1)]
INTEGRAL_VARIATION = 20.0  # sum of |coefficient| x (i + j): about 20 cycles
SHELL_THETA_FORM = ("0.01", 16_000_000)  # (h, draws)
SHELL_SQRT_G0 = ("0.02", 4_000_000)
GRAM_DEGREES = [(1, 1), (2, 1)]
GRAM_SETS = 10  # point sets per degree pair
BOX_SCALES = ["2", "4", "8", "16"]
EXPONENT_DEGREES = [(n, m) for n in range(1, 5) for m in range(1, 5)]


@dataclass
class Job:
    argv: list[str]  # seeded jobs, and only they, also take --workers
    check: Callable[[dict], list[str]]  # problems with the JSON payload
    # relative errors this job contributes to se2_s
    rel_errors: Callable[[dict], list[float]] = lambda payload: []


def pass_seed(seed: int, p: int, j: int) -> int:
    """Monte Carlo seed of job j in pass p: fixed by the workload seed."""
    return random.Random(f"{seed}:{p}:{j}").randrange(1, 2**31)


def theta_key(n, m, k, R) -> str:
    return f"theta n={n} m={m} k={k} R={float(R):g}"


def thin_shell_key(n, m, k, h, weight) -> str:
    return f"thinshell n={n} m={m} k={k} h={float(h):g} weight={weight}"


@functools.cache
def references() -> dict:
    return json.loads((HERE / "references.json").read_text())


def _near_reference(label: str, key: str, value: float, se: float) -> list[str]:
    ref = references()[key]
    z = abs(value - ref["value"]) / math.hypot(se, ref["std_error"])
    if not z <= Z_MAX:
        return [f"{label}: {value:.6g} +- {se:.2g} is {z:.1f} combined SE from "
                f"the reference {ref['value']:.6g} +- {ref['std_error']:.2g}"]
    return []


def _mc_rel_errors(payload: dict) -> list[float]:
    ests = payload.get("estimates", [payload])
    return [e["std_error"] / e["value"] for e in ests]


def _check_theta(p: dict) -> list[str]:
    return _near_reference("theta", theta_key(p["n"], p["m"], p["k"], p["R"]),
                           p["value"], p["std_error"])


def _check_diagnose(p: dict) -> list[str]:
    problems = []
    for e in p["estimates"]:
        problems += _check_theta(e)
    if p["classification"] != "divergent":
        problems.append(f"diagnose: classified {p['classification']}, expected divergent")
    if not abs(p["fitted_exponent"] - 1.0) <= 0.15:
        problems.append(f"diagnose: slope {p['fitted_exponent']:.3f} is not 1 +- 0.15")
    return problems


def _check_thin_shell(p: dict) -> list[str]:
    key = thin_shell_key(p["n"], p["m"], p["k"], p["h"], p["weight"])
    return _near_reference("thinshell", key, p["value"], p["std_error"])


# ---------------------------------------------------------------- theta_batch

def theta_batch(seed: int, workdir: Path):
    R, samples = THETA_213

    def jobs(p: int) -> list[Job]:
        return [
            Job(["diagnose", "1", "1", "1", "--radii", *DIAGNOSE_RADII,
                 "--samples", str(DIAGNOSE_SAMPLES), "--seed", str(pass_seed(seed, p, 0))],
                _check_diagnose, _mc_rel_errors),
            Job(["theta", "2", "1", "3", R, "--samples", str(samples),
                 "--seed", str(pass_seed(seed, p, 1))],
                _check_theta, _mc_rel_errors),
        ]
    return jobs


# ------------------------------------------------------------------- shell_mc

def shell_mc(seed: int, workdir: Path):
    (h1, d1), (h2, d2) = SHELL_THETA_FORM, SHELL_SQRT_G0

    def jobs(p: int) -> list[Job]:
        return [
            Job(["thinshell", "1", "1", "2", "--h", h1, "--samples", str(d1),
                 "--theta-form", "--seed", str(pass_seed(seed, p, 0))],
                _check_thin_shell, _mc_rel_errors),
            Job(["thinshell", "1", "1", "2", "--h", h2, "--samples", str(d2),
                 "--weight", "sqrtG0", "--seed", str(pass_seed(seed, p, 1))],
                _check_thin_shell, _mc_rel_errors),
        ]
    return jobs


# --------------------------------------------------------------- exact_checks

def _random_phase(rng: np.random.Generator, n: int, m: int) -> dict:
    """Phase with random coefficient signs and sizes, scaled to a fixed variation."""
    idx = [(i, j) for i in range(n + 1) for j in range(m + 1) if i + j > 0]
    c = rng.uniform(-1.0, 1.0, len(idx))
    c *= INTEGRAL_VARIATION / sum(abs(v) * (i + j) for v, (i, j) in zip(c, idx))
    return {"n": n, "m": m,
            "coeffs": [{"i": i, "j": j, "value": float(v)} for v, (i, j) in zip(c, idx)]}


def _mpmath_integral(phase: dict) -> complex:
    """J by mpmath: the y-integral in closed form when the phase is linear in
    x or in y, a 2-D Gauss-Legendre rule otherwise."""
    import mpmath

    mpmath.mp.dps = 20
    terms = [(c["i"], c["j"], mpmath.mpf(c["value"])) for c in phase["coeffs"]]
    if phase["n"] == 1:  # transpose so the phase is linear in y
        terms = [(j, i, v) for i, j, v in terms]
    if phase["m"] == 1 or phase["n"] == 1:
        def f(x):
            a = mpmath.fsum(v * x**i for i, j, v in terms if j == 0)
            b = mpmath.fsum(v * x**i for i, j, v in terms if j == 1)
            return mpmath.expjpi(2 * a + b) * mpmath.sinc(mpmath.pi * b)
        val, err = mpmath.quad(f, mpmath.linspace(0, 1, 9), error=True)
    else:
        def f(x, y):
            return mpmath.expjpi(2 * mpmath.fsum(v * x**i * y**j for i, j, v in terms))
        cuts = mpmath.linspace(0, 1, 5)
        val, err = mpmath.quad(f, cuts, cuts, method="gauss-legendre", error=True)
    if not err < 1e-13:
        raise RuntimeError(f"mpmath reference not converged (error {err})")
    return complex(val)


def _check_integral(ref: complex):
    def check(p: dict) -> list[str]:
        diff = abs(complex(p["value_re"], p["value_im"]) - ref)
        problems = []
        if not diff <= INTEGRAL_TOL:
            problems.append(f"integral: {diff:.2e} from the mpmath value")
        if not p["abs_error_estimate"] <= INTEGRAL_TOL:
            problems.append(f"integral: error estimate {p['abs_error_estimate']:.2e} > tol")
        return problems
    return check


def _gram_reference(points: np.ndarray, k: int, n: int, m: int) -> float:
    """det(A A^T) for the Jacobi matrix A of the signed power sums.

    Rows and columns come in another order than the program's, which leaves
    the determinant unchanged."""
    x, y = points[:, 0], points[:, 1]
    eps = np.r_[np.ones(k), -np.ones(k)]
    rows = []
    for i in range(n + 1):
        for j in range(m + 1):
            if i + j:
                dx = eps * i * x ** max(i - 1, 0) * y**j
                dy = eps * j * x**i * y ** max(j - 1, 0)
                rows.append(np.column_stack([dx, dy]).ravel())
    A = np.array(rows)
    return float(np.linalg.det(A @ A.T))


def _random_points(rng: np.random.Generator, count: int) -> np.ndarray:
    """Points in the unit square at least 0.1 apart, so the Gram matrix is well conditioned."""
    while True:
        pts = rng.uniform(0.0, 1.0, (count, 2))
        if min(np.hypot(*(a - b)) for a, b in combinations(pts, 2)) >= 0.1:
            return pts


def _check_gram(ref: float):
    def check(p: dict) -> list[str]:
        problems = []
        if not abs(p["G0"] - ref) <= 1e-9 * ref:
            problems.append(f"gram: G0 {p['G0']:.17g} differs from {ref:.17g}")
        if not p["translation"]["abs_diff"] <= 1e-9 * ref:
            problems.append(f"gram: translation moved G0 by {p['translation']['abs_diff']:.2e}")
        if not p["scaling"]["rel_diff"] <= 1e-9:
            problems.append(f"gram: scaling rel_diff {p['scaling']['rel_diff']:.2e}")
        return problems
    return check


def _check_parseval(p: dict) -> list[str]:
    if not abs(p["value"] - 1.0) <= 0.05:
        return [f"parseval: mass {p['value']:.6f} is not within 0.05 of 1"]
    return []


def _check_boxes(p: dict) -> list[str]:
    n_boxes = sum(int(P) ** 2 for P in BOX_SCALES)
    problems = []
    d = p["disjointness"]
    if d["violations"] or d["n_pairs"] != n_boxes * (n_boxes - 1) // 2:
        problems.append(f"boxes: {len(d['violations'])} violations in {d['n_pairs']} pairs")
    worst = max(s["margin_max"] for s in p["sweep"])
    if len(p["sweep"]) != n_boxes or not worst <= 0.0:
        problems.append(f"boxes: {len(p['sweep'])} boxes, largest margin {worst:.3g}")
    return problems


def _check_exponent(n: int, m: int):
    thr = 2 + (n + m) * (n + 1) * (m + 1) // 2

    def check(p: dict) -> list[str]:
        want = {"N": (n + 1) * (m + 1) - 1, "threshold": thr,
                "alpha_inverse": 1 + (n + m - 2) * (n + 1) * (m + 1) // 2,
                "divergent_k": list(range(1, thr // 4 + 1))}
        return [f"exponent {n} {m}: {k} = {p[k]}, expected {v}"
                for k, v in want.items() if p[k] != v]
    return check


def exact_checks(seed: int, workdir: Path):
    rng = np.random.default_rng([seed, 1])
    integrals = []
    for n, m in INTEGRAL_DEGREES:
        phase = _random_phase(rng, n, m)
        path = workdir / f"phase_{n}{m}.json"
        path.write_text(json.dumps(phase))
        integrals.append((str(path), _check_integral(_mpmath_integral(phase))))
    rng = np.random.default_rng([seed, 2])
    grams = []
    for n, m in GRAM_DEGREES:
        for t in range(GRAM_SETS):
            pts = _random_points(rng, 4)
            path = workdir / f"points_{n}{m}_{t}.json"
            path.write_text(json.dumps({"k": 2, "points": pts.tolist()}))
            grams.append((str(path), n, m, _check_gram(_gram_reference(pts, 2, n, m))))

    def jobs(p: int) -> list[Job]:
        out = [
            Job(["parseval", "0.3", "30"], _check_parseval,
                lambda payload: [payload["deviation_from_expected"]]),
            Job(["boxes", "2", "1", "2", "--scales", *BOX_SCALES,
                 "--seed", str(pass_seed(seed, p, 0))], _check_boxes),
        ]
        out += [Job(["gram", path, "--n", str(n), "--m", str(m),
                     "--seed", str(pass_seed(seed, p, 1 + j))], check)
                for j, (path, n, m, check) in enumerate(grams)]
        out += [Job(["exponent", str(n), str(m)], _check_exponent(n, m))
                for n, m in EXPONENT_DEGREES]
        out += [Job(["integral", path, "--tol", str(INTEGRAL_TOL)], check)
                for path, check in integrals]
        return out
    return jobs


WORKLOADS = {
    "theta_batch": theta_batch,
    "shell_mc": shell_mc,
    "exact_checks": exact_checks,
}
