"""End-to-end acceptance suite.

Each test prints exactly one PASS/FAIL line (run pytest with -s to see them
live; captured output is shown on failure).  Budgets are sized for a desktop
run: the whole module finishes in well under 20 minutes.
"""

import json
import math

import numpy as np
import pytest

from tarry2d import cli
from tarry2d.lowerbound import (
    box_bounds,
    box_to_alpha,
    box_volume,
    box_volume_exponent,
    disjointness_check,
    e_set_margin,
    sample_box,
)
from tarry2d.poly import (
    PolySpec,
    alpha_inverse,
    beta_to_alpha,
    monomial_count,
    recoeff_matrix,
    taylor_recenter,
)
from tarry2d.rng import philox_stream
from tarry2d.theta import _wls_slope, parseval_check, theta_truncated
from tarry2d.variety import (
    PointConfig,
    ellipsoid_volume_check,
    gram_G0,
    gram_dets,
    jacobian_D_case21,
    theta_via_thin_shell,
    thin_shell_measure,
    translate_solution,
)

SEED = 20240001


def report(num, ok, detail):
    print(f"CRITERION {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_01_two_coefficient_mass():
    # truncated marginal mass approaches the transform-plane constant 1
    val = parseval_check(0.3, 50.0).value
    ok = abs(val - 1.0) <= 0.05
    report(1, ok, f"mass(gamma=0.3, R=50) = {val:.6f}, "
                  f"confirmed constant 1 (|dev| = {abs(val - 1.0):.4f} <= 0.05)")


def test_02_linear_growth_k1():
    radii = [5.0, 10.0, 20.0, 40.0]
    ests = [theta_truncated(1, 1, 1, R, 200_000, SEED + i)
            for i, R in enumerate(radii)]
    ratios = [e.value / (2.0 * R) for e, R in zip(ests, radii)]
    within = all(abs(r - 1.0) <= 0.10 for r in ratios)
    slope, _ = _wls_slope(np.log(radii),
                          np.array([e.value for e in ests]),
                          np.array([e.std_error for e in ests]))
    ok = within and abs(slope - 1.0) <= 0.15
    report(2, ok, f"value/(2R) = {[f'{r:.3f}' for r in ratios]}, "
                  f"log-log exponent = {slope:.3f} (target 1.00 +- 0.15)")


def test_03_convergence_k2():
    e10 = theta_truncated(1, 1, 2, 10.0, 200_000, SEED)
    e20 = theta_truncated(1, 1, 2, 20.0, 200_000, SEED + 1)
    inc = e20.value - e10.value
    budget = 0.05 * e10.value + 3.0 * math.sqrt(e10.std_error**2 + e20.std_error**2)
    ok = inc <= budget
    report(3, ok, f"increment R=10->20 is {inc:.4f} <= {budget:.4f} "
                  f"(5% of {e10.value:.4f} plus 3 combined se)")


def test_04_gram_invariance_suite():
    rng = np.random.default_rng(SEED)
    failures = []
    for n, m, k in ((1, 1, 2), (2, 1, 2)):
        N = monomial_count(n, m)
        bound = (4.0 * k * (n + m) ** 2) ** N
        expo = 2 * alpha_inverse(n, m)
        for t in range(1000):
            cfg = PointConfig(k, rng.uniform(0, 1, (2 * k, 2)))
            g = gram_G0(cfg, n, m)
            a, b = rng.uniform(-1, 1, 2)
            g_sh = gram_G0(translate_solution(cfg, a, b), n, m)
            if abs(g_sh - g) > 1e-9 * max(g, 1e-30):
                failures.append((n, m, t, "translation"))
            lam = rng.uniform(0.5, 2.0)
            g_sc = gram_G0(PointConfig(k, cfg.points * lam), n, m)
            if abs(g_sc - g * lam**expo) > 1e-9 * max(g * lam**expo, 1e-30):
                failures.append((n, m, t, "scaling"))
            if g > bound:
                failures.append((n, m, t, "bound"))
            halves = cfg.points.reshape(2, k, 2)  # (half, point, coordinate)
            gh, gp = gram_dets(halves[:, :, 0].T, halves[:, :, 1].T, n, m)
            if g < gh + gp - 1e-9 * max(g, 1e-30):
                failures.append((n, m, t, "superadditivity"))
    ok = not failures
    report(4, ok, f"2000 random configurations, {len(failures)} failures "
                  f"{failures[:3] if failures else ''}")


def test_05_ellipsoid_identity():
    rng = np.random.default_rng(SEED + 5)
    hits = 0
    for t in range(20):
        while True:
            cfg = PointConfig(2, rng.uniform(0, 1, (4, 2)))
            if gram_G0(cfg, 1, 1) > 1e-6:
                break
        chk = ellipsoid_volume_check(cfg, 1, 1, 1_000_000, seed=SEED + 100 + t)
        if abs(chk.mc_volume - chk.closed_form) <= 3.0 * chk.mc_std_error:
            hits += 1
    ok = hits >= 18
    report(5, ok, f"{hits}/20 Monte Carlo volumes within 3 se of "
                  f"the closed form (need >= 18)")


def test_06_cross_estimator_consistency():
    th = theta_truncated(1, 1, 2, 40.0, 300_000, SEED + 6)
    shells = {h: theta_via_thin_shell(1, 1, 2, h, 100_000_000, SEED + 60)
              for h in (0.02, 0.01)}
    r = {h: th.value / est.value for h, est in shells.items()}
    drift = abs(r[0.02] / r[0.01] - 1.0)
    ok = drift <= 0.15
    norm = 0.5 * (r[0.02] + r[0.01])
    report(6, ok, f"ratio truncated/thin-shell = {r[0.02]:.3f} (h=0.02), "
                  f"{r[0.01]:.3f} (h=0.01); drift {drift:.3f} <= 0.15; "
                  f"normalization constant {norm:.3f}")


def _cofactor_det(M):
    if len(M) == 1:
        return M[0][0]
    total = 0.0
    for c, v in enumerate(M[0]):
        minor = [row[:c] + row[c + 1:] for row in M[1:]]
        total += (-1) ** c * v * _cofactor_det(minor)
    return total


def test_07_jacobian_closed_form():
    rng = np.random.default_rng(SEED + 7)

    def matrix(x, y, u, v):
        return [[1.0, 0.0, 1.0, 0.0],
                [0.0, 1.0, 0.0, 1.0],
                [y, x, v, u],
                [2 * x, 0.0, 2 * u, 0.0]]

    # confirm the closed form by cofactor expansion before asserting it
    for _ in range(200):
        x, y, u, v = rng.uniform(-2, 2, 4)
        if abs(_cofactor_det(matrix(x, y, u, v)) + 2 * (u - x) ** 2) > 1e-12:
            report(7, False, "cofactor oracle contradicts -2(u-x)^2")
    bad = 0
    for _ in range(10_000):
        x, y, u, v = rng.uniform(-3, 3, 4)
        want = float(np.linalg.det(np.array(matrix(x, y, u, v))))
        if abs(jacobian_D_case21(x, y, u, v) - want) > 1e-12:
            bad += 1
    exact_zero = jacobian_D_case21(0.7, 1.3, 0.7, -0.4) == 0.0
    ok = bad == 0 and exact_zero
    report(7, ok, f"{bad}/10000 mismatches vs numerical determinant "
                  f"(tol 1e-12); zero at u=x exact: {exact_zero}")


def test_08_lower_bound_construction():
    n, m, k = 2, 1, 2
    rng = philox_stream(SEED + 8)
    margin_bad = 0
    for P in (2, 4, 8):
        for nu in range(1, P + 1):
            for mu in range(1, P + 1):
                region = box_bounds(n, m, k, P, nu, mu)
                betas = sample_box(region, rng, 100)
                for al in box_to_alpha(region, betas):
                    F = PolySpec.from_vector(n, m, al)
                    if e_set_margin(F, k, (nu / P, mu / P, P)) > 0.0:
                        margin_bad += 1
    rep = disjointness_check(n, m, k, [2, 4, 8])
    expo_ok = True
    for nn in range(1, 8):
        for mm in range(1, 8):
            if not 2 <= nn + mm <= 8:
                continue
            e = box_volume_exponent(nn, mm)
            v1 = box_volume(box_bounds(nn, mm, 2, 1, 1, 1))
            v4 = box_volume(box_bounds(nn, mm, 2, 4, 1, 1))
            if not math.isclose(v4 / v1, 4.0**e, rel_tol=1e-12):
                expo_ok = False
    ok = margin_bad == 0 and rep.ok and expo_ok
    report(8, ok, f"gradient margins > 0: {margin_bad}/8400; disjointness "
                  f"violations: {len(rep.violations)}/{rep.n_pairs} pairs; "
                  f"volume exponent identity exact: {expo_ok}")


def test_09_exponent_table(capsys, tmp_path):
    want = {(1, 1): 6, (2, 1): 11, (2, 2): 20, (3, 1): 18}
    ok = True
    rows = []
    for (n, m), thr in want.items():
        dest = tmp_path / f"exp_{n}{m}.json"
        code = cli.main(["exponent", str(n), str(m), "--output", str(dest)])
        obj = json.loads(dest.read_text())
        divergent = [kk for kk in range(1, 12) if 4 * kk <= thr]
        if code != 0 or obj["threshold"] != thr or obj["divergent_k"] != divergent:
            ok = False
        rows.append(f"({n},{m})->{obj['threshold']}")
    report(9, ok, "thresholds " + ", ".join(rows) +
           "; divergent-k ranges match 4k <= threshold")


def test_10_recoefficient_map_and_eta():
    rng = np.random.default_rng(SEED + 10)
    struct_ok = True
    map_ok = True
    for _ in range(100):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        u1, u2 = rng.uniform(-2, 2, 2)
        U = recoeff_matrix(n, m, u1, u2)
        N = monomial_count(n, m)
        if not (np.array_equal(np.triu(U, 1), np.zeros((N, N)))
                and np.array_equal(np.diag(U), np.ones(N))):
            struct_ok = False
        F = PolySpec.from_vector(n, m, rng.uniform(-5, 5, N))
        beta, _ = taylor_recenter(F, u1, u2)
        alpha = beta_to_alpha(n, m, u1, u2, beta)
        if not np.allclose(alpha, F.coeff_vector(), rtol=1e-9, atol=1e-9):
            map_ok = False
    eta = thin_shell_measure(1, 1, 2, np.zeros(3), 0.02, 20_000_000,
                             SEED + 11, weight="sqrtG0")
    sig = eta.value / eta.std_error if eta.std_error > 0 else float("inf")
    ok = struct_ok and map_ok and sig > 5.0
    report(10, ok, f"unitriangular structure: {struct_ok}; coefficient map "
                   f"round trip: {map_ok}; surface area = {eta.value:.3f} "
                   f"+- {eta.std_error:.3f} ({sig:.1f} se above 0)")


def test_11_determinism(tmp_path):
    poly_path = tmp_path / "phase.json"
    poly_path.write_text(json.dumps(
        PolySpec(1, 1, {(1, 1): 2.0, (1, 0): 0.5}).to_json_dict()))
    cfg_path = tmp_path / "points.json"
    pts = np.random.default_rng(SEED).uniform(0, 1, (4, 2))
    cfg_path.write_text(json.dumps({"k": 2, "points": pts.tolist()}))

    commands = {
        "exponent": ["exponent", "2", "1"],
        "integral": ["integral", str(poly_path), "--tol", "1e-8"],
        "parseval": ["parseval", "0.3", "5.0"],
        "gram": ["gram", str(cfg_path), "--n", "1", "--m", "1"],
        "theta": ["theta", "1", "1", "1", "4.0", "--samples", "20000"],
        "thinshell": ["thinshell", "1", "1", "2", "--h", "0.05",
                      "--samples", "400000"],
        "boxes": ["boxes", "1", "1", "1", "--scales", "1", "2"],
        "diagnose": ["diagnose", "1", "1", "1", "--radii", "2", "4", "8",
                     "--samples", "10000"],
    }
    parallel = {"theta", "thinshell", "boxes", "diagnose"}
    bad = []
    for name, argv in commands.items():
        outs = []
        variants = [argv, argv]
        if name in parallel:
            variants += [argv + ["--workers", "4"]]
        for i, v in enumerate(variants):
            dest = tmp_path / f"{name}_{i}.json"
            code = cli.main(v + ["--output", str(dest)])
            if code != 0:
                bad.append((name, "exit", code))
            outs.append(dest.read_bytes())
        if any(o != outs[0] for o in outs[1:]):
            bad.append((name, "bytes differ"))
    ok = not bad
    report(11, ok, f"{len(commands)} subcommands byte-identical across "
                   f"reruns and worker counts 1 and 4; issues: {bad or 'none'}")
