"""Command-line front end.

Every experiment is a subcommand with an explicit seed and machine-readable
output.  JSON is canonical; CSV is available for sweeps.  All floats are
emitted with 17 significant digits so round-trips are lossless; reruns with
identical flags produce byte-identical output, for any --workers value.

Exit codes: 0 success, 1 computational failure (budget exceeded, hypothesis
violation), 2 input error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import lowerbound, poly, quad, theta, variety

DEFAULT_SEED = 20240001
_NO_WORKERS = "accepted for uniformity with the other seeded commands; has no effect"


def _fmt_float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == float("inf"):
        return "Infinity"
    if x == float("-inf"):
        return "-Infinity"
    return format(x, ".17g")


def _dumps(obj, indent=0) -> str:
    pad = "  " * indent
    pad2 = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{pad2}{json.dumps(str(k))}: {_dumps(v, indent + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad2}{_dumps(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if obj is None:
        return "null"
    return json.dumps(str(obj))


def _csv_cell(v) -> str:
    return _fmt_float(v) if isinstance(v, float) else str(v)


def _emit(args, payload: dict, csv_rows=None, csv_header=None) -> None:
    fmt = getattr(args, "format", "json")
    if fmt == "csv" and csv_rows is not None:
        lines = [",".join(csv_header)]
        lines += [",".join(_csv_cell(c) for c in row) for row in csv_rows]
        text = "\n".join(lines) + "\n"
    else:
        text = _dumps(payload) + "\n"
    out = getattr(args, "output", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _run_config(args) -> dict:
    # workers deliberately omitted: output is invariant to the worker count
    cfg = {
        "seed": getattr(args, "seed", None),
        "format": getattr(args, "format", None),
    }
    for key in ("n", "m", "k", "R", "h", "samples", "tol", "gamma", "weight",
                "radii", "scales", "poly", "config_file"):
        if hasattr(args, key):
            v = getattr(args, key)
            cfg[key] = list(v) if isinstance(v, (list, tuple)) else v
    return {k: v for k, v in cfg.items() if v is not None}


def _load_poly(path: str) -> poly.PolySpec:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read polynomial file {path}: {exc}") from exc
    return poly.PolySpec.from_json_dict(obj)


def _load_config(path: str) -> variety.PointConfig:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read configuration file {path}: {exc}") from exc
    return variety.PointConfig.from_json_dict(obj)


def cmd_exponent(args) -> None:
    N = poly.monomial_count(args.n, args.m)
    thr = poly.critical_threshold(args.n, args.m)
    divergent = list(range(1, thr // 4 + 1))
    payload = {
        "run": _run_config(args),
        "N": N,
        "threshold": thr,
        "alpha_inverse": poly.alpha_inverse(args.n, args.m),
        "divergent_k": divergent,
        "smallest_convergent_k": (divergent[-1] + 1) if divergent else 1,
    }
    _emit(args, payload)


def cmd_integral(args) -> None:
    F = _load_poly(args.poly)
    res = quad.osc_integral(F, tol=args.tol)
    payload = {
        "run": _run_config(args),
        "value_re": res.value.real,
        "value_im": res.value.imag,
        "abs_error_estimate": res.abs_error_estimate,
        "n_evals": res.n_evals,
    }
    _emit(args, payload)


def cmd_theta(args) -> None:
    est = theta.theta_truncated(
        args.n, args.m, args.k, args.R, args.samples, args.seed,
        tol=args.tol, workers=args.workers,
    )
    d = est.to_dict()
    payload = {"run": _run_config(args), **d}
    header = ["n", "m", "k", "R", "value", "std_error", "n_samples", "seed"]
    rows = [[d[h] for h in header]]
    _emit(args, payload, csv_rows=rows, csv_header=header)


def cmd_parseval(args) -> None:
    res = theta.parseval_check(args.gamma, args.R, tol=args.tol)
    payload = {
        "run": _run_config(args),
        "value": res.value,
        "abs_error_estimate": res.abs_error_estimate,
        "x_rule": list(res.x_rule),
        "b_rule": list(res.b_rule),
        "plancherel_constant_expected": 1.0,
        "deviation_from_expected": res.value - 1.0,
    }
    _emit(args, payload)


def cmd_gram(args) -> None:
    cfg = _load_config(args.config)
    g0 = variety.gram_G0(cfg, args.n, args.m)
    rng = np.random.Generator(np.random.Philox(key=args.seed))
    a, b = rng.uniform(-1.0, 1.0, 2)
    g_shift = variety.gram_G0(variety.translate_solution(cfg, a, b), args.n, args.m)
    lam = 2.0
    scaled = variety.PointConfig(cfg.k, cfg.points * lam)
    g_scaled = variety.gram_G0(scaled, args.n, args.m)
    expo = 2 * poly.alpha_inverse(args.n, args.m)
    payload = {
        "run": _run_config(args),
        "G0": g0,
        "translation": {"a": a, "b": b, "G0_shifted": g_shift,
                        "abs_diff": abs(g_shift - g0)},
        "scaling": {"lambda": lam, "G0_scaled": g_scaled,
                    "expected": g0 * lam**expo,
                    "rel_diff": abs(g_scaled - g0 * lam**expo) / max(g0 * lam**expo, 1e-300)},
    }
    _emit(args, payload)


def cmd_thinshell(args) -> None:
    if args.theta_form and (args.weight != "none" or args.u != 0.0):
        raise ValueError("--theta-form estimates at u = 0 without weight; "
                         "drop --weight and --u")
    if args.theta_form:
        est = variety.theta_via_thin_shell(
            args.n, args.m, args.k, args.h, args.samples, args.seed,
            workers=args.workers,
        )
    else:
        N = poly.monomial_count(args.n, args.m)
        u = np.full(N, args.u)
        est = variety.thin_shell_measure(
            args.n, args.m, args.k, u, args.h, args.samples, args.seed,
            weight=args.weight, workers=args.workers,
        )
    payload = {"run": _run_config(args), **est.to_dict()}
    _emit(args, payload)


def cmd_boxes(args) -> None:
    report = lowerbound.disjointness_check(args.n, args.m, args.k, args.scales)
    sweep = []
    for P in sorted(args.scales):
        for nu in range(1, P + 1):
            for mu in range(1, P + 1):
                region = lowerbound.box_bounds(args.n, args.m, args.k, P, nu, mu)
                rng = np.random.Generator(
                    np.random.Philox(key=(args.seed << 32) + (P << 16) + (nu << 8) + mu)
                )
                betas = lowerbound.sample_box(region, rng, args.beta_samples)
                alphas = lowerbound.box_to_alpha(region, betas)
                margins = lowerbound.e_set_margins(
                    args.n, args.m, alphas, args.k, (nu / P, mu / P, P))
                sweep.append({"P": P, "nu": nu, "mu": mu,
                              "volume": lowerbound.box_volume(region),
                              "margin_max": float(margins.max())})
    payload = {"run": _run_config(args),
               "disjointness": report.to_dict(),
               "sweep": sweep}
    header = ["P", "nu", "mu", "volume", "margin_max"]
    rows = [[s[h] for h in header] for s in sweep]
    _emit(args, payload, csv_rows=rows, csv_header=header)


def cmd_diagnose(args) -> None:
    rep = theta.growth_diagnostic(
        args.n, args.m, args.k, args.radii, args.samples, args.seed,
        tol=args.tol, workers=args.workers,
    )
    payload = {"run": _run_config(args), **rep.to_dict()}
    header = ["n", "m", "k", "R", "value", "std_error", "n_samples", "seed"]
    rows = [[e.to_dict()[h] for h in header] for e in rep.estimates]
    _emit(args, payload, csv_rows=rows, csv_header=header)


def _add_common(p, seeded=True):
    """Flags every subcommand takes; returns the --workers action of seeded ones."""
    p.add_argument("--output", help="write results to this file instead of stdout")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--config-file", dest="config_file",
                   help="key=value file supplying flag defaults")
    if seeded:
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        return p.add_argument("--workers", type=int, default=1,
                              help="threads to run on; the output is the same for any count")


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a malformed command line as a ValueError, not usage text and exit."""

    def error(self, message):
        raise ValueError(message)


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def build_parser() -> argparse.ArgumentParser:
    ap = _ArgumentParser(
        prog="tarry2d",
        description="Experiments on two-dimensional oscillatory integrals "
                    "with polynomial phases",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exponent", help="critical threshold and k-ranges")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    _add_common(p, seeded=False)
    p.set_defaults(fn=cmd_exponent)

    p = sub.add_parser("integral", help="oscillatory integral of a polynomial file")
    p.add_argument("poly", help="JSON polynomial file")
    p.add_argument("--tol", type=float, default=1e-8)
    _add_common(p, seeded=False)
    p.set_defaults(fn=cmd_integral)

    p = sub.add_parser("theta", help="truncated coefficient-space integral")
    for name in ("n", "m", "k"):
        p.add_argument(name, type=int)
    p.add_argument("R", type=float)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--tol", type=float, default=1e-6)
    _add_common(p)
    p.set_defaults(fn=cmd_theta)

    p = sub.add_parser("parseval", help="truncated two-coefficient mass of |J|^2")
    p.add_argument("gamma", type=float)
    p.add_argument("R", type=float)
    p.add_argument("--tol", type=float, default=1e-3)
    _add_common(p, seeded=False)
    p.set_defaults(fn=cmd_parseval)

    p = sub.add_parser("gram", help="Gram determinant and invariance checks")
    p.add_argument("config", help="JSON point-configuration file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    _add_common(p).help = _NO_WORKERS
    p.set_defaults(fn=cmd_gram)

    p = sub.add_parser("thinshell", help="thin-shell surface-measure estimate")
    for name in ("n", "m", "k"):
        p.add_argument(name, type=int)
    p.add_argument("--h", type=float, default=0.01)
    p.add_argument("--u", type=float, default=0.0)
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--weight", choices=["none", "sqrtG0"], default="none")
    p.add_argument("--theta-form", action="store_true",
                   help="require 2k >= N and estimate at u = 0")
    _add_common(p)
    p.set_defaults(fn=cmd_thinshell)

    p = sub.add_parser("boxes", help="box disjointness and gradient-margin sweep")
    for name in ("n", "m", "k"):
        p.add_argument(name, type=int)
    p.add_argument("--scales", type=int, nargs="+", default=[2, 4, 8])
    p.add_argument("--beta-samples", type=int, default=20)
    _add_common(p).help = _NO_WORKERS
    p.set_defaults(fn=cmd_boxes)

    p = sub.add_parser("diagnose", help="growth of the truncated integral in R")
    for name in ("n", "m", "k"):
        p.add_argument(name, type=int)
    p.add_argument("--radii", type=float, nargs="+", default=[5.0, 10.0, 20.0, 40.0])
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--tol", type=float, default=1e-6)
    _add_common(p)
    p.set_defaults(fn=cmd_diagnose)

    for p in sub.choices.values():
        p.set_defaults(parser=p)  # the subcommand's own parser, for _parse
    return ap


def _read_config_file(path: str) -> list[str]:
    """A key=value file's pairs as flag tokens, --key followed by the value's words."""
    try:
        with open(path) as fh:
            pairs = [line.strip().split("=", 1) for line in fh
                     if line.strip() and not line.strip().startswith("#")]
        return [tok for key, val in pairs for tok in (f"--{key.strip()}", *val.split())]
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc


def _parse(parser, argv):
    """Parse argv; a --config-file fills the flags that argv leaves unset.

    argparse itself decides which flags argv sets, in whatever form it accepts
    (--key value, --key=value, an abbreviation): the file's values win on a parse
    of argv plus the file, and argv's own values win wherever a parse of argv
    alone, with the subcommand's defaults masked, sets them."""
    args = parser.parse_args(argv)
    if args.config_file is None:
        return args
    with_file = parser.parse_args(argv + _as_values(_read_config_file(args.config_file)))
    moved = [k for k, v in vars(with_file).items() if getattr(args, k, None) != v]
    unset = object()
    args.parser.set_defaults(**dict.fromkeys(moved, unset))
    given = parser.parse_args(argv)
    for k in moved:
        setattr(args, k, getattr(with_file if getattr(given, k) is unset else given, k))
    return args


def _as_values(argv):
    # argparse takes values such as -1e-3 or -inf for flags; float() and int()
    # ignore the leading space that marks them as values
    return [" " + a if a.startswith("-") and _is_number(a) else a for a in argv]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = _parse(parser, _as_values(argv))
        if getattr(args, "workers", 1) < 1:
            raise ValueError(f"--workers must be at least 1, got {args.workers}")
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    try:
        args.fn(args)
    except (quad.PanelBudgetError, variety.HypothesisError) as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
