"""Command-line front end.

Every experiment is a subcommand with an explicit seed and machine-readable
output.  JSON is canonical: a command returns its payload, which main opens
with a "run" block of every argument and flag that is set, bar --output and
--workers.  theta, diagnose and boxes, whose results are tables, also take
--format csv.  Both are written by the json encoder, whose floats are the
shortest text that reads back to the same double (an integer-valued float
prints as 2.0), so round-trips are lossless; reruns with identical flags
produce byte-identical output, for any --workers value.

Exit codes: 0 success, 1 computational failure (budget exceeded, hypothesis
violation), 2 input error, a result that is not finite among them.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from functools import cache
from pathlib import Path

from . import lowerbound, poly, quad, theta, variety
from .rng import check_seed, philox_stream, uniform32

DEFAULT_SEED = 20240001
_MAX_DIVERGENT_K = 1 << 20  # longest divergent_k list exponent writes, about 13 MB of JSON
_NO_EFFECT = "accepted for uniformity with the other seeded commands; has no effect"


def _emit(args, payload: dict, table) -> None:
    """Write the payload as JSON or, with --format csv, the table: a list of
    rows as dicts, whose first row's scalar keys are the header (theta's
    per-shell list stays in the JSON).  JSON has no NaN or infinity: either,
    anywhere in the payload, is a ValueError in both formats."""
    try:
        text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
        if getattr(args, "format", "json") == "csv":
            table = [{k: v for k, v in row.items() if not isinstance(v, list)} for row in table]
            lines = [",".join(table[0])]
            lines += [",".join(json.dumps(c, allow_nan=False) for c in row.values()) for row in table]
            text = "\n".join(lines) + "\n"
    except ValueError as exc:
        raise ValueError(f"a result is not finite: {exc}") from exc
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {args.output}: {exc}") from exc
    else:
        sys.stdout.write(text)


# argparse's bookkeeping, and flags that cannot change a number
_NOT_RUN = {"command", "fn", "output", "workers"}


def _run_config(args) -> dict:
    """Every flag and argument of the run that is set, in declaration order."""
    return {k: v for k, v in vars(args).items() if v is not None and k not in _NOT_RUN}


def _load_json(path: str, cls):
    """cls.from_json_dict of a JSON file; ValueError if it cannot be read."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    return cls.from_json_dict(obj)


def cmd_exponent(args):
    thr = poly.critical_threshold(args.n, args.m)
    if thr // 4 > _MAX_DIVERGENT_K:
        raise ValueError(f"{thr // 4} divergent k, over the {_MAX_DIVERGENT_K} exponent lists")
    divergent = list(range(1, thr // 4 + 1))
    return {
        "N": poly.monomial_count(args.n, args.m),
        "threshold": thr,
        "alpha_inverse": poly.alpha_inverse(args.n, args.m),
        "divergent_k": divergent,
        "smallest_convergent_k": (divergent[-1] + 1) if divergent else 1,
    }, None


def cmd_integral(args):
    res = quad.osc_integral(_load_json(args.poly, poly.PolySpec), tol=args.tol)
    return {
        "value_re": res.value.real,
        "value_im": res.value.imag,
        "abs_error_estimate": res.abs_error_estimate,
        "n_evals": res.n_evals,
    }, None


def cmd_theta(args):
    est = asdict(theta.theta_truncated(
        args.n, args.m, args.k, args.R, args.samples, args.seed,
        tol=args.tol, workers=args.workers,
    ))
    return est, [est]


def cmd_parseval(args):
    res = theta.parseval_check(args.gamma, args.R, tol=args.tol)
    return {**asdict(res), "plancherel_constant_expected": 1.0,
            "deviation_from_expected": res.value - 1.0}, None


def cmd_gram(args):
    cfg = _load_json(args.config, variety.PointConfig)
    g0 = variety.gram_G0(cfg, args.n, args.m)
    a, b = (2.0 * uniform32(philox_stream(args.seed, 5), 1, 2)[0] - 1.0).tolist()
    g_shift = variety.gram_G0(variety.translate_solution(cfg, a, b), args.n, args.m)
    lam = 2.0
    scaled = variety.PointConfig(cfg.k, cfg.points * lam)
    g_scaled = variety.gram_G0(scaled, args.n, args.m)
    expo = 2 * poly.alpha_inverse(args.n, args.m)
    return {
        "G0": g0,
        "translation": {"a": a, "b": b, "G0_shifted": g_shift,
                        "abs_diff": abs(g_shift - g0)},
        "scaling": {"lambda": lam, "G0_scaled": g_scaled,
                    "expected": g0 * lam**expo,
                    "rel_diff": abs(g_scaled - g0 * lam**expo) / max(g0 * lam**expo, 1e-300)},
    }, None


def cmd_thinshell(args):
    if args.theta_form and (args.weight != "none" or args.u != 0.0):
        raise ValueError("--theta-form estimates at u = 0 without weight; "
                         "drop --weight and --u")
    if args.theta_form:
        est = variety.theta_via_thin_shell(
            args.n, args.m, args.k, args.h, args.samples, args.seed,
            workers=args.workers,
        )
    else:
        est = variety.thin_shell_measure(
            args.n, args.m, args.k, args.u, args.h, args.samples, args.seed,
            weight=args.weight, workers=args.workers,
        )
    return asdict(est), None


def cmd_boxes(args):
    sweep = lowerbound.box_sweep(args.n, args.m, args.k, args.scales)
    report = lowerbound.disjointness_check(args.n, args.m, args.k, args.scales)
    return {"disjointness": asdict(report), "sweep": sweep}, sweep


def cmd_diagnose(args):
    rep = asdict(theta.growth_diagnostic(
        args.n, args.m, args.k, args.radii, args.samples, args.seed,
        tol=args.tol, workers=args.workers,
    ))
    return rep, rep["estimates"]


def _add_common(p, seeded=True, table=False):
    """Flags every subcommand takes, and --format where a CSV table exists;
    returns the --seed and --workers actions of seeded ones."""
    p.add_argument("--output", help="write results to this file instead of stdout")
    if table:
        p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--config-file", dest="config_file",
                   help="key=value file supplying flag defaults")
    if seeded:
        return (p.add_argument("--seed", type=int, default=DEFAULT_SEED),
                p.add_argument("--workers", type=int, default=1,
                               help="threads to run on; the output is the same for any count"))


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


@cache
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
    _add_common(p, table=True)
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
    _add_common(p)[1].help = _NO_EFFECT
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

    p = sub.add_parser("boxes", help="box volumes, disjointness and gradient margin")
    for name in ("n", "m", "k"):
        p.add_argument(name, type=int)
    p.add_argument("--scales", type=int, nargs="+", default=[2, 4, 8])
    for action in _add_common(p, table=True):
        action.help = _NO_EFFECT
    p.set_defaults(fn=cmd_boxes)

    p = sub.add_parser("diagnose", help="growth of the truncated integral in R")
    for name in ("n", "m", "k"):
        p.add_argument(name, type=int)
    p.add_argument("--radii", type=float, nargs="+", default=[5.0, 10.0, 20.0, 40.0])
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--tol", type=float, default=1e-6)
    _add_common(p, table=True)
    p.set_defaults(fn=cmd_diagnose)

    return ap


def _read_config_file(path: str, options) -> list[str]:
    """A key=value file's pairs as flag tokens, --key then the value's words; --key in options."""
    try:
        with open(path) as fh:
            lines = [line.strip() for line in fh]
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    tokens = []
    for number, line in enumerate(lines, 1):
        if line and not line.startswith("#"):
            key, eq, val = (part.strip() for part in line.partition("="))
            if not (eq and key):
                raise ValueError(f"config file {path}, line {number}: expected key=value, "
                                 f"got {line!r}")
            if f"--{key}" not in options:
                raise ValueError(f"config file {path}, line {number}: unknown key {key!r}")
            tokens += [f"--{key}", *val.split()]
    return tokens


def _parse(parser, argv):
    """Parse argv; a --config-file fills the flags that argv leaves unset.

    The file's flags go between the command and argv's own, closed by the
    --config-file flag itself, so that a list such as --radii ends there.
    argparse keeps the last value it reads for a flag, in whatever form
    argv gives it (--key value, --key=value, an abbreviation): argv wins."""
    args = parser.parse_args(argv)
    if args.config_file is None:
        return args
    # the sub-command's option strings; argparse has no public accessor for them
    options = parser._subparsers._group_actions[0].choices[args.command]._option_string_actions
    from_file = _as_values(_read_config_file(args.config_file, options))
    return parser.parse_args(argv[:1] + from_file + [f"--config-file={args.config_file}"]
                             + argv[1:])


def _as_values(argv):
    # argparse takes values such as -1e-3 or -inf for flags; float() and int()
    # ignore the leading space that marks them as values
    return [" " + a if a.startswith("-") and _is_number(a) else a for a in argv]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse(build_parser(), _as_values(argv))
        if getattr(args, "workers", 1) < 1:
            raise ValueError(f"--workers must be at least 1, got {args.workers}")
        check_seed(getattr(args, "seed", 0))  # also for boxes, which draws nothing
        if args.output and (Path(args.output).is_dir() or not Path(args.output).parent.is_dir()):
            raise ValueError(f"cannot write {args.output}: not a file in an existing directory")
        payload, table = args.fn(args)
        _emit(args, {"run": _run_config(args), **payload}, table)
    except (quad.PanelBudgetError, variety.HypothesisError) as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
