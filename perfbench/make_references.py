"""Regenerate perfbench/references.json: long-run Monte Carlo references.

Each benchmark Monte Carlo job is checked against a reference estimate made
at the same (n, m, k, R) or (n, m, k, h, weight), with a seed no workload
uses and many times the job's sample budget.  Run from the repository root:

    python3 perfbench/make_references.py

It takes several minutes on two cores.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

from tarry2d import theta, variety  # noqa: E402
from workloads import theta_key, thin_shell_key  # noqa: E402

REF_SEED = 987_654_321
WORKERS = 2

THETA = [  # (n, m, k, R, samples)
    (1, 1, 1, 5.0, 400_000),
    (1, 1, 1, 10.0, 400_000),
    (1, 1, 1, 20.0, 400_000),
    (1, 1, 1, 40.0, 400_000),
    (2, 1, 3, 1.0, 400_000),
]
THIN_SHELL = [  # (n, m, k, h, weight, draws); level u = 0
    (1, 1, 2, 0.01, "none", 800_000_000),
    (1, 1, 2, 0.02, "sqrtG0", 160_000_000),
]


def main() -> int:
    refs = {}
    for n, m, k, R, samples in THETA:
        t0 = time.perf_counter()
        e = theta.theta_truncated(n, m, k, R, samples, REF_SEED, workers=WORKERS)
        refs[theta_key(n, m, k, R)] = {
            "value": e.value, "std_error": e.std_error,
            "n_samples": e.n_samples, "seed": REF_SEED,
        }
        print(f"{theta_key(n, m, k, R)}: {e.value:.6g} +- {e.std_error:.2g} "
              f"({time.perf_counter() - t0:.0f} s)", flush=True)
    for n, m, k, h, weight, draws in THIN_SHELL:
        t0 = time.perf_counter()
        e = variety.thin_shell_measure(n, m, k, 0.0, h, draws, REF_SEED,
                                       weight=weight, workers=WORKERS)
        refs[thin_shell_key(n, m, k, h, weight)] = {
            "value": e.value, "std_error": e.std_error,
            "n_samples": e.n_samples, "n_accepted": e.n_accepted, "seed": REF_SEED,
        }
        print(f"{thin_shell_key(n, m, k, h, weight)}: {e.value:.6g} +- "
              f"{e.std_error:.2g} ({time.perf_counter() - t0:.0f} s)", flush=True)
    out = Path(__file__).resolve().parent / "references.json"
    out.write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
