"""tarry2d benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload theta_batch --seed 1 --seconds 35 --trace 0

Run it from the root of a source tree; the package is imported from ./src.
Jobs are tarry2d CLI invocations made in-process through tarry2d.cli.main.

--trace 0 measures the end-to-end metrics with tracing off: one untimed
pass at --workers 1, whose output bytes every job's first timed pass must
repeat; then timed passes at --workers 2 until --seconds have elapsed, each
after a host-speed calibration and one fresh-interpreter import of
tarry2d.cli.  wall_s is the median pass time put at the reference host speed
by the calibrations; setup_s is the median import.

--trace 1 measures the per-layer metrics: a traced pass at --workers 1
(busy and self time, exact on one thread), the same pass traced at
--workers 2 (speed-up) and untraced at --workers 2 (tracing overhead),
repeated on the same inputs until --seconds have elapsed.

Every job's output is checked; the last stdout line is
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread under each --workers thread.  OpenBLAS otherwise starts a
# spinning thread per core under every worker, oversubscribing the cores, and
# pass times then follow the scheduler more than the program.  Set before numpy
# is first imported; the set-up interpreters inherit it.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

WORKERS = 2  # the timed passes' --workers; output must not depend on it
MIN_PASSES = 3
SETUP_IMPORTS = 11  # at least this many set-up imports per run
# Time of calibration_seconds() at the reference host speed.  The shared host's
# speed drifts by up to 1.7x over minutes, for the passes and the calibration
# alike; wall_s is reported as it would be at this calibration time.
CAL_REFERENCE_S = 0.07
IMPORT_CLI = "import sys; sys.path.insert(0, 'src'); import tarry2d.cli"

# Layers each workload is built to bypass: a call here breaks the workload design.
BYPASS = {
    "quad.batch_osc_m1": ("shell_mc", "exact_checks"),
    "quad.osc_integral": ("theta_batch", "shell_mc"),
    "variety.thin_shell_measure": ("theta_batch", "exact_checks"),
}


def environment() -> dict:
    env = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "cpu_model": platform.processor() or platform.machine(),
           **{var: os.environ[var] for var in BLAS_THREAD_VARS}}
    import numpy

    env["numpy"] = numpy.__version__
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu_model"] = line.split(":", 1)[1].strip()
                break
    with contextlib.suppress(OSError):
        for d in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (d / "level").read_text().strip()
            kind = (d / "type").read_text().strip()
            if kind in ("Unified", "Data"):
                env[f"l{level}_cache"] = (d / "size").read_text().strip()
    return env


def calibration_seconds() -> float:
    """Wall time of fixed work that shares no code with tarry2d.

    It mixes what the workloads do: an interpreter loop, a complex
    exponential over a large array and dense matrix products.
    """
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    x = np.linspace(0.0, 1.0, 1 << 19)
    z = np.exp(2j * np.pi * x * x)
    a = z[: 1 << 16].reshape(256, 256)
    for _ in range(4):
        a = a @ a / 256.0
    return time.perf_counter() - t0


def import_seconds(root: Path) -> float:
    """Wall time of one fresh interpreter importing tarry2d.cli."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_CLI], cwd=root, check=True)
    return time.perf_counter() - t0


def run_pass(cli, jobs, workers: int, tracer=None):
    """Run every job once; returns ([(exit code, stdout, stderr)], [job wall seconds])."""
    results, walls = [], []
    gc.collect()
    for j, job in enumerate(jobs):
        t0 = time.perf_counter()
        argv = job.argv + (["--workers", str(workers)] if "--seed" in job.argv else [])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                if tracer is None:
                    rc = cli.main(argv)
                else:
                    tracer.job = j
                    rc = tracer.call("cli.main", cli.main, None, argv)
            except Exception:  # a traceback is a failed job; the pass goes on
                rc = None
                err.write(traceback.format_exc())
        walls.append(time.perf_counter() - t0)
        results.append((rc, out.getvalue(), err.getvalue()))
    return results, walls


def check(job, result) -> tuple[list[str], dict | None]:
    rc, text, err = result
    if rc != 0:
        return [f"{' '.join(job.argv)}: exit {rc}: {err.strip()[-300:]}"], None
    try:
        payload = json.loads(text)
        problems = job.check(payload)
    except Exception as exc:  # malformed output is a failed job
        return [f"{' '.join(job.argv)}: unreadable output ({exc!r})"], None
    return [f"{' '.join(job.argv)}: {p}" for p in problems], payload


class Tally:
    def __init__(self):
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0

    def add(self, job, result, same_as=None) -> dict | None:
        """Check one job; same_as is an output its bytes must equal."""
        self.attempted += 1
        problems, payload = check(job, result)
        if same_as is not None and result[1] != same_as[1]:
            problems.append(f"{' '.join(job.argv)}: output differs between "
                            f"--workers 1 and --workers {WORKERS}")
        if problems:
            self.failed += 1
            self.problems += problems
            return None
        return payload


def measure(cli, jobs_of, seconds: float, root: Path, tally: Tally) -> dict:
    import_seconds(root)  # writes the bytecode caches
    first = jobs_of(0)
    reference, _ = run_pass(cli, first, 1)
    for job, res in zip(first, reference):
        tally.add(job, res)

    # Before each timed pass: one calibration, then one set-up import, so that
    # set-up is sampled across the whole run, as the passes are.  A pass time
    # is put at the reference host speed by the mean of the calibrations
    # either side of it.
    cals, setups, walls, rel = [], [], [], {}
    t_start = time.perf_counter()
    p = 0
    while p < MIN_PASSES or time.perf_counter() - t_start < seconds:
        cals.append(calibration_seconds())
        setups.append(import_seconds(root))
        jobs = jobs_of(p)
        results, job_walls = run_pass(cli, jobs, WORKERS)
        walls.append(job_walls)
        for j, (job, res) in enumerate(zip(jobs, results)):
            payload = tally.add(job, res, reference[j] if p == 0 else None)
            if payload is not None:
                for i, r in enumerate(job.rel_errors(payload)):
                    rel.setdefault((j, i), []).append(r * r)
        p += 1
    cals.append(calibration_seconds())
    while len(setups) < SETUP_IMPORTS:
        setups.append(import_seconds(root))

    raw_walls = [sum(w) for w in walls]
    wall_s = statistics.median(
        w * CAL_REFERENCE_S * 2.0 / (c0 + c1) for w, c0, c1 in zip(raw_walls, cals, cals[1:]))
    # Squared relative error of each estimate: the median over passes, since a
    # heavy-tailed |J|^(2k) makes single standard errors erratic; then the
    # mean over the workload's estimates.  With none passing it is taken as 1.
    se2 = statistics.fmean(statistics.median(v) for v in rel.values()) if rel else 1.0
    print(json.dumps({"passes": len(walls), "raw_wall_s": statistics.median(raw_walls),
                      "calibration_s": cals, "pass_wall_s": walls, "setup_import_s": setups,
                      "relative_errors_sq": {f"{j}.{i}": v for (j, i), v in rel.items()}}),
          flush=True)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall_s, "s"),
        "se2_s": (wall_s * se2, "s"),
        "pass_frac": (1.0 - tally.failed / tally.attempted, "1"),
    }


def layer_metrics(t1: dict, t2: dict, wall1: float) -> dict:
    """Per-layer metrics from one traced repeat.

    t1 and t2 are spans.layer_totals of the --workers 1 and --workers 2
    passes; busy and self shares are of the --workers 1 pass wall time.
    """
    def get(name, key, t=t1):
        layer = t.get(name)
        if layer is None:
            return 0
        return layer[key] if key in layer else layer["counts"].get(key, 0)

    def share(name, key="busy_s"):
        return get(name, key) / wall1

    def rate(num, name):
        busy = get(name, "busy_s")
        return num / busy if busy > 0 else 0.0

    def speedup(name):
        busy2 = get(name, "busy_s", t2)
        return get(name, "busy_s") / busy2 if busy2 > 0 else 0.0

    b, q, th = "quad.batch_osc_m1", "quad.osc_integral", "theta.theta_truncated"
    ts, gr, dj = "variety.thin_shell_measure", "variety.gram_G0", "lowerbound.disjointness_check"
    ba, em = "lowerbound.box_to_alpha", "lowerbound.e_set_margin"
    b2a, fv, ph, cm = "poly.beta_to_alpha", "poly.PolySpec.from_vector", "rng.philox_stream", "cli.main"
    draws, accepted = get(ts, "draws"), get(ts, "accepted")
    c = "count"
    return {
        f"{b}.calls": (get(b, "calls"), c),
        f"{b}.rows": (get(b, "rows"), c),
        f"{b}.busy_frac": (share(b), "1"),
        f"{b}.rows_per_s": (rate(get(b, "rows"), b), "1/s"),
        f"{q}.calls": (get(q, "calls"), c),
        f"{q}.n_evals": (get(q, "n_evals"), c),
        f"{q}.busy_frac": (share(q), "1"),
        f"{q}.evals_per_s": (rate(get(q, "n_evals"), q), "1/s"),
        f"{q}.budget_errors": (t1.get(q, {}).get("errors", {}).get("PanelBudgetError", 0), c),
        f"{th}.calls": (get(th, "calls"), c),
        f"{th}.samples": (get(th, "samples"), c),
        f"{th}.busy_frac": (share(th), "1"),
        f"{th}.self_frac": (share(th, "self_s"), "1"),
        f"{th}.speedup_w2": (speedup(th), "x"),
        "theta.parseval_check.busy_frac": (share("theta.parseval_check"), "1"),
        f"{ts}.calls": (get(ts, "calls"), c),
        f"{ts}.draws": (draws, c),
        f"{ts}.accepted": (accepted, c),
        f"{ts}.accept_ratio": (accepted / draws if draws else 0.0, "1"),
        f"{ts}.busy_frac": (share(ts), "1"),
        f"{ts}.draws_per_s": (rate(draws, ts), "1/s"),
        f"{ts}.speedup_w2": (speedup(ts), "x"),
        f"{gr}.calls": (get(gr, "calls"), c),
        f"{gr}.busy_frac": (share(gr), "1"),
        f"{gr}.dets_per_s": (rate(get(gr, "calls"), gr), "1/s"),
        f"{dj}.pairs": (get(dj, "pairs"), c),
        f"{dj}.busy_frac": (share(dj), "1"),
        f"{ba}.rows": (get(ba, "rows"), c),
        f"{ba}.self_frac": (share(ba, "self_s"), "1"),
        f"{em}.calls": (get(em, "calls"), c),
        f"{em}.busy_frac": (share(em), "1"),
        f"{b2a}.calls": (get(b2a, "calls"), c),
        f"{b2a}.busy_frac": (share(b2a), "1"),
        f"{fv}.calls": (get(fv, "calls"), c),
        f"{fv}.busy_frac": (share(fv), "1"),
        f"{ph}.calls": (get(ph, "calls"), c),
        f"{ph}.busy_frac": (share(ph), "1"),
        f"{cm}.calls": (get(cm, "calls"), c),
        f"{cm}.self_frac": (share(cm, "self_s"), "1"),
    }


def traced(cli, jobs_of, seconds: float, workload: str, root: Path, tally: Tally) -> dict:
    from spans import Tracer, layer_totals, write_spans

    jobs = jobs_of(0)
    tracer = Tracer()
    repeats, walls = [], {"traced_w1": [], "traced_w2": [], "plain_w2": []}
    violations = 0
    t_start = time.perf_counter()
    while not repeats or time.perf_counter() - t_start < seconds:
        with tracer.patched():
            res1, wall1 = run_pass(cli, jobs, 1, tracer)
            spans1 = tracer.take()
            res2, wall2 = run_pass(cli, jobs, WORKERS, tracer)
            spans2 = tracer.take()
        res3, wall3 = run_pass(cli, jobs, WORKERS)
        wall1, wall2, wall3 = sum(wall1), sum(wall2), sum(wall3)
        for job, r1, r2, r3 in zip(jobs, res1, res2, res3):
            tally.add(job, r1)
            tally.add(job, r2, r1)
            tally.add(job, r3, r1)
        t1, t2 = layer_totals(spans1), layer_totals(spans2)
        if not repeats:
            first_spans = spans1 + spans2
            for layer, bypassed_on in BYPASS.items():
                calls = sum(t.get(layer, {}).get("calls", 0) for t in (t1, t2))
                if workload in bypassed_on and calls:
                    violations += 1
                    print(f"BYPASS PREDICTION BROKEN: {layer} was called {calls} times "
                          f"on {workload}", file=sys.stderr, flush=True)
        repeats.append(layer_metrics(t1, t2, wall1))
        for key, wall in zip(walls, (wall1, wall2, wall3)):
            walls[key].append(wall)

    metrics = {}
    for name, (first, unit) in repeats[0].items():
        values = [r[name][0] for r in repeats]
        if unit != "count":
            first = statistics.median(values)
        elif len(set(values)) > 1:
            print(f"COUNT NOT REPEATED: {name} = {values}", file=sys.stderr, flush=True)
        metrics[name] = (first, unit)
    metrics["trace.overhead_frac"] = (
        statistics.median(walls["traced_w2"]) / statistics.median(walls["plain_w2"]) - 1.0, "1")
    metrics["bench.bypass_violations"] = (violations, "count")
    metrics["process.peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    out = root / ".perfbench_out"
    out.mkdir(exist_ok=True)
    write_spans(out / f"spans-{workload}.jsonl", first_spans)
    print(json.dumps({"repeats": len(repeats), **{f"{k}_wall_s": v for k, v in walls.items()}}),
          flush=True)
    return metrics


def main() -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    root = Path.cwd()
    src = root / "src"
    if not (src / "tarry2d" / "cli.py").is_file():
        print(f"no tarry2d source tree under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import tarry2d.cli as cli

    if Path(cli.__file__).resolve().parent != (src / "tarry2d").resolve():
        print(f"imported tarry2d from {cli.__file__}, not {src}", file=sys.stderr)
        return 2

    workdir = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    tally = Tally()
    try:
        jobs_of = WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            metrics = traced(cli, jobs_of, args.seconds, args.workload, root, tally)
        else:
            metrics = measure(cli, jobs_of, args.seconds, root, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    for p in tally.problems[:20]:
        print(f"FAILED {p}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "workers": WORKERS, "env": environment()}), flush=True)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
