"""Scenario benchmark for spdebridge.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S]
                             [--trace 0|1] [--backend NAME] [--smoke]

Runs one of the fixed workloads in ``workloads.py`` through the public entry
point ``spdebridge.tasks.run_scenario``, one fresh worker process per
repetition (``worker.py``), serially, with BLAS/OpenMP pinned to one thread.
Repetitions start until ``--seconds`` have passed (at least three, or two
untraced/traced pairs with ``--trace 1``), all at the same seed.

Timings are scaled to a nominal host speed (see ``hostspeed.py``): ``run_s``
and ``setup_s`` are what the run and the set-up would take on a host where
a fixed numpy probe takes ``hostspeed.NOMINAL_PROBE_S``, with the probe timed
in the same stretch of time as the work. On a shared host whose speed swings
within seconds this keeps two runs of the same code comparable; the raw wall
times and probe times are printed beside them and kept in the results file.

A repetition fails if it raises, if assertion mode reports a violated check,
if an artifact check fails, or if its summary.csv, diagnostics.json or
manifest.json differ from the first repetition's. Traced repetitions also
fail if their computed counts differ from the first traced repetition's or
if their layers' self times do not add up to the traced run time.

With ``--trace 0`` the result holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of the traced repetitions; the untraced
repetitions of a traced run give the base of ``trace.overhead_frac``. The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The environment, every
repetition's record and the metrics are also written to
``.perfbench_work/results/``; traced runs dump their spans to
``.perfbench_work/trace/``.

The package is imported from this checkout's ``src/`` only; without it, or
when ``--backend`` names another backend than ``spdebridge.BACKEND``, the
benchmark exits with code 2 and reports no number.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
from tracer import LAYERS
import worker
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKDIR = ROOT / ".perfbench_work"
DEFAULT_SEED = 4242
HARD_LIMIT_S = 165.0
MIN_REPS = 3
MIN_TRACED_PAIRS = 2
# Extra processes per untraced run that only set up, so setup_s is a median
# of more samples than there are repetitions.
SETUP_PROBES = 5
PERCENTILES = (50, 75, 90, 95, 99)
# Workers run with one BLAS/OpenMP thread, so a later threaded driver is
# measured against a fixed single-threaded baseline.
THREAD_ENV = {
    var: "1"
    for var in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    )
}

END_TO_END = [
    ("run_s", "s", "lower"),
    ("path_steps_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

# name, unit, better, source. Sources: ("self", span name) and ("layer", layer)
# are medians of traced self times; ("count", key) a computed count;
# ("rep", record key) a median over the repetitions that have the key;
# ("untraced",) the untraced repetitions' median wall run time; ("rate", count key,
# metric[, scale]) the count per second of that metric; ("overhead",) traced
# over untraced wall run time, minus one.
PER_LAYER = [
    ("rng.path_increments.self_s", "s", "lower", ("self", "rng.path_increments")),
    ("rng.normals_drawn", "count", "lower", ("count", "rng.normals_drawn")),
    ("rng.normals_per_s", "1/s", "higher",
     ("rate", "rng.normals_drawn", "rng.path_increments.self_s")),
    ("rng.paths_drawn", "count", "lower", ("count", "rng.paths_drawn")),
    ("rng.distinct_paths", "count", "lower", ("count", "rng.distinct_paths")),
    ("rng.redraw_ratio", "ratio", "lower", ("count", "rng.redraw_ratio")),
    ("forward.step_coefficients.calls", "count", "lower",
     ("count", "forward.step_coefficients.calls")),
    ("forward.step_coefficients.self_s", "s", "lower", ("self", "forward.step_coefficients")),
    ("kernels.step.self_s", "s", "lower", ("self", "kernels.step")),
    ("kernels.nonlinearity.matmul_s", "s", "lower", ("self", "kernels.nemytskii")),
    ("kernels.nonlinearity.pointwise_s", "s", "lower", ("self", "kernels.pointwise")),
    ("kernels.pointwise_evals", "count", "lower", ("count", "kernels.pointwise_evals")),
    ("kernels.path_steps", "count", "lower", ("count", "kernels.path_steps")),
    ("kernels.path_steps_per_s", "1/s", "higher",
     ("rate", "kernels.path_steps", "layer.kernels.self_s")),
    ("guided.estimators.self_s", "s", "lower", ("self", "guided.estimators")),
    ("htransform.dynkin_residual_mc.self_s", "s", "lower",
     ("self", "htransform.dynkin_residual_mc")),
    ("tasks.moment_rows.self_s", "s", "lower", ("self", "tasks.moment_rows")),
    ("ou.ou_bridge_snapshots.self_s", "s", "lower", ("self", "ou.ou_bridge_snapshots")),
    ("driver.passes", "count", "lower", ("count", "driver.passes")),
    ("driver.chunks", "count", "lower", ("count", "driver.chunks")),
    ("io.write_path_dump.s", "s", "lower", ("self", "io.write_path_dump")),
    ("io.write_path_dump.bytes", "B", "lower", ("count", "io.write_path_dump.bytes")),
    ("io.write_path_dump.mb_per_s", "MB/s", "higher",
     ("rate", "io.write_path_dump.bytes", "io.write_path_dump.s", 1e-6)),
    ("io.write_small.s", "s", "lower", ("self", "io.write_small")),
    ("scenario.resolve_scenario.s", "s", "lower", ("rep", "resolve_s")),
    ("import_s", "s", "lower", ("rep", "import_s")),
] + [(f"layer.{layer}.self_s", "s", "lower", ("layer", layer)) for layer in LAYERS] + [
    ("trace.run_s", "s", "lower", ("rep", "trace_run_s")),
    ("trace.untraced_run_s", "s", "lower", ("untraced",)),
    ("trace.overhead_frac", "ratio", "lower", ("overhead",)),
    ("host.probe_s", "s", "lower", ("rep", "host_probe_s")),
    ("trace.spans", "count", "lower", ("count", "trace.spans")),
]


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def environment(sb):
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = proc.stdout.strip() or commit
    return {
        "backend": sb.BACKEND,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "worker_thread_env": THREAD_ENV,
        "git_commit": commit,
    }


def spawn(name, seed, mode, smoke, timeout):
    """One fresh worker process in ``mode`` setup, run or trace; returns its record."""
    traced = mode == "trace"
    spawn_time = time.monotonic()
    argv = [
        sys.executable, str(WORKER), name, str(seed), repr(spawn_time), mode,
        "1" if smoke else "0", str(WORKDIR),
    ]
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, env={**os.environ, **THREAD_ENV},
            capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"trace": traced, "failures": [f"worker timed out after {timeout:.0f} s"],
                "timed_out": True}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            return json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
    return {"trace": traced, "failures": [f"worker exited with code {proc.returncode}: {tail}"]}


def run_reps(name, seed, seconds, trace, smoke):
    """Set-up probes, then repetitions until ``seconds`` have passed and the
    minimum is met. Returns (repetition records, probe records)."""
    start = time.monotonic()
    probes = [] if trace else [
        spawn(name, seed, "setup", smoke, HARD_LIMIT_S) for _ in range(SETUP_PROBES)
    ]
    records = []
    while True:
        elapsed = time.monotonic() - start
        n = len(records)
        enough = n >= 2 * MIN_TRACED_PAIRS and n % 2 == 0 if trace else n >= MIN_REPS
        if (enough and elapsed >= seconds) or elapsed >= HARD_LIMIT_S:
            break
        mode = "trace" if trace and n % 2 == 1 else "run"
        records.append(spawn(name, seed, mode, smoke, HARD_LIMIT_S - elapsed))
        if records[-1].get("timed_out"):
            break
    return records, probes


def count_failed(records, backend):
    """Mark and count failed repetitions; see the module docstring for the rules."""
    ref_digests = ref_counts = None
    for rec in records:
        failures = rec["failures"]
        if "digests" in rec and not failures:
            if ref_digests is None:
                ref_digests = rec["digests"]
            elif rec["digests"] != ref_digests:
                failures.append("artifacts differ from the first repetition's at this seed")
        if rec.get("backend", backend) != backend:
            failures.append(f"worker ran backend {rec['backend']}")
        if "counts" in rec:
            if ref_counts is None:
                ref_counts = rec["counts"]
            elif rec["counts"] != ref_counts:
                failures.append("computed counts differ from the first traced repetition's")
            gap = abs(sum(rec["self_by_layer"].values()) - rec["trace_run_s"]) / rec["trace_run_s"]
            rec["self_sum_gap"] = gap
            if gap > 1e-6:
                failures.append(f"layer self times miss the traced run_s by {gap:.2e} of it")
    return sum(1 for rec in records if rec["failures"])


def supported_percentile(n):
    """Highest tabulated percentile with at least ten samples beyond it."""
    fit = [p for p in PERCENTILES if n * (100 - p) / 100 >= 10]
    return fit[-1] if fit else None


def end_to_end_metrics(records, probes, work):
    timed = [r for r in records if "run_s" in r]
    run_s = statistics.median(r["run_s"] for r in timed)
    return {
        "run_s": run_s,
        "path_steps_per_s": work / run_s,
        "setup_s": statistics.median(r["setup_s"] for r in timed + probes if "setup_s" in r),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
    }


def per_layer_metrics(records):
    traced = [r for r in records if "counts" in r]
    untraced = [r["wall_run_s"] for r in records if not r["trace"] and "wall_run_s" in r]
    counts = traced[0]["counts"]

    def median_of(get):
        return statistics.median(get(r) for r in traced)

    values = {}
    # Rates and the overhead are derived from other metrics, so they come last.
    for name, _, _, source in sorted(PER_LAYER, key=lambda m: m[3][0] in ("rate", "overhead")):
        kind = source[0]
        if kind == "self":
            values[name] = median_of(lambda r: r["self_by_name"].get(source[1], 0.0))
        elif kind == "layer":
            values[name] = median_of(lambda r: r["self_by_layer"][source[1]])
        elif kind == "count":
            values[name] = counts[source[1]]
        elif kind == "rep":
            values[name] = statistics.median(r[source[1]] for r in records if source[1] in r)
        elif kind == "untraced":
            values[name] = statistics.median(untraced)
        elif kind == "rate":
            scale = source[3] if len(source) > 3 else 1.0
            seconds = values[source[2]]
            values[name] = scale * counts[source[1]] / seconds if seconds > 0 else 0.0
        else:  # overhead
            values[name] = values["trace.run_s"] / values["trace.untraced_run_s"] - 1.0
    return {name: values[name] for name, _, _, _ in PER_LAYER}


def print_end_to_end(metrics, records, probes, work, failed):
    times = sorted(r["run_s"] for r in records if "run_s" in r)
    n = len(times)
    p = supported_percentile(n)
    high = (
        f"p{p} {statistics.quantiles(times, n=100, method='inclusive')[p - 1]:.4f} s"
        if p else "no higher percentile: needs >= 20 samples"
    )
    timed = [r for r in records if "run_s" in r]
    wall = statistics.median(r["wall_run_s"] for r in timed)
    host = statistics.median(r["host_probe_s"] for r in timed)
    setups = [r for r in records + probes if "setup_s" in r]
    setup_wall = statistics.median(r["setup_wall_s"] for r in setups)
    print(f"  {'run_s':<18} {metrics['run_s']:>14.4f} s     median of n={n} "
          f"(min {times[0]:.4f}, max {times[-1]:.4f}; {high})")
    print(f"  {'':<18} {'':>14} {'':<5} raw wall median {wall:.4f} s; host probe median "
          f"{host * 1e3:.3f} ms, nominal {hostspeed.NOMINAL_PROBE_S * 1e3:g} ms")
    print(f"  {'path_steps_per_s':<18} {metrics['path_steps_per_s']:>14.0f} 1/s   "
          f"{work} path-steps / median run_s")
    print(f"  {'setup_s':<18} {metrics['setup_s']:>14.4f} s     median of n={n + len(probes)} "
          f"fresh processes to ready ({len(probes)} set up only; raw wall median "
          f"{setup_wall:.4f} s)")
    print(f"  {'peak_rss_mb':<18} {metrics['peak_rss_mb']:>14.1f} MB    median high-water RSS")
    print(f"  {'failed_frac':<18} {failed / len(records):>14.4f} 1     {failed}/{len(records)} failed")


def print_per_layer(metrics, records):
    for name, unit, _, source in PER_LAYER:
        label = "computed" if source[0] == "count" else "measured"
        value = metrics[name]
        shown = f"{value:>14d}" if isinstance(value, int) else f"{value:>14.6g}"
        print(f"  {name:<40} {shown} {unit:<6} {label}")
    gap = max(r["self_sum_gap"] for r in records if "self_sum_gap" in r)
    print(f"  layer self times sum to the traced run_s in every traced repetition: "
          f"largest gap {gap:.2e} of it (trace.overhead_frac {metrics['trace.overhead_frac']:.4f})")


def run_workload(name, args, env):
    workload = WORKLOADS[name]
    trace = args.trace == 1
    records, probes = run_reps(name, args.seed, args.seconds, trace, args.smoke)
    broken = [p["failures"] for p in probes if p["failures"]]
    if broken:
        fail(f"{name}: set-up failed: {broken[0]}")
    failed = count_failed(records, env["backend"])
    work = workload.path_steps(args.smoke)
    sizes = workload.sizes(args.smoke)
    print(f"perfbench workload={name} seed={args.seed} trace={args.trace} "
          f"smoke={int(args.smoke)} repetitions={len(records)} sizes={json.dumps(sizes)}")
    for rec in records:
        for message in rec["failures"]:
            print(f"  FAILED: {message}")
    diffs = [r["replay_max_diff"] for r in records if r.get("replay_max_diff") is not None]
    if diffs:
        print(f"  guided replay: largest difference from the ensemble {max(diffs):.3g} "
              f"(0 is bit-identical; tolerance {worker.REPLAY_TOL:g})")
    if not any("wall_run_s" in r for r in records) or (trace and not any("counts" in r for r in records)):
        fail(f"{name}: no repetition completed a run")
    if trace:
        metrics = per_layer_metrics(records)
        print_per_layer(metrics, records)
        units = {name: unit for name, unit, _, _ in PER_LAYER}
    else:
        metrics = end_to_end_metrics(records, probes, work)
        print_end_to_end(metrics, records, probes, work, failed)
        units = {name: unit for name, unit, _ in END_TO_END}
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    out = WORKDIR / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({
        "env": env, "workload": name, "why": workload.why, "seed": args.seed,
        "seconds": args.seconds, "smoke": args.smoke, "sizes": sizes,
        "path_steps": work, "result": result, "repetitions": records, "setup_probes": probes,
    }, indent=1))
    print(f"  results written to {out.relative_to(ROOT)}")
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--backend", help="fail unless spdebridge.BACKEND is this")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exception, so subprocess.run kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    try:
        sb = worker.import_spdebridge()
    except ImportError as exc:
        fail(str(exc))
    if args.backend is not None and args.backend != sb.BACKEND:
        fail(f"backend {args.backend!r} requested but spdebridge.BACKEND is {sb.BACKEND!r}")
    env = environment(sb)
    print("env " + json.dumps(env, sort_keys=True))
    WORKDIR.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {name: run_workload(name, args, env) for name in names}
    finally:
        # A worker killed on timeout or SIGTERM leaves its run directory behind.
        for leftover in WORKDIR.glob("run-*"):
            shutil.rmtree(leftover, ignore_errors=True)
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{key}": metric
                for name, r in results.items()
                for key, metric in r["metrics"].items()
            },
        }
    print(json.dumps(final))


if __name__ == "__main__":
    main()
