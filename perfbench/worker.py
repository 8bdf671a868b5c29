"""One benchmark repetition, run in a fresh process by ``run.py``.

    python3 perfbench/worker.py WORKLOAD SEED SPAWN_TIME MODE SMOKE WORKDIR

Imports spdebridge from the checkout's ``src/`` and resolves the workload's
scenario. With MODE ``run`` or ``trace`` it then times one ``run_scenario``
call (traced in ``trace`` mode), checks the artifacts it wrote and deletes
the run directory; MODE ``setup`` stops after resolving. The process prints
one JSON record as the last line of standard output. SPAWN_TIME is the parent's
``time.monotonic()`` just before it started this process, so ``setup_s``
covers interpreter start, imports and scenario resolution.

``setup_s`` and the untraced ``run_s`` are scaled to the nominal host of
``hostspeed.py``: set-up by probes timed just before the spdebridge import
and just after resolving, the run by probes timed during it. The raw wall
times are kept as ``setup_wall_s`` and ``wall_run_s`` (probe time taken out).
Traced runs are not probed, so that no probe lands in a span.
"""

import contextlib
import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import hostspeed
from tracer import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
ARTIFACTS = ("summary.csv", "diagnostics.json", "manifest.json")
# Guided replays: first path, both sides of the 2048-path chunk border, last path.
REPLAY_INDICES = (0, 2047, 2048)
# simulate_guided replays a path as a batch of one, where numpy's matmul and
# row sums round differently than over a chunk of paths: states and log
# weights, both O(1) or smaller here, then differ by up to ~1e-16. A wrong
# path stream, node or cutoff moves them by far more than this tolerance.
REPLAY_TOL = 1e-12
# Probes on each side of the set-up; about 40 ms each at the nominal speed.
SETUP_HOST_PROBES = 20


def import_spdebridge():
    """Import the package from this checkout's src/, never from an install."""
    src = ROOT / "src"
    if not (src / "spdebridge" / "__init__.py").is_file():
        raise ImportError(f"no spdebridge package under {src}")
    sys.path.insert(0, str(src))
    import spdebridge
    import spdebridge.io
    import spdebridge.scenario
    import spdebridge.tasks

    if Path(spdebridge.__file__).resolve().parent != (src / "spdebridge").resolve():
        raise ImportError(f"spdebridge was imported from {spdebridge.__file__}, not {src}")
    return spdebridge


class GuidedCapture:
    """Keeps the guided driver's arguments and result for the replay check."""

    def __init__(self, tasks):
        self.tasks, self.original, self.call = tasks, tasks.guided_snapshots, None

    def __enter__(self):
        def capture(*args, **kwargs):
            result = self.original(*args, **kwargs)
            self.call = (args, kwargs, result)
            return result

        self.tasks.guided_snapshots = capture
        return self

    def __exit__(self, *exc):
        self.tasks.guided_snapshots = self.original


def check_guided_replay(sb, scenario, call):
    """Replayed single paths must match the ensemble's probe/endpoint rows and
    log weights within REPLAY_TOL. Returns the failures and the largest
    difference seen (0.0 when every replay is bit-identical)."""
    if call is None:
        return ["guided driver was not called"], None
    args, kwargs, (snaps, logw) = call
    model, nonlin, x0, spec, grid, seed, n_paths, snap_nodes, weight_nodes = args[:9]
    failures, max_diff = [], 0.0
    for i in sorted({*REPLAY_INDICES, n_paths - 1} & set(range(n_paths))):
        for cutoff in scenario["task"]["weight_cutoffs"]:
            replay_spec = sb.GuidedSpec(
                y=spec.y, horizon=spec.horizon, conditioning=spec.conditioning,
                obs_var=spec.obs_var, weight_cutoff=cutoff,
            )
            wp = sb.simulate_guided(
                model, nonlin, x0, replay_spec, grid, seed,
                path_index=i, oversample=kwargs["oversample"],
            )
            col = list(weight_nodes).index(sb.guided.weight_node(grid, cutoff))
            diff = abs(wp.log_weight - logw[i, col])
            max_diff = max(max_diff, diff)
            if not diff <= REPLAY_TOL:
                failures.append(f"guided replay of path {i}: log weight at {cutoff} off by {diff}")
        for slot, node in enumerate(snap_nodes):
            diff = float(np.max(np.abs(wp.path.states[node] - snaps[i, slot])))
            max_diff = max(max_diff, diff)
            if not diff <= REPLAY_TOL:
                failures.append(f"guided replay of path {i}: state at node {node} off by {diff}")
    return failures, max_diff


def check_dump(sb, scenario, outdir):
    """The dump must replay from its own increments and agree with summary.csv."""
    grid = sb.scenario.build_grid(scenario)
    model = sb.scenario.build_model(scenario)
    n_paths = scenario["sampling"]["n_paths"]
    ens = sb.io.read_path_dump(outdir / "paths.spdb", grid_kind=grid.kind)
    if ens.states.shape != (n_paths, grid.n_steps + 1, model.n_modes):
        return [f"dump has shape {ens.states.shape}"]
    failures = []
    i = scenario["sampling"]["seed"] % n_paths
    replayed = sb.replay_path(
        model, sb.scenario.build_nonlinearity(scenario), ens.path(i),
        oversample=scenario["dynamics"]["oversample"],
    )
    if not np.array_equal(replayed, ens.states[i]):
        failures.append(f"replay of dumped path {i} does not reproduce its states")
    # Same selection and reduction as the forward task, so the means match exactly.
    times = scenario["task"].get("times", [grid.horizon])
    nodes = sorted({sb.forward.nearest_node(grid, t) for t in times})
    snaps = ens.states[:, nodes, :]
    for row in sb.io.read_summary(outdir):
        if row["quantity"] != "sample_mean":
            continue
        ti = nodes.index(sb.forward.nearest_node(grid, float(row["time"])))
        if float(row["value"]) != snaps[:, ti, :].mean(axis=0)[int(row["mode"])]:
            failures.append(f"dump disagrees with summary.csv at {row['time']}/{row['mode']}")
    return failures


def check_artifacts(sb, workload, scenario, outdir, guided_call, record):
    if workload.task["name"] == "guided":
        failures, record["replay_max_diff"] = check_guided_replay(sb, scenario, guided_call)
        record["failures"] += failures
    if "paths" in workload.formats:
        record["failures"] += check_dump(sb, scenario, outdir)


def digests(outdir):
    return {
        name: hashlib.sha256((outdir / name).read_bytes()).hexdigest()
        for name in ARTIFACTS
        if (outdir / name).is_file()
    }


def measure(name, seed, spawn_time, mode, smoke, workdir):
    t_probe = time.monotonic()
    setup_probes = hostspeed.probes(SETUP_HOST_PROBES)
    t_import = time.monotonic()
    sb = import_spdebridge()
    t_resolve = time.monotonic()
    workload = WORKLOADS[name]
    scenario = sb.scenario.resolve_scenario(workload.scenario(seed, smoke))
    ready = time.monotonic()
    setup_probes += hostspeed.probes(SETUP_HOST_PROBES)
    setup_wall = ready - spawn_time - (t_import - t_probe)
    record = {
        "workload": name,
        "seed": seed,
        "trace": mode == "trace",
        "backend": sb.BACKEND,
        "setup_s": hostspeed.scale(setup_wall, setup_probes),
        "setup_wall_s": setup_wall,
        "setup_probe_s": statistics.fmean(setup_probes),
        "import_s": t_resolve - t_import,
        "resolve_s": ready - t_resolve,
        "failures": [],
    }
    if mode == "setup":
        return record
    outdir = Path(workdir) / f"run-{name}-{seed}-{time.monotonic_ns()}"
    tracer = Tracer() if mode == "trace" else None
    sampler = hostspeed.Sampler() if tracer is None else contextlib.nullcontext()
    run = sb.tasks.run_scenario
    try:
        with GuidedCapture(sb.tasks) as capture:
            if tracer is not None:
                tracer.install(sb)
                run = tracer.wrap(run, "tasks.run_scenario", "tasks")
            try:
                t0 = time.perf_counter()
                try:
                    with sampler:
                        run(scenario, outdir, assert_mode=workload.assert_mode)
                except sb.tasks.AssertionFailure as exc:
                    record["failures"].append(f"assertion mode: {exc}")
                wall = time.perf_counter() - t0
                rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                record["peak_rss_mb"] = rss_kib * 1024 / 1e6
                if tracer is None:
                    wall -= sampler.spent
                    record["host_samples_after"] = sampler.top_up()
                    record["host_samples"] = len(sampler.samples)
                    record["host_probe_s"] = statistics.fmean(sampler.samples)
                    record["run_s"] = hostspeed.scale(wall, sampler.samples)
                record["wall_run_s"] = wall
            finally:
                if tracer is not None:
                    tracer.uninstall()
        record["digests"] = digests(outdir)
        check_artifacts(sb, workload, scenario, outdir, capture.call, record)
    except Exception as exc:  # any error in the program counts as a failed run
        record["failures"].append(f"{type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    if tracer is not None and tracer.spans:
        by_name, by_layer = tracer.self_times()
        record["self_by_name"] = dict(by_name)
        record["self_by_layer"] = dict(by_layer)
        record["counts"] = tracer.computed_counts()
        spans_file = Path(workdir) / "trace" / f"{name}-seed{seed}.spans.json"
        spans_file.parent.mkdir(parents=True, exist_ok=True)
        spans_file.write_text(json.dumps({
            "workload": name, "seed": seed, "run_id": outdir.name,
            "spans": tracer.span_records(),
        }))
        record["spans_file"] = str(spans_file.relative_to(ROOT))
        root = tracer.spans[0]
        record["trace_run_s"] = root[3] - root[2]
    return record


def main(argv):
    name, seed, spawn_time, mode, smoke, workdir = argv
    record = measure(name, int(seed), float(spawn_time), mode, smoke == "1", workdir)
    print(json.dumps(record))


if __name__ == "__main__":
    main(sys.argv[1:])
