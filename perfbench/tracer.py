"""Layer tracing for the benchmark's traced runs.

The program is not modified: wrappers are installed from outside on the
module attributes through which spdebridge's layers call each other, and
removed again before the benchmark's own checks run. Each wrapped call
records a span (name, layer, start, end, parent) in memory; some also add
to counts computed from their arguments, so the counts repeat exactly from
run to run. A layer's self time is its spans' durations minus the part
covered by their child spans; over one ``run_scenario`` root span the self
times of all layers add up to the root's duration.

Layers are the modules under ``src/spdebridge/``. ``_kernels`` is named
``kernels`` here because metric names must start with a letter.
"""

import time
from collections import Counter

import numpy as np

LAYERS = ("rng", "forward", "kernels", "guided", "htransform", "ou", "tasks", "io", "scenario")

# Functions whose call starts one ensemble pass of a driver.
_PASS = "driver.passes"


def _count_normals(tracer, args):
    _, path_indices, n_steps, n_modes = args[:4]
    idx = np.asarray(path_indices, dtype=np.int64)
    tracer.path_indices.append(idx)
    tracer.counts["rng.calls"] += 1
    tracer.counts["rng.paths_drawn"] += idx.size
    tracer.counts["rng.normals_drawn"] += idx.size * int(n_steps) * int(n_modes)


def _count_call(key):
    def count(tracer, args):
        tracer.counts[key] += 1

    return count


def _count_path_steps(tracer, args):
    z = args[1]
    tracer.counts["kernels.path_steps"] += z.shape[0] * z.shape[1]


def _count_pointwise(tracer, args):
    tracer.counts["kernels.pointwise_evals"] += args[0].size


def _count_dump_bytes(tracer, args):
    ens = args[1]
    header = 4 + 16
    tracer.counts["io.write_path_dump.bytes"] += header + 8 * (
        ens.grid.nodes.size + ens.states.size + ens.increments.size
    )


def _patch_points(sb):
    """(module, attribute, span name, layer, counter) for every traced call.

    A name imported with ``from .x import f`` is patched in the importing
    module, because that is where the caller looks it up.
    """
    k, fw, gd, ht, io, rng, ts = (
        sb._kernels, sb.forward, sb.guided, sb.htransform, sb.io, sb.rng, sb.tasks
    )
    points = [(rng, "path_increments", "rng.path_increments", "rng", _count_normals)]
    for mod in (fw, gd, ht):
        points += [
            (mod, "step_coefficients", "forward.step_coefficients", "forward",
             _count_call("forward.step_coefficients.calls")),
            (mod, "_transform_matrices", "forward.transform_matrices", "forward", None),
        ]
    points += [
        (ts, "forward_snapshots", "forward.forward_snapshots", "forward", _count_call(_PASS)),
        (ts, "simulate_ensemble", "forward.simulate_ensemble", "forward", _count_call(_PASS)),
        (ts, "guided_snapshots", "guided.guided_snapshots", "guided", _count_call(_PASS)),
        (ts, "self_normalized_from_values", "guided.estimators", "guided", None),
        (ts, "effective_sample_size", "guided.estimators", "guided", None),
        (ts, "dynkin_residual_mc", "htransform.dynkin_residual_mc", "htransform",
         _count_call(_PASS)),
        (ts, "ou_bridge_snapshots", "ou.ou_bridge_snapshots", "ou", _count_call(_PASS)),
        (ts, "bridge_marginal_mean_var", "ou.bridge_marginal_mean_var", "ou", None),
        (ts, "_moment_rows", "tasks.moment_rows", "tasks", None),
    ]
    for name in ("build_model", "build_nonlinearity", "build_x0", "build_grid"):
        points.append((ts, name, "scenario.build", "scenario", None))
    for name in ("forward_snap", "forward_full", "guided", "dynkin_snap"):
        points.append((k, name, "kernels.step", "kernels", _count_path_steps))
    points += [
        (k, "_nemytskii_np", "kernels.nemytskii", "kernels", None),
        (k, "_pointwise_np", "kernels.pointwise", "kernels", _count_pointwise),
        (io, "write_path_dump", "io.write_path_dump", "io", _count_dump_bytes),
    ]
    for name in ("write_manifest", "write_summary", "write_diagnostics"):
        points.append((io, name, "io.write_small", "io", None))
    return points


class Tracer:
    """In-memory spans and argument-derived counts for one traced run."""

    def __init__(self):
        self.spans = []  # [name, layer, start, end, parent index or -1]
        self.counts = Counter()
        self.path_indices = []
        self._stack = []
        self._restore = []

    def wrap(self, fn, name, layer, counter=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if counter is not None:
                counter(self, args)
            idx = len(spans)
            spans.append([name, layer, clock(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = clock()

        return traced

    def install(self, sb):
        """Wrap every patch point of the imported spdebridge package ``sb``."""
        for mod, attr, name, layer, counter in _patch_points(sb):
            original = getattr(mod, attr)
            self._restore.append((mod, attr, original))
            setattr(mod, attr, self.wrap(original, name, layer, counter))

    def uninstall(self):
        while self._restore:
            mod, attr, original = self._restore.pop()
            setattr(mod, attr, original)

    def self_times(self):
        """Self time per span name and per layer, in seconds."""
        covered = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        by_name, by_layer = Counter(), Counter({layer: 0.0 for layer in LAYERS})
        for (name, layer, start, end, _), child in zip(self.spans, covered):
            own = (end - start) - child
            by_name[name] += own
            by_layer[layer] += own
        return by_name, by_layer

    def computed_counts(self):
        """Counts derived from call arguments; identical on every run of one input."""
        counts = dict(self.counts)
        drawn = counts.get("rng.paths_drawn", 0)
        distinct = np.unique(np.concatenate(self.path_indices)).size if self.path_indices else 0
        counts["rng.distinct_paths"] = int(distinct)
        counts["trace.spans"] = len(self.spans)
        for key in (
            "rng.calls", "rng.paths_drawn", "rng.normals_drawn", _PASS,
            "forward.step_coefficients.calls", "kernels.path_steps",
            "kernels.pointwise_evals", "io.write_path_dump.bytes",
        ):
            counts.setdefault(key, 0)
        counts["rng.redraw_ratio"] = drawn / distinct if distinct else 0.0
        passes = counts[_PASS]
        counts["driver.chunks"] = counts["rng.calls"] / passes if passes else 0.0
        return {key: counts[key] for key in sorted(counts)}

    def span_records(self):
        """Spans as dicts, times relative to the first span's start."""
        t0 = self.spans[0][2] if self.spans else 0.0
        return [
            {"name": n, "layer": l, "start": s - t0, "end": e - t0, "parent": p}
            for n, l, s, e, p in self.spans
        ]
