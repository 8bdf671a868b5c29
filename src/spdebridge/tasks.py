"""Task runners behind the CLI: each consumes a resolved scenario and writes
a summary table, diagnostics, and optional path dumps into the run directory.

Every task evaluates its built-in consistency checks (Monte Carlo moments
against closed forms, residual statistics against their bounds) and returns
the failed ones; only ``run_scenario`` decides what they mean. Assertion
mode records them in the diagnostics and turns them into hard failures
reported through the exit code; otherwise they are dropped.
"""

from pathlib import Path as FilePath

import numpy as np

from . import __version__, io, rng
from ._kernels import BACKEND
from .errors import DomainError
from .forward import (
    forward_snapshots,
    nearest_node,
    simulate_ensemble,
    stream_paths,
)
from .guided import (
    GaussianTilt,
    GuidedSpec,
    conditioned_snapshots,
    effective_sample_size,
    endpoint_sampler_bridge,
    endpoint_sampler_tilted,
    guided_snapshots,
    self_normalized_from_values,
    weight_node,
)
from .htransform import (
    ExpTestFunction,
    _exp_martingale,
    _novikov_values,
    bridge_h,
    dynkin_residual_mc,
    increment_orthogonality,
)
from .ou import (
    bridge_marginal_mean_var,
    chapman_kolmogorov_residual,
    ou_bridge_snapshots,
)
from .scenario import build_grid, build_model, build_nonlinearity, build_x0
from .spectral import covariance_qt_diag, gamma_hs_norm_sq


class AssertionFailure(RuntimeError):
    """An --assert check failed; the CLI maps this to exit code 3."""


def _moment_rows(rows, label, snaps, times, provenance):
    n = snaps.shape[0]
    for ti, t in enumerate(times):
        mean = snaps[:, ti, :].mean(axis=0)
        var = snaps[:, ti, :].var(axis=0, ddof=1)
        se_mean = np.sqrt(var / n)
        se_var = var * np.sqrt(2.0 / (n - 1))
        for j in range(snaps.shape[2]):
            rows.append(
                io.summary_row(
                    f"{label}_mean", mean[j], mode=j, time=t,
                    stderr=se_mean[j], provenance=provenance,
                )
            )
            rows.append(
                io.summary_row(
                    f"{label}_var", var[j], mode=j, time=t,
                    stderr=se_var[j], provenance=provenance,
                )
            )
    return rows


def _n_paths(scenario) -> int:
    """sampling.n_paths of a task that reports sample variances or stderrs."""
    n_paths = scenario["sampling"]["n_paths"]
    if n_paths < 2:
        raise DomainError(
            f"sampling.n_paths is {n_paths}; this task reports sample variances "
            "and needs at least 2 paths"
        )
    return n_paths


def _check(failures, ok: bool, message: str):
    if not ok:
        failures.append(message)


def _gaussian_check(
    failures, samples, mean, var, subject, where, *,
    se_from_sample=False, mean_slack=0.0, var_slack=0.0,
):
    """Check samples (n, J) against the per-mode law N(mean, var).

    The sample mean and variance must each lie within 4 stderr, plus a
    slack, of the reference; the mean's stderr comes from the reference
    variance, or from the sample variance with ``se_from_sample``. A mode
    whose reference variance is zero is pinned: every sample must equal the
    reference mean exactly, as the bridge recursion and the pin produce it.
    """
    n = samples.shape[0]
    mean_hat = samples.mean(axis=0)
    var_hat = samples.var(axis=0, ddof=1)
    se_m = np.sqrt((var_hat if se_from_sample else var) / n)
    se_v = var * np.sqrt(2.0 / (n - 1))
    pinned = var == 0.0
    exact = np.all(samples == mean, axis=0)
    mean_ok = np.where(pinned, exact, np.abs(mean_hat - mean) <= 4 * se_m + mean_slack)
    var_ok = np.where(pinned, exact, np.abs(var_hat - var) <= 4 * se_v + var_slack)
    _check(failures, bool(np.all(mean_ok)), f"{subject} mean off {where}")
    _check(failures, bool(np.all(var_ok)), f"{subject} variance off {where}")


def _closed_rows(rows, mean, var, t, mean_provenance, var_provenance):
    for j in range(mean.size):
        rows.append(
            io.summary_row(
                "closed_mean", mean[j], mode=j, time=t, provenance=mean_provenance
            )
        )
        rows.append(
            io.summary_row(
                "closed_var", var[j], mode=j, time=t, provenance=var_provenance
            )
        )


def _weighted_rows(rows, logw, probes, t_ess, t_mean):
    """ESS of the log weights, then the weighted mean of each probe mode."""
    rows.append(
        io.summary_row(
            "ess", effective_sample_size(logw), time=t_ess,
            provenance="guided.effective_sample_size",
        )
    )
    for j in range(probes.shape[1]):
        est = self_normalized_from_values(logw, probes[:, j])
        rows.append(
            io.summary_row(
                "weighted_mean", est.estimate, mode=j, time=t_mean,
                stderr=est.stderr, provenance="guided.self_normalized_estimate",
            )
        )


def task_forward(scenario, outdir):
    model = build_model(scenario)
    nonlin = build_nonlinearity(scenario)
    x0 = build_x0(scenario, model)
    grid = build_grid(scenario)
    seed = scenario["sampling"]["seed"]
    n_paths = _n_paths(scenario)
    oversample = scenario["dynamics"]["oversample"]
    times = scenario["task"].get("times", [grid.horizon])
    node_idx = sorted({nearest_node(grid, t) for t in times})
    node_times = grid.nodes[node_idx]
    failures = []
    rows = []
    if "paths" in scenario["output"]["formats"]:
        ensemble = simulate_ensemble(
            model, nonlin, x0, grid, seed, n_paths, oversample=oversample
        )
        io.write_path_dump(FilePath(outdir) / "paths.spdb", ensemble)
        snaps = ensemble.states[:, node_idx, :]
    else:
        snaps = forward_snapshots(
            model, nonlin, x0, grid, seed, n_paths, node_idx, oversample=oversample
        )
    _moment_rows(rows, "sample", snaps, node_times, "forward.simulate_ensemble")
    if nonlin.kind == "zero":
        for ti, t in enumerate(node_times):
            if t <= 0:
                continue
            closed_mean = np.exp(model.lam * t) * x0
            closed_var = covariance_qt_diag(model, float(t))
            _closed_rows(
                rows, closed_mean, closed_var, t,
                "spectral.semigroup_apply", "spectral.covariance_qt",
            )
            _gaussian_check(
                failures, snaps[:, ti, :], closed_mean, closed_var, "forward",
                f"at t={t}", se_from_sample=True,
            )
    else:
        failures.append("forward assertion mode requires the zero nonlinearity")
    diagnostics = {"times": [float(t) for t in node_times]}
    return rows, diagnostics, failures


def task_ou_bridge(scenario, outdir):
    model = build_model(scenario)
    x0 = build_x0(scenario, model)
    grid = build_grid(scenario)
    task = scenario["task"]
    y = np.asarray(task["target"], dtype=np.float64)
    horizon = grid.horizon
    seed = scenario["sampling"]["seed"]
    n_paths = _n_paths(scenario)
    times = task.get("times", [horizon / 2.0])
    node_idx = sorted({nearest_node(grid, t) for t in times})
    node_times = grid.nodes[node_idx]
    snaps = ou_bridge_snapshots(model, x0, horizon, y, grid, seed, n_paths, node_idx)
    rows = []
    failures = []
    _moment_rows(rows, "sample", snaps, node_times, "ou.ou_bridge_snapshots")
    for ti, t in enumerate(node_times):
        mm, vv = bridge_marginal_mean_var(model, x0, horizon, y, float(t))
        _closed_rows(
            rows, mm, vv, t,
            "ou.bridge_marginal_mean_var", "ou.bridge_marginal_mean_var",
        )
        _gaussian_check(failures, snaps[:, ti, :], mm, vv, "bridge", f"at t={t}")
    return rows, {"times": [float(t) for t in node_times]}, failures


def task_guided(scenario, outdir):
    model = build_model(scenario)
    nonlin = build_nonlinearity(scenario)
    x0 = build_x0(scenario, model)
    grid = build_grid(scenario)
    task = scenario["task"]
    horizon = grid.horizon
    y = np.asarray(task["target"], dtype=np.float64)
    conditioning = task.get("conditioning", "exact")
    obs_var = task.get("obs_var")
    cutoffs = task.get("weight_cutoffs", [0.95 * horizon])
    probe_time = task.get("probe_time", horizon / 2.0)
    seed = scenario["sampling"]["seed"]
    n_paths = _n_paths(scenario)
    oversample = scenario["dynamics"]["oversample"]
    spec = GuidedSpec(
        y=y, horizon=horizon, conditioning=conditioning, obs_var=obs_var,
        weight_cutoff=max(cutoffs),
    )
    probe_node = nearest_node(grid, probe_time)
    snap_idx = sorted({probe_node, grid.n_steps})
    w_nodes = sorted({weight_node(grid, c) for c in cutoffs})
    snaps, logw = guided_snapshots(
        model, nonlin, x0, spec, grid, seed, n_paths, snap_idx, w_nodes,
        oversample=oversample,
    )
    probe_slot = snap_idx.index(probe_node)
    t_probe = float(grid.nodes[probe_node])
    rows = []
    failures = []
    _moment_rows(
        rows, "sample", snaps[:, [probe_slot], :], [t_probe], "guided.guided_snapshots"
    )
    for wi, k in enumerate(w_nodes):
        t_w = float(grid.nodes[k])
        _weighted_rows(rows, logw[:, wi], snaps[:, probe_slot, :], t_w, t_w)
    if nonlin.kind == "zero" and conditioning == "exact":
        mm, vv = bridge_marginal_mean_var(model, x0, horizon, y, t_probe)
        dt_allow = float(grid.steps.max())
        _gaussian_check(
            failures, snaps[:, probe_slot, :], mm, vv, "guided", "closed bridge value",
            mean_slack=0.5 * dt_allow * np.abs(y), var_slack=2.0 * dt_allow * vv,
        )
        _check(
            failures,
            bool(np.all(logw == 0.0)),
            "zero nonlinearity must give identically zero log weights",
        )
    else:
        failures.append(
            "guided assertion mode requires zero nonlinearity and exact conditioning"
        )
    diagnostics = {
        "weight_times": [float(grid.nodes[k]) for k in w_nodes],
        "probe_time": t_probe,
    }
    return rows, diagnostics, failures


def task_conditioned(scenario, outdir):
    model = build_model(scenario)
    nonlin = build_nonlinearity(scenario)
    x0 = build_x0(scenario, model)
    grid = build_grid(scenario)
    task = scenario["task"]
    horizon = grid.horizon
    endpoint = task["endpoint"]
    if endpoint["kind"] == "dirac":
        sampler = endpoint_sampler_bridge(np.asarray(endpoint["target"], dtype=np.float64))
    elif endpoint["kind"] == "tilted":
        tilt = GaussianTilt(
            np.asarray(endpoint["mean"], dtype=np.float64),
            np.asarray(endpoint["var"], dtype=np.float64),
        )
        sampler = endpoint_sampler_tilted(model, tilt)
    else:
        raise DomainError(f"unknown endpoint kind {endpoint['kind']!r}")
    probe_time = task.get("probe_time", horizon / 2.0)
    cutoff = task.get("weight_cutoff", 0.95 * horizon)
    seed = scenario["sampling"]["seed"]
    n_paths = _n_paths(scenario)
    oversample = scenario["dynamics"]["oversample"]
    probe_node = nearest_node(grid, probe_time)
    k_w = weight_node(grid, cutoff)
    snap_idx = sorted({probe_node, grid.n_steps})
    endpoints, snaps, logw = conditioned_snapshots(
        model, nonlin, x0, sampler, horizon, grid, seed, n_paths,
        weight_cutoff=cutoff, snap_nodes=snap_idx, oversample=oversample,
    )
    probe_slot = snap_idx.index(probe_node)
    end_slot = snap_idx.index(grid.n_steps)
    t_probe = float(grid.nodes[probe_node])
    rows = []
    failures = []
    _moment_rows(
        rows, "endpoint", snaps[:, [end_slot], :], [horizon], "guided.conditioned_snapshots"
    )
    _moment_rows(
        rows, "sample", snaps[:, [probe_slot], :], [t_probe], "guided.conditioned_snapshots"
    )
    _weighted_rows(
        rows, logw, snaps[:, probe_slot, :], float(grid.nodes[k_w]), t_probe
    )
    if nonlin.kind == "zero" and endpoint["kind"] == "tilted":
        _gaussian_check(
            failures, snaps[:, end_slot, :], tilt.mean, tilt.var,
            "conditioned endpoint", "the tilt law",
        )
    else:
        failures.append(
            "conditioned assertion mode requires zero nonlinearity and a tilted endpoint"
        )
    return rows, {"probe_time": t_probe}, failures


def task_dynkin(scenario, outdir):
    model = build_model(scenario)
    nonlin = build_nonlinearity(scenario)
    x0 = build_x0(scenario, model)
    grid = build_grid(scenario)
    task = scenario["task"]
    seed = scenario["sampling"]["seed"]
    n_paths = _n_paths(scenario)
    oversample = scenario["dynamics"]["oversample"]
    times = task.get("times", [grid.horizon])
    rows = []
    failures = []
    max_stat = 0.0
    phis = [
        ExpTestFunction(
            np.asarray(tf["a"], dtype=np.float64), float(tf["c"]), tf.get("phase", "sin")
        )
        for tf in task["test_functions"]
    ]
    all_stats = dynkin_residual_mc(
        model, nonlin, phis, x0, grid, seed, n_paths, times, oversample=oversample
    )
    for fi, stats in enumerate(all_stats):
        for t, est, se in zip(stats.times, stats.estimates, stats.stderrs):
            rows.append(
                io.summary_row(
                    "dynkin_residual", est, mode=fi, time=float(t), stderr=se,
                    provenance="htransform.dynkin_residual_mc",
                )
            )
        max_stat = max(max_stat, stats.max_stat)
    _check(failures, max_stat <= 4.0, f"dynkin residual statistic {max_stat:.2f} > 4")
    return rows, {"max_stat": max_stat}, failures


def task_martingale_diag(scenario, outdir):
    model = build_model(scenario)
    nonlin = build_nonlinearity(scenario)
    x0 = build_x0(scenario, model)
    grid = build_grid(scenario)
    task = scenario["task"]
    horizon_h = float(task.get("h_horizon", 2.0 * grid.horizon))
    y = np.asarray(task["target"], dtype=np.float64)
    times = task.get("times", [grid.horizon / 2.0, grid.horizon])
    probe_time = task.get("probe_time", 0.0)
    seed = scenario["sampling"]["seed"]
    n_paths = _n_paths(scenario)
    oversample = scenario["dynamics"]["oversample"]
    h = bridge_h(model, nonlin, horizon_h, y)
    node_idx = sorted({nearest_node(grid, t) for t in times})
    probe_node = nearest_node(grid, probe_time)
    # Novikov growth curve on the first 4000 paths: reported, never asserted
    fracs = task.get("novikov_fractions", [0.5, 0.75, 0.95])
    novikov_upto = [float(frac) * grid.horizon for frac in fracs]
    n_nov = min(n_paths, 4000)
    series = np.empty((n_paths, len(node_idx)))
    probes = np.empty((n_paths, model.n_modes))
    novikov = np.empty((len(novikov_upto), n_nov))
    for lo, hi, _, z in stream_paths(model, x0, grid, seed, n_paths):
        ens = simulate_ensemble(
            model, nonlin, x0, grid, n_paths=hi - lo, oversample=oversample, increments=z
        )
        series[lo:hi] = _exp_martingale(ens, h, node_idx)
        probes[lo:hi] = ens.states[:, probe_node]
        if lo < n_nov:
            for i, upto in enumerate(novikov_upto):
                novikov[i, lo:hi] = _novikov_values(ens, h, model, upto)[: n_nov - lo]
    rows = []
    failures = []
    for col, k in enumerate(node_idx):
        mean = float(series[:, col].mean())
        se = float(series[:, col].std(ddof=1) / np.sqrt(n_paths))
        rows.append(
            io.summary_row(
                "exp_martingale_mean", mean, time=float(grid.nodes[k]), stderr=se,
                provenance="htransform.exp_martingale_from_definition",
            )
        )
        _check(
            failures,
            abs(mean - 1.0) <= 4 * se,
            f"E^h mean {mean:.4f} not 1 within 4 stderr at t={grid.nodes[k]:.3f}",
        )
    if len(node_idx) >= 2:
        stats = increment_orthogonality(series, probes)
        worst = float(np.max(np.abs(stats)))
        rows.append(
            io.summary_row(
                "increment_orthogonality_max_stat", worst,
                provenance="htransform.increment_orthogonality",
            )
        )
        _check(failures, worst <= 4.0, f"orthogonality statistic {worst:.2f} > 4")
    for upto, vals in zip(novikov_upto, novikov):
        rows.append(
            io.summary_row(
                "novikov_estimate", float(vals.mean()), time=upto,
                stderr=float(vals.std(ddof=1) / np.sqrt(n_nov)),
                provenance="htransform.novikov_estimate",
            )
        )
    return rows, {"diagnostic": "evidence only, not a proof"}, failures


def task_gamma_diag(scenario, outdir):
    model = build_model(scenario)
    grid = build_grid(scenario)
    task = scenario["task"]
    horizon = grid.horizon
    upto = float(task.get("upto", 0.9 * horizon))
    n_points = int(task.get("n_points", 100))
    ts = np.linspace(0.0, upto, n_points)
    values = np.array([gamma_hs_norm_sq(model, horizon - t) for t in ts])
    rows = [
        io.summary_row(
            "gamma_hs_norm_sq", v, time=float(t),
            provenance="spectral.gamma_hs_norm_sq",
        )
        for t, v in zip(ts, values)
    ]
    failures = []
    finite = bool(np.all(np.isfinite(values)))
    monotone = bool(np.all(np.diff(values) >= -1e-12 * np.abs(values[:-1])))
    sup_at_end = bool(np.argmax(values) == values.size - 1)
    _check(failures, finite, "gamma HS norm not finite on the grid")
    _check(failures, monotone, "gamma HS norm not nondecreasing toward the horizon")
    _check(failures, sup_at_end, "gamma HS sup not at the smallest lag")
    diagnostics = {"finite": finite, "monotone": monotone, "sup_at_end": sup_at_end}
    return rows, diagnostics, failures


def task_ck_check(scenario, outdir):
    model = build_model(scenario)
    task = scenario["task"]
    grid = build_grid(scenario)
    s = float(task.get("s", 0.0))
    t = float(task.get("t", grid.horizon))
    modes = task.get("modes", [0])
    mids = task.get("mid", [0.5 * (s + t)])
    xs = task.get("x", [0.0])
    ys = task.get("y", [0.0])
    tol = float(task.get("tolerance", 1e-8))
    rows = []
    failures = []
    worst = 0.0
    for mode in modes:
        for r in mids:
            for x in xs:
                for yv in ys:
                    res = chapman_kolmogorov_residual(
                        model, int(mode), s, float(x), float(r), t, float(yv)
                    )
                    worst = max(worst, res)
                    rows.append(
                        io.summary_row(
                            "ck_residual", res, mode=int(mode), time=float(r),
                            provenance="ou.chapman_kolmogorov_residual",
                        )
                    )
    _check(failures, worst < tol, f"CK residual {worst:.3e} >= {tol:.1e}")
    return rows, {"max_residual": worst}, failures


TASKS = {
    "forward": task_forward,
    "ou-bridge": task_ou_bridge,
    "guided": task_guided,
    "conditioned": task_conditioned,
    "dynkin": task_dynkin,
    "martingale-diag": task_martingale_diag,
    "gamma-diag": task_gamma_diag,
    "ck-check": task_ck_check,
}


def run_scenario(scenario: dict, outdir, assert_mode: bool = False) -> dict:
    """Execute the scenario's task, writing all artifacts into outdir.

    Returns the diagnostics dict. The task's failed checks are recorded and
    raised as AssertionFailure in assertion mode, and dropped otherwise.
    """
    outdir = FilePath(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    name = scenario["task"]["name"]
    rows, diagnostics, failures = TASKS[name](scenario, outdir)
    if not assert_mode:
        failures = []
    manifest = {
        "tool": {"name": "spdebridge", "version": __version__},
        "rng": {"generator": rng.GENERATOR_ID},
        "backend": BACKEND,
        "scenario": scenario,
    }
    io.write_manifest(outdir, manifest)
    if "csv" in scenario["output"]["formats"]:
        io.write_summary(outdir, rows)
    if "json" in scenario["output"]["formats"]:
        diagnostics = dict(diagnostics)
        diagnostics["assertion_failures"] = failures
        io.write_diagnostics(outdir, diagnostics)
    if failures:
        raise AssertionFailure("; ".join(failures))
    return diagnostics
