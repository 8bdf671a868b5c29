import json

import numpy as np
import pytest

from spdebridge import _kernels, forward, rng
from spdebridge.cli import compare_runs, main
from spdebridge.forward import PathEnsemble, nearest_node, simulate_ensemble
from spdebridge.grids import TimeGrid
from spdebridge.htransform import (
    bridge_h,
    exp_martingale_from_definition,
    increment_orthogonality,
    novikov_estimate,
)
from spdebridge.io import read_summary
from spdebridge.scenario import build_grid, build_model, build_nonlinearity, resolve_scenario
from spdebridge.tasks import AssertionFailure, _gaussian_check, run_scenario


def scenario(task, *, n_modes=1, lam=(-1.0,), q=(2.0,), grid=None, sampling=None,
             nonlinearity=None):
    return {
        "model": {
            "n_modes": n_modes,
            "eigenvalues": {"rule": "explicit", "values": list(lam)},
            "noise": {"rule": "explicit", "values": list(q)},
        },
        "dynamics": {
            "nonlinearity": nonlinearity or {"kind": "zero"},
            "x0": {"kind": "zero"},
        },
        "task": task,
        "grid": grid or {"horizon": 1.0, "n_steps": 64, "kind": "uniform"},
        "sampling": sampling or {"n_paths": 2000, "seed": 5},
        "output": {"formats": ["csv", "json"]},
    }


def test_ou_bridge_task_asserts(tmp_path):
    scn = resolve_scenario(
        scenario(
            {"name": "ou-bridge", "target": [1.0], "times": [0.5]},
            sampling={"n_paths": 5000, "seed": 3},
        )
    )
    run_scenario(scn, tmp_path / "r", assert_mode=True)
    rows = read_summary(tmp_path / "r")
    quantities = {r["quantity"] for r in rows}
    assert {"sample_mean", "sample_var", "closed_mean", "closed_var"} <= quantities


@pytest.mark.parametrize(
    "times, x0",
    [([0.0], {"kind": "explicit", "values": [0.7]}), ([1.0], {"kind": "zero"})],
    ids=["start", "horizon"],
)
def test_ou_bridge_task_asserts_at_pinned_node(tmp_path, times, x0):
    # the bridge law is a point mass at x0 and at the target, checked exactly;
    # the sample mean of 5000 copies of 0.7 is not 0.7 in floating point
    raw = scenario(
        {"name": "ou-bridge", "target": [0.7], "times": times},
        sampling={"n_paths": 5000, "seed": 3},
    )
    raw["dynamics"]["x0"] = x0
    diag = run_scenario(resolve_scenario(raw), tmp_path / "r", assert_mode=True)
    assert diag["assertion_failures"] == []
    rows = read_summary(tmp_path / "r")
    assert [float(r["value"]) for r in rows if r["quantity"] == "closed_var"] == [0.0]


def test_guided_task_asserts_with_probe_at_horizon(tmp_path):
    scn = resolve_scenario(
        scenario(
            {"name": "guided", "target": [0.7], "probe_time": 1.0},
            grid={"horizon": 1.0, "n_steps": 64, "kind": "geometric"},
            sampling={"n_paths": 3000, "seed": 21},
        )
    )
    diag = run_scenario(scn, tmp_path / "r", assert_mode=True)
    assert diag["probe_time"] == 1.0 and diag["assertion_failures"] == []


def test_gaussian_check_pins_zero_variance_modes_exactly():
    gen = np.random.default_rng(0)
    samples = np.column_stack([np.full(400, 0.1), gen.standard_normal(400)])
    mean, var = np.array([0.1, 0.0]), np.array([0.0, 1.0])
    failures = []
    _gaussian_check(failures, samples, mean, var, "x", "here")
    assert failures == []
    samples[7, 0] = np.nextafter(0.1, 1.0)
    _gaussian_check(failures, samples, mean, var, "x", "here")
    assert failures == ["x mean off here", "x variance off here"]


def test_guided_task_and_compare_with_bridge(tmp_path):
    grid = {"horizon": 1.0, "n_steps": 256, "kind": "geometric", "ratio": 0.7}
    guided = resolve_scenario(
        scenario(
            {
                "name": "guided",
                "target": [1.0],
                "weight_cutoffs": [0.9],
                "probe_time": 0.5,
            },
            grid=grid,
            sampling={"n_paths": 8000, "seed": 21},
        )
    )
    run_scenario(guided, tmp_path / "guided", assert_mode=True)
    bridge = resolve_scenario(
        scenario(
            {"name": "ou-bridge", "target": [1.0], "times": [0.5]},
            grid=grid,
            sampling={"n_paths": 8000, "seed": 22},
        )
    )
    run_scenario(bridge, tmp_path / "bridge", assert_mode=True)
    tol = {
        "default": {"abs": 1e9, "rel": 0.0},  # uncontrolled columns pass
        "quantities": {
            "sample_mean": {"value": {"abs": 0.03, "rel": 0.0}},
            "sample_var": {"value": {"abs": 0.0, "rel": 0.15}},
        },
    }
    report = compare_runs(tmp_path / "guided", tmp_path / "bridge", tol)
    assert report["pass"], report["offending"]
    # one mode at one probe time: sample mean and sample variance in common
    assert report["compared"] == 2


def test_conditioned_task_tilted_asserts(tmp_path):
    scn = resolve_scenario(
        scenario(
            {
                "name": "conditioned",
                "endpoint": {"kind": "tilted", "mean": [0.5], "var": [0.4]},
                "probe_time": 0.5,
            },
            grid={"horizon": 1.0, "n_steps": 128, "kind": "geometric"},
            sampling={"n_paths": 5000, "seed": 9},
        )
    )
    run_scenario(scn, tmp_path / "r", assert_mode=True)


def test_dynkin_task(tmp_path):
    scn = resolve_scenario(
        scenario(
            {
                "name": "dynkin",
                "test_functions": [
                    {"a": [0.8], "c": 0.2, "phase": "sin"},
                    {"a": [0.3], "c": -0.4, "phase": "cos"},
                ],
                "times": [0.5, 1.0],
            },
            nonlinearity={"kind": "sine", "alpha": 0.5},
            sampling={"n_paths": 20000, "seed": 31},
        )
    )
    diag = run_scenario(scn, tmp_path / "r", assert_mode=True)
    assert diag["max_stat"] <= 4.0


def test_martingale_diag_task(tmp_path):
    scn = resolve_scenario(
        scenario(
            {
                "name": "martingale-diag",
                "target": [1.0],
                "h_horizon": 1.0,
                "times": [0.2, 0.5, 0.8],
                "probe_time": 0.2,
            },
            grid={"horizon": 0.8, "n_steps": 64, "kind": "uniform"},
            sampling={"n_paths": 20000, "seed": 41},
        )
    )
    run_scenario(scn, tmp_path / "r", assert_mode=True)
    rows = read_summary(tmp_path / "r")
    means = [r for r in rows if r["quantity"] == "exp_martingale_mean"]
    assert len(means) == 3
    novikov = [float(r["value"]) for r in rows if r["quantity"] == "novikov_estimate"]
    assert len(novikov) == 3 and novikov[0] < novikov[1] < novikov[2]


@pytest.mark.parametrize(
    "nonlinearity", [{"kind": "zero"}, {"kind": "sine", "alpha": 0.5}], ids=["zero", "sine"]
)
def test_martingale_diag_draws_each_path_once(tmp_path, monkeypatch, nonlinearity):
    drawn = []
    original = rng.path_increments

    def recording(seed, path_indices, n_steps, n_modes, **kwargs):
        drawn.extend(path_indices)
        return original(seed, path_indices, n_steps, n_modes, **kwargs)

    monkeypatch.setattr(rng, "path_increments", recording)
    scn = resolve_scenario(
        scenario(
            {"name": "martingale-diag", "target": [1.0], "h_horizon": 1.0},
            grid={"horizon": 0.8, "n_steps": 16, "kind": "uniform"},
            sampling={"n_paths": 300, "seed": 41},
            nonlinearity=nonlinearity,
        )
    )
    run_scenario(scn, tmp_path / "r")
    assert len(drawn) == len(set(drawn)) == 300


def test_martingale_diag_evaluates_each_node_once(tmp_path, monkeypatch):
    # F comes from the stepper at every node but the last, which the readout
    # evaluates itself: one pointwise map per path and node
    rows = []
    original = _kernels._pointwise_np

    def counting(u, kind, alpha):
        rows.append(u.shape[0])
        return original(u, kind, alpha)

    monkeypatch.setattr(_kernels, "_pointwise_np", counting)
    n_paths, n_steps = 3000, 64
    scn = resolve_scenario(
        scenario(
            {"name": "martingale-diag", "target": [0.5, -0.3, 0.1, 0.0]},
            n_modes=4, lam=(-1.0, -4.0, -9.0, -16.0), q=(1.0, 1.0, 1.0, 1.0),
            grid={"horizon": 1.0, "n_steps": n_steps, "kind": "uniform"},
            sampling={"n_paths": n_paths, "seed": 41},
            nonlinearity={"kind": "sine", "alpha": 0.5},
        )
    )
    run_scenario(scn, tmp_path / "r")
    assert sum(rows) == n_paths * (n_steps + 1) == 195000


def _martingale_rows_equal_one_full_ensemble(tmp_path, n_paths, oversample):
    times, target = [0.2, 0.5, 0.8], [1.0, -0.5]
    scn = resolve_scenario(
        scenario(
            {
                "name": "martingale-diag", "target": target, "h_horizon": 1.0,
                "times": times, "probe_time": 0.2, "novikov_fractions": [0.5, 0.9],
            },
            n_modes=2, lam=(-1.0, -4.0), q=(2.0, 1.0),
            grid={"horizon": 0.8, "n_steps": 16, "kind": "uniform"},
            sampling={"n_paths": n_paths, "seed": 41},
            nonlinearity={"kind": "sine", "alpha": 0.5},
        )
    )
    scn["dynamics"]["oversample"] = oversample
    run_scenario(scn, tmp_path / "r")
    rows = read_summary(tmp_path / "r")
    model, nonlin, grid = build_model(scn), build_nonlinearity(scn), build_grid(scn)
    ens = simulate_ensemble(
        model, nonlin, np.zeros(2), grid, 41, n_paths=n_paths, oversample=oversample
    )
    h = bridge_h(model, 1.0, target)
    nodes = [nearest_node(grid, t) for t in times]
    series = exp_martingale_from_definition(ens, h, model, nonlin, oversample)[:, nodes]
    expected = [
        (series[:, col].mean(), series[:, col].std(ddof=1) / np.sqrt(n_paths))
        for col in range(len(nodes))
    ]
    stats = increment_orthogonality(series, ens.states[:, nodes[0]])
    expected.append((np.max(np.abs(stats)), None))
    # the Novikov rows read the first 4000 paths only
    first = PathEnsemble(grid, ens.states[:4000], ens.increments[:4000])
    expected += [novikov_estimate(first, h, model, frac * 0.8) for frac in (0.5, 0.9)]
    assert [r["quantity"] for r in rows] == (
        ["exp_martingale_mean"] * 3 + ["increment_orthogonality_max_stat"]
        + ["novikov_estimate"] * 2
    )
    for row, (value, stderr) in zip(rows, expected):
        assert float(row["value"]) == value
        assert row["stderr"] == ("" if stderr is None else repr(float(stderr)))


def test_martingale_diag_streamed_rows_equal_one_full_ensemble(tmp_path):
    # 2050 paths cross the 2048-path chunk border of the streamed task
    _martingale_rows_equal_one_full_ensemble(tmp_path, 2050, 4)


def test_martingale_diag_h_uses_the_scenario_oversample(tmp_path):
    # Lh/h must apply the same pseudo-spectral F as the simulated paths
    _martingale_rows_equal_one_full_ensemble(tmp_path, 300, 1)


def test_martingale_diag_novikov_rows_stop_inside_a_chunk(tmp_path):
    # the 4000-path Novikov limit cuts the chunk of rows 2048..4095
    _martingale_rows_equal_one_full_ensemble(tmp_path, 4100, 4)


def test_martingale_diag_reads_h_only_where_it_is_defined(tmp_path):
    # h is undefined at its horizon, here the grid horizon; with zero drift
    # no node past the last Novikov time needs grad log h, so the run succeeds
    target, n_paths = [1.0], 300
    scn = resolve_scenario(
        scenario(
            {"name": "martingale-diag", "target": target, "h_horizon": 1.0, "times": [0.5]},
            grid={"horizon": 1.0, "n_steps": 16, "kind": "uniform"},
            sampling={"n_paths": n_paths, "seed": 41},
        )
    )
    f = tmp_path / "scn.json"
    f.write_text(json.dumps(scn))
    assert main(["run", str(f), "--out", str(tmp_path / "r")]) == 0
    rows = read_summary(tmp_path / "r")
    model, grid = build_model(scn), build_grid(scn)
    ens = simulate_ensemble(model, build_nonlinearity(scn), np.zeros(1), grid, 41, n_paths=n_paths)
    h = bridge_h(model, 1.0, target)
    k = nearest_node(grid, 0.5)
    vals = np.exp(h.log_h(grid.nodes[k], ens.states[:, k]) - h.log_h(0.0, ens.states[:, 0]))
    expected = [(vals.mean(), vals.std(ddof=1) / np.sqrt(n_paths))]
    expected += [novikov_estimate(ens, h, model, frac) for frac in (0.5, 0.75, 0.95)]
    assert [r["quantity"] for r in rows] == ["exp_martingale_mean"] + ["novikov_estimate"] * 3
    for row, (value, stderr) in zip(rows, expected):
        assert float(row["value"]) == value
        assert row["stderr"] == repr(float(stderr))


def test_martingale_diag_with_drift_reads_h_only_where_it_is_defined(tmp_path):
    # with a nonzero F, Lh/h is integrated up to the last read node only, so
    # an h whose horizon is the grid horizon is never evaluated there
    target, n_paths = [1.0], 300
    scn = resolve_scenario(
        scenario(
            {"name": "martingale-diag", "target": target, "h_horizon": 1.0, "times": [0.5]},
            grid={"horizon": 1.0, "n_steps": 16, "kind": "uniform"},
            sampling={"n_paths": n_paths, "seed": 41},
            nonlinearity={"kind": "sine", "alpha": 0.5},
        )
    )
    f = tmp_path / "scn.json"
    f.write_text(json.dumps(scn))
    assert main(["run", str(f), "--out", str(tmp_path / "r")]) == 0
    rows = read_summary(tmp_path / "r")
    model, nonlin, grid = build_model(scn), build_nonlinearity(scn), build_grid(scn)
    ens = simulate_ensemble(model, nonlin, np.zeros(1), grid, 41, n_paths=n_paths)
    h = bridge_h(model, 1.0, target)
    # the stored oracle on the grid up to the read node, where h is defined
    k = nearest_node(grid, 0.5)
    head = PathEnsemble(
        TimeGrid(grid.nodes[: k + 1], grid.kind), ens.states[:, : k + 1],
        ens.increments[:, :k],
    )
    vals = exp_martingale_from_definition(head, h, model, nonlin)[:, k]
    expected = [(vals.mean(), vals.std(ddof=1) / np.sqrt(n_paths))]
    expected += [novikov_estimate(ens, h, model, frac) for frac in (0.5, 0.75, 0.95)]
    assert [r["quantity"] for r in rows] == ["exp_martingale_mean"] + ["novikov_estimate"] * 3
    for row, (value, stderr) in zip(rows, expected):
        assert float(row["value"]) == value
        assert row["stderr"] == repr(float(stderr))


def test_martingale_diag_rejects_novikov_times_past_the_grid(tmp_path, capsys):
    # node_at_or_before would clamp t = 1.5 to the last node and repeat its row
    scn = resolve_scenario(
        scenario(
            {"name": "martingale-diag", "target": [1.0], "novikov_fractions": [1.0, 1.5]},
            grid={"horizon": 1.0, "n_steps": 16, "kind": "uniform"},
            sampling={"n_paths": 50, "seed": 41},
        )
    )
    f = tmp_path / "scn.json"
    f.write_text(json.dumps(scn))
    assert main(["run", str(f), "--out", str(tmp_path / "r")]) == 2
    assert "Novikov time lies past the grid horizon" in capsys.readouterr().err


@pytest.mark.parametrize(
    "task, grid_kind, formats",
    [
        ({"name": "forward"}, "uniform", ["csv", "json"]),
        ({"name": "forward"}, "uniform", ["csv", "json", "paths"]),
        ({"name": "guided", "target": [0.5]}, "geometric", ["csv", "json"]),
        ({"name": "conditioned", "endpoint": {"kind": "dirac", "target": [0.5]}}, "geometric",
         ["csv", "json"]),
        ({"name": "dynkin", "test_functions": [{"a": [0.5], "c": 0.0}]}, "uniform",
         ["csv", "json"]),
        ({"name": "martingale-diag", "target": [1.0]}, "uniform", ["csv", "json"]),
    ],
    ids=["forward", "forward-paths", "guided", "conditioned", "dynkin", "martingale-diag"],
)
def test_every_pass_builds_its_stepper_once(tmp_path, monkeypatch, task, grid_kind, formats):
    # 2100 paths are two chunks: the coefficients are built once per pass,
    # in forward.stepper, not once per chunk or per module
    calls = []
    original = forward.step_coefficients

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(forward, "step_coefficients", counting)
    raw = scenario(
        task,
        grid={"horizon": 1.0, "n_steps": 8, "kind": grid_kind},
        sampling={"n_paths": 2100, "seed": 5},
        nonlinearity={"kind": "sine", "alpha": 0.5},
    )
    raw["output"]["formats"] = formats
    run_scenario(resolve_scenario(raw), tmp_path / "r")
    assert len(calls) == 1


def test_gamma_diag_task(tmp_path):
    scn = resolve_scenario(
        scenario(
            {"name": "gamma-diag", "upto": 0.9, "n_points": 50},
            n_modes=8,
            lam=[-(j * np.pi) ** 2 for j in range(1, 9)],
            q=[1.0] * 8,
        )
    )
    diag = run_scenario(scn, tmp_path / "r", assert_mode=True)
    assert diag["finite"] and diag["monotone"] and diag["sup_at_end"]


def test_ck_check_task(tmp_path):
    scn = resolve_scenario(
        scenario(
            {
                "name": "ck-check",
                "s": 0.0,
                "t": 1.0,
                "mid": [0.25, 0.5, 0.75],
                "x": [-0.4, 0.0, 0.6],
                "y": [-0.5, 0.1, 0.7],
                "modes": [0, 1],
            },
            n_modes=2,
            lam=(-1.0, -4.0),
            q=(2.0, 1.0),
        )
    )
    diag = run_scenario(scn, tmp_path / "r", assert_mode=True)
    assert diag["max_residual"] < 1e-8


def test_assertion_failure_raises(tmp_path):
    # a zero tolerance fails the CK check on every run
    scn = resolve_scenario(
        scenario({"name": "ck-check", "mid": [0.5], "tolerance": 0.0})
    )
    with pytest.raises(AssertionFailure, match="CK residual"):
        run_scenario(scn, tmp_path / "r", assert_mode=True)


def test_cli_threads_flag(tmp_path, capsys):
    # there is no --threads: a pass runs on every core the process may use
    f = tmp_path / "scn.json"
    f.write_text(
        json.dumps(
            scenario({"name": "forward", "times": [1.0]}, sampling={"n_paths": 200, "seed": 2})
        )
    )
    assert main(["run", str(f), "--out", str(tmp_path / "r"), "--threads", "2"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "--threads" in err[0]
    assert not (tmp_path / "r").exists()
