import json

import numpy as np
import pytest

from spdebridge import rng
from spdebridge.cli import compare_runs, main
from spdebridge.forward import nearest_node, simulate_ensemble
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

    def recording(seed, path_indices, n_steps, n_modes):
        drawn.extend(path_indices)
        return original(seed, path_indices, n_steps, n_modes)

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


def test_martingale_diag_streamed_rows_equal_one_full_ensemble(tmp_path):
    # 2050 paths cross the 2048-path chunk border of the streamed task
    times, target = [0.2, 0.5, 0.8], [1.0, -0.5]
    scn = resolve_scenario(
        scenario(
            {
                "name": "martingale-diag", "target": target, "h_horizon": 1.0,
                "times": times, "probe_time": 0.2, "novikov_fractions": [0.5, 0.9],
            },
            n_modes=2, lam=(-1.0, -4.0), q=(2.0, 1.0),
            grid={"horizon": 0.8, "n_steps": 16, "kind": "uniform"},
            sampling={"n_paths": 2050, "seed": 41},
            nonlinearity={"kind": "sine", "alpha": 0.5},
        )
    )
    run_scenario(scn, tmp_path / "r")
    rows = read_summary(tmp_path / "r")
    model, nonlin, grid = build_model(scn), build_nonlinearity(scn), build_grid(scn)
    ens = simulate_ensemble(model, nonlin, np.zeros(2), grid, 41, n_paths=2050)
    h = bridge_h(model, nonlin, 1.0, target)
    nodes = [nearest_node(grid, t) for t in times]
    series = exp_martingale_from_definition(ens, h)[:, nodes]
    expected = [
        (series[:, col].mean(), series[:, col].std(ddof=1) / np.sqrt(2050))
        for col in range(len(nodes))
    ]
    stats = increment_orthogonality(series, ens.states[:, nodes[0]])
    expected.append((np.max(np.abs(stats)), None))
    expected += [novikov_estimate(ens, h, model, frac * 0.8) for frac in (0.5, 0.9)]
    assert [r["quantity"] for r in rows] == (
        ["exp_martingale_mean"] * 3 + ["increment_orthogonality_max_stat"]
        + ["novikov_estimate"] * 2
    )
    for row, (value, stderr) in zip(rows, expected):
        assert float(row["value"]) == value
        assert row["stderr"] == ("" if stderr is None else repr(float(stderr)))


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
    # guided assertion mode demands a zero nonlinearity
    scn = resolve_scenario(
        scenario(
            {"name": "guided", "target": [1.0]},
            grid={"horizon": 1.0, "n_steps": 64, "kind": "geometric"},
            nonlinearity={"kind": "sine", "alpha": 0.5},
            sampling={"n_paths": 100, "seed": 1},
        )
    )
    with pytest.raises(AssertionFailure):
        run_scenario(scn, tmp_path / "r", assert_mode=True)


def test_cli_threads_flag(tmp_path):
    f = tmp_path / "scn.json"
    f.write_text(
        json.dumps(
            scenario({"name": "forward", "times": [1.0]}, sampling={"n_paths": 200, "seed": 2})
        )
    )
    assert main(["run", str(f), "--out", str(tmp_path / "r"), "--threads", "2"]) == 0
