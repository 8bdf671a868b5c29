import json

import numpy as np
import pytest

from spdebridge import rng
from spdebridge.cli import compare_runs, main
from spdebridge.io import read_summary
from spdebridge.scenario import resolve_scenario
from spdebridge.tasks import AssertionFailure, run_scenario


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


def test_martingale_diag_sine_draws_each_path_once(tmp_path, monkeypatch):
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
            nonlinearity={"kind": "sine", "alpha": 0.5},
        )
    )
    run_scenario(scn, tmp_path / "r")
    assert len(drawn) == len(set(drawn)) == 300


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
