import csv
import json
import os
import subprocess
import sys
from pathlib import Path as FilePath

import numpy as np
import pytest

import spdebridge
from spdebridge import replay_path, simulate_ensemble, sine_nemytskii, uniform_grid
from spdebridge.cli import main
from spdebridge.io import read_manifest, read_path_dump, write_path_dump
from spdebridge.scenario import SchemaError, resolve_scenario
from spdebridge.tasks import run_scenario


def base_scenario(task, **overrides):
    scn = {
        "model": {"n_modes": 2, "eigenvalues": {"rule": "explicit", "values": [-1.0, -4.0]},
                  "noise": {"rule": "explicit", "values": [2.0, 1.0]}},
        "dynamics": {"nonlinearity": {"kind": "zero"}, "x0": {"kind": "zero"}},
        "task": task,
        "grid": {"horizon": 1.0, "n_steps": 32, "kind": "uniform"},
        "sampling": {"n_paths": 400, "seed": 77},
        "output": {"formats": ["csv", "json"]},
    }
    scn.update(overrides)
    return scn


def run_cli(args):
    return main(list(args))


class TestScenarioValidation:
    def test_missing_seed_names_field(self):
        scn = base_scenario({"name": "forward"})
        del scn["sampling"]["seed"]
        with pytest.raises(SchemaError, match="seed"):
            resolve_scenario(scn)

    def test_unknown_task_rejected(self):
        with pytest.raises(SchemaError):
            resolve_scenario(base_scenario({"name": "frobnicate"}))

    def test_explicit_length_mismatch(self):
        scn = base_scenario({"name": "forward"})
        scn["model"]["eigenvalues"]["values"] = [-1.0]
        with pytest.raises(SchemaError, match="eigenvalues"):
            resolve_scenario(scn)

    def test_resolution_fills_defaults(self):
        resolved = resolve_scenario(base_scenario({"name": "forward"}))
        assert resolved["dynamics"]["oversample"] == 4
        assert resolved["output"]["formats"] == ["csv", "json"]


class TestRunDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        scn = resolve_scenario(base_scenario({"name": "forward", "times": [0.5, 1.0]}))
        run_scenario(scn, tmp_path / "a")
        run_scenario(scn, tmp_path / "b")
        for name in ("summary.csv", "manifest.json", "diagnostics.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_manifest_round_trip_reproduces_run(self, tmp_path):
        scn = resolve_scenario(base_scenario({"name": "forward", "times": [1.0]}))
        run_scenario(scn, tmp_path / "a")
        manifest = read_manifest(tmp_path / "a")
        rebuilt = resolve_scenario(manifest["scenario"])
        assert rebuilt == scn
        run_scenario(rebuilt, tmp_path / "b")
        assert (tmp_path / "a" / "summary.csv").read_bytes() == (
            tmp_path / "b" / "summary.csv"
        ).read_bytes()


class TestExitCodes:
    def test_schema_violation_exits_one(self, tmp_path):
        bad = tmp_path / "bad.json"
        scn = base_scenario({"name": "forward"})
        del scn["sampling"]["seed"]
        bad.write_text(json.dumps(scn))
        assert run_cli(["run", str(bad), "--out", str(tmp_path / "r")]) == 1

    def test_domain_error_exits_two(self, tmp_path):
        scn = base_scenario({"name": "ck-check", "s": 0.5, "mid": [0.4], "t": 1.0})
        f = tmp_path / "scn.json"
        f.write_text(json.dumps(scn))
        assert run_cli(["run", str(f), "--out", str(tmp_path / "r")]) == 2

    def test_assert_failure_exits_three(self, tmp_path):
        # nonzero drift has no closed-form check, so assertion mode must fail
        scn = base_scenario({"name": "forward"})
        scn["dynamics"]["nonlinearity"] = {"kind": "sine", "alpha": 0.5}
        f = tmp_path / "scn.json"
        f.write_text(json.dumps(scn))
        assert run_cli(["run", str(f), "--out", str(tmp_path / "r"), "--assert"]) == 3

    def test_failed_check_is_fatal_only_under_assert(self, tmp_path, capsys):
        # a zero tolerance fails the CK check on every run
        scn = base_scenario({"name": "ck-check", "mid": [0.5], "tolerance": 0.0})
        f = tmp_path / "scn.json"
        f.write_text(json.dumps(scn))
        assert run_cli(["run", str(f), "--out", str(tmp_path / "a"), "--assert"]) == 3
        err = capsys.readouterr().err
        assert "assertion failure: CK residual" in err and ">= 0.0e+00" in err
        diag = json.loads((tmp_path / "a" / "diagnostics.json").read_text())
        assert len(diag["assertion_failures"]) == 1
        assert diag["assertion_failures"][0] in err
        assert run_cli(["run", str(f), "--out", str(tmp_path / "n")]) == 0
        diag = json.loads((tmp_path / "n" / "diagnostics.json").read_text())
        assert diag["assertion_failures"] == []

    @pytest.mark.parametrize(
        "task",
        [
            {"name": "forward"},
            {"name": "ou-bridge", "target": [0.5, -0.2]},
            {"name": "guided", "target": [0.5, -0.2]},
            {"name": "conditioned", "endpoint": {"kind": "dirac", "target": [0.5, -0.2]}},
            {"name": "dynkin", "test_functions": [{"a": [0.5, 0.1], "c": 0.0}]},
            {"name": "martingale-diag", "target": [0.5, -0.2]},
        ],
        ids=lambda task: task["name"],
    )
    def test_single_path_is_a_domain_error(self, tmp_path, task):
        scn = base_scenario(task)
        scn["sampling"]["n_paths"] = 1
        f = tmp_path / "scn.json"
        f.write_text(json.dumps(scn))
        env = dict(os.environ, PYTHONPATH=str(FilePath(spdebridge.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "spdebridge.cli", "run", str(f), "--out", str(tmp_path / "r")],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "n_paths" in proc.stderr and len(proc.stderr.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "task, formats, field",
        [
            ({"name": "forward", "timez": [0.5]}, None, "$.task.timez"),
            ({"name": "ou-bridge"}, None, "$.task.target"),
            ({"name": "conditioned", "endpoint": {"kind": "dirac"}}, None,
             "$.task.endpoint.target"),
            ({"name": "conditioned", "endpoint": {"kind": "uniform"}}, None,
             "$.task.endpoint.kind"),
            ({"name": "dynkin", "test_functions": [{"a": [0.5, 0.1]}]}, None,
             "$.task.test_functions[0].c"),
            ({"name": "ou-bridge", "target": [0.5, -0.2]}, ["csv", "json", "paths"],
             "$.output.formats"),
        ],
        ids=[
            "unknown-key", "bridge-target", "dirac-target", "endpoint-kind", "dynkin-c",
            "paths-format",
        ],
    )
    def test_task_block_checked_at_resolve_time(self, tmp_path, capsys, task, formats, field):
        scn = base_scenario(task)
        if formats:
            scn["output"]["formats"] = formats
        f = tmp_path / "scn.json"
        f.write_text(json.dumps(scn))
        assert run_cli(["run", str(f), "--out", str(tmp_path / "r")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {field}: ")
        assert not (tmp_path / "r").exists()

    def test_successful_assert_run(self, tmp_path):
        scn = base_scenario({"name": "forward", "times": [1.0]})
        f = tmp_path / "scn.json"
        f.write_text(json.dumps(scn))
        assert run_cli(["run", str(f), "--out", str(tmp_path / "r"), "--assert"]) == 0


class TestCompare:
    def _write_and_run(self, tmp_path, name, seed=77):
        scn = base_scenario({"name": "forward", "times": [0.5, 1.0]})
        scn["sampling"]["seed"] = seed
        resolved = resolve_scenario(scn)
        run_scenario(resolved, tmp_path / name)
        return tmp_path / name

    def test_self_compare_passes(self, tmp_path):
        a = self._write_and_run(tmp_path, "a")
        tol = tmp_path / "tol.json"
        tol.write_text(json.dumps({"default": {"abs": 0.0, "rel": 0.0}}))
        assert run_cli(["compare", str(a), str(a), str(tol)]) == 0

    def test_perturbed_table_fails_listing_cells(self, tmp_path, capsys):
        a = self._write_and_run(tmp_path, "a")
        b = self._write_and_run(tmp_path, "b")
        # perturb one value cell in b
        rows = list(csv.DictReader((b / "summary.csv").open()))
        rows[0]["value"] = repr(float(rows[0]["value"]) + 1.0)
        with (b / "summary.csv").open("w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
        tol = tmp_path / "tol.json"
        tol.write_text(json.dumps({"default": {"abs": 1e-12, "rel": 1e-12}}))
        assert run_cli(["compare", str(a), str(b), str(tol)]) == 3
        report = json.loads(capsys.readouterr().out)
        assert len(report["offending"]) == 1
        assert report["offending"][0]["quantity"] == rows[0]["quantity"]

    def test_incompatible_models_rejected(self, tmp_path):
        a = self._write_and_run(tmp_path, "a")
        scn = base_scenario({"name": "forward", "times": [0.5, 1.0]})
        scn["model"]["n_modes"] = 3
        scn["model"]["eigenvalues"]["values"] = [-1.0, -4.0, -9.0]
        scn["model"]["noise"]["values"] = [2.0, 1.0, 1.0]
        run_scenario(resolve_scenario(scn), tmp_path / "c")
        tol = tmp_path / "tol.json"
        tol.write_text(json.dumps({"default": {"abs": 0, "rel": 0}}))
        assert run_cli(["compare", str(a), str(tmp_path / "c"), str(tol)]) == 2


class TestPathDump:
    def test_round_trip_and_replay(self, tmp_path, two_mode):
        grid = uniform_grid(0.5, 16)
        nonlin = sine_nemytskii(0.5)
        ens = simulate_ensemble(two_mode, nonlin, np.zeros(2), grid, 5, n_paths=3)
        f = tmp_path / "paths.spdb"
        write_path_dump(f, ens)
        loaded = read_path_dump(f)
        np.testing.assert_array_equal(loaded.states, ens.states)
        np.testing.assert_array_equal(loaded.increments, ens.increments)
        np.testing.assert_array_equal(loaded.grid.nodes, grid.nodes)
        # replaying dumped increments reproduces dumped states bit-exactly
        replayed = replay_path(two_mode, nonlin, loaded.path(1))
        np.testing.assert_array_equal(replayed, ens.states[1])

    def test_magic_checked(self, tmp_path):
        f = tmp_path / "junk.spdb"
        f.write_bytes(b"JUNKxxxxyyyyzzzz")
        from spdebridge import DomainError

        with pytest.raises(DomainError):
            read_path_dump(f)

    def test_size_checked_against_header(self, tmp_path, two_mode):
        from spdebridge import DomainError

        ens = simulate_ensemble(
            two_mode, sine_nemytskii(0.5), np.zeros(2), uniform_grid(0.5, 4), 5, n_paths=2
        )
        f = tmp_path / "paths.spdb"
        write_path_dump(f, ens)
        data = f.read_bytes()
        for bad in (data[:10], data[:-8], data + b"\0"):
            f.write_bytes(bad)
            with pytest.raises(DomainError):
                read_path_dump(f)

    def test_forward_task_writes_dump(self, tmp_path):
        scn = base_scenario({"name": "forward", "times": [1.0]})
        scn["output"]["formats"] = ["csv", "json", "paths"]
        scn["sampling"]["n_paths"] = 5
        run_scenario(resolve_scenario(scn), tmp_path / "r")
        loaded = read_path_dump(tmp_path / "r" / "paths.spdb")
        assert loaded.states.shape == (5, 33, 2)
