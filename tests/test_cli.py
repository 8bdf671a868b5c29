import csv
import errno
import json
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path as FilePath

import jsonschema
import numpy as np
import pytest

import spdebridge
from spdebridge import replay_path, simulate_ensemble, sine_nemytskii, uniform_grid
from spdebridge import tasks
from spdebridge.cli import main
from spdebridge.forward import CHUNK, PathEnsemble
from spdebridge.io import read_manifest, read_path_dump, write_path_dump
from spdebridge.scenario import SCENARIO_SCHEMA, SchemaError, resolve_scenario
from spdebridge.tasks import run_scenario

README = FilePath(__file__).resolve().parent.parent / "README.md"
GEOMETRIC_GRID = {"horizon": 1.0, "n_steps": 32, "kind": "geometric"}


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

    def test_schema_is_valid_and_covers_every_task(self):
        # a task added to tasks.TASKS without a sub-schema fails here
        jsonschema.Draft202012Validator.check_schema(SCENARIO_SCHEMA)
        task_names = SCENARIO_SCHEMA["properties"]["task"]["properties"]["name"]["enum"]
        assert task_names == list(tasks.TASKS)

    def test_times_at_the_grid_ends_accepted(self):
        # within node_at_or_before's relative 1e-12 of 0 and of the horizon
        resolve_scenario(base_scenario({"name": "forward", "times": [-1e-13, 1.0 + 1e-13]}))
        resolve_scenario(base_scenario({"name": "guided", "target": [0.5, -0.2],
                                        "probe_time": 1.0}))

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

    @pytest.mark.parametrize(
        "task, nonlinearity",
        [
            ({"name": "forward"}, "sine"),
            ({"name": "guided", "target": [0.5, -0.2]}, "sine"),
            (
                {"name": "guided", "target": [0.5, -0.2], "conditioning": "noisy_obs",
                 "obs_var": 0.1},
                "zero",
            ),
            ({"name": "conditioned", "endpoint": {"kind": "dirac", "target": [0.5, -0.2]}},
             "zero"),
            (
                {"name": "conditioned",
                 "endpoint": {"kind": "tilted", "mean": [0.5, -0.2], "var": [0.1, 0.1]}},
                "bounded_rational",
            ),
        ],
        ids=["forward-sine", "guided-sine", "guided-noisy", "conditioned-dirac",
             "conditioned-tilted-br"],
    )
    def test_assert_without_closed_form_check_exits_zero(self, tmp_path, capsys, task,
                                                         nonlinearity):
        # no closed-form law, so no moment check runs and assertion mode has
        # nothing to fail
        scn = base_scenario(task, grid=GEOMETRIC_GRID)
        scn["dynamics"]["nonlinearity"] = {"kind": nonlinearity, "alpha": 0.5}
        f = tmp_path / "scn.json"
        f.write_text(json.dumps(scn))
        assert run_cli(["run", str(f), "--out", str(tmp_path / "r"), "--assert"]) == 0
        assert "assertion" not in capsys.readouterr().err
        diag = json.loads((tmp_path / "r" / "diagnostics.json").read_text())
        assert diag["assertion_failures"] == []

    def test_readme_guided_example_asserts(self, tmp_path):
        # README's guided scenario (sine), shrunk to test size
        text = README.read_text()
        scn = json.loads(re.search(r"```json\n(.*?)```", text, re.S).group(1))
        assert scn["task"]["name"] == "guided"
        assert scn["dynamics"]["nonlinearity"]["kind"] == "sine"
        scn["sampling"]["n_paths"] = 500
        scn["grid"]["n_steps"] = 32
        f = tmp_path / "scn.json"
        f.write_text(json.dumps(scn))
        assert run_cli(["run", str(f), "--out", str(tmp_path / "r"), "--assert"]) == 0

    def test_zero_exact_guided_still_checks_its_gaussian_law(self, tmp_path, monkeypatch):
        scn = base_scenario({"name": "guided", "target": [0.5, -0.2]}, grid=GEOMETRIC_GRID)
        f = tmp_path / "scn.json"
        f.write_text(json.dumps(scn))
        assert run_cli(["run", str(f), "--out", str(tmp_path / "ok"), "--assert"]) == 0
        # a wrong closed-form mean must now fail that check
        closed = tasks.bridge_marginal_mean_var

        def shifted(*args):
            mean, var = closed(*args)
            return mean + 1.0, var

        monkeypatch.setattr(tasks, "bridge_marginal_mean_var", shifted)
        assert run_cli(["run", str(f), "--out", str(tmp_path / "bad"), "--assert"]) == 3
        diag = json.loads((tmp_path / "bad" / "diagnostics.json").read_text())
        assert diag["assertion_failures"] == ["guided mean off closed bridge value"]

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

    def test_unforeseen_error_is_one_line_exit_one(self, tmp_path, capsys, monkeypatch):
        # a runner failing in a way no handler foresees still gives one stderr line
        def broken(scenario, outdir):
            raise TypeError("unforeseen\nfailure")

        monkeypatch.setitem(tasks.TASKS, "forward", broken)
        f = tmp_path / "scn.json"
        f.write_text(json.dumps(base_scenario({"name": "forward"})))
        assert run_cli(["run", str(f), "--out", str(tmp_path / "r")]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: TypeError: unforeseen failure"]

    def test_non_finite_result_is_a_domain_error(self, tmp_path):
        # alpha = 1e308 overflows the states; the run must not report "ok".
        # bounded_rational over two chunks turns them to inf and nan in both:
        # numpy's floating-point warnings must stay silenced wherever the
        # kernels run, so stderr holds the domain error alone. At 512 steps x
        # 2 modes a path holds forward.THREADED_ROW_MIN normals, so the units
        # also run on forward.run_pass's worker threads, wherever it starts them
        for kind, n_paths, n_steps in (
            ("sine", 400, 32), ("bounded_rational", 4096, 32), ("bounded_rational", 4096, 512),
        ):
            scn = base_scenario(
                {"name": "forward"}, sampling={"n_paths": n_paths, "seed": 77},
                grid={"horizon": 1.0, "n_steps": n_steps, "kind": "uniform"},
            )
            scn["dynamics"]["nonlinearity"] = {"kind": kind, "alpha": 1e308}
            f = tmp_path / "scn.json"
            f.write_text(json.dumps(scn))
            env = dict(os.environ, PYTHONPATH=str(FilePath(spdebridge.__file__).parents[1]))
            proc = subprocess.run(
                [sys.executable, "-m", "spdebridge.cli", "run", str(f),
                 "--out", str(tmp_path / "r")],
                env=env, capture_output=True, text=True,
            )
            assert proc.returncode == 2, kind
            assert "Traceback" not in proc.stderr
            err = proc.stderr.strip().splitlines()
            assert len(err) == 1 and err[0].startswith("task forward: domain error: sample_"), err
            assert not (tmp_path / "r" / "summary.csv").exists()

    @pytest.mark.parametrize(
        "task, blocks, field",
        [
            ({"name": "forward", "timez": [0.5]}, None, "$.task.timez"),
            ({"name": "ou-bridge"}, None, "$.task.target"),
            ({"name": "conditioned", "endpoint": {"kind": "dirac"}}, None,
             "$.task.endpoint.target"),
            ({"name": "conditioned", "endpoint": {"kind": "uniform"}}, None,
             "$.task.endpoint.kind"),
            ({"name": "dynkin", "test_functions": [{"a": [0.5, 0.1]}]}, None,
             "$.task.test_functions[0].c"),
            ({"name": "ou-bridge", "target": [0.5, -0.2]},
             {"output": {"formats": ["csv", "json", "paths"]}}, "$.output.formats"),
            ({"name": "ck-check", "modes": [0, 2]}, None, "$.task.modes[1]"),
            ({"name": "ck-check", "modes": [-1]}, None, "$.task.modes[0]"),
            ({"name": "ck-check", "modes": [1.0]}, None, "$.task.modes[0]"),
            ({"name": "forward", "times": ["soon"]}, None, "$.task.times[0]"),
            ({"name": "forward", "times": "0.5"}, None, "$.task.times"),
            ({"name": "gamma-diag", "n_points": 2.5}, None, "$.task.n_points"),
            ({"name": "gamma-diag", "n_points": 0}, None, "$.task.n_points"),
            ({"name": "guided", "target": [0.5, -0.2], "weight_cutoffs": []}, None,
             "$.task.weight_cutoffs"),
            ({"name": "conditioned", "endpoint": {"kind": "dirac", "target": [True, 1]}},
             None, "$.task.endpoint.target[0]"),
            ({"name": "forward"}, {"grid": {"n_steps": 4.0}}, "$.grid.n_steps"),
            ({"name": "forward"}, {"sampling": {"n_paths": 4.0}}, "$.sampling.n_paths"),
            ({"name": "forward"}, {"sampling": {"seed": 1.0}}, "$.sampling.seed"),
            ({"name": "forward"}, {"sampling": {"seed": True}}, "$.sampling.seed"),
            ({"name": "forward"}, {"sampling": {"seed": -5}}, "$.sampling.seed"),
            ({"name": "ck-check", "mid": []}, None, "$.task.mid"),
            ({"name": "ck-check", "modes": []}, None, "$.task.modes"),
            ({"name": "forward", "times": []}, None, "$.task.times"),
            ({"name": "dynkin", "test_functions": []}, None, "$.task.test_functions"),
            ({"name": "forward", "times": [5.0]}, None, "$.task.times[0]"),
            ({"name": "forward", "times": [0.5, -3.0]}, None, "$.task.times[1]"),
            ({"name": "ou-bridge", "target": [0.5, -0.2], "times": [1.5]}, None,
             "$.task.times[0]"),
            ({"name": "guided", "target": [0.5, -0.2], "probe_time": 3.0}, None,
             "$.task.probe_time"),
            ({"name": "conditioned", "endpoint": {"kind": "dirac", "target": [0.5, -0.2]},
              "probe_time": -0.1}, None, "$.task.probe_time"),
            ({"name": "forward"},
             {"dynamics": {"nonlinearity": {"kind": "sine", "alpha": float("nan")}}},
             "$.dynamics.nonlinearity.alpha"),
            # json.dumps writes inf as Infinity; json.load reads that, and a
            # literal such as 1e400, as inf
            ({"name": "forward"},
             {"dynamics": {"nonlinearity": {"kind": "sine", "alpha": float("inf")}}},
             "$.dynamics.nonlinearity.alpha"),
            ({"name": "forward"}, {"grid": {"horizon": float("nan")}}, "$.grid.horizon"),
            ({"name": "forward"},
             {"model": {"eigenvalues": {"rule": "dirichlet"}, "domain_length": float("inf")}},
             "$.model.domain_length"),
            # an int literal is exact: one beyond float range is no finite number
            ({"name": "forward"},
             {"dynamics": {"nonlinearity": {"kind": "sine", "alpha": 10**400}}},
             "$.dynamics.nonlinearity.alpha"),
            ({"name": "ou-bridge", "target": [0.5, -0.2, 0.1]}, None, "$.task.target"),
            ({"name": "guided", "target": [0.5]}, None, "$.task.target"),
            ({"name": "martingale-diag", "target": [0.5, -0.2, 0.1]}, None, "$.task.target"),
            ({"name": "guided", "target": [0.5, -0.2], "conditioning": "noisy_obs",
              "obs_var": [0.1]}, None, "$.task.obs_var"),
            ({"name": "conditioned", "endpoint": {"kind": "dirac", "target": [0.5]}}, None,
             "$.task.endpoint.target"),
            ({"name": "conditioned",
              "endpoint": {"kind": "tilted", "mean": [0.5, -0.2, 0.1], "var": [0.1, 0.1]}},
             None, "$.task.endpoint.mean"),
            ({"name": "conditioned",
              "endpoint": {"kind": "tilted", "mean": [0.5, -0.2], "var": [0.1]}},
             None, "$.task.endpoint.var"),
            ({"name": "dynkin", "test_functions": [{"a": [0.5, 0.1], "c": 0.0},
                                                   {"a": [0.5], "c": 0.0}]},
             None, "$.task.test_functions[1].a"),
        ],
        ids=[
            "unknown-key", "bridge-target", "dirac-target", "endpoint-kind", "dynkin-c",
            "paths-format", "ck-mode-too-large", "ck-mode-negative", "ck-mode-not-integer",
            "string-time", "times-not-array", "n-points-not-integer", "n-points-zero",
            "no-weight-cutoffs", "boolean-target",
            "float-n-steps", "float-n-paths", "float-seed", "boolean-seed", "negative-seed",
            "ck-mid-empty", "ck-modes-empty", "times-empty", "no-test-functions",
            "time-past-horizon", "time-negative", "bridge-time-past-horizon",
            "probe-past-horizon", "probe-negative",
            "alpha-nan", "alpha-infinity", "horizon-nan", "domain-length-infinity",
            "alpha-beyond-float",
            "bridge-target-length", "guided-target-length", "martingale-target-length",
            "obs-var-length", "dirac-target-length", "tilted-mean-length", "tilted-var-length",
            "test-function-length",
        ],
    )
    def test_task_block_checked_at_resolve_time(self, tmp_path, capsys, task, blocks, field):
        scn = base_scenario(task)
        for block, values in (blocks or {}).items():
            scn[block].update(values)
        f = tmp_path / "scn.json"
        f.write_text(json.dumps(scn))
        assert run_cli(["run", str(f), "--out", str(tmp_path / "r")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {field}: ")
        assert not (tmp_path / "r").exists()

    def test_ck_check_near_horizon_asserts(self, tmp_path):
        # the quadrature resolves the narrow density next to t as well as next to s
        scn = base_scenario({"name": "ck-check", "mid": [0.999]})
        f = tmp_path / "scn.json"
        f.write_text(json.dumps(scn))
        assert run_cli(["run", str(f), "--out", str(tmp_path / "r"), "--assert"]) == 0

    def test_successful_assert_run(self, tmp_path):
        scn = base_scenario({"name": "forward", "times": [1.0]})
        f = tmp_path / "scn.json"
        f.write_text(json.dumps(scn))
        assert run_cli(["run", str(f), "--out", str(tmp_path / "r"), "--assert"]) == 0


def test_package_import_loads_no_third_party_package_but_numpy(tmp_path):
    # a scenario is validated by the package itself, and the ck-check task
    # integrates with numpy's Gauss-Hermite rule, so neither loads scipy. A
    # module with no file is the runtime state of a compiled extension, not a
    # package. The ck-check scenario is the golden matrix's at J = 4
    scenario = json.dumps(base_scenario({"name": "forward"}))
    ck_check = json.dumps({
        "model": {"n_modes": 4},
        "dynamics": {"nonlinearity": {"kind": "zero"}},
        "task": {"name": "ck-check", "x": [0.0, 0.4], "y": [0.2]},
        "grid": {"horizon": 1.0, "n_steps": 64, "kind": "geometric"},
        "sampling": {"n_paths": 2, "seed": 4242},
        "output": {"formats": ["csv", "json"]},
    })
    code = (
        "import json, sys; before = set(sys.modules); "
        "import spdebridge, spdebridge.tasks, spdebridge.scenario, spdebridge.io; "
        f"spdebridge.scenario.resolve_scenario(json.loads({scenario!r})); "
        "spdebridge.tasks.run_scenario(spdebridge.scenario.resolve_scenario("
        f"json.loads({ck_check!r})), {str(tmp_path / 'ck')!r}, assert_mode=True); "
        "loaded = {m.split('.')[0] for m in set(sys.modules) - before "
        "if getattr(sys.modules[m], '__file__', None)}; "
        "print(sorted(loaded - set(sys.stdlib_module_names)))"
    )
    env = dict(os.environ, PYTHONPATH=str(FilePath(spdebridge.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "['numpy', 'spdebridge']"


def test_package_import_starts_no_thread():
    # forward.run_pass starts its threads, and loads concurrent.futures, only
    # in a threaded pass: not on import, nor in a pass of rows below the floor
    # (4 steps x 2 modes), even at three cores
    code = (
        "import sys, threading, spdebridge, spdebridge.tasks, spdebridge.scenario, "
        "spdebridge.io; import numpy as np; from spdebridge import forward; "
        "forward.available_cores = lambda: 3; "
        "forward.run_pass(spdebridge.dirichlet_model(2), np.zeros(2), "
        "spdebridge.uniform_grid(1.0, 4), 31, 4 * forward.UNIT, lambda *unit: None); "
        "print('concurrent.futures' in sys.modules, threading.active_count())"
    )
    env = dict(os.environ, PYTHONPATH=str(FilePath(spdebridge.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.split() == ["False", "1"]


# Two chunks of paths each, three units of forward.run_pass.
THREAD_MATRIX = {
    "forward-paths": {"name": "forward", "times": [0.5, 1.0]},
    "guided": {"name": "guided", "target": [0.5, -0.2], "weight_cutoffs": [0.8, 0.95]},
    "conditioned": {"name": "conditioned", "endpoint": {"kind": "dirac", "target": [0.3, -0.1]}},
    "dynkin": {
        "name": "dynkin", "times": [0.5, 1.0],
        "test_functions": [{"a": [0.8, -0.4], "c": 0.3}, {"a": [-0.5, 0.2], "c": 0.0,
                                                           "phase": "cos"}],
    },
    "ou-bridge": {"name": "ou-bridge", "target": [0.5, -0.2]},
    "martingale-diag": {"name": "martingale-diag", "target": [0.5, -0.2]},
}
THREAD_ARTIFACTS = ("summary.csv", "diagnostics.json", "manifest.json", "paths.spdb")


class TestThreads:
    def _scenario_file(self, tmp_path, task):
        scn = base_scenario(
            task, grid={"horizon": 1.0, "n_steps": 16, "kind": "geometric"},
            sampling={"n_paths": CHUNK + 40, "seed": 77},
        )
        scn["dynamics"]["nonlinearity"] = {"kind": "sine", "alpha": 0.5}
        if task["name"] == "forward":
            scn["output"] = {"formats": ["csv", "json", "paths"]}
        f = tmp_path / "scn.json"
        f.write_text(json.dumps(scn))
        return f

    @pytest.mark.parametrize("name", list(THREAD_MATRIX))
    def test_artifacts_identical_at_every_thread_count(self, tmp_path, monkeypatch, name):
        # one core, the host's cores and three cores, with the row floor
        # lowered so that rows of 16 steps x 2 modes are past it
        monkeypatch.setattr(spdebridge.forward, "THREADED_ROW_MIN", 1)
        f = self._scenario_file(tmp_path, THREAD_MATRIX[name])
        runs = {"1": lambda: 1, "default": spdebridge.forward.available_cores, "3": lambda: 3}
        for run, cores in runs.items():
            monkeypatch.setattr(spdebridge.forward, "available_cores", cores)
            assert run_cli(["run", str(f), "--out", str(tmp_path / run)]) == 0
        expected = [a for a in THREAD_ARTIFACTS if (tmp_path / "1" / a).is_file()]
        assert expected[:3] == list(THREAD_ARTIFACTS[:3])
        for run in ("default", "3"):
            assert sorted(p.name for p in (tmp_path / run).iterdir()) == sorted(expected)
            for a in expected:
                assert (tmp_path / run / a).read_bytes() == (tmp_path / "1" / a).read_bytes(), a


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

    def _edit_summary(self, run, row, column, value):
        rows = list(csv.DictReader((run / "summary.csv").open()))
        rows[row][column] = value
        with (run / "summary.csv").open("w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
        return rows[row]

    @pytest.mark.parametrize(
        "spec, field",
        [
            ([], "$"),
            ({"default": {"abs": "x"}}, "$.default.abs"),
            ({"quantities": {"sample_mean": []}}, "$.quantities.sample_mean"),
            ({"default": {"abs": -1}}, "$.default.abs"),
            ({"defualt": {"abs": 0}}, "$.defualt"),
            ({"columns": {"mean": {"abs": 0}}}, "$.columns.mean"),
            ({"quantities": {"sample_var": {"value": {"rel": float("nan")}}}},
             "$.quantities.sample_var.value.rel"),
        ],
        ids=["list", "string-abs", "list-quantity", "negative-abs", "misspelled-key",
             "unknown-column", "nan-rel"],
    )
    def test_tolerance_file_checked(self, tmp_path, capsys, spec, field):
        # a run compared with itself: only the tolerance file can be at fault
        a = self._write_and_run(tmp_path, "a")
        tol = tmp_path / "tol.json"
        tol.write_text(json.dumps(spec))
        assert run_cli(["compare", str(a), str(a), str(tol)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith(f"error: {field}: ")

    def test_tolerance_precedence(self, tmp_path, capsys):
        # a quantity's tolerance for a column, else the column's, else the default
        a = self._write_and_run(tmp_path, "a")
        b = self._write_and_run(tmp_path, "b", seed=78)
        tol = tmp_path / "tol.json"
        loose = {"abs": 1e9}
        tol.write_text(json.dumps({
            "default": {"abs": 0, "rel": 0},
            "columns": {"stderr": loose},
            "quantities": {"sample_mean": {"value": loose}, "sample_var": {"stderr": {}}},
        }))
        assert run_cli(["compare", str(a), str(b), str(tol)]) == 3
        offending = json.loads(capsys.readouterr().out)["offending"]
        assert {(c["quantity"], c["column"]) for c in offending} == {
            ("sample_var", "value"), ("sample_var", "stderr")
        }

    def _compare_zero_tol(self, tmp_path, a, b):
        tol = tmp_path / "tol.json"
        tol.write_text(json.dumps({"default": {"abs": 0.0, "rel": 0.0}}))
        return run_cli(["compare", str(a), str(b), str(tol)])

    def test_differing_row_sets_fail_listing_keys(self, tmp_path, capsys):
        a = self._write_and_run(tmp_path, "a")
        b = self._write_and_run(tmp_path, "b")
        row = self._edit_summary(b, 0, "time", "0.75")
        assert self._compare_zero_tol(tmp_path, a, b) == 3
        report = json.loads(capsys.readouterr().out)
        assert report["offending"] == []
        assert report["only_in_a"] == [
            {"quantity": row["quantity"], "mode": row["mode"], "time": "0.5"}
        ]
        assert report["only_in_b"] == [
            {"quantity": row["quantity"], "mode": row["mode"], "time": "0.75"}
        ]
        assert not report["pass"]

    def test_empty_against_numeric_cell_fails(self, tmp_path, capsys):
        a = self._write_and_run(tmp_path, "a")
        b = self._write_and_run(tmp_path, "b")
        row = self._edit_summary(b, 0, "stderr", "")
        assert self._compare_zero_tol(tmp_path, a, b) == 3
        (cell,) = json.loads(capsys.readouterr().out)["offending"]
        assert (cell["quantity"], cell["mode"], cell["time"]) == (
            row["quantity"], row["mode"], row["time"]
        )
        assert cell["column"] == "stderr" and cell["b"] is None

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


@pytest.fixture(params=["_pwrite"])
def write_once(request):
    """The dump's one way to write at an offset, os.pwrite, which the tests wrap.

    Its one param keeps the write path's name in the ids of the tests that use it.
    """
    return os.pwrite


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

    @pytest.mark.parametrize("n_paths", [2, CHUNK + 1, 2 * CHUNK + 3])
    def test_streamed_dump_equals_dump_of_stored_ensemble(self, tmp_path, n_paths):
        # the forward task writes its dump chunk by chunk at the rows' offsets
        scn = base_scenario(
            {"name": "forward", "times": [0.5, 1.0]},
            model={"n_modes": 4},
            dynamics={"nonlinearity": {"kind": "sine", "alpha": 0.5}, "x0": {"kind": "zero"}},
            grid=dict(GEOMETRIC_GRID, n_steps=8),
            sampling={"n_paths": n_paths, "seed": 77},
            output={"formats": ["csv", "json", "paths"]},
        )
        scn = resolve_scenario(scn)
        run_scenario(scn, tmp_path / "r")
        model = tasks.build_model(scn)
        ens = simulate_ensemble(
            model, tasks.build_nonlinearity(scn), tasks.build_x0(scn, model),
            tasks.build_grid(scn), 77, n_paths, oversample=scn["dynamics"]["oversample"],
        )
        write_path_dump(tmp_path / "stored.spdb", ens)
        assert (tmp_path / "r" / "paths.spdb").read_bytes() == (
            tmp_path / "stored.spdb"
        ).read_bytes()

    def test_read_holds_one_copy_of_the_data(self, tmp_path, two_mode):
        ens = simulate_ensemble(
            two_mode, sine_nemytskii(0.5), np.zeros(2), uniform_grid(0.5, 64), 5, n_paths=500
        )
        data = ens.grid.nodes.nbytes + ens.states.nbytes + ens.increments.nbytes
        write_path_dump(tmp_path / "paths.spdb", ens)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            loaded = read_path_dump(tmp_path / "paths.spdb")
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(loaded.states, ens.states)
        assert peak < 1.25 * data, f"peak {peak / data:.2f} x the dump's data"

    def test_rows_outside_the_dump_rejected(self, tmp_path):
        from spdebridge import DomainError
        from spdebridge.io import path_dump

        grid = uniform_grid(0.5, 4)
        ens = simulate_ensemble(
            spdebridge.dirichlet_model(2), sine_nemytskii(0.5), np.zeros(2), grid, 5,
            n_paths=2,
        )
        with path_dump(tmp_path / "paths.spdb", grid, 3, 2) as dump:
            dump.states(0, 0, ens.states)
            dump.increments(0, ens.increments)
            for write in (
                lambda: dump.states(2, 0, ens.states),  # rows 2..3 of 3
                lambda: dump.increments(2, ens.increments),
                lambda: dump.states(0, 1, ens.states),  # nodes 1..5 of 5
                lambda: dump.states(0, 0, ens.states[..., :1]),  # one mode of 2
                lambda: dump.increments(0, ens.increments[:, :-1]),  # wrong grid
            ):
                with pytest.raises(DomainError):
                    write()

    def _dump_scenario(self, n_modes, n_paths, nonlin="sine"):
        scn = base_scenario(
            {"name": "forward", "times": [0.5, 1.0]},
            model={"n_modes": n_modes},
            dynamics={"nonlinearity": {"kind": nonlin, "alpha": 0.5}, "x0": {"kind": "zero"}},
            grid={"horizon": 1.0, "n_steps": 16, "kind": "geometric"},
            sampling={"n_paths": n_paths, "seed": 77},
            output={"formats": ["csv", "json", "paths"]},
        )
        return resolve_scenario(scn)

    @pytest.mark.parametrize("n_paths", [CHUNK + 40, 2 * CHUNK + 3])
    @pytest.mark.parametrize("n_modes", [1, 4, 9])
    def test_dump_identical_at_every_thread_count_across_node_blocks(
        self, tmp_path, monkeypatch, write_once, n_modes, n_paths
    ):
        # blocks of 5 of the 17 nodes (5, 5, 5, 2) for 1024-path units; the
        # row floor lowered so that rows of 16 steps are past it
        fds = set()

        def pwrite(fd, data, at):
            fds.add(fd)
            return write_once(fd, data, at)

        monkeypatch.setattr(os, "pwrite", pwrite)
        monkeypatch.setattr(spdebridge.forward, "DUMP_BLOCK_BYTES", 8 * 1024 * n_modes * 5)
        monkeypatch.setattr(spdebridge.forward, "THREADED_ROW_MIN", 1)
        scn = self._dump_scenario(n_modes, n_paths)
        model = tasks.build_model(scn)
        grid = tasks.build_grid(scn)
        # each unit stored whole: at J = 9 a unit's rows round as the unit's,
        # not as those of one batch of every path
        units = [
            simulate_ensemble(
                model, tasks.build_nonlinearity(scn), tasks.build_x0(scn, model), grid, 77,
                hi - lo, oversample=scn["dynamics"]["oversample"], path_offset=lo,
            )
            for lo, hi in spdebridge.forward.units(n_paths)
        ]
        ens = PathEnsemble(
            grid, np.concatenate([u.states for u in units]),
            np.concatenate([u.increments for u in units]),
        )
        # the SPDB layout written out by hand: what every writer must match
        header = b"SPDB" + np.array([1, n_modes, 17, n_paths], "<u4").tobytes()
        want = header + b"".join(
            a.astype("<f8").tobytes() for a in (grid.nodes, ens.states, ens.increments)
        )
        write_path_dump(tmp_path / "stored.spdb", ens)
        assert (tmp_path / "stored.spdb").read_bytes() == want
        for cores in (1, 2, 3):
            monkeypatch.setattr(spdebridge.forward, "available_cores", lambda: cores)
            fds.clear()
            run_scenario(scn, tmp_path / str(cores))
            assert (tmp_path / str(cores) / "paths.spdb").read_bytes() == want, cores
            assert len(fds) == 1, (cores, fds)  # every thread writes through one descriptor

    def test_dump_opens_its_file_once(self, tmp_path, monkeypatch):
        # three faked cores past the row floor: the dump is written from
        # several threads, and io opens paths.spdb once for all of them
        monkeypatch.setattr(spdebridge.forward, "THREADED_ROW_MIN", 1)
        monkeypatch.setattr(spdebridge.forward, "available_cores", lambda: 3)
        opened, writers = [], set()
        real_pwrite = os.pwrite

        def counting_open(*args, **kwargs):
            opened.append(args[0])
            return open(*args, **kwargs)

        def pwrite(fd, data, at):
            writers.add(threading.get_ident())
            return real_pwrite(fd, data, at)

        monkeypatch.setattr(spdebridge.io, "open", counting_open, raising=False)
        monkeypatch.setattr(os, "pwrite", pwrite)
        run_scenario(self._dump_scenario(4, 2 * CHUNK + 3), tmp_path / "r")
        assert len(writers) > 1
        assert opened == [tmp_path / "r" / "paths.spdb"]

    def test_dump_without_pwrite_fails_before_any_path_is_drawn(
        self, tmp_path, monkeypatch, capsys
    ):
        f = tmp_path / "scn.json"
        scn = base_scenario({"name": "forward"}, output={"formats": ["csv", "json", "paths"]})
        f.write_text(json.dumps(scn))
        passes = []
        monkeypatch.setattr(spdebridge.forward, "run_pass", lambda *a, **k: passes.append(a))
        monkeypatch.delattr(os, "pwrite")
        assert run_cli(["run", str(f), "--out", str(tmp_path / "r")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [
            f"error: OSError: [Errno {errno.ENOSYS}] the paths dump needs os.pwrite, "
            "which this platform lacks"
        ]
        assert not passes and not (tmp_path / "r" / "paths.spdb").exists()

    def test_short_writes_complete_the_dump(self, tmp_path, monkeypatch, write_once):
        # a file write may write fewer bytes than asked; here every one
        # writes at most 1000, less than a path's 17 nodes x 9 modes of states
        scn = self._dump_scenario(9, CHUNK + 40)
        run_scenario(scn, tmp_path / "whole")
        calls = []

        def short_write(fd, data, at):
            calls.append(at)
            return write_once(fd, memoryview(data).cast("B")[:1000], at)

        monkeypatch.setattr(os, "pwrite", short_write)
        run_scenario(scn, tmp_path / "short")
        assert len(calls) > (tmp_path / "short" / "paths.spdb").stat().st_size // 1000
        for name in ("paths.spdb", "summary.csv"):
            assert (tmp_path / "short" / name).read_bytes() == (
                tmp_path / "whole" / name
            ).read_bytes(), name

    def test_write_error_exits_without_traceback(self, tmp_path, monkeypatch, capsys):
        # past the header and grid, every write writes nothing, on every
        # thread; the first to raise ends the run on the CLI's error path
        f = tmp_path / "scn.json"
        scn = base_scenario(
            {"name": "forward"}, sampling={"n_paths": CHUNK + 40, "seed": 77},
            output={"formats": ["csv", "json", "paths"]},
        )
        f.write_text(json.dumps(scn))
        monkeypatch.setattr(spdebridge.forward, "THREADED_ROW_MIN", 1)
        monkeypatch.setattr(os, "pwrite", lambda fd, data, at: 0)
        assert run_cli(["run", str(f), "--out", str(tmp_path / "r")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: OSError: [Errno {errno.EIO}] wrote no byte")
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    def test_forward_task_writes_dump(self, tmp_path):
        scn = base_scenario({"name": "forward", "times": [1.0]})
        scn["output"]["formats"] = ["csv", "json", "paths"]
        scn["sampling"]["n_paths"] = 5
        run_scenario(resolve_scenario(scn), tmp_path / "r")
        loaded = read_path_dump(tmp_path / "r" / "paths.spdb")
        assert loaded.states.shape == (5, 33, 2)


class TestFailedRun:
    """A run that ends in exit 1 or 2 names its cause and leaves nothing it made behind."""

    def _write(self, tmp_path, scn):
        f = tmp_path / "scn.json"
        f.write_text(json.dumps(scn))
        return f

    @pytest.mark.parametrize(
        "task",
        [
            {"name": "guided", "target": [1e308, 0.0]},
            {"name": "conditioned",
             "endpoint": {"kind": "tilted", "mean": [1e308, 0.0], "var": [0.1, 0.05]}},
        ],
        ids=["guided", "conditioned-tilted"],
    )
    def test_weighted_overflow_names_its_quantity(self, tmp_path, capsys, task):
        # the log weights go non-finite with the states: the line names the
        # first row that left the finite range, not the weights' estimator
        f = self._write(tmp_path, base_scenario(task, grid=GEOMETRIC_GRID))
        assert run_cli(["run", str(f), "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert re.fullmatch(
            rf"task {task['name']}: domain error: \w+_mean value is (inf|nan) "
            r"at mode \d+, time [0-9.e-]+",
            err[0],
        ), err

    @pytest.mark.parametrize("code", [1, 2])
    def test_failure_removes_the_directories_the_run_made(
        self, tmp_path, monkeypatch, capsys, code
    ):
        scn = base_scenario({"name": "forward"}, output={"formats": ["csv", "json", "paths"]})
        if code == 1:
            def broken(scenario, outdir):
                (outdir / "partial.txt").write_text("written before the failure")
                raise TypeError("unforeseen")

            monkeypatch.setitem(tasks.TASKS, "forward", broken)
        else:
            scn["dynamics"]["nonlinearity"] = {"kind": "sine", "alpha": 1e308}
        f = self._write(tmp_path, scn)
        assert run_cli(["run", str(f), "--out", str(tmp_path / "new" / "r")]) == code
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scn.json"]

    def _existing(self, tmp_path):
        rundir = tmp_path / "r"
        rundir.mkdir()
        (rundir / "notes.txt").write_text("not the run's")
        return rundir

    def test_existing_directory_loses_only_the_dump_the_run_wrote(self, tmp_path, capsys):
        # the dump is complete; the overflow is found after it
        scn = base_scenario({"name": "forward"}, output={"formats": ["csv", "json", "paths"]})
        scn["dynamics"]["nonlinearity"] = {"kind": "sine", "alpha": 1e308}
        rundir = self._existing(tmp_path)
        assert run_cli(["run", str(self._write(tmp_path, scn)), "--out", str(rundir)]) == 2
        assert sorted(p.name for p in rundir.iterdir()) == ["notes.txt"]
        assert (rundir / "notes.txt").read_text() == "not the run's"

    def test_dump_cut_short_is_removed(self, tmp_path, monkeypatch, capsys):
        scn = base_scenario(
            {"name": "forward"}, sampling={"n_paths": CHUNK + 40, "seed": 77},
            output={"formats": ["csv", "json", "paths"]},
        )
        rundir = self._existing(tmp_path)
        monkeypatch.setattr(os, "pwrite", lambda fd, data, at: 0)
        assert run_cli(["run", str(self._write(tmp_path, scn)), "--out", str(rundir)]) == 1
        assert sorted(p.name for p in rundir.iterdir()) == ["notes.txt"]

    def test_failure_before_the_dump_keeps_a_foreign_dump(self, tmp_path, capsys):
        # n_paths = 1 fails before the dump is opened: the old paths.spdb
        # is not the run's, and stays as it was
        scn = base_scenario({"name": "forward"}, output={"formats": ["csv", "json", "paths"]})
        scn["sampling"]["n_paths"] = 1
        rundir = self._existing(tmp_path)
        (rundir / "paths.spdb").write_bytes(b"an earlier run's dump")
        assert run_cli(["run", str(self._write(tmp_path, scn)), "--out", str(rundir)]) == 2
        assert sorted(p.name for p in rundir.iterdir()) == ["notes.txt", "paths.spdb"]
        assert (rundir / "paths.spdb").read_bytes() == b"an earlier run's dump"

    def test_assertion_failure_keeps_its_artifacts(self, tmp_path, capsys):
        scn = base_scenario({"name": "ck-check", "mid": [0.5], "tolerance": 0.0})
        f = self._write(tmp_path, scn)
        assert run_cli(["run", str(f), "--out", str(tmp_path / "r"), "--assert"]) == 3
        assert sorted(p.name for p in (tmp_path / "r").iterdir()) == [
            "diagnostics.json", "manifest.json", "summary.csv",
        ]
