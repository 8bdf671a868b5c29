"""Tests of the benchmark itself: python3 -m pytest perfbench/test_perfbench.py

They run the benchmark at smoke size (a few paths and steps per workload),
so they take about a minute.
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hostspeed
import run
import worker
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]


def bench(*args, cwd=ROOT):
    return subprocess.run(RUN + list(args), cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced_twice():
    args = ("--workload", "all", "--smoke", "--seconds", "0", "--trace", "1")
    return result_of(bench(*args)), result_of(bench(*args))


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        m[:3] for m in run.PER_LAYER
    ]


def test_smoke_runs_every_workload_untraced():
    result = result_of(bench("--workload", "all", "--smoke", "--seconds", "0", "--trace", "0"))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(WORKLOADS) * run.MIN_REPS
    assert set(result["metrics"]) == {
        f"{w}.{name}" for w in WORKLOADS for name, _, _ in run.END_TO_END
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_smoke_runs_every_workload_traced(traced_twice):
    result = traced_twice[0]
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {
        f"{w}.{name}" for w in WORKLOADS for name, _, _, _ in run.PER_LAYER
    }
    metrics = result["metrics"]
    assert metrics["dynkin-sine.rng.redraw_ratio"]["value"] == 2.0
    assert metrics["guided-sine.driver.chunks"]["value"] == 2.0  # 2050 paths in chunks of 2048
    assert metrics["bridge-zero.kernels.path_steps"]["value"] == 0
    assert metrics["forward-dump-zero.io.write_path_dump.bytes"]["value"] == (
        4 + 16 + 8 * (17 + 64 * 17 * 4 + 64 * 16 * 4)
    )


def test_computed_counts_repeat_exactly(traced_twice):
    first, second = (r["metrics"] for r in traced_twice)
    computed = [name for name, _, _, source in run.PER_LAYER if source[0] == "count"]
    for w in WORKLOADS:
        for name in computed:
            key = f"{w}.{name}"
            assert first[key] == second[key], key


def _forward_dump_run(tmp_path):
    sb = worker.import_spdebridge()
    scenario = sb.scenario.resolve_scenario(WORKLOADS["forward-dump-zero"].scenario(4242, smoke=True))
    sb.tasks.run_scenario(scenario, tmp_path, assert_mode=True)
    return sb, scenario


def test_corrupted_dump_is_a_failure(tmp_path):
    sb, scenario = _forward_dump_run(tmp_path)
    assert worker.check_dump(sb, scenario, tmp_path) == []
    dump = tmp_path / "paths.spdb"
    data = bytearray(dump.read_bytes())
    n_nodes, n_modes = 17, 4
    i = scenario["sampling"]["seed"] % scenario["sampling"]["n_paths"]
    offset = 20 + 8 * n_nodes + 8 * (i * n_nodes + 5) * n_modes
    data[offset + 7] ^= 0x01
    dump.write_bytes(bytes(data))
    assert worker.check_dump(sb, scenario, tmp_path)


def test_corrupted_summary_is_counted_as_failed(tmp_path):
    _forward_dump_run(tmp_path)
    good = {"failures": [], "digests": worker.digests(tmp_path), "backend": "numpy"}
    summary = tmp_path / "summary.csv"
    summary.write_text(summary.read_text().replace("sample_mean", "sample_meen", 1))
    bad = {"failures": [], "digests": worker.digests(tmp_path), "backend": "numpy"}
    assert run.count_failed([good, dict(good), bad], "numpy") == 1
    assert bad["failures"]


def test_guided_replay_detects_a_wrong_row(tmp_path):
    sb = worker.import_spdebridge()
    scenario = sb.scenario.resolve_scenario(WORKLOADS["guided-sine"].scenario(4242, smoke=True))
    with worker.GuidedCapture(sb.tasks) as capture:
        sb.tasks.run_scenario(scenario, tmp_path)
    failures, max_diff = worker.check_guided_replay(sb, scenario, capture.call)
    assert failures == [] and max_diff <= worker.REPLAY_TOL
    snaps = capture.call[2][0]
    snaps[2048, 0, 1] += 1e-9
    failures, _ = worker.check_guided_replay(sb, scenario, capture.call)
    assert len(failures) == 1 and "path 2048" in failures[0]


def test_other_backend_is_refused_without_a_result():
    proc = bench("--workload", "bridge-zero", "--smoke", "--backend", "no-such-backend")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert "backend" in proc.stderr


def test_checkout_without_the_program_is_refused(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "guided-sine", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_sampler_probes_during_the_block_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.Sampler() as sampler:
        end = time.perf_counter() + 5 * hostspeed.INTERVAL_S
        while time.perf_counter() < end:
            sum(range(1000))
    assert len(sampler.samples) >= 3 and sampler.spent > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    in_block = len(sampler.samples)
    assert sampler.top_up() == max(0, hostspeed.MIN_SAMPLES - in_block)
    assert len(sampler.samples) >= hostspeed.MIN_SAMPLES


def test_scale_puts_a_slow_host_on_the_nominal_one():
    slow = [2 * hostspeed.NOMINAL_PROBE_S] * 3
    assert hostspeed.scale(3.0, slow) == pytest.approx(1.5)
