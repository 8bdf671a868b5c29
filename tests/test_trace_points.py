"""The benchmark's layer tracer must find every program name it wraps.

``perfbench/tracer.py`` patches module attributes of spdebridge by name;
a rename under ``src/`` would make every traced benchmark run fail, so the
names are checked here, in the tier-1 suite. Its kernel counts must also
stay exact: an entry point that called another traced entry point would
count each path step twice, and the benchmark itself would not notice.
"""

from pathlib import Path

import pytest

import spdebridge
import spdebridge.io
import spdebridge.tasks
from spdebridge.scenario import resolve_scenario

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    return tracer


def test_every_patch_point_resolves_to_a_callable(tracer):
    points = tracer._patch_points(spdebridge)
    assert points
    for mod, attr, *_ in points:
        assert callable(getattr(mod, attr, None)), f"{mod.__name__}.{attr}"


# reach: the last node a pass reads, where it stops. The guided and
# conditioned passes read their last weight at node 6 of the 8-step
# geometric grid (cutoff 0.95) and pin the horizon without stepping to it.
@pytest.mark.parametrize(
    "task, grid_kind, formats, reach",
    [
        ({"name": "forward"}, "uniform", ["csv", "json", "paths"], 8),
        ({"name": "dynkin", "test_functions": [{"a": [0.5, 0.1], "c": 0.0}]}, "uniform",
         ["csv", "json"], 8),
        ({"name": "guided", "target": [0.5, -0.2]}, "geometric", ["csv", "json"], 6),
        ({"name": "conditioned",
          "endpoint": {"kind": "tilted", "mean": [0.5, -0.2], "var": [0.02, 0.005]}},
         "geometric", ["csv", "json"], 6),
    ],
    ids=["forward-paths", "dynkin", "guided", "conditioned"],
)
def test_traced_kernel_steps_are_counted_once(tmp_path, tracer, task, grid_kind, formats, reach):
    # 2100 paths: two chunks of the streamed drivers, one of them a tail
    n_paths, n_steps = 2100, 8
    scn = resolve_scenario({
        "model": {"n_modes": 2},
        "task": task,
        "grid": {"horizon": 1.0, "n_steps": n_steps, "kind": grid_kind},
        "sampling": {"n_paths": n_paths, "seed": 5},
        "output": {"formats": formats},
    })
    tr = tracer.Tracer()
    tr.install(spdebridge)
    try:
        spdebridge.tasks.run_scenario(scn, tmp_path / "r")
    finally:
        tr.uninstall()
    counts = tr.computed_counts()
    assert counts["driver.passes"] >= 1
    assert counts["kernels.path_steps"] == counts["driver.passes"] * n_paths * reach
    assert counts["kernels.path_steps"] * 2 == counts["rng.normals_drawn"]
    for name, _, _, _, parent in tr.spans:
        if name != "kernels.step":
            continue
        while parent >= 0:
            assert tr.spans[parent][0] != "kernels.step"
            parent = tr.spans[parent][4]
