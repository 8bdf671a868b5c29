"""Each thread of forward.run_pass draws its units into one normals buffer.

These tests pin what that buffer may and may not change: each streamed
caller gives the same bits as with fresh normals per unit (so none keeps
its unit's normals past the call), and peak memory holds one unit of
normals per thread, not more. The forward task's paths dump holds no more:
its states go to the file a node block at a time, from one block per unit
being stepped, so no unit holds all of its states, and its normals go
straight from the draw. A pass starts its threads itself, so a test sets
the thread count by faking ``forward.available_cores``.
"""

import hashlib
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from spdebridge import (
    ExpTestFunction,
    GuidedSpec,
    dirichlet_model,
    geometric_grid,
    sine_nemytskii,
)
from spdebridge import forward, rng
from spdebridge.forward import CHUNK, UNIT, forward_snapshots, nearest_node
from spdebridge.guided import guided_snapshots, weight_node
from spdebridge.htransform import dynkin_residual_mc
from spdebridge.ou import ou_bridge_snapshots
from spdebridge.scenario import resolve_scenario
from spdebridge.tasks import run_scenario

N_PATHS = 2 * CHUNK + 3  # two full chunks and a short tail
MODEL = dirichlet_model(4)
X0 = np.zeros(4)
TARGET = np.array([0.5, -0.3, 0.1, 0.0])
SEED = 97


def _use_fresh_normals(monkeypatch):
    """Make run_pass's draw ignore its buffer: new path-major normals per unit.

    A sink still gets the unit's rows, all in one path-major block.
    """
    draw = rng.path_increments

    def fresh(master_seed, path_indices, n_steps, n_modes, *, out, sink=None):
        z = draw(master_seed, path_indices, n_steps, n_modes)
        if sink is not None:
            sink(0, z)
        return z

    monkeypatch.setattr(rng, "path_increments", fresh)


# each runner returns a tuple of arrays
def _run_forward(grid):
    return (
        forward_snapshots(
            MODEL, sine_nemytskii(0.5), X0, grid, SEED, N_PATHS, [nearest_node(grid, 0.5)]
        ),
    )


def _run_guided(grid):
    return guided_snapshots(
        MODEL, sine_nemytskii(0.5), X0, GuidedSpec(y=TARGET, horizon=1.0), grid, SEED,
        N_PATHS, [nearest_node(grid, 0.5)], [weight_node(grid, 0.9)],
    )


def _run_dynkin(grid):
    phis = [
        ExpTestFunction(np.array([0.3, -0.2, 0.1, 0.05]), 0.2, "sin"),
        ExpTestFunction(np.array([-0.1, 0.4, 0.0, 0.2]), -0.3, "cos"),
    ]
    stats = dynkin_residual_mc(
        MODEL, sine_nemytskii(0.5), phis, X0, grid, SEED, N_PATHS, [0.5, 1.0]
    )
    return tuple(np.stack([s.estimates, s.stderrs]) for s in stats)


def _run_bridge(grid):
    return (
        ou_bridge_snapshots(
            MODEL, X0, 1.0, TARGET, grid, SEED, N_PATHS, [nearest_node(grid, 0.5)]
        ),
    )


def _sha256(path):
    # read in blocks: the whole dump read at once would count in the peak
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return np.frombuffer(digest.digest(), dtype=np.uint8)


def _run_forward_paths(grid):
    scn = resolve_scenario(
        {
            "model": {"n_modes": 4},
            "dynamics": {
                "nonlinearity": {"kind": "sine", "alpha": 0.5},
                "x0": {"kind": "zero"},
            },
            "task": {"name": "forward", "times": [0.5, 1.0]},
            "grid": {"horizon": 1.0, "n_steps": grid.n_steps, "kind": grid.kind},
            "sampling": {"n_paths": N_PATHS, "seed": SEED},
            "output": {"formats": ["csv", "json", "paths"]},
        }
    )
    with tempfile.TemporaryDirectory() as tmp:
        run_scenario(scn, Path(tmp))
        return tuple(_sha256(Path(tmp) / name) for name in ("summary.csv", "paths.spdb"))


STREAMED = {
    "forward": _run_forward,
    "forward-paths": _run_forward_paths,
    "guided": _run_guided,
    "dynkin": _run_dynkin,
    "ou-bridge": _run_bridge,
}


@pytest.mark.parametrize("name", list(STREAMED))
def test_shared_buffer_matches_fresh_normals(monkeypatch, name):
    grid = geometric_grid(1.0, 16)
    shared = STREAMED[name](grid)
    with monkeypatch.context() as m:
        _use_fresh_normals(m)
        fresh = STREAMED[name](grid)
    assert len(shared) == len(fresh)
    for got, want in zip(shared, fresh):
        np.testing.assert_array_equal(got, want)


def test_martingale_diag_shared_buffer_matches_fresh_normals(tmp_path, monkeypatch):
    scn = resolve_scenario(
        {
            "model": {
                "n_modes": 2,
                "eigenvalues": {"rule": "explicit", "values": [-1.0, -4.0]},
                "noise": {"rule": "explicit", "values": [2.0, 1.0]},
            },
            "dynamics": {
                "nonlinearity": {"kind": "sine", "alpha": 0.5},
                "x0": {"kind": "zero"},
            },
            "task": {"name": "martingale-diag", "target": [1.0, -0.5], "h_horizon": 1.0},
            "grid": {"horizon": 0.8, "n_steps": 16, "kind": "uniform"},
            "sampling": {"n_paths": N_PATHS, "seed": SEED},
            "output": {"formats": ["csv", "json"]},
        }
    )
    run_scenario(scn, tmp_path / "shared")
    with monkeypatch.context() as m:
        _use_fresh_normals(m)
        run_scenario(scn, tmp_path / "fresh")
    for name in ("summary.csv", "diagnostics.json"):
        assert (tmp_path / "shared" / name).read_bytes() == (
            tmp_path / "fresh" / name
        ).read_bytes()


@pytest.mark.parametrize("name", list(STREAMED))
def test_peak_memory_holds_one_chunk_of_normals(monkeypatch, name):
    # one unit per thread: at two threads, one chunk; rows of 64 steps x 4
    # modes are past the lowered row floor. Peak memory is counted in units
    # of normals per thread, plus half a unit for what a pass holds once
    # (its tables and outputs).
    grid = geometric_grid(1.0, 64)
    one_unit = UNIT * grid.n_steps * MODEL.n_modes * 8
    monkeypatch.setattr(forward, "THREADED_ROW_MIN", 1)
    # the dump's node block, as the same share of a unit of normals as at 512
    # steps: the whole budget would hold all 65 nodes, a unit of states
    monkeypatch.setattr(forward, "DUMP_BLOCK_BYTES", forward.DUMP_BLOCK_BYTES * 64 // 512)
    for cores in (1, 2, 3):
        monkeypatch.setattr(forward, "available_cores", lambda: cores)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            STREAMED[name](grid)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        bound = 1.5 * cores + 0.5
        assert peak < bound * one_unit, f"{cores} cores: peak {peak / one_unit:.2f} units"
