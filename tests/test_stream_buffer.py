"""The streaming driver draws every chunk into one normals buffer.

These tests pin what that buffer may and may not change: each streamed
caller gives the same bits as with fresh normals per chunk (so none keeps
its chunk's normals past the loop body), and peak memory holds one chunk
of normals, not two. The forward task's paths dump also holds one chunk
of states, never the whole ensemble and never a second copy of a chunk.
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
from spdebridge import forward, guided, htransform, ou, rng
from spdebridge.forward import CHUNK, forward_snapshots, nearest_node
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


def _fresh_stream_paths(model, x0, grid, rng_seed, n_paths):
    """The driver as it was before the shared buffer: new normals per chunk."""
    for lo in range(0, n_paths, CHUNK):
        hi = min(lo + CHUNK, n_paths)
        x0b = np.broadcast_to(x0, (hi - lo, model.n_modes)).copy()
        yield lo, hi, x0b, rng.path_increments(
            rng_seed, range(lo, hi), grid.n_steps, model.n_modes
        )


def _use_fresh_normals(monkeypatch):
    for mod in (forward, guided, htransform, ou):
        monkeypatch.setattr(mod, "stream_paths", _fresh_stream_paths)


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


# Peak memory in chunks of normals. The dump adds one chunk of states, which
# is about one chunk of normals, and row blocks of increments.
PEAK_CHUNKS = {"forward-paths": 2.5}


@pytest.mark.parametrize("name", list(STREAMED))
def test_peak_memory_holds_one_chunk_of_normals(name):
    grid = geometric_grid(1.0, 64)
    one_chunk = CHUNK * grid.n_steps * MODEL.n_modes * 8
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        STREAMED[name](grid)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    bound = PEAK_CHUNKS.get(name, 1.5)
    assert peak < bound * one_chunk, f"peak {peak / one_chunk:.2f} chunks of normals"
