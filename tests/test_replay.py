"""A path's bits do not depend on the batch it is stepped in.

Any path of a streamed ensemble can be regenerated alone from (seed, path
index): a forward path by ``simulate_ensemble(n_paths=1, path_offset=i)``,
a guided one with its log weights by ``simulate_guided(path_index=i)``. The
rows checked sit on both sides of the 2048-path chunk border; with 2049
paths the last of them is a one-row tail chunk, with 2050 a two-row one.
Replay and streamed row must be equal, not merely close.
"""

import numpy as np
import pytest

from spdebridge import (
    GuidedSpec,
    bounded_rational,
    dirichlet_model,
    geometric_grid,
    simulate_ensemble,
    sine_nemytskii,
)
from spdebridge.forward import CHUNK, forward_snapshots
from spdebridge.guided import guided_snapshots, simulate_guided, weight_node

MODEL = dirichlet_model(4)
X0 = np.zeros(4)
TARGET = np.array([0.5, -0.3, 0.1, 0.0])
GRID = geometric_grid(1.0, 32)
ALL_NODES = np.arange(GRID.n_steps + 1)
ROWS = (0, CHUNK - 1, CHUNK)
CUTOFFS = (0.5, 0.9)
NONLINEARITIES = {"sine": sine_nemytskii(0.5), "bounded_rational": bounded_rational(0.7)}

cases = pytest.mark.parametrize(
    "kind, n_paths, seed",
    [
        (kind, n_paths, seed)
        for kind in NONLINEARITIES
        for n_paths in (CHUNK + 1, CHUNK + 2)
        for seed in (4242, 9137, 1)
    ],
)


@cases
def test_forward_row_replays_alone(kind, n_paths, seed):
    nonlin = NONLINEARITIES[kind]
    streamed = forward_snapshots(MODEL, nonlin, X0, GRID, seed, n_paths, ALL_NODES)
    for i in ROWS:
        alone = simulate_ensemble(MODEL, nonlin, X0, GRID, seed, n_paths=1, path_offset=i)
        np.testing.assert_array_equal(alone.states[0], streamed[i], err_msg=f"row {i}")


@cases
def test_guided_row_replays_alone(kind, n_paths, seed):
    nonlin = NONLINEARITIES[kind]
    snaps, logw = guided_snapshots(
        MODEL, nonlin, X0, GuidedSpec(y=TARGET, horizon=1.0), GRID, seed, n_paths,
        ALL_NODES, [weight_node(GRID, c) for c in CUTOFFS],
    )
    for i in ROWS:
        for col, cutoff in enumerate(CUTOFFS):
            wp = simulate_guided(
                MODEL, nonlin, X0, GuidedSpec(y=TARGET, horizon=1.0, weight_cutoff=cutoff),
                GRID, seed, path_index=i,
            )
            np.testing.assert_array_equal(wp.path.states, snaps[i], err_msg=f"row {i}")
            np.testing.assert_array_equal(
                wp.log_weight, logw[i, col], err_msg=f"row {i} at cutoff {cutoff}"
            )
