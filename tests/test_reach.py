"""A streamed pass draws and steps each path only up to the last node it reads.

``forward.run_pass`` takes that node as ``reach``. A path's first reach x J
normals are those of its full draw, so every early read must equal its
full-length reference bit for bit, on one thread and on two. These tests
check each of the five passes that can read early, and the number of steps
each pass asks ``rng.path_increments`` for.
"""

import concurrent.futures

import numpy as np
import pytest

from spdebridge import forward, io, rng
from spdebridge.forward import (
    forward_snapshots,
    nearest_node,
    node_at_or_before,
    simulate_ensemble,
    sine_nemytskii,
)
from spdebridge.grids import geometric_grid
from spdebridge.guided import GuidedSpec, guided_snapshots, simulate_guided, weight_node
from spdebridge.htransform import ExpTestFunction, bridge_h, dynkin_residual_mc, exp_martingale_mc
from spdebridge.ou import ou_bridge_snapshots
from spdebridge.spectral import dirichlet_model

from oracles import ou_bridge_states

N_PATHS = 1300  # two units: 1024 paths and a 276-path tail
SEED = 2718
GRID = geometric_grid(1.0, 32)
EARLY = [nearest_node(GRID, 0.25), nearest_node(GRID, 0.5)]
NONLIN = sine_nemytskii(0.5)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64).tobytes()


def _vector(n, scale):
    return np.array([scale * (-1) ** j / (j + 1) for j in range(n)])


@pytest.fixture(params=[1, 4], ids=["J1", "J4"])
def model(request):
    return dirichlet_model(request.param)


@pytest.fixture(params=[1, 2], ids=["1thread", "2threads"])
def cores(request, monkeypatch):
    # past the row floor at any reach, so two cores run two threads
    monkeypatch.setattr(forward, "THREADED_ROW_MIN", 1)
    monkeypatch.setattr(forward, "available_cores", lambda: request.param)
    return request.param


def test_bridge_early_read_matches_ou_bridge_states(model, cores):
    x0, y = _vector(model.n_modes, 0.3), _vector(model.n_modes, 0.5)
    got = ou_bridge_snapshots(model, x0, 1.0, y, GRID, SEED, N_PATHS, EARLY)
    z = rng.path_increments(SEED, range(N_PATHS), GRID.n_steps, model.n_modes)
    want = ou_bridge_states(model, x0, 1.0, y, GRID, z)[:, EARLY]
    assert _bits(got) == _bits(want)


def test_forward_early_read_matches_forward_full(model, cores):
    x0 = _vector(model.n_modes, 0.3)
    got = forward_snapshots(model, NONLIN, x0, GRID, SEED, N_PATHS, EARLY)
    # simulate_ensemble steps the full-length draw with _kernels.forward_full
    want = simulate_ensemble(model, NONLIN, x0, GRID, SEED, N_PATHS).states[:, EARLY]
    assert _bits(got) == _bits(want)


def test_guided_early_read_matches_simulate_guided(model, cores):
    x0, y = _vector(model.n_modes, 0.3), _vector(model.n_modes, 0.5)
    probe = nearest_node(GRID, 0.25)
    w_nodes = [weight_node(GRID, 0.4), weight_node(GRID, 0.6)]
    assert w_nodes[-1] < GRID.n_steps - 1  # the pass stops short of the horizon
    spec = GuidedSpec(y=y, horizon=1.0, weight_cutoff=0.6)
    snaps, logw = guided_snapshots(
        model, NONLIN, x0, spec, GRID, SEED, N_PATHS, [probe, GRID.n_steps], w_nodes
    )
    assert np.all(snaps[:, 1] == y)  # the pinned endpoint, never stepped to
    for i in (0, 1023, 1024, N_PATHS - 1):
        wp = simulate_guided(model, NONLIN, x0, spec, GRID, SEED, path_index=i)
        assert _bits(snaps[i, 0]) == _bits(wp.path.states[probe])
        assert _bits(snaps[i, 1]) == _bits(wp.path.states[-1])
        assert _bits(logw[i, 1]) == _bits(np.float64(wp.log_weight))
    # per-path targets: each row's endpoint slot holds its own target
    ends = y + np.linspace(-0.1, 0.1, N_PATHS)[:, None]
    snaps_e, _ = guided_snapshots(
        model, NONLIN, x0, spec, GRID, SEED, N_PATHS, [probe, GRID.n_steps], w_nodes,
        endpoints=ends,
    )
    assert np.array_equal(snaps_e[:, 1], ends)


def test_dynkin_early_read_matches_the_run_that_reads_the_horizon(model, cores):
    x0, n = _vector(model.n_modes, 0.3), model.n_modes
    phis = [
        ExpTestFunction(_vector(n, 0.8), 0.3, "sin"),
        ExpTestFunction(_vector(n, -0.5), 0.0, "cos"),
    ]
    early = dynkin_residual_mc(model, NONLIN, phis, x0, GRID, SEED, N_PATHS, [0.25, 0.5])
    full = dynkin_residual_mc(model, NONLIN, phis, x0, GRID, SEED, N_PATHS, [0.25, 0.5, 1.0])
    for e, f in zip(early, full):
        assert _bits(e.times) == _bits(f.times[:2])
        assert _bits(e.estimates) == _bits(f.estimates[:2])
        assert _bits(e.stderrs) == _bits(f.stderrs[:2])


def test_martingale_early_read_matches_the_run_that_reads_the_horizon(model, cores):
    x0, y = _vector(model.n_modes, 0.3), _vector(model.n_modes, 0.5)
    h = bridge_h(model, 2.0, y)
    probe = nearest_node(GRID, 0.1)

    def run(reads):
        return exp_martingale_mc(
            model, NONLIN, h, x0, GRID, SEED, N_PATHS, reads, probe, [0.25, 0.5], 700
        )

    (series, probes, novikov), (ref_series, ref_probes, ref_novikov) = (
        run(EARLY), run(EARLY + [GRID.n_steps])
    )
    assert _bits(series) == _bits(ref_series[:, :2])
    assert _bits(probes) == _bits(ref_probes)
    assert _bits(novikov) == _bits(ref_novikov)


def _steps_asked(monkeypatch, run):
    """The step counts every ``rng.path_increments`` call of ``run()`` asks for."""
    asked = []
    draw = rng.path_increments

    def counting(master_seed, path_indices, n_steps, n_modes, **kwargs):
        asked.append(n_steps)
        return draw(master_seed, path_indices, n_steps, n_modes, **kwargs)

    monkeypatch.setattr(rng, "path_increments", counting)
    run()
    return set(asked)


MODEL = dirichlet_model(4)
X0 = _vector(4, 0.3)
Y = _vector(4, 0.5)
PROBE = nearest_node(GRID, 0.25)
W_NODES = [weight_node(GRID, 0.4), weight_node(GRID, 0.6)]
NOVIKOV = [0.25, 0.6]


def _guided(conditioning):
    spec = GuidedSpec(y=Y, horizon=1.0, conditioning=conditioning, obs_var=0.05)
    return lambda: guided_snapshots(
        MODEL, NONLIN, X0, spec, GRID, SEED, 64, [PROBE, GRID.n_steps], W_NODES
    )


def _forward_dump(tmp_path):
    def run():
        with io.path_dump(tmp_path / "paths.spdb", GRID, 64, 4) as dump:
            forward_snapshots(MODEL, NONLIN, X0, GRID, SEED, 64, EARLY, dump=dump)

    return run


REACH_CASES = {
    "forward": (
        lambda tmp: lambda: forward_snapshots(MODEL, NONLIN, X0, GRID, SEED, 64, EARLY),
        EARLY[-1],
    ),
    "forward-dump": (_forward_dump, GRID.n_steps),
    "ou-bridge": (
        lambda tmp: lambda: ou_bridge_snapshots(MODEL, X0, 1.0, Y, GRID, SEED, 64, EARLY),
        EARLY[-1],
    ),
    "guided-exact": (lambda tmp: _guided("exact"), W_NODES[-1]),
    "guided-noisy-obs": (lambda tmp: _guided("noisy_obs"), GRID.n_steps),
    "dynkin": (
        lambda tmp: lambda: dynkin_residual_mc(
            MODEL, NONLIN, [ExpTestFunction(Y, 0.3)], X0, GRID, SEED, 64, [0.5, 0.25]
        ),
        EARLY[-1],
    ),
    "martingale-diag": (
        lambda tmp: lambda: exp_martingale_mc(
            MODEL, NONLIN, bridge_h(MODEL, 2.0, Y), X0, GRID, SEED, 64, EARLY, PROBE,
            NOVIKOV, 64,
        ),
        node_at_or_before(GRID, NOVIKOV[-1]),
    ),
}


@pytest.mark.parametrize("name", list(REACH_CASES))
def test_pass_draws_exactly_its_reach(monkeypatch, tmp_path, name):
    make, reach = REACH_CASES[name]
    assert _steps_asked(monkeypatch, make(tmp_path)) == {reach}


@pytest.mark.parametrize("reach, workers", [(255, 0), (256, 1)])
def test_row_floor_counts_the_normals_a_path_draws(monkeypatch, reach, workers):
    # 512 steps x 4 modes is past THREADED_ROW_MIN, but a pass that stops at
    # node 255 draws 1020 normals a path and stays on the caller's thread
    asked = []

    class Recording(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            asked.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(forward, "available_cores", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
    forward.run_pass(
        MODEL, X0, geometric_grid(1.0, 512), SEED, 2048, lambda lo, hi, x0b, z: None,
        reach=reach,
    )
    assert asked == ([workers] if workers else [])


@pytest.mark.parametrize("out", ["default", "step-major"])
def test_a_shorter_draw_is_a_prefix_of_the_full_draw(out):
    # each path drawn alone from its own stream, the full 32 steps
    full = np.array(
        [rng.stream(SEED, rng.PATHS, i).standard_normal((32, 3)) for i in (0, 5, 2**40)]
    )
    for k in (0, 1, 7, 31):
        buf = np.empty((k, 3, 3)).transpose(1, 0, 2) if out == "step-major" else None
        got = rng.path_increments(SEED, [0, 5, 2**40], k, 3, out=buf)
        assert _bits(got) == _bits(full[:, :k])
