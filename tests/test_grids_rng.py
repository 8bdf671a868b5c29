import hashlib
import multiprocessing
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from numpy.random import Generator, Philox

from spdebridge import (
    DomainError,
    TimeGrid,
    dirichlet_model,
    geometric_grid,
    sine_nemytskii,
    uniform_grid,
)
from spdebridge import _kernels, forward, rng


class TestUniformGrid:
    def test_basic(self):
        grid = uniform_grid(2.0, 8)
        assert grid.nodes[0] == 0.0
        assert grid.horizon == 2.0
        assert grid.n_steps == 8
        np.testing.assert_allclose(grid.steps, 0.25)

    def test_rejects_bad_args(self):
        with pytest.raises(DomainError):
            uniform_grid(0.0, 8)
        with pytest.raises(DomainError):
            uniform_grid(1.0, 0)


class TestGeometricGrid:
    def test_endpoints_and_monotonicity(self):
        grid = geometric_grid(1.0, 128)
        assert grid.nodes[0] == 0.0
        assert grid.nodes[-1] == 1.0
        steps = grid.steps
        assert np.all(np.diff(steps) <= 1e-15)
        assert steps[-1] >= 1e-6

    def test_tail_ratio(self):
        grid = geometric_grid(1.0, 64, ratio=0.5)
        steps = grid.steps
        tail = steps[steps < steps[0] * 0.999]
        ratios = tail[1:] / tail[:-1]
        np.testing.assert_allclose(ratios, 0.5, rtol=1e-10)

    def test_final_step_shrinks_with_resolution(self):
        finals = [geometric_grid(1.0, n).steps[-1] for n in (64, 128, 256)]
        assert finals[0] > finals[1] > finals[2]

    def test_respects_floor(self):
        grid = geometric_grid(1.0, 100000)
        assert grid.steps[-1] >= 1e-6 * 0.999

    def test_invariant_enforced(self):
        nodes = np.array([0.0, 0.1, 0.3, 1.0])  # increasing steps
        with pytest.raises(DomainError):
            TimeGrid(nodes, "geometric")


def _pass_normals(n):
    """The normals of an n-path pass of 4 steps x 2 modes, as forward.run_pass hands them out."""
    z_all = np.full((n, 4, 2), np.nan)

    def unit(lo, hi, x0b, z):
        z_all[lo:hi] = z

    forward.run_pass(dirichlet_model(2), np.zeros(2), uniform_grid(1.0, 4), 31, n, unit)
    return z_all


def _pass_digest_into(queue, n):
    # a digest, not the array: a child blocked on a full pipe would never exit
    queue.put(hashlib.sha256(_pass_normals(n).tobytes()).hexdigest())


class TestRngStreams:
    def test_path_block_independent_of_batch(self):
        a = rng.path_increments(9, [5], 16, 3)[0]
        b = rng.path_increments(9, range(10), 16, 3)[5]
        assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "indices", [[0, 2047, 2048, 2**40], [2**40, 2048, 2047, 0], []],
        ids=["ascending", "reversed", "empty"],
    )
    def test_path_block_matches_fresh_generator(self, indices):
        key = rng.philox_key(31)
        got = rng.path_increments(31, indices, 16, 3)
        assert got.shape == (len(indices), 16, 3)
        for row, i in enumerate(indices):
            fresh = Generator(Philox(key=key, counter=i << 192)).standard_normal((16, 3))
            assert np.array_equal(got[row], fresh)

    # The next three tests are of forward.run_pass, the one caller that
    # draws on several threads.
    @pytest.mark.parametrize("n_modes", [1, 4, 9])
    @pytest.mark.parametrize("n", [1, 2, 31, 33, 1279, 1280, 2047, 2048, 4099])
    def test_same_bits_at_every_thread_count(self, monkeypatch, two_worker_pool, n, n_modes):
        # up to three threads whatever the host has, on rows of any length:
        # every unit goes out once, and its normals and stepped states land
        # in its rows with the same bits at every thread count
        monkeypatch.setattr(forward, "THREADED_ROW_MIN", 1)
        monkeypatch.setattr(forward, "_pool", two_worker_pool)
        model, grid = dirichlet_model(n_modes), uniform_grid(1.0, 8)
        st = forward.stepper(model, sine_nemytskii(0.5), grid, 4)
        slots = np.arange(9, dtype=np.int64)
        x0 = np.linspace(-0.5, 0.5, n_modes)
        want = None
        for t in (1, 2, 3):
            monkeypatch.setattr(forward, "available_cores", lambda: t)
            normals = np.full((n, 8, n_modes), np.nan)
            states = np.full((n, 9, n_modes), np.nan)
            taken = []

            def unit(lo, hi, x0b, z):
                taken.append((lo, hi))
                normals[lo:hi] = z
                states[lo:hi] = _kernels.forward_snap(x0b, z, st, slots)

            forward.run_pass(model, x0, grid, 31, n, unit)
            assert sorted(taken) == list(forward.units(n))
            if want is None:
                want = normals, states
                assert np.array_equal(normals, rng.path_increments(31, range(n), 8, n_modes))
                assert np.array_equal(states[:, 0], np.broadcast_to(x0, (n, n_modes)))
            assert np.array_equal(normals, want[0])
            assert np.array_equal(states, want[1])

    def test_units_go_out_once_under_contention(self, monkeypatch):
        # five threads on this host's cores, switching every microsecond:
        # every unit is taken once, and each thread's buffer holds only its
        # own unit's normals while it uses them
        n = 64 * forward.UNIT
        model, grid = dirichlet_model(1), uniform_grid(1.0, 2)
        want = rng.path_increments(31, range(n), 2, 1)
        tables = _kernels.Tables(np.ones((2, 1)))
        taken, tiled, failures = [], [], []

        def unit(lo, hi, x0b, z):
            taken.append((lo, hi))
            tiled.append(tables.wide(hi - lo, 1)[1])
            if not np.array_equal(z, want[lo:hi]):
                failures.append((lo, hi))

        monkeypatch.setattr(forward, "THREADED_ROW_MIN", 1)
        monkeypatch.setattr(forward, "available_cores", lambda: 5)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                monkeypatch.setattr(forward, "_pool", pool)
                run = threading.Thread(
                    target=forward.run_pass, args=(model, np.zeros(1), grid, 31, n, unit)
                )
                run.start()
                run.join(timeout=60)
                assert not run.is_alive()
        finally:
            sys.setswitchinterval(switch)
        assert sorted(taken) == list(forward.units(n)) and not failures
        assert all(t is tiled[0] for t in tiled)

    @pytest.mark.parametrize(
        "n, cuts",
        [
            (0, []),
            (1, [0, 1]),
            (1024, [0, 1024]),
            (1279, [0, 1279]),  # a remainder below UNIT_MIN joins the unit before it
            (1280, [0, 1024, 1280]),
            (2048, [0, 1024, 2048]),
            (2049, [0, 1024, 2048, 2049]),  # units never cross a chunk border
            (2048 + 1300, [0, 1024, 2048, 3072, 3348]),
        ],
    )
    def test_units_cut_each_chunk(self, n, cuts):
        assert list(forward.units(n)) == list(zip(cuts, cuts[1:]))

    @pytest.mark.parametrize(
        "cores, n, n_steps, workers",
        [
            (1, 2048, 256, 0),  # one core
            (2, 2048, 256, 1),  # 256 steps x 4 modes is THREADED_ROW_MIN
            (2, 2048, 255, 0),  # a shorter row stays on the caller's thread
            (3, 2048, 256, 1),  # no more threads than units
            (3, 2048 + 64, 256, 2),
            (2, 32, 256, 0),
        ],
    )
    def test_thread_count(self, monkeypatch, cores, n, n_steps, workers):
        real = forward._executor
        asked = []

        def executor():
            asked.append(1)
            return real()

        monkeypatch.setattr(forward, "available_cores", lambda: cores)
        monkeypatch.setattr(forward, "_executor", executor)
        forward.run_pass(
            dirichlet_model(4), np.zeros(4), uniform_grid(1.0, n_steps), 31, n,
            lambda lo, hi, x0b, z: None,
        )
        assert len(asked) == workers

    def test_draw_in_forked_child(self, monkeypatch):
        # the parent's pool exists before the fork; the child must not queue
        # its units on that pool's threads, which it does not have
        monkeypatch.setattr(forward, "available_cores", lambda: 2)
        monkeypatch.setattr(forward, "THREADED_ROW_MIN", 1)
        want = hashlib.sha256(_pass_normals(2048).tobytes()).hexdigest()
        assert forward._pool is not None
        ctx = multiprocessing.get_context("fork")
        queue = ctx.SimpleQueue()
        child = ctx.Process(target=_pass_digest_into, args=(queue, 2048))
        child.start()
        child.join(timeout=60)
        alive = child.is_alive()
        if alive:
            child.kill()
        assert not alive and child.exitcode == 0
        assert queue.get() == want

    def test_negative_path_index_rejected(self):
        with pytest.raises(ValueError):
            rng.path_increments(31, [3, -1], 4, 2)

    def test_out_filled_and_returned(self):
        buf = np.full((3, 16, 3), np.nan)
        got = rng.path_increments(31, [7, 0, 2048], 16, 3, out=buf)
        assert got is buf
        assert np.array_equal(buf, rng.path_increments(31, [7, 0, 2048], 16, 3))

    @pytest.mark.parametrize(
        "indices",
        [
            [],
            [5],
            list(range(rng.ROW_BLOCK)),
            list(range(rng.ROW_BLOCK + 1)),
            [2**40, *range(2 * rng.ROW_BLOCK, 0, -1)],
            list(range(2049)),
        ],
        ids=["empty", "one", "one-block", "block-plus-one", "two-blocks-plus-one",
             "2049"],
    )
    def test_step_major_out_matches_path_major(self, indices):
        buf = np.full((16, len(indices), 3), np.nan).transpose(1, 0, 2)
        got = rng.path_increments(31, indices, 16, 3, out=buf)
        assert got is buf
        assert np.array_equal(buf, rng.path_increments(31, indices, 16, 3))

    def test_step_major_tail_slice_matches_path_major(self):
        # the last chunk of a 2049-path stream: one row of a 2048-row buffer
        buf = np.full((16, 2048, 3), np.nan).transpose(1, 0, 2)
        got = rng.path_increments(31, [2048], 16, 3, out=buf[:1])
        assert np.array_equal(got, rng.path_increments(31, [2048], 16, 3))
        assert np.all(np.isnan(buf[1:]))

    @pytest.mark.parametrize(
        "out",
        [
            np.empty((2, 16, 3)),
            np.empty((3, 16, 3), dtype=np.float32),
            np.empty((3, 16, 6))[:, :, ::2],
            np.empty((3, 3, 16)).transpose(0, 2, 1),
            np.lib.stride_tricks.as_strided(
                np.empty(64), shape=(3, 16, 3), strides=(24, 24, 8)
            ),
        ],
        ids=["shape", "float32", "strided", "transposed", "overlapping"],
    )
    def test_bad_out_rejected(self, out):
        with pytest.raises(ValueError):
            rng.path_increments(31, [7, 0, 2048], 16, 3, out=out)

    def test_purposes_are_disjoint_streams(self):
        a = rng.stream(9, rng.PATHS).standard_normal(8)
        b = rng.stream(9, rng.ENDPOINTS).standard_normal(8)
        assert not np.allclose(a, b)

    def test_seed_changes_stream(self):
        a = rng.path_increments(1, [0], 8, 2)
        b = rng.path_increments(2, [0], 8, 2)
        assert not np.allclose(a, b)

    def test_generator_id_stable(self):
        assert "philox" in rng.GENERATOR_ID
