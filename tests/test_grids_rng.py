import multiprocessing
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from numpy.random import Generator, Philox

from spdebridge import DomainError, TimeGrid, geometric_grid, uniform_grid
from spdebridge import rng


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


def _draw_into(queue, n):
    queue.put(rng.path_increments(31, range(n), 4, 2))


@pytest.fixture(scope="module")
def two_worker_pool():
    # with the caller's thread, three threads draw on any host
    with ThreadPoolExecutor(max_workers=2) as pool:
        yield pool


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

    @pytest.mark.parametrize("n_modes", [1, 4, 9])
    @pytest.mark.parametrize("n", [1, 2, 31, 33, 2047, 2048])
    def test_same_bits_at_every_thread_count(self, monkeypatch, two_worker_pool, n, n_modes):
        # up to three threads whatever the host has, on rows of any length;
        # rows start at a nonzero path offset
        monkeypatch.setattr(rng, "THREADED_ROW_MIN", 1)
        monkeypatch.setattr(rng, "_pool", two_worker_pool)
        idx = range(1000, 1000 + n)
        key = rng.philox_key(31)
        want = None
        for t in (1, 2, 3):
            monkeypatch.setattr(rng, "available_cores", lambda: t)
            step_major = np.full((8, n, n_modes), np.nan).transpose(1, 0, 2)
            got = rng.path_increments(31, idx, 8, n_modes)
            rng.path_increments(31, idx, 8, n_modes, out=step_major)
            if want is None:
                want = got
                for row in (0, n - 1):
                    fresh = Generator(Philox(key=key, counter=idx[row] << 192))
                    assert np.array_equal(want[row], fresh.standard_normal((8, n_modes)))
            assert np.array_equal(got, want)
            assert np.array_equal(step_major, want)

    @pytest.mark.parametrize(
        "cores, n, n_steps, workers",
        [
            (1, 2048, 256, 0),  # one core
            (2, 2048, 256, 1),  # 256 steps x 4 modes is THREADED_ROW_MIN
            (2, 2048, 255, 0),  # a shorter row stays on the caller's thread
            (3, 2 * rng.ROW_BLOCK, 256, 1),  # no more threads than blocks
            (2, rng.ROW_BLOCK, 256, 0),
        ],
    )
    def test_thread_count(self, monkeypatch, cores, n, n_steps, workers):
        real = rng._executor
        asked = []

        def executor():
            asked.append(1)
            return real()

        monkeypatch.setattr(rng, "available_cores", lambda: cores)
        monkeypatch.setattr(rng, "_executor", executor)
        rng.path_increments(31, range(n), n_steps, 4)
        assert len(asked) == workers

    def test_draw_in_forked_child(self, monkeypatch):
        # the parent's pool exists before the fork; the child must not queue
        # its draw on that pool's threads, which it does not have
        monkeypatch.setattr(rng, "available_cores", lambda: 2)
        monkeypatch.setattr(rng, "THREADED_ROW_MIN", 1)
        want = rng.path_increments(31, range(256), 4, 2)
        assert rng._pool is not None
        ctx = multiprocessing.get_context("fork")
        queue = ctx.SimpleQueue()
        child = ctx.Process(target=_draw_into, args=(queue, 256))
        child.start()
        child.join(timeout=60)
        alive = child.is_alive()
        if alive:
            child.kill()
        assert not alive and child.exitcode == 0
        assert np.array_equal(queue.get(), want)

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
