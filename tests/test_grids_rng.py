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
