"""Unit tests for function-space sampling and grids."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.ranking import FunctionStream, grid_functions, sample_functions
from repro.ranking.sampling import _DRAW_BLOCK as B


class TestSampleFunctions:
    def test_shape_and_norms(self):
        w = sample_functions(4, 100, rng=0)
        assert w.shape == (100, 4)
        assert np.allclose(np.linalg.norm(w, axis=1), 1.0)
        assert np.all(w >= 0)

    def test_deterministic_given_seed(self):
        assert np.array_equal(sample_functions(3, 10, rng=7), sample_functions(3, 10, rng=7))

    def test_marsaglia_uniformity_on_circle(self):
        # In 2-D the angle of a uniform direction is uniform on [0, π/2]:
        # the mean angle should be close to π/4.
        w = sample_functions(2, 20_000, rng=0)
        angles = np.arctan2(w[:, 1], w[:, 0])
        assert abs(angles.mean() - np.pi / 4) < 0.02

    def test_covers_all_orthant_corners(self):
        # Every attribute should dominate in some sample.
        w = sample_functions(3, 5000, rng=1)
        assert set(np.argmax(w, axis=1)) == {0, 1, 2}

    @pytest.mark.parametrize("count", [1, B - 1, B, B + 1, 3 * B + 17])
    def test_blocked_draw_equals_one_unblocked_draw(self, count):
        raw = np.abs(np.random.default_rng(count).normal(size=(count, 4)))
        expected = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        assert np.array_equal(sample_functions(4, count, rng=count), expected)

    def test_stream_blocks_concatenate_to_one_draw(self):
        sizes = [1, B - 1, B, B + 1, 17]
        stream = FunctionStream(3, rng=5)
        blocks = [stream.draw(size) for size in sizes]
        assert stream.drawn == sum(sizes)
        assert np.array_equal(np.vstack(blocks), sample_functions(3, sum(sizes), rng=5))

    def test_validation(self):
        with pytest.raises(ValidationError):
            sample_functions(0, 10)
        with pytest.raises(ValidationError):
            sample_functions(3, 0)


class TestGridFunctions:
    def test_2d_grid_endpoints(self):
        grid = grid_functions(2, 3)
        assert grid.shape == (3, 2)
        assert np.allclose(grid[0], [1.0, 0.0])
        assert np.allclose(grid[-1], [0.0, 1.0], atol=1e-12)

    def test_count_is_per_axis_power(self):
        grid = grid_functions(4, 5)
        assert grid.shape == (5 ** 3, 4)

    def test_rows_are_unit_vectors(self):
        grid = grid_functions(3, 4)
        assert np.allclose(np.linalg.norm(grid, axis=1), 1.0)
        assert np.all(grid >= 0)

    def test_d1_special_case(self):
        assert np.array_equal(grid_functions(1, 10), [[1.0]])

    def test_single_point_grid_is_diagonal(self):
        grid = grid_functions(2, 1)
        assert np.allclose(grid, [[np.sqrt(0.5), np.sqrt(0.5)]])

    def test_validation(self):
        with pytest.raises(ValidationError):
            grid_functions(0, 3)
        with pytest.raises(ValidationError):
            grid_functions(2, 0)
