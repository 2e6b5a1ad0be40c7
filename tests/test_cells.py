import numpy as np
import pytest

from triloop.cells import cell_box, cell_keys, int64_cells
from triloop.errors import CellOutOfRange
from triloop.planes import build_voxel_map

from scalar_front import floor_cells, pack_cells

TOO_MANY = "too many cells for an int64 key"
BEYOND = "beyond the int64 range"


def point_keys(points, size):
    return cell_keys(points.T, size, f"points at cell size {size}")


def assert_keys_match_reference(points, size):
    keys, lo, dims = point_keys(points, size)
    cells = floor_cells(points, size)
    expected_lo, expected_dims = cell_box(cells)
    assert keys.dtype == np.int64
    assert np.array_equal(keys, pack_cells(cells))
    assert np.array_equal(lo, expected_lo) and dims == expected_dims
    return keys


def raised(fn, *args):
    with pytest.raises(CellOutOfRange) as info:
        fn(*args)
    return str(info.value)


class TestCellKeys:
    def test_random_clouds_with_negative_coordinates(self):
        rng = np.random.default_rng(5)
        for size in (0.25, 1.0, 0.1, 3.7):
            points = rng.normal(-20.0, 50.0, size=(2000, 3))
            keys = assert_keys_match_reference(points, size)
            assert len(np.unique(keys)) > 100

    def test_single_point(self):
        for point in ([0.0, 0.0, 0.0], [-0.3, 7.9, -1e6]):
            keys = assert_keys_match_reference(np.array([point]), 0.5)
            assert keys.tolist() == [0]

    def test_coordinates_near_two_to_the_53_cells(self):
        rng = np.random.default_rng(6)
        for size in (0.25, 1.0, 0.3):
            for sign in (1.0, -1.0):
                offsets = rng.integers(-1000, 1000, size=(500, 3)) + rng.random((500, 3))
                points = sign * 2.0**53 * size + offsets * size
                assert_keys_match_reference(points, size)

    def test_widest_box_that_fits(self):
        # (2^21 - 1) x 2^21 x 2^21 cells, 2^42 fewer than an int64 key holds
        far = 2.0**21 - 0.5
        points = np.array([[0.5, 0.5, 0.5], [far - 1.0, far, far], [far - 2.0, 3.5, far]])
        keys = assert_keys_match_reference(points, 1.0)
        assert keys.max() == (2**21 - 1) * 2**42 - 1

    def test_quantized_side_triples(self):
        rng = np.random.default_rng(7)
        lengths = rng.uniform(0.0, 30.0, size=(3, 4000))
        lengths[:, ::7] = np.round(lengths[:, ::7] / 0.2) * 0.2 + 0.1  # ties at a half cell
        keys, _, _ = cell_keys(lengths, 0.2, "triangle sides", np.rint)
        expected = pack_cells(int64_cells(np.round(lengths.T / 0.2), "triangle sides"))
        assert np.array_equal(keys, expected)

    @pytest.mark.parametrize("points, size, kind", [
        ([[np.nan, 0.0, 0.0], [0.0, 0.0, 0.0]], 1.0, BEYOND),
        ([[0.0, np.inf, 0.0], [0.0, 0.0, 0.0]], 1.0, BEYOND),
        ([[0.0, 0.0, -np.inf], [0.0, 0.0, 0.0]], 1.0, BEYOND),
        ([[1.0, 2.0, 3.0]], 1e-300, BEYOND),
        # 2^21 cells on every axis: one cell wider along x than the widest box
        ([[0.5, 0.5, 0.5], [2.0**21 - 0.5, 2.0**21 - 0.5, 2.0**21 - 0.5]], 1.0, TOO_MANY),
    ])
    def test_same_errors_as_the_reference(self, points, size, kind):
        points = np.array(points)
        message = raised(point_keys, points, size)
        assert kind in message
        assert message == raised(lambda: pack_cells(floor_cells(points, size)))

    def test_voxel_cells_are_the_unravelled_keys(self):
        points = np.array([[-2e18, 0.5, 0.5], [2e18, 0.5, 0.5], [-2e18, 0.5, 0.5], [0.5, 1.5, 0.5]])
        voxmap = build_voxel_map(points, 1.0)
        assert np.array_equal(voxmap.cells, np.unique(floor_cells(points, 1.0), axis=0))
        assert voxmap.cells.dtype == np.int64
