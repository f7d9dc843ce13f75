"""Region-mask tests: partitions, frozen mainlobe geometry, depth targets."""
import numpy as np
import pytest

import cotf


def test_masks_partition_grid(point_mask, line_mask, cross_mask):
    for mask in (point_mask, line_mask, cross_mask):
        assert np.array_equal(mask.focal + mask.out_of_focus, np.ones(mask.node_count, dtype=mask.focal.dtype))
        assert mask.focal.sum() > 0
        assert mask.out_of_focus.sum() > 0


def test_frozen_mainlobe_radii(point_stack, line_stack):
    point_radii = cotf.mainlobe_radii(cotf.zero_channel_grid(point_stack))
    assert point_radii == (0.625, 0.625, 2.0)
    line_radii = cotf.mainlobe_radii(cotf.zero_channel_grid(line_stack))
    assert line_radii == (0.5, 1.75)


def test_frozen_focal_node_counts(point_mask, line_mask):
    assert int(point_mask.focal.sum()) == 1649
    assert int(line_mask.focal.sum()) == 173


def test_focal_region_captures_most_weight(point_stack, point_mask):
    values = point_stack.columns[:, 0]
    focal_sum = float(values @ point_mask.focal)
    oof_sum = float(values @ point_mask.out_of_focus)
    assert focal_sum > oof_sum


def test_boundary_nodes_count_focal(point_stack, point_mask):
    shaped = point_mask.focal.reshape(point_stack.grid_shape)
    ix, iy, iz = (n // 2 for n in point_stack.grid_shape)
    # Nodes exactly on the semi-axes of the first-null ellipsoid.
    assert shaped[ix + 5, iy, iz] == 1  # x = 0.625
    assert shaped[ix, iy + 5, iz] == 1  # y = 0.625
    assert shaped[ix, iy, iz + 16] == 1  # z = 2.0
    assert shaped[ix + 6, iy, iz] == 0
    assert shaped[ix, iy, iz + 17] == 0


def test_depth_zero_target_equals_mainlobe(point_stack):
    reference = cotf.zero_channel_grid(point_stack)
    plain = cotf.mainlobe_mask(reference)
    targeted = cotf.depth_target_mask(reference, 0.0)
    assert np.array_equal(plain.focal, targeted.focal)


def test_depth_target_mirror_symmetry(point_stack):
    reference = cotf.zero_channel_grid(point_stack)
    mask = cotf.depth_target_mask(reference, 1.5)
    shaped = mask.focal.reshape(point_stack.grid_shape)
    assert np.array_equal(shaped, shaped[:, :, ::-1])
    assert mask.target_depth == 1.5


def test_depth_target_origin_membership(point_stack):
    """The origin stays focal while |depth| <= axial semi-axis (c = 2)."""
    reference = cotf.zero_channel_grid(point_stack)
    origin = point_stack.origin_node()
    assert cotf.depth_target_mask(reference, 1.0).focal[origin] == 1
    assert cotf.depth_target_mask(reference, 2.0).focal[origin] == 1
    assert cotf.depth_target_mask(reference, 2.5).focal[origin] == 0


def test_depth_target_grows_or_matches_mainlobe(point_stack):
    reference = cotf.zero_channel_grid(point_stack)
    base = int(cotf.mainlobe_mask(reference).focal.sum())
    for depth in (0.5, 1.0, 2.0):
        assert int(cotf.depth_target_mask(reference, depth).focal.sum()) >= base


def test_depth_out_of_range(point_stack):
    reference = cotf.zero_channel_grid(point_stack)
    with pytest.raises(ValueError, match="exceeds grid extent"):
        cotf.depth_target_mask(reference, 4.5)


def test_mainlobe_requires_zero_channel(default_field):
    shifted = cotf.point_otf(default_field, (0.25, 0.0))
    with pytest.raises(ValueError, match="zero-shift"):
        cotf.mainlobe_mask(shifted)


def test_first_null_distance():
    coords = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    assert cotf.first_null_distance(np.array([5.0, 3.0, 1.0, 2.0, 0.5]), coords) == 2.0
    # A plateau stops the scan just like a rise does.
    assert cotf.first_null_distance(np.array([5.0, 3.0, 3.0, 1.0, 0.5]), coords) == 1.0
    with pytest.raises(ValueError, match="no local minimum"):
        cotf.first_null_distance(np.array([5.0, 4.0, 3.0, 2.0, 1.0]), coords)


def test_region_mask_validation():
    axes = (np.linspace(-1, 1, 5),)
    ones = np.ones(5, dtype=np.uint8)
    zeros = np.zeros(5, dtype=np.uint8)
    with pytest.raises(ValueError, match="partition"):
        cotf.RegionMask(axes=axes, focal=ones, out_of_focus=ones)
    with pytest.raises(ValueError, match="empty"):
        cotf.RegionMask(axes=axes, focal=zeros, out_of_focus=ones)
    with pytest.raises(ValueError, match="shape"):
        cotf.RegionMask(axes=axes, focal=ones, out_of_focus=ones[:-1])
