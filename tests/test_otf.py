"""Channel transfer-function tests: algebraic identities, symmetries,
geometry enumeration, stacking, and exports."""
import json

import numpy as np
import pytest

import cotf
from cotf import otf


def test_point_otf_nonnegative_finite(default_field):
    grid = cotf.point_otf(default_field, (0.5, 0.0))
    assert np.all(np.isfinite(grid.values))
    assert grid.values.min() >= 0.0


def test_zero_shift_peak_is_fourth_power(default_field):
    grid = cotf.point_otf(default_field, (0.0, 0.0))
    peak_u = abs(default_field.samples[default_field.origin_index])
    center = grid.values[grid.origin_index]
    assert abs(center - peak_u**4) < 1e-12 * peak_u**4
    assert center == grid.values.max()


def test_zero_shift_bounds_every_channel(point_stack):
    peak = point_stack.columns[:, 0].max()
    assert np.all(point_stack.columns.max(axis=0) <= peak * (1 + 1e-12))


def test_opposite_shifts_mirror(default_field):
    plus = cotf.point_otf(default_field, (0.5, 0.25))
    minus = cotf.point_otf(default_field, (-0.5, -0.25))
    # Same total weight: the sum runs over the same products either way.
    assert np.isclose(plus.values.sum(), minus.values.sum(), rtol=1e-12)
    # Point reflection maps one channel onto the other.
    assert np.max(np.abs(plus.values - minus.values[::-1, ::-1, ::-1])) < 1e-8 * plus.values.max()


def test_cross_shift_symmetric_in_arguments(default_field):
    ab = cotf.cross_shift_otf(default_field, 0.25, 0.5)
    ba = cotf.cross_shift_otf(default_field, 0.5, 0.25)
    assert np.array_equal(ab.values, ba.values)


def test_line_otf_equals_zero_illum_cross(default_field):
    line = cotf.line_otf(default_field, 0.5)
    cross = cotf.cross_shift_otf(default_field, 0.0, 0.5)
    assert np.array_equal(line.values, cross.values)


def test_cross_translation_equivalence(default_field):
    """cross(a, b) is cross(0, b-a) translated by a where both are interior."""
    ca = cotf.cross_shift_otf(default_field, 0.25, 0.5)
    cb = cotf.cross_shift_otf(default_field, 0.0, 0.25)
    off = 2  # 0.25 wavelengths at 0.125 step
    shifted = np.zeros_like(cb.values)
    shifted[:-off, :] = cb.values[off:, :]
    interior = np.s_[4:-4, :]
    assert np.array_equal(ca.values[interior], shifted[interior])


def test_line_focus_riemann_sum(default_field):
    focus = cotf.line_focus(default_field)
    assert focus.shape == (default_field.axis("x").size, default_field.axis("z").size)
    manual = default_field.samples.sum(axis=1)[0, 0] * default_field.spec.step_y
    assert focus[0, 0] == manual


def test_line_decays_slower_axially(point_stack, line_stack):
    point0 = cotf.zero_channel_grid(point_stack)
    line0 = cotf.zero_channel_grid(line_stack)
    ix, iy, iz = point0.origin_index
    lx, lz = line0.origin_index
    point_rel = point0.values[ix, iy, -1] / point0.values[ix, iy, iz]
    line_rel = line0.values[lx, -1] / line0.values[lx, lz]
    assert line_rel > point_rel


def test_shift_validation(default_field):
    with pytest.raises(ValueError, match="exceeds grid extent"):
        cotf.point_otf(default_field, (7.0, 0.0))
    with pytest.raises(ValueError, match="integer multiple"):
        cotf.point_otf(default_field, (0.3, 0.0))
    with pytest.raises(ValueError, match="exceeds grid extent"):
        cotf.cross_shift_otf(default_field, 0.0, -5.0)


def test_geometry_enumeration_orders_zero_first():
    geometry = cotf.point_grid_geometry(count=3, pitch=0.5)
    channels = geometry.channels
    assert len(channels) == 9
    assert channels[0] == (((0.0, 0.0)), (0.0, 0.0))
    assert all(ch != channels[0] for ch in channels[1:])

    cross = cotf.cross_shift_geometry(3, 0.125, 3, 0.25)
    assert len(cross.channels) == 9
    assert cross.channels[0] == (0.0, 0.0)


def test_geometry_validation():
    with pytest.raises(ValueError, match="odd"):
        cotf.point_grid_geometry(count=4)
    with pytest.raises(ValueError, match="zero shift exactly once"):
        cotf.ScanGeometry(kind=otf.POINT_ARRAY, detector_shifts=((0.5, 0.0),))
    with pytest.raises(ValueError, match="unique"):
        cotf.ScanGeometry(kind=otf.LINE_ARRAY, detector_shifts=(0.0, 0.25, 0.25))
    with pytest.raises(ValueError, match="illumination_shifts only apply"):
        cotf.ScanGeometry(
            kind=otf.LINE_ARRAY, detector_shifts=(0.0, 0.25), illumination_shifts=(0.0,)
        )
    with pytest.raises(ValueError, match="unknown geometry kind"):
        cotf.ScanGeometry(kind="spiral", detector_shifts=(0.0,))


def test_stack_shapes_and_zero_column(small_field):
    geometry = cotf.point_grid_geometry(count=13, pitch=0.25)
    stack = cotf.build_stack(small_field, geometry)
    assert stack.channel_count == 169
    assert stack.node_count == small_field.samples.size
    reference = cotf.point_otf(small_field, (0.0, 0.0))
    assert np.array_equal(stack.columns[:, 0], reference.values.ravel())
    assert stack.columns.flags.f_contiguous


def test_default_stack_counts(point_stack, line_stack, cross_stack):
    assert point_stack.channel_count == 25
    assert line_stack.channel_count == 7
    assert cross_stack.channel_count == 63
    assert point_stack.grid_shape == (49, 49, 97)
    assert cross_stack.grid_shape == (49, 97)


def test_origin_node_matches_grid_center(point_stack):
    origin = point_stack.origin_node()
    shaped = point_stack.columns[:, 0].reshape(point_stack.grid_shape)
    center = tuple(n // 2 for n in point_stack.grid_shape)
    assert point_stack.columns[origin, 0] == shaped[center]


def test_otf_grid_validation(small_field):
    grid = cotf.point_otf(small_field, (0.0, 0.0))
    with pytest.raises(ValueError, match="non-negative"):
        otf.OtfGrid(axes=grid.axes, values=-grid.values, channel=grid.channel)
    with pytest.raises(ValueError, match="shape"):
        otf.OtfGrid(axes=grid.axes, values=grid.values[:-1], channel=grid.channel)


def test_export_otf_csv(small_field, tmp_path):
    grid = cotf.point_otf(small_field, (0.25, 0.0))
    path = tmp_path / "otf.csv"
    otf.export_otf_csv(grid, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,y,z,value"
    assert len(lines) == 1 + grid.values.size
    first = [float(v) for v in lines[1].split(",")]
    assert first[:3] == [grid.axes[0][0], grid.axes[1][0], grid.axes[2][0]]


def test_export_stack_metadata(line_stack, tmp_path):
    path = tmp_path / "stack.json"
    otf.export_stack_metadata(line_stack, path)
    meta = json.loads(path.read_text())
    assert meta["channel_count"] == line_stack.channel_count
    assert meta["node_count"] == line_stack.node_count
    assert meta["channels"][0] == {"detector": 0.0, "illumination": 0.0}
    assert len(meta["channels"]) == line_stack.channel_count
