"""Channel-weight tests: stack columns against their formulas, symmetries,
shift validation, geometry enumeration, stacking, and the stack metadata
``cotf otfs`` writes."""
import json

import numpy as np
import pytest

import cotf
from cotf import cli, otf


def _columns(stack):
    """Grid-shaped columns keyed by channel."""
    return {
        ch: stack.columns[:, n].reshape(stack.grid_shape) for n, ch in enumerate(stack.channels)
    }


def _point_intensity(field):
    return np.abs(field.samples) ** 2


def _line_intensity(field):
    return np.abs(field.samples.sum(axis=1) * field.spec.step_y) ** 2


def test_point_otf_nonnegative_finite(point_stack, cross_stack):
    for stack in (point_stack, cross_stack):
        assert np.all(np.isfinite(stack.columns))
        assert stack.columns.min() >= 0.0


def test_zero_shift_peak_is_fourth_power(default_field, point_stack):
    zero = _columns(point_stack)[point_stack.channels[0]]
    peak_u = abs(default_field.samples[default_field.origin_index])
    center = zero[default_field.origin_index]
    assert abs(center - peak_u**4) < 1e-12 * peak_u**4
    assert center == zero.max()


def test_zero_shift_bounds_every_channel(point_stack):
    peak = point_stack.columns[:, 0].max()
    assert np.all(point_stack.columns.max(axis=0) <= peak * (1 + 1e-12))


def test_opposite_shifts_mirror(point_stack):
    columns = _columns(point_stack)
    plus = columns[((0.0, 0.0), (0.75, 1.5))]
    minus = columns[((0.0, 0.0), (-0.75, -1.5))]
    # Same total weight: the sum runs over the same products either way.
    assert np.isclose(plus.sum(), minus.sum(), rtol=1e-12)
    # Point reflection maps one channel onto the other.
    assert np.max(np.abs(plus - minus[::-1, ::-1, ::-1])) < 1e-8 * plus.max()


def test_cross_shift_symmetric_in_arguments(cross_stack):
    columns = _columns(cross_stack)
    assert np.array_equal(columns[(0.25, 0.5)], columns[(0.5, 0.25)])


def test_cross_translation_equivalence(cross_stack):
    """cross(a, b) is cross(0, b-a) translated by a where both are interior."""
    columns = _columns(cross_stack)
    ca = columns[(0.25, 0.5)]
    cb = columns[(0.0, 0.25)]
    off = 2  # 0.25 wavelengths at 0.125 step
    shifted = np.zeros_like(cb)
    shifted[:-off, :] = cb[off:, :]
    interior = np.s_[4:-4, :]
    assert np.array_equal(ca[interior], shifted[interior])


def test_line_focus_riemann_sum(default_field, line_stack):
    zero = _columns(line_stack)[line_stack.channels[0]]
    assert zero.shape == (default_field.axis("x").size, default_field.axis("z").size)
    focus = default_field.samples.sum(axis=1) * default_field.spec.step_y
    assert np.array_equal(zero, (np.abs(focus) ** 2) ** 2)


def _oracle_weight(intensity, a, b):
    """I(r + a) I(r + b) for index offsets a, b; zero where either leaves the grid."""
    out = np.zeros_like(intensity)
    dst, src_a, src_b = [], [], []
    for n, p, q in zip(intensity.shape, a, b):
        lo, hi = max(0, -p, -q), min(n, n - p, n - q)
        dst.append(slice(lo, hi))
        src_a.append(slice(lo + p, hi + p))
        src_b.append(slice(lo + q, hi + q))
    out[tuple(dst)] = intensity[tuple(src_a)] * intensity[tuple(src_b)]
    return out


def test_columns_match_explicit_slices(default_field, point_stack, cross_stack):
    step = default_field.spec.step_x
    point = _columns(point_stack)
    for dx, dy in ((0.75, -1.5), (-0.75, 0.0)):
        offsets = (round(dx / step), round(dy / step), 0)
        expected = _oracle_weight(_point_intensity(default_field), (0, 0, 0), offsets)
        assert np.array_equal(point[((0.0, 0.0), (dx, dy))], expected)
    cross = _columns(cross_stack)
    for di, dd in ((0.5, -0.75), (-0.25, 0.25)):
        offsets = ((round(di / step), 0), (round(dd / step), 0))
        expected = _oracle_weight(_line_intensity(default_field), *offsets)
        assert np.array_equal(cross[(di, dd)], expected)


def test_line_decays_slower_axially(point_stack, line_stack):
    point0 = cotf.zero_channel_grid(point_stack)
    line0 = cotf.zero_channel_grid(line_stack)
    ix, iy, iz = point0.origin_index
    lx, lz = line0.origin_index
    point_rel = point0.values[ix, iy, -1] / point0.values[ix, iy, iz]
    line_rel = line0.values[lx, -1] / line0.values[lx, lz]
    assert line_rel > point_rel


def test_shift_validation(small_field):
    # small_field spans +-1.5 wavelengths in x and y at a 0.25 step.
    for geometry, message in (
        (cotf.point_grid_geometry(count=3, pitch=1.75), "detector x shift -1.75 exceeds grid extent"),
        (cotf.point_grid_geometry(count=3, pitch=0.3), "detector x shift -0.3 is not an integer multiple"),
        (cotf.cross_shift_geometry(3, 0.25, 3, 2.0), "detector x shift -2.0 exceeds grid extent"),
        (cotf.cross_shift_geometry(3, 0.1, 3, 0.25), "illumination x shift -0.1 is not an integer multiple"),
    ):
        with pytest.raises(ValueError, match=message):
            cotf.build_stack(small_field, geometry)


def test_geometry_enumeration_orders_zero_first():
    geometry = cotf.point_grid_geometry(count=3, pitch=0.5)
    channels = geometry.channels
    assert len(channels) == 9
    assert channels[0] == (((0.0, 0.0)), (0.0, 0.0))
    assert all(ch != channels[0] for ch in channels[1:])

    # The product of illumination and detector shifts, illumination outer,
    # with the all-zero pair moved to the front.
    cross = cotf.cross_shift_geometry(3, 0.125, 3, 0.25)
    pairs = [(i, d) for i in (-0.125, 0.0, 0.125) for d in (-0.25, 0.0, 0.25)]
    assert cross.channels == [(0.0, 0.0)] + [p for p in pairs if p != (0.0, 0.0)]


def test_line_scan_is_one_illumination_cross_scan(small_field):
    line = cotf.line_array_geometry(7, 0.25)
    assert line == cotf.cross_shift_geometry(1, 0.0, 7, 0.25)
    # An empty illumination tuple stands for the single zero shift.
    bare = cotf.ScanGeometry(kind=otf.LINE_ARRAY, detector_shifts=line.detector_shifts)
    assert bare.channels == line.channels
    stack = cotf.build_stack(small_field, line)
    for other in (cotf.cross_shift_geometry(1, 0.0, 7, 0.25), bare):
        assert np.array_equal(cotf.build_stack(small_field, other).columns, stack.columns)


def test_geometry_validation():
    with pytest.raises(ValueError, match="odd"):
        cotf.point_grid_geometry(count=4)
    with pytest.raises(ValueError, match="zero shift exactly once"):
        cotf.ScanGeometry(kind=otf.POINT_ARRAY, detector_shifts=((0.5, 0.0),))
    with pytest.raises(ValueError, match="unique"):
        cotf.ScanGeometry(kind=otf.LINE_ARRAY, detector_shifts=(0.0, 0.25, 0.25))
    with pytest.raises(ValueError, match="illumination_shifts only apply"):
        cotf.ScanGeometry(
            kind=otf.POINT_ARRAY, detector_shifts=((0.0, 0.0),), illumination_shifts=((0.0, 0.0),)
        )
    with pytest.raises(ValueError, match="illumination_shifts must contain the zero shift"):
        cotf.ScanGeometry(kind=otf.LINE_ARRAY, detector_shifts=(0.0,), illumination_shifts=(0.125,))
    with pytest.raises(ValueError, match="unknown geometry kind"):
        cotf.ScanGeometry(kind="spiral", detector_shifts=(0.0,))


def test_stack_shapes_and_zero_column(small_field):
    geometry = cotf.point_grid_geometry(count=13, pitch=0.25)
    stack = cotf.build_stack(small_field, geometry)
    assert stack.channel_count == 169
    assert stack.node_count == small_field.samples.size
    intensity = _point_intensity(small_field)
    assert np.array_equal(stack.columns[:, 0], (intensity * intensity).ravel())
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


def test_otf_grid_validation(line_stack):
    grid = cotf.zero_channel_grid(line_stack)
    with pytest.raises(ValueError, match="non-negative"):
        otf.OtfGrid(axes=grid.axes, values=-grid.values, channel=grid.channel)
    with pytest.raises(ValueError, match="shape"):
        otf.OtfGrid(axes=grid.axes, values=grid.values[:-1], channel=grid.channel)


def test_export_stack_metadata(default_field, line_stack, tmp_path, monkeypatch):
    # ``cotf otfs`` on the line geometry writes the stack's channel list.
    runner = cli.Runner(cli.RunConfig(geometry=cotf.DEFAULT_LINE_GEOMETRY), tmp_path, use_cache=False)
    monkeypatch.setattr(runner, "field", lambda: default_field)
    cli._cmd_otfs(runner)
    meta = json.loads((tmp_path / "stack_meta.json").read_text())
    assert meta["channel_count"] == line_stack.channel_count
    assert meta["node_count"] == line_stack.node_count
    assert meta["channels"][0] == {"detector": 0.0, "illumination": 0.0}
    assert len(meta["channels"]) == line_stack.channel_count
