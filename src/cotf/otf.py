"""Per-channel transfer functions and the measurement matrix.

A channel is an (illumination shift, detector shift) pair.  The point-scan
channel weight at a grid node r is |U(r)|^2 |U(r + delta)|^2: illumination
intensity at r times detection sensitivity of a pinhole displaced by delta.
Line-scan channels use the coherent line focus L(x, z) = sum_y U * step_y
in place of U and live on the (x, z) sub-grid.  Cross-shift channels pair
an off-axis illumination line with an off-axis detection line.

Stacking the vectorized channel weights column-by-column gives the K x N
matrix consumed by the optimizer; column 0 is always the conventional
(zero-shift) channel.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .debye import FieldGrid

POINT_ARRAY = "point_array"
LINE_ARRAY = "line_array"
LINE_CROSS_SHIFT = "line_cross_shift"


@dataclass(frozen=True)
class ScanGeometry:
    """Enumerated channel layout: detector shifts plus, for cross-shift
    geometries, illumination shifts."""

    kind: str
    detector_shifts: tuple
    illumination_shifts: tuple = ()

    def __post_init__(self):
        if self.kind not in (POINT_ARRAY, LINE_ARRAY, LINE_CROSS_SHIFT):
            raise ValueError(f"unknown geometry kind {self.kind!r}")
        dets = list(self.detector_shifts)
        if not dets:
            raise ValueError("detector_shifts must be non-empty")
        zero = (0.0, 0.0) if self.kind == POINT_ARRAY else 0.0
        n_zero = sum(1 for s in dets if _shift_eq(s, zero))
        if n_zero != 1:
            raise ValueError("detector_shifts must contain the zero shift exactly once")
        if len({_shift_key(s) for s in dets}) != len(dets):
            raise ValueError("detector shifts must be unique")
        if self.kind == LINE_CROSS_SHIFT:
            ills = list(self.illumination_shifts)
            if not ills:
                raise ValueError("cross-shift geometry requires illumination_shifts")
            if sum(1 for s in ills if _shift_eq(s, 0.0)) != 1:
                raise ValueError("illumination_shifts must contain zero exactly once")
            if len({_shift_key(s) for s in ills}) != len(ills):
                raise ValueError("illumination shifts must be unique")
        elif self.illumination_shifts:
            raise ValueError(f"illumination_shifts only apply to {LINE_CROSS_SHIFT}")

    @property
    def channels(self) -> list:
        """Ordered (illumination, detector) channel descriptors; the
        all-zero conventional channel comes first."""
        if self.kind == POINT_ARRAY:
            pairs = [((0.0, 0.0), d) for d in self.detector_shifts]
            zero = ((0.0, 0.0), (0.0, 0.0))
        elif self.kind == LINE_ARRAY:
            pairs = [(0.0, d) for d in self.detector_shifts]
            zero = (0.0, 0.0)
        else:
            pairs = [
                (i, d)
                for i in self.illumination_shifts
                for d in self.detector_shifts
            ]
            zero = (0.0, 0.0)
        rest = [p for p in pairs if not _shift_eq(p, zero)]
        return [zero] + rest


def _shift_key(s):
    if isinstance(s, tuple):
        return tuple(_shift_key(v) for v in s)
    return round(float(s), 12)


def _shift_eq(a, b) -> bool:
    return _shift_key(a) == _shift_key(b)


def point_grid_geometry(count: int = 5, pitch: float = 0.75) -> ScanGeometry:
    """Square count x count detector-pixel grid centred on the pinhole."""
    if count < 1 or count % 2 == 0:
        raise ValueError("count must be odd and >= 1")
    half = count // 2
    shifts = tuple(
        (pitch * i, pitch * j) for i in range(-half, half + 1) for j in range(-half, half + 1)
    )
    return ScanGeometry(kind=POINT_ARRAY, detector_shifts=shifts)


def line_array_geometry(count: int = 7, pitch: float = 0.25) -> ScanGeometry:
    """1D array of detector lines at the given pitch."""
    if count < 1 or count % 2 == 0:
        raise ValueError("count must be odd and >= 1")
    half = count // 2
    return ScanGeometry(
        kind=LINE_ARRAY,
        detector_shifts=tuple(pitch * i for i in range(-half, half + 1)),
    )


def cross_shift_geometry(
    illum_count: int = 9,
    illum_pitch: float = 0.125,
    det_count: int = 7,
    det_pitch: float = 0.25,
) -> ScanGeometry:
    """Full product of illumination scan shifts and detector lines."""
    if illum_count < 1 or illum_count % 2 == 0 or det_count < 1 or det_count % 2 == 0:
        raise ValueError("counts must be odd and >= 1")
    ih, dh = illum_count // 2, det_count // 2
    return ScanGeometry(
        kind=LINE_CROSS_SHIFT,
        detector_shifts=tuple(det_pitch * i for i in range(-dh, dh + 1)),
        illumination_shifts=tuple(illum_pitch * i for i in range(-ih, ih + 1)),
    )


DEFAULT_POINT_GEOMETRY = point_grid_geometry()
DEFAULT_LINE_GEOMETRY = line_array_geometry()
DEFAULT_CROSS_GEOMETRY = cross_shift_geometry()


@dataclass(frozen=True)
class OtfGrid:
    """One channel's non-negative intensity weight per grid node.

    ``axes`` holds the node coordinates per dimension: (x, y, z) for
    point-scan channels, (x, z) for line-scan channels.
    """

    axes: tuple
    values: np.ndarray
    channel: tuple

    def __post_init__(self):
        shape = tuple(a.size for a in self.axes)
        if self.values.shape != shape:
            raise ValueError(f"value shape {self.values.shape} != axes shape {shape}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("OTF values contain NaN or Inf")
        if self.values.min() < 0:
            raise ValueError("OTF values must be non-negative")

    @property
    def origin_index(self) -> tuple:
        return tuple(a.size // 2 for a in self.axes)


@dataclass(frozen=True)
class OtfStack:
    """K x N matrix of vectorized channel weights (column-major storage)."""

    axes: tuple
    columns: np.ndarray
    channels: list = dataclass_field(default_factory=list)

    def __post_init__(self):
        if self.columns.ndim != 2:
            raise ValueError("columns must be a 2D matrix")
        if len(self.channels) != self.columns.shape[1]:
            raise ValueError("channel descriptors must match column count")

    @property
    def node_count(self) -> int:
        return self.columns.shape[0]

    @property
    def channel_count(self) -> int:
        return self.columns.shape[1]

    @property
    def grid_shape(self) -> tuple:
        return tuple(a.size for a in self.axes)

    def origin_node(self) -> int:
        return int(np.ravel_multi_index(tuple(a.size // 2 for a in self.axes), self.grid_shape))


def _index_offset(shift: float, axis: np.ndarray, name: str) -> int:
    step = axis[1] - axis[0]
    extent = axis[-1]
    if abs(shift) > extent + 1e-9:
        raise ValueError(f"{name} shift {shift} exceeds grid extent {extent}")
    off = shift / step
    off_int = int(round(off))
    if abs(off - off_int) > 1e-9:
        raise ValueError(f"{name} shift {shift} is not an integer multiple of the grid step {step}")
    return off_int


def _shifted(values: np.ndarray, offsets: tuple) -> np.ndarray:
    """values sampled at r + offset*step, zero outside the grid."""
    out = np.zeros_like(values)
    src = []
    dst = []
    for n, off in zip(values.shape, offsets):
        lo, hi = max(0, -off), min(n, n - off)
        dst.append(slice(lo, hi))
        src.append(slice(lo + off, hi + off))
    out[tuple(dst)] = values[tuple(src)]
    return out


def point_otf(field: FieldGrid, delta: tuple) -> OtfGrid:
    """Channel weight |U(r)|^2 |U(r + delta)|^2 for a transverse detector
    shift delta = (dx, dy)."""
    xs, ys, zs = field.axis("x"), field.axis("y"), field.axis("z")
    ox = _index_offset(delta[0], xs, "x")
    oy = _index_offset(delta[1], ys, "y")
    intensity = np.abs(field.samples) ** 2
    values = intensity * _shifted(intensity, (ox, oy, 0))
    return OtfGrid(axes=(xs, ys, zs), values=values, channel=((0.0, 0.0), (float(delta[0]), float(delta[1]))))


def line_focus(field: FieldGrid) -> np.ndarray:
    """Coherent line-focus field L(x, z): discrete Riemann sum of U along y."""
    return field.samples.sum(axis=1) * field.spec.step_y


def cross_shift_otf(field: FieldGrid, delta_illum: float, delta_det: float) -> OtfGrid:
    """Channel weight |L(x + d_i, z)|^2 |L(x + d_d, z)|^2 on the (x, z) sub-grid."""
    xs, zs = field.axis("x"), field.axis("z")
    oi = _index_offset(delta_illum, xs, "illumination x")
    od = _index_offset(delta_det, xs, "detector x")
    line_intensity = np.abs(line_focus(field)) ** 2
    values = _shifted(line_intensity, (oi, 0)) * _shifted(line_intensity, (od, 0))
    return OtfGrid(axes=(xs, zs), values=values, channel=(float(delta_illum), float(delta_det)))


def build_stack(field: FieldGrid, geometry: ScanGeometry) -> OtfStack:
    """Assemble the K x N measurement matrix, one vectorized channel per column."""
    channels = geometry.channels
    first = _make_otf(field, geometry.kind, channels[0])
    axes = first.axes
    k = first.values.size
    columns = np.empty((k, len(channels)), dtype=np.float64, order="F")
    columns[:, 0] = first.values.ravel()
    for n, ch in enumerate(channels[1:], start=1):
        columns[:, n] = _make_otf(field, geometry.kind, ch).values.ravel()
    return OtfStack(axes=axes, columns=columns, channels=channels)


def _make_otf(field: FieldGrid, kind: str, channel) -> OtfGrid:
    if kind == POINT_ARRAY:
        return point_otf(field, channel[1])
    return cross_shift_otf(field, channel[0], channel[1])


# ---------------------------------------------------------------------------
# exports

def export_stack_metadata(stack: OtfStack, path) -> None:
    """JSON sidecar listing channels in column order."""
    meta = {
        "grid_shape": list(stack.grid_shape),
        "node_count": stack.node_count,
        "channel_count": stack.channel_count,
        "channels": [
            {"illumination": _jsonify(ch[0]), "detector": _jsonify(ch[1])}
            for ch in stack.channels
        ],
    }
    with open(path, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _jsonify(shift):
    if isinstance(shift, tuple):
        return list(shift)
    return shift
