"""Channel weights and the measurement matrix.

A channel is an (illumination shift, detector shift) pair, and a geometry
enumerates the product of its illumination and detector shifts.  Each stack
is built from one intensity, computed once per stack:

- point scans use I = |U|^2 on the (x, y, z) grid, and the channel with
  detector shift delta = (dx, dy) weighs node r by I(r) I(r + delta):
  illumination intensity at r times the detection sensitivity of a pinhole
  displaced by delta;
- line scans use the line-focus intensity I_L(x, z) = |sum_y U(x, y, z)
  step_y|^2 on the (x, z) sub-grid, and the channel (delta_i, delta_d)
  weighs node r by I_L(x + delta_i, z) I_L(x + delta_d, z): an off-axis
  illumination line times an off-axis detection line.  A cross-shift scan
  shifts the illumination line too; a plain line scan is the cross-shift
  scan whose only illumination shift is delta_i = 0.

A weight is zero where a shift leaves the grid.  Stacking the vectorized
channel weights column by column gives the K x N matrix consumed by the
optimizer; column 0 is always the conventional (zero-shift) channel.
Nothing here writes a file: ``cotf otfs`` writes a stack's channel list
as ``stack_meta.json``.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .debye import FieldGrid

POINT_ARRAY = "point_array"
LINE_ARRAY = "line_array"


@dataclass(frozen=True)
class ScanGeometry:
    """Enumerated channel layout: detector shifts and illumination shifts,
    an empty illumination tuple standing for the single zero shift.  Only
    line geometries shift the illumination."""

    kind: str
    detector_shifts: tuple
    illumination_shifts: tuple = ()

    def __post_init__(self):
        if self.kind not in (POINT_ARRAY, LINE_ARRAY):
            raise ValueError(f"unknown geometry kind {self.kind!r}")
        if self.kind == POINT_ARRAY and self.illumination_shifts:
            raise ValueError(f"illumination_shifts only apply to {LINE_ARRAY}")
        for role, shifts in (("detector", self.detector_shifts), ("illumination", self._illuminations)):
            keys = [_shift_key(s) for s in shifts]
            if keys.count(self._zero) != 1:
                raise ValueError(f"{role}_shifts must contain the zero shift exactly once")
            if len(set(keys)) != len(keys):
                raise ValueError(f"{role} shifts must be unique")

    @property
    def _zero(self):
        """The zero shift: (dx, dy) on the point grid, dx on the line grid."""
        return (0.0, 0.0) if self.kind == POINT_ARRAY else 0.0

    @property
    def _illuminations(self) -> tuple:
        return tuple(self.illumination_shifts) or (self._zero,)

    @property
    def channels(self) -> list:
        """Ordered (illumination, detector) channel descriptors: the all-zero
        conventional channel, then every other pair of the product, by
        illumination shift and then by detector shift."""
        zero = (self._zero, self._zero)
        pairs = [(i, d) for i in self._illuminations for d in self.detector_shifts]
        return [zero] + [p for p in pairs if _shift_key(p) != zero]


def _shift_key(s):
    """A shift rounded to 1e-12 for comparison."""
    if isinstance(s, tuple):
        return tuple(_shift_key(v) for v in s)
    return round(float(s), 12)


def _centred(count: int, pitch: float) -> tuple:
    """``count`` shifts at ``pitch``, symmetric about the zero shift."""
    if count < 1 or count % 2 == 0:
        raise ValueError(f"count must be odd and >= 1, got {count}")
    half = count // 2
    return tuple(pitch * i for i in range(-half, half + 1))


def point_grid_geometry(count: int = 5, pitch: float = 0.75) -> ScanGeometry:
    """Square count x count detector-pixel grid centred on the pinhole."""
    axis = _centred(count, pitch)
    return ScanGeometry(kind=POINT_ARRAY, detector_shifts=tuple((x, y) for x in axis for y in axis))


def line_array_geometry(count: int = 7, pitch: float = 0.25) -> ScanGeometry:
    """1D array of detector lines at the given pitch: the cross-shift
    geometry with the one illumination shift zero."""
    return cross_shift_geometry(1, 0.0, count, pitch)


def cross_shift_geometry(
    illum_count: int = 9,
    illum_pitch: float = 0.125,
    det_count: int = 7,
    det_pitch: float = 0.25,
) -> ScanGeometry:
    """Full product of illumination scan shifts and detector lines."""
    return ScanGeometry(
        kind=LINE_ARRAY,
        detector_shifts=_centred(det_count, det_pitch),
        illumination_shifts=_centred(illum_count, illum_pitch),
    )


DEFAULT_POINT_GEOMETRY = point_grid_geometry()
DEFAULT_LINE_GEOMETRY = line_array_geometry()
DEFAULT_CROSS_GEOMETRY = cross_shift_geometry()


@dataclass(frozen=True)
class OtfGrid:
    """One channel's non-negative weight on its grid, as the region masks
    take it; ``analysis.zero_channel_grid`` builds the zero channel's.

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
    """values sampled at r + offset*step, zero outside the grid; ``values``
    itself when every offset is zero."""
    if not any(offsets):
        return values
    out = np.zeros_like(values)
    src = []
    dst = []
    for n, off in zip(values.shape, offsets):
        lo, hi = max(0, -off), min(n, n - off)
        dst.append(slice(lo, hi))
        src.append(slice(lo + off, hi + off))
    out[tuple(dst)] = values[tuple(src)]
    return out


def build_stack(field: FieldGrid, geometry: ScanGeometry) -> OtfStack:
    """Assemble the K x N measurement matrix, one vectorized channel per column,
    every column from the one intensity of the geometry's kind."""
    axes, source = intensity(field, geometry.kind)
    channels = geometry.channels
    columns = np.empty((source.size, len(channels)), dtype=np.float64, order="F")
    for n, (illumination, detector) in enumerate(channels):
        columns[:, n] = channel_weight(source, axes, illumination, detector).ravel()
    return OtfStack(axes=axes, columns=columns, channels=channels)


def intensity(field: FieldGrid, kind: str) -> tuple:
    """The grid axes and the intensity a stack of ``kind`` is built from:
    |U|^2 on (x, y, z) for point scans, the line-focus intensity
    |sum_y U step_y|^2 on (x, z) for line scans."""
    if kind == POINT_ARRAY:
        return (field.axis("x"), field.axis("y"), field.axis("z")), np.abs(field.samples) ** 2
    coherent_line = field.samples.sum(axis=1) * field.spec.step_y
    return (field.axis("x"), field.axis("z")), np.abs(coherent_line) ** 2


def channel_weight(intensity: np.ndarray, axes: tuple, illumination, detector) -> np.ndarray:
    """I(r + illumination) I(r + detector), zero where a shift leaves the grid."""
    lit = _shifted(intensity, _offsets(illumination, axes, "illumination"))
    return lit * _shifted(intensity, _offsets(detector, axes, "detector"))


def _offsets(shift, axes: tuple, role: str) -> tuple:
    """Grid-index offset per axis of a channel shift: (dx, dy) on the point
    grid, dx on the line grid, none along z."""
    parts = shift if isinstance(shift, tuple) else (shift,)
    return tuple(
        _index_offset(s, axis, f"{role} {name}") for s, axis, name in zip(parts, axes, "xy")
    ) + (0,)
