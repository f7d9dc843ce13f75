"""Focal / out-of-focus region masks.

The focal region is the mainlobe of the zero-shift transfer function: an
axis-aligned ellipsoid whose semi-axes are the first-null distances of the
discrete profiles along each axis (first local minimum scanning outward
from the origin).  The complement is the out-of-focus region, so the two
binary vectors always partition the grid.  A depth-target variant centres
mainlobe-sized ellipsoids at +-depth on the axial axis.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .otf import OtfGrid


@dataclass(frozen=True)
class RegionMask:
    axes: tuple
    focal: np.ndarray
    out_of_focus: np.ndarray
    target_depth: float = 0.0

    def __post_init__(self):
        if self.focal.shape != self.out_of_focus.shape:
            raise ValueError("focal and out-of-focus vectors differ in shape")
        if not np.array_equal(self.focal + self.out_of_focus, np.ones_like(self.focal)):
            raise ValueError("masks must partition the grid: f + g = 1 everywhere")
        if self.focal.sum() == 0:
            raise ValueError("focal region is empty")

    @property
    def node_count(self) -> int:
        return self.focal.size

    def origin_node(self) -> int:
        shape = tuple(a.size for a in self.axes)
        return int(np.ravel_multi_index(tuple(n // 2 for n in shape), shape))


def first_null_distance(profile: np.ndarray, coords: np.ndarray) -> float:
    """Distance of the first local minimum of ``profile`` scanned outward.

    ``profile`` starts at the origin sample; ``coords`` are the matching
    non-negative axis coordinates.  Ties break toward the smaller radius.
    """
    diffs = np.diff(profile)
    stops = np.flatnonzero(diffs >= 0)
    if stops.size == 0:
        raise ValueError("no local minimum found within the grid; enlarge the grid")
    return float(coords[stops[0]])


def _ellipsoid(axes: tuple, radii: tuple, z_center: float = 0.0) -> np.ndarray:
    """Binary mask of an axis-aligned ellipsoid; boundary nodes count inside."""
    acc = np.zeros(tuple(a.size for a in axes))
    for dim, (coord, radius) in enumerate(zip(axes, radii)):
        offset = z_center if dim == len(axes) - 1 else 0.0
        shape = [1] * len(axes)
        shape[dim] = coord.size
        acc = acc + ((coord - offset) / radius).reshape(shape) ** 2
    return (acc <= 1.0 + 1e-12).astype(np.uint8)


def mainlobe_radii(reference_otf: OtfGrid) -> tuple:
    """First-null semi-axes of the zero-shift OTF, one per grid dimension."""
    _require_zero_channel(reference_otf)
    center = reference_otf.origin_index
    radii = []
    for dim, coord in enumerate(reference_otf.axes):
        sel = list(center)
        sel[dim] = slice(center[dim], None)
        profile = reference_otf.values[tuple(sel)]
        radii.append(first_null_distance(profile, coord[center[dim]:]))
    return tuple(radii)


def mainlobe_mask(reference_otf: OtfGrid) -> RegionMask:
    """Focal region = first-null ellipsoid of the zero-shift OTF."""
    radii = mainlobe_radii(reference_otf)
    focal = _ellipsoid(reference_otf.axes, radii).ravel()
    return RegionMask(
        axes=reference_otf.axes,
        focal=focal,
        out_of_focus=(1 - focal).astype(np.uint8),
        target_depth=0.0,
    )


def depth_target_mask(reference_otf: OtfGrid, depth: float) -> RegionMask:
    """Focal region = union of mainlobe-sized ellipsoids at z = +-depth.

    The two lobes enforce the axial mirror symmetry inherited from the
    transfer functions.  Whether the origin stays inside depends on the
    axial semi-axis c: the origin is excluded exactly when |depth| > c.
    """
    radii = mainlobe_radii(reference_otf)
    axial_extent = float(reference_otf.axes[-1][-1])
    if abs(depth) + radii[-1] > axial_extent + 1e-12:
        raise ValueError(
            f"depth {depth} plus mainlobe half-length {radii[-1]} exceeds grid extent {axial_extent}"
        )
    lobe_up = _ellipsoid(reference_otf.axes, radii, z_center=abs(depth))
    lobe_down = _ellipsoid(reference_otf.axes, radii, z_center=-abs(depth))
    focal = np.maximum(lobe_up, lobe_down).ravel()
    return RegionMask(
        axes=reference_otf.axes,
        focal=focal,
        out_of_focus=(1 - focal).astype(np.uint8),
        target_depth=float(abs(depth)),
    )


def _require_zero_channel(reference_otf: OtfGrid) -> None:
    ch = reference_otf.channel
    flat = []
    for part in ch:
        flat.extend(part if isinstance(part, tuple) else (part,))
    if any(abs(v) > 1e-12 for v in flat):
        raise ValueError(f"mainlobe mask requires the zero-shift OTF, got channel {ch}")

