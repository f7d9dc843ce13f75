"""Derived figures of merit: defocus rejection, shift sweeps, aperture
sweeps and sections.

Everything here consumes the measurement stack and a coefficient vector;
nothing feeds back into the optimizer.  Nothing here writes a file either:
the command line turns each product into rows for its one CSV writer,
``cli.Runner.emit_csv``.  Plane sums follow the convention that the
combined transfer function is summed in absolute value (it has negative
sidelobes by design), while the conventional channel is summed raw (it is
non-negative).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .debye import DEFAULT_GRID, ApertureSpec, FieldGrid, GridSpec, simulate_field
from .optimizer import TruncationPolicy, solve
from .otf import POINT_ARRAY, OtfGrid, OtfStack, ScanGeometry, build_stack, channel_weight, intensity
from .regions import RegionMask, mainlobe_mask


def reshape_node_vector(stack: OtfStack, vector: np.ndarray) -> np.ndarray:
    """Give a flat node vector back its grid shape."""
    if vector.size != stack.node_count:
        raise ValueError(f"vector has {vector.size} entries, stack has {stack.node_count} nodes")
    return np.asarray(vector).reshape(stack.grid_shape)


def zero_channel_grid(stack: OtfStack) -> OtfGrid:
    """Reconstruct the conventional (column 0) transfer function grid."""
    values = reshape_node_vector(stack, stack.columns[:, 0])
    return OtfGrid(axes=stack.axes, values=values, channel=stack.channels[0])


# ---------------------------------------------------------------------------
# defocus behaviour

@dataclass(frozen=True)
class DefocusCurve:
    """Per-plane weight of the conventional and combined transfer functions.

    Both curves are normalized by their own focal-plane (z = 0) sum, so each
    starts at 1; ``ratio`` > 1 at depth z means the combination rejects that
    plane more strongly than the bare pinhole does.
    """

    depths: np.ndarray
    conventional: np.ndarray
    computational: np.ndarray
    ratio: np.ndarray


def defocus_curve(stack: OtfStack, cotf: np.ndarray) -> DefocusCurve:
    depths = stack.axes[-1]
    iz0 = depths.size // 2
    axes_but_z = tuple(range(len(stack.grid_shape) - 1))

    conv = reshape_node_vector(stack, stack.columns[:, 0]).sum(axis=axes_but_z)
    comp = np.abs(reshape_node_vector(stack, cotf)).sum(axis=axes_but_z)
    if conv[iz0] == 0 or comp[iz0] == 0:
        raise ValueError("focal-plane sum is zero; cannot normalize defocus curve")
    conv = conv / conv[iz0]
    comp = comp / comp[iz0]
    ratio = np.full(depths.size, np.nan)
    np.divide(conv, comp, out=ratio, where=comp > 0)
    return DefocusCurve(depths=depths.copy(), conventional=conv, computational=comp, ratio=ratio)


# ---------------------------------------------------------------------------
# detector-shift sweep

@dataclass(frozen=True)
class ShiftPowerCurve:
    """Collected power inside/outside the focal region vs detector shift."""

    shifts: np.ndarray
    focal: np.ndarray
    out_of_focus: np.ndarray


def power_vs_shift(field: FieldGrid, mask: RegionMask, shifts: Sequence[float]) -> ShiftPowerCurve:
    """Linear power sums of the single-channel weight for transverse detector
    shifts (dx, 0).  Out-of-focus power overtaking focal power marks the
    shift beyond which a detector element sees mostly defocused light."""
    f = mask.focal.astype(np.float64)
    g = mask.out_of_focus.astype(np.float64)
    axes, source = intensity(field, POINT_ARRAY)
    focal = np.empty(len(shifts))
    oof = np.empty(len(shifts))
    for n, s in enumerate(shifts):
        v = channel_weight(source, axes, (0.0, 0.0), (float(s), 0.0)).ravel()
        focal[n] = float(v @ f)
        oof[n] = float(v @ g)
    return ShiftPowerCurve(shifts=np.asarray(shifts, dtype=np.float64), focal=focal, out_of_focus=oof)


# ---------------------------------------------------------------------------
# aperture sweep

def na_sweep(
    half_angles: Sequence[float],
    geometry: ScanGeometry,
    policies: Sequence[TruncationPolicy] = (TruncationPolicy(threshold_db=20.0),),
    grid: GridSpec | None = None,
    n_theta: int = 64,
    n_phi: int = 128,
) -> list:
    """Full pipeline per aperture half-angle (radians): field, stack, mask,
    one solve per policy.  Returns one row dict per half-angle."""
    grid = grid if grid is not None else DEFAULT_GRID
    rows = []
    for alpha in half_angles:
        aperture = ApertureSpec(half_angle=float(alpha), n_theta=n_theta, n_phi=n_phi)
        field = simulate_field(aperture, grid)
        stack = build_stack(field, geometry)
        mask = mainlobe_mask(zero_channel_grid(stack))
        results = [solve(stack, mask, p) for p in policies]
        rows.append(
            {
                "half_angle": float(alpha),
                "numerical_aperture": aperture.numerical_aperture,
                "improvement_factors": [r.improvement_factor for r in results],
            }
        )
    return rows


# ---------------------------------------------------------------------------
# sections

def axial_section(axes: tuple, values: np.ndarray) -> tuple:
    """(x, z, matrix) cross-section through y = 0; rows are z, columns x."""
    if values.ndim == 3:
        iy = axes[1].size // 2
        matrix = values[:, iy, :].T
    else:
        matrix = values.T
    return axes[0], axes[-1], np.ascontiguousarray(matrix)
