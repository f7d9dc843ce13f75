"""Derived figures of merit: defocus rejection, shift sweeps, aperture
sweeps, sections, and their CSV emitters.

Everything here consumes the measurement stack and a coefficient vector;
nothing feeds back into the optimizer.  Plane sums follow the convention
that the combined transfer function is summed in absolute value (it has
negative sidelobes by design), while the conventional channel is summed
raw (it is non-negative).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .debye import DEFAULT_GRID, ApertureSpec, FieldGrid, GridSpec, simulate_field
from .optimizer import CombinationResult, TruncationPolicy, solve
from .otf import OtfGrid, OtfStack, ScanGeometry, build_stack, point_otf
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
    focal = np.empty(len(shifts))
    oof = np.empty(len(shifts))
    for n, s in enumerate(shifts):
        v = point_otf(field, (float(s), 0.0)).values.ravel()
        focal[n] = float(v @ f)
        oof[n] = float(v @ g)
    return ShiftPowerCurve(shifts=np.asarray(shifts, dtype=np.float64), focal=focal, out_of_focus=oof)


# ---------------------------------------------------------------------------
# aperture sweep

def na_sweep(
    half_angles: Sequence[float],
    geometry: ScanGeometry,
    mask_builder: Callable[[OtfGrid], RegionMask] = mainlobe_mask,
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
        mask = mask_builder(zero_channel_grid(stack))
        results = [solve(stack, mask, p) for p in policies]
        rows.append(
            {
                "half_angle": float(alpha),
                "numerical_aperture": aperture.numerical_aperture,
                "improvement_factors": [r.improvement_factor for r in results],
                "objectives": [r.objective for r in results],
                "ranks_used": [r.rank_used for r in results],
            }
        )
    return rows


# ---------------------------------------------------------------------------
# sections and CSV emitters

def axial_section(axes: tuple, values: np.ndarray) -> tuple:
    """(x, z, matrix) cross-section through y = 0; rows are z, columns x."""
    if values.ndim == 3:
        iy = axes[1].size // 2
        matrix = values[:, iy, :].T
    else:
        matrix = values.T
    return axes[0], axes[-1], np.ascontiguousarray(matrix)


def export_defocus_csv(curve: DefocusCurve, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("depth,conventional,computational,ratio\n")
        for row in zip(curve.depths, curve.conventional, curve.computational, curve.ratio):
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def export_shift_power_csv(curve: ShiftPowerCurve, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("shift,focal_power,out_of_focus_power\n")
        for row in zip(curve.shifts, curve.focal, curve.out_of_focus):
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def export_section_csv(axes: tuple, values: np.ndarray, path) -> None:
    """Axial section as a matrix: first column z, remaining columns one per x."""
    x, z, matrix = axial_section(axes, values)
    with open(path, "w", newline="") as fh:
        fh.write("z\\x," + ",".join(f"{v:.17g}" for v in x) + "\n")
        for zi, row in zip(z, matrix):
            fh.write(f"{zi:.17g}," + ",".join(f"{v:.17g}" for v in row) + "\n")


def export_coefficients_csv(stack: OtfStack, result: CombinationResult, path) -> None:
    """One row per channel in column order: shifts then coefficient."""
    point_like = isinstance(stack.channels[0][1], tuple)
    with open(path, "w", newline="") as fh:
        if point_like:
            fh.write("illumination_x,illumination_y,detector_x,detector_y,coefficient\n")
            for ch, c in zip(stack.channels, result.coefficients):
                (ix, iy), (dx, dy) = ch
                fh.write(f"{ix:.17g},{iy:.17g},{dx:.17g},{dy:.17g},{c:.17g}\n")
        else:
            fh.write("illumination_x,detector_x,coefficient\n")
            for ch, c in zip(stack.channels, result.coefficients):
                fh.write(f"{ch[0]:.17g},{ch[1]:.17g},{c:.17g}\n")


def export_sweep_csv(results: Sequence[CombinationResult], path) -> None:
    """Objective and improvement per truncation level; first row untruncated."""
    with open(path, "w", newline="") as fh:
        fh.write("threshold_db,rank_used,objective,improvement_factor\n")
        for res in results:
            db = res.policy.threshold_db
            label = "none" if db is None else f"{db:.17g}"
            fh.write(
                f"{label},{res.rank_used},{res.objective:.17g},{res.improvement_factor:.17g}\n"
            )


def export_na_sweep_csv(rows: Sequence[dict], policies: Sequence[TruncationPolicy], path) -> None:
    labels = [
        "none" if p.threshold_db is None else f"{p.threshold_db:g}dB" for p in policies
    ]
    with open(path, "w", newline="") as fh:
        fh.write("half_angle_rad,numerical_aperture," + ",".join(f"improvement_{l}" for l in labels) + "\n")
        for row in rows:
            vals = ",".join(f"{v:.17g}" for v in row["improvement_factors"])
            fh.write(f"{row['half_angle']:.17g},{row['numerical_aperture']:.17g},{vals}\n")
