"""Analysis tests: defocus curves, shift power, aperture sweep, sections,
and CSV emitters."""
import csv
import math

import numpy as np
import pytest

import cotf
from cotf import analysis


@pytest.fixture(scope="module")
def point_20db(point_stack, point_mask):
    return cotf.solve(point_stack, point_mask, cotf.TruncationPolicy(threshold_db=20.0))


@pytest.fixture(scope="module")
def cross_30db(cross_stack, cross_mask):
    return cotf.solve(cross_stack, cross_mask, cotf.TruncationPolicy(threshold_db=30.0))


def test_zero_channel_grid_roundtrip(default_field, point_stack):
    reference = cotf.zero_channel_grid(point_stack)
    direct = cotf.point_otf(default_field, (0.0, 0.0))
    assert np.array_equal(reference.values, direct.values)


def test_defocus_self_combination_is_flat(point_stack):
    curve = cotf.defocus_curve(point_stack, point_stack.columns[:, 0])
    assert np.allclose(curve.ratio, 1.0, atol=1e-12)
    iz0 = curve.depths.size // 2
    assert curve.conventional[iz0] == 1.0
    assert curve.computational[iz0] == 1.0


def test_point_defocus_rejection(point_stack, point_20db):
    curve = cotf.defocus_curve(point_stack, point_20db.cotf)
    deep = np.abs(curve.depths) >= 2.0
    assert np.all(curve.ratio[deep] > 1.0)
    assert np.isclose(curve.ratio[deep].min(), 1.9384, rtol=1e-3)
    assert np.isclose(curve.ratio[-1], 2.2817, rtol=1e-3)


def test_cross_defocus_rejection_beats_point(cross_stack, cross_30db, point_stack, point_20db):
    cross_curve = cotf.defocus_curve(cross_stack, cross_30db.cotf)
    deep = np.abs(cross_curve.depths) >= 2.0
    assert np.all(cross_curve.ratio[deep] > 1.0)
    assert np.isclose(cross_curve.ratio[deep].min(), 8.4983, rtol=1e-3)
    point_curve = cotf.defocus_curve(point_stack, point_20db.cotf)
    assert cross_curve.ratio[-1] > point_curve.ratio[-1]


def test_shift_power_properties(default_field, point_mask):
    shifts = [0.25 * i for i in range(13)]
    curve = cotf.power_vs_shift(default_field, point_mask, shifts)
    # Energy bookkeeping at zero shift: the two sums partition the total.
    total = cotf.point_otf(default_field, (0.0, 0.0)).values.sum()
    assert np.isclose(curve.focal[0] + curve.out_of_focus[0], total, rtol=1e-12)
    crossover = curve.shifts[np.flatnonzero(curve.out_of_focus > curve.focal)[0]]
    assert crossover == 0.75
    assert curve.out_of_focus[-1] > curve.focal[-1]
    beyond = curve.focal[curve.shifts >= 0.625]
    assert np.all(np.diff(beyond) <= 1e-12 * beyond[0])


def test_na_sweep_frozen_row():
    policies = [cotf.TruncationPolicy(threshold_db=20.0)]
    rows = cotf.na_sweep(
        [math.radians(a) for a in (45.0, 50.0, 55.0, 60.0)],
        cotf.DEFAULT_POINT_GEOMETRY,
        policies=policies,
    )
    improvements = [r["improvement_factors"][0] for r in rows]
    assert np.allclose(improvements, [8.7415, 7.8582, 6.7062, 5.8212], rtol=1e-4)
    spread = (max(improvements) - min(improvements)) / max(improvements)
    assert spread < 0.5
    assert [round(r["numerical_aperture"], 4) for r in rows] == [0.7071, 0.766, 0.8192, 0.866]


def test_na_sweep_matches_direct_pipeline(point_sweep):
    rows = cotf.na_sweep(
        [math.pi / 3],
        cotf.DEFAULT_POINT_GEOMETRY,
        policies=[cotf.TruncationPolicy(threshold_db=20.0)],
    )
    assert np.isclose(rows[0]["improvement_factors"][0], point_sweep[2].improvement_factor, rtol=1e-10)


def test_axial_section_orientation(point_stack, point_20db):
    shaped = analysis.reshape_node_vector(point_stack, point_20db.cotf)
    x, z, matrix = analysis.axial_section(point_stack.axes, shaped)
    assert matrix.shape == (z.size, x.size)
    iy = point_stack.axes[1].size // 2
    assert matrix[3, 5] == shaped[5, iy, 3]


def test_csv_emitters(tmp_path, point_stack, point_mask, point_20db, default_field, point_sweep):
    curve = cotf.defocus_curve(point_stack, point_20db.cotf)
    defocus_path = tmp_path / "defocus.csv"
    analysis.export_defocus_csv(curve, defocus_path)
    with open(defocus_path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == curve.depths.size
    assert float(rows[len(rows) // 2]["ratio"]) == 1.0

    power = cotf.power_vs_shift(default_field, point_mask, [0.0, 0.25])
    power_path = tmp_path / "power.csv"
    analysis.export_shift_power_csv(power, power_path)
    lines = power_path.read_text().splitlines()
    assert lines[0] == "shift,focal_power,out_of_focus_power"
    assert len(lines) == 3

    section_path = tmp_path / "section.csv"
    shaped = analysis.reshape_node_vector(point_stack, point_20db.cotf)
    analysis.export_section_csv(point_stack.axes, shaped, section_path)
    lines = section_path.read_text().splitlines()
    assert len(lines) == 1 + point_stack.axes[2].size
    assert len(lines[1].split(",")) == 1 + point_stack.axes[0].size

    coeff_path = tmp_path / "coeff.csv"
    analysis.export_coefficients_csv(point_stack, point_20db, coeff_path)
    with open(coeff_path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == point_stack.channel_count
    assert np.isclose(float(rows[0]["coefficient"]), point_20db.coefficients[0], rtol=1e-15)

    sweep_path = tmp_path / "sweep.csv"
    analysis.export_sweep_csv(point_sweep, sweep_path)
    with open(sweep_path) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["threshold_db"] for r in rows] == ["none", "30", "20", "10"]
    assert [int(r["rank_used"]) for r in rows] == [25, 25, 14, 2]
