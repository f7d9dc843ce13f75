"""Acceptance criteria, one test per criterion.

Each test asserts the criterion at its stated tolerance and prints a
single pass line (visible with ``pytest -v -s`` or in failure output).
Reference improvement factors: point-scan 7.14 / 6.29 / 5.95 at
none / 30 dB / 20 dB, line-scan 6.88 / 6.51 / 6.02 / 5.11 at
none / 30 / 20 / 10 dB, both taken with a +-30% window.
"""
import math
import time
from pathlib import Path

import numpy as np

import cotf
from cotf.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

POINT_TARGETS = {None: 7.14, 30.0: 6.29, 20.0: 5.95}
LINE_TARGETS = {None: 6.88, 30.0: 6.51, 20.0: 6.02, 10.0: 5.11}
TOLERANCE = 0.30


def _within(value: float, target: float) -> bool:
    return abs(value - target) <= TOLERANCE * target


def test_criterion_01_point_improvement_factors():
    start = time.monotonic()
    field = cotf.simulate_field(cotf.DEFAULT_APERTURE, cotf.DEFAULT_GRID)
    stack = cotf.build_stack(field, cotf.DEFAULT_POINT_GEOMETRY)
    mask = cotf.mainlobe_mask(cotf.zero_channel_grid(stack))
    results = cotf.truncation_sweep(stack, mask, [30.0, 20.0])
    elapsed = time.monotonic() - start
    got = {r.policy.threshold_db: r.improvement_factor for r in results}
    for db, target in POINT_TARGETS.items():
        assert _within(got[db], target), (db, got[db], target)
    assert elapsed < 300.0
    print(
        f"criterion 1: PASS (point none/30/20 = "
        f"{got[None]:.3f}/{got[30.0]:.3f}/{got[20.0]:.3f} vs 7.14/6.29/5.95 +-30%, "
        f"{elapsed:.1f}s)"
    )


def test_criterion_02_regularization_monotonicity(point_sweep, line_sweep, cross_sweep):
    for name, sweep in (("point", point_sweep), ("line", line_sweep), ("cross", cross_sweep)):
        factors = [r.improvement_factor for r in sweep]
        assert all(a >= b for a, b in zip(factors, factors[1:])), (name, factors)
    print("criterion 2: PASS (improvement non-increasing in every sweep)")


def test_criterion_03_line_improvement_factors(line_sweep):
    got = {r.policy.threshold_db: r.improvement_factor for r in line_sweep}
    for db, target in LINE_TARGETS.items():
        assert _within(got[db], target), (db, got[db], target)
    print(
        f"criterion 3: PASS (line none/30/20/10 = {got[None]:.3f}/{got[30.0]:.3f}/"
        f"{got[20.0]:.3f}/{got[10.0]:.3f} vs 6.88/6.51/6.02/5.11 +-30%)"
    )


def test_criterion_04_cross_shift_trend(cross_sweep, line_sweep):
    cross = {r.policy.threshold_db: r.improvement_factor for r in cross_sweep}
    line = {r.policy.threshold_db: r.improvement_factor for r in line_sweep}
    loosening = [10.0, 20.0, 30.0, 40.0, None]
    values = [cross[db] for db in loosening]
    assert all(a < b for a, b in zip(values, values[1:])), values
    for db in (None, 30.0, 20.0, 10.0):
        assert cross[db] > line[db], (db, cross[db], line[db])
    print(
        "criterion 4: PASS (cross strictly increases over 5 loosening levels "
        "and beats line at every shared policy)"
    )


def test_criterion_05_single_channel_floor(default_field):
    geometry = cotf.point_grid_geometry(count=1, pitch=0.75)
    stack = cotf.build_stack(default_field, geometry)
    mask = cotf.mainlobe_mask(cotf.zero_channel_grid(stack))
    result = cotf.solve(stack, mask)
    assert abs(result.improvement_factor - 1.0) < 1e-9
    print(f"criterion 5: PASS (single channel improvement = {result.improvement_factor:.12f})")


def test_criterion_06_oracle_equivalence():
    rng = np.random.default_rng(20260814)
    worst = 0.0
    for _ in range(20):
        k = int(rng.integers(10, 51))
        n = int(rng.integers(2, 4))
        t = rng.standard_normal((k, n))
        focal = (rng.random(k) < 0.3).astype(np.uint8)
        if focal.sum() == 0:
            focal[int(rng.integers(k))] = 1
        if focal.sum() == k:
            focal[int(rng.integers(k))] = 0
        t[:, 0] = np.abs(t[:, 0]) + 0.1
        tmat = np.abs(t)
        axes = (np.arange(k, dtype=np.float64),)
        stack = cotf.OtfStack(
            axes=axes, columns=tmat, channels=[(0.0, float(i)) for i in range(n)]
        )
        mask = cotf.RegionMask(axes=axes, focal=focal)
        result = cotf.solve(stack, mask)
        c = rng.standard_normal((n, 100_000))
        c /= np.linalg.norm(c, axis=0)
        tc = tmat @ c
        f = focal.astype(np.float64)
        num = np.einsum("kj,k->j", tc**2, f)
        den = np.einsum("kj,k->j", tc**2, 1.0 - f)
        ok = den > 0
        best = (num[ok] / den[ok]).max()
        assert best <= result.objective * (1 + 1e-9)
        gap = abs(best - result.objective) / result.objective
        assert gap <= 1e-3, gap
        worst = max(worst, gap)
    print(f"criterion 6: PASS (20 stacks, worst relative gap {worst:.2e} <= 1e-3)")


def test_criterion_07_field_properties():
    start = time.monotonic()
    grid = cotf.GridSpec(1.5, 1.5, 3.0, 0.25, 0.25, 0.25)
    field = cotf.simulate_field(cotf.DEFAULT_APERTURE, grid)
    mags = np.abs(field.samples)
    assert np.unravel_index(np.argmax(mags), mags.shape) == field.origin_index
    mirror = np.max(np.abs(mags - mags[:, :, ::-1])) / mags.max()
    assert mirror < 1e-8
    doubled = cotf.simulate_field(
        cotf.ApertureSpec(half_angle=math.pi / 3, n_theta=128, n_phi=256), grid
    )
    convergence = np.max(np.abs(doubled.samples - field.samples)) / mags.max()
    assert convergence < 1e-4
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(
        f"criterion 7: PASS (mirror {mirror:.1e}, doubling {convergence:.1e}, "
        f"{elapsed:.1f}s)"
    )


def test_criterion_08_shift_power_golden(tmp_path, default_field, point_mask):
    shifts = [0.25 * i for i in range(13)]
    curve = cotf.power_vs_shift(default_field, point_mask, shifts)
    mainlobe_radius = 0.625
    beyond = curve.focal[curve.shifts >= mainlobe_radius]
    assert np.all(np.diff(beyond) < 0)
    assert curve.out_of_focus[-1] > curve.focal[-1]

    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        rc = main(["--out", str(out), "--no-cache", "reproduce", "2"])
        assert rc == 0
    first = (out1 / "fig02_power_vs_shift.csv").read_bytes()
    second = (out2 / "fig02_power_vs_shift.csv").read_bytes()
    assert first == second
    got = np.loadtxt(out1 / "fig02_power_vs_shift.csv", delimiter=",", skiprows=1)
    golden = np.loadtxt(GOLDEN_DIR / "fig2.csv", delimiter=",", skiprows=1)
    np.testing.assert_allclose(got, golden, rtol=1e-12, atol=0)
    print("criterion 8: PASS (focal curve falls past the mainlobe, golden CSV to 1e-12, repeat bit-exact)")


def test_criterion_09_coefficient_structure(point_sweep, line_sweep, point_stack, line_stack):
    point_20db = point_sweep[2]
    magnitudes = np.abs(point_20db.coefficients)
    assert magnitudes[0] == magnitudes.max()
    assert point_stack.channels[0] == ((0.0, 0.0), (0.0, 0.0))

    line_20db = line_sweep[2]
    near = [
        c
        for ch, c in zip(line_stack.channels, line_20db.coefficients)
        if abs(abs(ch[1]) - 0.25) < 1e-12
    ]
    assert len(near) == 2
    assert all(c < 0 for c in near)
    print(
        "criterion 9: PASS (point 20 dB center-dominated, line 20 dB near lines negative)"
    )


def test_criterion_10_defocus_ratio(point_stack, point_sweep, cross_stack, cross_sweep):
    point_curve = cotf.defocus_curve(point_stack, point_sweep[2].cotf)
    cross_30db = next(r for r in cross_sweep if r.policy.threshold_db == 30.0)
    cross_curve = cotf.defocus_curve(cross_stack, cross_30db.cotf)
    for name, curve in (("point 20 dB", point_curve), ("cross 30 dB", cross_curve)):
        deep = np.abs(curve.depths) >= 2.0
        assert np.all(curve.ratio[deep] > 1.0), name
    print(
        f"criterion 10: PASS (min deep-plane ratio: point {point_curve.ratio[np.abs(point_curve.depths) >= 2].min():.2f}, "
        f"cross {cross_curve.ratio[np.abs(cross_curve.depths) >= 2].min():.2f})"
    )
