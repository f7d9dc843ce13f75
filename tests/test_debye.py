"""Field-simulation tests: frozen reference values, symmetries, quadrature
convergence, bit determinism, and the binary dump format."""
import struct

import numpy as np
import pytest

import cotf

# |U| at (transverse radius rho, depth z), alpha = 60 deg, independently
# computed with adaptive 1D quadrature on the radially-reduced integral.
REFERENCE_MAGNITUDES = {
    (0.0, 0.0): 2.7078292254,
    (0.25, 0.0): 2.0974801100,
    (0.5, 0.0): 0.7840948096,
    (0.625, 0.0): 0.1917475237,
    (1.0, 0.0): 0.3737831712,
    (1.5, 0.0): 0.2022674794,
    (0.0, 0.5): 2.4415181426,
    (0.0, 1.0): 1.7373336446,
    (0.0, 2.0): 0.1453579514,
    (0.0, 3.0): 0.5703021676,
    (0.25, 0.5): 1.8965454529,
    (0.5, 1.0): 0.7768074212,
}

ANALYTIC_PEAK = (4.0 * np.pi / 3.0) * (1.0 - 2.0 ** -1.5)


def test_reference_magnitudes(default_field):
    xs = default_field.axis("x")
    zs = default_field.axis("z")
    iy = default_field.origin_index[1]
    peak = abs(default_field.samples[default_field.origin_index])
    for (rho, z), expected in REFERENCE_MAGNITUDES.items():
        ix = int(np.argmin(np.abs(xs - rho)))
        iz = int(np.argmin(np.abs(zs - z)))
        got = abs(default_field.samples[ix, iy, iz])
        assert abs(got - expected) < 1e-6 * peak, (rho, z, got, expected)


def test_analytic_peak(default_field):
    peak = abs(default_field.samples[default_field.origin_index])
    assert abs(peak - ANALYTIC_PEAK) < 1e-10 * ANALYTIC_PEAK


def test_peak_at_origin(default_field):
    mags = np.abs(default_field.samples)
    assert np.unravel_index(np.argmax(mags), mags.shape) == default_field.origin_index


def test_axial_mirror_symmetry(default_field):
    mags = np.abs(default_field.samples)
    assert np.max(np.abs(mags - mags[:, :, ::-1])) < 1e-8 * mags.max()


def test_transverse_symmetries(default_field):
    mags = np.abs(default_field.samples)
    ix, iy, iz = default_field.origin_index
    # 90-degree rotation about the axis maps the x profile onto y.
    assert np.max(np.abs(mags[:, iy, :] - mags[ix, :, :])) < 1e-5 * mags.max()
    # Point reflection through the focus.
    assert np.max(np.abs(mags - mags[::-1, ::-1, ::-1])) < 1e-8 * mags.max()


def test_quadrature_doubling_convergence(small_field):
    grid = small_field.spec
    coarse = cotf.simulate_field(cotf.ApertureSpec(half_angle=np.pi / 3, n_theta=64, n_phi=128), grid)
    fine = cotf.simulate_field(cotf.ApertureSpec(half_angle=np.pi / 3, n_theta=128, n_phi=256), grid)
    scale = np.max(np.abs(coarse.samples))
    assert np.max(np.abs(fine.samples - coarse.samples)) < 1e-4 * scale


def test_bit_determinism(small_field):
    grid = small_field.spec
    aperture = cotf.ApertureSpec(half_angle=np.pi / 3, n_theta=24, n_phi=48)
    again = cotf.simulate_field(aperture, grid)
    assert np.array_equal(
        small_field.samples.view(np.float64), again.samples.view(np.float64)
    )


def test_dump_load_roundtrip(small_field, tmp_path):
    path = tmp_path / "field.bin"
    cotf.dump_field(small_field, path)
    loaded = cotf.load_field(path)
    assert loaded.spec == small_field.spec
    assert np.array_equal(
        loaded.samples.view(np.float64), small_field.samples.view(np.float64)
    )


def test_field_file_layout(tmp_path):
    # The payload is little-endian (re, im) float64 pairs, x fastest, so
    # files written by earlier versions keep loading.
    spec = cotf.GridSpec(0.25, 0.5, 0.75, 0.25, 0.25, 0.25)
    nx, ny, nz = spec.shape
    samples = np.empty(spec.shape, dtype=np.complex128)
    for ix, iy, iz in np.ndindex(spec.shape):
        samples[ix, iy, iz] = complex(ix + 10 * iy + 100 * iz, -(ix + 1))
    payload = b"".join(
        struct.pack("<dd", samples[ix, iy, iz].real, samples[ix, iy, iz].imag)
        for iz in range(nz) for iy in range(ny) for ix in range(nx)
    )
    path = tmp_path / "field.bin"
    cotf.dump_field(cotf.FieldGrid(spec=spec, samples=samples), path)
    header, _, written = path.read_bytes().partition(b"end=1\n")
    assert written == payload
    (tmp_path / "by_hand.bin").write_bytes(header + b"end=1\n" + payload)
    loaded = cotf.load_field(tmp_path / "by_hand.bin")
    assert loaded.spec == spec
    assert np.array_equal(loaded.samples, samples)


def test_load_rejects_corrupt_files(small_field, tmp_path):
    path = tmp_path / "field.bin"
    cotf.dump_field(small_field, path)
    data = path.read_bytes()
    (tmp_path / "truncated.bin").write_bytes(data[:-16])
    with pytest.raises(ValueError, match="payload"):
        cotf.load_field(tmp_path / "truncated.bin")
    (tmp_path / "junk.bin").write_bytes(b"not=a-field\nend=1\n")
    with pytest.raises(ValueError):
        cotf.load_field(tmp_path / "junk.bin")
    (tmp_path / "no_step_z.bin").write_bytes(data.replace(b"step_z=0.25\n", b"", 1))
    with pytest.raises(ValueError, match="step_z"):
        cotf.load_field(tmp_path / "no_step_z.bin")


def test_spec_validation():
    with pytest.raises(ValueError, match="half_angle"):
        cotf.ApertureSpec(half_angle=2.0)
    with pytest.raises(ValueError, match="n_theta"):
        cotf.ApertureSpec(half_angle=1.0, n_theta=1)
    with pytest.raises(ValueError, match="extent_x"):
        cotf.GridSpec(-1.0, 1.0, 1.0, 0.25, 0.25, 0.25)
    with pytest.raises(ValueError, match="step_z"):
        cotf.GridSpec(1.0, 1.0, 1.0, 0.25, 0.25, 2.0)


def test_node_budget():
    # 1601^3 nodes: refused before any quadrature runs.
    grid = cotf.GridSpec(100.0, 100.0, 100.0, 0.125, 0.125, 0.125)
    with pytest.raises(MemoryError, match="budget"):
        cotf.simulate_field(cotf.DEFAULT_APERTURE, grid)


def test_grid_axes_hit_origin():
    grid = cotf.GridSpec(1.5, 1.5, 3.0, 0.25, 0.25, 0.25)
    for name in ("x", "y", "z"):
        axis = grid.axis(name)
        assert axis.size % 2 == 1
        assert axis[axis.size // 2] == 0.0


def test_radial_profile_first_null(default_field):
    radii, intensities = cotf.radial_profile(default_field, 0.0)
    assert radii[0] == 0.0
    null = cotf.first_null_distance(intensities, radii)
    # Sqrt(0.25^2 + 0.625^2) on this grid; close to the continuum value 0.70.
    assert abs(null - 0.6731456008918130) < 1e-12
    assert abs(null - 0.70) / 0.70 < 0.15


def test_radial_profile_requires_grid_plane(default_field):
    with pytest.raises(ValueError, match="grid plane"):
        cotf.radial_profile(default_field, 0.1)


def test_quadrature_weights_positive():
    theta, weights, phi = cotf.aperture_quadrature(cotf.DEFAULT_APERTURE)
    assert theta.size == cotf.DEFAULT_APERTURE.n_theta
    assert phi.size == cotf.DEFAULT_APERTURE.n_phi
    assert np.all(weights > 0)
    assert np.all((0 < theta) & (theta < cotf.DEFAULT_APERTURE.half_angle))
