"""Scalar focal field of a high-NA objective on a 3D grid.

The field is modeled as a superposition of plane waves over the aperture's
solid-angle cone (half-angle alpha), weighted by the sine-condition
apodization sqrt(cos theta).  All lengths are in wavelengths (lambda = 1,
k = 2 pi).  The polar integral uses Gauss-Legendre nodes; the azimuthal
integral uses a uniform (midpoint) rule, which is spectrally accurate for
the periodic integrand.  The quadrature sum is reduced in one fixed order
with no BLAS call, so the field is bit-identical run to run.
"""
from __future__ import annotations

import io
import os
from dataclasses import dataclass

import numpy as np

WAVELENGTH = 1.0
K = 2.0 * np.pi

#: simulate_field refuses grids with more nodes than this.
DEFAULT_NODE_BUDGET = 16_000_000


@dataclass(frozen=True)
class ApertureSpec:
    """Aperture cone of the objective: half-angle and quadrature density."""

    half_angle: float
    n_theta: int = 64
    n_phi: int = 128

    def __post_init__(self):
        if not 0.0 < self.half_angle < np.pi / 2:
            raise ValueError(f"half_angle must lie in (0, pi/2), got {self.half_angle}")
        if self.n_theta < 2:
            raise ValueError("n_theta must be >= 2")
        if self.n_phi < 4:
            raise ValueError("n_phi must be >= 4")

    @property
    def numerical_aperture(self) -> float:
        return float(np.sin(self.half_angle))


@dataclass(frozen=True)
class GridSpec:
    """Sampling grid spanning +-extent per axis; node counts are odd so the
    origin is always exactly a node."""

    extent_x: float
    extent_y: float
    extent_z: float
    step_x: float
    step_y: float
    step_z: float

    def __post_init__(self):
        for name in ("x", "y", "z"):
            ext = getattr(self, f"extent_{name}")
            stp = getattr(self, f"step_{name}")
            if ext <= 0:
                raise ValueError(f"extent_{name} must be > 0, got {ext}")
            if stp <= 0:
                raise ValueError(f"step_{name} must be > 0, got {stp}")
            if stp > ext:
                raise ValueError(f"step_{name} = {stp} exceeds extent_{name} = {ext}")

    def half_count(self, name: str) -> int:
        return int(round(getattr(self, f"extent_{name}") / getattr(self, f"step_{name}")))

    def axis(self, name: str) -> np.ndarray:
        """Node coordinates along one axis ("x", "y" or "z")."""
        h = self.half_count(name)
        return getattr(self, f"step_{name}") * np.arange(-h, h + 1, dtype=np.float64)

    @property
    def shape(self) -> tuple[int, int, int]:
        return tuple(2 * self.half_count(n) + 1 for n in ("x", "y", "z"))

    @property
    def node_count(self) -> int:
        nx, ny, nz = self.shape
        return nx * ny * nz


DEFAULT_GRID = GridSpec(3.0, 3.0, 6.0, 0.125, 0.125, 0.125)
DEFAULT_APERTURE = ApertureSpec(half_angle=np.pi / 3)


@dataclass(frozen=True)
class FieldGrid:
    """Complex field samples over a GridSpec, indexed [ix, iy, iz]."""

    spec: GridSpec
    samples: np.ndarray

    def __post_init__(self):
        if self.samples.shape != self.spec.shape:
            raise ValueError(
                f"sample shape {self.samples.shape} does not match grid {self.spec.shape}"
            )
        if not np.all(np.isfinite(self.samples.view(np.float64))):
            raise ValueError("field samples contain NaN or Inf")

    @property
    def origin_index(self) -> tuple[int, int, int]:
        nx, ny, nz = self.spec.shape
        return (nx // 2, ny // 2, nz // 2)

    def axis(self, name: str) -> np.ndarray:
        return self.spec.axis(name)


def aperture_quadrature(aperture: ApertureSpec):
    """Quadrature nodes and combined weights over the aperture cone.

    Returns (theta, per-theta weights, phi).  The weight bundles the
    apodization, the solid-angle Jacobian sin(theta), the Gauss-Legendre
    weight, and the azimuthal step, so the field is
    i * sum_theta sum_phi w(theta) exp(-i k s.r).
    """
    gl_nodes, gl_weights = np.polynomial.legendre.leggauss(aperture.n_theta)
    theta = 0.5 * aperture.half_angle * (gl_nodes + 1.0)
    w_theta = 0.5 * aperture.half_angle * gl_weights
    d_phi = 2.0 * np.pi / aperture.n_phi
    phi = (np.arange(aperture.n_phi) + 0.5) * d_phi
    weights = np.sqrt(np.cos(theta)) * np.sin(theta) * w_theta * d_phi
    return theta, weights, phi


def simulate_field(aperture: ApertureSpec, grid: GridSpec) -> FieldGrid:
    """Integrate the aperture plane-wave superposition over the grid.

    Deterministic for fixed inputs: the quadrature reduction order per node
    is fixed.  Grids over ``DEFAULT_NODE_BUDGET`` nodes raise MemoryError.
    """
    if grid.node_count > DEFAULT_NODE_BUDGET:
        raise MemoryError(
            f"grid has {grid.node_count} nodes, exceeding the budget of {DEFAULT_NODE_BUDGET}"
        )
    theta, weights, phi = aperture_quadrature(aperture)
    acc = _accumulate(grid.axis("x"), grid.axis("y"), grid.axis("z"), theta, weights, phi)
    return FieldGrid(spec=grid, samples=(1j / WAVELENGTH) * acc)


def _accumulate(x, y, z, theta, weights, phi) -> np.ndarray:
    """sum_theta sum_phi w(theta) e^{-i k s.r} on the tensor grid, before
    the overall prefactor.

    Theta outer, phi summed first, then the axial phasor applied.  Kept out
    of simulate_field so its temporaries are freed before the final scaling.
    """
    kst = K * np.sin(theta)
    cos_phi = np.cos(phi)
    sin_phi = np.sin(phi)
    zph = np.exp(-1j * K * np.cos(theta)[:, None] * z[None, :])
    out = np.zeros((x.size, y.size, z.size), dtype=np.complex128)
    for it in range(kst.size):
        phase = -kst[it] * (
            x[:, None, None] * cos_phi[None, None, :]
            + y[None, :, None] * sin_phi[None, None, :]
        )
        p = np.exp(1j * phase).sum(axis=-1)
        out += (weights[it] * p)[:, :, None] * zph[it][None, None, :]
    return out


def radial_profile(field: FieldGrid, z: float):
    """Azimuthally averaged intensity |U|^2 versus transverse radius at depth z.

    ``z`` must coincide with a grid plane.  Returns (radii, intensities)
    arrays sorted by radius.
    """
    zs = field.axis("z")
    iz = int(np.argmin(np.abs(zs - z)))
    if abs(zs[iz] - z) > 1e-9:
        raise ValueError(f"z = {z} is not a grid plane (nearest: {zs[iz]})")
    xs, ys = field.axis("x"), field.axis("y")
    rr = np.hypot(xs[:, None], ys[None, :]).ravel()
    intens = np.abs(field.samples[:, :, iz]).ravel() ** 2
    # Group nodes sharing the same radius (up to float noise) and average.
    order = np.argsort(rr, kind="stable")
    rr, intens = rr[order], intens[order]
    boundaries = np.flatnonzero(np.diff(rr) > 1e-9) + 1
    groups = np.split(np.arange(rr.size), boundaries)
    radii = np.array([rr[g[0]] for g in groups])
    means = np.array([intens[g].mean() for g in groups])
    return radii, means


# ---------------------------------------------------------------------------
# binary cache format: ASCII key=value header, then little-endian complex128
# samples (re, im float64 pairs) with x varying fastest.

_MAGIC = "cotf-field-v1"


def dump_field(field: FieldGrid, path) -> None:
    spec = field.spec
    header = io.StringIO()
    header.write(f"format={_MAGIC}\n")
    for name in ("x", "y", "z"):
        header.write(f"extent_{name}={getattr(spec, 'extent_' + name)!r}\n")
        header.write(f"step_{name}={getattr(spec, 'step_' + name)!r}\n")
    header.write("data=complex128-le-interleaved-xfastest\n")
    header.write("end=1\n")
    tmp = f"{path}.{os.getpid()}.tmp"  # renamed over path: never seen partial
    with open(tmp, "wb") as fh:
        fh.write(header.getvalue().encode("ascii"))
        fh.write(field.samples.astype("<c16", copy=False).ravel(order="F"))
    os.replace(tmp, path)


def load_field(path) -> FieldGrid:
    with open(path, "rb") as fh:
        keys = {}
        while True:
            line = fh.readline().decode("ascii").strip()
            if not line:
                raise ValueError("truncated field file header")
            key, _, value = line.partition("=")
            keys[key] = value
            if key == "end":
                break
        if keys.get("format") != _MAGIC:
            raise ValueError(f"not a field cache file: {path}")
        missing = [f"{w}_{n}" for w in ("extent", "step") for n in "xyz" if f"{w}_{n}" not in keys]
        if missing:
            raise ValueError(f"field file header lacks {', '.join(missing)}: {path}")
        spec = GridSpec(*(float(keys[f"extent_{n}"]) for n in "xyz"),
                        *(float(keys[f"step_{n}"]) for n in "xyz"))
        payload = fh.read()
    if len(payload) != 16 * spec.node_count:
        raise ValueError(f"field payload has {len(payload)} bytes, expected {16 * spec.node_count}")
    samples = np.frombuffer(payload, dtype="<c16").reshape(spec.shape, order="F")
    return FieldGrid(spec=spec, samples=np.ascontiguousarray(samples))
