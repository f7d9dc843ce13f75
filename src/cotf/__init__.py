"""cotf: confocal transfer functions and optimal detector-channel combination.

The pipeline has four stages, each usable on its own:

1. :mod:`cotf.debye` — scalar focal-field simulation over a 3D grid.
2. :mod:`cotf.otf` — the measurement matrix: one channel weight per
   column, for point-scan and line-scan (cross-shift) geometries.
3. :mod:`cotf.regions` — focal / out-of-focus grid partitions.
4. :mod:`cotf.optimizer` / :mod:`cotf.analysis` — regularized optimal
   channel weights and derived figures of merit.

``python -m cotf`` (or the ``cotf`` script) drives the same stages from
INI configuration files.
"""
from .analysis import (
    DefocusCurve,
    ShiftPowerCurve,
    defocus_curve,
    na_sweep,
    power_vs_shift,
    reshape_node_vector,
    zero_channel_grid,
)
from .debye import (
    DEFAULT_APERTURE,
    DEFAULT_GRID,
    WAVELENGTH,
    ApertureSpec,
    FieldGrid,
    GridSpec,
    aperture_quadrature,
    dump_field,
    load_field,
    radial_profile,
    simulate_field,
)
from .optimizer import (
    AMPLITUDE,
    POWER,
    CombinationResult,
    NumericalError,
    TruncationPolicy,
    solve,
    truncation_sweep,
)
from .otf import (
    DEFAULT_CROSS_GEOMETRY,
    DEFAULT_LINE_GEOMETRY,
    DEFAULT_POINT_GEOMETRY,
    OtfGrid,
    OtfStack,
    ScanGeometry,
    build_stack,
    cross_shift_geometry,
    line_array_geometry,
    point_grid_geometry,
)
from .regions import (
    RegionMask,
    depth_target_mask,
    first_null_distance,
    mainlobe_mask,
    mainlobe_radii,
)

__version__ = "0.1.0"

__all__ = [
    "AMPLITUDE",
    "ApertureSpec",
    "CombinationResult",
    "DEFAULT_APERTURE",
    "DEFAULT_CROSS_GEOMETRY",
    "DEFAULT_GRID",
    "DEFAULT_LINE_GEOMETRY",
    "DEFAULT_POINT_GEOMETRY",
    "DefocusCurve",
    "FieldGrid",
    "GridSpec",
    "NumericalError",
    "OtfGrid",
    "OtfStack",
    "POWER",
    "RegionMask",
    "ScanGeometry",
    "ShiftPowerCurve",
    "TruncationPolicy",
    "WAVELENGTH",
    "aperture_quadrature",
    "build_stack",
    "cross_shift_geometry",
    "defocus_curve",
    "depth_target_mask",
    "dump_field",
    "first_null_distance",
    "line_array_geometry",
    "load_field",
    "mainlobe_mask",
    "mainlobe_radii",
    "na_sweep",
    "point_grid_geometry",
    "power_vs_shift",
    "radial_profile",
    "reshape_node_vector",
    "simulate_field",
    "solve",
    "truncation_sweep",
    "zero_channel_grid",
]
