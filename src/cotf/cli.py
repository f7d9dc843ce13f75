"""Command-line driver.

Subcommands cover the pipeline stages (field, otfs, optimize, analyze,
sweep) plus ``reproduce``, which regenerates the reference figure datasets
listed in ``FIGURES``.  All artifacts land in the output directory together
with a ``manifest.json`` listing each file's SHA-256; identical
configurations produce bit-identical artifacts.  Every CSV is written by
``Runner.emit_csv``, every number in it at ``.17g``, and every JSON file by
``_write_json``.

Exit codes: 0 success, 2 configuration error, 3 runtime/numerical failure.
"""
from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import sys
from dataclasses import asdict, astuple, dataclass, replace
from pathlib import Path
from typing import NamedTuple

from . import analysis, debye, optimizer, otf, regions


class ConfigError(ValueError):
    """Configuration file or value problem; maps to exit code 2."""


#: INI key -> (dataclass field or factory argument, cast).  A key the INI
#: leaves out is not passed, so the dataclass or factory default applies.
_APERTURE_KEYS = {
    "half_angle_deg": ("half_angle", lambda raw: math.radians(float(raw))),
    "n_theta": ("n_theta", int),
    "n_phi": ("n_phi", int),
}
_GRID_KEYS = {
    f"{what}_{ax}_wavelengths": (f"{what}_{ax}", float) for what in ("extent", "step") for ax in "xyz"
}
_DETECTOR_KEYS = {"det_count": ("count", int), "det_pitch_wavelengths": ("pitch", float)}
_GEOMETRY_FACTORIES = {
    "point": (otf.point_grid_geometry, _DETECTOR_KEYS),
    "line": (otf.line_array_geometry, _DETECTOR_KEYS),
    "cross": (otf.cross_shift_geometry, {
        "det_count": ("det_count", int),
        "det_pitch_wavelengths": ("det_pitch", float),
        "illum_count": ("illum_count", int),
        "illum_pitch_wavelengths": ("illum_pitch", float),
    }),
}

_SCHEMA = {
    "aperture": set(_APERTURE_KEYS),
    "grid": set(_GRID_KEYS),
    "geometry": {"kind", *_GEOMETRY_FACTORIES["cross"][1]},
    "mask": {"kind", "depth_wavelengths"},
    "policies": {"levels"},
    "outputs": {"db_convention"},
}

_MASK_KINDS = ("mainlobe", "depth_target")


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters; constructed only through load_config."""

    aperture: debye.ApertureSpec = debye.DEFAULT_APERTURE
    grid: debye.GridSpec = debye.DEFAULT_GRID
    geometry: otf.ScanGeometry = otf.DEFAULT_POINT_GEOMETRY
    mask_depth: float | None = None  # depth-target depth; None selects the mainlobe mask
    levels: tuple = (None, 30.0, 20.0, 10.0)
    convention: str = optimizer.POWER

    def field_key(self) -> str:
        """Cache key over every field of the aperture and grid specs, which
        are all the field stage depends on."""
        payload = {**asdict(self.aperture), "grid": astuple(self.grid)}
        blob = json.dumps(payload, sort_keys=True).encode("ascii")
        return hashlib.sha256(blob).hexdigest()[:16]


def _validate_sections(parser: configparser.ConfigParser, path) -> None:
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"{path}: unknown key {key!r} in section [{section}]")


def _get(parser, section, key, cast, default):
    if not parser.has_option(section, key):
        return default
    raw = parser.get(section, key)
    try:
        return cast(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc


def _given(parser, section: str, keys: dict) -> dict:
    """{argument: value} for each of ``keys`` that ``section`` sets."""
    return {
        arg: _get(parser, section, key, cast, None)
        for key, (arg, cast) in keys.items()
        if parser.has_option(section, key)
    }


def _parse_levels(raw: str) -> tuple:
    levels = []
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        levels.append(None if token.lower() == "none" else float(token))
    if not levels:
        raise ValueError("at least one level required")
    if len(set(levels)) != len(levels):
        raise ValueError("levels must not repeat")
    return tuple(levels)


def load_config(path: str | None) -> RunConfig:
    """Parse and validate an INI configuration; None loads pure defaults.
    Every default is that of ``RunConfig``, its specs or the geometry
    factories."""
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";", "#"))
    if path is not None:
        read = parser.read(path)
        if not read:
            raise ConfigError(f"cannot read config file {path}")
        _validate_sections(parser, path)

    aperture_args = _given(parser, "aperture", _APERTURE_KEYS)
    grid_args = _given(parser, "grid", _GRID_KEYS)
    mask_kind = _get(parser, "mask", "kind", str, "mainlobe")
    mask_depth = _get(parser, "mask", "depth_wavelengths", float, RunConfig.mask_depth)
    levels = _get(parser, "policies", "levels", _parse_levels, RunConfig.levels)
    convention = _get(parser, "outputs", "db_convention", str, RunConfig.convention)

    try:
        aperture = replace(debye.DEFAULT_APERTURE, **aperture_args)
        grid = replace(debye.DEFAULT_GRID, **grid_args)
        geometry = _build_geometry(parser)
        for db in levels:
            optimizer.TruncationPolicy(threshold_db=db, convention=convention)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    if mask_kind not in _MASK_KINDS:
        raise ConfigError(f"[mask] kind must be one of {_MASK_KINDS}, got {mask_kind!r}")
    if mask_kind == "mainlobe" and mask_depth is not None:
        raise ConfigError("[mask] depth_wavelengths only applies to kind = depth_target")
    if mask_kind == "depth_target" and mask_depth is None:
        raise ConfigError("[mask] kind = depth_target requires depth_wavelengths")

    return RunConfig(
        aperture=aperture,
        grid=grid,
        geometry=geometry,
        mask_depth=mask_depth,
        levels=levels,
        convention=convention,
    )


def _build_geometry(parser) -> otf.ScanGeometry:
    kind = _get(parser, "geometry", "kind", str, "point")
    if kind not in _GEOMETRY_FACTORIES:
        kinds = tuple(_GEOMETRY_FACTORIES)
        raise ValueError(f"[geometry] kind must be one of {kinds}, got {kind!r}")
    factory, keys = _GEOMETRY_FACTORIES[kind]
    if any(parser.has_option("geometry", key) for key in _SCHEMA["geometry"] - {"kind", *keys}):
        raise ValueError("[geometry] illumination keys only apply to kind = cross")
    return factory(**_given(parser, "geometry", keys))


# ---------------------------------------------------------------------------
# staged pipeline with field caching and a manifest

class Runner:
    """Pipeline stages, each built once per run and memoized under the frozen
    spec it depends on: the field under (aperture, grid), a channel stack
    under its ``ScanGeometry`` and that stack's mainlobe mask under
    (geometry, "mainlobe").  Depth-target masks are built per call: holding
    fig07's raised the peak memory of ``reproduce 1 ... 13``."""

    def __init__(self, cfg: RunConfig, out_dir: Path, use_cache: bool):
        self.cfg = cfg
        self.out = out_dir
        self.use_cache = use_cache
        self.emitted: dict[str, str] = {}
        self._memo: dict = {}
        self.out.mkdir(parents=True, exist_ok=True)

    def _memoized(self, key, build):
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    # -- stages ------------------------------------------------------------

    def field(self) -> debye.FieldGrid:
        return self._memoized((self.cfg.aperture, self.cfg.grid), self._load_or_simulate_field)

    def _load_or_simulate_field(self) -> debye.FieldGrid:
        cache_file = self.out / "cache" / f"field-{self.cfg.field_key()}.bin"
        if self.use_cache and cache_file.exists():
            try:
                return debye.load_field(cache_file)
            except ValueError as exc:
                print(f"warning: recomputing unreadable {cache_file}: {exc}", file=sys.stderr)
        field = debye.simulate_field(self.cfg.aperture, self.cfg.grid)
        if self.use_cache:
            cache_file.parent.mkdir(parents=True, exist_ok=True)
            debye.dump_field(field, cache_file)
        return field

    def stack(self, geometry: otf.ScanGeometry) -> otf.OtfStack:
        return self._memoized(geometry, lambda: otf.build_stack(self.field(), geometry))

    def mask(self, geometry: otf.ScanGeometry, depth: float | None) -> regions.RegionMask:
        """The stack's mainlobe mask, or its depth-target mask at ``depth``."""
        if depth is not None:
            return regions.depth_target_mask(analysis.zero_channel_grid(self.stack(geometry)), depth)
        return self._memoized(
            (geometry, "mainlobe"),
            lambda: regions.mainlobe_mask(analysis.zero_channel_grid(self.stack(geometry))),
        )

    def policy(self, db: float | None) -> optimizer.TruncationPolicy:
        return optimizer.TruncationPolicy(threshold_db=db, convention=self.cfg.convention)

    def sweep(self, stack, mask, levels) -> list:
        """The untruncated result, then one per dB level in the order given
        (``None`` levels are skipped), all from one factorization."""
        db_levels = [db for db in levels if db is not None]
        return optimizer.truncation_sweep(stack, mask, db_levels, self.cfg.convention)

    # -- emission ----------------------------------------------------------

    def emit(self, name: str, writer) -> Path:
        path = self.out / name
        writer(path)
        self.emitted[name] = hashlib.sha256(path.read_bytes()).hexdigest()
        return path

    def emit_csv(self, name: str, header, rows) -> Path:
        """The header, then one line per row: strings as given, every number
        at ``.17g``, so the text reads back to the same float."""

        def writer(path):
            with open(path, "w", newline="") as fh:
                for row in (header, *rows):
                    fh.write(",".join(v if isinstance(v, str) else f"{v:.17g}" for v in row) + "\n")

        return self.emit(name, writer)

    def emit_json(self, name: str, payload) -> Path:
        return self.emit(name, lambda path: _write_json(path, payload))

    def write_manifest(self, command: str) -> None:
        manifest = {"command": command, "files": dict(sorted(self.emitted.items()))}
        _write_json(self.out / "manifest.json", manifest)


def _write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _level_label(db: float | None) -> str:
    return "none" if db is None else f"{db:g}db"


def _by_level(levels, results) -> list:
    """(level, result) pairs in the order of ``levels`` from one
    ``Runner.sweep``'s results; the ``None`` level is its untruncated result."""
    untruncated, *truncated = results
    by_db = iter(truncated)
    return [(db, untruncated if db is None else next(by_db)) for db in levels]


# ---------------------------------------------------------------------------
# products: one row builder each for ``Runner.emit_csv``, called by the
# subcommands and the figures

def _emit_section(runner: Runner, name: str, axes: tuple, values) -> None:
    """Axial section as a matrix: first column z, remaining columns one per x."""
    x, z, matrix = analysis.axial_section(axes, values)
    runner.emit_csv(name, ("z\\x", *x), ((zi, *row) for zi, row in zip(z, matrix)))


def _emit_zero_section(runner: Runner, name: str, stack: otf.OtfStack) -> None:
    _emit_section(runner, name, stack.axes, analysis.zero_channel_grid(stack).values)


def _emit_radial_profile(runner: Runner, name: str) -> None:
    radii, intensities = debye.radial_profile(runner.field(), 0.0)
    runner.emit_csv(name, ("radius", "intensity"), zip(radii, intensities))


def _emit_shift_power(runner: Runner, name: str, mask: regions.RegionMask) -> None:
    """Point-scan power for detector shifts 0 .. extent_x at twice the grid step."""
    step = 2.0 * runner.cfg.grid.step_x
    count = int(math.floor(runner.cfg.grid.extent_x / step)) + 1
    curve = analysis.power_vs_shift(runner.field(), mask, [step * i for i in range(count)])
    header = ("shift", "focal_power", "out_of_focus_power")
    runner.emit_csv(name, header, zip(curve.shifts, curve.focal, curve.out_of_focus))


def _emit_coefficients(runner: Runner, name: str, stack: otf.OtfStack, result) -> None:
    """One row per channel in column order: shifts, (x, y) on point scans,
    then coefficient."""
    point = isinstance(stack.channels[0][1], tuple)
    axes = ("x", "y") if point else ("x",)
    header = (*(f"{role}_{a}" for role in ("illumination", "detector") for a in axes), "coefficient")
    rows = ((*(ill + det if point else (ill, det)), c)
            for (ill, det), c in zip(stack.channels, result.coefficients))
    runner.emit_csv(name, header, rows)


def _emit_cotf_section(runner: Runner, name: str, stack: otf.OtfStack, result) -> None:
    _emit_section(runner, name, stack.axes, analysis.reshape_node_vector(stack, result.cotf))


def _emit_defocus(runner: Runner, name: str, stack: otf.OtfStack, result) -> None:
    curve = analysis.defocus_curve(stack, result.cotf)
    header = ("depth", "conventional", "computational", "ratio")
    runner.emit_csv(name, header, zip(curve.depths, curve.conventional, curve.computational, curve.ratio))


def _emit_sweep(runner: Runner, name: str, results: list) -> None:
    """Objective and improvement per truncation level; first row untruncated."""
    header = ("threshold_db", "rank_used", "objective", "improvement_factor")
    rows = ((r.policy.threshold_db or "none", r.rank_used, r.objective, r.improvement_factor)
            for r in results)
    runner.emit_csv(name, header, rows)


def _emit_na_sweep(runner: Runner, name: str, geometry: otf.ScanGeometry, db: float) -> None:
    """Improvement at ``db`` for half-angles 45-60 degrees, mainlobe mask."""
    aperture = runner.cfg.aperture
    sweep = analysis.na_sweep(
        [math.radians(a) for a in (45.0, 50.0, 55.0, 60.0)], geometry, policies=[runner.policy(db)],
        grid=runner.cfg.grid, n_theta=aperture.n_theta, n_phi=aperture.n_phi,
    )
    header = ("half_angle_rad", "numerical_aperture", f"improvement_{db:g}dB")
    rows = ((r["half_angle"], r["numerical_aperture"], *r["improvement_factors"]) for r in sweep)
    runner.emit_csv(name, header, rows)


# ---------------------------------------------------------------------------
# subcommand handlers: the config's geometry, mask and levels

def _configured(runner: Runner) -> tuple:
    """The config's stack and mask."""
    geometry = runner.cfg.geometry
    return runner.stack(geometry), runner.mask(geometry, runner.cfg.mask_depth)


def _cmd_field(runner: Runner) -> None:
    field = runner.field()
    runner.emit("field.bin", lambda p: debye.dump_field(field, p))
    _emit_radial_profile(runner, "radial_profile.csv")


def _cmd_otfs(runner: Runner) -> None:
    stack = runner.stack(runner.cfg.geometry)
    runner.emit_json("stack_meta.json", {
        "grid_shape": stack.grid_shape,
        "node_count": stack.node_count,
        "channel_count": stack.channel_count,
        "channels": [{"illumination": ill, "detector": det} for ill, det in stack.channels],
    })
    _emit_zero_section(runner, "otf0_section.csv", stack)


def _cmd_optimize(runner: Runner) -> None:
    stack, mask = _configured(runner)
    levels = runner.cfg.levels
    results = runner.sweep(stack, mask, levels)
    for db, result in _by_level(levels, results):
        label = _level_label(db)
        runner.emit_json(f"combination_{label}.json", result.to_json_dict())
        _emit_coefficients(runner, f"coefficients_{label}.csv", stack, result)
        _emit_cotf_section(runner, f"cotf_section_{label}.csv", stack, result)
    if len(levels) > 1:  # the layout of the sweep subcommand's sweep.csv
        _emit_sweep(runner, "sweep.csv", results)


def _cmd_analyze(runner: Runner) -> None:
    stack, mask = _configured(runner)
    levels = runner.cfg.levels
    for db, result in _by_level(levels, runner.sweep(stack, mask, levels)):
        _emit_defocus(runner, f"defocus_{_level_label(db)}.csv", stack, result)
    if runner.cfg.geometry.kind == otf.POINT_ARRAY:
        _emit_shift_power(runner, "shift_power.csv", mask)


def _cmd_sweep(runner: Runner) -> None:
    stack, mask = _configured(runner)
    results = runner.sweep(stack, mask, runner.cfg.levels)
    _emit_sweep(runner, "sweep.csv", results)
    runner.emit_json("sweep.json", [r.to_json_dict() for r in results])


# -- figure reproduction -----------------------------------------------------

class Figure(NamedTuple):
    """One figure dataset: the channel layout it runs on, its products as
    ``product`` or ``product:file stem``, the dB levels they use and the depth
    of a depth-target mask (None selects the mainlobe mask)."""

    geometry: otf.ScanGeometry
    products: tuple
    levels: tuple = ()
    depth: float | None = None


_POINT = otf.DEFAULT_POINT_GEOMETRY
_LINE = otf.DEFAULT_LINE_GEOMETRY
_CROSS = otf.DEFAULT_CROSS_GEOMETRY

#: Figures take their geometry, mask and levels from here; from the config
#: they take only the aperture, the grid and the dB convention.  fig05/fig06
#: and fig12/fig13 are one product each.
FIGURES = {
    1: Figure(_POINT, ("zero_section:section", "radial_profile:radial")),
    2: Figure(_POINT, ("shift_power:power_vs_shift",)),
    3: Figure(_POINT, ("coefficients",), (None, 30.0, 20.0)),
    4: Figure(_POINT, ("cotf_section", "zero_section:conventional_section"), (20.0,)),
    5: Figure(_POINT, ("defocus",), (20.0,)),
    6: Figure(_POINT, ("defocus",), (20.0,)),
    7: Figure(_POINT, ("coefficients", "cotf_section"), (20.0,), depth=1.0),
    8: Figure(_POINT, ("na_sweep",), (20.0,)),
    9: Figure(_LINE, ("coefficients",), (None, 10.0)),
    10: Figure(_CROSS, ("sweep",), (40.0, 30.0, 20.0, 10.0)),
    11: Figure(_CROSS, ("cotf_section",), (30.0,)),
    12: Figure(_CROSS, ("defocus",), (30.0,)),
    13: Figure(_CROSS, ("defocus",), (30.0,)),
}

# Products written once per solved level.
_LEVEL_WRITERS = {
    "coefficients": _emit_coefficients,
    "cotf_section": _emit_cotf_section,
    "defocus": _emit_defocus,
}


def _reproduce_figure(runner: Runner, figure: int) -> None:
    geometry, products, levels, depth = FIGURES[figure]
    solved = None
    for entry in products:
        product, _, stem = entry.partition(":")
        name = f"fig{figure:02d}_{stem or product}"
        if product == "zero_section":
            _emit_zero_section(runner, f"{name}.csv", runner.stack(geometry))
        elif product == "radial_profile":
            _emit_radial_profile(runner, f"{name}.csv")
        elif product == "shift_power":
            _emit_shift_power(runner, f"{name}.csv", runner.mask(geometry, depth))
        elif product == "na_sweep":
            _emit_na_sweep(runner, f"{name}.csv", geometry, *levels)
        elif product == "sweep":
            results = runner.sweep(runner.stack(geometry), runner.mask(geometry, depth), levels)
            _emit_sweep(runner, f"{name}.csv", results)
        else:  # one file per level, each level solved once and labelled if there are several
            stack = runner.stack(geometry)
            if solved is None:
                mask = runner.mask(geometry, depth)
                solved = [(db, optimizer.solve(stack, mask, runner.policy(db))) for db in levels]
            for db, result in solved:
                label = f"_{_level_label(db)}" if len(solved) > 1 else ""
                _LEVEL_WRITERS[product](runner, f"{name}{label}.csv", stack, result)


def _figure_table() -> str:
    lines = [
        "figures (the config sets only the aperture, the grid and the dB convention):",
        "  id  geometry          mask      levels               products (product:file stem)",
    ]
    for figure, spec in FIGURES.items():
        mask = "mainlobe" if spec.depth is None else f"depth {spec.depth:g}"
        levels = ",".join(_level_label(db) for db in spec.levels) or "-"
        products = ", ".join(spec.products)
        g = spec.geometry  # kind and illumination x detector counts, e.g. line 9x7
        layout = f"{g.kind.partition('_')[0]} {len(g.illumination_shifts) or 1}x{len(g.detector_shifts)}"
        lines.append(f"  {figure:>2}  {layout:<16}  {mask:<8}  {levels:<19}  {products}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# argument parsing and dispatch

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cotf",
        description="Confocal transfer-function simulation and channel-combination optimizer.",
    )
    parser.add_argument("--config", help="INI configuration file")
    parser.add_argument("--out", default="out", help="output directory (default: %(default)s)")
    parser.add_argument("--no-cache", action="store_true", help="disable the field cache")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("field", help="simulate and store the focal field")
    sub.add_parser("otfs", help="build the channel stack and export summaries")
    sub.add_parser("optimize", help="solve for optimal channel combinations")
    sub.add_parser("analyze", help="defocus and shift-power analysis")
    sub.add_parser("sweep", help="truncation-threshold sweep")
    repro = sub.add_parser(
        "reproduce",
        help="regenerate reference figure datasets",
        epilog=_figure_table(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    repro.add_argument(
        "figures", type=int, nargs="+", choices=sorted(FIGURES), metavar="FIGURE",
        help=f"figure numbers ({min(FIGURES)}-{max(FIGURES)})",
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    runner = Runner(cfg, Path(args.out), use_cache=not args.no_cache)
    handlers = {
        "field": _cmd_field,
        "otfs": _cmd_otfs,
        "optimize": _cmd_optimize,
        "analyze": _cmd_analyze,
        "sweep": _cmd_sweep,
    }
    try:
        if args.command == "reproduce":
            for figure in args.figures:
                _reproduce_figure(runner, figure)
        else:
            handlers[args.command](runner)
        runner.write_manifest(args.command)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, MemoryError, optimizer.NumericalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
