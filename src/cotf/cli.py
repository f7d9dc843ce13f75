"""Command-line driver.

Subcommands cover the pipeline stages (field, otfs, optimize, analyze,
sweep) plus ``reproduce``, which regenerates the reference figure datasets
by number.  All artifacts land in the output directory together with a
``manifest.json`` listing each file's SHA-256; identical configurations
produce bit-identical artifacts.

Exit codes: 0 success, 2 configuration error, 3 runtime/numerical failure.
"""
from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import analysis, debye, optimizer, otf, regions

FIGURE_IDS = tuple(range(1, 14))


class ConfigError(ValueError):
    """Configuration file or value problem; maps to exit code 2."""


_SCHEMA = {
    "aperture": {"half_angle_deg", "apodization", "n_theta", "n_phi"},
    "grid": {
        "extent_x_wavelengths",
        "extent_y_wavelengths",
        "extent_z_wavelengths",
        "step_x_wavelengths",
        "step_y_wavelengths",
        "step_z_wavelengths",
    },
    "geometry": {
        "kind",
        "det_count",
        "det_pitch_wavelengths",
        "illum_count",
        "illum_pitch_wavelengths",
    },
    "mask": {"kind", "depth_wavelengths"},
    "policies": {"levels"},
    "outputs": {"directory", "cache", "normalize_columns", "db_convention"},
}

_GEOMETRY_KINDS = ("point", "line", "cross")
_MASK_KINDS = ("mainlobe", "depth_target")


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters; constructed only through load_config."""

    aperture: debye.ApertureSpec = debye.DEFAULT_APERTURE
    grid: debye.GridSpec = debye.DEFAULT_GRID
    geometry_kind: str = "point"
    geometry: otf.ScanGeometry = otf.DEFAULT_POINT_GEOMETRY
    mask_kind: str = "mainlobe"
    mask_depth: float = 0.0
    levels: tuple = (None, 30.0, 20.0, 10.0)
    directory: str = "out"
    cache: bool = True
    normalize_columns: bool = False
    convention: str = optimizer.POWER

    def field_key(self) -> str:
        """Cache key over everything the field stage depends on."""
        payload = {
            "half_angle": self.aperture.half_angle,
            "apodization": self.aperture.apodization,
            "n_theta": self.aperture.n_theta,
            "n_phi": self.aperture.n_phi,
            "grid": [
                self.grid.extent_x, self.grid.extent_y, self.grid.extent_z,
                self.grid.step_x, self.grid.step_y, self.grid.step_z,
            ],
        }
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


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _parse_levels(raw: str) -> tuple:
    levels = []
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        levels.append(None if token.lower() == "none" else float(token))
    if not levels:
        raise ValueError("at least one level required")
    return tuple(levels)


def load_config(path: str | None) -> RunConfig:
    """Parse and validate an INI configuration; None loads pure defaults."""
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";", "#"))
    if path is not None:
        read = parser.read(path)
        if not read:
            raise ConfigError(f"cannot read config file {path}")
        _validate_sections(parser, path)

    half_angle_deg = _get(parser, "aperture", "half_angle_deg", float, 60.0)
    apodization = _get(parser, "aperture", "apodization", str, debye.SINE_CONDITION)
    n_theta = _get(parser, "aperture", "n_theta", int, 64)
    n_phi = _get(parser, "aperture", "n_phi", int, 128)
    grid_vals = [
        _get(parser, "grid", f"{what}_{ax}_wavelengths", float, default)
        for what, ax, default in (
            ("extent", "x", 3.0), ("extent", "y", 3.0), ("extent", "z", 6.0),
            ("step", "x", 0.125), ("step", "y", 0.125), ("step", "z", 0.125),
        )
    ]
    geometry_kind = _get(parser, "geometry", "kind", str, "point")
    det_count = _get(parser, "geometry", "det_count", int, None)
    det_pitch = _get(parser, "geometry", "det_pitch_wavelengths", float, None)
    illum_count = _get(parser, "geometry", "illum_count", int, None)
    illum_pitch = _get(parser, "geometry", "illum_pitch_wavelengths", float, None)
    mask_kind = _get(parser, "mask", "kind", str, "mainlobe")
    mask_depth = _get(parser, "mask", "depth_wavelengths", float, None)
    levels = _get(parser, "policies", "levels", _parse_levels, (None, 30.0, 20.0, 10.0))
    directory = _get(parser, "outputs", "directory", str, "out")
    cache = _get(parser, "outputs", "cache", _parse_bool, True)
    normalize = _get(parser, "outputs", "normalize_columns", _parse_bool, False)
    convention = _get(parser, "outputs", "db_convention", str, optimizer.POWER)

    try:
        aperture = debye.ApertureSpec(
            half_angle=math.radians(half_angle_deg),
            apodization=apodization,
            n_theta=n_theta,
            n_phi=n_phi,
        )
        grid = debye.GridSpec(*grid_vals)
        geometry = _build_geometry(geometry_kind, det_count, det_pitch, illum_count, illum_pitch)
        for db in levels:
            if db is not None:
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
        geometry_kind=geometry_kind,
        geometry=geometry,
        mask_kind=mask_kind,
        mask_depth=mask_depth if mask_depth is not None else 0.0,
        levels=levels,
        directory=directory,
        cache=cache,
        normalize_columns=normalize,
        convention=convention,
    )


def _build_geometry(kind, det_count, det_pitch, illum_count, illum_pitch) -> otf.ScanGeometry:
    if kind not in _GEOMETRY_KINDS:
        raise ValueError(f"[geometry] kind must be one of {_GEOMETRY_KINDS}, got {kind!r}")
    if kind != "cross" and (illum_count is not None or illum_pitch is not None):
        raise ValueError("[geometry] illumination keys only apply to kind = cross")
    if kind == "point":
        return otf.point_grid_geometry(
            count=det_count if det_count is not None else 5,
            pitch=det_pitch if det_pitch is not None else 0.75,
        )
    if kind == "line":
        return otf.line_array_geometry(
            count=det_count if det_count is not None else 7,
            pitch=det_pitch if det_pitch is not None else 0.25,
        )
    return otf.cross_shift_geometry(
        illum_count=illum_count if illum_count is not None else 9,
        illum_pitch=illum_pitch if illum_pitch is not None else 0.125,
        det_count=det_count if det_count is not None else 7,
        det_pitch=det_pitch if det_pitch is not None else 0.25,
    )


# ---------------------------------------------------------------------------
# staged pipeline with field caching and a manifest

class Runner:
    def __init__(self, cfg: RunConfig, out_dir: Path, use_cache: bool):
        self.cfg = cfg
        self.out = out_dir
        self.use_cache = use_cache and cfg.cache
        self.emitted: dict[str, str] = {}
        self._field = None
        self._stack = None
        self._mask = None
        self.out.mkdir(parents=True, exist_ok=True)

    # -- stages ------------------------------------------------------------

    def field(self) -> debye.FieldGrid:
        if self._field is None:
            cache_file = self.out / "cache" / f"field-{self.cfg.field_key()}.bin"
            if self.use_cache and cache_file.exists():
                try:
                    self._field = debye.load_field(cache_file)
                except ValueError as exc:
                    print(f"warning: recomputing unreadable {cache_file}: {exc}", file=sys.stderr)
            if self._field is None:
                self._field = debye.simulate_field(self.cfg.aperture, self.cfg.grid)
                if self.use_cache:
                    cache_file.parent.mkdir(parents=True, exist_ok=True)
                    debye.dump_field(self._field, cache_file)
        return self._field

    def stack(self) -> otf.OtfStack:
        if self._stack is None:
            stack = otf.build_stack(self.field(), self.cfg.geometry)
            if self.cfg.normalize_columns:
                peaks = stack.columns.max(axis=0)
                if np.any(peaks <= 0):
                    raise optimizer.NumericalError(
                        "cannot normalize: a channel has no positive weight"
                    )
                stack = otf.OtfStack(
                    axes=stack.axes, columns=stack.columns / peaks, channels=stack.channels
                )
            self._stack = stack
        return self._stack

    def mask(self) -> regions.RegionMask:
        if self._mask is None:
            reference = analysis.zero_channel_grid(self.stack())
            if self.cfg.mask_kind == "depth_target":
                self._mask = regions.depth_target_mask(reference, self.cfg.mask_depth)
            else:
                self._mask = regions.mainlobe_mask(reference)
        return self._mask

    def policy(self, db: float | None) -> optimizer.TruncationPolicy:
        return optimizer.TruncationPolicy(threshold_db=db, convention=self.cfg.convention)

    def solve_levels(self, levels) -> list:
        """(level, result) pairs; ``none`` then strictly decreasing dB levels
        share one factorization as a truncation sweep."""
        db_levels = [db for db in levels if db is not None]
        descending = all(
            db_levels[i] > db_levels[i + 1] for i in range(len(db_levels) - 1)
        )
        if levels and levels[0] is None and descending and len(levels) > 1:
            results = optimizer.truncation_sweep(
                self.stack(), self.mask(), [self.policy(db) for db in db_levels]
            )
            return list(zip([None] + db_levels, results))
        return [(db, optimizer.solve(self.stack(), self.mask(), self.policy(db))) for db in levels]

    # -- emission ----------------------------------------------------------

    def emit(self, name: str, writer) -> Path:
        path = self.out / name
        writer(path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        self.emitted[name] = digest
        return path

    def emit_json(self, name: str, payload) -> Path:
        def writer(path):
            with open(path, "w") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True)
                fh.write("\n")

        return self.emit(name, writer)

    def write_manifest(self, command: str) -> None:
        manifest = {"command": command, "files": dict(sorted(self.emitted.items()))}
        path = self.out / "manifest.json"
        with open(path, "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _level_label(db: float | None) -> str:
    return "none" if db is None else f"{db:g}db"


# ---------------------------------------------------------------------------
# subcommand handlers

def _emit_radial_profile(runner: Runner, name: str) -> None:
    radii, intensities = debye.radial_profile(runner.field(), 0.0)

    def writer(path):
        with open(path, "w", newline="") as fh:
            fh.write("radius,intensity\n")
            for r, v in zip(radii, intensities):
                fh.write(f"{r:.17g},{v:.17g}\n")

    runner.emit(name, writer)


def _cmd_field(runner: Runner) -> None:
    field = runner.field()
    runner.emit("field.bin", lambda p: debye.dump_field(field, p))
    _emit_radial_profile(runner, "radial_profile.csv")


def _cmd_otfs(runner: Runner) -> None:
    stack = runner.stack()
    runner.emit("stack_meta.json", lambda p: otf.export_stack_metadata(stack, p))
    reference = analysis.zero_channel_grid(stack)
    runner.emit(
        "otf0_section.csv",
        lambda p: analysis.export_section_csv(reference.axes, reference.values, p),
    )


def _cmd_optimize(runner: Runner) -> None:
    stack = runner.stack()
    solved = runner.solve_levels(runner.cfg.levels)
    for db, result in solved:
        label = _level_label(db)
        runner.emit_json(f"combination_{label}.json", result.to_json_dict())
        runner.emit(
            f"coefficients_{label}.csv",
            lambda p, r=result: analysis.export_coefficients_csv(stack, r, p),
        )
        shaped = analysis.reshape_node_vector(stack, result.cotf)
        runner.emit(
            f"cotf_section_{label}.csv",
            lambda p, v=shaped: analysis.export_section_csv(stack.axes, v, p),
        )
    if len(solved) > 1:
        results = [result for _, result in solved]
        runner.emit("sweep.csv", lambda p: analysis.export_sweep_csv(results, p))


def _cmd_analyze(runner: Runner) -> None:
    stack = runner.stack()
    for db, result in runner.solve_levels(runner.cfg.levels):
        curve = analysis.defocus_curve(stack, result.cotf)
        runner.emit(
            f"defocus_{_level_label(db)}.csv",
            lambda p, c=curve: analysis.export_defocus_csv(c, p),
        )
    if runner.cfg.geometry_kind == "point":
        shifts = _shift_schedule(runner.cfg.grid)
        curve = analysis.power_vs_shift(runner.field(), runner.mask(), shifts)
        runner.emit("shift_power.csv", lambda p: analysis.export_shift_power_csv(curve, p))


def _cmd_sweep(runner: Runner) -> None:
    db_levels = [db for db in runner.cfg.levels if db is not None]
    results = optimizer.truncation_sweep(
        runner.stack(), runner.mask(), [runner.policy(db) for db in db_levels]
    )
    runner.emit("sweep.csv", lambda p: analysis.export_sweep_csv(results, p))
    runner.emit_json("sweep.json", [r.to_json_dict() for r in results])


def _shift_schedule(grid: debye.GridSpec) -> list:
    """Detector shifts 0 .. extent_x at twice the grid step."""
    step = 2.0 * grid.step_x
    count = int(math.floor(grid.extent_x / step)) + 1
    return [step * i for i in range(count)]


# -- figure reproduction -----------------------------------------------------

def _figure_runner(runner: Runner, kind: str) -> Runner:
    """Figures fix their own geometry; reuse the runner unless it differs."""
    if runner.cfg.geometry_kind == kind:
        return runner
    geometry = {
        "point": otf.DEFAULT_POINT_GEOMETRY,
        "line": otf.DEFAULT_LINE_GEOMETRY,
        "cross": otf.DEFAULT_CROSS_GEOMETRY,
    }[kind]
    cfg = replace(
        runner.cfg, geometry_kind=kind, geometry=geometry, mask_kind="mainlobe", mask_depth=0.0
    )
    sub = Runner(cfg, runner.out, runner.use_cache)
    sub._field = runner._field
    sub.emitted = runner.emitted  # share the manifest
    return sub


def _figure_kind(figure: int) -> str:
    if figure <= 8:
        return "point"
    return "line" if figure == 9 else "cross"


def _reproduce_figure(sub: Runner, figure: int) -> None:
    prefix = f"fig{figure:02d}"
    if figure == 1:
        reference = analysis.zero_channel_grid(sub.stack())
        sub.emit(
            f"{prefix}_section.csv",
            lambda p: analysis.export_section_csv(reference.axes, reference.values, p),
        )
        _emit_radial_profile(sub, f"{prefix}_radial.csv")
    elif figure == 2:
        shifts = _shift_schedule(sub.cfg.grid)
        curve = analysis.power_vs_shift(sub.field(), sub.mask(), shifts)
        sub.emit(f"{prefix}_power_vs_shift.csv", lambda p: analysis.export_shift_power_csv(curve, p))
    elif figure == 3:
        for db in (None, 30.0, 20.0):
            result = optimizer.solve(sub.stack(), sub.mask(), sub.policy(db))
            sub.emit(
                f"{prefix}_coefficients_{_level_label(db)}.csv",
                lambda p, r=result: analysis.export_coefficients_csv(sub.stack(), r, p),
            )
    elif figure == 4:
        result = optimizer.solve(sub.stack(), sub.mask(), sub.policy(20.0))
        shaped = analysis.reshape_node_vector(sub.stack(), result.cotf)
        sub.emit(
            f"{prefix}_cotf_section.csv",
            lambda p: analysis.export_section_csv(sub.stack().axes, shaped, p),
        )
        reference = analysis.zero_channel_grid(sub.stack())
        sub.emit(
            f"{prefix}_conventional_section.csv",
            lambda p: analysis.export_section_csv(reference.axes, reference.values, p),
        )
    elif figure in (5, 6):
        result = optimizer.solve(sub.stack(), sub.mask(), sub.policy(20.0))
        curve = analysis.defocus_curve(sub.stack(), result.cotf)
        sub.emit(f"{prefix}_defocus.csv", lambda p: analysis.export_defocus_csv(curve, p))
    elif figure == 7:
        reference = analysis.zero_channel_grid(sub.stack())
        mask = regions.depth_target_mask(reference, 1.0)
        result = optimizer.solve(sub.stack(), mask, sub.policy(20.0))
        sub.emit(
            f"{prefix}_coefficients.csv",
            lambda p: analysis.export_coefficients_csv(sub.stack(), result, p),
        )
        shaped = analysis.reshape_node_vector(sub.stack(), result.cotf)
        sub.emit(
            f"{prefix}_cotf_section.csv",
            lambda p: analysis.export_section_csv(sub.stack().axes, shaped, p),
        )
    elif figure == 8:
        policies = [sub.policy(20.0)]
        rows = analysis.na_sweep(
            [math.radians(a) for a in (45.0, 50.0, 55.0, 60.0)],
            sub.cfg.geometry,
            policies=policies,
            grid=sub.cfg.grid,
            n_theta=sub.cfg.aperture.n_theta,
            n_phi=sub.cfg.aperture.n_phi,
        )
        sub.emit(f"{prefix}_na_sweep.csv", lambda p: analysis.export_na_sweep_csv(rows, policies, p))
    elif figure == 9:
        for db in (None, 10.0):
            result = optimizer.solve(sub.stack(), sub.mask(), sub.policy(db))
            sub.emit(
                f"{prefix}_coefficients_{_level_label(db)}.csv",
                lambda p, r=result: analysis.export_coefficients_csv(sub.stack(), r, p),
            )
    elif figure == 10:
        results = optimizer.truncation_sweep(
            sub.stack(), sub.mask(), [sub.policy(db) for db in (40.0, 30.0, 20.0, 10.0)]
        )
        sub.emit(f"{prefix}_sweep.csv", lambda p: analysis.export_sweep_csv(results, p))
    elif figure == 11:
        result = optimizer.solve(sub.stack(), sub.mask(), sub.policy(30.0))
        shaped = analysis.reshape_node_vector(sub.stack(), result.cotf)
        sub.emit(
            f"{prefix}_cotf_section.csv",
            lambda p: analysis.export_section_csv(sub.stack().axes, shaped, p),
        )
    elif figure in (12, 13):
        result = optimizer.solve(sub.stack(), sub.mask(), sub.policy(30.0))
        curve = analysis.defocus_curve(sub.stack(), result.cotf)
        sub.emit(f"{prefix}_defocus.csv", lambda p: analysis.export_defocus_csv(curve, p))


def _cmd_reproduce(runner: Runner, figures) -> None:
    unknown = [f for f in figures if f not in FIGURE_IDS]
    if unknown:
        raise ConfigError(
            f"unknown figure id {unknown[0]}; valid ids: {', '.join(map(str, FIGURE_IDS))}"
        )
    subs = {}
    for figure in figures:
        kind = _figure_kind(figure)
        if kind not in subs:
            # The field depends only on aperture and grid, so every
            # geometry-specific runner shares one copy.
            subs[kind] = _figure_runner(runner, kind)
        _reproduce_figure(subs[kind], figure)
        if runner._field is None:
            runner._field = subs[kind]._field


# ---------------------------------------------------------------------------
# argument parsing and dispatch

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cotf",
        description="Confocal transfer-function simulation and channel-combination optimizer.",
    )
    parser.add_argument("--config", help="INI configuration file")
    parser.add_argument("--out", help="output directory (overrides the config)")
    parser.add_argument("--threads", type=int, help="worker thread count for the field kernel")
    parser.add_argument("--no-cache", action="store_true", help="disable the field cache")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("field", help="simulate and store the focal field")
    sub.add_parser("otfs", help="build the channel stack and export summaries")
    sub.add_parser("optimize", help="solve for optimal channel combinations")
    sub.add_parser("analyze", help="defocus and shift-power analysis")
    sub.add_parser("sweep", help="truncation-threshold sweep")
    repro = sub.add_parser("reproduce", help="regenerate reference figure datasets")
    repro.add_argument(
        "figures", type=int, nargs="+", choices=FIGURE_IDS, metavar="FIGURE",
        help=f"figure numbers ({FIGURE_IDS[0]}-{FIGURE_IDS[-1]})",
    )
    return parser


def _configure_threads(threads: int | None) -> None:
    if threads is None:
        return
    if threads < 1:
        raise ConfigError(f"--threads must be >= 1, got {threads}")
    try:
        import numba

        numba.set_num_threads(threads)
    except ImportError:
        pass  # pure-numpy backend ignores the thread count


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _configure_threads(args.threads)
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(args.out if args.out is not None else cfg.directory)
    runner = Runner(cfg, out_dir, use_cache=not args.no_cache)
    handlers = {
        "field": _cmd_field,
        "otfs": _cmd_otfs,
        "optimize": _cmd_optimize,
        "analyze": _cmd_analyze,
        "sweep": _cmd_sweep,
    }
    try:
        if args.command == "reproduce":
            _cmd_reproduce(runner, args.figures)
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
