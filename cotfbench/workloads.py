"""Workloads of the cotf benchmark: seeded inputs, the ``cotf`` invocations
they make, and the checks applied to every output.

A workload builds one *pass*: a seeded list of command-line invocations that
the closed loop in ``run.py`` cycles through.  ``cotf`` only ever sees the
generated INI files and argv.  Each pass has a fixed composition of the
properties that set its cost (geometry, command, factorization path, grid
and quadrature size); the seed draws everything else (mask, dB convention,
level values, aperture half-angle, grid anisotropy, order).  That keeps a
run's cost steady from seed to seed while the inputs still vary.

Why each workload exists:

* ``reproduce-all`` is the paper's whole job, ``cotf --no-cache reproduce
  1 ... 13`` on the default config.  The field kernel and the solver share
  the time; it writes 19 CSVs and reads no cache.
* ``config-study`` is a user's parameter study on one aperture and grid:
  optimize / analyze / sweep over point, line and cross geometries.  The
  optimizer does most of the work, every op reads the field cache filled
  during set-up, and the field kernel is idle.  Stacks range from 4,753 x 5
  to 232,897 x 49.
* ``field-grids`` simulates and writes fields over varied apertures and
  grids, some anisotropic.  The field kernel does almost all the work and
  the optimizer is idle; anisotropy changes the number of unique transverse
  radii, the input property a radially symmetric kernel depends on.
"""
from __future__ import annotations

import json
import math
import random
import shutil
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import cotf
from cotf import cli

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference" / "reference.json"
# Copy of tests/golden/fig2.csv, produced by the numba kernel.
GOLDEN_FIG2 = HERE / "reference" / "fig2_golden.csv"

#: Objectives and improvement factors against the recorded reference.  The
#: planned numerical-rank floor moves the cross ``none`` objective by 2.5e-7.
REFERENCE_RTOL = 1e-6
#: fig02 against the golden curve; the numpy kernel differs by ~3e-15.
GOLDEN_RTOL = 1e-10
#: Field samples against the brute-force Debye sum, as a share of the peak.
FIELD_RTOL = 1e-9

WHY = {
    "reproduce-all": "the paper's whole job: reproduce 1-13 --no-cache, field kernel and solver together",
    "config-study": "a user's parameter study from a warm field cache: optimizer-bound, field kernel idle",
    "field-grids": "field simulations over varied apertures and anisotropic grids: kernel-bound, optimizer idle",
}

LEVEL_POOL = (100.0, 60.0, 50.0, 40.0, 30.0, 20.0, 10.0)
# Every cross stack is rank-deficient: its untruncated solve keeps
# numerically null directions (the default 9 x 7 has a 46.8 dB gap), so a
# sweep reaching 50 dB power (100 dB amplitude) or above exits 3 with
# "nesting violated".  Levels below 40 dB power are clear of the gap.
ABOVE_GAP = {"power": (100.0, 60.0, 50.0), "amplitude": (100.0,)}
BELOW_GAP = {"power": (30.0, 20.0, 10.0), "amplitude": (60.0, 40.0, 20.0)}
CROSS_SWEEPS_ABOVE_GAP = 3  # of the 6 cross sweeps per config-study pass
CONVENTIONS = ("power", "amplitude")
MASKS = ("mainlobe", 0.5, 1.0, 1.5)  # a float is a depth_target depth
# (kind, det_count, illum_count); pitches are the CLI defaults.
GEOMETRIES = (
    ("point", 3, None), ("point", 5, None), ("point", 7, None),
    ("line", 5, None), ("line", 7, None), ("line", 9, None),
    ("cross", 5, 5), ("cross", 7, 5), ("cross", 5, 7),
    ("cross", 7, 7), ("cross", 5, 9), ("cross", 7, 9),
)
FIGURES = tuple(range(1, 14))
REPRODUCE_FILES = frozenset(
    "fig01_radial.csv fig01_section.csv fig02_power_vs_shift.csv "
    "fig03_coefficients_20db.csv fig03_coefficients_30db.csv fig03_coefficients_none.csv "
    "fig04_conventional_section.csv fig04_cotf_section.csv fig05_defocus.csv "
    "fig06_defocus.csv fig07_coefficients.csv fig07_cotf_section.csv fig08_na_sweep.csv "
    "fig09_coefficients_10db.csv fig09_coefficients_none.csv fig10_sweep.csv "
    "fig11_cotf_section.csv fig12_defocus.csv fig13_defocus.csv".split()
)
# field-grids: (n_theta, n_phi, transverse half count, axial half count) at
# step 0.125.  n_phi >= 64 keeps the azimuthal rule exact to ~1e-12, so the
# brute-force oracle also holds for a kernel that integrates phi exactly.
# The two 64 x 128 slots cost about the same, so p90 falls inside their group.
FIELD_SLOTS = (
    (32, 64, 16, 32), (48, 96, 20, 40), (64, 128, 24, 48), (40, 80, 28, 24),
    (56, 112, 16, 48), (24, 64, 32, 32), (64, 128, 24, 40), (48, 128, 20, 32),
)
GRID_STEP = 0.125


# ---------------------------------------------------------------------------
# scale: the paper's default grid, or a small grid that runs in seconds

@dataclass(frozen=True)
class Mode:
    """Aperture and grid every workload runs on."""

    name: str
    n_theta: int
    n_phi: int
    extent_xy: float
    extent_z: float

    @property
    def aperture(self) -> cotf.ApertureSpec:
        return cotf.ApertureSpec(half_angle=math.pi / 3, n_theta=self.n_theta, n_phi=self.n_phi)

    @property
    def grid(self) -> cotf.GridSpec:
        return cotf.GridSpec(self.extent_xy, self.extent_xy, self.extent_z,
                             GRID_STEP, GRID_STEP, GRID_STEP)

    def ini_sections(self) -> dict:
        if self == DEFAULT:
            return {}
        return {
            "aperture": {"n_theta": self.n_theta, "n_phi": self.n_phi},
            "grid": {
                "extent_x_wavelengths": self.extent_xy,
                "extent_y_wavelengths": self.extent_xy,
                "extent_z_wavelengths": self.extent_z,
            },
        }


DEFAULT = Mode("default", 64, 128, 3.0, 6.0)
# The test-suite's small aperture (24 x 48).  Its 1.5/3.0-wavelength grid at
# step 0.25 cannot hold the cross geometries (0.125 pitch), the 7 x 7 point
# array or the 45-degree axial null of fig08, hence 2.5/4.0 at step 0.125.
FAST = Mode("fast", 24, 48, 2.5, 4.0)


def write_ini(path: Path, sections: dict) -> None:
    lines = []
    for section, values in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for key, value in values.items())
    path.write_text("\n".join(lines) + "\n")


def geometry_key(geometry) -> str:
    kind, det, illum = geometry
    return f"{kind}{illum}x{det}" if kind == "cross" else f"{kind}{det}"


def mask_key(mask) -> str:
    return "mainlobe" if mask == "mainlobe" else f"depth{mask:g}"


def level_label(db) -> str:
    return "none" if db is None else f"{db:g}"


def file_label(db) -> str:
    """Level suffix of the CLI's per-level artifact names."""
    return "none" if db is None else f"{db:g}db"


def reference_key(geometry, mask, convention, db) -> str:
    return f"{geometry_key(geometry)}/{mask_key(mask)}/{convention}/{level_label(db)}"


def build_geometry(geometry) -> cotf.ScanGeometry:
    kind, det, illum = geometry
    if kind == "point":
        return cotf.point_grid_geometry(count=det)
    if kind == "line":
        return cotf.line_array_geometry(count=det)
    return cotf.cross_shift_geometry(illum_count=illum, det_count=det)


def build_mask(stack, mask) -> cotf.RegionMask:
    reference = cotf.zero_channel_grid(stack)
    if mask == "mainlobe":
        return cotf.mainlobe_mask(reference)
    return cotf.depth_target_mask(reference, mask)


def shift_schedule(grid: cotf.GridSpec) -> list:
    """Detector shifts of ``cotf analyze`` and fig02: 0 .. extent_x at 2 steps."""
    step = 2.0 * grid.step_x
    return [step * i for i in range(int(math.floor(grid.extent_x / step)) + 1)]


def load_reference(mode: Mode) -> dict:
    return json.loads(REFERENCE_FILE.read_text())[mode.name]


# ---------------------------------------------------------------------------
# oracles

def relative_errors(actual, expected) -> np.ndarray:
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    if actual.shape != expected.shape:
        return np.array([np.inf])
    return np.abs(actual - expected) / np.maximum(np.abs(expected), np.finfo(float).tiny)


def brute_force_field(aperture: cotf.ApertureSpec, points) -> np.ndarray:
    """Scalar Debye sum at ``points`` (M x 3), written out independently of
    the package: Gauss-Legendre in theta, midpoint rule in phi,
    sine-condition apodization sqrt(cos theta)."""
    nodes, gl_weights = np.polynomial.legendre.leggauss(aperture.n_theta)
    theta = 0.5 * aperture.half_angle * (nodes + 1.0)
    d_phi = 2.0 * math.pi / aperture.n_phi
    phi = (np.arange(aperture.n_phi) + 0.5) * d_phi
    weights = 0.5 * aperture.half_angle * gl_weights * np.sqrt(np.cos(theta)) * np.sin(theta) * d_phi
    k = 2.0 * math.pi
    out = []
    for x, y, z in points:
        transverse = np.sin(theta)[:, None] * (x * np.cos(phi) + y * np.sin(phi))[None, :]
        phase = np.exp(-1j * k * (transverse + np.cos(theta)[:, None] * z))
        out.append(1j * np.sum(weights[:, None] * phase))
    return np.array(out)


class Grams:
    """Focal and out-of-focus Gram matrices per (geometry, mask), built with
    the public library, to recompute objectives from emitted coefficients."""

    def __init__(self, mode: Mode):
        self.mode = mode
        self._field = None
        self._grams = {}

    def objective(self, geometry, mask, coefficients) -> float:
        key = (geometry, mask)
        if key not in self._grams:
            if self._field is None:
                self._field = cotf.simulate_field(self.mode.aperture, self.mode.grid)
            stack = cotf.build_stack(self._field, build_geometry(geometry))
            region = build_mask(stack, mask)
            t = stack.columns
            self._grams[key] = (
                (t * region.focal[:, None]).T @ t,
                (t * region.out_of_focus[:, None]).T @ t,
            )
        a, b = self._grams[key]
        c = np.asarray(coefficients, dtype=np.float64)
        return float(c @ a @ c) / float(c @ b @ c)


def check_monotone(label: str, improvements) -> list:
    """Improvement must not rise under stronger truncation (weakest first)."""
    problems = []
    for (weak, a), (strong, b) in zip(improvements, improvements[1:]):
        if b > a * (1.0 + REFERENCE_RTOL):
            problems.append(f"{label}: improvement rises from {weak} ({a!r}) to {strong} ({b!r})")
    return problems


def read_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


# ---------------------------------------------------------------------------
# workloads

@dataclass
class Op:
    """One ``cotf`` invocation; ops that repeat in later passes share ``key``."""

    key: str
    argv: list
    info: dict


class Workload:
    """Seeded ops plus the set-up and checks they need."""

    name = ""
    #: ops a measured run completes at least (p90 needs 100)
    min_ops = 1

    def __init__(self, seed: int, mode: Mode, workdir: Path):
        self.seed = seed
        self.mode = mode
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}:{seed}")
        self.reference = load_reference(mode)
        self.grams = Grams(mode)
        self.ops = self.build()
        self.failures = []  # (op key, exit code, message, known defect?)
        self._digests = {}
        self._deferred = []  # (label, geometry, mask, coefficients, objective)

    def build(self) -> list:
        raise NotImplementedError

    def prepare(self) -> None:
        """Set-up: write inputs (and fill caches) under ``workdir``."""
        raise NotImplementedError

    def out_dir(self, op: Op) -> Path:
        raise NotImplementedError

    def argv(self, op: Op) -> list:
        return ["--out", str(self.out_dir(op))] + op.argv

    def check_outputs(self, op: Op, files: dict) -> list:
        raise NotImplementedError

    def is_known_failure(self, op: Op, code: int, message: str) -> bool:
        return False

    def cleanup(self, op: Op) -> None:
        shutil.rmtree(self.out_dir(op), ignore_errors=True)

    def check(self, op: Op, code, message: str) -> list:
        """Problems with one op's outcome; failures are also recorded."""
        if code != 0:
            known = self.is_known_failure(op, code, message)
            last_line = (message.strip().splitlines() or [""])[-1]
            self.failures.append((op.key, code, last_line, known))
            return [] if known else [f"{op.key}: unexpected exit {code}: {message.strip()}"]
        manifest = self.out_dir(op) / "manifest.json"
        try:
            files = json.loads(manifest.read_text())["files"]
        except (OSError, ValueError, KeyError) as exc:
            return [f"{op.key}: unreadable manifest: {exc}"]
        previous = self._digests.setdefault(op.key, files)
        if previous is not files:
            if previous != files:
                return [f"{op.key}: repeated op produced different artifacts"]
            return []  # byte-identical to a checked run
        return self.check_outputs(op, files)

    def defer_objective(self, label, geometry, mask, coefficients, objective) -> None:
        self._deferred.append((label, geometry, mask, coefficients, objective))

    def finish(self) -> list:
        """Checks too costly to run between ops."""
        problems = []
        for label, geometry, mask, coefficients, objective in self._deferred:
            recomputed = self.grams.objective(geometry, mask, coefficients)
            if relative_errors(recomputed, objective).max() > REFERENCE_RTOL:
                problems.append(
                    f"{label}: objective recomputed from coefficients {recomputed!r} != {objective!r}"
                )
        return problems

    def compare_reference(self, label, key, objective, improvement) -> list:
        expected = self.reference["objectives"].get(key)
        if expected is None:
            return [f"{label}: no reference for {key}"]
        if relative_errors([objective, improvement], expected[:2]).max() > REFERENCE_RTOL:
            return [f"{label}: {key} gives {[objective, improvement]!r}, reference {expected[:2]!r}"]
        return []

    def compare_fig2(self, label, path: Path) -> list:
        if self.mode == DEFAULT:
            expected = read_csv(GOLDEN_FIG2)
        else:
            expected = np.asarray(self.reference["fig2"])
        if relative_errors(read_csv(path), expected).max() > GOLDEN_RTOL:
            return [f"{label}: power-vs-shift curve differs from the golden curve"]
        return []

    def report(self) -> list:
        """Input-property shares, one line each."""
        return []

    def describe(self, key: str) -> str:
        return " ".join(next(op for op in self.ops if op.key == key).argv)


class ReproduceAll(Workload):
    name = "reproduce-all"

    def build(self) -> list:
        # The paper's job has one input; the seed changes nothing here.
        argv = ["--no-cache"]
        if self.mode != DEFAULT:
            argv = ["--config", str(self.workdir / "reproduce.ini")] + argv
        return [Op("reproduce", argv + ["reproduce"] + [str(f) for f in FIGURES], {})]

    def prepare(self) -> None:
        if self.mode != DEFAULT:
            write_ini(self.workdir / "reproduce.ini", self.mode.ini_sections())

    def out_dir(self, op: Op) -> Path:
        return self.workdir / "reproduce"

    def check_outputs(self, op: Op, files: dict) -> list:
        out = self.out_dir(op)
        if set(files) != REPRODUCE_FILES:
            return [f"reproduce: emitted {sorted(set(files) ^ REPRODUCE_FILES)} unexpectedly"]
        problems = self.compare_fig2("fig02", out / "fig02_power_vs_shift.csv")
        na = read_csv(out / "fig08_na_sweep.csv")[:, 2]
        if relative_errors(na, self.reference["na_sweep"]).max() > REFERENCE_RTOL:
            problems.append(f"fig08: improvements {na.tolist()!r}, reference {self.reference['na_sweep']!r}")
        cross = ("cross", 7, 9)
        rows = (out / "fig10_sweep.csv").read_text().splitlines()[1:]
        improvements = []
        for row in rows:
            level, _, objective, improvement = row.split(",")
            db = None if level == "none" else float(level)
            key = reference_key(cross, "mainlobe", "power", db)
            problems += self.compare_reference("fig10", key, float(objective), float(improvement))
            improvements.append((level_label(db), float(improvement)))
        problems += check_monotone("fig10", improvements)
        point, line = ("point", 5, None), ("line", 7, None)
        for name, geometry, mask, db in (
            ("fig03_coefficients_none.csv", point, "mainlobe", None),
            ("fig03_coefficients_30db.csv", point, "mainlobe", 30.0),
            ("fig03_coefficients_20db.csv", point, "mainlobe", 20.0),
            ("fig07_coefficients.csv", point, 1.0, 20.0),
            ("fig09_coefficients_none.csv", line, "mainlobe", None),
            ("fig09_coefficients_10db.csv", line, "mainlobe", 10.0),
        ):
            expected = self.reference["objectives"][reference_key(geometry, mask, "power", db)][0]
            self.defer_objective(name, geometry, mask, read_csv(out / name)[:, -1], expected)
        return problems


class ConfigStudy(Workload):
    name = "config-study"
    min_ops = 100

    def build(self) -> list:
        rng = self.rng
        ops = []
        above = set(rng.sample([g for g in GEOMETRIES if g[0] == "cross"], CROSS_SWEEPS_ABOVE_GAP))
        for n, geometry in enumerate(GEOMETRIES):
            kind = geometry[0]
            # Line and cross: one of optimize/analyze gets `none` + descending
            # levels, sharing one factorization.  Point: neither, so the
            # two-factorization point ops form the latency tail and p90
            # falls inside the 5 x 5 group whatever the seed.
            shared = None if kind == "point" else ("optimize", "analyze")[n % 2]
            for command in ("optimize", "analyze", "sweep"):
                mask = rng.choice(MASKS)
                convention = rng.choice(CONVENTIONS)
                if kind == "cross" and command in ("sweep", shared):
                    # A fixed number of defect-triggering ops per pass, so
                    # every seed costs the same.
                    if command == "sweep" and geometry in above:
                        picked = [rng.choice(ABOVE_GAP[convention]), rng.choice(BELOW_GAP[convention])]
                    else:
                        picked = sorted(rng.sample(BELOW_GAP[convention], 2), reverse=True)
                else:
                    picked = sorted(rng.sample(LEVEL_POOL, 2), reverse=True)
                if command == "sweep":
                    levels = picked  # the untruncated solve is implicit
                elif command == shared:
                    levels = [None] + picked  # none, then descending
                elif rng.random() < 0.5:
                    levels = picked[::-1]  # ascending: one factorization per level
                else:
                    levels = [picked[0], None]
                info = {
                    "geometry": geometry, "mask": mask, "convention": convention,
                    "levels": levels, "command": command,
                    "shared": command in ("sweep", shared),
                }
                ops.append(Op(f"op{len(ops):02d}", [], info))
        rng.shuffle(ops)
        for op in ops:
            op.argv = ["--config", str(self.workdir / f"{op.key}.ini"), op.info["command"]]
        return ops

    def prepare(self) -> None:
        base = self.mode.ini_sections()
        write_ini(self.workdir / "base.ini", base)
        for op in self.ops:
            info = op.info
            kind, det, illum = info["geometry"]
            geometry = {"kind": kind, "det_count": det}
            if illum is not None:
                geometry["illum_count"] = illum
            mask = {"kind": "mainlobe"}
            if info["mask"] != "mainlobe":
                mask = {"kind": "depth_target", "depth_wavelengths": info["mask"]}
            write_ini(self.workdir / f"{op.key}.ini", dict(
                base, geometry=geometry, mask=mask,
                policies={"levels": ", ".join(level_label(db) for db in info["levels"])},
                outputs={"db_convention": info["convention"]},
            ))
        # Fill the field cache the ops read.
        fill = ["--config", str(self.workdir / "base.ini"), "--out", str(self.out_dir(None)), "field"]
        if cli.main(fill) != 0:
            raise RuntimeError("config-study: filling the field cache failed")
        self.cleanup(None)

    def out_dir(self, op) -> Path:
        return self.workdir / "study"  # shared, so every op reads one cache

    def cleanup(self, op) -> None:
        for entry in self.out_dir(op).iterdir():
            if entry.name != "cache":
                if entry.is_dir():
                    shutil.rmtree(entry)
                else:
                    entry.unlink()

    def is_known_failure(self, op: Op, code: int, message: str) -> bool:
        # The cross stacks' untruncated solve keeps numerically null
        # directions, so sweeps with levels above the spectral gap exit 3.
        return code == 3 and "nesting violated" in message and op.info["geometry"][0] == "cross"

    def solved_levels(self, info) -> list:
        levels = info["levels"]
        if info["command"] == "sweep":
            return [None] + levels
        return levels

    def check_outputs(self, op: Op, files: dict) -> list:
        info, out = op.info, self.out_dir(op)
        geometry, mask, convention = info["geometry"], info["mask"], info["convention"]
        problems = []
        if info["command"] == "analyze":
            for db in info["levels"]:
                curve = read_csv(out / f"defocus_{file_label(db)}.csv")
                iz0 = curve.shape[0] // 2
                if not (np.all(np.isfinite(curve[:, :3])) and abs(curve[iz0, 1] - 1) < 1e-12
                        and abs(curve[iz0, 2] - 1) < 1e-12):
                    problems.append(f"{op.key}: defocus curve not normalized at z = 0")
            if geometry[0] == "point":
                if mask == "mainlobe":
                    problems += self.compare_fig2(op.key, out / "shift_power.csv")
                elif not np.all(read_csv(out / "shift_power.csv") >= 0):
                    problems.append(f"{op.key}: negative shift power")
            return problems
        if info["command"] == "sweep":
            results = json.loads((out / "sweep.json").read_text())
        else:
            results = [
                json.loads((out / f"combination_{file_label(db)}.json").read_text())
                for db in info["levels"]
            ]
        solved = self.solved_levels(info)
        if len(results) != len(solved):
            return [f"{op.key}: {len(results)} results for levels {solved}"]
        improvements = []
        for db, result in zip(solved, results):
            label = f"{op.key} level {level_label(db)}"
            key = reference_key(geometry, mask, convention, db)
            problems += self.compare_reference(
                label, key, result["objective"], result["improvement_factor"]
            )
            self.defer_objective(label, geometry, mask, result["coefficients"], result["objective"])
            improvements.append((level_label(db), result["improvement_factor"]))
        strength = [(-math.inf if db is None else -db) for db in solved]
        order = sorted(range(len(solved)), key=lambda n: strength[n])
        problems += check_monotone(op.key, [improvements[n] for n in order])
        return problems

    def describe(self, key: str) -> str:
        info = next(op for op in self.ops if op.key == key).info
        levels = ", ".join(level_label(db) for db in info["levels"])
        return (f"{info['command']} {geometry_key(info['geometry'])} {mask_key(info['mask'])} "
                f"{info['convention']} levels [{levels}]")

    def report(self) -> list:
        n = len(self.ops)
        shared = sum(op.info["shared"] for op in self.ops)
        kinds = Counter(op.info["geometry"][0] for op in self.ops)
        lines = [f"input: shared-factorization path {shared}/{n} ops = {shared / n:.3f}"]
        lines += [f"input: geometry {kind} {count}/{n} ops = {count / n:.3f}" for kind, count in kinds.items()]
        return lines


class FieldGrids(Workload):
    name = "field-grids"

    def build(self) -> list:
        rng = self.rng
        ops = []
        scale = 1 if self.mode == DEFAULT else 2
        for n, (n_theta, n_phi, half_xy, half_z) in enumerate(FIELD_SLOTS):
            n_theta, half_xy, half_z = n_theta // scale, half_xy // scale, half_z // scale
            variant = rng.choice(("isotropic", "step", "extent"))
            half = [half_xy, half_xy]
            steps = [GRID_STEP, GRID_STEP]
            if variant == "step":  # same node counts, y sampled at 0.1
                steps[1] = 0.1
            elif variant == "extent":  # x wider than y, about the same node count
                wide = round(1.25 * half_xy)
                nodes = (2 * half_xy + 1) ** 2
                narrow = min(range(1, half_xy + 1), key=lambda h: abs((2 * wide + 1) * (2 * h + 1) - nodes))
                half = [wide, narrow]
            if variant != "isotropic" and rng.random() < 0.5:
                half.reverse()
                steps.reverse()
            grid = cotf.GridSpec(half[0] * steps[0], half[1] * steps[1], half_z * GRID_STEP,
                                 steps[0], steps[1], GRID_STEP)
            aperture = cotf.ApertureSpec(
                half_angle=math.radians(round(rng.uniform(45.0, 65.0), 2)),
                n_theta=n_theta, n_phi=n_phi,
            )
            ops.append(Op(f"slot{n}", [], {"grid": grid, "aperture": aperture, "variant": variant}))
        rng.shuffle(ops)
        for op in ops:
            op.argv = ["--config", str(self.workdir / f"{op.key}.ini"), "--no-cache", "field"]
        return ops

    def prepare(self) -> None:
        for op in self.ops:
            grid, aperture = op.info["grid"], op.info["aperture"]
            write_ini(self.workdir / f"{op.key}.ini", {
                "aperture": {
                    "half_angle_deg": repr(math.degrees(aperture.half_angle)),
                    "n_theta": aperture.n_theta,
                    "n_phi": aperture.n_phi,
                },
                "grid": {
                    f"{what}_{axis}_wavelengths": repr(getattr(grid, f"{what}_{axis}"))
                    for what in ("extent", "step") for axis in "xyz"
                },
            })

    def out_dir(self, op: Op) -> Path:
        return self.workdir / op.key

    def check_outputs(self, op: Op, files: dict) -> list:
        grid, aperture = op.info["grid"], op.info["aperture"]
        field = cotf.load_field(self.out_dir(op) / "field.bin")
        if field.samples.shape != grid.shape:
            return [f"{op.key}: field shape {field.samples.shape} != {grid.shape}"]
        rng = random.Random(f"{self.seed}:{op.key}")
        nodes = [field.origin_index] + [tuple(rng.randrange(n) for n in grid.shape) for _ in range(5)]
        axes = [grid.axis(name) for name in "xyz"]
        points = [tuple(axis[i] for axis, i in zip(axes, node)) for node in nodes]
        expected = brute_force_field(aperture, points)
        actual = np.array([field.samples[node] for node in nodes])
        error = np.max(np.abs(actual - expected)) / abs(expected[0])
        if not error <= FIELD_RTOL:
            return [f"{op.key}: field differs from the brute-force sum by {error:.3e} of peak"]
        return []

    def report(self) -> list:
        lines = []
        total_unique = total_nodes = 0
        for op in sorted(self.ops, key=lambda op: op.key):
            grid = op.info["grid"]
            radii = np.hypot(grid.axis("x")[:, None], grid.axis("y")[None, :])
            unique = np.unique(np.round(radii, 9)).size
            nx, ny, nz = grid.shape
            total_unique += unique
            total_nodes += nx * ny
            lines.append(
                f"input: {op.key} {op.info['variant']} grid {nx}x{ny}x{nz}, "
                f"{unique}/{nx * ny} unique transverse radii = {unique / (nx * ny):.3f}"
            )
        lines.append(f"input: pass {total_unique}/{total_nodes} unique transverse radii = "
                     f"{total_unique / total_nodes:.3f}")
        return lines


WORKLOADS = {w.name: w for w in (ReproduceAll, ConfigStudy, FieldGrids)}
