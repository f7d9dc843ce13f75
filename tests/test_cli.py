"""CLI tests on deliberately tiny grids: exit codes, strict config schema,
caching, manifests, determinism, and figure reproduction."""
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cotf
from cotf import cli
from cotf.cli import main

TINY = {
    "aperture": {"half_angle_deg": "60", "n_theta": "16", "n_phi": "32"},
    "grid": {
        "extent_x_wavelengths": "1.5",
        "extent_y_wavelengths": "1.5",
        "extent_z_wavelengths": "3",
        "step_x_wavelengths": "0.25",
        "step_y_wavelengths": "0.25",
        "step_z_wavelengths": "0.25",
    },
    "geometry": {"kind": "point", "det_count": "3", "det_pitch_wavelengths": "0.5"},
    "policies": {"levels": "none,30,20,10"},
}


def write_config(tmp_path, overrides=None, name="run.ini"):
    sections = {k: dict(v) for k, v in TINY.items()}
    for section, values in (overrides or {}).items():
        sections.setdefault(section, {})
        if values is None:
            del sections[section]
        else:
            sections[section].update(values)
    path = tmp_path / name
    with open(path, "w") as fh:
        for section, values in sections.items():
            fh.write(f"[{section}]\n")
            for key, value in values.items():
                fh.write(f"{key} = {value}\n")
            fh.write("\n")
    return path


LEVEL_LABELS = ("none", "30db", "20db", "10db")  # TINY's levels
SUBCOMMAND_FILES = {
    "field": {"field.bin", "radial_profile.csv"},
    "otfs": {"stack_meta.json", "otf0_section.csv"},
    "optimize": {
        f"{stem}_{label}.{ext}"
        for stem, ext in (("combination", "json"), ("coefficients", "csv"), ("cotf_section", "csv"))
        for label in LEVEL_LABELS
    } | {"sweep.csv"},
    "analyze": {f"defocus_{label}.csv" for label in LEVEL_LABELS} | {"shift_power.csv"},
    "sweep": {"sweep.csv", "sweep.json"},
}


@pytest.mark.parametrize("command", ["field", "otfs", "optimize", "analyze", "sweep"])
def test_subcommands_succeed(tmp_path, command):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["--config", str(config), "--out", str(out), command]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == command
    assert set(manifest["files"]) == SUBCOMMAND_FILES[command]
    for name in manifest["files"]:
        assert (out / name).stat().st_size > 0


def test_unknown_key_is_config_error(tmp_path, capsys):
    # apodization, cache and directory were keys once; the first two chose
    # nothing and --out sets the directory.
    for section, key, value in (
        ("aperture", "typo_key", "5"),
        ("aperture", "apodization", "sine_condition"),
        ("outputs", "cache", "false"),
        ("outputs", "directory", "out"),
    ):
        config = write_config(tmp_path, {section: {key: value}})
        assert main(["--config", str(config), "field"]) == 2
        assert key in capsys.readouterr().err


def test_unknown_section_is_config_error(tmp_path, capsys):
    config = write_config(tmp_path, {"detector": {"size": "1"}})
    assert main(["--config", str(config), "field"]) == 2
    assert "detector" in capsys.readouterr().err


def test_bad_value_is_config_error(tmp_path, capsys):
    for override, message in (
        ({"aperture": {"half_angle_deg": "95"}}, "half_angle"),
        ({"policies": {"levels": "none, none"}}, "repeat"),
        ({"policies": {"levels": "none, 20, 20"}}, "repeat"),
    ):
        config = write_config(tmp_path, override)
        assert main(["--config", str(config), "field"]) == 2
        assert message in capsys.readouterr().err


def test_unparseable_value_names_key(tmp_path, capsys):
    config = write_config(tmp_path, {"grid": {"step_x_wavelengths": "tiny"}})
    assert main(["--config", str(config), "field"]) == 2
    assert "step_x_wavelengths" in capsys.readouterr().err


def test_illumination_keys_require_cross(tmp_path, capsys):
    config = write_config(tmp_path, {"geometry": {"illum_count": "3"}})
    assert main(["--config", str(config), "field"]) == 2
    assert "illumination" in capsys.readouterr().err


def test_mask_schema_conflicts(tmp_path, capsys):
    config = write_config(tmp_path, {"mask": {"kind": "mainlobe", "depth_wavelengths": "1"}})
    assert main(["--config", str(config), "optimize"]) == 2
    assert "depth_target" in capsys.readouterr().err
    config = write_config(tmp_path, {"mask": {"kind": "depth_target"}}, name="run2.ini")
    assert main(["--config", str(config), "optimize"]) == 2


def test_missing_config_file(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "absent.ini"), "field"]) == 2
    assert "absent.ini" in capsys.readouterr().err


def test_runtime_failure_maps_to_exit_3(tmp_path, capsys):
    config = write_config(tmp_path, {"geometry": {"det_pitch_wavelengths": "2.0"}})
    out = tmp_path / "out"
    assert main(["--config", str(config), "--out", str(out), "optimize"]) == 3
    assert "extent" in capsys.readouterr().err


def test_field_cache_reused(tmp_path, monkeypatch):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["--config", str(config), "--out", str(out), "field"]) == 0
    cache_files = list((out / "cache").glob("field-*.bin"))
    assert len(cache_files) == 1
    first = (out / "field.bin").read_bytes()

    def forbidden(*args, **kwargs):
        raise ValueError("simulation re-ran despite a warm cache")

    monkeypatch.setattr(cotf.cli.debye, "simulate_field", forbidden)
    assert main(["--config", str(config), "--out", str(out), "field"]) == 0
    assert (out / "field.bin").read_bytes() == first
    # --no-cache must bypass the cache and hit the (sabotaged) simulator.
    assert main(["--config", str(config), "--out", str(out), "--no-cache", "field"]) == 3


def test_corrupt_field_cache_recomputed(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["--config", str(config), "--out", str(out), "field"]) == 0
    profile = (out / "radial_profile.csv").read_bytes()
    (cache_file,) = (out / "cache").glob("field-*.bin")
    intact = cache_file.read_bytes()
    truncated = intact[: len(intact) - 5]
    no_step_z = intact.replace(b"step_z=0.25\n", b"", 1)
    for corrupt in (truncated, no_step_z):
        cache_file.write_bytes(corrupt)
        capsys.readouterr()
        assert main(["--config", str(config), "--out", str(out), "field"]) == 0
        assert "recomputing" in capsys.readouterr().err
        assert (out / "radial_profile.csv").read_bytes() == profile
        assert cache_file.read_bytes() == intact  # rewritten whole
        assert sorted(p.name for p in (out / "cache").iterdir()) == [cache_file.name]


def test_no_cache_writes_nothing(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["--config", str(config), "--out", str(out), "--no-cache", "field"]) == 0
    assert not (out / "cache").exists()


def test_identical_configs_give_identical_artifacts(tmp_path):
    # Repeats are byte-identical, and so is every per-level file when the
    # same levels are listed in ascending order.
    config = write_config(tmp_path)
    ascending = write_config(tmp_path, {"policies": {"levels": "10, 20, 30, none"}}, name="up.ini")
    for command in ("optimize", "analyze", "sweep"):
        outs = [tmp_path / f"{command}_{i}" for i in range(3)]
        for cfg, out in zip((config, config, ascending), outs):
            assert main(["--config", str(cfg), "--out", str(out), command]) == 0
        first, repeat, up = outs
        manifest = (first / "manifest.json").read_bytes()
        assert manifest == (repeat / "manifest.json").read_bytes()
        for name in json.loads(manifest)["files"]:
            assert (first / name).read_bytes() == (repeat / name).read_bytes(), name
            if name.startswith("sweep."):  # one row per level, in the config's order
                assert _sweep_rows(first / name) == _sweep_rows(up / name), name
            else:
                assert (first / name).read_bytes() == (up / name).read_bytes(), name


def _sweep_rows(path):
    if path.suffix == ".json":
        return sorted(json.dumps(row, sort_keys=True) for row in json.loads(path.read_text()))
    return sorted(path.read_text().splitlines())


def test_one_factorization_per_subcommand(tmp_path, monkeypatch):
    calls = []
    prepare = cotf.optimizer._prepare

    def counted(*args):
        calls.append(args)
        return prepare(*args)

    monkeypatch.setattr(cotf.optimizer, "_prepare", counted)
    config = write_config(tmp_path, {"policies": {"levels": "10, none, 30, 20"}})
    for command in ("optimize", "analyze"):
        calls.clear()
        assert main(["--config", str(config), "--out", str(tmp_path / command), command]) == 0
        assert len(calls) == 1, command


def test_optimize_writes_the_sweep_subcommands_sweep_csv(tmp_path):
    # Untruncated row first, then the dB levels in the config's order.
    config = write_config(tmp_path, {"policies": {"levels": "30, none"}})
    for command in ("optimize", "sweep"):
        assert main(["--config", str(config), "--out", str(tmp_path / command), command]) == 0
    written = (tmp_path / "optimize" / "sweep.csv").read_bytes()
    assert written == (tmp_path / "sweep" / "sweep.csv").read_bytes()
    assert written.splitlines()[1].startswith(b"none,")


def test_defaults_live_in_the_dataclasses(tmp_path):
    assert cotf.cli.load_config(None) == cotf.cli.RunConfig()
    for kind, geometry in (("line", cotf.DEFAULT_LINE_GEOMETRY), ("cross", cotf.DEFAULT_CROSS_GEOMETRY)):
        path = tmp_path / f"{kind}.ini"
        path.write_text(f"[geometry]\nkind = {kind}\n")
        assert cotf.cli.load_config(str(path)).geometry == geometry


def test_emit_csv_bytes(tmp_path):
    runner = cli.Runner(cli.RunConfig(), tmp_path, use_cache=False)
    path = runner.emit_csv("row.csv", ("threshold_db", "rank_used", "objective", "ratio"),
                           [("none", 25, 0.1, float("nan"))])
    data = path.read_bytes()
    assert data == b"threshold_db,rank_used,objective,ratio\nnone,25,0.10000000000000001,nan\n"
    assert runner.emitted == {"row.csv": hashlib.sha256(data).hexdigest()}


def test_manifest_checksums_match_files(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["--config", str(config), "--out", str(out), "analyze"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    for name, digest in manifest["files"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


def test_reproduce_figures(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["--config", str(config), "--out", str(out), "reproduce", "2", "3", "9"]) == 0
    expected = [
        "fig02_power_vs_shift.csv",
        "fig03_coefficients_none.csv",
        "fig03_coefficients_30db.csv",
        "fig03_coefficients_20db.csv",
        "fig09_coefficients_none.csv",
        "fig09_coefficients_10db.csv",
    ]
    manifest = json.loads((out / "manifest.json").read_text())
    for name in expected:
        assert (out / name).exists(), name
        assert name in manifest["files"]


def test_figures_ignore_config_geometry_and_mask(tmp_path):
    # A figure fixes its own geometry, mask and levels: a 3 x 3 point config
    # with a depth-target mask and a line config give the same bytes.
    point = write_config(tmp_path, {"mask": {"kind": "depth_target", "depth_wavelengths": "1"}})
    line = write_config(tmp_path, {"geometry": {"kind": "line"}}, name="line.ini")
    outs = []
    for config in (point, line):
        out = tmp_path / config.stem
        assert main(["--config", str(config), "--out", str(out), "reproduce", "2", "3", "5"]) == 0
        outs.append(out)
    manifest = json.loads((outs[0] / "manifest.json").read_text())
    assert sorted(manifest["files"]) == [
        "fig02_power_vs_shift.csv",
        "fig03_coefficients_20db.csv",
        "fig03_coefficients_30db.csv",
        "fig03_coefficients_none.csv",
        "fig05_defocus.csv",
    ]
    assert len((outs[0] / "fig03_coefficients_none.csv").read_text().splitlines()) == 1 + 25
    for name in manifest["files"]:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_reproduce_rejects_unknown_figure(tmp_path, capsys):
    config = write_config(tmp_path)
    with pytest.raises(SystemExit) as excinfo:
        main(["--config", str(config), "reproduce", "99"])
    assert excinfo.value.code == 2


def test_db_convention_option(tmp_path, capsys):
    config = write_config(tmp_path, {"outputs": {"db_convention": "amplitude"}})
    out = tmp_path / "out"
    assert main(["--config", str(config), "--out", str(out), "optimize"]) == 0
    payload = json.loads((out / "combination_20db.json").read_text())
    assert payload["policy"]["convention"] == "amplitude"
    # The untruncated result carries the config's convention too.
    only_none = write_config(
        tmp_path, {"outputs": {"db_convention": "amplitude"}, "policies": {"levels": "none"}},
        name="none.ini",
    )
    for command in ("optimize", "sweep"):
        assert main(["--config", str(only_none), "--out", str(out / "none"), command]) == 0
    rows = json.loads((out / "none" / "sweep.json").read_text())
    combination = json.loads((out / "none" / "combination_none.json").read_text())
    assert rows[0]["policy"]["convention"] == combination["policy"]["convention"] == "amplitude"
    bad = write_config(tmp_path, {"outputs": {"db_convention": "bels"}}, name="bad.ini")
    assert main(["--config", str(bad), "optimize"]) == 2
    assert "convention" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "cotf", "--config", str(config), "--out", str(out), "field"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "manifest.json").exists()
