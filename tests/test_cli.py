"""CLI tests on deliberately tiny grids: exit codes, strict config schema,
caching, manifests, determinism, and figure reproduction."""
import hashlib
import json
import subprocess
import sys

import pytest

import cotf
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


@pytest.mark.parametrize("command", ["field", "otfs", "optimize", "analyze", "sweep"])
def test_subcommands_succeed(tmp_path, command):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["--config", str(config), "--out", str(out), command]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == command
    assert manifest["files"]
    for name in manifest["files"]:
        assert (out / name).stat().st_size > 0


def test_unknown_key_is_config_error(tmp_path, capsys):
    config = write_config(tmp_path, {"aperture": {"typo_key": "5"}})
    assert main(["--config", str(config), "field"]) == 2
    assert "typo_key" in capsys.readouterr().err


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
    config = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["--config", str(config), "--out", str(out1), "optimize"]) == 0
    assert main(["--config", str(config), "--out", str(out2), "optimize"]) == 0
    manifest1 = (out1 / "manifest.json").read_bytes()
    manifest2 = (out2 / "manifest.json").read_bytes()
    assert manifest1 == manifest2
    for name in json.loads(manifest1)["files"]:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


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
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "manifest.json").exists()
