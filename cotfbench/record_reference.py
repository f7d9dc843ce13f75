"""Record the reference values the benchmark checks outputs against.

Usage, from the repository root::

    python3 cotfbench/record_reference.py

Writes ``cotfbench/reference/reference.json``: for the default and the fast
grid, the objective, improvement factor and rank of every (geometry, mask,
dB convention, level) that ``config-study`` can draw, the fig08 NA-sweep
improvements, and (fast grid only; the default grid uses the golden CSV)
the fig02 power-vs-shift curve.  Each level is solved on its own with
``cotf.solve``, so no nesting check can refuse a value.
"""
from __future__ import annotations

import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import cotf  # noqa: E402

from workloads import (  # noqa: E402
    CONVENTIONS, DEFAULT, FAST, GEOMETRIES, LEVEL_POOL, MASKS, REFERENCE_FILE,
    build_geometry, build_mask, reference_key, shift_schedule,
)


def record(mode) -> dict:
    field = cotf.simulate_field(mode.aperture, mode.grid)
    objectives = {}
    for geometry in GEOMETRIES:
        stack = cotf.build_stack(field, build_geometry(geometry))
        for mask in MASKS:
            region = build_mask(stack, mask)
            untruncated = cotf.solve(stack, region, cotf.TruncationPolicy())
            for convention in CONVENTIONS:
                for db in (None,) + LEVEL_POOL:
                    result = untruncated if db is None else cotf.solve(
                        stack, region, cotf.TruncationPolicy(threshold_db=db, convention=convention)
                    )
                    objectives[reference_key(geometry, mask, convention, db)] = [
                        result.objective, result.improvement_factor, result.rank_used,
                    ]
        print(f"{mode.name}: {geometry} done", file=sys.stderr)
    rows = cotf.na_sweep(
        [math.radians(a) for a in (45.0, 50.0, 55.0, 60.0)],
        cotf.DEFAULT_POINT_GEOMETRY,
        policies=[cotf.TruncationPolicy(threshold_db=20.0)],
        grid=mode.grid,
        n_theta=mode.n_theta,
        n_phi=mode.n_phi,
    )
    entry = {
        "objectives": objectives,
        "na_sweep": [row["improvement_factors"][0] for row in rows],
    }
    if mode == FAST:
        stack = cotf.build_stack(field, cotf.DEFAULT_POINT_GEOMETRY)
        curve = cotf.power_vs_shift(field, build_mask(stack, "mainlobe"), shift_schedule(mode.grid))
        entry["fig2"] = [list(row) for row in zip(curve.shifts, curve.focal, curve.out_of_focus)]
    return entry


def main() -> int:
    reference = {mode.name: record(mode) for mode in (FAST, DEFAULT)}
    REFERENCE_FILE.write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE_FILE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
