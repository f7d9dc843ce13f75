"""cotf benchmark: one workload, timed end to end or traced per layer.

Usage, from the repository root::

    python3 cotfbench/run.py --workload config-study --seed 1 --seconds 30 --trace 0
    python3 cotfbench/run.py --workload reproduce-all --seed 1 --seconds 30 --trace 1
    python3 cotfbench/run.py --workload field-grids --seed 1 --seconds 5 --trace 0 --fast

The package is imported from ``src/`` of the checkout the script sits in.
One process is the only client, in a closed loop: each ``cotf`` invocation
(``cotf.cli.main(argv)``) starts when the previous one has returned.  The
loop runs whole passes of the workload's seeded ops until ``--seconds`` of
op time and the workload's minimum op count are reached.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs every op
twice, untraced and traced in alternating order, and reports per-layer
metrics per traced op plus the tracing overhead.  Every output is checked
(see ``workloads.py``); the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``, and the exit
code is 1 when a check failed.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

# One BLAS thread, set before numpy loads.  On a 2-core host, OpenBLAS's
# second thread competes with the interpreter: the same cross-geometry sweep
# took 76-304 ms (median 153) with two threads and 55-87 ms (median 72) with
# one, which no run length averages away.  The environment line records it.
BLAS_THREADS = "1"
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_name] = BLAS_THREADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".cotfbench"
WORK = STATE / "work"
SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "setup_s": "s", "job_s": "s", "ops_per_s": "1/s",
    "op_p50_ms": "ms", "op_p90_ms": "ms", "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="cotf benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fast", action="store_true",
                        help="run on the small smoke-test grid instead of the paper's")
    return parser.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def import_seconds() -> float:
    """Import time of the package in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import cotf; print(time.perf_counter() - t)"
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def blas_threads():
    """OpenBLAS thread count via its C API, or None when not found."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    paths = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()})
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        # Plain OpenBLAS, and the prefixed build numpy and scipy wheels ship.
        for name in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            function = getattr(lib, name, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    try:
        import numba  # noqa: F401

        has_numba = True
    except ImportError:
        has_numba = False
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "numba_imports": has_numba,
    }


def reset_work() -> None:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)


def run_op(cli, workload, op, tracer=None):
    """One invocation: (seconds, exit code, stderr).  Exceptions escaping
    ``cli.main`` count as a failed op with the traceback as message."""
    argv = workload.argv(op)
    captured = io.StringIO()
    with contextlib.redirect_stderr(captured):
        start = time.perf_counter()
        try:
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.span("cli.main", "main", lambda: cli.main(argv))
        except Exception:  # noqa: BLE001 - a crash is a failed op, not a dead run
            code = "exception"
            captured.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
    return elapsed, code, captured.getvalue()


def closed_loop(workload, seconds: float, step, min_ops: int) -> list:
    """Call ``step(op)`` -> seconds over the pass, cyclically, in whole passes
    until ``seconds`` of op time is spent and ``min_ops`` ops are done.
    Whole passes keep the input mix of every run the same."""
    ops = workload.ops
    spent = 0.0
    done = []
    while len(done) % len(ops) or len(done) < min_ops or spent < seconds:
        op = ops[len(done) % len(ops)]
        elapsed = step(op)
        spent += elapsed
        done.append((op, elapsed))
    return done


def percentile(values, fraction: float) -> float:
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def end_to_end(workload, done, setup_s: float) -> dict:
    latencies = [elapsed for _, elapsed in done]
    per_pass = len(workload.ops)
    passes = [sum(latencies[i:i + per_pass]) for i in range(0, len(latencies), per_pass)]
    job_s = statistics.median(passes)
    return passes, {
        "setup_s": setup_s,
        "job_s": job_s,
        "ops_per_s": per_pass / job_s,
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_p90_ms": 1e3 * percentile(latencies, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cotf" / "__init__.py").is_file():
        print(f"error: no cotf package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cotf
    from cotf import cli

    if not Path(cotf.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported cotf from {cotf.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    mode = workloads.FAST if args.fast else workloads.DEFAULT
    workload = workloads.WORKLOADS[args.workload](args.seed, mode, WORK)

    # Set-up, repeated: a fresh interpreter's import plus the workload's
    # inputs (and, for config-study, the field-cache fill).
    started = time.perf_counter()
    imports, setups = [], []
    for _ in range(SETUP_REPEATS):
        reset_work()
        imports.append(import_seconds())
        start = time.perf_counter()
        workload.prepare()
        setups.append(imports[-1] + time.perf_counter() - start)

    problems = []
    loop_started = time.perf_counter()

    def checked(op, elapsed, code, message):
        problems.extend(workload.check(op, code, message))
        workload.cleanup(op)
        return elapsed

    if args.trace:
        tracer = Tracer()
        traced_walls, untraced_walls = [], []

        def pair(op):
            total = 0.0
            traced_first = len(traced_walls) % 2 == 1
            for traced in (traced_first, not traced_first):
                if traced:
                    with tracer.active():
                        elapsed, code, message = run_op(cli, workload, op, tracer)
                    traced_walls.append(elapsed)
                else:
                    elapsed, code, message = run_op(cli, workload, op)
                    untraced_walls.append(elapsed)
                total += checked(op, elapsed, code, message)
            return total

        done = closed_loop(workload, args.seconds, pair, 1)
        attempted = 2 * len(done)
        metrics = {"cotf.import_s": (statistics.median(imports), "s")}
        metrics.update(tracer.metrics(traced_walls, untraced_walls))
        (STATE / f"trace-{args.workload}.json").write_text(json.dumps(tracer.dump()))
    else:
        done = closed_loop(
            workload, args.seconds,
            lambda op: checked(op, *run_op(cli, workload, op)),
            workload.min_ops if mode == workloads.DEFAULT else 1,
        )
        attempted = len(done)
        passes, values = end_to_end(workload, done, statistics.median(setups))
        metrics = {name: (value, END_TO_END_UNITS[name]) for name, value in values.items()}

    checks_started = time.perf_counter()
    problems += workload.finish()
    shutil.rmtree(WORK, ignore_errors=True)
    phases = (loop_started - started, checks_started - loop_started, time.perf_counter() - checks_started)

    failed = len(workload.failures)
    print("env: " + json.dumps(environment(), sort_keys=True))
    print(f"workload: {workload.name} (seed {args.seed}, {mode.name} grid): {workloads.WHY[workload.name]}")
    for line in workload.report():
        print(line)
    for (key, code, message, known), count in Counter(workload.failures).items():
        note = " (known defect)" if known else ""
        print(f"failed op: {key} x{count} exit {code}{note}: {workload.describe(key)}: {message}")
    print(f"ops: {attempted} attempted, {failed} failed, fail_ratio {failed / attempted:.4f}")
    if not args.trace:
        print("passes: " + " ".join(f"{seconds:.3f}" for seconds in passes) + " s")
    print("phases: set-up {:.1f} s, loop {:.1f} s, deferred checks {:.1f} s".format(*phases))
    for problem in problems:
        print(f"check failed: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"metric: {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
