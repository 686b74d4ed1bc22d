"""padicmult benchmark: one command for every workload, timed or traced.

    python3 perfbench/run.py --workload {verify,sweep,operators} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from its ``src``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, measured with tracing off; with
``--trace 1`` they are the per-layer ones from a separate traced round.
Progress and diagnostics go to standard error.  Exit status: 0 when every
output was correct, 1 on a wrong output, 2 when the source is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

import calibrate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_CHILDREN = 5
IMPORTTIME_CHILDREN = 3

END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}
SUITE_NAMES = ["orders", "subgroups", "quotients", "teich", "endos", "reps", "digits", "ktheory"]
PER_LAYER = {
    "setup.import_sympy_s": "s",
    "setup.import_padicmult_s": "s",
    **{f"verify.{suite}_s": "s" for suite in SUITE_NAMES},
    "verify.checks": "count",
    "operators.apply.calls": "count",
    "operators.apply.self_s": "s",
    "operators.compose.calls": "count",
    "operators.compose.self_s": "s",
    "operators.adjoint.self_s": "s",
    "operators.build.self_s": "s",
    "operators.eq.self_s": "s",
    "operators.range_fixed_points.self_s": "s",
    "scalars.created": "count",
    "functions.created": "count",
    "functions.endo.self_s": "s",
    "representations.build.self_s": "s",
    "representations.check_covariance.self_s": "s",
    "representations.check_matrix_units.self_s": "s",
    "representations.canonical_words.calls": "count",
    "representations.canonical_words.self_s": "s",
    "representations.orbit_decompose.self_s": "s",
    "unit_groups.quotient_group.calls": "count",
    "unit_groups.quotient_group.table_cells": "count",
    "unit_groups.quotient_group.self_s": "s",
    "unit_groups.subgroup.calls": "count",
    "unit_groups.subgroup.elements": "count",
    "unit_groups.subgroup.self_s": "s",
    "unit_groups.unit_order.calls": "count",
    "unit_groups.unit_order.self_s": "s",
    "unit_groups.find_nr.calls": "count",
    "unit_groups.find_nr.self_s": "s",
    "classification.classify.calls": "count",
    "classification.classify.self_s": "s",
    "ktheory.k_groups.self_s": "s",
    "padic.as_prime.calls": "count",
    "padic.multiplier_residue.calls": "count",
    "sympy.factorint.calls": "count",
    "sympy.factorint.self_s": "s",
    "sympy.isprime.calls": "count",
    "padic.teichmuller.calls": "count",
    "padic.teichmuller.self_s": "s",
    "unit_groups.unit_order_naive.self_s": "s",
    "unit_groups.find_primitive_root.self_s": "s",
    "tracemalloc.peak_mb": "MB",
    "trace.overhead_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["verify", "sweep", "operators"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


# --- set-up ----------------------------------------------------------------------

# the import is timed first; the calibration module loads only afterwards
IMPORT_CODE = (
    "import sys, time; sys.path.insert(0, {src!r}); t = time.thread_time(); "
    "import padicmult, padicmult.cli; elapsed = time.thread_time() - t; "
    "sys.path.insert(0, {here!r}); import calibrate, statistics; "
    "print(elapsed * calibrate.REFERENCE_S / statistics.median(calibrate.unit() for _ in range(5)))"
)


def child(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=120, check=True, cwd=ROOT
    )


def setup_seconds() -> float:
    """Median time to import padicmult and padicmult.cli in fresh interpreters,
    at the reference host's speed (see calibrate.py).

    One untimed child first, so byte-code compilation is not counted."""
    code = IMPORT_CODE.format(src=str(SRC), here=str(Path(__file__).resolve().parent))
    child(["-c", code])
    return statistics.median(float(child(["-c", code]).stdout) for _ in range(SETUP_CHILDREN))


def import_times() -> dict[str, float]:
    """`python -X importtime`: sympy's cumulative import, and padicmult's without it."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import padicmult, padicmult.cli"
    sympy_s, own_s = [], []
    for _ in range(IMPORTTIME_CHILDREN):
        cumulative = {}
        for line in child(["-X", "importtime", "-c", code]).stderr.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) / 1e6
        sympy_s.append(cumulative["sympy"])
        own_s.append(cumulative["padicmult"] + cumulative["padicmult.cli"] - cumulative["sympy"])
    return {"setup.import_sympy_s": statistics.median(sympy_s),
            "setup.import_padicmult_s": statistics.median(own_s)}


# --- rounds ----------------------------------------------------------------------


class Tally:
    def __init__(self) -> None:
        self.round_walls: list[float] = []
        # per distinct operation of the round (a round may run one twice),
        # its time in each run of it, failed or not
        self.latencies: dict[int, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.checks = 0


def run_round(ops, tally: Tally, errors, meter: calibrate.Meter) -> float:
    """Run every operation once; time only `run`, then check its output.

    Operations are timed in thread CPU time.  The library is single-threaded
    and does no I/O, so that is the time it takes to finish; unlike the wall
    clock it leaves out the time a shared host gives to other tenants.  Each
    operation's time is also kept scaled to the reference host's speed during
    it (calibrate.Meter); the returned round time is the plain CPU time,
    which the trace compares with its spans.

    A cap-exceeded error on an operation that expects it is a failed
    operation; any other error or a wrong output raises."""
    gc.collect()
    wall = 0.0
    for op in ops:
        tally.attempted += 1
        meter.start()
        try:
            out = op.run()
        except errors.CapExceededError:
            if not op.expect_cap:
                raise
            out = None
        finally:
            elapsed, scaled = meter.stop()
        wall += elapsed
        tally.latencies.setdefault(id(op), []).append(scaled)
        if out is None:
            tally.failed += 1
        else:
            tally.checks += op.check(out) or 0
    tally.round_walls.append(wall)
    return wall


def timed(ops, seconds: float, errors, tally: Tally) -> dict:
    setup = setup_seconds()
    meter = calibrate.Meter()
    start = time.perf_counter()
    while True:
        run_round(ops, tally, errors, meter)
        if time.perf_counter() - start >= seconds:
            break
    # Each distinct operation's time, at the reference speed, is its median
    # over all its runs, so a burst of host noise in one round moves no
    # operation.  wall_s is the time to run each distinct operation once.
    per_op = [statistics.median(times) for times in tally.latencies.values()]
    values = {
        "setup_s": setup,
        "wall_s": sum(per_op),
        "op_p50_ms": statistics.median(per_op) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    log(f"{len(tally.round_walls)} rounds of {len(ops)} operations; round walls "
        + ", ".join(f"{w:.3f}" for w in tally.round_walls))
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def traced(ops, memory_ops, seconds: float, errors, tally: Tally, package, suites, trace_path: Path) -> dict:
    import tracing

    values = import_times()
    meter = calibrate.Meter()

    tracer = tracing.Tracer()
    tracer.install(package, suites)
    try:
        traced_wall = run_round(ops, tally, errors, meter)
    finally:
        tracer.uninstall()
    checks = tally.checks
    tracer.write(trace_path)

    tracemalloc.start()
    try:
        run_round(memory_ops, tally, errors, meter)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    untraced = []
    start = time.perf_counter()
    while True:
        untraced.append(run_round(ops, tally, errors, meter))
        if time.perf_counter() - start >= seconds:
            break

    calls, total, self_time = tracer.totals()
    for suite in SUITE_NAMES:
        values[f"verify.{suite}_s"] = total[f"verify.{suite}"]
    values["verify.checks"] = checks
    for name in tracer.names:
        if not name.startswith("verify."):
            values[f"{name}.calls"] = calls[name]
            values[f"{name}.self_s"] = self_time[name]
    values.update(tracer.counts)
    values["tracemalloc.peak_mb"] = peak / 2**20
    values["trace.overhead_s"] = traced_wall - statistics.median(untraced)
    log(f"traced round {traced_wall:.3f} s, untraced median {statistics.median(untraced):.3f} s; "
        f"{len(tracer.starts)} spans written to {trace_path}")
    return values


def per_layer_metrics(values: dict) -> dict:
    """Every per-layer metric; one whose layer stayed idle reads 0."""
    return {name: {"value": values.get(name, 0), "unit": unit} for name, unit in PER_LAYER.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "padicmult" / "__init__.py").is_file():
        log(f"no padicmult source under {SRC}; run from the root of a checkout")
        return 2
    sys.path.insert(0, str(SRC))
    import padicmult
    from padicmult import errors, verify

    if Path(padicmult.__file__).resolve().parent != SRC / "padicmult":
        log(f"imported padicmult from {padicmult.__file__}, not from {SRC}")
        return 2
    import workloads

    ops = workloads.ROUNDS[args.workload](args.seed)
    tally = Tally()
    try:
        if args.trace:
            trace_path = OUT / f"trace-{args.workload}-{args.seed}.jsonl"
            metrics = per_layer_metrics(
                traced(ops, workloads.MEMORY_ROUNDS.get(args.workload, workloads.ROUNDS[args.workload])(args.seed),
                       args.seconds, errors, tally, padicmult, verify.SUITES, trace_path)
            )
        else:
            metrics = timed(ops, args.seconds, errors, tally)
    except Exception:  # a wrong output or an unexpected error fails the run
        log("wrong output:\n" + traceback.format_exc())
        print(json.dumps({"correct": False, "attempted": tally.attempted, "failed": tally.failed, "metrics": {}}))
        return 1
    print(json.dumps({"correct": True, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
