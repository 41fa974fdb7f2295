#!/usr/bin/env python3
"""zfsecrecy benchmark: end-to-end and per-layer metrics of three workloads.

    python3 perfbench/run.py --workload qca-curve --seed 20250 --seconds 20
    python3 perfbench/run.py --workload verify --trace 1
    python3 perfbench/run.py --workload all

Run it from the root of a checkout; it imports zfsecrecy from ``src/``.
Every workload pass runs in a fresh interpreter (``child.py``) with
``workers=2``.  With ``--trace 0`` passes repeat until ``--seconds`` have
gone (at least three), and the end-to-end metrics are medians over them.
With ``--trace 1`` it makes one untraced pass, one traced pass and one
traced single-worker pass, and reports the per-layer metrics.  The last
line of standard output is one JSON object; the lines before it are the
human-readable report.  See README.md in this directory.
"""

import argparse
import json
import os
import pathlib
import signal
import statistics
import subprocess
import sys
import time

# One BLAS thread: the simulator's own two worker threads already fill the
# cores, and OpenBLAS's spinning pool threads would compete with them.
# Children inherit this, so it is set before numpy is first imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import calibrate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
CHILD = pathlib.Path(__file__).resolve().parent / "child.py"

MIN_PASSES = 3
# Calibration runs before each pass and after the last: at least
# MIN_CALIBRATIONS kernel runs, and at least CALIBRATION_SHARE of the
# previous pass's wall time, so that long passes get as many samples as
# their length needs.
MIN_CALIBRATIONS = 2
CALIBRATION_SHARE = 0.1
# Set-up time is a median of at least this many interpreter starts.
SETUP_SAMPLES = 6
CHILD_TIMEOUT_S = 150
# No pass starts once the run is this old, so a run ends within 180 s.
RUN_BUDGET_S = 120

END_TO_END = (
    ("wall_ref_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("ops_ok_frac", "ratio"),
)


class BenchError(Exception):
    pass


def spawn(workload: str, seed: int, workers: int, trace=False,
          setup_only=False) -> dict:
    """One child pass; returns its JSON result with ``setup_s`` and
    ``pass_s`` (the whole process lifetime) added."""
    cmd = [sys.executable, str(CHILD), "--workload", workload,
           "--seed", str(seed), "--workers", str(workers)]
    cmd += ["--trace"] if trace else []
    cmd += ["--setup-only"] if setup_only else []
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} pass exceeded {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} pass exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result.pop("ready_at") - started
    result["pass_s"] = time.monotonic() - started
    return result


def _spread(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.4g} q3={q3:.4g}"


def check_passes(passes: list) -> list:
    """Correctness problems across passes: failed operations, and outputs
    that differ between passes of the same seed (worker count and tracing
    must not change a single output bit)."""
    problems = []
    for index, result in enumerate(passes):
        problems += [f"pass {index}: {note}" for note in result["notes"]
                     if not note.startswith("info ")]
    digests = {json.dumps(r["digests"], sort_keys=True) for r in passes}
    if len(digests) > 1:
        problems.append("outputs differ between passes of the same seed")
    return problems


def report_passes(workload: str, seed: int, passes: list):
    first = passes[0]
    print(f"== {workload}  seed={seed}  workers={workloads.WORKERS}  "
          f"passes={len(passes)}")
    print("environment " + json.dumps(first["environment"], sort_keys=True))
    for label, digest in first["digests"].items():
        print(f"sha256 {label} {digest}")
    for note in first["notes"]:
        print(note)


def measure(workload: str, seed: int, seconds: float) -> dict:
    """Untraced passes for ``seconds`` (at least MIN_PASSES); end-to-end
    metrics as medians over the passes.  The workload's calibration kernels
    run before every pass and after the last; the median pass wall time,
    scaled by their reference time over their median time in this run,
    gives ``wall_ref_s``."""
    workers = workloads.WORKERS
    passes, calibrations = [], []

    def calibrate_now():
        budget = CALIBRATION_SHARE * passes[-1]["wall_s"] if passes else 0.0
        start, runs = time.monotonic(), 0
        while runs < MIN_CALIBRATIONS or time.monotonic() - start < budget:
            calibrations.append(calibrate.seconds(workload))
            runs += 1

    calibrate.warm_up()
    begin = time.monotonic()
    while True:
        calibrate_now()
        passes.append(spawn(workload, seed, workers))
        elapsed = time.monotonic() - begin
        if len(passes) >= MIN_PASSES and elapsed >= seconds:
            break
        if elapsed + max(p["pass_s"] for p in passes) > RUN_BUDGET_S:
            break
    calibrate_now()
    # The first start in a checkout also compiles bytecode: not a set-up
    # sample.  Set-up-only starts top the samples up to SETUP_SAMPLES.
    setups = [p["setup_s"] for p in passes[1:]]
    setups += [spawn(workload, seed, workers, setup_only=True)["setup_s"]
               for _ in range(SETUP_SAMPLES - len(setups))]

    walls = [p["wall_s"] for p in passes]
    scale = calibrate.REFERENCE_S[workload] / statistics.median(calibrations)
    rss = [p["peak_rss_mib"] for p in passes]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    problems = check_passes(passes)

    report_passes(workload, seed, passes)
    print(f"wall_ref_s      {statistics.median(walls) * scale:.4f} s")
    print(f"wall_s          {statistics.median(walls):.4f} s    ({_spread(walls)})")
    print(f"calibration_s   {statistics.median(calibrations):.4f} s    "
          f"({_spread(calibrations)}; reference "
          f"{calibrate.REFERENCE_S[workload]} s)")
    print(f"setup_s         {statistics.median(setups):.4f} s    ({_spread(setups)})")
    print(f"peak_rss_mib    {statistics.median(rss):.1f} MiB  ({_spread(rss)})")
    print(f"ops_failed_frac {failed / attempted:.6f} ratio  "
          f"({failed} of {attempted} operations)")
    for problem in problems:
        print(f"PROBLEM {problem}")
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "wall_ref_s": statistics.median(walls) * scale,
            "setup_s": statistics.median(setups),
            "peak_rss_mib": statistics.median(rss),
            "ops_ok_frac": (attempted - failed) / attempted,
        },
    }


def trace(workload: str, seed: int) -> dict:
    """An untraced, a traced and a traced single-worker pass; per-layer metrics."""
    workers = workloads.WORKERS
    base = spawn(workload, seed, workers)
    traced = spawn(workload, seed, workers, trace=True)
    single = spawn(workload, seed, 1, trace=True)
    passes = [base, traced, single]
    problems = check_passes(passes)

    metrics = {name: traced["layers"].get(name, 0.0)
               for name, _, _ in spans.PER_LAYER}
    busy_1 = single["layers"]["simulate.estimate.busy_s"]
    busy_2 = metrics["simulate.estimate.busy_s"]
    metrics["simulate.scaling_eff"] = busy_1 / (workers * busy_2) if busy_2 else 0.0
    metrics["trace.overhead_frac"] = traced["wall_s"] / base["wall_s"] - 1.0

    report_passes(workload, seed, passes)
    print(f"untraced wall {base['wall_s']:.4f} s, traced {traced['wall_s']:.4f} s,"
          f" traced workers=1 {single['wall_s']:.4f} s; spans in "
          f"{traced['trace_file']}")
    units = {name: unit for name, unit, _ in spans.PER_LAYER}
    for name, value in metrics.items():
        print(f"{name:34s} {value:.6g} {units[name]}")
    for kind, unit in (("closed_form", "us"), ("quadrature", "ms")):
        n = metrics[f"analytic.{kind}.calls"]
        pct = metrics[f"analytic.{kind}.tail_pct"]
        if n:
            print(f"analytic.{kind}: p50 and p{pct:.4g} ({unit}) of {n:g} calls, "
                  f"10 calls beyond the tail" if pct else
                  f"analytic.{kind}: {n:g} calls, too few for a tail")
    for problem in problems:
        print(f"PROBLEM {problem}")
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    return {"correct": not problems and failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def _emit(result: dict, units: dict):
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter, epilog=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so that subprocess.run kills and reaps the
    # running pass instead of leaving it behind.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "zfsecrecy" / "__init__.py").is_file():
        print(f"no zfsecrecy sources under {ROOT / 'src'}; run the benchmark "
              f"from the root of a zfsecrecy checkout", file=sys.stderr)
        return 2
    units = ({name: unit for name, unit, _ in spans.PER_LAYER} if opts.trace
             else dict(END_TO_END))
    names = workloads.NAMES if opts.workload == "all" else (opts.workload,)
    results = {}
    try:
        for name in names:
            results[name] = (trace(name, opts.seed) if opts.trace
                             else measure(name, opts.seed, opts.seconds))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if opts.workload != "all":
        _emit(results[opts.workload], units)
        return 0
    combined = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{m}": v for w, r in results.items()
                    for m, v in r["metrics"].items()},
    }
    _emit(combined, {f"{w}.{m}": units[m] for w in results for m in units})
    return 0


if __name__ == "__main__":
    sys.exit(main())
