#!/usr/bin/env python3
"""One pass of a benchmark workload in a fresh interpreter.

Started by ``run.py``; prints one JSON line.  ``ready_at`` is the
``time.monotonic()`` reading once zfsecrecy (with numpy and scipy) is
imported and the workload config is resolved, so the parent can take the
set-up time from its own reading before the process was started.
"""

import argparse
import json
import os
import pathlib
import platform
import resource
import sys
import time

import workloads

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench"


def environment(cli, configs, seed: int, workers: int) -> dict:
    """Versions, core count and the chunking of every simulated geometry."""
    import numpy
    import scipy
    from zfsecrecy import simulate
    from zfsecrecy.params import SystemParams

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        openblas = "unknown"
    chunks = {}
    for n_t, bits, mode in workloads.geometries(configs):
        try:
            chunks[f"nt={n_t},bits={bits},{mode}"] = simulate.chunk_trials(
                SystemParams(n_t=n_t, bits=bits, alpha=1.0, snr_db=0.0),
                simulate.SimMode(mode))
        except (AttributeError, TypeError, ValueError):
            chunks[f"nt={n_t},bits={bits},{mode}"] = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "openblas": openblas, "seed": seed, "workers": workers,
            "chunk_trials": chunks}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    opts = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import numpy  # noqa: F401  (part of the set-up being timed)
    import scipy.integrate  # noqa: F401
    from zfsecrecy import cli
    if not pathlib.Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"zfsecrecy imported from {cli.__file__}, not from this "
              f"checkout", file=sys.stderr)
        return 2
    configs = workloads.sweep_configs(cli, opts.workload, opts.seed,
                                      opts.workers)
    ready_at = time.monotonic()
    if opts.setup_only:
        print(json.dumps({"ready_at": ready_at}))
        return 0

    tracer = None
    if opts.trace:
        import numpy as np
        import spans
        from zfsecrecy import analytic, codebooks, linalg, simulate
        tracer = spans.Tracer()
        tracer.install({"cli": cli, "simulate": simulate, "analytic": analytic,
                        "codebooks": codebooks, "linalg": linalg, "numpy": np})

    SCRATCH.mkdir(exist_ok=True)
    start = time.perf_counter()
    outcome = workloads.run_workload(cli, opts.workload, configs, opts.seed,
                                     SCRATCH)
    wall = time.perf_counter() - start
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"ready_at": ready_at, "wall_s": wall,
              "peak_rss_mib": peak_rss_mib, "attempted": outcome.attempted,
              "failed": outcome.failed, "digests": outcome.digests(),
              "notes": outcome.notes,
              "environment": environment(cli, configs, opts.seed, opts.workers)}
    if tracer is not None:
        layers = spans.layer_metrics(tracer.spans, tracer.counters,
                                     tracer.counted_s)
        layers["cli.points"] = outcome.attempted
        layers["cli.csv_bytes"] = outcome.output_bytes()
        result["layers"] = layers
        trace_dir = SCRATCH / "trace"
        trace_dir.mkdir(exist_ok=True)
        path = trace_dir / f"{opts.workload}-s{opts.seed}-w{opts.workers}.json"
        tracer.write(path)
        result["trace_file"] = str(path.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
