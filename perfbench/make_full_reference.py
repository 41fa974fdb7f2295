#!/usr/bin/env python3
"""Regenerate ``full_reference.json``, the FULL-mode reference values that
gate the ``full-sweep`` workload.

Runs every ``full-sweep`` grid point with 40 chunks of trials at a seed no
benchmark run uses, and records each mean with its standard error.  Run it
from the root of a git checkout; it takes a few minutes on two cores:

    python3 perfbench/make_full_reference.py

The commit of the checkout is recorded as the values' source, marked
``-dirty`` when ``src/`` has uncommitted changes.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
REFERENCE_SEED = 900_001
CHUNKS = 40


def source_commit() -> str:
    """The checkout's commit, with ``-dirty`` if ``src/`` differs from it."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    commit = git("rev-parse", "HEAD")
    return commit + ("-dirty" if git("status", "--porcelain", "--", "src")
                     else "")


def main() -> int:
    commit = source_commit()
    sys.path.insert(0, str(ROOT / "src"))
    from zfsecrecy import cli, simulate
    from zfsecrecy.params import SystemParams
    import workloads

    config = workloads.sweep_configs(cli, "full-sweep", REFERENCE_SEED,
                                     workloads.WORKERS)["rate-curve"]
    points = []
    for n_t in config.nt:
        for bits in config.bits:
            for alpha in config.alpha:
                for snr_db in config.snr_values():
                    p = SystemParams(n_t=n_t, bits=bits, alpha=alpha,
                                     snr_db=snr_db)
                    trials = CHUNKS * simulate.chunk_trials(
                        p, simulate.SimMode.FULL)
                    est = simulate.estimate_secrecy_rate(
                        p, simulate.SimMode.FULL, trials, REFERENCE_SEED,
                        workers=workloads.WORKERS)
                    points.append({"n_t": n_t, "bits": bits, "alpha": alpha,
                                   "snr_db": snr_db, "mean": est.mean,
                                   "std_err": est.std_err,
                                   "n_trials": est.n_trials,
                                   "rejected": est.rejected})
                    print(points[-1], flush=True)
    record = {"source_commit": commit, "seed": REFERENCE_SEED,
              "mode": "full", "points": points}
    workloads.REFERENCE_FILE.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
