#!/usr/bin/env python3
"""Produce the headline secrecy-rate curves as CSV.

Writes three sweeps over -10..40 dB at n_t=5, B=4 for relative path gains
{0.25, 0.5, 1}:

  results/rate_curve_analytic.csv   closed form only (dense grid)
  results/rate_curve_qca.csv        closed form + QCA Monte Carlo
  results/rate_curve_full.csv       closed form + FULL-mode MC

The QCA curve sits on top of the closed form (that is the model it
integrates); the FULL-mode curve runs a few percent below it at
low-to-mid SNR.  The closed form models the users' interference with the
quantization-cell approximation and the eavesdropper's with orthonormal
beams; FULL makes neither simplification, so the gap has an RVQ-error-law
part and a beam non-orthogonality part (see the README's analysis of the
expected test failures).
Columns are gnuplot/spreadsheet-ready; see the README for the schema.
"""

import argparse
import pathlib
import sys

from zfsecrecy.cli import main as cli_main


def run(args=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--outdir", default="results")
    parser.add_argument("--seed", default="20250")
    parser.add_argument("--trials", default="100000")
    parser.add_argument("--full-trials", default="20000",
                        help="trials for the slower FULL-mode sweep")
    parser.add_argument("--workers", default="4")
    opts = parser.parse_args(args)

    outdir = pathlib.Path(opts.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    base = ["--nt", "5", "--bits", "4", "--alpha", "0.25,0.5,1",
            "--snr", "-10:40:2", "--seed", opts.seed,
            "--workers", opts.workers]

    jobs = [
        ("rate_curve_analytic.csv", ["--mode", "analytic-only"]),
        ("rate_curve_qca.csv",
         ["--mode", "qca", "--trials", opts.trials]),
        ("rate_curve_full.csv",
         ["--mode", "full", "--trials", opts.full_trials]),
    ]
    for name, extra in jobs:
        out = outdir / name
        code = cli_main(["rate-curve", *base, *extra, "--out", str(out)])
        if code != 0:
            return code
        print(f"-> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
