#!/usr/bin/env python3
"""Run the full numeric validation stack from the command line.

Chains the three CLI verification subcommands at their default grids:
special-function selftest, the closed-form / quadrature / Monte Carlo
triangle with limit checks, and the KS distribution suite.  Exits nonzero
if anything fails; a JSON report of the triangle lands in results/.
"""

import pathlib
import sys

from zfsecrecy.cli import main as cli_main


def run():
    outdir = pathlib.Path("results")
    outdir.mkdir(parents=True, exist_ok=True)

    print("== selftest ==")
    code = cli_main(["selftest"])
    if code != 0:
        return code

    print("\n== validate (triangle + limits) ==")
    code = cli_main(["validate", "--workers", "4",
                     "--out", str(outdir / "validation_report.json")])
    if code != 0:
        return code

    print("\n== dist-check (QCA sampling laws) ==")
    return cli_main(["dist-check", "--workers", "4", "--nt", "3,5",
                     "--bits", "1,4", "--alpha", "0.5,1", "--snr", "0:10:10",
                     "--trials", "10000", "--mode", "qca"])


if __name__ == "__main__":
    sys.exit(run())
