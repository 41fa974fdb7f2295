#!/usr/bin/env python3
"""Many-seed calibration of validate's mc-vs-closed checks and of
dist-check's KS checks.

Runs the Monte Carlo leg of the default ``zfsecrecy validate`` grid (its
144 points at 200,000 trials) at seeds 0 .. N-1 and prints, for every
point, the mean and the standard deviation over the seeds of
z = (mc - closed) / std_err.  A calibrated estimator keeps both inside
their bands: the mean within 3.5/sqrt(N) of 0, the standard deviation
within 3.5/sqrt(2N) of 1.  Points whose every estimate equals the closed
form with a standard error of exactly 0 (both links one law on one draw)
have no z and are listed as exact.  It also counts the seeds at which
validate's own check, |mc - closed| <= 3 std_err, fails at some point, and
the failing lines.

It also prints how the keys' z-scores correlate.  Every point of one n_t
(one draw key) reads one draw, but two keys must draw independently: for
each pair of n_t values, the correlation over the seeds of z at every
(bits, alpha, snr) both keys share, and the mean of those correlations,
which for independent keys lies within 3/sqrt(N) of 0 (each correlation
has a standard deviation of about 1/sqrt(N), and so has their mean at
most).  The exit status is 1 if a point leaves its bands or a pair of
keys its correlation band.

At the same seeds it runs ``zfsecrecy dist-check`` at its defaults and
counts the seeds at which some KS line prints FAIL, and those lines: the
family-wise false-alarm rate of dist-check on a correct engine.

zfsecrecy is imported from PYTHONPATH, so the harness of one checkout
measures the engine of another.  ``--against`` reads a previous run's
``--out`` file and adds each point's standard error over the other's.
About 35 s per 200 seeds on two cores:

    PYTHONPATH=../other/src python3 tests/calibrate_validate.py --out a.json
    PYTHONPATH=src python3 tests/calibrate_validate.py --against a.json
"""

import argparse
import dataclasses
import io
import json
import math
import sys

import numpy as np

from zfsecrecy import analytic, cli, simulate

BAND_SIGMAS = 3.5
CHECK_SIGMAS = 3.0
CORRELATION_SIGMAS = 3.0


def calibrate(seeds: int, workers: int = 2) -> dict:
    """z-statistics of the default validate grid, and the FAIL lines of the
    default dist-check, over seeds 0 .. seeds-1."""
    _, config = cli._resolve_config(["validate"])
    _, dist = cli._resolve_config(["dist-check"])
    dist_fails = []
    grid = list(config.grid())
    closed = np.array([analytic.secrecy_rate_closed_form(p) for p in grid])
    means, errors = np.empty((seeds, len(grid))), np.empty((seeds, len(grid)))
    for seed in range(seeds):
        estimates = simulate.estimate_secrecy_rates(
            grid, simulate.SimMode.QCA, config.trials, seed, workers=workers)
        means[seed] = [e.mean for e in estimates]
        errors[seed] = [e.std_err for e in estimates]
        out = io.StringIO()
        cli.run_dist_check(dataclasses.replace(dist, seed=seed,
                                               workers=workers), stream=out)
        dist_fails.append(sum(line.startswith("FAIL")
                              for line in out.getvalue().splitlines()))
    gaps = np.abs(means - closed)
    failed = gaps > CHECK_SIGMAS * errors
    exact = ((errors == 0.0) & (gaps == 0.0)).all(axis=0)
    # A standard error of 0 with a nonzero gap gives an infinite z, and
    # its point a non-finite mean or deviation: out of band.
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(exact, 0.0, (means - closed) / errors)
        points = [{"tag": cli._tag(p), "exact": bool(x),
                   "mean_z": float(col.mean()),
                   "sd_z": float(col.std(ddof=1)),
                   "mean_std_err": float(se.mean())}
                  for p, x, col, se in zip(grid, exact, z.T, errors.T)]
    return {"seeds": seeds, "trials": config.trials,
            "fail_seeds": int(failed.any(axis=1).sum()),
            "fail_lines": int(failed.sum()), "points": points,
            "key_correlations": key_correlations(grid, z, exact),
            "dist_check": {"trials": dist.trials,
                           "fail_seeds": sum(map(bool, dist_fails)),
                           "fail_lines": sum(dist_fails)}}


def key_correlations(grid, z, exact) -> list:
    """Per pair of n_t values: the correlations over the seeds (the rows
    of ``z``) of the two keys' z at each (bits, alpha, snr) that both
    have and that is not ``exact``, and their mean, least and largest."""
    columns = {}
    for col, (p, x) in enumerate(zip(grid, exact)):
        if not x:
            columns.setdefault(p.n_t, {})[(p.bits, p.alpha, p.snr_db)] = col
    pairs = []
    keys = sorted(columns)
    for i, a in enumerate(keys):
        for b in keys[i + 1:]:
            shared = [point for point in columns[a] if point in columns[b]]
            r = [float(np.corrcoef(z[:, columns[a][point]],
                                   z[:, columns[b][point]])[0, 1])
                 for point in shared]
            pairs.append({"keys": f"nt={a},{b}", "points": len(r),
                          "mean_r": float(np.mean(r)), "min_r": min(r),
                          "max_r": max(r)})
    return pairs


def report(result: dict, against=None, stream=sys.stdout) -> int:
    """Prints ``result`` point by point, then pair of keys by pair; returns
    the points and pairs out of band."""
    n = result["seeds"]
    mean_band = BAND_SIGMAS / math.sqrt(n)
    sd_band = BAND_SIGMAS / math.sqrt(2 * n)
    other = ({p["tag"]: p["mean_std_err"] for p in against["points"]}
             if against else {})
    print(f"{n} seeds, {result['trials']} trials; bands: |mean z| <= "
          f"{mean_band:.4f}, |sd z - 1| <= {sd_band:.4f}", file=stream)
    outside = 0
    for p in result["points"]:
        ratio = (f" std_err/other={p['mean_std_err'] / other[p['tag']]:.4f}"
                 if other.get(p["tag"]) else "")
        if p["exact"]:
            print(f"exact  {p['tag']}: mc = closed, std_err = 0 at every "
                  f"seed{ratio}", file=stream)
            continue
        ok = (abs(p["mean_z"]) <= mean_band
              and abs(p["sd_z"] - 1.0) <= sd_band)
        outside += not ok
        print(f"{'in   ' if ok else 'OUT  '}  {p['tag']}: mean z="
              f"{p['mean_z']:+.4f} sd z={p['sd_z']:.4f} std_err="
              f"{p['mean_std_err']:.4g}{ratio}", file=stream)
    corr_band = CORRELATION_SIGMAS / math.sqrt(n)
    for pair in result["key_correlations"]:
        ok = abs(pair["mean_r"]) <= corr_band
        outside += not ok
        print(f"{'in   ' if ok else 'OUT  '}  keys {pair['keys']}: mean "
              f"correlation of z {pair['mean_r']:+.4f} (band "
              f"{corr_band:.4f}) over {pair['points']} shared points, from "
              f"{pair['min_r']:+.4f} to {pair['max_r']:+.4f}", file=stream)
    print(f"points and key pairs out of band: {outside}; exact points: "
          f"{sum(p['exact'] for p in result['points'])}; seeds with a "
          f"mc-vs-closed FAIL: {result['fail_seeds']} of {n} "
          f"({result['fail_lines']} lines)", file=stream)
    dist = result["dist_check"]
    print(f"dist-check at its defaults ({dist['trials']} trials): seeds with "
          f"a KS FAIL: {dist['fail_seeds']} of {n} ({dist['fail_lines']} "
          f"lines)", file=stream)
    return outside


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=200,
                        help="seeds 0 .. N-1 (default 200)")
    parser.add_argument("--out", help="write the run's statistics as JSON")
    parser.add_argument("--against", help="a previous run's --out file")
    args = parser.parse_args(argv)
    result = calibrate(args.seeds)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=1)
    against = None
    if args.against:
        with open(args.against) as fh:
            against = json.load(fh)
    return 1 if report(result, against) else 0


if __name__ == "__main__":
    sys.exit(main())
