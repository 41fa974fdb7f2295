import argparse
import ast
import dataclasses
import hashlib
import importlib.util
import io
import math
import pathlib
import re
import subprocess
import sys
import tracemalloc
from decimal import Decimal

import pytest

from dispatch import AVX512, BASELINE, recorded
from make_arbiter_rates import mpmath_rate
from oracles import explicit_directions
from zfsecrecy import analytic, cli, simulate
from zfsecrecy.cli import (CSV_HEADER, EXIT_IO, EXIT_OK, EXIT_USAGE,
                           EXIT_VALIDATION, MAX_GRID_POINTS, MAX_NT,
                           MAX_TRIALS, MAX_WORKERS, SweepConfig, UsageError,
                           build_parser, main,
                           parse_curve_csv, run_dist_check, run_rate_curve,
                           run_selftest, run_validate)
from zfsecrecy.params import SystemParams

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"

TINY = dict(nt=[5], bits=[4], alpha=[1.0], snr_start=10.0, snr_stop=10.0,
            snr_step=1.0, trials=2_000, seed=3)


# One chunk per point (9,000 trials) on two workers, four geometries.
GOLDEN = dict(nt=[2, 3], bits=[0, 2], alpha=[0.5, 1.0], snr_start=-10.0,
              snr_stop=10.0, snr_step=10.0, trials=9_000, seed=11, workers=2)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_default_grid_row_count(tmp_path):
    # Default sweep: one (n_t, bits) pair, three path-loss ratios, 21 SNRs.
    out = tmp_path / "curve.csv"
    config = SweepConfig(mode="analytic-only", out=str(out))
    points = run_rate_curve(config, stream=io.StringIO())
    assert len(points) == 3 * 21
    lines = read(out).decode().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 63


def test_csv_is_byte_identical_for_same_seed(tmp_path):
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out_a, out_b):
        main(["rate-curve", "--nt", "5", "--bits", "4", "--alpha", "1",
              "--snr", "0:10:5", "--trials", "2000", "--seed", "7",
              "--out", str(out)])
    assert read(out_a) == read(out_b)


def test_csv_is_byte_identical_across_worker_counts(tmp_path):
    out_a, out_b = tmp_path / "w1.csv", tmp_path / "w4.csv"
    for out, workers in ((out_a, "1"), (out_b, "4")):
        code = main(["rate-curve", "--nt", "5", "--bits", "4", "--alpha",
                     "0.5,1", "--snr", "0:10:5", "--trials", "4000",
                     "--seed", "7", "--workers", workers, "--out", str(out)])
        assert code == EXIT_OK
    assert read(out_a) == read(out_b)


def test_csv_roundtrip_is_exact(tmp_path):
    out = tmp_path / "c.csv"
    config = SweepConfig(**TINY, out=str(out))
    points = run_rate_curve(config, stream=io.StringIO())
    parsed = parse_curve_csv(read(out).decode())
    assert len(parsed) == len(points)
    for a, b in zip(points, parsed):
        assert a == b


def test_analytic_only_rows_roundtrip_with_nan(tmp_path):
    out = tmp_path / "d.csv"
    config = SweepConfig(**TINY, mode="analytic-only", out=str(out))
    run_rate_curve(config, stream=io.StringIO())
    (point,) = parse_curve_csv(read(out).decode())
    assert math.isnan(point.r_mc_mean) and math.isnan(point.r_mc_stderr)
    assert point.n_trials == 0 and point.rejected == 0
    assert math.isfinite(point.r_analytic)


def test_analytic_only_runs_at_noise_levels_up_to_1e300(capsys):
    # Noise levels of 1e30 (-300 dB) and, for the eavesdropper, 1e300
    # (alpha 1e-150 at 0 dB) lie inside float64: the closed form's
    # exp(x) E_n(x) terms must converge there, not raise.  Below alpha
    # 1e-100 the eavesdropper's term no longer shows in the rate.
    def r_analytic(*flags):
        assert main(["rate-curve", "--mode", "analytic-only", *flags]) == (
            EXIT_OK)
        out, err = capsys.readouterr()
        assert err == "" and out.startswith(CSV_HEADER)
        return float(out.splitlines()[1].split(",")[4])

    assert math.isfinite(r_analytic("--nt", "3", "--bits", "1", "--alpha", "1",
                                    "--snr", "-300:-300:1"))
    assert r_analytic("--alpha", "1e-150", "--snr", "0:0:1") == r_analytic(
        "--alpha", "1e-100", "--snr", "0:0:1")


def test_full_mode_populates_rejection_column(tmp_path):
    out = tmp_path / "e.csv"
    config = SweepConfig(**{**TINY, "trials": 500}, mode="full", out=str(out))
    (point,) = run_rate_curve(config, stream=io.StringIO())
    assert point.rejected == 0
    assert point.n_trials == 500


# Digests of the per-point engine that drew every grid point afresh
# (float64 on x86-64, numpy 2.4, scipy 1.17): sharing one draw per draw key
# (n_t in QCA and PERFECT) across the grid must leave every output byte
# unchanged.  The perfect digest is of the batched-inverse ZF beams, which
# moved only the last digits of the Monte Carlo columns; its draws match
# the QR construction of the oracles module.  The full digest is of the RVQ sampler, statistically equivalent
# to the explicit codebook search it replaced (test_simulate's equivalence
# gates); that search reproduces the previous digest, PREVIOUS_FULL_DIGEST.
# The qca, full, perfect and previous digests are of the per-link
# reduction, the users' sum minus the eavesdropper's, each the log2 of a
# product of the users' factors 1 + SINR (clip: of their ratios, at least
# 1): both moved only the last digits of the Monte Carlo columns
# (test_simulate's rounding gates).
# The full, perfect and previous digests are of row and column norms taken
# as sums of squares over the arrays' float64 views, not np.linalg.norm:
# only the last digits of the Monte Carlo columns moved (test_simulate's
# norm gate).
# All four are of chunks that hold the (trial, user) pairs of an n_t = 5
# chunk, one chunk per point here, statistically equivalent to the
# 8,192-trial chunks PREVIOUS_FULL_DIGEST keeps (test_simulate's
# pair-floor gate).
# All five digests, PREVIOUS_FULL_DIGEST too, are of the closed form's one
# two-pole kernel: r_analytic moved at 6 of the 24 points, by at most
# 2.7e-14 relative, and no other column moved.
# All five are of float32 link terms, stacked across noise levels: only
# r_mc_mean and r_mc_stderr moved, at every point, the means by at most
# 4.9e-8, about 1e-6 of a standard error (test_simulate's float32 rounding
# gates).  Each is pinned per SIMD target (tests/dispatch.py): the float32
# and float64 log2 loops, and FULL's sampler, round differently on each.
# The qca digest is of the shared draw: the unclipped QCA rate's
# eavesdropper takes the users' Exp(1) numerators and unit-scale
# interference, statistically equivalent to independent links
# (tests/calibrate_validate.py is its gate); qca-clip, full and perfect
# did not move.
# All five, and the validate and dist-check digests below, are of chunk
# streams keyed by draw key and chunk on SFC64 (simulate._chunk_stream):
# every Monte Carlo column moved, r_analytic did not (the calibration
# harness, the perfbench gates and the statistical tests are the gates).
# All five are of sums of squares taken as numpy's pairwise sum of the
# squared row, not BLAS's dot, so that OpenBLAS's thread count and kernel
# cannot move them: only r_mc_stderr moved, in its last digits.
# The baseline entries are recorded under OPENBLAS_CORETYPE=Haswell, as
# CI's baseline step runs them.
@pytest.mark.digest
@pytest.mark.parametrize("settings,digests", [
    (dict(mode="qca"), {
        AVX512:
        "a843956e06db569e6e1f22767587124efbc04e6ccaf0c8e137cb358863a5dba0",
        BASELINE:
        "5f52ac310903880c61d5ccc6ba54c8ad4de858cd3471242ee24c22bc32e81a61"}),
    (dict(mode="qca", clip=True), {
        AVX512:
        "71550c9718615034eaa0641d7c7117d1f3e7d712a07d98416c38bde8696f752a",
        BASELINE:
        "e638e702b586de2023d5f62c5aa21fbd13b2bfcfcf397faee60c80e4999c1444"}),
    (dict(mode="full"), {
        AVX512:
        "2619200c295650fc0609e1af91266d6db938a147d5bd81ba713d9c3ac5da66e6",
        BASELINE:
        "188f7c53f743e92272f255d8cd9fbaff3ba3673f6d529dd65ab08ab8ad1be68c"}),
    (dict(mode="perfect"), {
        AVX512:
        "1338f3a9d948f36c1923e435568ad851690db25ce50fe327d446049fbde3b097",
        BASELINE:
        "bbbc43e36211c4fa776a4fec42ded3fea954ba4918503a3dd408f3b97914e735"}),
], ids=["qca", "qca-clip", "full", "perfect"])
def test_rate_curve_csv_matches_recorded_digest(settings, digests):
    stream = io.StringIO()
    run_rate_curve(SweepConfig(**GOLDEN, **settings), stream=stream)
    assert sha256(stream.getvalue().encode()) == recorded(digests)


PREVIOUS_FULL_DIGEST = {
    AVX512:
    "6a43381a6d362b3da65a41dd01b502331f079af8941b0ebdec05ba6561ce553f",
    BASELINE:
    "2d55974ca6898dac487bbe7b137bd40ab573a93bb63b7dd8e4684ee12ab912b1"}


@pytest.mark.digest
def test_explicit_search_oracle_reproduces_the_previous_full_digest(
        monkeypatch):
    # The equivalence gates compare the sampler with this oracle, so it must
    # be exactly the explicit fresh-codebook engine the sampler replaced.
    # That engine chunked by the 8,192-trial rule, which has no pair floor.
    monkeypatch.setattr(simulate, "_rvq_directions", explicit_directions)
    monkeypatch.setattr(simulate, "_CHUNK_PAIRS", 0)
    stream = io.StringIO()
    run_rate_curve(SweepConfig(**GOLDEN, mode="full"), stream=stream)
    assert sha256(stream.getvalue().encode()) == recorded(
        PREVIOUS_FULL_DIGEST)


@pytest.mark.digest
def test_validate_report_matches_recorded_digest(tmp_path):
    # Recorded with the two-pole kernel: against the partial fractions, only
    # six closed-vs-quadrature rel= figures moved, each to 3.9e-15 or less.
    # Recorded with float32 link terms: two printed mc= figures moved in
    # their sixth digit, and the report's Monte Carlo means and errors.
    # Recorded with the shared QCA draw: every mc-vs-closed line moved, and
    # at bits 0, alpha 1 it reads mc=0 |diff|=0 bound=0, a PASS.
    report, stream = tmp_path / "report.json", io.StringIO()
    assert run_validate(SweepConfig(**GOLDEN, out=str(report)), stream=stream)
    assert sha256(stream.getvalue().encode()) == recorded({
        AVX512:
        "459156049a0d2e5378a7b9cefdbb5ac237c988de6d30a3dcade3c1b13a46c38e",
        BASELINE:
        "1b803d8bbed117e1123cd9316849d7824cb651dc82c08dfbfb29cc8c84cc61d6"})
    assert sha256(read(report)) == recorded({
        AVX512:
        "1c475cc2bdb0ed143eb59a0c3b217d5427a5197ff204fb3b09a786128ff64c65",
        BASELINE:
        "3884fe3682b81398daaf6fc3f2f09e042e9a2a86cfb0e2f1cf6144af6963762e"})


def _count_draws(monkeypatch, name):
    """(n_t, trials) of every call of the simulate draw ``name``."""
    calls, draw = [], getattr(simulate, name)

    def counted(params, gen, n, *args, **kwargs):
        calls.append((params.n_t, n))
        return draw(params, gen, n, *args, **kwargs)

    monkeypatch.setattr(simulate, name, counted)
    return calls


# GOLDEN at 21,000 trials: two chunks at each of its two n_t.
CHUNKED = {**GOLDEN, "trials": 21_000}
GOLDEN_CHUNKS = [(2, 520), (2, 20_480), (3, 7_347), (3, 13_653)]


def test_validate_draws_once_per_antenna_count_and_chunk(monkeypatch):
    # The QCA draw depends on n_t alone: every bits of GOLDEN shares it.
    calls = _count_draws(monkeypatch, "_qca_draw")
    run_validate(SweepConfig(**CHUNKED), stream=io.StringIO())
    assert sorted(calls) == GOLDEN_CHUNKS


def test_dist_check_draws_once_per_antenna_count_and_chunk(monkeypatch):
    # Both links of every point of an n_t come from one QCA draw per chunk.
    calls = _count_draws(monkeypatch, "_qca_draw")
    run_dist_check(SweepConfig(**CHUNKED, mode="qca"), stream=io.StringIO())
    assert sorted(calls) == GOLDEN_CHUNKS


# GOLDEN has 24 points, 12 per bits value.  Outside FULL the eavesdropper's
# samples do not depend on bits, so its 12 distinct sample sets are each
# tested once; FULL draws them per (n_t, bits).  The digests pin the
# printed lines, from the chunks of the rate-curve digests above; both
# SIMD targets print the same lines.
@pytest.mark.digest
@pytest.mark.parametrize("mode,ks_calls,digest", [
    ("qca", 24 + 12,
     "b0e9346cad5adefa63b60cb050469531e8c6e7fe1848837021585fbf9a97a8c3"),
    ("perfect", 24 + 12,
     "d48dd82c79faf48dbf81263d01332c937ab06491dbc7d8048dc3a9819b79b041"),
    ("full", 24 + 24,
     "25d4218f203bb5e6b7d85bc4a96087a5595cafb8a85810fbc24f0cbb3475e462"),
], ids=["qca", "perfect", "full"])
def test_dist_check_tests_each_eavesdropper_sample_set_once(
        monkeypatch, mode, ks_calls, digest):
    calls, ks_statistic = [], simulate.ks_statistic

    def counted(samples, cdf):
        calls.append(None)
        return ks_statistic(samples, cdf)

    monkeypatch.setattr(simulate, "ks_statistic", counted)
    stream = io.StringIO()
    assert run_dist_check(SweepConfig(**GOLDEN, mode=mode), stream=stream)
    assert len(calls) == ks_calls
    assert sha256(stream.getvalue().encode()) == recorded(
        dict.fromkeys((AVX512, BASELINE), digest))


def test_dist_check_memory_stays_within_the_trial_cap_estimate():
    # MAX_TRIALS' comment: a QCA dist-check holds 72 B per trial at its
    # peak, the same at one point and at four points of one draw key.
    n = 200_000
    for snr_stop in (10.0, 13.0):
        config = SweepConfig(nt=[5], bits=[4], alpha=[1.0], snr_start=10.0,
                             snr_stop=snr_stop, snr_step=1.0, trials=n,
                             seed=3)
        tracemalloc.start()
        try:
            run_dist_check(config, stream=io.StringIO())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 72 * n + 2 ** 20, (snr_stop, peak / n)


def test_validate_catches_a_closed_form_biased_at_one_key(monkeypatch):
    # Power of the mc-vs-closed check: the default validate, its closed form
    # moved by 4 standard errors at every n_t = 3 grid point, must fail,
    # and only at n_t = 3.  Points whose standard error is 0 stay unbiased.
    _, config = cli._resolve_config(["validate"])
    grid = list(config.grid())
    estimates = simulate.estimate_secrecy_rates(
        grid, simulate.SimMode.QCA, config.trials, config.seed)
    shift = {p: 4.0 * est.std_err for p, est in zip(grid, estimates)
             if p.n_t == 3 and est.std_err > 0}
    closed = analytic.secrecy_rate_closed_form
    monkeypatch.setattr(analytic, "secrecy_rate_closed_form",
                        lambda p: closed(p) + shift.get(p, 0.0))
    stream = io.StringIO()
    assert not run_validate(config, stream=stream)
    failed = [line for line in stream.getvalue().splitlines()
              if line.startswith("FAIL  triangle mc-vs-closed")]
    assert all(" nt=3 " in line for line in failed), failed
    # A bias of 4 against the 3-sigma check: at this seed 21 of the 44
    # shifted points fail, the key's points sharing one draw.
    assert len(failed) >= len(shift) // 4, (len(failed), len(shift))


def test_strict_ks_level_rejects_samples_of_another_law():
    # Power of dist-check's strict level 1.63/sqrt(n) at its defaults
    # (n_t 5, bits 4, 10 dB, 1e4 samples): FULL samples are not of the QCA
    # law (KS about 0.05 for the user, 0.08-0.11 for the eavesdropper),
    # and QCA samples drawn at bits 4 are not of the bits-5 law (0.05).
    n = 10_000
    strict = 1.63 / math.sqrt(n)
    points = [SystemParams(n_t=5, bits=4, alpha=alpha, snr_db=10.0)
              for alpha in (0.25, 0.5, 1.0)]
    for row, link, samples in simulate.collect_sinr_samples(
            points, simulate.SimMode.FULL, n=n, seed=20250):
        stat = simulate.ks_statistic(
            samples, lambda x: analytic.sinr_cdf(x, points[row], link))
        assert stat > strict, (row, link, stat)
    for row, link, samples in simulate.collect_sinr_samples(
            points, simulate.SimMode.QCA, n=n, seed=20250):
        if link is analytic.Link.LEGITIMATE:
            wrong = dataclasses.replace(points[row], bits=5)
            stat = simulate.ks_statistic(
                samples, lambda x: analytic.sinr_cdf(x, wrong, link))
            assert stat > strict, (row, stat)


def test_perfect_rate_curve_draws_once_per_antenna_count_and_chunk(
        monkeypatch):
    calls = _count_draws(monkeypatch, "_geometry_draw")
    run_rate_curve(SweepConfig(**CHUNKED, mode="perfect"),
                   stream=io.StringIO())
    assert sorted(calls) == GOLDEN_CHUNKS


def test_snr_grid_stop_is_inclusive_and_never_overshot():
    def snrs(start, stop, step):
        return SweepConfig(snr_start=start, snr_stop=stop,
                           snr_step=step).snr_values()
    assert snrs(0.0, 3.0, 2.0) == [0.0, 2.0]
    assert snrs(0.0, 11.0, 2.0)[-1] == 10.0
    assert snrs(-10.0, 30.0, 2.0)[-1] == 30.0
    assert len(snrs(0.0, 0.3, 0.1)) == 4  # 0.3 / 0.1 rounds below 3


def test_usage_errors_exit_one(capsys, monkeypatch, tmp_path):
    assert main(["rate-curve", "--snr", "10:0:2"]) == EXIT_USAGE     # stop < start
    assert main(["rate-curve", "--snr", "0:10:0"]) == EXIT_USAGE     # step 0
    assert main(["rate-curve", "--snr", "nonsense"]) == EXIT_USAGE
    assert main(["rate-curve", "--nt", "1"]) == EXIT_USAGE
    assert main(["rate-curve", "--mode", "warp"]) == EXIT_USAGE
    assert main(["no-such-command"]) == EXIT_USAGE
    assert main(["rate-curve", "--alpha", "nan"]) == EXIT_USAGE
    assert main(["rate-curve", "--snr", "nan:1:1"]) == EXIT_USAGE
    assert main(["selftest", "--seed", "abc"]) == EXIT_USAGE
    # The random streams key on 64 bits; a seed outside them would alias.
    capsys.readouterr()
    for command in ("rate-curve", "validate", "dist-check", "selftest"):
        assert main([command, "--seed", "-1"]) == EXIT_USAGE
        assert main([command, "--seed", str(2 ** 64)]) == EXIT_USAGE
    assert capsys.readouterr().err.count(
        "usage error: --seed must lie in [0, 2**64)") == 8
    assert main(["rate-curve", "--alpha", "1e-200"]) == EXIT_USAGE  # alpha^2 underflows
    assert main(["rate-curve", "--alpha", "inf"]) == EXIT_USAGE
    capsys.readouterr()
    assert main(["rate-curve", "--trials", str(MAX_TRIALS + 1)]) == EXIT_USAGE
    assert "usage error: trial cap hit" in capsys.readouterr().err
    # Rejected from its size alone: the 1e18-point grid is never built.
    assert main(["rate-curve", "--snr", "0:1e9:1e-9"]) == EXIT_USAGE
    assert "usage error: grid size cap hit" in capsys.readouterr().err
    # Refused by validate(), before a thread or a chunk exists.
    assert main(["rate-curve", "--workers", str(MAX_WORKERS + 1)]) == EXIT_USAGE
    assert main(["rate-curve", "--workers", "1000000",
                 "--trials", str(MAX_TRIALS)]) == EXIT_USAGE
    assert capsys.readouterr().err.count("usage error: worker cap hit") == 2
    # --clip=false is the default, byte for byte.
    tiny = ["rate-curve", "--nt", "5", "--bits", "4", "--alpha", "1",
            "--snr", "10:10:1", "--trials", "2000", "--seed", "3"]
    assert main(tiny) == EXIT_OK
    default = capsys.readouterr().out
    assert main([*tiny, "--clip=false"]) == EXIT_OK
    assert capsys.readouterr().out == default
    # FULL keys its streams by bits: the largest budget a key holds runs.
    assert main(["rate-curve", "--mode", "full", "--nt", "3", "--bits",
                 str(2 ** 32 - 1), "--trials", "10", "--snr", "0:0:1"]) == EXIT_OK
    capsys.readouterr()
    # Refused by validate() too, before the first chunk is drawn: one FULL
    # trial at n_t = 100,000 would hold 720 GB of K x K arrays.
    def no_draw(*args, **kwargs):
        raise AssertionError("a chunk was drawn")

    monkeypatch.setattr(simulate, "_draw_parts", no_draw)
    assert MAX_NT >= 128
    SweepConfig(nt=[MAX_NT]).validate()  # the cap itself is accepted
    for command in ("rate-curve", "validate", "dist-check"):
        assert main([command, "--nt", f"5,{MAX_NT + 1}"]) == EXIT_USAGE
    assert main(["dist-check", "--nt", "100000", "--trials", "8192"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("usage error: antenna cap hit") == 4
    assert "Traceback" not in err
    # A config file that is not text; selftest takes no config file at all.
    cfg = tmp_path / "binary.cfg"
    cfg.write_bytes(b"mode = \xff\xfe")
    for command in ("rate-curve", "validate", "dist-check", "selftest"):
        assert main([command, "--config", str(cfg)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count(f"usage error: cannot read config file {cfg}") == 3
    assert err.count("usage error:") == 4
    # A tolerance of inf would pass every Monte Carlo check; nan and one
    # below 0 would fail them all.
    for sigmas in ("-1", "nan", "inf"):
        assert main(["validate", "--mc-tol-sigmas", sigmas]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        "usage error: --mc-tol-sigmas must be finite and > 0\n" * 3)
    for flags, message in (
            (["--clip=maybe"], "expected a boolean, got 'maybe'"),
            (["--trials", "0"], "--trials must be >= 1"),
            (["--workers", "0"], "--workers must be >= 1"),
            (["--bits", "-1"], "--bits entries must lie in [0, 2**32)"),
            # FULL keys its streams by bits, and a key element has 32 bits.
            (["--mode", "full", "--bits", str(2 ** 32)],
             "--bits entries must lie in [0, 2**32)"),
            (["--nt", ","], "--nt, --bits and --alpha must be non-empty"),
            (["--nt", "a"], "expected comma-separated integers, got 'a'")):
        assert main(["rate-curve", *flags]) == EXIT_USAGE, flags
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and message in err, (flags, err)
        assert "Traceback" not in err
    cfg = tmp_path / "no-equals.cfg"
    cfg.write_text("# sweep\nnt = 5\ntrials 100\n")
    assert main(["rate-curve", "--config", str(cfg)]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"usage error: {cfg}:3: expected key=value, got 'trials 100'\n")


@pytest.mark.parametrize("flags", [
    # The interference-limited rate grows like -log(distortion): it leaves
    # float64 where the distortion underflows to 0.
    ["--regime", "il", "--nt", "200", "--bits", "250000"],
    ["--regime", "il", "--nt", "3", "--bits", "2200"],
    ["--snr", "-4000:-4000:1"],
    ["--alpha", "1e-150", "--snr", "-100:-100:1"],
    ["--alpha", "1e-160", "--snr", "0:0:1"],  # eavesdropper noise 1e320
    ["--regime", "il", "--bits", "5000"],
    ["--regime", "il", "--nt", "2", "--bits", "1075"],
    # The eavesdropper's noise level 1e-30 / 1e300 underflows to 0, where
    # its noise-limited term grows like -log(noise).
    ["--regime", "nl", "--alpha", "1e150", "--snr", "300:300:1"],
])
def test_numeric_range_errors_exit_one(flags, capsys):
    # Valid settings whose closed form leaves float64: a message, no traceback.
    assert main(["rate-curve", "--mode", "analytic-only", *flags]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error: input outside the float64 range")
    assert "Traceback" not in err


@pytest.mark.parametrize("flags", [
    ["--nt", "200", "--snr", "60:60:1"],
    ["--nt", "3", "--bits", "2000"],
    ["--nt", "200", "--bits", "8", "--snr", "10:10:1"],
])
def test_analytic_only_computes_where_partial_fractions_overflowed(
        flags, capsys):
    # The closed form's partial fractions overflowed (the first two) or
    # summed -inf and inf (the last) here; its series serves these poles.
    mpmath = pytest.importorskip("mpmath")
    assert main(["rate-curve", "--mode", "analytic-only", *flags]) == EXIT_OK
    out, err = capsys.readouterr()
    assert err == ""
    points = parse_curve_csv(out)
    assert points
    for p in points[::10]:  # 40-digit quadrature costs 0.1 s a point
        want = mpmath_rate(mpmath, p.n_t, p.bits, p.alpha, p.snr_db)
        assert abs(p.r_analytic - want) <= 1e-9 * max(1.0, abs(want)), p


@pytest.mark.parametrize("flags", [
    ["--nt", "200", "--bits", "250000"],  # the distortion underflows to 0
    ["--nt", "3", "--bits", "2140"],  # the noise over the distortion overflows
    ["--bits", "5000"],
])
def test_analytic_only_computes_at_the_zero_distortion_limit(flags, capsys):
    # The closed form's kernel raised here; at a positive noise level it
    # takes the limit of a vanishing distortion, exp(x) E_1(x).
    mpmath = pytest.importorskip("mpmath")
    assert main(["rate-curve", "--mode", "analytic-only", *flags]) == EXIT_OK
    out, err = capsys.readouterr()
    assert err == ""
    points = parse_curve_csv(out)
    assert len(points) == 63
    for p in points[::20]:  # 40-digit quadrature costs 0.1 s a point
        want = mpmath_rate(mpmath, p.n_t, p.bits, p.alpha, p.snr_db)
        assert abs(p.r_analytic - want) <= 1e-9 * max(1.0, abs(want)), p


def test_full_mode_runs_past_the_codebook_cap(tmp_path):
    # Codewords are sampled, never searched, so 2**24 of them cost nothing:
    # the codebooks module's search cap does not bind.
    out = tmp_path / "b24.csv"
    assert main(["rate-curve", "--mode", "full", "--nt", "3", "--bits", "24",
                 "--snr", "0:20:10", "--trials", "2000",
                 "--out", str(out)]) == EXIT_OK
    points = parse_curve_csv(read(out).decode())
    assert len(points) == 9
    assert all(math.isfinite(v) for p in points
               for v in (p.r_analytic, p.r_mc_mean, p.r_mc_stderr))


def test_interference_limit_at_distortion_below_float64_epsilon(tmp_path):
    # 1 - 2**-54 rounds to 1, the pole of the interference-limited form.
    out = tmp_path / "il.csv"
    assert main(["rate-curve", "--mode", "analytic-only", "--regime", "il",
                 "--nt", "2", "--bits", "54", "--out", str(out)]) == EXIT_OK
    points = parse_curve_csv(read(out).decode())
    assert all(math.isfinite(p.r_analytic) and p.r_analytic > 0
               for p in points)


def test_noise_limited_rows_are_the_noise_limited_rate(capsys):
    assert main(["rate-curve", "--mode", "analytic-only", "--regime", "nl",
                 "--nt", "3,5", "--bits", "0,4", "--snr", "-20:20:10"]) == (
        EXIT_OK)
    points = parse_curve_csv(capsys.readouterr().out)
    assert len(points) == 2 * 2 * 3 * 5
    for p in points:
        want = analytic.secrecy_rate_noise_limited(
            SystemParams(n_t=p.n_t, bits=p.bits, alpha=p.alpha,
                         snr_db=p.snr_db))
        assert p.r_analytic == want, p


@pytest.mark.parametrize("flags", [
    ["--mode", "perfect", "--snr", "3100:3100:1"],
    ["--mode", "perfect", "--nt", "2", "--snr", "3090:3090:1"],
    ["--mode", "qca", "--bits", "5000", "--snr", "3100:3100:1"],
])
def test_monte_carlo_rates_outside_float64_exit_one(flags, capsys):
    # The users' noise level 1e-310 is subnormal and their interference 0
    # (perfect feedback, or a distortion that underflows), so 1 + sinr
    # overflows: a message, not a row of inf and nan.
    assert main(["rate-curve", "--trials", "2000", *flags]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage error: input outside the float64 range")
    assert "per-trial rates at" in err and "leave float64" in err


def test_settings_a_subcommand_ignores_exit_one(tmp_path):
    for argv in (["validate", "--mode", "full"], ["validate", "--regime", "il"],
                 ["validate", "--clip"], ["dist-check", "--out", "x.txt"],
                 ["dist-check", "--regime", "il"], ["dist-check", "--clip"],
                 ["dist-check", "--mode", "analytic-only"],
                 ["selftest", "--trials", "5"]):
        assert main(argv) == EXIT_USAGE, argv
    for line in ("mc_tol_sigmas = 2", "tri = 5"):  # ignored; abbreviated
        cfg = tmp_path / "rate.cfg"
        cfg.write_text(line + "\n")
        assert main(["rate-curve", "--config", str(cfg)]) == EXIT_USAGE, line


def test_grid_size_cap_counts_every_axis():
    config = SweepConfig(nt=[2, 3], snr_start=0.0, snr_step=1.0,
                         snr_stop=MAX_GRID_POINTS // 6 - 1)
    config.validate()  # 2 nt x 3 alpha x MAX/6 SNRs fit under the cap
    config.snr_stop += 1.0
    with pytest.raises(UsageError, match="cap hit"):
        config.validate()


def test_unwritable_output_exits_two(tmp_path):
    missing_dir = tmp_path / "nope" / "curve.csv"
    code = main(["rate-curve", "--nt", "5", "--bits", "4", "--alpha", "1",
                 "--snr", "0:0:1", "--mode", "analytic-only",
                 "--out", str(missing_dir)])
    assert code == EXIT_IO


def test_validate_small_grid_passes(tmp_path):
    report = tmp_path / "report.json"
    code = main(["validate", "--nt", "5", "--bits", "4", "--alpha", "0.5,1",
                 "--snr", "0:10:10", "--trials", "50000", "--seed", "20250",
                 "--out", str(report)])
    assert code == EXIT_OK
    text = read(report).decode()
    assert '"all_pass": true' in text
    # every grid point is listed with its three values and deltas
    assert "triangle closed-vs-quadrature" in text
    assert "triangle mc-vs-closed" in text


def test_validate_with_corrupted_tolerance_fails():
    # Harness self-test: an absurdly tight MC tolerance must trip the gate.
    code = main(["validate", "--nt", "5", "--bits", "4", "--alpha", "1",
                 "--snr", "10:10:1", "--trials", "20000", "--seed", "20250",
                 "--mc-tol-sigmas", "0.01"])
    assert code == EXIT_VALIDATION


def test_default_validate_passes_exact_zeros_and_fails_injected_bias(
        monkeypatch, capsys):
    # At bits 0 and alpha 1 the unclipped QCA rate's two links share one
    # draw and one law: every trial's rate, the mean, its standard error
    # and the closed form are exactly 0 at the default grid's 12 such
    # points, and "|diff| <= bound" passes them.  A closed form moved away
    # from the estimate by 4 sigma at one point, or by anything at all at
    # a zero-variance point, still fails.
    assert main(["validate"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert not [line for line in lines if line.startswith("FAIL")]
    zeros = [line for line in lines
             if "mc-vs-closed" in line and " bits=0 alpha=1 " in line]
    assert len(zeros) == 12
    assert all(line.endswith("mc=0 closed=0 |diff|=0 bound=0")
               for line in zeros)

    biased = SystemParams(n_t=5, bits=4, alpha=1.0, snr_db=10.0)
    zero = SystemParams(n_t=3, bits=0, alpha=1.0, snr_db=0.0)
    est = simulate.estimate_secrecy_rates([biased], simulate.SimMode.QCA,
                                          200_000, seed=20250)[0]
    closed_form = analytic.secrecy_rate_closed_form

    def moved(p):
        r = closed_form(p)
        if p == biased:  # r (1 + 4 sigma / r), away from the estimate
            return r + math.copysign(4.0 * est.std_err, r - est.mean)
        return r + 1e-12 if p == zero else r

    monkeypatch.setattr(analytic, "secrecy_rate_closed_form", moved)
    assert main(["validate"]) == EXIT_VALIDATION
    failed = [line.split(":")[0]
              for line in capsys.readouterr().out.splitlines()
              if line.startswith("FAIL") and "mc-vs-closed" in line]
    assert failed == [f"FAIL  triangle mc-vs-closed {tag}" for tag in (
        "nt=3 bits=0 alpha=1 snr=0dB", "nt=5 bits=4 alpha=1 snr=10dB")]


def test_dist_check_qca_passes_and_notes_two_antenna_caveat(capsys):
    code = main(["dist-check", "--nt", "2,5", "--bits", "4", "--alpha", "1",
                 "--snr", "10:10:1", "--trials", "10000", "--seed", "3",
                 "--mode", "qca"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "nt=2" in out and "degenerate" in out


def test_dist_check_prints_each_line_key_by_key():
    # Lines print as tested, one draw key at a time: a repeated --nt entry
    # joins its key's first points, ahead of the next n_t.
    stream = io.StringIO()
    assert run_dist_check(SweepConfig(
        nt=[3, 5, 3], bits=[4], alpha=[1.0], snr_start=10.0, snr_stop=10.0,
        snr_step=1.0, trials=2_000, seed=3, mode="qca"), stream=stream)
    lines = stream.getvalue().splitlines()
    assert [line.split(":")[0] for line in lines] == [
        f"PASS  ks {link} nt={n_t} bits=4 alpha=1 snr=10dB"
        for n_t in (3, 3, 5) for link in ("legitimate", "eavesdropper")
    ] + ["dist-check"]


@pytest.mark.parametrize("flags", [
    ["--mode", "perfect", "--bits", "1"],
    ["--mode", "qca", "--bits", "5000"],
])
def test_dist_check_samples_outside_float64_exit_one(flags, capsys):
    # The users' noise level 1e-310 is subnormal and their interference 0,
    # so their SINR overflows: a message, as on the rate path, not a
    # RuntimeWarning and a KS FAIL on inf samples.
    assert main(["dist-check", "--snr", "3100:3100:1", "--nt", "3",
                 "--alpha", "1", *flags]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage error: input outside the float64 range")
    assert "SINR samples at n_t=3" in err and "leave float64" in err
    # FULL users meet their quantization error: finite samples, and a pass.
    assert main(["dist-check", "--snr", "3100:3100:1", "--nt", "3",
                 "--alpha", "1", "--mode", "full", "--bits", "1"]) == EXIT_OK


def test_dist_check_full_mode_uses_loose_threshold(capsys):
    code = main(["dist-check", "--nt", "5", "--bits", "4", "--alpha", "1",
                 "--snr", "10:10:1", "--trials", "4000", "--seed", "3",
                 "--mode", "full"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "threshold=0.15" in out


def test_selftest_passes():
    assert main(["selftest"]) == EXIT_OK
    assert main(["selftest", "--seed", "99"]) == EXIT_OK


@pytest.mark.parametrize("evaluator", ["_en_scaled_run", "_two_pole"])
def test_selftest_fails_when_an_evaluator_is_off_by_a_millionth(
        monkeypatch, evaluator):
    # Every public special function is a view of the E_n run or the
    # two-pole kernel: either one 1e-6 off fails a check.
    exact = getattr(analytic, evaluator)
    if evaluator == "_two_pole":
        monkeypatch.setattr(analytic, evaluator,
                            lambda *args: exact(*args) * (1.0 + 1e-6))
    else:
        monkeypatch.setattr(analytic, evaluator, lambda *args: [
            v * (1.0 + 1e-6) for v in exact(*args)])
    stream = io.StringIO()
    assert not run_selftest(stream=stream)
    assert "FAIL" in stream.getvalue()


def test_overflowing_eavesdropper_noise_level_exits_one(capsys):
    # validate() accepts alpha = 1e-160, as alpha**2 = 1e-320 is positive,
    # but the eavesdropper's noise level 1 / alpha**2 leaves float64: every
    # subcommand must say so, not fail a KS test on NaNs or a continued
    # fraction at x = inf.
    point = SystemParams(n_t=3, bits=1, alpha=1e-160, snr_db=0.0)
    with pytest.raises(OverflowError, match=r"alpha=1e-160, snr_db=0\.0"):
        point.eav_noise_over_power
    for command in ("rate-curve", "validate", "dist-check"):
        assert main([command, "--alpha", "1e-160", "--nt", "3", "--bits", "1",
                     "--snr", "0:0:1", "--trials", "100"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error: input outside the float64 range")
        assert "eavesdropper noise level overflows" in err


def test_config_file_is_read_and_flags_override(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "# sweep configuration\n"
        "nt = 5\n"
        "bits = 4\n"
        "alpha = 1\n"
        "snr = 0:0:1\n"
        "trials = 1000\n"
        "seed = 5\n"
        "mode = analytic-only\n")
    out_a = tmp_path / "from-file.csv"
    code = main(["rate-curve", "--config", str(cfg), "--out", str(out_a)])
    assert code == EXIT_OK
    (point,) = parse_curve_csv(read(out_a).decode())
    assert point.snr_db == 0.0

    out_b = tmp_path / "override.csv"
    code = main(["rate-curve", "--config", str(cfg), "--snr", "5:5:1",
                 "--out", str(out_b)])
    assert code == EXIT_OK
    (point,) = parse_curve_csv(read(out_b).decode())
    assert point.snr_db == 5.0


def _assert_usage_error(argv, capsys):
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error:")
    assert "Traceback" not in err


def test_removed_fixed_codebook_flag_is_a_usage_error(capsys):
    _assert_usage_error(["rate-curve", "--mode", "full", "--fixed-codebook"],
                       capsys)


def test_removed_fixed_codebook_config_key_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "fixed.cfg"
    cfg.write_text("mode = full\nfixed_codebook = true\n")
    _assert_usage_error(["rate-curve", "--config", str(cfg)], capsys)


def test_clip_flag_matches_clipped_config(tmp_path):
    flagged = tmp_path / "flag.csv"
    assert main(["rate-curve", "--nt", "5", "--bits", "4", "--alpha", "1",
                 "--snr", "10:10:1", "--trials", "2000", "--seed", "3",
                 "--clip", "--out", str(flagged)]) == EXIT_OK
    (point,) = parse_curve_csv(read(flagged).decode())
    (clipped,) = run_rate_curve(SweepConfig(**TINY, clip=True),
                                stream=io.StringIO())
    (plain,) = run_rate_curve(SweepConfig(**TINY), stream=io.StringIO())
    assert point == clipped
    assert point.r_mc_mean > plain.r_mc_mean


def test_config_file_unknown_key_is_usage_error(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("frobnicate = 12\n")
    assert main(["rate-curve", "--config", str(cfg)]) == EXIT_USAGE


def test_config_file_longer_than_its_cap_is_usage_error(tmp_path, capsys):
    # The file is read up to a fixed cap of 2**20 characters, so no file
    # (/dev/zero, say) can make the reader allocate without bound.  Up to
    # the cap it is read.
    cap = 2 ** 20
    cfg = tmp_path / "long.cfg"
    setting = "mode = analytic-only\n"
    argv = ["rate-curve", "--config", str(cfg), "--snr", "0:0:1",
            "--out", str(tmp_path / "out.csv")]
    for padding, code in ((0, EXIT_OK), (1, EXIT_USAGE)):
        cfg.write_text(setting + "#" * (cap - len(setting) + padding))
        assert main(argv) == code
    assert "usage error: config file cap hit" in capsys.readouterr().err


def test_reals_carry_seventeen_significant_digits(tmp_path):
    out = tmp_path / "g.csv"
    config = SweepConfig(**TINY, out=str(out))
    (point,) = run_rate_curve(config, stream=io.StringIO())
    row = read(out).decode().strip().split("\n")[1].split(",")
    # Every real field is its value rounded to 17 significant digits, which
    # round-trips exactly; 'g' drops the rounding's trailing zeros, so the
    # field is compared as a decimal, not by its length (the Monte Carlo
    # mean here, 1.1521594011783600, prints with 15).
    reals = (point.snr_db, point.alpha, point.r_analytic, point.r_mc_mean,
             point.r_mc_stderr)
    for field, value in zip((row[i] for i in (0, 1, 4, 5, 6)), reals):
        assert float(field) == value
        assert Decimal(field) == Decimal(format(value, ".16e")), field
    assert len(row[4].replace(".", "")) == 17  # r_analytic needs all 17


def test_interior_maximum_for_weak_eavesdroppers(tmp_path):
    # The closed-form curve peaks at an interior SNR when the eavesdropper
    # is weak enough to be noise-drowned at moderate SNR.
    out = tmp_path / "peak.csv"
    code = main(["rate-curve", "--nt", "5", "--bits", "4", "--alpha",
                 "0.25,0.5", "--snr", "-10:40:2", "--mode", "analytic-only",
                 "--out", str(out)])
    assert code == EXIT_OK
    points = parse_curve_csv(read(out).decode())
    for alpha in (0.25, 0.5):
        curve = [p for p in points if p.alpha == alpha]
        values = [p.r_analytic for p in curve]
        peak = values.index(max(values))
        assert 0 < peak < len(values) - 1


def test_rate_curves_script_writes_its_three_sweeps(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location(
        "run_rate_curves", SCRIPTS / "run_rate_curves.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.run(["--outdir", str(tmp_path), "--trials", "200",
                       "--full-trials", "200"]) == 0
    for name, trials in (("analytic", 0), ("qca", 200), ("full", 200)):
        points = parse_curve_csv(
            read(tmp_path / f"rate_curve_{name}.csv").decode())
        assert len(points) == 3 * 26  # three path gains, -10..40 dB by 2
        assert all(p.n_t == 5 and p.bits == 4 for p in points)
        assert all(p.n_trials == trials for p in points)


def test_readme_command_line_names_exactly_the_parser_flags():
    # A removed flag that stays documented, or a new one left undocumented,
    # fails here.  "--key=value" is the config-file placeholder.
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"--[a-z][a-z-]*", section)) - {"--key"}
    subcommands = next(action for action in build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction))
    offered = {flag for sub in subcommands.choices.values()
               for action in sub._actions for flag in action.option_strings}
    assert documented == offered - {"-h", "--help"}


def test_cli_reads_only_public_engine_names():
    # Each estimator has one public entry, and the CLI goes through it.
    tree = ast.parse((ROOT / "src" / "zfsecrecy" / "cli.py").read_text())
    private = [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
               if isinstance(node, ast.Attribute)
               and isinstance(node.value, ast.Name)
               and node.value.id in ("analytic", "simulate")
               and node.attr.startswith("_")]
    assert not private, private


def test_readme_python_example_runs_and_its_value_comment_holds():
    readme = (ROOT / "README.md").read_text()
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(block, namespace)
    digits = re.search(r"exact = .*# ([0-9.]+)\.\.\.", block).group(1)
    assert repr(namespace["exact"]).startswith(digits)
    assert abs(namespace["oracle"] - namespace["exact"]) < 1e-10


def test_cli_selftest_and_quadrature_load_no_scipy():
    # numpy is the one runtime dependency, the quadrature rule included.
    code = (f"import io, sys; sys.path.insert(0, {str(ROOT / 'src')!r}); "
            f"import zfsecrecy.cli; "
            f"from zfsecrecy import analytic, params; "
            f"assert zfsecrecy.cli.run_selftest(stream=io.StringIO()); "
            f"analytic.rates_from_cdf_quadrature([params.SystemParams("
            f"n_t=5, bits=4, alpha=0.5, snr_db=-60.0)]); "
            f"loaded = [m for m in sys.modules if m.startswith('scipy')]; "
            f"assert not loaded, loaded")
    subprocess.run([sys.executable, "-c", code], check=True)
