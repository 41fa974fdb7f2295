import argparse
import hashlib
import importlib.util
import io
import math
import pathlib
import re
import subprocess
import sys
import tracemalloc

import pytest

from oracles import explicit_directions
from zfsecrecy import simulate
from zfsecrecy.cli import (CSV_HEADER, EXIT_IO, EXIT_OK, EXIT_USAGE,
                           EXIT_VALIDATION, MAX_GRID_POINTS, MAX_NT,
                           MAX_TRIALS, MAX_WORKERS, SweepConfig, UsageError,
                           build_parser, main,
                           parse_curve_csv, run_dist_check, run_rate_curve,
                           run_validate)
from zfsecrecy.params import SystemParams

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"

TINY = dict(nt=[5], bits=[4], alpha=[1.0], snr_start=10.0, snr_stop=10.0,
            snr_step=1.0, trials=2_000, seed=3)


# Two chunks per point (8,192 + 808 trials) on two workers, four geometries.
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
# reduction, the users' sum minus the eavesdropper's, which moved only the
# last digits of the Monte Carlo columns (test_simulate's rounding gate);
# clip still sums per-user positive parts, at these n_t in the same order.
@pytest.mark.parametrize("settings,digest", [
    (dict(mode="qca"),
     "67559d8882baf2725fd514a7efa8cb8f7b254a3130eb928230c3d711bd74084b"),
    (dict(mode="qca", clip=True),
     "2dab8ef8d8719f9ae21ede2dd3d0bf48729fa280ca1cf8f10976599602e5dde8"),
    (dict(mode="full"),
     "adba787ee8a14a418cb72b3172b0bd846b191d806091eb79d703e998ac8cc50e"),
    (dict(mode="perfect"),
     "f2968e0cf44ed4cb1e8fca17bd783dbaee16f240afe3f10bb90939b6d116bd56"),
])
def test_rate_curve_csv_matches_recorded_digest(settings, digest):
    stream = io.StringIO()
    run_rate_curve(SweepConfig(**GOLDEN, **settings), stream=stream)
    assert sha256(stream.getvalue().encode()) == digest


PREVIOUS_FULL_DIGEST = (
    "0166d56ddcbc54cc5c10ef7274fdf99f6194c65cfc9b3a5db81af680f4e3fa18")


def test_explicit_search_oracle_reproduces_the_previous_full_digest(
        monkeypatch):
    # The equivalence gates compare the sampler with this oracle, so it must
    # be exactly the explicit fresh-codebook engine the sampler replaced.
    monkeypatch.setattr(simulate, "_rvq_directions", explicit_directions)
    stream = io.StringIO()
    run_rate_curve(SweepConfig(**GOLDEN, mode="full"), stream=stream)
    assert sha256(stream.getvalue().encode()) == PREVIOUS_FULL_DIGEST


def test_validate_report_matches_recorded_digest(tmp_path):
    report, stream = tmp_path / "report.json", io.StringIO()
    assert run_validate(SweepConfig(**GOLDEN, out=str(report)), stream=stream)
    assert sha256(stream.getvalue().encode()) == (
        "1dcf810f670a2ffb4395cb94942edd0783e526fcfdeba3c63bba48ed51949885")
    assert sha256(read(report)) == (
        "dfcfcbf2dc0722c0dc116fc5ed510a618a4b4cad4f6ab9c5e4587b59b78e986d")


def _count_draws(monkeypatch, name):
    """(n_t, trials) of every call of the simulate draw ``name``."""
    calls, draw = [], getattr(simulate, name)

    def counted(params, gen, n, *args, **kwargs):
        calls.append((params.n_t, n))
        return draw(params, gen, n, *args, **kwargs)

    monkeypatch.setattr(simulate, name, counted)
    return calls


# GOLDEN's 9,000 trials are two chunks at each of its two n_t.
GOLDEN_CHUNKS = [(2, 808), (2, 8_192), (3, 808), (3, 8_192)]


def test_validate_draws_once_per_antenna_count_and_chunk(monkeypatch):
    # The QCA draw depends on n_t alone: every bits of GOLDEN shares it.
    calls = _count_draws(monkeypatch, "_qca_draw")
    run_validate(SweepConfig(**GOLDEN), stream=io.StringIO())
    assert sorted(calls) == GOLDEN_CHUNKS


def test_dist_check_draws_once_per_antenna_count_and_chunk(monkeypatch):
    # Both links of every point of an n_t come from one QCA draw per chunk.
    calls = _count_draws(monkeypatch, "_qca_draw")
    run_dist_check(SweepConfig(**GOLDEN, mode="qca"), stream=io.StringIO())
    assert sorted(calls) == GOLDEN_CHUNKS


# GOLDEN has 24 points, 12 per bits value.  Outside FULL the eavesdropper's
# samples do not depend on bits, so its 12 distinct sample sets are each
# tested once; FULL draws them per (n_t, bits).  The digests, recorded
# when every eavesdropper line ran its own test, pin the printed lines.
@pytest.mark.parametrize("mode,ks_calls,digest", [
    ("qca", 24 + 12,
     "33380b42cf53b58e8f480265befbe2129f36f8191d49e2d144c5e04d7e2e2dad"),
    ("perfect", 24 + 12,
     "2f25574161828255a4bffd1009a31c92d6677e52b9f8a79569acf75c1dcb12f1"),
    ("full", 24 + 24,
     "b3476e2af7debeac8fa922d3181b4eb7be7c78575afb863f91fa5316c64be4ca"),
])
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
    assert sha256(stream.getvalue().encode()) == digest


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


def test_perfect_rate_curve_draws_once_per_antenna_count_and_chunk(
        monkeypatch):
    calls = _count_draws(monkeypatch, "_geometry_draw")
    run_rate_curve(SweepConfig(**GOLDEN, mode="perfect"), stream=io.StringIO())
    assert sorted(calls) == GOLDEN_CHUNKS


def test_snr_grid_stop_is_inclusive_and_never_overshot():
    def snrs(start, stop, step):
        return SweepConfig(snr_start=start, snr_stop=stop,
                           snr_step=step).snr_values()
    assert snrs(0.0, 3.0, 2.0) == [0.0, 2.0]
    assert snrs(0.0, 11.0, 2.0)[-1] == 10.0
    assert snrs(-10.0, 30.0, 2.0)[-1] == 30.0
    assert len(snrs(0.0, 0.3, 0.1)) == 4  # 0.3 / 0.1 rounds below 3


def test_usage_errors_exit_one(capsys, monkeypatch):
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


@pytest.mark.parametrize("flags", [
    ["--nt", "200", "--snr", "60:60:1"],
    ["--nt", "3", "--bits", "2000"],
    ["--snr", "-4000:-4000:1"],
    ["--alpha", "1e-150", "--snr", "-100:-100:1"],
    ["--alpha", "1e-150", "--snr", "0:0:1"],
    ["--bits", "5000"],
    ["--regime", "il", "--nt", "2", "--bits", "1075"],  # distortion underflows
])
def test_numeric_range_errors_exit_one(flags, capsys):
    # Valid settings whose closed form leaves float64: a message, no traceback.
    assert main(["rate-curve", "--mode", "analytic-only", *flags]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error: input outside the float64 range")
    assert "Traceback" not in err


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


def test_dist_check_qca_passes_and_notes_two_antenna_caveat(capsys):
    code = main(["dist-check", "--nt", "2,5", "--bits", "4", "--alpha", "1",
                 "--snr", "10:10:1", "--trials", "10000", "--seed", "3",
                 "--mode", "qca"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "nt=2" in out and "degenerate" in out


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
    row = read(out).decode().strip().split("\n")[1]
    mc_field = row.split(",")[5]
    assert float(mc_field) == point.r_mc_mean
    mantissa = mc_field.lstrip("-0.").replace(".", "").split("e")[0]
    assert len(mantissa) >= 16  # 17 significant digits requested


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
            f"analytic.rate_from_cdf_quadrature(params.SystemParams("
            f"n_t=5, bits=4, alpha=0.5, snr_db=-60.0)); "
            f"loaded = [m for m in sys.modules if m.startswith('scipy')]; "
            f"assert not loaded, loaded")
    subprocess.run([sys.executable, "-c", code], check=True)
