"""Command-line front end: rate sweeps, validation, distribution checks.

Subcommands
-----------
rate-curve   closed-form and Monte Carlo secrecy-rate curves, written as CSV
validate     three-way agreement (closed form / quadrature / MC) plus limit
             consistency; nonzero exit iff any check fails
dist-check   KS tests of simulated SINR samples against the analytic CDFs
selftest     special-function oracle checks and the zero-forcing residual

Each subcommand accepts only the flags it reads, and each value is converted
once, by its flag's argparse type.  ``--config`` reads key=value lines as
more such flags (keys are flag names), placed before the command line's.

Exit codes: 0 success, 1 usage error (also a trial count over MAX_TRIALS, an
antenna count over MAX_NT, or an input past the engine's float64 range),
2 I/O error, 3 validation failure.
Every subcommand honors --seed; there are no hidden entropy sources.
"""

import argparse
import itertools
import json
import math
import sys
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from . import analytic, simulate
from .analytic import Link, Regime
from .params import SystemParams
from .simulate import MAX_WORKERS, RateEstimate, SimMode

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_VALIDATION = 3

_MODES = (*(m.value for m in SimMode), "analytic-only")
_REGIME_NAMES = tuple(r.value for r in Regime)
# The public rate of each regime, looked up by name at call time, so a
# wrapper later bound to that name (a timer, say) sees every call.
_REGIME_RATES = {
    Regime.GENERAL: "secrecy_rate_closed_form",
    Regime.INTERFERENCE_LIMITED: "secrecy_rate_interference_limited",
    Regime.NOISE_LIMITED: "secrecy_rate_noise_limited"}

# Largest sweep grid accepted, in points; checked before the grid is built.
MAX_GRID_POINTS = 1_000_000
# Most trials per point.  dist-check peaks at 72 B per trial (tracemalloc:
# a draw key's four first-user parts 32 B, one link's samples 8 B,
# ks_statistic 32 B), 7.2 GB at this cap, whatever the points per key.
MAX_TRIALS = 10**8
# Most antennas (and users).  Chunks shrink with n_t, down to one trial,
# but one FULL trial's K x K arrays do not: about 4.7 MB at this cap.  The
# draws come before any analytic call, so the cap is checked before both.
MAX_NT = 256
# Most characters read from a --config file; a longer file is refused.
_CONFIG_CAP = 2 ** 20
# Relative slack that keeps an SNR stop reached up to rounding inside the grid.
_SNR_REL_TOL = 1e-9


class UsageError(Exception):
    pass


@dataclass
class SweepConfig:
    """Resolved configuration of one CLI invocation."""

    nt: list = field(default_factory=lambda: [5])
    bits: list = field(default_factory=lambda: [4])
    alpha: list = field(default_factory=lambda: [0.25, 0.5, 1.0])
    snr_start: float = -10.0
    snr_stop: float = 30.0
    snr_step: float = 2.0
    mode: str = "qca"
    regime: str = "general"
    trials: int = 100_000
    seed: int = 20250
    workers: int = 1
    clip: bool = False
    out: str = ""
    mc_tol_sigmas: float = 3.0

    def _snr_span(self) -> float:
        """Steps from the SNR start to its stop, padded against rounding."""
        return ((self.snr_stop - self.snr_start) / self.snr_step
                * (1.0 + _SNR_REL_TOL))

    def snr_values(self):
        n = math.floor(self._snr_span()) + 1
        return [self.snr_start + i * self.snr_step for i in range(n)]

    def grid(self):
        """SystemParams of the sweep: n_t outermost, then bits, alpha, SNR."""
        for n_t, b, a, snr_db in itertools.product(
                self.nt, self.bits, self.alpha, self.snr_values()):
            yield SystemParams(n_t=n_t, bits=b, alpha=a, snr_db=snr_db)

    def validate(self):
        if not self.nt or not self.bits or not self.alpha:
            raise UsageError("--nt, --bits and --alpha must be non-empty")
        if not all(map(math.isfinite,
                       (self.snr_start, self.snr_stop, self.snr_step))):
            raise UsageError("--snr start, stop and step must be finite")
        if self.snr_step <= 0:
            raise UsageError("--snr step must be > 0")
        if self.snr_stop < self.snr_start:
            raise UsageError("--snr stop must be >= start")
        size = (len(self.nt) * len(self.bits) * len(self.alpha)
                * (math.floor(min(self._snr_span(), MAX_GRID_POINTS)) + 1))
        if size > MAX_GRID_POINTS:
            raise UsageError(f"grid size cap hit: the sweep has more than "
                             f"{MAX_GRID_POINTS} points")
        if self.trials < 1:
            raise UsageError("--trials must be >= 1")
        if self.trials > MAX_TRIALS:
            raise UsageError(f"trial cap hit: --trials must be <= {MAX_TRIALS}")
        if self.workers < 1:
            raise UsageError("--workers must be >= 1")
        if self.workers > MAX_WORKERS:
            raise UsageError(f"worker cap hit: --workers must be <= {MAX_WORKERS}")
        if self.mode not in _MODES:
            raise UsageError(f"--mode must be one of {_MODES}")
        if self.regime not in _REGIME_NAMES:
            raise UsageError(f"--regime must be one of {_REGIME_NAMES}")
        if not 0.0 < self.mc_tol_sigmas < math.inf:
            raise UsageError("--mc-tol-sigmas must be finite and > 0")
        if min(self.nt) < 2:
            raise UsageError("--nt entries must be >= 2")
        if max(self.nt) > MAX_NT:
            raise UsageError(f"antenna cap hit: --nt entries must be <= {MAX_NT}")
        # FULL streams key on bits, and a stream key element is 32 bits.
        if not 0 <= min(self.bits) <= max(self.bits) < 2 ** 32:
            raise UsageError("--bits entries must lie in [0, 2**32)")
        # The random streams key on 64 bits: any other seed would alias one.
        if not 0 <= self.seed < 2 ** 64:
            raise UsageError("--seed must lie in [0, 2**64)")
        # alpha**2 scales the eavesdropper's noise level, so it must stay a
        # positive finite number too.
        if not all(a > 0 and 0 < a * a < math.inf for a in self.alpha):
            raise UsageError("--alpha entries must be > 0, finite, and "
                             "neither under- nor overflow when squared")


@dataclass(frozen=True)
class CurvePoint:
    """One grid point of a rate sweep; its fields are the CSV columns."""

    snr_db: float
    alpha: float
    n_t: int
    bits: int
    r_analytic: float
    r_mc_mean: float
    r_mc_stderr: float
    n_trials: int
    rejected: int

    def csv_row(self) -> str:
        """Reals carry 17 significant digits, so the CSV round-trips exactly."""
        return ",".join(format(float(v), ".17g") if f.type is float else str(v)
                        for f, v in zip(fields(self), astuple(self)))


CSV_HEADER = ",".join(f.name for f in fields(CurvePoint))


def _tag(p: SystemParams) -> str:
    """Label of one grid point in check lines."""
    return f"nt={p.n_t} bits={p.bits} alpha={p.alpha:g} snr={p.snr_db:g}dB"


# The Monte Carlo columns of an analytic-only row.
_NO_ESTIMATE = RateEstimate(mean=float("nan"), std_err=float("nan"),
                            n_trials=0, rejected=0)


def parse_curve_csv(text: str):
    """Inverse of the CSV writer; returns the CurvePoints of a sweep file."""
    lines = text.strip().split("\n")
    if lines[0] != CSV_HEADER:
        raise ValueError(f"unexpected CSV header: {lines[0]!r}")
    casts = [f.type for f in fields(CurvePoint)]
    return [CurvePoint(*(cast(v) for cast, v in zip(casts, line.split(","))))
            for line in lines[1:]]


# ---------------------------------------------------------------------------
# Subcommand bodies
# ---------------------------------------------------------------------------

def run_rate_curve(config: SweepConfig, stream=None):
    """Sweep the grid, returning CurvePoints and writing CSV when requested."""
    rate = getattr(analytic, _REGIME_RATES[Regime(config.regime)])
    grid = list(config.grid())
    r_analytic = [rate(p) for p in grid]
    if config.mode == "analytic-only":
        estimates = [_NO_ESTIMATE] * len(grid)
    else:
        estimates = simulate.estimate_secrecy_rates(
            grid, SimMode(config.mode), config.trials, config.seed,
            workers=config.workers, clip=config.clip)
    points = [CurvePoint(p.snr_db, p.alpha, p.n_t, p.bits, r, est.mean,
                         est.std_err, est.n_trials, est.rejected)
              for p, r, est in zip(grid, r_analytic, estimates)]
    body = CSV_HEADER + "\n" + "\n".join(pt.csv_row() for pt in points) + "\n"
    if config.out:
        with open(config.out, "w", newline="") as fh:
            fh.write(body)
        print(f"wrote {len(points)} points to {config.out}", file=stream)
    else:
        print(body, end="", file=stream)
    return points


def _check(name: str, ok: bool, detail: str, report, stream) -> bool:
    """Print one check's PASS or FAIL line, and append it to ``report``
    unless that is None; returns ``ok``."""
    if report is not None:
        report.append({"name": name, "pass": bool(ok), "detail": detail})
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}", file=stream)
    return ok


def run_validate(config: SweepConfig, stream=None) -> bool:
    """Three-way agreement and limit-consistency suite.

    The Monte Carlo leg always runs in QCA mode (that is the model the
    closed forms integrate), so validate has no --mode.  Returns True iff
    every check passed; writes a JSON report to --out when given.
    """
    report = []
    all_ok = True
    grid = list(config.grid())
    estimates = simulate.estimate_secrecy_rates(
        grid, SimMode.QCA, config.trials, config.seed, workers=config.workers)
    quads = analytic.rates_from_cdf_quadrature(grid)
    for p, est, quad in zip(grid, estimates, quads):
        closed = analytic.secrecy_rate_closed_form(p)
        rel = abs(closed - quad) / max(abs(quad), 1e-6)
        all_ok &= _check(
            f"triangle closed-vs-quadrature {_tag(p)}", rel < 1e-8,
            f"closed={closed:.12g} quad={quad:.12g} rel={rel:.3e}",
            report, stream)
        # <=, not <: where both links share one law (bits 0, alpha 1) the
        # shared draw makes every trial's rate, the standard error and so
        # the bound exactly 0, and only an exact 0 passes there.
        gap = abs(est.mean - closed)
        bound = config.mc_tol_sigmas * est.std_err
        all_ok &= _check(
            f"triangle mc-vs-closed {_tag(p)}", gap <= bound,
            f"mc={est.mean:.6g} closed={closed:.6g} "
            f"|diff|={gap:.3g} bound={bound:.3g}", report, stream)

    # Limit consistency: interference-limited at high SNR, noise-limited at
    # low SNR (ratio criterion; both terms vanish), and the exact zeros.
    # The 50 dB gate is applied only where the high-SNR regime has set in
    # by then, i.e. distortion scale >= 0.5 (noise 1e-5 << interference);
    # for tiny distortion the ceiling is approached too slowly (for two
    # antennas only like noise*log(1/noise)) for a fixed-SNR check.
    for n_t in config.nt:
        for bits in config.bits:
            p_hi = SystemParams(n_t=n_t, bits=bits, alpha=1.0, snr_db=50.0)
            if p_hi.distortion >= 0.5:
                il = analytic.secrecy_rate_interference_limited(p_hi)
                gap = abs(analytic.secrecy_rate_closed_form(p_hi) - il)
                all_ok &= _check(
                    f"limit interference nt={n_t} bits={bits}",
                    gap < 1e-3, f"|closed(50dB) - R_IL| = {gap:.3e}",
                    report, stream)
            for alpha in config.alpha:
                if alpha == 1.0:
                    continue  # noise-limited rate is exactly 0 there
                p_lo = SystemParams(n_t=n_t, bits=bits, alpha=alpha,
                                    snr_db=-40.0)
                nl = analytic.secrecy_rate_noise_limited(p_lo)
                ratio = analytic.secrecy_rate_closed_form(p_lo) / nl
                all_ok &= _check(
                    f"limit noise nt={n_t} bits={bits} "
                    f"alpha={alpha:g}", abs(ratio - 1.0) < 0.01,
                    f"closed(-40dB)/R_NL = {ratio:.6f}", report, stream)
        zero_fb = SystemParams(n_t=n_t, bits=0, alpha=0.5, snr_db=0.0)
        il0 = analytic.secrecy_rate_interference_limited(zero_fb)
        all_ok &= _check(f"limit il-zero-feedback nt={n_t}", il0 == 0.0,
                         f"R_IL(bits=0) = {il0!r}", report, stream)
        eq_path = SystemParams(n_t=n_t, bits=4, alpha=1.0, snr_db=0.0)
        nl0 = analytic.secrecy_rate_noise_limited(eq_path)
        all_ok &= _check(f"limit nl-equal-path nt={n_t}", nl0 == 0.0,
                         f"R_NL(alpha=1) = {nl0!r}", report, stream)

    print(f"validate: {'all checks passed' if all_ok else 'FAILURES present'} "
          f"({len(report)} checks)", file=stream)
    if config.out:
        with open(config.out, "w") as fh:
            json.dump({"all_pass": all_ok, "checks": report}, fh, indent=1)
    return all_ok


def run_dist_check(config: SweepConfig, stream=None) -> bool:
    """KS tests of sampled SINRs against the matching analytic CDFs.

    QCA samples (and the perfect-feedback user samples) follow their
    reference laws exactly and are held to the 1% critical value
    1.63/sqrt(n).  FULL-mode samples follow them only
    approximately — the cell approximation understates the quantization
    error and the eavesdropper law pretends the beams were orthonormal —
    so those are held to a documented loose threshold of 0.15, measured
    from the real geometry (KS ~0.05 user / ~0.12 eavesdropper at
    n_t=5, B=4).

    Each test's line prints as it runs: key by key (the draw keys of
    :func:`simulate.collect_sinr_samples`), each point's legitimate line
    before its eavesdropper's.  That is the grid's order unless an --nt
    entry repeats, or, in FULL, a --bits entry does: --nt 3,5,3 prints
    both n_t = 3 points before the n_t = 5 one.
    """
    if config.mode == "analytic-only":
        raise UsageError("dist-check needs a sampling mode (full/qca/perfect)")
    mode = SimMode(config.mode)
    n = config.trials
    strict = 1.63 / math.sqrt(n)
    loose = 0.15
    threshold = loose if mode is SimMode.FULL else strict
    all_ok = True
    if 2 in config.nt:
        print("note: nt=2 has a one-dimensional error space; the "
              "interference beta factor is degenerate there and the "
              "product-distribution identity needs nt >= 3", file=stream)
    points = list(config.grid())
    # The eavesdropper's samples and CDF depend on the draw and its noise
    # level alone, so each pair is tested once; each point's legitimate
    # samples come once, and their statistic is kept only until the next.
    stats = {}
    for row, link, samples in simulate.collect_sinr_samples(
            points, mode, n=n, seed=config.seed, workers=config.workers):
        p = points[row]
        regime = Regime.GENERAL
        if mode is SimMode.PERFECT and link is Link.LEGITIMATE:
            regime = Regime.NOISE_LIMITED
        thr = threshold
        if mode is SimMode.PERFECT and link is Link.EAVESDROPPER:
            thr = loose  # beams from real geometry, approximate law
        key = ((simulate.draw_key(p, mode), p.eav_noise_over_power)
               if link is Link.EAVESDROPPER else link)
        if link is Link.LEGITIMATE or key not in stats:
            stats[key] = simulate.ks_statistic(
                samples, lambda x: analytic.sinr_cdf(x, p, link, regime))
        stat = stats[key]
        all_ok &= _check(f"ks {link.value} {_tag(p)}", stat < thr,
                         f"stat={stat:.5f} threshold={thr:.5f}", None, stream)
    print(f"dist-check: {'all below threshold' if all_ok else 'FAILURES present'}",
          file=stream)
    return all_ok


def run_selftest(seed: int = 20250, stream=None) -> bool:
    """Special-function oracle checks and the engine's zero-forcing
    residual."""
    report = []
    ok = True

    e1_at_1 = analytic.exp_integral_e1(1.0)
    ok &= _check("e1-reference-value", abs(e1_at_1 - 0.21938393439552027) < 1e-10,
                 f"E1(1) = {e1_at_1:.15f}", report, stream)
    asym = 50.0 * analytic.exp_integral_e1_scaled(50.0)
    ok &= _check("e1-asymptotic", 0.98 < asym < 1.0,
                 f"50*e^50*E1(50) = {asym:.6f}", report, stream)
    sandwich = all(
        math.exp(-x) / (x + 1) < analytic.exp_integral_e1(x) < math.exp(-x) / x
        for x in (0.5, 1.0, 5.0))
    ok &= _check("e1-sandwich-bounds", sandwich,
                 "e^-x/(x+1) < E1(x) < e^-x/x at x in {0.5, 1, 5}",
                 report, stream)

    worst = 0.0
    for p, a, n in [(0.5, 1.0, 1), (1.0, 1.0, 3), (2.0, 0.5, 5),
                    (0.1, 2.0, 8), (10.0, 1.0, 10)]:
        val = analytic.laplace_pole_integral(p, a, n)
        ref = analytic.integrate_half_line(
            lambda t: np.exp(-p * t) * (t + a) ** (-n))
        worst = max(worst, abs(val - ref) / abs(ref))
    ok &= _check("pole-integral-vs-quadrature", worst < 1e-9,
                 f"worst relative error {worst:.2e}", report, stream)

    worst = 0.0
    for z in np.linspace(0.0, 0.99, 34):
        got = analytic.gauss_2f1(2, float(z))
        want = 1.0 if z == 0 else -math.log1p(-z) / z
        worst = max(worst, abs(got - want) / abs(want))
    ok &= _check("2f1-log-identity", worst < 1e-10,
                 f"worst relative error {worst:.2e} on z in [0, 0.99]",
                 report, stream)

    p = SystemParams(n_t=5, bits=4, alpha=1.0, snr_db=10.0)
    resid, rejected = simulate.max_zf_residual(p, 2000, seed=seed)
    ok &= _check("zero-forcing-residual", resid < 1e-10 and rejected == 0,
                 f"max residual {resid:.2e}, rejected {rejected}", report, stream)

    print(f"selftest: {'all checks passed' if ok else 'FAILURES present'} "
          f"({len(report)} checks)", file=stream)
    return ok


# ---------------------------------------------------------------------------
# Argument and config-file handling
# ---------------------------------------------------------------------------

def _list_of(convert, what: str):
    """argparse type: a comma-separated list of ``convert`` values."""
    def parse(text: str) -> list:
        try:
            return [convert(x) for x in text.split(",") if x.strip()]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {what}, got {text!r}") from None
    return parse


def _snr_grid(text: str) -> dict:
    """argparse type: the dB grid start:stop:step, as SweepConfig fields."""
    try:
        start, stop, step = map(float, text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected numeric start:stop:step, got {text!r}") from None
    return dict(snr_start=start, snr_stop=stop, snr_step=step)


_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


def _boolean(text: str) -> bool:
    if text.lower() not in _BOOLEANS:
        raise argparse.ArgumentTypeError(f"expected a boolean, got {text!r}")
    return _BOOLEANS[text.lower()]


def _read_config_file(path: str) -> list:
    """A flat key=value file as ``--key=value`` tokens; '#' starts a comment
    and keys are flag names, spelled with '_' or '-'."""
    try:
        with open(path) as fh:
            text = fh.read(_CONFIG_CAP + 1)
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    if len(text) > _CONFIG_CAP:
        raise UsageError(f"config file cap hit: {path} is longer than "
                         f"{_CONFIG_CAP} characters")
    tokens = []
    for lineno, raw in enumerate(text.split("\n"), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        tokens.append(f"--{key.replace('_', '-')}={value}")
    return tokens


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_sweep_flags(sub):
    """Flags of every sweep subcommand.  Each gets its own copy: argparse
    ``parents=`` would share the actions, and one subcommand's
    ``set_defaults`` would then change the others' defaults."""
    ints, reals = _list_of(int, "integers"), _list_of(float, "reals")
    sub.add_argument("--nt", type=ints,
                     help=f"antenna/user counts: a,b,..., each at most {MAX_NT}")
    sub.add_argument("--bits", type=ints, help="feedback bit budgets: a,b,...")
    sub.add_argument("--alpha", type=reals,
                     help="relative path gains: a,b,...")
    sub.add_argument("--snr", type=_snr_grid, help="dB grid start:stop:step")
    sub.add_argument("--trials", type=int,
                     help=f"trials per point, at most {MAX_TRIALS}")
    sub.add_argument("--seed", type=int, help="base seed")
    sub.add_argument("--workers", type=int,
                     help="worker threads (never changes results)")
    sub.add_argument("--config", help="key=value file of these flags; flags "
                                      "on the command line override it")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="zfsecrecy",
        description="Ergodic secrecy sum-rate of a quantized-feedback "
                    "zero-forcing downlink: Monte Carlo simulator and "
                    "closed-form analytic engine (noise power is fixed to 1; "
                    "transmit power follows --snr).")
    subs = parser.add_subparsers(dest="command", required=True)

    def add(name, help, sweep=True):
        sub = subs.add_parser(name, help=help, allow_abbrev=False,
                              argument_default=argparse.SUPPRESS)
        if sweep:
            _add_sweep_flags(sub)
        return sub

    curve = add("rate-curve", "sweep the grid and emit CSV")
    curve.add_argument("--mode", choices=_MODES, help="simulation mode")
    curve.add_argument("--regime", choices=_REGIME_NAMES,
                       help="analytic regime for r_analytic")
    curve.add_argument("--clip", type=_boolean, nargs="?", const=True,
                       help="apply a per-user positive part to secrecy terms")
    curve.add_argument("--out", help="CSV output path (default stdout)")

    val = add("validate", "closed form vs quadrature vs MC")
    val.add_argument("--out", help="JSON report path")
    val.add_argument("--mc-tol-sigmas", type=float,
                     help="MC agreement tolerance in standard errors "
                          "(lower it to watch the harness fail)")
    val.set_defaults(nt=[2, 3, 5], bits=[0, 1, 4, 8], snr_start=-10.0,
                     snr_stop=20.0, snr_step=10.0, trials=200_000)

    dist = add("dist-check", "KS tests of SINR samples")
    dist.add_argument("--mode", choices=tuple(m.value for m in SimMode),
                      help="sampling mode")
    dist.set_defaults(snr_start=10.0, snr_stop=10.0, snr_step=1.0,
                      trials=10_000)

    add("selftest", "special-function oracles and the ZF residual",
        sweep=False).add_argument("--seed", type=int, help="base seed")
    return parser


def _resolve_config(argv: list) -> tuple:
    """(command, validated SweepConfig) of a command line.  A config file's
    flags go before the command line's, and argparse keeps the last value of
    a repeated flag, so the command line wins; an unset setting keeps the
    subcommand's ``set_defaults`` value, else the SweepConfig default."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "config"):
        args = parser.parse_args(
            [argv[0], *_read_config_file(args.config), *argv[1:]])
    settings = vars(args)
    settings.update(settings.pop("snr", {}))
    command = settings.pop("command")
    settings.pop("config", None)
    config = SweepConfig(**settings)
    config.validate()
    return command, config


def _normalize_argv(argv):
    """Fold '--snr -10:30:2' into '--snr=-10:30:2' so a leading minus in the
    grid start is not mistaken for a flag."""
    argv = sys.argv[1:] if argv is None else list(argv)
    while "--snr" in argv[:-1]:
        i = argv.index("--snr")
        argv[i:i + 2] = [f"--snr={argv[i + 1]}"]
    return argv


def main(argv=None) -> int:
    try:
        command, config = _resolve_config(_normalize_argv(argv))
        if command == "selftest":
            return EXIT_OK if run_selftest(seed=config.seed) else EXIT_VALIDATION
        if command == "rate-curve":
            run_rate_curve(config)
            return EXIT_OK
        if command == "validate":
            return EXIT_OK if run_validate(config) else EXIT_VALIDATION
        return EXIT_OK if run_dist_check(config) else EXIT_VALIDATION
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ArithmeticError as exc:
        print(f"usage error: input outside the float64 range (about 1e-308 "
              f"to 1e308) of the engine: {exc!r}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
