"""Benchmark workloads: their inputs, one pass through ``zfsecrecy.cli``,
and the correctness gates that decide which operations failed.

Every workload is a fixed grid built from the benchmark seed; the program
only receives the resulting ``SweepConfig``.  Operations are grid points for
the two rate-curve workloads and printed check lines for ``verify``.

Statistical gates all use one false-alarm level: the two-sided normal tail
beyond ``GATE_SIGMAS`` (5.7e-7 per check).  At that level the largest grid
here (144 checks) still passes a correct program on all but about one seed
in ten thousand, so the benchmark can run at any seed.
"""

import hashlib
import io
import json
import math
import pathlib
from dataclasses import dataclass, field, replace

NAMES = ("qca-curve", "full-sweep", "verify")
DEFAULT_SEED = 20250
WORKERS = 2

GATE_SIGMAS = 5.0
GATE_P = math.erfc(GATE_SIGMAS / math.sqrt(2.0))
# Kolmogorov critical value at GATE_P: P(sqrt(n) D_n > c) ~ 2 exp(-2 c^2).
KS_GATE_COEFF = math.sqrt(-0.5 * math.log(GATE_P / 2.0))

# Two chunks of simulate.chunk_trials(n_t=5, bits=4, FULL) = 7,864, so both
# workers get a chunk at every point.
FULL_TRIALS = 15_728

REFERENCE_FILE = pathlib.Path(__file__).resolve().parent / "full_reference.json"


def sweep_configs(cli, name: str, seed: int, workers: int) -> dict:
    """Resolved configs of one workload, keyed by the subcommand they feed.

    The values are spelled out rather than taken from the CLI defaults so
    that a change of a default cannot silently change the benchmark input.
    """
    alphas = [0.25, 0.5, 1.0]
    if name == "qca-curve":
        configs = {"rate-curve": cli.SweepConfig(
            nt=[5], bits=[4], alpha=alphas, snr_start=-10.0, snr_stop=30.0,
            snr_step=2.0, mode="qca", trials=100_000, seed=seed,
            workers=workers)}
    elif name == "full-sweep":
        configs = {"rate-curve": cli.SweepConfig(
            nt=[5], bits=[4], alpha=alphas, snr_start=-10.0, snr_stop=30.0,
            snr_step=10.0, mode="full", trials=FULL_TRIALS, seed=seed,
            workers=workers)}
    elif name == "verify":
        configs = {
            "validate": cli.SweepConfig(
                nt=[2, 3, 5], bits=[0, 1, 4, 8], alpha=alphas,
                snr_start=-10.0, snr_stop=20.0, snr_step=10.0, mode="qca",
                trials=200_000, seed=seed, workers=workers),
            "dist-check": cli.SweepConfig(
                nt=[3, 5], bits=[1, 4], alpha=[0.5, 1.0], snr_start=0.0,
                snr_stop=10.0, snr_step=10.0, mode="qca", trials=10_000,
                seed=seed, workers=workers),
        }
    else:
        raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")
    for config in configs.values():
        config.validate()
    return configs


def geometries(configs: dict):
    """The (n_t, bits, mode) triples a workload simulates."""
    return sorted({(n_t, bits, c.mode) for c in configs.values()
                   for n_t in c.nt for bits in c.bits})


@dataclass
class Outcome:
    """Operations of one workload pass and the outputs it produced."""

    attempted: int = 0
    failed: int = 0
    outputs: dict = field(default_factory=dict)   # label -> text
    notes: list = field(default_factory=list)     # one line each

    def digests(self) -> dict:
        return {label: hashlib.sha256(text.encode()).hexdigest()
                for label, text in sorted(self.outputs.items())}

    def output_bytes(self) -> int:
        return sum(len(text.encode()) for text in self.outputs.values())


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def gate_qca_points(points, config) -> list:
    """Failure messages for a QCA sweep: each MC mean within GATE_SIGMAS
    standard errors of the closed form (QCA samples exactly that law)."""
    failures = []
    for p in points:
        tag = f"alpha={p.alpha:g} snr={p.snr_db:g}dB"
        if not _finite(p.r_analytic, p.r_mc_mean, p.r_mc_stderr):
            failures.append(f"non-finite result at {tag}")
        elif p.n_trials != config.trials or p.r_mc_stderr <= 0.0:
            failures.append(f"bad trial count or stderr at {tag}")
        elif abs(p.r_mc_mean - p.r_analytic) > GATE_SIGMAS * p.r_mc_stderr:
            failures.append(f"MC off the closed form by more than "
                            f"{GATE_SIGMAS:g} sigma at {tag}")
    return failures


def load_reference() -> dict:
    """FULL-mode reference points keyed by (alpha, snr_db)."""
    data = json.loads(REFERENCE_FILE.read_text())
    return {(pt["alpha"], pt["snr_db"]): pt for pt in data["points"]}


def gate_full_points(points, config, reference: dict) -> list:
    """Failure messages for a FULL sweep, judged against the recorded FULL
    reference.  The closed form is not a gate here: explicit codebooks run
    up to ~10% below it by design (a documented model gap)."""
    failures = []
    for p in points:
        tag = f"alpha={p.alpha:g} snr={p.snr_db:g}dB"
        ref = reference.get((p.alpha, p.snr_db))
        if not _finite(p.r_analytic, p.r_mc_mean, p.r_mc_stderr):
            failures.append(f"non-finite result at {tag}")
        elif ref is None:
            failures.append(f"no FULL reference for {tag}")
        elif p.n_trials != config.trials or p.r_mc_stderr <= 0.0:
            failures.append(f"bad trial count or stderr at {tag}")
        else:
            sigma = math.hypot(p.r_mc_stderr, ref["std_err"])
            if abs(p.r_mc_mean - ref["mean"]) > GATE_SIGMAS * sigma:
                failures.append(f"FULL MC off its reference by more than "
                                f"{GATE_SIGMAS:g} sigma at {tag}")
    return failures


def full_gap_notes(points) -> list:
    """The FULL-vs-closed-form gap per point, kept visible as information."""
    return [f"info full-vs-closed alpha={p.alpha:g} snr={p.snr_db:g}dB "
            f"gap={(p.r_mc_mean - p.r_analytic) / abs(p.r_analytic):+.2%}"
            for p in points if _finite(p.r_mc_mean, p.r_analytic)
            and p.r_analytic != 0.0]


def _field(line: str, key: str) -> float:
    """Value of ``key=<number>`` inside a printed check line."""
    rest = line.split(f"{key}=", 1)[1]
    return float(rest.split()[0])


def gate_check_lines(text: str, mc_tol_sigmas: float, ks_n: int) -> tuple:
    """(attempted, failure messages) over the PASS/FAIL lines of ``text``.

    Deterministic checks fail on any FAIL line.  The two statistical checks
    print FAIL at the CLI's own 3-sigma and 1% levels, which a correct
    program trips on some seeds; they count as failed only past the
    benchmark's GATE_SIGMAS-equivalent level.
    """
    attempted, failures = 0, []
    ks_limit = KS_GATE_COEFF / math.sqrt(ks_n)
    for line in text.splitlines():
        if not line.startswith(("PASS", "FAIL")):
            continue
        attempted += 1
        if line.startswith("PASS"):
            continue
        try:
            if "triangle mc-vs-closed" in line:
                sigma = _field(line, "bound") / mc_tol_sigmas
                if _field(line, "|diff|") <= GATE_SIGMAS * sigma:
                    continue
            elif line[6:].startswith("ks "):
                if _field(line, "stat") <= ks_limit:
                    continue
        except (IndexError, ValueError):
            pass  # an unparseable statistical line counts as failed
        failures.append(line)
    return attempted, failures


def raw_fail_lines(outcome: Outcome) -> int:
    """FAIL lines exactly as the CLI printed them, gate or no gate."""
    return sum(1 for label, text in outcome.outputs.items()
               if label.endswith(".txt")
               for line in text.splitlines() if line.startswith("FAIL"))


def run_workload(cli, name: str, configs: dict, seed: int,
                 scratch: pathlib.Path) -> Outcome:
    """One pass of a workload through the ``cli.run_*`` functions."""
    out = Outcome()
    if name in ("qca-curve", "full-sweep"):
        config = configs["rate-curve"]
        expected = (len(config.nt) * len(config.bits) * len(config.alpha)
                    * len(config.snr_values()))
        out.attempted = expected
        stream = io.StringIO()
        try:
            points = cli.run_rate_curve(config, stream=stream)
        except Exception as exc:  # a raising sweep fails every point
            out.failed = expected
            out.notes.append(f"rate-curve raised {exc!r}")
            return out
        out.outputs["rate-curve.csv"] = stream.getvalue()
        if name == "qca-curve":
            failures = gate_qca_points(points, config)
        else:
            failures = gate_full_points(points, config, load_reference())
            out.notes.extend(full_gap_notes(points))
        failures += ["missing point"] * (expected - len(points))
        out.failed = min(expected, len(failures))
        out.notes.extend(failures)
        return out

    validate, dist = configs["validate"], configs["dist-check"]
    report = scratch / f"validate-{seed}.json"
    calls = (
        ("selftest.txt", lambda s: cli.run_selftest(seed=seed, stream=s)),
        ("validate.txt", lambda s: cli.run_validate(
            replace(validate, out=str(report)), stream=s)),
        ("dist-check.txt", lambda s: cli.run_dist_check(dist, stream=s)),
    )
    for label, call in calls:
        stream = io.StringIO()
        try:
            call(stream)
        except Exception as exc:
            out.attempted += 1
            out.failed += 1
            out.notes.append(f"{label[:-4]} raised {exc!r}")
            continue
        out.outputs[label] = stream.getvalue()
        attempted, failures = gate_check_lines(
            stream.getvalue(), validate.mc_tol_sigmas, dist.trials)
        out.attempted += attempted
        out.failed += len(failures)
        out.notes.extend(failures)
    if report.exists():
        out.outputs["validate.json"] = report.read_text()
        report.unlink()
    out.notes.append(f"info raw FAIL lines printed by the CLI: "
                     f"{raw_fail_lines(out)}")
    return out

