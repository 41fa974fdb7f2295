"""Span tracing around the calls into zfsecrecy's modules, and the per-layer
metrics derived from the spans.

Spans are recorded from the benchmark's own files: ``Tracer.install``
rebinds module attributes to timing wrappers, so no library code is
edited.  A span is (name, start, end, parent, thread).  Calls made on the
simulator's worker threads, which have no open span of their own, take as
parent the innermost span open on the main thread: the ``simulate`` call
that started the pool.

Spans stay in memory and are written out once, at the end of the pass.
"""

import json
import statistics
import threading
import time
from collections import defaultdict

# (module, attribute, span name).  A binding that does not exist is skipped,
# so the table survives functions moving between modules.
SPAN_TARGETS = (
    ("cli", "run_rate_curve", "cli.rate_curve"),
    ("cli", "run_validate", "cli.validate"),
    ("cli", "run_dist_check", "cli.dist_check"),
    ("cli", "run_selftest", "cli.selftest"),
    ("simulate", "estimate_secrecy_rate", "simulate.estimate"),
    ("simulate", "collect_sinr_samples", "simulate.collect"),
    ("simulate", "ks_statistic", "simulate.ks"),
    ("simulate", "max_zf_residual", "simulate.zf_residual"),
    # simulate's own binding: the draws as the engine makes them.
    ("simulate", "complex_gaussian_batch", "linalg.draw"),
    # The engine's batched-QR zero-forcing stage.
    ("numpy.linalg", "qr", "simulate.zf_qr"),
    ("analytic", "secrecy_rate_closed_form", "analytic.closed_form"),
    ("analytic", "rate_from_cdf_quadrature", "analytic.quadrature"),
    ("analytic", "secrecy_rate_interference_limited", "analytic.il_limit"),
    ("analytic", "secrecy_rate_noise_limited", "analytic.nl_limit"),
    ("codebooks", "generate_codebook", "codebooks.generate"),
    ("codebooks", "quantize", "codebooks.quantize"),
    ("codebooks", "zfbf_beams", "codebooks.zfbf_beams"),
    ("simulate", "generate_codebook", "codebooks.generate"),
    ("simulate", "quantize", "codebooks.quantize"),
    ("simulate", "zfbf_beams", "codebooks.zfbf_beams"),
)

# Calls too frequent for one span each (320k per-sample CDF calls in the
# verify workload): counted and timed in aggregate.
COUNT_TARGETS = (
    ("analytic", "sinr_cdf", "analytic.sinr_cdf"),
    ("linalg.RngStream", "generator", "linalg.streams"),
)

# Every per-layer metric: (name, unit, better).
PER_LAYER = (
    ("linalg.draw.calls", "count", "lower"),
    ("linalg.draw.busy_s", "s", "lower"),
    ("linalg.draw.normals", "count", "lower"),
    ("linalg.draw.us_per_trial", "us", "lower"),
    ("linalg.streams", "count", "lower"),
    ("simulate.estimate.calls", "count", "lower"),
    ("simulate.estimate.busy_s", "s", "lower"),
    ("simulate.qca.us_per_trial", "us", "lower"),
    ("simulate.full.us_per_trial", "us", "lower"),
    ("simulate.rejected", "count", "lower"),
    ("simulate.kept_ratio", "ratio", "higher"),
    ("simulate.zf_qr.calls", "count", "lower"),
    ("simulate.zf_qr.busy_s", "s", "lower"),
    ("simulate.zf_qr.us_per_trial", "us", "lower"),
    ("simulate.collect.busy_s", "s", "lower"),
    ("simulate.ks.busy_s", "s", "lower"),
    ("simulate.ks.us_per_sample", "us", "lower"),
    ("simulate.self_s", "s", "lower"),
    ("simulate.scaling_eff", "ratio", "higher"),
    ("analytic.closed_form.calls", "count", "lower"),
    ("analytic.closed_form.us_p50", "us", "lower"),
    ("analytic.closed_form.us_tail", "us", "lower"),
    ("analytic.closed_form.tail_pct", "%", "higher"),
    ("analytic.quadrature.calls", "count", "lower"),
    ("analytic.quadrature.ms_p50", "ms", "lower"),
    ("analytic.quadrature.ms_tail", "ms", "lower"),
    ("analytic.quadrature.tail_pct", "%", "higher"),
    ("analytic.sinr_cdf.calls", "count", "lower"),
    ("analytic.busy_s", "s", "lower"),
    ("codebooks.calls", "count", "lower"),
    ("codebooks.busy_s", "s", "lower"),
    ("cli.busy_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.points", "count", "higher"),
    ("cli.csv_bytes", "B", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


def _arg(args, kwargs, position, name):
    return kwargs[name] if name in kwargs else args[position]


def _mode(value) -> str:
    return getattr(value, "value", str(value))


def _prod(shape) -> int:
    out = 1
    for n in shape:
        out *= int(n)
    return out


# Attributes recorded on a span from the call's arguments and result.
SPAN_ATTRS = {
    "simulate.estimate": lambda a, k, r: {
        "mode": _mode(_arg(a, k, 1, "mode")),
        "trials": int(_arg(a, k, 2, "n_trials")), "rejected": int(r.rejected)},
    "simulate.collect": lambda a, k, r: {
        "mode": _mode(_arg(a, k, 1, "mode")), "samples": int(_arg(a, k, 3, "n"))},
    "simulate.ks": lambda a, k, r: {"samples": len(_arg(a, k, 0, "samples"))},
    "simulate.zf_residual": lambda a, k, r: {
        "mode": "full", "trials": int(_arg(a, k, 1, "n"))},
    "linalg.draw": lambda a, k, r: {"normals": 2 * _prod(_arg(a, k, 1, "shape"))},
}


class Tracer:
    """Records spans and aggregate counters for one workload pass."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, thread, attrs]
        self.counters = defaultdict(float)
        self._lock = threading.Lock()
        self._stacks = {}   # thread ident -> indices of the spans open on it
        self._threads = {}  # thread ident -> small id, in order of first span
        # span index -> time of the counted calls made directly inside it
        self.counted_s = defaultdict(float)
        self._main = threading.get_ident()

    # -- recording ---------------------------------------------------------

    def _enclosing(self, stack):
        """Index of the span a call on ``stack``'s thread runs in (caller
        holds the lock): the innermost span open on the thread, else the one
        open on the main thread."""
        if stack:
            return stack[-1]
        main = self._stacks.get(self._main)
        return main[-1] if main else None

    def _open(self, name: str):
        ident = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(ident, [])
            thread = self._threads.setdefault(ident, len(self._threads))
            parent = self._enclosing(stack)
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent, thread, None])
            stack.append(index)
        return index, stack

    def span(self, name: str, fn, attrs=None):
        """``fn`` wrapped so that every call records one span."""
        def traced(*args, **kwargs):
            index, stack = self._open(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                with self._lock:
                    stack.pop()
                    self.spans[index][1:3] = [start, end]
            if attrs is not None:
                try:
                    self.spans[index][5] = attrs(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass  # a changed signature loses the attributes, not the span
            return result
        traced.__wrapped__ = fn
        return traced

    def counted(self, name: str, fn):
        """``fn`` wrapped so that calls add to ``name.calls`` and ``name.busy_s``,
        and to the ``counted_s`` of the span they run in."""
        def counted(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                with self._lock:
                    self.counters[name + ".calls"] += 1
                    self.counters[name + ".busy_s"] += elapsed
                    enclosing = self._enclosing(
                        self._stacks.get(threading.get_ident()))
                    if enclosing is not None:
                        self.counted_s[enclosing] += elapsed
        counted.__wrapped__ = fn
        return counted

    # -- installation ------------------------------------------------------

    def install(self, modules: dict):
        """Rebind the targets found in ``modules`` (short name -> object)."""
        def resolve(path):
            head, *rest = path.split(".")
            obj = modules.get(head)
            for part in rest:
                obj = getattr(obj, part, None)
            return obj

        for path, attr, name in SPAN_TARGETS:
            owner = resolve(path)
            original = getattr(owner, attr, None)
            if callable(original):
                setattr(owner, attr,
                        self.span(name, original, SPAN_ATTRS.get(name)))
        for path, attr, name in COUNT_TARGETS:
            owner = resolve(path)
            original = getattr(owner, attr, None)
            if callable(original):
                setattr(owner, attr, self.counted(name, original))

    def write(self, path):
        """Write the spans and counters as JSON, times relative to the first span."""
        origin = min((s[1] for s in self.spans), default=0.0)
        records = [{"name": name, "start": start - origin, "end": end - origin,
                    "parent": parent, "thread": thread, **(attrs or {})}
                   for name, start, end, parent, thread, attrs in self.spans]
        path.write_text(json.dumps({"spans": records,
                                    "counters": dict(self.counters)}) + "\n")


# ---------------------------------------------------------------------------
# Derived metrics
# ---------------------------------------------------------------------------

def union_length(intervals) -> float:
    """Total length covered by possibly overlapping (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans, counted_s=None) -> list:
    """Each span's duration minus the union of its children's intervals and
    minus the counted calls made directly inside it (``counted_s``: span
    index -> seconds), which are children too but recorded in aggregate.

    Children may overlap each other (they run on two worker threads), so
    subtracting their summed durations would count shared time twice.
    """
    counted_s = counted_s or {}
    children = defaultdict(list)
    for name, start, end, parent, *_ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for index, (name, start, end, *_rest) in enumerate(spans):
        clipped = [(max(s, start), min(e, end)) for s, e in children[index]
                   if min(e, end) > max(s, start)]
        out.append((end - start) - union_length(clipped)
                   - counted_s.get(index, 0.0))
    return out


def tail(values):
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it: the 11th largest value, at percentile 100 (n-10)/n.

    (0.0, 0.0) when that percentile would not lie above the median, that
    is with 20 samples or fewer.
    """
    if len(values) <= 20:
        return 0.0, 0.0
    ordered = sorted(values)
    n = len(ordered)
    return ordered[n - 11], 100.0 * (n - 10) / n


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _outermost(spans, layer: str) -> list:
    """Indices of the layer's spans with no ancestor in the same layer."""
    out = []
    for index, span in enumerate(spans):
        if _layer(span[0]) != layer:
            continue
        parent = span[3]
        while parent is not None and _layer(spans[parent][0]) != layer:
            parent = spans[parent][3]
        if parent is None:
            out.append(index)
    return out


def layer_metrics(spans, counters, counted_s) -> dict:
    """Per-layer metrics of one traced pass (all but the two that need a
    second pass: ``simulate.scaling_eff`` and ``trace.overhead_frac``).

    A per-trial or per-sample rate whose layer did not run reads 0.
    """
    def named(name):
        return [s for s in spans if s[0] == name]

    def busy(rows):
        return sum(s[2] - s[1] for s in rows)

    def attr_sum(rows, key):
        return sum((s[5] or {}).get(key, 0) for s in rows)

    def per(numerator, denominator, scale):
        return scale * numerator / denominator if denominator else 0.0

    selfs = self_times(spans, counted_s)
    estimate = named("simulate.estimate")
    by_mode = defaultdict(list)
    for s in estimate + named("simulate.collect") + named("simulate.zf_residual"):
        by_mode[(s[0], (s[5] or {}).get("mode"))].append(s)
    est_qca = by_mode[("simulate.estimate", "qca")]
    est_full = by_mode[("simulate.estimate", "full")]
    full_trials = sum(attr_sum(rows, "trials") + attr_sum(rows, "samples")
                      for (_, mode), rows in by_mode.items()
                      if mode == "full")
    trials = attr_sum(estimate, "trials")
    rejected = attr_sum(estimate, "rejected")
    draw, qr, ks = named("linalg.draw"), named("simulate.zf_qr"), named("simulate.ks")
    closed = [s[2] - s[1] for s in named("analytic.closed_form")]
    quad = [s[2] - s[1] for s in named("analytic.quadrature")]
    closed_tail, closed_pct = tail(closed)
    quad_tail, quad_pct = tail(quad)
    analytic_top = [spans[i] for i in _outermost(spans, "analytic")]
    codebooks_top = [spans[i] for i in _outermost(spans, "codebooks")]
    simulate_top = _outermost(spans, "simulate")
    cli_top = _outermost(spans, "cli")

    return {
        "linalg.draw.calls": len(draw),
        "linalg.draw.busy_s": busy(draw),
        "linalg.draw.normals": attr_sum(draw, "normals"),
        "linalg.draw.us_per_trial": per(busy(draw), full_trials, 1e6),
        "linalg.streams": int(counters.get("linalg.streams.calls", 0)),
        "simulate.estimate.calls": len(estimate),
        "simulate.estimate.busy_s": busy(estimate),
        "simulate.qca.us_per_trial": per(busy(est_qca), attr_sum(est_qca, "trials"), 1e6),
        "simulate.full.us_per_trial": per(busy(est_full), attr_sum(est_full, "trials"), 1e6),
        "simulate.rejected": rejected,
        "simulate.kept_ratio": per(trials, trials + rejected, 1.0),
        "simulate.zf_qr.calls": len(qr),
        "simulate.zf_qr.busy_s": busy(qr),
        "simulate.zf_qr.us_per_trial": per(busy(qr), full_trials, 1e6),
        "simulate.collect.busy_s": busy(named("simulate.collect")),
        "simulate.ks.busy_s": busy(ks),
        "simulate.ks.us_per_sample": per(busy(ks), attr_sum(ks, "samples"), 1e6),
        "simulate.self_s": sum(selfs[i] for i in simulate_top),
        "analytic.closed_form.calls": len(closed),
        "analytic.closed_form.us_p50": 1e6 * statistics.median(closed or [0.0]),
        "analytic.closed_form.us_tail": 1e6 * closed_tail,
        "analytic.closed_form.tail_pct": closed_pct,
        "analytic.quadrature.calls": len(quad),
        "analytic.quadrature.ms_p50": 1e3 * statistics.median(quad or [0.0]),
        "analytic.quadrature.ms_tail": 1e3 * quad_tail,
        "analytic.quadrature.tail_pct": quad_pct,
        "analytic.sinr_cdf.calls": int(counters.get("analytic.sinr_cdf.calls", 0)),
        "analytic.busy_s": (busy(analytic_top)
                            + counters.get("analytic.sinr_cdf.busy_s", 0.0)),
        "codebooks.calls": len(codebooks_top),
        "codebooks.busy_s": busy(codebooks_top),
        "cli.busy_s": busy([spans[i] for i in cli_top]),
        "cli.self_s": sum(selfs[i] for i in cli_top),
        "trace.spans": len(spans),
    }
