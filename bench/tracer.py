"""Per-layer spans and counts, recorded from outside the package.

Each hooked public function is replaced by a wrapper under every name the
package binds it to (``harness`` binds ``ids_channel`` at import, for
example), so callers reach the wrapper wherever they look the function up.
A wrapper records a span (name, start, end, parent span, trial id) in memory
and, for a few functions, notes the result so that counts can be worked out
after the report.  A function that no longer exists is reported as absent.

Metric names drop the module's leading underscore (``_exact`` reports as
``exact.*``), because metric names must start with a letter or digit.

Trial ids: a trial starts when a direct child of run_trials is one of
TRIAL_START and ends when a direct child in TRIAL_END returns.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import sys
import time

import numpy as np

HOOKS = {
    "harness": ("run_trials", "derive_scheme_params"),
    "_exact": ("ints_in_open", "multiples_in_open", "multiples_between"),
    "codec_gauss": ("derive_params", "decision_region", "encode", "decode",
                    "trace_diagnostics", "geometry_diagnostics"),
    "codec_dmc": ("derive_params", "decision_region", "calibrate_threshold",
                  "encode", "decode", "trace_diagnostics"),
    "codec_compound": ("derive_params", "schedule_diagnostics",
                       "geometry_diagnostics"),
    "channel": ("ids_channel", "sample_states", "idc_apply", "gaussian_apply",
                "dmc_apply"),
    "_sparse": ("geometry_from_gauss", "geometry_from_compound",
                "stream_trial", "sample_state_sum"),
}

TRIAL_START = {"codec_gauss.encode", "codec_dmc.encode", "_sparse.stream_trial"}
TRIAL_END = {"codec_gauss.trace_diagnostics", "codec_dmc.trace_diagnostics",
             "codec_gauss.geometry_diagnostics",
             "codec_compound.geometry_diagnostics"}

DECODERS = ("codec_gauss", "codec_dmc", "codec_compound")

# (metric, unit, better) of the counts, in report order.
COUNTS = (
    ("channel.slots_sampled", "count", "lower"),
    ("channel.samples_emitted", "count", "lower"),
    ("channel.bytes_materialised", "bytes.computed", "lower"),
    ("channel.inspected_frac", "frac", "higher"),
    ("exact.positions_built", "count", "lower"),
    *((f"{c}.windows_tested", "count", "lower") for c in DECODERS),
    ("sparse.windows_tested", "count", "lower"),
)


def metric_name(label: str) -> str:
    return label.lstrip("_")


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better)."""
    out = []
    for mod, funcs in HOOKS.items():
        for fn in funcs:
            name = metric_name(f"{mod}.{fn}")
            out.append((f"{name}.calls", "count", "lower"))
            out.append((f"{name}.self_s", "s", "lower"))
    out.extend(COUNTS)
    out.append(("trace.overhead_s", "s", "lower"))
    out.append(("process.peak_rss_delta_mb", "MB", "lower"))
    return out


def _symbol_count(y) -> int:
    return int(np.asarray(getattr(y, "symbols", y)).size)


class Tracer:
    """Spans and count notes of one traced report."""

    def __init__(self):
        self.spans: list[list] = []  # [label, start, end, parent, trial]
        self.stack: list[int] = []
        self.trial: int | None = None
        self.trials_seen = 0
        self.absent: list[str] = []
        self.counts = {name: 0 for name, _, _ in COUNTS}
        self.decodes: list[tuple[str, object, int]] = []  # module, params, len
        self.geometries: list[object] = []
        self.t0 = time.perf_counter()

    # -- hooks ---------------------------------------------------------------

    def _note(self, label: str, args, kwargs, result) -> None:
        c = self.counts
        if label == "channel.sample_states":
            c["channel.slots_sampled"] += len(result)
            c["channel.bytes_materialised"] += result.states.nbytes
        elif label in ("channel.idc_apply", "channel.gaussian_apply",
                       "channel.dmc_apply"):
            c["channel.bytes_materialised"] += result.nbytes
        elif label == "channel.ids_channel":
            c["channel.samples_emitted"] += result.symbols.size
        elif label.startswith("_exact."):
            c["exact.positions_built"] += len(result)
        elif label.endswith(".decode"):
            y = args[0] if args else kwargs["y"]
            params = args[1] if len(args) > 1 else kwargs["params"]
            self.decodes.append((label.split(".")[0], params, _symbol_count(y)))
        elif label == "_sparse.stream_trial":
            self.geometries.append(args[0] if args else kwargs["geom"])

    def _wrap(self, label: str, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            top = parent is not None and spans[parent][0] == "harness.run_trials"
            if top and label in TRIAL_START:
                self.trial = self.trials_seen
                self.trials_seen += 1
            span = [label, clock(), None, parent, self.trial]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                if (top and label in TRIAL_END) or label == "harness.run_trials":
                    self.trial = None
            self._note(label, args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Swap every hooked function for its wrapper, restoring on exit."""
        mods = {n: m for n, m in sys.modules.items()
                if n == "artifact" or n.startswith("artifact.")}
        swaps = []
        for modname, funcs in HOOKS.items():
            try:
                home = importlib.import_module(f"artifact.{modname}")
            except ImportError:
                home = None
            for fn_name in funcs:
                label = f"{modname}.{fn_name}"
                fn = getattr(home, fn_name, None)
                if fn is None:
                    self.absent.append(label)
                    continue
                wrapper = self._wrap(label, fn)
                for mod in mods.values():
                    for attr, val in list(vars(mod).items()):
                        if val is fn:
                            swaps.append((mod, attr, fn))
                            setattr(mod, attr, wrapper)
        try:
            yield self
        finally:
            for mod, attr, fn in reversed(swaps):
                setattr(mod, attr, fn)

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Per label: (calls, self seconds = duration minus child spans)."""
        child = [0.0] * len(self.spans)
        for label, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, list] = {}
        for (label, start, end, _, _), inner in zip(self.spans, child):
            agg = out.setdefault(label, [0, 0.0])
            agg[0] += 1
            agg[1] += (end - start) - inner
        return {k: (v[0], v[1]) for k, v in out.items()}

    def final_counts(self) -> dict[str, float]:
        """Counts that need the whole report: windows and inspected share."""
        c = dict(self.counts)
        layouts: dict[tuple[str, int], tuple[np.ndarray, np.ndarray]] = {}
        covered = 0
        for mod, params, length in self.decodes:
            key = (mod, id(params))
            if key not in layouts:
                layouts[key] = _windows(mod, params)
            starts, lens = layouts[key]
            c[f"{mod}.windows_tested"] += int(starts.size)
            covered += _covered(starts, lens, length)
        emitted = c["channel.samples_emitted"]
        c["channel.inspected_frac"] = covered / emitted if emitted else 0.0
        sizes: dict[int, int] = {}
        for geom in self.geometries:
            if id(geom) not in sizes:
                sizes[id(geom)] = sum(len(r) for r in geom.regions)
            c["sparse.windows_tested"] += sizes[id(geom)]
        return c

    def span_records(self) -> list[dict]:
        return [{"name": label, "start": start - self.t0,
                 "end": end - self.t0, "parent": parent, "trial": trial}
                for label, start, end, parent, trial in self.spans]

    @staticmethod
    def summarise(tracers: list["Tracer"]) -> tuple[dict, bool]:
        """Per-layer metrics over traced reports: mean self time, and calls
        and counts from the first report.  The flag says whether every
        report repeated those calls and counts."""
        times = [t.self_times() for t in tracers]
        counts = [t.final_counts() for t in tracers]
        calls = [{k: v[0] for k, v in st.items()} for st in times]
        repeatable = (all(c == calls[0] for c in calls)
                      and all(c == counts[0] for c in counts))
        metrics: dict = {}
        for mod, funcs in HOOKS.items():
            for fn in funcs:
                label = f"{mod}.{fn}"
                name = metric_name(label)
                metrics[f"{name}.calls"] = (calls[0].get(label, 0), "count")
                metrics[f"{name}.self_s"] = (statistics.mean(
                    st.get(label, (0, 0.0))[1] for st in times), "s")
        for name, unit, _ in COUNTS:
            metrics[name] = (counts[0][name], unit)
        return metrics, repeatable


def _windows(mod: str, params) -> tuple[np.ndarray, np.ndarray]:
    """Window starts and lengths a decoder of module mod tests, flattened."""
    codec = importlib.import_module(f"artifact.{mod}")
    starts, lens = [], []
    for m in range(1, params.M + 1):
        reg = codec.decision_region(m, params)
        w = (codec.window_length(m, params) if mod == "codec_compound"
             else params.window_len)
        starts.extend(reg)
        lens.extend([w] * len(reg))
    return np.asarray(starts, dtype=np.int64), np.asarray(lens, dtype=np.int64)


def _covered(starts: np.ndarray, lens: np.ndarray, length: int) -> int:
    """Samples of 1..length that lie inside at least one window."""
    order = np.argsort(starts, kind="stable")
    lo = starts[order]
    hi = np.minimum(lo + lens[order] - 1, length)
    reach = np.maximum.accumulate(np.concatenate(([0], hi[:-1])))
    return int(np.maximum(hi - np.maximum(lo, reach + 1) + 1, 0).sum())
