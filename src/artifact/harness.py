"""Monte Carlo experiment driver for the three pulse-position codecs.

One ExperimentConfig describes a full experiment: scheme, problem size,
timing process, back end, trial budget and seed.  run_trials produces a
Report with the observed error rate, a Wilson confidence interval, the
deterministic per-codeword cost, tallies of the error budget (drift
events, own-region misses and false alarms) and the count of trials whose
timing-state sums were drawn from the rounded Gaussian
(approximate_state_sums; see _sparse.sample_state_sum).

Every trial of every scheme is streamed, which is exact in law and never
builds the codeword or the received stream; the test suite checks it
against a materialising simulator of its own.  The Gaussian back
ends draw one normal per window when their regions share no sample and
are short (_sparse.WindowPlan), and one per segment between window
breakpoints otherwise (_sparse.Plan).  Layouts the window plan serves
that also hold at least _sparse.SIEVE_MIN_WINDOWS windows, in regions of
n windows with n * Q(tau) < 1, get _sparse.SievePlan: a trial draws a and
g, the normals of the sent message's region and of the regions the burst
image touches, one uniform a region, and then, for the regions that
uniform made proposals, their window indices, tail uniforms and keep
uniforms, and their normals.  Each region fires exactly as under a full
draw (the proposal density is c(x) phi_C(x) for c(x) firing windows,
kept with probability 1 / c), so reports keep their law, not their
numbers, against the window plan.  run_trials splits
the trials, in order, into blocks of the plan's block_size, draws each
block's messages and seeds as the block is taken, runs it through
_sparse.stream_trials (one worker thread per block at a time), and adds
its counts into the report's tallies; no per-trial outcome is kept, so
memory does not grow with the trial count.  A trial's time and memory
grow with the windows its decoder tests, and for the DMC scheme with the
samples they cover, so configs over MAX_WINDOWS windows, or over
MAX_LETTERS DMC letters a trial, are rejected before any table is built
or letter drawn.

Reproducibility contract: a report is a pure function of its config.  Every
trial draws from its own seed spawned from base_seed, and its outcome does
not depend on the other trials of its block, so neither the block split
nor the worker count changes the numbers.
"""

from __future__ import annotations

import collections
import copy
import csv
import itertools
import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, asdict, dataclass

import numpy as np
from scipy.stats import norm as _norm

from . import _sparse, codec_compound, codec_dmc, codec_gauss
from ._layout import MAX_WINDOWS, window_count
from .channel import (Dmc, StateDistribution, is_integer, is_real,
                      state_dist_from_dict, state_dist_to_dict)
from .errors import InvalidConfigError
from .rng import as_generator

MAX_LETTERS = 1 << 22  # most letters a DMC trial may draw
# messages drawn at a time: one call for many short blocks, and memory
# that does not grow with the trial count
_MESSAGE_CHUNK = 1 << 12

_SCHEMES = ("dmc", "gauss", "compound")
_INT_FIELDS = ("M", "trials", "base_seed", "x_star", "workers")
_REAL_FIELDS = ("epsilon", "delta", "eta2", "confidence", "mu1", "mu2",
                "sigma2_bound")
_OPTIONAL_FIELDS = ("workers", "mu1", "mu2", "sigma2_bound")


def _is_finite(value) -> bool:
    return is_real(value) and math.isfinite(value)


@dataclass(frozen=True)
class ExperimentConfig:
    scheme: str
    M: int
    epsilon: float
    delta: float
    trials: int
    base_seed: int
    idc: StateDistribution
    dmc: Dmc | None = None  # back end for scheme "dmc"
    x_star: int = 1  # burst letter for scheme "dmc"
    eta2: float = 1.0  # noise variance for the Gaussian back ends
    mu1: float | None = None  # rate interval for scheme "compound"
    mu2: float | None = None
    sigma2_bound: float | None = None
    message_selection: str | int = "uniform"  # or "exhaustive", or a fixed message
    confidence: float = 0.95
    workers: int | None = None  # None: take ARTIFACT_THREADS, default 1

    def __post_init__(self):
        if self.scheme not in _SCHEMES:
            raise InvalidConfigError(
                f"unknown scheme {self.scheme!r}; expected one of {_SCHEMES}")
        for names, ok, kind in ((_INT_FIELDS, is_integer, "an integer"),
                                (_REAL_FIELDS, _is_finite, "a finite number")):
            for name in names:
                value = getattr(self, name)
                if not (ok(value) or value is None and name in _OPTIONAL_FIELDS):
                    raise InvalidConfigError(
                        f"{name} must be {kind}, got {value!r}")
        if self.trials < 1:
            raise InvalidConfigError("need at least one trial")
        if self.base_seed < 0:
            raise InvalidConfigError("base_seed must be nonnegative")
        if not isinstance(self.idc, StateDistribution):
            raise InvalidConfigError("idc must be a StateDistribution")
        if not (0.0 < self.confidence < 1.0):
            raise InvalidConfigError("confidence must sit strictly inside (0, 1)")
        selection = self.message_selection
        if not (is_integer(selection)
                or selection in ("uniform", "exhaustive")):
            raise InvalidConfigError(
                "message_selection must be uniform, exhaustive, or a message")
        if is_integer(selection) and not (1 <= selection <= self.M):
            raise InvalidConfigError(
                f"fixed message {selection} outside 1..{self.M}")
        if self.scheme == "dmc" and not isinstance(self.dmc, Dmc):
            raise InvalidConfigError("scheme 'dmc' needs a back-end channel")
        if self.scheme == "compound" and None in (self.mu1, self.mu2,
                                                  self.sigma2_bound):
            raise InvalidConfigError(
                "scheme 'compound' needs mu1, mu2 and sigma2_bound")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise InvalidConfigError("an experiment config must be an object")
        fields = cls.__dataclass_fields__
        extra = set(d) - set(fields)
        if extra:
            raise InvalidConfigError(
                f"unknown config keys: {', '.join(sorted(extra))}")
        missing = [name for name, f in fields.items()
                   if f.default is MISSING and name not in d]
        if missing:
            raise InvalidConfigError(
                f"missing config keys: {', '.join(missing)}")
        kwargs = dict(d)
        if not isinstance(kwargs["idc"], dict):
            raise InvalidConfigError("config needs an idc state distribution")
        kwargs["idc"] = state_dist_from_dict(kwargs["idc"])
        if kwargs.get("dmc") is not None:
            kwargs["dmc"] = Dmc.from_dict(kwargs["dmc"])
        return cls(**kwargs)

    def to_dict(self) -> dict:
        d = {
            "scheme": self.scheme, "M": self.M, "epsilon": self.epsilon,
            "delta": self.delta, "trials": self.trials,
            "base_seed": self.base_seed, "idc": state_dist_to_dict(self.idc),
            "x_star": self.x_star, "eta2": self.eta2,
            "message_selection": self.message_selection,
            "confidence": self.confidence,
        }
        if self.dmc is not None:
            d["dmc"] = self.dmc.to_dict()
        for key in ("mu1", "mu2", "sigma2_bound", "workers"):
            val = getattr(self, key)
            if val is not None:
                d[key] = val
        return d


@dataclass(frozen=True)
class Report:
    config: ExperimentConfig
    trials: int
    errors: int
    error_rate: float
    error_ci_low: float
    error_ci_high: float
    codeword_cost: float  # deterministic input cost of every codeword
    rate_per_unit_cost: float  # log2(M) / codeword_cost
    wall_time_s: float
    diagnostics: dict

    def to_dict(self) -> dict:
        d = asdict(self)
        d["config"] = self.config.to_dict()
        return d


def wilson_interval(errors: int, trials: int,
                    confidence: float = 0.95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("need at least one trial")
    if not (0 <= errors <= trials):
        raise ValueError("error count outside 0..trials")
    z = float(_norm.ppf(0.5 + confidence / 2.0))
    phat = errors / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials
                         + z * z / (4 * trials * trials)) / denom
    # the score equation has roots exactly at 0 and 1 for degenerate phat;
    # the sqrt above only recovers them to a ulp
    lo = 0.0 if errors == 0 else max(0.0, center - half)
    hi = 1.0 if errors == trials else min(1.0, center + half)
    return lo, hi


def derive_scheme_params(config: ExperimentConfig):
    """Scheme parameters for a config."""
    if config.scheme == "dmc":
        return codec_dmc.derive_params(config.M, config.epsilon, config.delta,
                                       config.idc, config.dmc, config.x_star)
    if config.scheme == "gauss":
        return codec_gauss.derive_params(config.M, config.epsilon, config.delta,
                                         config.idc, config.eta2)
    params = codec_compound.derive_params(
        config.M, config.epsilon, config.delta, config.mu1, config.mu2,
        config.sigma2_bound, config.eta2)
    if not (config.mu1 - 1e-9 <= config.idc.mu <= config.mu2 + 1e-9):
        raise InvalidConfigError(
            f"realized timing rate {config.idc.mu} falls outside the design "
            f"interval [{config.mu1}, {config.mu2}]")
    return params


def codeword_cost(config: ExperimentConfig, params) -> float:
    """The input cost of every codeword; a free codeword is rejected, since
    its rate per unit cost is undefined."""
    if config.scheme == "dmc":
        cost = params.B * float(config.dmc.cost[params.x_star])
    else:
        cost = float(params.energy)
    if not cost > 0.0:
        raise InvalidConfigError(
            f"every codeword costs {cost}, so its rate per unit cost is "
            "undefined; give the burst letter a positive cost")
    return cost


def _make_plan(config: ExperimentConfig, params):
    """The streamed-trial plan of a config's scheme.  For the Gaussian back
    ends: when the window plan serves the layout and every region's
    covariance factors, the sieve if it serves the layout too (long
    layouts whose regions rarely fire), else the window plan; otherwise
    the segment plan."""
    if config.scheme == "dmc":
        return _sparse.DmcPlan(params, config.dmc)
    if _sparse.WindowPlan.serves(params.layout):
        plan = (_sparse.SievePlan if _sparse.SievePlan.serves(params)
                else _sparse.WindowPlan)
        try:
            return plan(params)
        except np.linalg.LinAlgError:
            pass
    return _sparse.Plan(params)


def _trial_blocks(config: ExperimentConfig, size: int):
    """(messages, trial seeds) of each block of at most size trials, in
    trial order.  Messages are drawn _MESSAGE_CHUNK at a time (rounded
    to whole blocks) and seeds block by block, which gives every trial
    the message and the seed that one draw of them all would, and holds
    ~400 bytes a trial only while its block runs."""
    # stream 0 is unused; it stays so that message and trial seeds hold
    _, msg_ss, trial_root = np.random.SeedSequence(config.base_seed).spawn(3)
    rng = as_generator(msg_ss)
    chunk = size * max(1, _MESSAGE_CHUNK // size)
    for first in range(0, config.trials, chunk):
        messages = _draw_messages(config, rng, first,
                                  min(chunk, config.trials - first))
        for i in range(0, messages.size, size):
            block = messages[i:i + size]
            yield block, trial_root.spawn(block.size)


def _lazy_map(pool: ThreadPoolExecutor, fn, items, ahead: int):
    """pool.map(fn, items), in order, but with at most ahead items
    submitted and not yet returned, so items are drawn as the work goes."""
    pending = collections.deque()
    for item in items:
        pending.append(pool.submit(fn, item))
        if len(pending) >= ahead:
            yield pending.popleft().result()
    while pending:
        yield pending.popleft().result()


_FLAGS = ("prefix_drift_out", "burst_spread_out", "wrong_windows_all_zero",
          "full_burst_window_exists")
_TALLIES = ("errors", "erasures", *_FLAGS, "drift_free", "drift_free_clean",
            "drift_free_own_missed", "quiet_false_alarms",
            "quiet_false_alarms_sq", "quiet_wrong_windows",
            "approximate_state_sums")


def _block_tallies(messages: np.ndarray, block, bounds) -> dict[str, int]:
    """The error count and the report tallies of one block of trials;
    message m owns the windows bounds[m-1]:bounds[m] of the region table."""
    out = dict.fromkeys(_TALLIES, 0)
    out["errors"] = int((block.decoded != messages).sum())
    out["erasures"] = int((block.decoded == 0).sum())
    out["approximate_state_sums"] = block.approximate_sums
    own = block.region_fired[np.arange(messages.size), messages - 1]
    wrong = block.region_fired.sum(axis=1) - own
    others = bounds[-1] - bounds[messages] + bounds[messages - 1]
    for d, own_fired, alarms, windows in zip(
            block.diagnostics, own.tolist(), wrong.tolist(), others.tolist()):
        for key in _FLAGS:
            out[key] += getattr(d, key)
        if not (d.prefix_drift_out or d.burst_spread_out):
            out["drift_free"] += 1
            out["drift_free_clean"] += (d.wrong_windows_all_zero
                                        and d.full_burst_window_exists)
            out["drift_free_own_missed"] += own_fired == 0
        if d.wrong_windows_all_zero:
            out["quiet_false_alarms"] += alarms
            out["quiet_false_alarms_sq"] += alarms * alarms
            out["quiet_wrong_windows"] += windows
    return out


def _draw_messages(config: ExperimentConfig, rng, first: int,
                   n: int) -> np.ndarray:
    """Messages of trials first .. first + n - 1, uniform ones the next n
    draws of rng: bounded integers chunked in any way equal one draw."""
    if config.message_selection == "uniform":
        return rng.integers(1, config.M + 1, size=n)
    if config.message_selection == "exhaustive":
        return np.arange(first, first + n, dtype=np.int64) % config.M + 1
    return np.full(n, int(config.message_selection), dtype=np.int64)


def _worker_count(config: ExperimentConfig) -> int:
    if config.workers is not None:
        n = int(config.workers)
    else:
        n = int(os.environ.get("ARTIFACT_THREADS", "1"))
    if n < 1:
        raise InvalidConfigError(f"worker count must be positive, got {n}")
    return n


def _check_plan_size(config: ExperimentConfig, layout) -> None:
    """Reject a config whose trial plan would outgrow MAX_WINDOWS windows or,
    for the DMC scheme, whose trials would draw more than MAX_LETTERS
    letters, from the regions' ranges alone, before any window is laid
    out."""
    windows = sum(map(window_count, layout.regions))
    if windows > MAX_WINDOWS:
        raise InvalidConfigError(
            f"the decision regions hold {windows} windows, which exceeds "
            f"{MAX_WINDOWS}, the most a trial plan holds")
    if config.scheme == "dmc":
        # samples region r's windows cover, counting shared ones once per
        # region: an upper bound on the letters a trial draws
        letters = sum(min(n * w, (n - 1) * r.step + w)
                      for r, w in zip(layout.regions, layout.window_lens)
                      if (n := window_count(r)))
        if letters > MAX_LETTERS:
            raise InvalidConfigError(
                f"a DMC trial would draw up to {letters} letters, which "
                f"exceeds {MAX_LETTERS}")


def run_trials(config: ExperimentConfig) -> Report:
    """Run the full experiment described by config.  Deterministic in config."""
    t0 = time.perf_counter()
    params = derive_scheme_params(config)
    cost = codeword_cost(config, params)
    _check_plan_size(config, params.layout)
    plan = _make_plan(config, params)

    def run(block) -> dict[str, int]:
        messages, seeds = block
        return _block_tallies(messages, _sparse.stream_trials(
            plan, messages, config.idc, seeds), plan.table.bounds)

    tallies = collections.Counter()  # keys in _TALLIES order
    blocks = _trial_blocks(config, plan.block_size)
    workers = _worker_count(config)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for part in (map(run, blocks) if workers == 1 else
                     _lazy_map(pool, run, blocks, ahead=2 * workers)):
            tallies.update(part)

    errors = tallies.pop("errors")
    lo, hi = wilson_interval(errors, config.trials, config.confidence)
    guards = asdict(params.diagnostics)
    return Report(
        config=config, trials=config.trials, errors=errors,
        error_rate=errors / config.trials, error_ci_low=lo, error_ci_high=hi,
        codeword_cost=cost,
        rate_per_unit_cost=math.log2(config.M) / cost,
        wall_time_s=time.perf_counter() - t0,
        diagnostics={"threshold": params.threshold, "guards": guards, **tallies})


_SWEEP_REPORT_COLUMNS = (
    "valid", "error", "trials", "errors", "error_rate", "error_ci_low",
    "error_ci_high", "codeword_cost", "rate_per_unit_cost", "wall_time_s")


def sweep(grid: dict) -> tuple[list[str], list[dict]]:
    """Run the cartesian product of config overrides described by grid.

    grid = {"base": <config dict>, "axes": {<field>: [value, ...], ...}}.
    Returns (column names, rows); invalid points become rows with valid=False
    and the error message, never an exception.  An empty axis yields an empty
    table.
    """
    if not isinstance(grid, dict):
        raise InvalidConfigError("a sweep grid must be a JSON object")
    if not isinstance(grid.get("base"), dict):
        raise InvalidConfigError(
            "sweep grid needs a base config object under 'base'")
    axes = grid.get("axes", {})
    if not (isinstance(axes, dict)
            and all(isinstance(v, list) for v in axes.values())):
        raise InvalidConfigError("axes must map config fields to value lists")
    names = list(axes)
    columns = ["point", *names, *_SWEEP_REPORT_COLUMNS]
    rows: list[dict] = []
    for point, values in enumerate(itertools.product(*axes.values())):
        d = copy.deepcopy(grid["base"])
        for name, val in zip(names, values):
            d[name] = copy.deepcopy(val)
        row = {"point": point}
        for name, val in zip(names, values):
            row[name] = json.dumps(val) if isinstance(val, (dict, list)) else val
        try:
            report = run_trials(ExperimentConfig.from_dict(d))
        except (InvalidConfigError, ValueError) as exc:
            row.update({c: "" for c in _SWEEP_REPORT_COLUMNS})
            row.update(valid=False, error=str(exc))
        else:
            row.update(
                valid=True, error="", trials=report.trials,
                errors=report.errors, error_rate=report.error_rate,
                error_ci_low=report.error_ci_low,
                error_ci_high=report.error_ci_high,
                codeword_cost=report.codeword_cost,
                rate_per_unit_cost=report.rate_per_unit_cost,
                wall_time_s=report.wall_time_s)
        rows.append(row)
    return columns, rows


def write_csv(columns: list[str], rows: list[dict], out) -> None:
    """Write sweep rows as CSV to a path or a file object."""
    if hasattr(out, "write"):
        writer = csv.DictWriter(out, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)
        return
    with open(out, "w", newline="") as fh:
        write_csv(columns, rows, fh)


@dataclass(frozen=True)
class CostEquivalenceReport:
    """Monte Carlo check that the timing channel preserves expected cost.

    The modified letter cost divides by the mean repetition rate, so the
    expected cost of the stretched input stream must equal the cost of the
    codeword itself.  Only burst slots matter on either side: zero letters
    cost nothing and their images cost nothing.
    """

    trials: int
    mu: float
    input_cost: float
    mean_output_cost: float
    std_error: float
    abs_difference: float
    tolerance: float  # 4 standard errors (exact match required when SE is 0)
    within_tolerance: bool
    max_trial_abs_diff: float

    def to_dict(self) -> dict:
        return asdict(self)


def verify_cost_equivalence(config: ExperimentConfig, trials: int | None = None,
                            seed=None) -> CostEquivalenceReport:
    """Estimate E[modified cost of the stretched codeword] and compare.

    Works on the letter-cost scheme (dmc).  The burst is the only costly part
    of any codeword and every message uses the same burst length, so the
    check is message-independent; it samples the burst slot states directly.
    """
    if config.scheme != "dmc":
        raise InvalidConfigError(
            "cost equivalence is defined for letter costs; use scheme dmc")
    params = derive_scheme_params(config)
    n = config.trials if trials is None else int(trials)
    if n < 2:
        raise InvalidConfigError("need at least two trials for a standard error")
    rng = as_generator(config.base_seed if seed is None else seed)
    letter_cost = float(config.dmc.cost[params.x_star])
    input_cost = params.B * letter_cost

    counts = rng.multinomial(params.B, config.idc.probabilities, size=n)
    sums = counts @ np.asarray(config.idc.values, dtype=np.float64)
    output_costs = (letter_cost / config.idc.mu) * sums

    mean_out = float(output_costs.mean())
    se = float(output_costs.std(ddof=1) / math.sqrt(n))
    diff = abs(mean_out - input_cost)
    within = diff <= 4.0 * se if se > 0.0 else diff == 0.0
    return CostEquivalenceReport(
        trials=n, mu=config.idc.mu, input_cost=input_cost,
        mean_output_cost=mean_out, std_error=se, abs_difference=diff,
        tolerance=4.0 * se, within_tolerance=within,
        max_trial_abs_diff=float(np.abs(output_costs - input_cost).max()))
