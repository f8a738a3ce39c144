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
against a materialising simulator of its own.  _sparse.plan_for picks
the trial plan: for the DMC scheme its letter plan, and for the Gaussian
back ends the union sieve when their regions share no sample and the
layout is long and its regions rarely fire (_sparse.SievePlan, which
keeps each region's law, not its numbers, against a full draw), and one
normal per segment between window breakpoints otherwise (_sparse.Plan).
A trial's time and memory grow with the windows its decoder tests, and
for the DMC scheme with the samples they cover, so plan_for rejects
configs over _sparse.MAX_WINDOWS windows, over _sparse.MAX_LETTERS DMC
letters a trial or over _sparse.MAX_CODES codes of a DMC firing table,
before any table is built or letter drawn.
run_trials splits the trials, in order, into blocks of the plan's
block_size, draws each block's messages and trial states as the block is
taken, runs it through _sparse.stream_trials, and adds its counts into
the report's tallies; no per-trial outcome is kept, so memory does not
grow with the trial count.

Reproducibility contract: a report is a pure function of its config.  The
streams are numpy's children of SeedSequence(base_seed), as
SeedSequence(base_seed).spawn(3) names them: the messages are the draws
of child 1's stream, and trial t draws from the stream of child 2's
child t, SeedSequence(base_seed, spawn_key=(2, t)).  No SeedSequence or
bit generator is built for them: rng.Spawner computes each stream's
PCG64 state in closed form, bit for bit, and the report seats it in a
generator of its own, so reports run at once in several threads share
no stream.  A trial's outcome does not depend on the other trials of its
block, so the block split does not change the numbers, but for the
sieve's rounding: its block products may round a statistic differently
in the last bits from a product over fewer rows (see _sparse.SievePlan).
"""

from __future__ import annotations

import collections
import copy
import csv
import itertools
import json
import math
import time
from dataclasses import MISSING, asdict, dataclass
from statistics import NormalDist

import numpy as np

from . import _sparse, codec_compound, codec_dmc, codec_gauss, rng
from .channel import (Dmc, StateDistribution, is_integer, is_real,
                      state_dist_from_dict, state_dist_to_dict)
from .errors import InvalidConfigError

# most trials verify_cost_equivalence draws, all at once
MAX_COST_TRIALS = 1 << 22
# most trials a report runs: trial t's seed has t below 2**64 (see
# rng.Spawner.child_words)
MAX_TRIALS = 1 << 64
# messages drawn at a time: one call for many short blocks, and memory
# that does not grow with the trial count
_MESSAGE_CHUNK = 1 << 12

_SCHEMES = ("dmc", "gauss", "compound")
_INT_FIELDS = ("M", "trials", "base_seed", "x_star")
_REAL_FIELDS = ("epsilon", "delta", "eta2", "confidence", "mu1", "mu2",
                "sigma2_bound")
_OPTIONAL_FIELDS = ("mu1", "mu2", "sigma2_bound")


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
        if self.trials > MAX_TRIALS:
            raise InvalidConfigError(
                f"{self.trials} trials exceed {MAX_TRIALS}, the most a "
                "report runs")
        if self.base_seed < 0:
            raise InvalidConfigError("base_seed must be nonnegative")
        if not isinstance(self.idc, StateDistribution):
            raise InvalidConfigError("idc must be a StateDistribution")
        _wilson_z(self.confidence)  # refuses a confidence the CI cannot use
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
        if self.scheme != "dmc" and self.dmc is not None:
            raise InvalidConfigError(
                f"scheme {self.scheme!r} takes no dmc back end; its channel "
                "is Gaussian noise of variance eta2")
        if self.scheme == "compound" and None in (self.mu1, self.mu2,
                                                  self.sigma2_bound):
            raise InvalidConfigError(
                "scheme 'compound' needs mu1, mu2 and sigma2_bound")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise InvalidConfigError("an experiment config must be an object")
        kwargs = dict(d)
        # every report runs in one thread; a config may still say so
        workers = kwargs.pop("workers", 1)
        if not (is_integer(workers) and workers == 1):
            raise InvalidConfigError(
                "workers must be 1: every report runs in one thread")
        fields = cls.__dataclass_fields__
        extra = set(kwargs) - set(fields)
        if extra:
            raise InvalidConfigError(
                f"unknown config keys: {', '.join(sorted(extra))}")
        missing = [name for name, f in fields.items()
                   if f.default is MISSING and name not in d]
        if missing:
            raise InvalidConfigError(
                f"missing config keys: {', '.join(missing)}")
        if not isinstance(kwargs["idc"], dict):
            raise InvalidConfigError("config needs an idc state distribution")
        kwargs["idc"] = state_dist_from_dict(kwargs["idc"])
        if kwargs.get("dmc") is not None:
            kwargs["dmc"] = Dmc.from_dict(kwargs["dmc"])
        return cls(**kwargs)

    def to_dict(self) -> dict:
        """Every field that is set, idc and dmc in their JSON forms."""
        d = {name: getattr(self, name) for name in self.__dataclass_fields__
             if getattr(self, name) is not None}
        d["idc"] = state_dist_to_dict(self.idc)
        if self.dmc is not None:
            d["dmc"] = self.dmc.to_dict()
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


def _wilson_z(confidence: float) -> float:
    """The normal quantile at 0.5 + confidence/2, for a confidence in (0, 1)
    whose quantile level does not round to 1."""
    if not (0.0 < confidence < 1.0 and 0.5 + confidence / 2.0 < 1.0):
        raise InvalidConfigError(
            f"confidence must lie in (0, 1) with 0.5 + confidence/2 below 1 "
            f"in floats, got {confidence!r}")
    return NormalDist().inv_cdf(0.5 + confidence / 2.0)


def wilson_interval(errors: int, trials: int,
                    confidence: float = 0.95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("need at least one trial")
    if not (0 <= errors <= trials):
        raise ValueError("error count outside 0..trials")
    z = _wilson_z(confidence)
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


def _trial_blocks(config: ExperimentConfig, size: int,
                  gen: np.random.Generator):
    """(messages, trial states) of each block of at most size trials, in
    trial order.  The messages are drawn _MESSAGE_CHUNK at a time (rounded
    to whole blocks) from one stream, seated in gen for each chunk where
    the last left off, so every trial gets the message that one draw of
    them all would give, whatever gen drew in between; exhaustive and
    fixed selections draw nothing, so their stream is never seated.  Each
    chunk's seed words (32 bytes a trial) are hashed at once and turned
    into trial states block by block, which hold ~400 bytes a trial only
    while their block runs."""
    root = rng.Spawner(config.base_seed)
    uniform = config.message_selection == "uniform"
    message_state = root.child(1).state() if uniform else None
    trial_root = root.child(2)
    chunk = size * max(1, _MESSAGE_CHUNK // size)
    for first in range(0, config.trials, chunk):
        n = min(chunk, config.trials - first)
        if uniform:
            gen.bit_generator.state = message_state
        messages = _draw_messages(config, gen, first, n)
        if uniform and first + n < config.trials:
            message_state = gen.bit_generator.state
        words = trial_root.child_words(first, n)
        for i in range(0, n, size):
            yield messages[i:i + size], rng.pcg64_states(words[i:i + size])


def _block_tallies(messages: np.ndarray, block, bounds) -> dict[str, int]:
    """The error count and the report tallies of one block of trials, in
    report order; message m owns the windows bounds[m-1]:bounds[m] of the
    region table."""
    flags, fired = block.flags, block.region_fired
    calm = ~(flags["prefix_drift_out"] | flags["burst_spread_out"])
    quiet = flags["wrong_windows_all_zero"]
    own = fired[np.arange(messages.size), messages - 1]
    # on the trials whose image touches no wrong window: the other
    # regions' firing windows, and how many windows they hold
    alarms = (fired.sum(axis=1) - own)[quiet]
    quiet_ms = messages[quiet]
    count = np.count_nonzero
    tallies = {
        "errors": count(block.decoded != messages),
        "erasures": count(block.decoded == 0),
        **{key: count(flag) for key, flag in flags.items()},
        "drift_free": count(calm),
        "drift_free_clean": count(
            calm & quiet & flags["full_burst_window_exists"]),
        "drift_free_own_missed": count(calm & (own == 0)),
        "quiet_false_alarms": alarms.sum(),
        "quiet_false_alarms_sq": alarms @ alarms,
        "quiet_wrong_windows": (bounds[-1] - bounds[quiet_ms]
                                + bounds[quiet_ms - 1]).sum(),
        "approximate_state_sums": block.approximate_sums}
    return {key: int(value) for key, value in tallies.items()}


def _draw_messages(config: ExperimentConfig, gen, first: int,
                   n: int) -> np.ndarray:
    """Messages of trials first .. first + n - 1, uniform ones the next n
    draws of gen (which the other selections leave alone): bounded
    integers chunked in any way equal one draw."""
    if config.message_selection == "uniform":
        return gen.integers(1, config.M + 1, size=n)
    if config.message_selection == "exhaustive":
        return np.arange(first, first + n, dtype=np.int64) % config.M + 1
    return np.full(n, int(config.message_selection), dtype=np.int64)


def run_trials(config: ExperimentConfig) -> Report:
    """Run the full experiment described by config.  Deterministic in config."""
    t0 = time.perf_counter()
    params = derive_scheme_params(config)
    cost = codeword_cost(config, params)
    plan = _sparse.plan_for(params, config.dmc)
    tallies = collections.Counter()  # keys in _block_tallies' order
    # this report's own generator: every stream is seated in it before it
    # draws, so its seed is never read
    gen = np.random.Generator(np.random.PCG64(0))
    for messages, states in _trial_blocks(config, plan.block_size, gen):
        tallies.update(_block_tallies(messages, _sparse.stream_trials(
            plan, messages, config.idc, states, gen), plan.table.bounds))

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


# the Report fields of a sweep row, after its valid and error columns
_SWEEP_REPORT_FIELDS = (
    "trials", "errors", "error_rate", "error_ci_low", "error_ci_high",
    "codeword_cost", "rate_per_unit_cost", "wall_time_s")


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
    columns = ["point", *names, "valid", "error", *_SWEEP_REPORT_FIELDS]
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
            row.update(valid=False, error=str(exc),
                       **dict.fromkeys(_SWEEP_REPORT_FIELDS, ""))
        else:
            row.update(valid=True, error="", **{
                c: getattr(report, c) for c in _SWEEP_REPORT_FIELDS})
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
    if n > MAX_COST_TRIALS:
        raise InvalidConfigError(
            f"{n} trials exceed {MAX_COST_TRIALS}, the most the cost check "
            "draws at once")
    gen = rng.as_generator(config.base_seed if seed is None else seed)
    letter_cost = float(config.dmc.cost[params.x_star])
    input_cost = params.B * letter_cost

    counts = gen.multinomial(params.B, config.idc.probabilities, size=n)
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
