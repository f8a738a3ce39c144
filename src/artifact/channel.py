"""Descriptions of timing channels with random symbol repetition and of
their memoryless back ends, with their JSON forms.

The front end is driven by an iid nonnegative integer state process: when the
t-th input symbol meets state s[t], it is emitted s[t] times in a row (zero
times means the symbol is dropped).  The output length is the sum of the
states, so the receiver loses synchronization with the transmitter.  A
discrete memoryless channel or additive Gaussian noise can then corrupt the
desynchronized stream symbol by symbol.  The package never builds such a
stream: the streamed trials (_sparse) sample only what the decoder's
windows read.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import InvalidConfigError

_PROB_TOL = 1e-12
_INT64_MAX = (1 << 63) - 1


@dataclass(frozen=True)
class StateDistribution:
    """Finite-support distribution of the repetition state.

    support holds (state, probability) pairs with integer states from 0
    to 2**63 - 1 (the states array is int64).
    The mean and variance, the states and probabilities as read-only
    arrays, and the states as a tuple, are computed once as fields.
    """

    support: tuple[tuple[int, float], ...]
    mu: float = field(init=False)
    sigma2: float = field(init=False)
    values: np.ndarray = field(init=False, repr=False, compare=False)
    probabilities: np.ndarray = field(init=False, repr=False, compare=False)
    states: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pairs = []
        seen = set()
        for entry in self.support:
            k, p = entry
            if not (isinstance(k, (int, np.integer)) and not isinstance(k, bool)):
                raise ValueError(f"state {k!r} is not an integer")
            k = int(k)
            p = float(p)
            if k < 0:
                raise ValueError(f"state {k} is negative")
            if k > _INT64_MAX:
                raise ValueError(f"state {k} does not fit a 64-bit integer")
            if not (0.0 <= p <= 1.0):
                raise ValueError(f"probability {p} outside [0, 1]")
            if k in seen:
                raise ValueError(f"duplicate state {k} in support")
            seen.add(k)
            pairs.append((k, p))
        if not pairs:
            raise ValueError("empty support")
        total = math.fsum(p for _, p in pairs)
        if abs(total - 1.0) > _PROB_TOL:
            raise ValueError(f"support probabilities sum to {total!r}, not 1")
        pairs.sort()
        object.__setattr__(self, "support", tuple(pairs))
        mean = math.fsum(k * p for k, p in pairs)
        second = math.fsum(k * k * p for k, p in pairs)
        object.__setattr__(self, "mu", mean)
        object.__setattr__(self, "sigma2", max(0.0, second - mean * mean))
        object.__setattr__(self, "states", tuple(k for k, _ in pairs))
        values = np.array([k for k, _ in pairs], dtype=np.int64)
        probabilities = np.array([p for _, p in pairs], dtype=np.float64)
        for name, arr in (("values", values), ("probabilities", probabilities)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def max_state(self) -> int:
        return self.support[-1][0]

    @classmethod
    def deletion(cls, d: float) -> "StateDistribution":
        """Each symbol independently dropped with probability d, else kept once."""
        if not (0.0 <= d <= 1.0):
            raise ValueError(f"deletion probability {d} outside [0, 1]")
        if d == 0.0:
            return cls(((1, 1.0),))
        if d == 1.0:
            return cls(((0, 1.0),))
        return cls(((0, d), (1, 1.0 - d)))

    @classmethod
    def constant(cls, k: int) -> "StateDistribution":
        """Deterministic repetition: every symbol emitted exactly k times."""
        return cls(((int(k), 1.0),))


@dataclass(frozen=True, eq=False)
class Dmc:
    """Discrete memoryless channel with a designated zero input (index 0).

    w[x, y] is the probability of output y given input x; rows sum to one.
    cost[x] is the letter cost, with cost[0] == 0.
    """

    w: np.ndarray
    cost: np.ndarray

    def __post_init__(self):
        w = np.array(self.w, dtype=np.float64)
        if w.ndim != 2 or w.shape[0] < 1 or w.shape[1] < 1:
            raise ValueError("transition matrix must be 2-D and nonempty")
        if not np.all((w >= 0) & (w <= 1)):  # NaN included
            raise ValueError("transition probabilities must lie in [0, 1]")
        rows = w.sum(axis=1)
        if np.any(np.abs(rows - 1.0) > 1e-9):
            raise ValueError("transition matrix rows must sum to 1")
        cost = np.array(self.cost, dtype=np.float64)
        if cost.shape != (w.shape[0],):
            raise ValueError("cost vector length must match the input alphabet")
        if cost[0] != 0.0:
            raise ValueError("the zero symbol must have zero cost")
        if np.any(cost < 0) or not np.all(np.isfinite(cost)):
            raise ValueError("letter costs must be finite and nonnegative")
        w.setflags(write=False)
        cost.setflags(write=False)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "cost", cost)

    @property
    def num_inputs(self) -> int:
        return self.w.shape[0]

    @property
    def num_outputs(self) -> int:
        return self.w.shape[1]

    @classmethod
    def bsc(cls, crossover: float, cost=(0.0, 1.0)) -> "Dmc":
        p = float(crossover)
        if not (0.0 <= p <= 1.0):
            raise ValueError(f"crossover {p} outside [0, 1]")
        return cls(np.array([[1 - p, p], [p, 1 - p]]), np.asarray(cost, dtype=float))

    @classmethod
    def identity(cls, n: int, cost=None) -> "Dmc":
        """Noiseless channel on n symbols (default cost: 0 for symbol 0, 1 otherwise)."""
        if cost is None:
            cost = [0.0] + [1.0] * (n - 1)
        return cls(np.eye(n), np.asarray(cost, dtype=float))

    def to_dict(self) -> dict:
        return {"w": self.w.tolist(), "cost": self.cost.tolist()}

    @classmethod
    def from_dict(cls, d: Mapping) -> "Dmc":
        if not (isinstance(d, Mapping) and "w" in d and "cost" in d):
            raise InvalidConfigError(
                f"a dmc spec must be an object with w and cost, got {d!r}")
        _check_keys(d, ("w", "cost"), "dmc")
        try:
            w, cost = (np.array(d[key], dtype=float) for key in ("w", "cost"))
        except (TypeError, ValueError) as exc:
            raise InvalidConfigError(
                f"dmc w and cost must be arrays of numbers: {exc}") from exc
        return cls(w, cost)


@dataclass(frozen=True)
class GaussianNoise:
    """Additive white Gaussian noise of variance eta2 per output sample."""

    eta2: float

    def __post_init__(self):
        if not (math.isfinite(self.eta2) and self.eta2 > 0):
            raise ValueError(f"noise variance must be positive, got {self.eta2}")

    @property
    def eta(self) -> float:
        return math.sqrt(self.eta2)


def is_integer(value) -> bool:
    """An integer of any kind, bools excluded (JSON true is not 1)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    """A real number of any kind, bools excluded."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_keys(spec: Mapping, allowed, what: str) -> None:
    """Reject keys of spec outside allowed, so a misspelt one never passes."""
    extra = sorted(map(str, set(spec) - set(allowed)))
    if extra:
        raise InvalidConfigError(f"unknown {what} keys: {', '.join(extra)}")


def _form(d: Mapping, forms: tuple[str, ...], what: str) -> str | None:
    """The one key of forms that d holds, None for none of them."""
    present = [form for form in forms if form in d]
    if len(present) > 1:
        raise InvalidConfigError(
            f"{what} spec holds {' and '.join(present)}; give exactly one")
    return present[0] if present else None


def _shortcut(d: Mapping, form: str, key: str, ok, kind: str):
    """d[form][key], checked to be an object holding a value of kind and
    nothing else."""
    spec = d[form]
    if not (isinstance(spec, Mapping) and key in spec and ok(spec[key])):
        raise InvalidConfigError(
            f'{form} must be an object like {{"{key}": <{kind}>}}, got {spec!r}')
    _check_keys(spec, (key,), form)
    return spec[key]


def state_dist_from_dict(d: Mapping) -> StateDistribution:
    """Build a state distribution from its JSON form.

    Accepted forms: {"support": [[k, p], ...]}, {"deletion": {"d": 0.1}},
    {"constant": {"value": 2}}.
    """
    if not isinstance(d, Mapping):
        raise InvalidConfigError(
            f"a state distribution spec must be an object, got {d!r}")
    form = _form(d, ("support", "deletion", "constant"), "state distribution")
    if form is None:
        raise InvalidConfigError(
            "state distribution spec needs one of: support, deletion, constant")
    _check_keys(d, (form,), "state distribution")
    if form == "support":
        pairs = d["support"]
        if not (isinstance(pairs, (list, tuple)) and all(
                isinstance(e, (list, tuple)) and len(e) == 2
                and is_integer(e[0]) and is_real(e[1]) for e in pairs)):
            raise InvalidConfigError(
                "support must be a list of [state, probability] pairs with "
                f"integer states, got {pairs!r}")
        return StateDistribution(tuple((int(k), float(p)) for k, p in pairs))
    if form == "deletion":
        return StateDistribution.deletion(
            float(_shortcut(d, "deletion", "d", is_real, "probability")))
    return StateDistribution.constant(
        int(_shortcut(d, "constant", "value", is_integer, "integer")))


def state_dist_to_dict(dist: StateDistribution) -> dict:
    return {"support": [[k, p] for k, p in dist.support]}


def back_end_from_dict(d: Mapping) -> Dmc | GaussianNoise:
    """Build the memoryless back end from {"dmc": {...}} or {"gaussian": {...}}.

    A channel file may also hold the timing process under "idc", which
    this function leaves to its caller.
    """
    if not isinstance(d, Mapping):
        raise InvalidConfigError(f"a channel spec must be an object, got {d!r}")
    form = _form(d, ("dmc", "gaussian"), "channel")
    if form is None:
        raise InvalidConfigError("channel spec needs one of: dmc, gaussian")
    _check_keys(d, (form, "idc"), "channel")
    if form == "dmc":
        return Dmc.from_dict(d["dmc"])
    return GaussianNoise(
        float(_shortcut(d, "gaussian", "eta2", is_real, "variance")))
