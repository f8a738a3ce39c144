"""Seed plumbing.

Every stochastic operation takes an explicit stream identifier: an int seed,
a numpy SeedSequence, or an already-built Generator.  Nothing in the package
touches numpy's global RNG state.
"""

from __future__ import annotations

import numpy as np

SeedLike = "int | np.random.SeedSequence | np.random.Generator | None"


def as_generator(seed=None) -> np.random.Generator:
    """Coerce a seed-like value into a Generator.

    ``None`` draws fresh OS entropy; pass an int for reproducibility.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)

