"""Seed plumbing: as_generator builds default_rng's stream."""

import numpy as np

from artifact.rng import as_generator


def test_as_generator_draws_default_rngs_stream():
    child = np.random.SeedSequence(2024).spawn(3)[2]
    for seed in (12345, np.random.SeedSequence(7), child):
        ours, ref = as_generator(seed), np.random.default_rng(seed)
        for draw in (lambda g: g.random(4), lambda g: g.standard_normal(4),
                     lambda g: g.integers(1 << 40, size=4)):
            assert draw(ours).tolist() == draw(ref).tolist(), seed
    rng = np.random.default_rng(0)
    assert as_generator(rng) is rng
