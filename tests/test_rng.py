"""Seed plumbing: as_generator builds default_rng's stream, the closed-form
trial and message states are the ones numpy seeds, and a generator seated
at one draws what a freshly built one would."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from artifact import rng
from artifact.rng import as_generator
from oracle import states_of


def test_as_generator_draws_default_rngs_stream():
    child = np.random.SeedSequence(2024).spawn(3)[2]
    for seed in (12345, np.random.SeedSequence(7), child):
        ours, ref = as_generator(seed), np.random.default_rng(seed)
        for draw in (lambda g: g.random(4), lambda g: g.standard_normal(4),
                     lambda g: g.integers(1 << 40, size=4)):
            assert draw(ours).tolist() == draw(ref).tolist(), seed
    rng_ = np.random.default_rng(0)
    assert as_generator(rng_) is rng_


def numpy_state(base_seed: int, key: tuple[int, ...]) -> dict:
    return np.random.PCG64(
        np.random.SeedSequence(base_seed, spawn_key=key)).state


# indices that SeedSequence splits into one 32-bit word, two, or that sit
# at either side of the split
INDICES = (0, 1, 2**32 - 1, 2**32, 10**13, 2**64 - 1)


@settings(max_examples=200, deadline=None)
@given(base_seed=st.integers(0, 2**256 - 1),
       t=st.one_of(st.sampled_from(INDICES), st.integers(0, 2**64 - 1)),
       n=st.integers(1, 3))
@example(base_seed=0, t=2**32 - 2, n=3)   # one call across the split
@example(base_seed=2**200 + 1, t=10**13, n=1)
def test_trial_and_message_states_are_numpys(base_seed, t, n):
    """Trial t's state is that of the seed with spawn key (2, t), and the
    message stream's that of key (1,), bit for bit."""
    root = rng.Spawner(base_seed)
    assert root.child(1).state() == numpy_state(base_seed, (1,))
    t = min(t, 2**64 - n)
    states = rng.pcg64_states(root.child(2).child_words(t, n))
    assert states == [numpy_state(base_seed, (2, i)) for i in range(t, t + n)]
    assert root.child(2).child(t).state() == states[0]


def test_seating_drops_the_buffered_half_word():
    """A uint32 draw buffers the other half of a 64-bit word; seating the
    next trial's state drops it, so that trial draws what a generator
    built from its seed would."""
    first, second = np.random.SeedSequence(2024).spawn(3)[2].spawn(2)
    ours = np.random.default_rng(0)
    ours.bit_generator.state = states_of([first])[0]
    ours.integers(0, 2**32, dtype=np.uint32)
    assert ours.bit_generator.state["has_uint32"] == 1
    ours.bit_generator.state = rng.pcg64_states(
        rng.Spawner(2024).child(2).child_words(1, 1))[0]
    ref = np.random.Generator(np.random.PCG64(second))
    for draw in (lambda g: g.integers(0, 2**32, size=3, dtype=np.uint32),
                 lambda g: g.random(4), lambda g: g.standard_normal(4),
                 lambda g: g.integers(1 << 40, size=4)):
        assert draw(ours).tolist() == draw(ref).tolist()
