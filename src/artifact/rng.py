"""Seed plumbing.

Every stochastic operation takes an explicit stream identifier, and nothing
in the package touches numpy's global RNG state.  as_generator builds
default_rng's stream from an int seed, a numpy SeedSequence or an
already-built Generator.

Monte Carlo trials draw from numpy's own seeded streams without building
them.  PCG64 seeds itself from generate_state(4, np.uint64) of its
SeedSequence.  Spawner(entropy) computes those seed words for the
descendants of SeedSequence(entropy) in closed form, over a range of
children at a time, and pcg64_states turns them into the states PCG64
seeds from them, as state dicts:
pcg64_states(Spawner(e).child(k).child_words(i, 1)) is
[PCG64(SeedSequence(e, spawn_key=(k, i))).state], bit for bit.  They
are full states, has_uint32 and uinteger included, so a generator seated
at one (gen.bit_generator.state = state) draws what a generator built at
that state would, whatever it drew before.
"""

from __future__ import annotations

import numpy as np

_M32 = (1 << 32) - 1
_M128 = (1 << 128) - 1
# SeedSequence's hash constants (numpy.random.bit_generator) and pool size
_INIT_A = 0x43b0d7e5
_MULT_A = 0x931e8875
_INIT_B = 0x8b51f9dd
_MULT_B = 0x58f38ded
_MIX_MULT_L = 0xca01f9dd
_MIX_MULT_R = 0x4973f715
_XSHIFT = 16
_POOL_SIZE = 4
# PCG64's 128-bit LCG multiplier (pcg64.h, PCG_DEFAULT_MULTIPLIER_128)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def as_generator(seed=None) -> np.random.Generator:
    """Coerce a seed-like value into a Generator.

    ``None`` draws fresh OS entropy; pass an int for reproducibility.  The
    stream is the one np.random.default_rng(seed) gives; building the
    generator directly skips default_rng's wrapper.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.Generator(np.random.PCG64(seed))


def _uint32_words(n: int) -> list[int]:
    """n's 32-bit words, least significant first, as SeedSequence splits
    an entropy int: [0] for 0."""
    words = [n & _M32]
    while n := n >> 32:
        words.append(n & _M32)
    return words


def _hash_consts(hc: int, mult: int, k: int) -> list[int]:
    """hc and the k hash constants after it, each mult times the one
    before, modulo 2**32."""
    consts = [hc]
    for _ in range(k):
        consts.append(consts[-1] * mult & _M32)
    return consts


def _hash(value: int, hc: int, nxt: int) -> int:
    """SeedSequence's hash of value under the hash constant hc, whose
    successor is nxt."""
    value = (value ^ hc) * nxt & _M32
    return value ^ value >> _XSHIFT


def _mix_in(pool: list[int], words, hc: int, skip: int = -1) -> int:
    """Mix words, in order, into the pool words other than pool[skip], as
    SeedSequence does from the hash constant hc: each word's hash into
    each pool word.  Returns the hash constant after them."""
    for w in words:
        for dst in range(_POOL_SIZE):
            if dst != skip:
                nxt = hc * _MULT_A & _M32
                value = (w ^ hc) * nxt & _M32
                r = (_MIX_MULT_L * pool[dst]
                     - _MIX_MULT_R * (value ^ value >> _XSHIFT)) & _M32
                pool[dst], hc = r ^ r >> _XSHIFT, nxt
    return hc


# the hash constants of SeedSequence's first fill of its pool
_FILL_HC = _hash_consts(_INIT_A, _MULT_A, _POOL_SIZE)
# the hash constants of generate_state's eight uint32 outputs, four uint64
# seed words, low word first; output i hashes pool word i % 4
_OUT_HC = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
_OUT_BEFORE = np.array(_OUT_HC[:-1], dtype=np.uint32)
_OUT_AFTER = np.array(_OUT_HC[1:], dtype=np.uint32)
_U_XSHIFT = np.uint32(_XSHIFT)
_U_MIX_MULT_L = np.uint32(_MIX_MULT_L)
_U_MIX_MULT_R = np.uint32(_MIX_MULT_R)


class Spawner:
    """The descendants of SeedSequence(entropy), in closed form: child(i)
    stands for SeedSequence(entropy, spawn_key=(i,)), child(i).child(j)
    for spawn_key (i, j), and so on.

    SeedSequence hashes its entropy words into a pool of four uint32 words,
    one word at a time, under a running hash constant: the entropy's words,
    padded with zeros to four when there is a spawn key, then the key's.
    A child's words are its parent's and then its index's, so the parent's
    are mixed once, in Python ints, and child_words mixes in the indices,
    one or two uint32 words each, with a few numpy operations over an
    array of children.  A Spawner(entropy) is not SeedSequence(entropy)
    itself, which pads no zeros; only its descendants are.
    """

    def __init__(self, entropy: int):
        words = _uint32_words(entropy)
        words += [0] * (_POOL_SIZE - len(words))
        pool = [_hash(w, hc, nxt) for w, hc, nxt
                in zip(words[:_POOL_SIZE], _FILL_HC, _FILL_HC[1:])]
        hc = _FILL_HC[_POOL_SIZE]
        for src in range(_POOL_SIZE):
            hc = _mix_in(pool, (pool[src],), hc, skip=src)
        self.pool = pool
        self.hash_const = _mix_in(pool, words[_POOL_SIZE:], hc)

    def child(self, i: int) -> "Spawner":
        """The Spawner of child i, whose key ends in i."""
        child = object.__new__(Spawner)
        child.pool = list(self.pool)
        child.hash_const = _mix_in(child.pool, _uint32_words(i),
                                   self.hash_const)
        return child

    def seed_words(self) -> list[int]:
        """generate_state(4, np.uint64) of this sequence, in Python ints."""
        out = [_hash(self.pool[i % _POOL_SIZE], hc, nxt)
               for i, (hc, nxt) in enumerate(zip(_OUT_HC, _OUT_HC[1:]))]
        return [lo | hi << 32 for lo, hi in zip(out[::2], out[1::2])]

    def state(self) -> dict:
        """The PCG64 state numpy seeds from this sequence."""
        return _pcg64_state(*self.seed_words())

    def child_words(self, first: int, n: int) -> np.ndarray:
        """n x 4 uint64: row j holds generate_state(4, np.uint64) of child
        first + j, for children below 2**64."""
        if n == 1:  # Python ints beat a dozen numpy calls on one row
            return np.array([self.child(first).seed_words()],
                            dtype=np.uint64)
        last = first + n - 1
        index = np.arange(first, first + n,
                          dtype=np.uint32 if last <= _M32 else np.uint64)
        # n x 8, pool word i % 4 in column i, the layout generate_state's
        # eight outputs read
        pool = np.array(2 * self.pool, dtype=np.uint32)
        hc, shift = self.hash_const, 0
        while shift == 0 or last >> shift:
            consts = _hash_consts(hc, _MULT_A, _POOL_SIZE)
            hc = consts[-1]
            high = index >> np.uint64(shift) if shift else index
            h = high.astype(np.uint32, copy=False)[:, None] \
                ^ np.array(2 * consts[:-1], dtype=np.uint32)
            h *= np.array(2 * consts[1:], dtype=np.uint32)
            h ^= h >> _U_XSHIFT
            mixed = pool * _U_MIX_MULT_L - h * _U_MIX_MULT_R
            mixed ^= mixed >> _U_XSHIFT
            # only the indices of at least 2**shift have a word here
            pool = mixed if shift == 0 else np.where(
                high[:, None] > 0, mixed, pool)
            shift += 32
        pool ^= _OUT_BEFORE
        pool *= _OUT_AFTER
        pool ^= pool >> _U_XSHIFT
        return pool.view("<u8")


def _pcg64_state(s_hi: int, s_lo: int, i_hi: int, i_lo: int) -> dict:
    """The state PCG64 seeds from 64-bit words: its srandom on initstate
    (s_hi, s_lo) and initseq (i_hi, i_lo), with no half-word buffered."""
    inc = ((i_hi << 64 | i_lo) << 1 | 1) & _M128
    state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _M128
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


def pcg64_states(words: np.ndarray) -> list[dict]:
    """The PCG64 state numpy seeds from each row of child_words."""
    return [_pcg64_state(*row) for row in words.tolist()]
