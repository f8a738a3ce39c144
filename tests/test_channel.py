"""Channel model tests: state process, repetition front end, back ends.

The worked repetition example pins the exact input/output relationship; the
randomized blocks check the structural invariants (output length, sampling
map monotonicity, composition) that the codecs rely on.
"""

import unittest

import numpy as np

from artifact import channel
from artifact.errors import InvalidConfigError


class StateDistributionTests(unittest.TestCase):
    def test_moments_of_three_point_support(self):
        d = channel.StateDistribution(((0, 0.25), (1, 0.5), (2, 0.25)))
        self.assertAlmostEqual(d.mu, 1.0, places=12)
        self.assertAlmostEqual(d.sigma2, 0.5, places=12)

    def test_deletion_constructor(self):
        d = channel.StateDistribution.deletion(0.1)
        self.assertEqual(d.values.tolist(), [0, 1])
        self.assertAlmostEqual(d.mu, 0.9, places=15)
        self.assertAlmostEqual(d.sigma2, 0.09, places=12)
        # degenerate corners collapse to one-point supports
        self.assertEqual(channel.StateDistribution.deletion(0.0).support, ((1, 1.0),))
        self.assertEqual(channel.StateDistribution.deletion(1.0).support, ((0, 1.0),))

    def test_arrays_are_built_once_and_read_only(self):
        d = channel.StateDistribution(((2, 0.25), (0, 0.75)))
        self.assertIs(d.values, d.values)
        self.assertIs(d.probabilities, d.probabilities)
        self.assertEqual(d.values.tolist(), [0, 2])   # in support order
        self.assertEqual(d.probabilities.tolist(), [0.75, 0.25])
        for arr in (d.values, d.probabilities):
            with self.assertRaises(ValueError):
                arr[0] = 1
        # the arrays take no part in equality, hashing or repr
        same = channel.StateDistribution(((0, 0.75), (2, 0.25)))
        self.assertEqual(d, same)
        self.assertEqual(hash(d), hash(same))
        self.assertNotIn("values", repr(d))

    def test_constant_constructor(self):
        d = channel.StateDistribution.constant(2)
        self.assertEqual(d.mu, 2.0)
        self.assertEqual(d.sigma2, 0.0)

    def test_validation(self):
        with self.assertRaises(ValueError):
            channel.StateDistribution(((0, 0.5), (1, 0.4)))  # mass 0.9
        with self.assertRaises(ValueError):
            channel.StateDistribution(((-1, 0.5), (1, 0.5)))
        with self.assertRaises(ValueError):
            channel.StateDistribution(((1, 0.5), (1, 0.5)))  # duplicate state

    def test_sampled_moments_match(self):
        d = channel.StateDistribution.deletion(0.5)
        seq = channel.sample_states(d, 10**5, seed=99)
        s = seq.states
        self.assertAlmostEqual(s.mean(), 0.5, delta=4 * 0.5 / np.sqrt(10**5))
        self.assertAlmostEqual(s.var(), 0.25, delta=0.01)


class IdcApplyTests(unittest.TestCase):
    def test_worked_repetition_example(self):
        x = np.array([0, 0, 1, 0, 1, 0])
        s = channel.StateSequence(np.array([1, 1, 2, 1, 0, 2]))
        out = channel.idc_apply(x, s)
        self.assertEqual(out.tolist(), [0, 0, 1, 1, 0, 0, 0])

    def test_all_ones_is_identity(self):
        rng = np.random.default_rng(1)
        x = rng.integers(0, 4, size=50)
        s = channel.StateSequence(np.ones(50, dtype=np.int64))
        self.assertTrue(np.array_equal(channel.idc_apply(x, s), x))

    def test_triple_then_delete(self):
        out = channel.idc_apply(np.array([7, 8]),
                                channel.StateSequence(np.array([3, 0])))
        self.assertEqual(out.tolist(), [7, 7, 7])

    def test_length_mismatch_rejected(self):
        with self.assertRaises(ValueError):
            channel.idc_apply(np.array([1, 2]),
                              channel.StateSequence(np.array([1])))

    def test_randomized_length_and_sampling_map(self):
        """Output length is the state total and output[l] = input[t[l]]."""
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            n = int(rng.integers(1, 40))
            x = rng.integers(0, 5, size=n)
            states = rng.integers(0, 4, size=n)
            out = channel.idc_apply(x, channel.StateSequence(states))
            self.assertEqual(out.size, int(states.sum()))
            cum = np.cumsum(states)
            prev = 0
            for pos in range(1, out.size + 1):
                t = int(np.searchsorted(cum, pos))  # min{t: cum[t] >= pos}, 0-based
                self.assertGreaterEqual(t, prev)  # sampling map never goes back
                prev = t
                self.assertEqual(out[pos - 1], x[t])


class BackEndTests(unittest.TestCase):
    def test_bsc_rows(self):
        b = channel.Dmc.bsc(0.2)
        self.assertAlmostEqual(b.w[0, 1], 0.2)
        self.assertAlmostEqual(b.w[1, 1], 0.8)
        self.assertEqual(b.cost[0], 0.0)

    def test_dmc_validation(self):
        with self.assertRaises(ValueError):
            channel.Dmc(np.array([[0.5, 0.4], [0.5, 0.5]]), np.array([0.0, 1.0]))
        with self.assertRaises(ValueError):
            channel.Dmc(np.eye(2), np.array([1.0, 1.0]))  # cost(0) != 0

    def test_identity_channel_is_noiseless(self):
        b = channel.Dmc.identity(3)
        x = np.array([0, 2, 1, 0])
        self.assertTrue(np.array_equal(channel.dmc_apply(x, b, seed=5), x))

    def test_bsc_zero_crossover_noiseless(self):
        b = channel.Dmc.bsc(0.0)
        x = np.array([0, 1, 0])
        self.assertTrue(np.array_equal(channel.dmc_apply(x, b, seed=5), x))

    def test_bsc_flip_frequency(self):
        b = channel.Dmc.bsc(0.2)
        out = channel.dmc_apply(np.zeros(10**5, dtype=np.int64), b, seed=8)
        self.assertAlmostEqual(out.mean(), 0.2, delta=0.01)

    def test_gaussian_moments(self):
        noise = channel.GaussianNoise(4.0)
        out = channel.gaussian_apply(np.full(10**5, 2.0), noise, seed=3)
        self.assertAlmostEqual(out.mean(), 2.0, delta=0.04)
        self.assertAlmostEqual(out.var(), 4.0, delta=0.12)

    def test_gaussian_requires_positive_variance(self):
        with self.assertRaises(ValueError):
            channel.GaussianNoise(0.0)


class ComposedChannelTests(unittest.TestCase):
    def test_double_identity(self):
        idc = channel.StateDistribution.constant(1)
        x = np.arange(5) % 2
        y = channel.ids_channel(x, idc, channel.Dmc.identity(2), seed=4)
        self.assertEqual(y.symbols.tolist(), x.tolist())

    def test_full_deletion_empty_output(self):
        idc = channel.StateDistribution.deletion(1.0)
        y = channel.ids_channel(np.ones(6, dtype=np.int64), idc,
                                channel.Dmc.identity(2), seed=4)
        self.assertEqual(y.length, 0)

    def test_forced_states_reproduce_worked_example(self):
        x = np.array([0, 0, 1, 0, 1, 0])
        states = channel.StateSequence(np.array([1, 1, 2, 1, 0, 2]))
        y = channel.ids_channel(x, states, channel.Dmc.identity(2), seed=0)
        self.assertEqual(y.symbols.tolist(), [0, 0, 1, 1, 0, 0, 0])

    def test_composition_bit_for_bit(self):
        """ids_channel with injected states equals back_end(idc_apply(...))."""
        rng = np.random.default_rng(77)
        x = rng.integers(0, 2, size=200)
        states = channel.StateSequence(rng.integers(0, 3, size=200))
        b = channel.Dmc.bsc(0.3)
        via_op = channel.ids_channel(x, states, b, seed=123)
        direct = channel.dmc_apply(channel.idc_apply(x, states), b, seed=123)
        self.assertTrue(np.array_equal(via_op.symbols, direct))

    def test_determinism(self):
        idc = channel.StateDistribution.deletion(0.3)
        b = channel.Dmc.bsc(0.1)
        x = np.ones(100, dtype=np.int64)
        a = channel.ids_channel(x, idc, b, seed=55)
        bb = channel.ids_channel(x, idc, b, seed=55)
        self.assertTrue(np.array_equal(a.symbols, bb.symbols))

    def test_trace_retention(self):
        idc = channel.StateDistribution.deletion(0.3)
        x = np.ones(50, dtype=np.int64)
        y = channel.ids_channel(x, idc, channel.Dmc.identity(2), seed=9,
                                keep_trace=True)
        self.assertIsNotNone(y.idc_trace)
        self.assertEqual(y.idc_trace.output_length, y.length)
        y2 = channel.ids_channel(x, idc, channel.Dmc.identity(2), seed=9)
        self.assertIsNone(y2.idc_trace)


class CostTests(unittest.TestCase):
    def test_all_zero_is_free(self):
        self.assertEqual(channel.cost_of(np.zeros(10, dtype=int), {0: 0.0}), 0.0)

    def test_quadratic_cost_hand_sum(self):
        c = {0: 0.0, 2: 4.0, 3: 9.0}
        self.assertEqual(channel.cost_of(np.array([0, 2, 0, 3]), c), 13.0)

    def test_hamming_cost_counts_ones(self):
        x = np.array([1, 0, 1, 1, 0])
        self.assertEqual(channel.cost_of(x, np.array([0.0, 1.0])), 3.0)

    def test_unknown_symbol_rejected(self):
        with self.assertRaises(ValueError):
            channel.cost_of(np.array([0, 5]), np.array([0.0, 1.0]))


class JsonRoundTripTests(unittest.TestCase):
    def test_state_dist_round_trip(self):
        d = channel.StateDistribution(((0, 0.2), (1, 0.5), (3, 0.3)))
        d2 = channel.state_dist_from_dict(channel.state_dist_to_dict(d))
        self.assertEqual(d.support, d2.support)

    def test_state_dist_shortcuts(self):
        d = channel.state_dist_from_dict({"deletion": {"d": 0.25}})
        self.assertAlmostEqual(d.mu, 0.75)
        c = channel.state_dist_from_dict({"constant": {"value": 2}})
        self.assertEqual(c.mu, 2.0)
        with self.assertRaises(InvalidConfigError):
            channel.state_dist_from_dict({"nope": 1})

    def test_back_end_from_dict(self):
        b = channel.back_end_from_dict(
            {"dmc": {"w": [[1.0, 0.0], [0.0, 1.0]], "cost": [0.0, 1.0]}})
        self.assertIsInstance(b, channel.Dmc)
        g = channel.back_end_from_dict({"gaussian": {"eta2": 2.0}})
        self.assertEqual(g.eta2, 2.0)
        with self.assertRaises(InvalidConfigError):
            channel.back_end_from_dict({"gaussian": {}})

    def test_dmc_round_trip(self):
        b = channel.Dmc.bsc(0.2, cost=(0.0, 3.0))
        b2 = channel.Dmc.from_dict(b.to_dict())
        self.assertTrue(np.array_equal(b.w, b2.w))
        self.assertTrue(np.array_equal(b.cost, b2.cost))


if __name__ == "__main__":
    unittest.main()
