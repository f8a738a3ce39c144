"""Compound-rate burst codec: the sender only knows mu1 <= mu <= mu2.

Two fixed schedules carry the oracle values.  The wide-band one (mu1=0.5,
mu2=2, delta=0) grows tenfold per message and exceeds any sane buffer after
a handful of messages, which is exactly the case the streaming simulator
exists for; the equal-rate one (mu1=mu2=1, delta=0.3) stays desk sized and
is used for end-to-end decoding.
"""

import unittest
from dataclasses import asdict

import numpy as np

from artifact import codec_compound as cc
from artifact.channel import StateDistribution
from artifact.errors import InvalidConfigError
from oracle import (channel, decode, encode, geometry, sample_states,
                    trace_diagnostics)


def wide_band():
    return cc.derive_params(M=16, mu1=0.5, mu2=2.0, delta=0.0, epsilon=0.25,
                            sigma2=0.25)


def equal_rate():
    return cc.derive_params(M=8, mu1=1.0, mu2=1.0, delta=0.3, epsilon=0.25,
                            sigma2=0.09)


class WideBandScheduleTests(unittest.TestCase):
    def setUp(self):
        self.p = wide_band()

    def test_recursion_oracle(self):
        self.assertEqual(self.p.offsets[:4], (0, 16, 160, 1600))
        self.assertEqual(self.p.widths[:4], (4, 24, 240, 2400))
        self.assertEqual(self.p.window_lens[:4], (2, 12, 120, 1200))
        self.assertEqual(self.p.spacings[:4], (0, 4, 40, 400))

    def test_rate_balance_at_the_first_step(self):
        # mu1 * N_2 == mu2 * B_1: the slow reading of burst 2's offset meets
        # the fast reading of burst 1's end
        self.assertEqual(0.5 * self.p.offsets[1], 2.0 * self.p.widths[0])

    def test_offsets_strictly_increase(self):
        for a, b in zip(self.p.offsets, self.p.offsets[1:]):
            self.assertLess(a, b)

    def test_equal_energy_across_messages(self):
        per = [self.p.widths[m - 1] * self.p.amplitude(m) ** 2
               for m in range(1, 17)]
        for e in per:
            self.assertAlmostEqual(e, self.p.energy, places=9)

    def test_amplitude_scales_with_width(self):
        a1, a2 = self.p.amplitude(1), self.p.amplitude(2)
        self.assertAlmostEqual((a1 / a2) ** 2,
                               self.p.widths[1] / self.p.widths[0], places=9)

    def test_schedule_diagnostics_clean(self):
        d = self.p.diagnostics
        self.assertTrue(d.wrong_windows_clear)
        self.assertTrue(d.wrong_windows_clear_jitter)
        self.assertTrue(d.regions_disjoint)

    def test_materialization_cap(self):
        self.assertGreater(self.p.block_len, 10 ** 15)
        with self.assertRaises(InvalidConfigError):
            encode(self.p.layout, 2, self.p.amplitude(2))

    def test_regions_snap_to_spacing(self):
        self.assertEqual(self.p.layout.regions[0], range(1, 2))
        for m in (2, 3, 4):
            region = self.p.layout.regions[m - 1]
            gap = self.p.spacings[m - 1]
            for v in region:
                self.assertEqual(v % gap, 0)

    def test_window_length_accessor(self):
        for m in (1, 2, 5):
            self.assertEqual(self.p.layout.window_lens[m - 1],
                             self.p.window_lens[m - 1])


class EqualRateScheduleTests(unittest.TestCase):
    def setUp(self):
        self.p = equal_rate()

    def test_fixed_point_schedule(self):
        self.assertEqual(self.p.offsets, (0, 6, 17, 51, 151, 448, 1330, 3951))
        self.assertEqual(self.p.widths, (3, 3, 10, 30, 90, 268, 797, 2370))
        self.assertEqual(self.p.block_len, 3951 + 2370)

    def test_encode_layout(self):
        cw = encode(self.p.layout, 3, self.p.amplitude(3))
        self.assertEqual(cw.size, self.p.block_len)
        lo = self.p.offsets[2]
        width = self.p.widths[2]
        np.testing.assert_allclose(cw[lo:lo + width], self.p.amplitude(3))
        self.assertEqual(np.count_nonzero(cw), width)
        for bad in (0, 9):
            with self.assertRaises(ValueError):
                encode(self.p.layout, bad, self.p.x_star)

    def test_round_trip_all_messages_zero_noise(self):
        states = np.ones(self.p.block_len, dtype=np.int64)
        for m in range(1, 9):
            y = channel(encode(self.p.layout, m, self.p.amplitude(m)), states)
            self.assertEqual(decode(y, self.p, seed=m), m)

    def test_round_trip_with_jitter_zero_noise(self):
        # mean 1 sits inside [mu1 - delta, mu2 + delta]; the decoder only
        # sees the derived schedule, never the realized rate
        idc = StateDistribution(((0, 0.15), (1, 0.7), (2, 0.15)))
        states = sample_states(idc, self.p.block_len, seed=2718)
        for m in (1, 4, 8):
            y = channel(encode(self.p.layout, m, self.p.amplitude(m)), states)
            self.assertEqual(decode(y, self.p, seed=m), m)

    def test_all_zero_stream_erases(self):
        self.assertIsNone(decode(np.zeros(self.p.block_len), self.p, seed=0))

    def test_double_burst_erases(self):
        y = np.zeros(self.p.block_len)
        y[:self.p.widths[0]] = self.p.amplitude(1)
        lo = self.p.offsets[3]
        y[lo:lo + self.p.widths[3]] = self.p.amplitude(4)
        self.assertIsNone(decode(y, self.p, seed=0))

    def test_trace_matches_geometry(self):
        rng = np.random.default_rng(5)
        states = rng.integers(0, 3, size=self.p.block_len)
        m = 4
        lo = self.p.offsets[3]
        a = int(states[:lo].sum())
        g = int(states[lo:lo + self.p.widths[3]].sum())
        self.assertEqual(trace_diagnostics(m, states, self.p.layout),
                         geometry(m, a, g, self.p.layout))

    def test_clean_geometry_flags(self):
        m = 5
        a = self.p.offsets[4]      # realized rate exactly 1
        g = self.p.widths[4]
        d = geometry(m, a, g, self.p.layout)
        self.assertFalse(d.prefix_drift_out)
        self.assertFalse(d.burst_spread_out)
        self.assertTrue(d.wrong_windows_all_zero)
        self.assertTrue(d.full_burst_window_exists)
        gone = geometry(m, a, 0, self.p.layout)
        self.assertFalse(gone.full_burst_window_exists)


class RecursionPropertyTests(unittest.TestCase):
    def test_growth_and_width_identities(self):
        from fractions import Fraction
        for kw in (dict(M=8, mu1=0.8, mu2=1.1, delta=0.1),
                   dict(M=16, mu1=0.5, mu2=2.0, delta=0.0),
                   dict(M=8, mu1=1.0, mu2=1.0, delta=0.3)):
            p = cc.derive_params(epsilon=0.25, sigma2=0.25, **kw)
            lo = Fraction(kw["mu1"]) - Fraction(kw["delta"])
            hi = Fraction(kw["mu2"]) + Fraction(kw["delta"])
            span = Fraction(kw["mu2"]) - Fraction(kw["mu1"]) + 2 * Fraction(kw["delta"])
            for m in range(1, p.M):
                need = hi * (p.offsets[m - 1] + p.widths[m - 1]) / lo
                self.assertGreaterEqual(p.offsets[m], need)
                self.assertLess(p.offsets[m], need + 1)
                self.assertEqual(p.widths[m], int(span * p.offsets[m]))

    def test_offsets_separate_at_equality(self):
        """hi_rate * (N_m + B_m) <= lo_rate * N_{m+1} holds at equality and
        fails one slot short of it."""
        from dataclasses import replace
        from fractions import Fraction
        layout = equal_rate().layout
        lo, hi = Fraction(1, 2), Fraction(3, 4)
        # N_2 = 3/2 * (N_1 + B_1) exactly, and so on down the schedule:
        # each width makes N_m + B_m even
        offsets, widths = [0], []
        for m in range(layout.M):
            widths.append(4 + offsets[-1] % 2)
            if m + 1 < layout.M:
                offsets.append(3 * (offsets[-1] + widths[-1]) // 2)
        tight = replace(layout, prefix_slots=tuple(offsets),
                        burst_slots=tuple(widths))
        d = cc.schedule_diagnostics(tight, lo, hi)
        self.assertTrue(d.wrong_windows_clear and d.wrong_windows_clear_jitter)
        for m in range(1, layout.M):
            short = list(offsets)
            short[m] -= 1
            d = cc.schedule_diagnostics(
                replace(tight, prefix_slots=tuple(short)), lo, hi)
            self.assertFalse(d.wrong_windows_clear)
            self.assertFalse(d.wrong_windows_clear_jitter)
        # regions_disjoint is the region table's: regions sharing a sample
        self.assertTrue(cc.schedule_diagnostics(tight, lo, hi).regions_disjoint)
        shared = replace(tight, regions=tight.regions[:1] * tight.M)
        self.assertFalse(cc.schedule_diagnostics(shared, lo, hi).regions_disjoint)

    def test_window_exceeds_slack_per_message(self):
        """At criterion 7's rates the guard record holds at M = 64; at M = 4
        message 2's window (w = 1) is no longer than its slack
        N_2 / log2 M = 2, so every own window counts as covering."""
        rates = dict(epsilon=0.25, delta=0.1, mu1=0.8, mu2=1.1, sigma2=0.25)
        d = cc.derive_params(M=64, **rates).diagnostics
        self.assertEqual(asdict(d), dict.fromkeys(
            ("regions_disjoint", "wrong_windows_clear",
             "wrong_windows_clear_jitter", "window_exceeds_slack"), True))
        p = cc.derive_params(M=4, **rates)
        self.assertEqual((p.window_lens[1], p.layout.slack[1]), (1, 2.0))
        self.assertEqual(asdict(p.diagnostics), {
            "regions_disjoint": True, "wrong_windows_clear": True,
            "wrong_windows_clear_jitter": True,
            "window_exceeds_slack": False})

    def test_validation(self):
        good = dict(M=8, mu1=0.5, mu2=2.0, delta=0.0, epsilon=0.25, sigma2=0.25)
        for patch in (dict(M=3), dict(mu1=0.0), dict(mu1=2.0, mu2=0.5),
                      dict(delta=0.5), dict(delta=-0.1), dict(epsilon=1.0),
                      dict(sigma2=-1.0), dict(eta2=0.0),
                      dict(mu1=0.5, mu2=0.5)):
            with self.assertRaises(InvalidConfigError):
                cc.derive_params(**{**good, **patch})

    def test_huge_message_count_rejected_at_the_first_overflow(self):
        # the offsets pass the largest float near M = 752; the check runs
        # step by step, so M = 10**6 is refused after as few steps
        with self.assertRaisesRegex(InvalidConfigError, "overflows a float"):
            cc.derive_params(M=10**6, epsilon=0.25, delta=0.1, mu1=0.8,
                             mu2=1.1, sigma2=0.25)


if __name__ == "__main__":
    unittest.main()
