"""Command line front end.

Each test drives main() with an argv list and checks the exit code plus
whatever the command printed or wrote.  Exit code map: 0 success, 1 invalid
input, 2 argparse usage error, 3 cost identity violated.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import unittest
from unittest import mock

import artifact
from artifact import _sparse, harness
from artifact.cli import main


def run_cli(argv):
    buf = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, buf.getvalue(), err.getvalue()


class CliCase(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)

    def path(self, name):
        return os.path.join(self.dir.name, name)

    def write_json(self, name, payload):
        p = self.path(name)
        with open(p, "w") as fh:
            json.dump(payload, fh)
        return p

    def bsc_file(self, flip=0.2):
        return self.write_json("chan.json", {
            "dmc": {"w": [[1 - flip, flip], [flip, 1 - flip]],
                    "cost": [0.0, 1.0]}})


class CapacityTests(CliCase):
    def test_dmc_capacity_json(self):
        rc, out, _ = run_cli(["capacity", self.bsc_file(), "--json"])
        self.assertEqual(rc, 0)
        payload = json.loads(out)
        self.assertAlmostEqual(payload["bits_per_unit_cost"], 1.2, places=10)
        self.assertEqual(payload["maximizing_symbol"], 1)
        self.assertAlmostEqual(payload["per_symbol_ratios"]["1"], 1.2,
                               places=10)
        self.assertNotIn("timing_upper", payload)

    def test_dmc_capacity_with_timing_bounds(self):
        rc, out, _ = run_cli(["capacity", self.bsc_file(), "--mu", "0.5",
                              "--json"])
        self.assertEqual(rc, 0)
        payload = json.loads(out)
        self.assertAlmostEqual(payload["timing_upper"], 0.6, places=10)
        self.assertAlmostEqual(payload["timing_lower"], 0.3, places=10)

    def test_gaussian_capacity_needs_mu(self):
        chan = self.write_json("g.json", {"gaussian": {"eta2": 1.0}})
        rc, _, err = run_cli(["capacity", chan])
        self.assertEqual(rc, 1)
        self.assertTrue(err.strip())
        rc, out, _ = run_cli(["capacity", chan, "--mu", "1.0", "--json"])
        self.assertEqual(rc, 0)
        payload = json.loads(out)
        self.assertAlmostEqual(payload["bits_per_unit_energy"],
                               1.0 / (2.0 * 0.6931471805599453), places=10)

    def test_non_finite_mu_is_invalid(self):
        gauss = self.write_json("g.json", {"gaussian": {"eta2": 1.0}})
        for chan in (self.bsc_file(), gauss):
            for mu in ("inf", "nan", "-inf"):
                for flags in ((), ("--json",)):
                    with self.subTest(chan=chan, mu=mu, flags=flags):
                        rc, out, err = run_cli(["capacity", chan,
                                                f"--mu={mu}", *flags])
                        self.assertEqual((rc, out), (1, ""))
                        self.assertRegex(
                            err, r"\Aerror: mean repetition rate must be "
                                 r"positive and finite[^\n]*\n\Z")

    def test_human_readable_output(self):
        rc, out, _ = run_cli(["capacity", self.bsc_file(), "--mu", "0.9"])
        self.assertEqual(rc, 0)
        self.assertIn("capacity per unit cost: 1.200000 bits", out)
        self.assertIn("letter 1: 1.200000", out)
        self.assertIn("[0.540000, 1.080000]", out)

    def test_missing_file(self):
        rc, _, err = run_cli(["capacity", self.path("none.json")])
        self.assertEqual(rc, 1)
        self.assertTrue(err.strip())

    def test_malformed_channel_specs(self):
        for spec in ({"gaussian": 5}, {"dmc": [1, 2]},
                     {"gaussian": {"eta2": [1]}}, 5, "dmc"):
            with self.subTest(spec=spec):
                rc, out, err = run_cli(
                    ["capacity", self.write_json("bad.json", spec)])
                self.assertEqual(rc, 1)
                self.assertEqual(out, "")
                lines = err.strip().splitlines()
                self.assertEqual(len(lines), 1, err)
                self.assertTrue(lines[0].startswith("error:"), err)

    def test_unknown_nested_channel_keys(self):
        bsc = {"w": [[0.8, 0.2], [0.2, 0.8]], "cost": [0.0, 1.0]}
        idc = {"deletion": {"d": 0.1}}
        for spec, word in (
                ({"dmc": dict(bsc, extra=1)}, "dmc keys: extra"),
                ({"gaussian": {"eta2": 1.0, "eta": 1}}, "gaussian keys: eta"),
                ({"dmc": bsc, "gaussian": {"eta2": 1.0}}, "exactly one"),
                ({"dmc": bsc, "idc": idc, "mu": 0.5}, "channel keys: mu"),
                ({"gaussian": {"eta2": 1.0},
                  "idc": {"deletion": {"d": 0.1, "e": 1}}},
                 "deletion keys: e")):
            with self.subTest(spec=spec):
                rc, out, err = run_cli(
                    ["capacity", self.write_json("bad.json", spec)])
                self.assertEqual(rc, 1)
                self.assertEqual(out, "")
                lines = err.strip().splitlines()
                self.assertEqual(len(lines), 1, err)
                self.assertTrue(lines[0].startswith("error:"), err)
                self.assertIn(word, lines[0])
        # the timing process beside the back end is part of a channel file
        rc, out, _ = run_cli(["capacity", self.write_json("ok.json", {
            "gaussian": {"eta2": 1.0}, "idc": idc})])
        self.assertEqual(rc, 0)

    def test_non_finite_transition_probabilities_are_invalid(self):
        # NaN fails every comparison, so a range check alone lets it pass
        spec = self.write_json("nan.json", {"dmc": {
            "w": [[float("nan"), 0.2], [0.2, 0.8]], "cost": [0.0, 1.0]}})
        rc, out, err = run_cli(["capacity", spec])
        self.assertEqual((rc, out), (1, ""))
        self.assertRegex(err, r"\Aerror: transition probabilities[^\n]*\n\Z")

    def test_bad_usage_exits_2(self):
        with self.assertRaises(SystemExit) as ctx:
            with contextlib.redirect_stderr(io.StringIO()):
                main(["capacity"])
        self.assertEqual(ctx.exception.code, 2)


class ParamsTests(CliCase):
    def test_dmc_params(self):
        idc = self.write_json("idc.json", {"support": [[0, 0.125], [1, 0.75],
                                                       [2, 0.125]]})
        chan = self.write_json("one_bit.json", {
            "dmc": {"w": [[0.5, 0.5], [0.0, 1.0]], "cost": [0.0, 1.0]}})
        out_path = self.path("params.json")
        rc, out, _ = run_cli(["params", "--scheme", "dmc", "--M", "64",
                              "--epsilon", "0.25", "--delta", "0.5",
                              "--idc", idc, "--channel", chan,
                              "--out", out_path])
        self.assertEqual(rc, 0)
        payload = json.loads(out)
        self.assertEqual(payload["N"], 2304)
        self.assertEqual(payload["B"], 15)
        self.assertEqual(payload["window_len"], 7)
        with open(out_path) as fh:
            self.assertEqual(json.load(fh), payload)

    def test_gauss_params(self):
        rc, out, _ = run_cli(["params", "--scheme", "gauss", "--M", "256",
                              "--epsilon", "0.2", "--delta", "0.5",
                              "--deletion", "0.1"])
        self.assertEqual(rc, 0)
        payload = json.loads(out)
        self.assertEqual(payload["N"], 5120)
        self.assertEqual(payload["B"], 381)
        self.assertEqual(payload["spacing"], 32)

    def test_compound_params(self):
        rc, out, _ = run_cli(["params", "--scheme", "compound", "--M", "16",
                              "--epsilon", "0.25", "--delta", "0",
                              "--mu1", "0.5", "--mu2", "2.0",
                              "--sigma2", "0.25", "--constant", "1"])
        self.assertEqual(rc, 0)
        payload = json.loads(out)
        self.assertEqual(payload["offsets"][:3], [0, 16, 160])
        self.assertEqual(payload["widths"][:3], [4, 24, 240])
        self.assertIn("block_len", payload)
        # the one guard record of every scheme, all four flags set
        self.assertEqual(payload["diagnostics"], dict.fromkeys(
            ("regions_disjoint", "wrong_windows_clear",
             "wrong_windows_clear_jitter", "window_exceeds_slack"), True))
        self.assertNotIn("regions", payload)   # summarized, not dumped

    def test_out_of_range_sizes(self):
        """More equal-block messages than a trial plan holds windows end in
        one error line (the cap lowered to 8, so that a lost check builds
        16 messages, not 10**9); regions past len()'s range are counted."""
        gauss = ["params", "--scheme", "gauss", "--epsilon", "0.2",
                 "--delta", "0.5"]
        with mock.patch("artifact._layout.MAX_WINDOWS", 8):
            rc, out, err = run_cli([*gauss, "--M", "16", "--deletion", "0.1"])
        self.assertEqual((rc, out), (1, ""))
        self.assertRegex(err, r"\Aerror: 16 messages exceed 8[^\n]*\n\Z")
        # regions of 2**63 positions and more are counted, not listed
        big = self.write_json("big.json", {"support": [[1, 0.5], [2**62, 0.5]]})
        rc, out, _ = run_cli([*gauss, "--M", "4", "--idc", big])
        self.assertEqual(rc, 0)
        self.assertGreater(json.loads(out)["region_sizes"]["max"], 2**63)

    def test_huge_states_derive_at_full_size(self):
        """A timing state of 2**62 puts region ends near 2**76 and windows
        near 2**72; the exact region and window bounds are closed forms, so
        M = 256 derives as fast as the small configs."""
        big = self.write_json("big.json", {"support": [[1, 0.5], [2**62, 0.5]]})
        rc, out, _ = run_cli(["params", "--scheme", "gauss", "--M", "256",
                              "--epsilon", "0.2", "--delta", "0.5",
                              "--idc", big])
        self.assertEqual(rc, 0)
        payload = json.loads(out)
        self.assertEqual(payload["region_sizes"]["count"], 256)
        self.assertGreater(payload["window_len"], 2**72)

    def test_tiny_epsilon_ends_in_one_error_line(self):
        """At epsilon = 1e-300 the jitter radius beta passes 1e150: the
        window collapses, and the message is built without floats, its
        values from 10**6 on in short scientific form.  Smaller values
        keep three decimals."""
        chan = self.bsc_file(flip=0.1)
        for scheme, M, epsilon, deletion, extra, values in (
                ("gauss", "256", "1e-300", "0.1", [],
                 "B*mu=1.536e+152, beta=7.838e+225"),
                ("dmc", "64", "1e-300", "0.1", ["--channel", chan],
                 "B*mu=5.400, beta=1.470e+150"),
                ("dmc", "64", "0.01", "0.5", ["--channel", chan],
                 "B*mu=5.500, beta=33.166")):
            with self.subTest(scheme=scheme, epsilon=epsilon):
                rc, out, err = run_cli([
                    "params", "--scheme", scheme, "--M", M, "--epsilon",
                    epsilon, "--delta", "0.5", "--deletion", deletion,
                    *extra])
                self.assertEqual((rc, out), (1, ""))
                self.assertRegex(
                    err, r"\Aerror: detection window collapsed[^\n]*\n\Z")
                self.assertTrue(err.endswith(f"({values})\n"), err)
                self.assertLessEqual(len(err), 160)

    def test_dmc_without_channel_is_invalid(self):
        rc, _, err = run_cli(["params", "--scheme", "dmc", "--M", "8",
                              "--epsilon", "0.25", "--delta", "0.5",
                              "--constant", "1"])
        self.assertEqual(rc, 1)
        self.assertTrue(err.strip())

    def test_non_finite_variances_are_invalid(self):
        gauss = ["--scheme", "gauss", "--M", "256", "--epsilon", "0.2",
                 "--delta", "0.5", "--deletion", "0.1", "--eta2", "inf"]
        compound = ["--scheme", "compound", "--M", "16", "--epsilon", "0.25",
                    "--delta", "0", "--mu1", "0.5", "--mu2", "2.0",
                    "--sigma2", "inf", "--constant", "1"]
        for argv, word in ((gauss, "noise variance"),
                           (compound, "variance bound")):
            with self.subTest(scheme=argv[1]):
                rc, out, err = run_cli(["params", *argv])
                self.assertEqual(rc, 1)
                self.assertEqual(out, "")
                self.assertEqual(len(err.strip().splitlines()), 1, err)
                self.assertIn(word, err)

    def test_infinite_dmc_delta_is_invalid(self):
        rc, out, err = run_cli(["params", "--scheme", "dmc", "--M", "64",
                                "--epsilon", "0.25", "--delta", "inf",
                                "--deletion", "0.1",
                                "--channel", self.bsc_file()])
        self.assertEqual((rc, out), (1, ""))
        self.assertRegex(err, r"\Aerror: delta must be positive and finite"
                              r"[^\n]*\n\Z")

    def test_huge_burst_ends_in_one_short_error_line(self):
        """At delta = 1e300 the DMC burst outgrows its guard block by
        hundreds of digits; the message prints B in short scientific
        form."""
        rc, out, err = run_cli(["params", "--scheme", "dmc", "--M", "64",
                                "--epsilon", "0.25", "--delta", "1e300",
                                "--deletion", "0.1",
                                "--channel", self.bsc_file()])
        self.assertEqual((rc, out), (1, ""))
        self.assertRegex(err, r"\Aerror: burst \(B=5\.556e\+300\) does not "
                              r"fit[^\n]*\n\Z")
        self.assertLess(len(err), 200)

    def test_regions_disjoint_is_false_where_windows_overlap(self):
        """At this DMC config neighbouring regions' windows share
        samples, although N * mu >= 3 * nu holds, as it does for every
        equal-block layout; the guard reads the windows."""
        rc, out, _ = run_cli(["params", "--scheme", "dmc", "--M", "8",
                              "--epsilon", "0.5", "--delta", "0.5",
                              "--deletion", "0.01",
                              "--channel", self.bsc_file(0.2)])
        self.assertEqual(rc, 0)
        self.assertFalse(json.loads(out)["diagnostics"]["regions_disjoint"])

    def test_compound_without_rates_is_invalid(self):
        rc, _, err = run_cli(["params", "--scheme", "compound", "--M", "8",
                              "--epsilon", "0.25", "--delta", "0",
                              "--constant", "1"])
        self.assertEqual(rc, 1)

    def test_two_idc_flags_rejected(self):
        rc, _, err = run_cli(["params", "--scheme", "gauss", "--M", "16",
                              "--epsilon", "0.25", "--delta", "0.5",
                              "--deletion", "0.1", "--constant", "1"])
        self.assertEqual(rc, 1)
        self.assertIn("exactly one", err)


class SimulateTests(CliCase):
    def experiment(self, **over):
        cfg = {"scheme": "dmc", "M": 64, "epsilon": 0.25, "delta": 0.5,
               "trials": 30, "base_seed": 7,
               "idc": {"constant": {"value": 1}},
               "dmc": {"w": [[0.99, 0.01], [0.01, 0.99]],
                       "cost": [0.0, 1.0]}}
        cfg.update(over)
        return self.write_json("exp.json", cfg)

    def test_simulate_report(self):
        out_path = self.path("report.json")
        rc, out, _ = run_cli(["simulate", self.experiment(),
                              "--out", out_path])
        self.assertEqual(rc, 0)
        payload = json.loads(out)
        self.assertEqual(payload["trials"], 30)
        self.assertIn("error_rate", payload)
        self.assertIn("diagnostics", payload)
        self.assertNotIn("simulation", payload)
        with open(out_path) as fh:
            self.assertEqual(json.load(fh)["trials"], 30)

    def test_simulate_rejects_bad_config(self):
        rc, _, err = run_cli(["simulate", self.experiment(scheme="nope")])
        self.assertEqual(rc, 1)
        self.assertTrue(err.strip())

    def test_simulate_rejects_unknown_keys(self):
        rc, _, err = run_cli(["simulate", self.experiment(bogus=1)])
        self.assertEqual(rc, 1)

    def test_simulate_rejects_malformed_json(self):
        p = self.path("broken.json")
        with open(p, "w") as fh:
            fh.write("{not json")
        rc, _, err = run_cli(["simulate", p])
        self.assertEqual(rc, 1)

    def assert_one_line_error(self, experiment, word):
        rc, out, err = run_cli(["simulate", experiment])
        self.assertEqual(rc, 1)
        self.assertEqual(out, "")
        lines = err.strip().splitlines()
        self.assertEqual(len(lines), 1, err)
        self.assertTrue(lines[0].startswith("error:"), err)
        self.assertIn(word, lines[0])

    def test_simulate_rejects_removed_keys(self):
        for key, value in (("simulation", "sparse"), ("direct_cap", 4096)):
            self.assert_one_line_error(self.experiment(**{key: value}), key)

    def test_simulate_takes_workers_1_only(self):
        for value in (2, 0, 1.5):
            with self.subTest(workers=value):
                self.assert_one_line_error(self.experiment(workers=value),
                                           "workers")
        reports = []
        for over in ({}, {"workers": 1}):
            rc, out, _ = run_cli(["simulate", self.experiment(**over)])
            self.assertEqual(rc, 0)
            reports.append(json.loads(out) | {"wall_time_s": 0})
        self.assertEqual(reports[0], reports[1])

    def test_simulate_rejects_string_trial_count(self):
        self.assert_one_line_error(self.experiment(trials="5"), "trials")

    def test_simulate_rejects_fractional_message_count(self):
        self.assert_one_line_error(self.experiment(M=64.5), "M must be")

    def test_simulate_rejects_float_overflowing_compound_layout(self):
        # criterion 7's rate interval: the offsets pass 1.8e308 here
        self.assert_one_line_error(self.write_json("exp.json", {
            "scheme": "compound", "M": 752, "epsilon": 0.25, "delta": 0.1,
            "mu1": 0.8, "mu2": 1.1, "sigma2_bound": 0.25, "trials": 1,
            "base_seed": 1, "idc": {"deletion": {"d": 0.05}}}), "overflows")

    def test_simulate_rejects_sizes_beyond_int64(self):
        # a state of 2**62 stretches the regions past len()'s range
        for state, word in ((10**21, "64-bit"), (2**62, "exceeds")):
            self.assert_one_line_error(self.write_json("exp.json", {
                "scheme": "gauss", "M": 4, "epsilon": 0.2, "delta": 0.5,
                "trials": 1, "base_seed": 1,
                "idc": {"support": [[1, 0.5], [state, 0.5]]}}), word)

    def test_simulate_rejects_huge_states_at_full_size(self):
        # M = 256 regions of up to 2**71 windows: refused by the window cap
        self.assert_one_line_error(self.write_json("exp.json", {
            "scheme": "gauss", "M": 256, "epsilon": 0.2, "delta": 0.5,
            "trials": 1, "base_seed": 1,
            "idc": {"support": [[1, 0.5], [2**62, 0.5]]}}), "exceeds 4194304")

    def test_simulate_rejects_tiny_epsilon(self):
        gauss = {"scheme": "gauss", "M": 256, "epsilon": 1e-300,
                 "delta": 0.5, "trials": 1, "base_seed": 1,
                 "idc": {"deletion": {"d": 0.1}}}
        for experiment in (self.write_json("gauss.json", gauss),
                           self.experiment(epsilon=1e-300,
                                           idc={"deletion": {"d": 0.1}})):
            with self.subTest(experiment=experiment):
                self.assert_one_line_error(experiment, "window collapsed")

    def test_simulate_rejects_a_free_burst_letter(self):
        self.assert_one_line_error(self.experiment(
            dmc={"w": [[0.99, 0.01], [0.01, 0.99]], "cost": [0.0, 0.0]}),
            "costs 0.0")

    def test_simulate_rejects_malformed_timing_specs(self):
        for spec, word in (({"deletion": 5}, "deletion"),
                           ({"constant": {"value": 2.5}}, "constant"),
                           ({"support": [1, 2]}, "support")):
            self.assert_one_line_error(self.experiment(idc=spec), word)

    def test_simulate_rejects_oversized_multiset_enumeration(self):
        # windows of 5,804 letters from three: 16.9M letter multisets
        fail = mock.patch("artifact.codec_dmc._count_vectors",
                          side_effect=AssertionError("enumerated"))
        with fail as enumerate_:
            self.assert_one_line_error(self.experiment(
                M=2, dmc={"w": [[0.34, 0.33, 0.33], [0.33, 0.33, 0.34]],
                          "cost": [0.0, 1.0]}), "multisets")
        enumerate_.assert_not_called()

    def test_simulate_rejects_an_oversized_firing_table(self):
        # windows of 4,330 letters over three: 4,331**2 codes
        fail = mock.patch("artifact._sparse.DmcPlan.__init__",
                          side_effect=AssertionError("built a plan"))
        with fail as build:
            self.assert_one_line_error(self.experiment(
                M=2, dmc={"w": [[0.5, 0.4996, 0.0004], [0.5004, 0.4996, 0.0]],
                          "cost": [0.0, 1.0]}), "firing table")
        build.assert_not_called()

    def test_simulate_rejects_an_unusable_confidence(self):
        # refused with the config, before any trial runs; NaN is refused as
        # not finite, 1 - 2**-53 because 0.5 + c/2 rounds to 1
        never = mock.patch("artifact.harness.run_trials",
                           side_effect=AssertionError("ran trials"))
        for confidence in (-0.2, 0.0, 1.0, 1.5, float("nan"),
                           0.9999999999999999):
            with self.subTest(confidence=confidence), never as run:
                self.assert_one_line_error(
                    self.experiment(confidence=confidence), "confidence")
            run.assert_not_called()

    def test_simulate_rejects_tiny_calibration_budget(self):
        # the threshold is exact now: calibration_trials is an unknown key
        self.assert_one_line_error(self.experiment(calibration_trials=3),
                                   "calibration_trials")

    def test_simulate_rejects_a_dmc_back_end_on_gaussian_schemes(self):
        for scheme, over in (("gauss", {}),
                             ("compound", {"mu1": 0.8, "mu2": 1.1,
                                           "sigma2_bound": 0.25})):
            with self.subTest(scheme=scheme):
                self.assert_one_line_error(
                    self.experiment(scheme=scheme, **over),
                    f"scheme '{scheme}' takes no dmc back end")

    def test_simulate_rejects_malformed_dmc_matrix(self):
        self.assert_one_line_error(self.experiment(
            dmc={"w": {"a": 1}, "cost": [0, 1]}), "dmc")

    def test_simulate_rejects_unknown_nested_keys(self):
        bsc = {"w": [[0.99, 0.01], [0.01, 0.99]], "cost": [0.0, 1.0]}
        for over, word in (
                ({"dmc": dict(bsc, extra=1)}, "keys: extra"),
                ({"idc": {"deletion": {"d": 0.1, "x": 2}}},
                 "deletion keys: x"),
                ({"idc": {"constant": {"value": 1, "v": 1}}},
                 "constant keys: v"),
                ({"idc": {"deletion": {"d": 0.1}, "typo": 1}}, "keys: typo"),
                ({"idc": {"support": [[1, 1.0]],
                          "deletion": {"d": 0.1}}}, "exactly one")):
            with self.subTest(over=over):
                self.assert_one_line_error(self.experiment(**over), word)


class SweepTests(CliCase):
    def test_sweep_csv(self):
        base = {"scheme": "gauss", "M": 16, "epsilon": 0.25, "delta": 0.5,
                "trials": 10, "base_seed": 3,
                "idc": {"deletion": {"d": 0.2}}}
        grid = self.write_json("grid.json",
                               {"base": base, "axes": {"M": [16, 1]}})
        out_path = self.path("grid.csv")
        rc, out, _ = run_cli(["sweep", grid, "--out", out_path])
        self.assertEqual(rc, 0)
        with open(out_path) as fh:
            lines = fh.read().splitlines()
        self.assertEqual(len(lines), 3)
        header = lines[0].split(",")
        self.assertEqual(header[0], "point")
        self.assertIn("error_rate", header)
        self.assertIn("True", lines[1])
        self.assertIn("False", lines[2])   # M=1 cannot derive

    def test_sweep_to_stdout(self):
        base = {"scheme": "gauss", "M": 16, "epsilon": 0.25, "delta": 0.5,
                "trials": 5, "base_seed": 3, "idc": {"deletion": {"d": 0.2}}}
        grid = self.write_json("grid.json", {"base": base, "axes": {}})
        rc, out, _ = run_cli(["sweep", grid])
        self.assertEqual(rc, 0)
        self.assertTrue(out.splitlines()[0].startswith("point"))

    def test_sweep_marks_a_free_burst_letter_invalid(self):
        base = {"scheme": "dmc", "M": 64, "epsilon": 0.25, "delta": 0.5,
                "trials": 5, "base_seed": 7, "idc": {"constant": {"value": 1}},
                "dmc": {"w": [[0.99, 0.01], [0.01, 0.99]],
                        "cost": [0.0, 0.0]}}
        grid = self.write_json("grid.json", {"base": base, "axes": {}})
        rc, out, err = run_cli(["sweep", grid])
        self.assertEqual(rc, 0, err)
        lines = out.splitlines()
        self.assertEqual(len(lines), 2)
        self.assertIn("False", lines[1])
        self.assertIn("costs 0.0", lines[1])

    def test_sweep_rejects_malformed_grids(self):
        base = {"scheme": "gauss", "M": 16, "epsilon": 0.25, "delta": 0.5,
                "trials": 5, "base_seed": 3, "idc": {"deletion": {"d": 0.2}}}
        for grid, word in ((5, "JSON object"),
                           ({"base": 5}, "base"),
                           ({"base": base, "axes": {"M": 64}}, "lists"),
                           ({"base": base, "axes": {"M": "abc"}}, "lists")):
            with self.subTest(grid=grid):
                rc, out, err = run_cli(
                    ["sweep", self.write_json("grid.json", grid)])
                self.assertEqual(rc, 1)
                self.assertEqual(out, "")
                lines = err.strip().splitlines()
                self.assertEqual(len(lines), 1, err)
                self.assertTrue(lines[0].startswith("error:"), err)
                self.assertIn(word, lines[0])


class VerifyCostTests(CliCase):
    def experiment(self, idc):
        return self.write_json("exp.json", {
            "scheme": "dmc", "M": 64, "epsilon": 0.25, "delta": 0.5,
            "trials": 2000, "base_seed": 7, "idc": idc,
            "dmc": {"w": [[0.8, 0.2], [0.2, 0.8]], "cost": [0.0, 1.0]}})

    def test_identity_holds(self):
        rc, out, _ = run_cli(["verify-cost",
                              self.experiment({"deletion": {"d": 0.1}})])
        self.assertEqual(rc, 0)
        payload = json.loads(out)
        self.assertTrue(payload["within_tolerance"])
        self.assertAlmostEqual(payload["mu"], 0.9, places=12)

    def test_constant_states_exact(self):
        rc, out, _ = run_cli(["verify-cost",
                              self.experiment({"constant": {"value": 2}}),
                              "--trials", "50"])
        self.assertEqual(rc, 0)
        payload = json.loads(out)
        self.assertEqual(payload["abs_difference"], 0.0)
        self.assertEqual(payload["trials"], 50)

    def test_wrong_scheme_is_invalid(self):
        p = self.write_json("exp.json", {
            "scheme": "gauss", "M": 16, "epsilon": 0.25, "delta": 0.5,
            "trials": 10, "base_seed": 3, "idc": {"deletion": {"d": 0.2}}})
        rc, _, err = run_cli(["verify-cost", p])
        self.assertEqual(rc, 1)

    def test_trial_count_over_the_cap_is_invalid(self):
        """verify-cost draws every trial at once, so a count over the cap,
        from --trials or from the config, ends in one error line before
        any draw."""
        over = str(harness.MAX_COST_TRIALS + 1)
        exp = self.experiment({"deletion": {"d": 0.1}})
        with open(exp) as fh:
            own = self.write_json("own.json", dict(json.load(fh),
                                                   trials=int(over)))
        for argv in ([exp, "--trials", over], [own]):
            with self.subTest(argv=argv[1:]):
                rc, out, err = run_cli(["verify-cost", *argv])
                self.assertEqual((rc, out), (1, ""))
                self.assertRegex(
                    err, rf"\Aerror: {over} trials exceed[^\n]*\n\Z")


# runs each command line of argv[2] (JSON) through main with scipy unimportable,
# and prints their exit codes
_NO_SCIPY = """
import contextlib, io, json, sys
sys.modules["scipy"] = None  # every import of scipy now raises ImportError
sys.path.insert(0, sys.argv[1])
from artifact.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in json.loads(sys.argv[2])]
print(json.dumps(codes))
"""


class NoScipyTests(CliCase):
    def test_every_scheme_runs_without_scipy(self):
        """The package needs numpy and the standard library only: params
        and simulate run, on each trial plan, with scipy unimportable."""
        bsc = {"w": [[0.99, 0.01], [0.01, 0.99]], "cost": [0.0, 1.0]}
        base = {"epsilon": 0.2, "delta": 0.5, "trials": 3, "base_seed": 1,
                "idc": {"deletion": {"d": 0.1}}}
        configs = {
            "sieve": dict(base, scheme="gauss", M=64),
            "segment": dict(base, scheme="gauss", M=16),
            "compound": dict(base, scheme="compound", M=16, delta=0.1,
                             mu1=0.8, mu2=1.1, sigma2_bound=0.25),
            "dmc": dict(base, scheme="dmc", M=16, epsilon=0.25,
                        idc={"constant": {"value": 1}}, dmc=bsc),
        }
        plans = {"sieve": _sparse.SievePlan, "segment": _sparse.Plan,
                 "compound": _sparse.Plan, "dmc": _sparse.DmcPlan}
        commands = [["params", "--scheme", "dmc", "--M", "64",
                     "--epsilon", "0.25", "--delta", "0.5",
                     "--deletion", "0.1", "--channel", self.bsc_file()]]
        for name, cfg in configs.items():
            config = harness.ExperimentConfig.from_dict(cfg)
            plan = _sparse.plan_for(harness.derive_scheme_params(config),
                                    config.dmc)
            self.assertIs(type(plan), plans[name])
            commands.append(["simulate", self.write_json(f"{name}.json", cfg)])
        src = os.path.dirname(os.path.dirname(artifact.__file__))
        res = subprocess.run(
            [sys.executable, "-c", _NO_SCIPY, src, json.dumps(commands)],
            capture_output=True, text=True, timeout=300)
        self.assertEqual(res.returncode, 0, res.stderr)
        self.assertEqual(json.loads(res.stdout), [0] * len(commands),
                         res.stderr)


if __name__ == "__main__":
    unittest.main()
