"""Command line front end.

Each test drives main() with an argv list and checks the exit code plus
whatever the command printed or wrote.  Exit code map: 0 success, 1 invalid
input, 2 argparse usage error, 3 cost identity violated.
"""

import contextlib
import io
import json
import os
import tempfile
import unittest
from unittest import mock

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
        self.assertTrue(payload["diagnostics"]["offsets_separate"])
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
        # M = 4 keeps the exact region search short at these magnitudes
        big = self.write_json("big.json", {"support": [[1, 0.5], [2**62, 0.5]]})
        rc, out, _ = run_cli([*gauss, "--M", "4", "--idc", big])
        self.assertEqual(rc, 0)
        self.assertGreater(json.loads(out)["region_sizes"]["max"], 2**63)

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

    def test_simulate_rejects_tiny_calibration_budget(self):
        # the threshold is exact now: calibration_trials is an unknown key
        self.assert_one_line_error(self.experiment(calibration_trials=3),
                                   "calibration_trials")

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


if __name__ == "__main__":
    unittest.main()
