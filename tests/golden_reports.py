"""Golden reports: every deterministic field of a few small reports.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python tests/golden_reports.py

rewrites tests/golden_reports.json from the code in src/.  The file holds,
per config, every field of its report but wall_time_s, the trial plan
_sparse.plan_for picked for it (so that a plan switch shows as a diff),
and the numpy, scipy and BLAS builds it was made with.  test_golden_reports recomputes
every report in a subprocess with one BLAS thread and compares it exactly,
so a change that moves any seeded number, tally or guard flag shows up as
a diff of this file.

The configs cover each trial plan and the report paths around them: the
Gaussian sieve (criterion 5 at M = 64 and M = 256) and segment plan (a
jittery M = 16 layout); the DMC letter plan (the dmc-m64 bench config,
and delta = 2.5); criterion 7's compound layout on the segment plan, and
a fixed last message whose positions outgrow int64; exhaustive message
selection; criterion 5 on a short Gaussian layout (M = 16); a cost-equivalence
check; a DMC layout whose neighbouring regions' windows share
samples; and one DMC channel for each way a window verdict is reached: a
three-letter channel (its code looked up in the firing table), a flipped
BSC (binary, firing on the largest counts of letter 0), a Z-type channel
whose burst never emits letter 0 (binary, -inf on any 0) and a
four-letter channel whose codes need uint16 (w = 32, 35,937 codes); and
a three-letter channel whose third letter neither row emits, so that
both cdfs reach 1.0 before their last letter.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import scipy

PATH = Path(__file__).with_name("golden_reports.json")

_DELETION_01 = {"deletion": {"d": 0.1}}
_BSC_02 = {"w": [[0.8, 0.2], [0.2, 0.8]], "cost": [0.0, 1.0]}
_CRITERION_5 = dict(scheme="gauss", epsilon=0.2, delta=0.5, idc=_DELETION_01,
                    eta2=1.0, base_seed=1009)
_CRITERION_6 = dict(scheme="dmc", M=64, epsilon=0.25, delta=0.5,
                    idc=_DELETION_01, dmc=_BSC_02)
_CRITERION_7 = dict(scheme="compound", M=64, epsilon=0.25, delta=0.1,
                    mu1=0.8, mu2=1.1, sigma2_bound=0.25)

REPORTS = {
    "gauss-sieve-m64": dict(_CRITERION_5, M=64, trials=200),
    "gauss-sieve-m256": dict(_CRITERION_5, M=256, trials=100),
    "gauss-segment-m16": dict(
        scheme="gauss", M=16, epsilon=0.1, delta=0.5, trials=100,
        base_seed=5, idc={"support": [[0, 0.5], [2, 0.5]]}),
    "dmc-m64": dict(_CRITERION_6, trials=100, base_seed=2003),
    "dmc-delta-2.5": dict(_CRITERION_6, delta=2.5, trials=100, base_seed=11),
    "compound-criterion-7": dict(_CRITERION_7, idc={"deletion": {"d": 0.05}},
                                 trials=300, base_seed=4096),
    "compound-fixed-64": dict(
        _CRITERION_7, idc={"support": [[1, 0.9], [2, 0.1]]}, trials=100,
        base_seed=4111, message_selection=64),
    "dmc-exhaustive-m8": dict(_CRITERION_6, M=8, trials=64, base_seed=3,
                              message_selection="exhaustive"),
    "gauss-criterion5-m16": dict(_CRITERION_5, M=16, trials=200,
                                 base_seed=21),
    "dmc-overlap-m8": dict(
        scheme="dmc", M=8, epsilon=0.5, delta=0.5, trials=200, base_seed=8,
        idc={"deletion": {"d": 0.01}}, dmc=_BSC_02),
    "dmc-three-letters": dict(
        _CRITERION_6, delta=2.5, trials=100, base_seed=19,
        dmc={"w": [[0.6, 0.3, 0.1], [0.1, 0.3, 0.6]], "cost": [0.0, 1.0]}),
    "dmc-flipped-bsc": dict(
        _CRITERION_6, delta=2.5, trials=100, base_seed=23,
        dmc={"w": [[0.2, 0.8], [0.8, 0.2]], "cost": [0.0, 1.0]}),
    "dmc-z-channel": dict(
        _CRITERION_6, delta=2.5, trials=200, base_seed=29,
        dmc={"w": [[0.5, 0.5], [0.0, 1.0]], "cost": [0.0, 1.0]}),
    "dmc-unused-letter": dict(
        _CRITERION_6, delta=2.5, trials=100, base_seed=37,
        dmc={"w": [[0.8, 0.2, 0.0], [0.2, 0.8, 0.0]], "cost": [0.0, 1.0]}),
    "dmc-four-letters": dict(
        _CRITERION_6, delta=2.5, trials=100, base_seed=41,
        dmc={"w": [[0.4, 0.3, 0.2, 0.1], [0.1, 0.2, 0.3, 0.4]],
             "cost": [0.0, 1.0]}),
}
COST_CHECKS = {
    "cost-deletion-0.5": dict(_CRITERION_6, idc={"deletion": {"d": 0.5}},
                              trials=2000, base_seed=31),
}


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": {key: blas.get(key) for key in
                     ("name", "version", "openblas configuration")}}


def compute() -> dict:
    """Every golden report, as its JSON form."""
    from artifact import _sparse, harness
    reports = {}
    for name, d in REPORTS.items():
        config = harness.ExperimentConfig.from_dict(d)
        reports[name] = harness.run_trials(config).to_dict()
        del reports[name]["wall_time_s"]
        reports[name]["plan"] = type(_sparse.plan_for(
            harness.derive_scheme_params(config), config.dmc)).__name__
    for name, d in COST_CHECKS.items():
        reports[name] = harness.verify_cost_equivalence(
            harness.ExperimentConfig.from_dict(d)).to_dict()
    # through JSON, so that tuples compare as the lists a load gives
    return json.loads(json.dumps(reports))


def main() -> int:
    if "--print" in sys.argv[1:]:
        print(json.dumps(compute()))
        return 0
    payload = {"environment": environment(), "reports": compute()}
    PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(payload['reports'])} reports to {PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
