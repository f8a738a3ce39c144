"""Command line front end.

Subcommands:
  capacity     per-unit-cost capacity figures for a channel description
  params       derived scheme constants as JSON
  simulate     run one experiment config and print the report
  sweep        run a config grid and emit CSV
  verify-cost  check the cost identity between a codeword and its image

Exit codes: 0 success, 1 invalid input or config, 2 usage error,
3 cost identity violated (verify-cost only).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace

from . import codec_compound, codec_dmc, codec_gauss, harness, info
from .channel import Dmc, GaussianNoise, back_end_from_dict, state_dist_from_dict
from .channel import StateDistribution
from .errors import InvalidConfigError


def _load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2)
    print(text)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")


def _cmd_capacity(args) -> int:
    spec = _load_json(args.channel)
    back = back_end_from_dict(spec)  # checks first that spec is an object
    mu = args.mu
    if mu is None and "idc" in spec:
        mu = state_dist_from_dict(spec["idc"]).mu
    if isinstance(back, GaussianNoise):
        if mu is None:
            raise InvalidConfigError(
                "the Gaussian figure needs a timing rate: pass --mu or an idc entry")
        value = info.gaussian_capacity_per_unit_energy(mu, back.eta2)
        payload = {"kind": "gaussian", "mu": mu, "eta2": back.eta2,
                   "bits_per_unit_energy": value, "exact": True}
        lines = [f"timing rate mu: {mu}", f"noise variance eta2: {back.eta2}",
                 f"capacity per unit energy: {value:.6f} bits (exact)"]
    else:
        report = info.capacity_per_unit_cost(back)
        ratios = sorted(report.per_symbol_ratios.items())
        payload = {"kind": "dmc", "bits_per_unit_cost": report.value,
                   "maximizing_symbol": report.maximizing_symbol,
                   "per_symbol_ratios": {str(sym): r for sym, r in ratios}}
        lines = [f"capacity per unit cost: {report.value:.6f} bits",
                 f"maximizing letter: {report.maximizing_symbol}",
                 *(f"  letter {sym}: {r:.6f}" for sym, r in ratios)]
        if mu is not None:
            bounds = info.ids_capacity_bounds(mu, back)
            payload.update(mu=mu, timing_lower=bounds.lower,
                           timing_upper=bounds.upper)
            lines += [f"timing rate mu: {mu}",
                      f"timing channel bounds: [{bounds.lower:.6f}, "
                      f"{bounds.upper:.6f}] bits per unit cost"]
    print(json.dumps(payload, indent=2) if args.json else "\n".join(lines))
    return 0


def _region_sizes(sizes) -> dict:
    return {"count": len(sizes), "min": min(sizes), "max": max(sizes),
            "total": sum(sizes)}


def _idc_from_args(args) -> StateDistribution:
    picked = [x for x in (args.idc, args.deletion, args.constant) if x is not None]
    if len(picked) != 1:
        raise InvalidConfigError(
            "describe the timing process with exactly one of "
            "--idc, --deletion, --constant")
    if args.idc is not None:
        return state_dist_from_dict(_load_json(args.idc))
    if args.deletion is not None:
        return StateDistribution.deletion(args.deletion)
    return StateDistribution.constant(args.constant)


def _cmd_params(args) -> int:
    if args.scheme == "dmc":
        if not args.channel:
            raise InvalidConfigError("scheme dmc needs --channel")
        spec = _load_json(args.channel)
        back = back_end_from_dict(spec)
        if not isinstance(back, Dmc):
            raise InvalidConfigError("scheme dmc expects a dmc channel file")
        params = codec_dmc.derive_params(args.M, args.epsilon, args.delta,
                                         _idc_from_args(args), back, args.x_star)
    elif args.scheme == "gauss":
        params = codec_gauss.derive_params(args.M, args.epsilon, args.delta,
                                           _idc_from_args(args), args.eta2)
    else:
        if None in (args.mu1, args.mu2, args.sigma2):
            raise InvalidConfigError(
                "scheme compound needs --mu1, --mu2 and --sigma2")
        params = codec_compound.derive_params(args.M, args.epsilon, args.delta,
                                              args.mu1, args.mu2, args.sigma2,
                                              args.eta2)
    payload = asdict(replace(params, layout=None))
    del payload["layout"]  # summarized, not dumped
    payload["region_sizes"] = _region_sizes(params.layout.sizes)
    if args.scheme == "compound":
        payload["block_len"] = params.block_len
    else:
        payload["codeword_len"] = params.codeword_len
    if args.scheme != "dmc":
        payload["energy"] = params.energy
    _emit(payload, args.out)
    return 0


def _cmd_simulate(args) -> int:
    config = harness.ExperimentConfig.from_dict(_load_json(args.experiment))
    report = harness.run_trials(config)
    _emit(report.to_dict(), args.out)
    return 0


def _cmd_sweep(args) -> int:
    columns, rows = harness.sweep(_load_json(args.grid))
    if args.out:
        harness.write_csv(columns, rows, args.out)
        print(f"wrote {len(rows)} rows to {args.out}")
    else:
        harness.write_csv(columns, rows, sys.stdout)
    return 0


def _cmd_verify_cost(args) -> int:
    config = harness.ExperimentConfig.from_dict(_load_json(args.experiment))
    report = harness.verify_cost_equivalence(config, trials=args.trials)
    _emit(report.to_dict(), args.out)
    return 0 if report.within_tolerance else 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="artifact",
        description="pulse-position codecs for insertion/deletion timing channels")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("capacity", help="per-unit-cost capacity of a channel")
    p.add_argument("channel", help="JSON file with a dmc or gaussian entry")
    p.add_argument("--mu", type=float, default=None,
                   help="mean repetition rate of the timing process")
    p.add_argument("--json", action="store_true", help="machine readable output")
    p.set_defaults(fn=_cmd_capacity)

    p = sub.add_parser("params", help="derived scheme constants")
    p.add_argument("--scheme", choices=("dmc", "gauss", "compound"), required=True)
    p.add_argument("--M", type=int, required=True, help="number of messages")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--channel", help="JSON channel file (scheme dmc)")
    p.add_argument("--x-star", type=int, default=1, dest="x_star",
                   help="burst letter (scheme dmc)")
    p.add_argument("--idc", help="JSON file describing the timing process")
    p.add_argument("--deletion", type=float, default=None,
                   help="deletion probability shortcut for --idc")
    p.add_argument("--constant", type=int, default=None,
                   help="constant-state shortcut for --idc")
    p.add_argument("--eta2", type=float, default=1.0,
                   help="noise variance (gauss, compound)")
    p.add_argument("--mu1", type=float, help="rate interval low end (compound)")
    p.add_argument("--mu2", type=float, help="rate interval high end (compound)")
    p.add_argument("--sigma2", type=float,
                   help="state variance bound (compound)")
    p.add_argument("--out", default=None, help="also write the JSON here")
    p.set_defaults(fn=_cmd_params)

    p = sub.add_parser("simulate", help="run one experiment config")
    p.add_argument("experiment", help="JSON experiment config")
    p.add_argument("--out", default=None, help="also write the report here")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("sweep", help="run a grid of configs, emit CSV")
    p.add_argument("grid", help="JSON file with base config and axes")
    p.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("verify-cost", help="check the cost identity by simulation")
    p.add_argument("experiment", help="JSON experiment config (scheme dmc)")
    p.add_argument("--trials", type=int, default=None,
                   help="override the trial count")
    p.add_argument("--out", default=None, help="also write the report here")
    p.set_defaults(fn=_cmd_verify_cost)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (InvalidConfigError, ValueError, OSError,
            json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
