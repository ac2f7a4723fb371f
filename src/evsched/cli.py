"""Command-line entry points for running charging experiments."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from evsched import experiments
from evsched.network import ChargingNetwork
from evsched.workload import load_dataset, save_dataset


def _load_config(path: str) -> dict:
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"config file not found: {p}")
    try:
        raw = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file {p} is not valid JSON: {exc}") from exc
    return experiments.resolve_config(raw, p.parent)


def _apply_overrides(cfg: dict, args: argparse.Namespace) -> dict:
    if getattr(args, "seed", None) is not None:
        cfg = {**cfg, "seed": args.seed}
    return cfg


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(_load_config(args.config), args)
    if args.dry_run:
        print(json.dumps(cfg, indent=2, sort_keys=True))
        return 0
    result = experiments.simulate_once(cfg)
    paths = experiments.write_outputs(result, args.out, cfg)
    print(f"{result.algorithm} scenario {result.scenario}: demand_met={result.demand_met:.4f}")
    if result.billing is not None:
        print(f"profit=${result.billing.profit:.2f} peak={result.billing.peak_kw:.1f} kW")
    print(f"wrote {paths['summary']}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(_load_config(args.config), args)
    rows = experiments.capacity_sweep(cfg, jobs=args.jobs)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    experiments.write_rows_csv(rows, out / "sweep.csv")
    for row in rows:
        print(f"{row['transformer_kw']:>7.1f} kW  {row['algorithm']:<12s} demand_met={row['demand_met']:.4f}")
    print(f"wrote {out / 'sweep.csv'}")
    return 0


def cmd_profit(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(_load_config(args.config), args)
    rows = experiments.profit_experiment(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    experiments.write_rows_csv(rows, out / "profit.csv")
    for row in rows:
        print(
            f"{row['run']:<14s} profit=${row['profit']:>9.2f} peak={row['peak_kw']:>6.1f} kW "
            f"demand_met={row['demand_met']:.4f}"
        )
    print(f"wrote {out / 'profit.csv'}")
    return 0


def cmd_generate_workload(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(_load_config(args.config), args)
    network = experiments.build_network(cfg)
    sessions = experiments.build_workload(cfg, network)
    save_dataset(sessions, args.out, network.nominal_voltage, cfg["period_minutes"])
    print(f"wrote {len(sessions)} sessions to {args.out}")
    return 0


def cmd_validate_dataset(args: argparse.Namespace) -> int:
    network = ChargingNetwork.load(args.network) if args.network else None
    sessions = load_dataset(args.file, network)
    total_request = sum(s.requested_energy for s in sessions)
    print(f"{args.file}: {len(sessions)} sessions ok")
    if sessions:
        horizon = max(s.departure for s in sessions)
        print(f"window {horizon} periods, total request {total_request:.1f} amp-periods")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="evsched", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, out_default: str) -> None:
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="override the config's RNG seed")
        p.add_argument("--out", default=out_default, help="output directory")

    p = sub.add_parser("simulate", help="run one algorithm over one workload")
    common(p, "out")
    p.add_argument("--dry-run", action="store_true", help="print the resolved config and exit")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("sweep-capacity", help="demand-met fraction across transformer sizes")
    common(p, "out")
    p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("profit", help="billed-profit comparison against the hindsight benchmark")
    common(p, "out")
    p.set_defaults(fn=cmd_profit)

    p = sub.add_parser("generate-workload", help="draw a synthetic session dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default="sessions.json", help="output JSON file")
    p.set_defaults(fn=cmd_generate_workload)

    p = sub.add_parser("validate-dataset", help="parse a session dataset and report")
    p.add_argument("--file", required=True)
    p.add_argument("--network", default=None, help="network JSON to check EVSE ids against")
    p.set_defaults(fn=cmd_validate_dataset)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (FileNotFoundError, ValueError, KeyError, RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
