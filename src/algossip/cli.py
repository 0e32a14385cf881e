"""Command-line front end.

Subcommands: ``run`` (one config), ``compare`` (several configs against
error thresholds), ``oracle`` (reference optimum for a config's instance),
``sweep`` (one config across seeds), and ``extract`` (two-column plot data
from a trace). Exit codes: 0 success, 2 config error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import sys

from . import harness
from .errors import ConfigError, MismatchError, NumericError
from .metrics import MetricsLog, write_atomic


def _parse_seeds(spec: str) -> list[int]:
    try:
        if ".." in spec:
            lo, hi = spec.split("..")
            return list(range(int(lo), int(hi) + 1))
        return [int(s) for s in spec.split(",") if s.strip()]
    except ValueError:
        raise ConfigError(f"--seeds must be a range 'a..b' or a comma list "
                          f"of integers, got {spec!r}") from None


def _cmd_run(args) -> int:
    res = harness.run(args.config, out_dir=args.out, seed=args.seed)
    final = res.log.rows[-1]
    print(f"{res.manifest['name']}: t={final.t} k={final.k} "
          f"tx={final.transmissions} err_f={final.err_f:.6g} "
          f"feasible={final.feasible}")
    return 0


def _cmd_compare(args) -> int:
    thresholds = [v for v in args.thresholds.split(",") if v.strip()]
    table = harness.compare(args.configs, thresholds, out_dir=args.out)
    print(f"{'config':<24}{'algo':<8}{'threshold':<12}{'transmissions':<16}k")
    for row in table:
        tx = row["transmissions"] if row["reached"] else "never"
        k = row["k"] if row["reached"] else "-"
        print(f"{row['config']:<24}{row['algorithm']:<8}"
              f"{row['threshold']:<12g}{str(tx):<16}{k}")
    return 0


def _cmd_oracle(args) -> int:
    record = harness.oracle(args.config, out_dir=args.out,
                            budget=args.budget)
    source = "cache" if record["cached"] else "solve"
    print(f"fstar={record['fstar']:.12g} ({source}) "
          f"instance={record['instance_hash'][:16]}")
    return 0


def _cmd_sweep(args) -> int:
    rows = harness.sweep(args.config, _parse_seeds(args.seeds),
                         out_dir=args.out)
    print(f"{'seed':<8}{'err_f':<16}{'transmissions':<16}feasible")
    for r in rows:
        print(f"{r['seed']:<8}{r['err_f']:<16.6g}"
              f"{r['transmissions']:<16}{r['feasible']}")
    return 0


def _cmd_extract(args) -> int:
    try:
        log = MetricsLog.from_csv(args.trace)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read trace {args.trace}: {exc}") from None
    lines = [f"{getattr(r, args.x)} {r.err_f:.17g}" for r in log.rows]
    text = "\n".join(lines) + "\n"
    if args.out:
        write_atomic(args.out, lambda fh: fh.write(text))
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="algossip",
        description="Gossip-based augmented-Lagrangian optimization runs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="execute one configured run")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("compare", help="transmissions-to-threshold table")
    p.add_argument("--configs", nargs="+", required=True)
    p.add_argument("--thresholds", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("oracle", help="reference optimum for an instance")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--budget", type=int, default=200000)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("sweep", help="one config across seeds")
    p.add_argument("--config", required=True)
    p.add_argument("--seeds", required=True,
                   help="range '0..19' or comma list '0,3,7'")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("extract", help="two-column plot data from a trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--x", choices=("transmissions", "flops", "k"),
                   default="transmissions")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_extract)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, MismatchError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
