"""Command-line front end.

Subcommands: dimension, train, train-ensemble, eval, sweep, compare. Each
takes --config PATH (defaults to the bundled two-slice scenario), --seed N
(training/adversary/selection base seed), and --out DIR (run directory:
checkpoints at its top level, CSVs in per-command subdirectories).

Exit codes: 0 success, 1 validation error (bad flags, bad config), 2 runtime
error (missing artifacts, I/O failures, training blowups).
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import sys
from pathlib import Path

from . import paper_config_path
from .adversary import AttackConfig
from .config import ConfigParseError, ConfigValidationError, load_config
from .dimensioning import estimate_vnf_count
from .harness import (SCENARIO_NAMES, compare, compare_table, run_scenario,
                      sweep, train_defense_ensemble, train_single_models,
                      write_results)
from .metrics import format_value

DIMENSION_HEADER = ("slice_id", "alpha", "mu", "t_max", "vnf_count",
                    "total_delay")


class CliUsageError(ValueError):
    """Bad command line; reported with exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliUsageError(message)


def _shared_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=paper_config_path(),
                        help="scenario config file (default: bundled)")
    parser.add_argument("--seed", type=int, default=0,
                        help="base seed for training, the adversary, and "
                             "member selection (episode seeds come from the "
                             "config)")
    parser.add_argument("--out", default="artifacts",
                        help="run directory for checkpoints and CSVs")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="slice-arena",
                     description="Slice admission experiments.")
    subs = parser.add_subparsers(dest="command", required=True,
                                 parser_class=_Parser)

    p = subs.add_parser("dimension", help="closed-form VNF chain sizing")
    _shared_flags(p)
    p.set_defaults(func=cmd_dimension)

    p = subs.add_parser("train", help="train the clean and poisoned models")
    _shared_flags(p)
    p.add_argument("--steps", type=int, default=200_000,
                   help="environment steps per model")
    p.set_defaults(func=cmd_train)

    p = subs.add_parser("train-ensemble",
                        help="train the defense ensemble (one member poisoned)")
    _shared_flags(p)
    p.add_argument("--steps", type=int, default=240_000,
                   help="environment steps per member")
    p.set_defaults(func=cmd_train_ensemble)

    p = subs.add_parser("eval", help="run one scenario and write CSVs")
    _shared_flags(p)
    p.add_argument("--scenario", required=True, choices=SCENARIO_NAMES)
    p.set_defaults(func=cmd_eval)

    p = subs.add_parser("sweep", help="rerun scenarios across arrival means")
    _shared_flags(p)
    p.add_argument("--scenarios", default=",".join(SCENARIO_NAMES),
                   help="comma-separated scenario names")
    p.add_argument("--arrivals", default="",
                   help="comma-separated per-slice arrival means "
                        "(default: config sweep values)")
    p.set_defaults(func=cmd_sweep)

    p = subs.add_parser("compare", help="all five scenarios on shared seeds")
    _shared_flags(p)
    p.set_defaults(func=cmd_compare)
    return parser


def _attack(args) -> AttackConfig:
    return AttackConfig(seed=args.seed)


def cmd_dimension(args) -> int:
    config = load_config(args.config)
    rows = []
    for spec in config.slices:
        result = estimate_vnf_count(spec.profile)
        rows.append((spec.slice_id, spec.profile.mean_arrival_rate,
                     spec.profile.mean_service_rate, spec.profile.delay_budget,
                     result.vnf_count, result.total_delay))

    print(f"{'slice':<8} {'alpha':>8} {'mu':>8} {'t_max':>8} "
          f"{'chains':>7} {'delay':>9}")
    for sid, alpha, mu, t_max, count, delay in rows:
        print(f"{sid:<8} {alpha:>8.3f} {mu:>8.3f} {t_max:>8.3f} "
              f"{count:>7d} {delay:>9.4f}")

    print()
    cells = [DIMENSION_HEADER] + [[format_value(v) for v in row] for row in rows]
    csv.writer(sys.stdout, lineterminator="\n").writerows(cells)

    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "dimension.csv", "w", encoding="utf-8",
                  newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(cells)
    return 0


def cmd_train(args) -> int:
    config = load_config(args.config)
    clean, attacked = train_single_models(config, args.out, seed=args.seed,
                                          total_env_steps=args.steps,
                                          attack=_attack(args))
    print(f"wrote {clean}")
    print(f"wrote {attacked}")
    return 0


def cmd_train_ensemble(args) -> int:
    config = load_config(args.config)
    manifest = train_defense_ensemble(config, args.out, seed=args.seed,
                                      total_env_steps=args.steps,
                                      attack=_attack(args),
                                      selection_seed=args.seed)
    print(f"wrote {manifest}")
    return 0


def _print_aggregate(label: str, metrics) -> None:
    print(f"{label}: admission={metrics.admission_rate:.4f} "
          f"norm_power={metrics.mean_normalized_power:.4f} "
          f"slot_reward={metrics.mean_slot_reward:.2f} "
          f"attacked={metrics.attacked_fraction:.4f}")


def cmd_eval(args) -> int:
    config = load_config(args.config)
    result = run_scenario(args.scenario, config, artifacts=args.out,
                          attack=_attack(args), selection_seed=args.seed)
    metrics_path, summary_path = write_results(
        [result], Path(args.out) / f"eval-{args.scenario}", config)
    _print_aggregate(args.scenario, result.aggregate)
    print(f"wrote {metrics_path}")
    print(f"wrote {summary_path}")
    return 0


def cmd_sweep(args) -> int:
    config = load_config(args.config)
    scenarios = [s for s in args.scenarios.split(",") if s]
    if args.arrivals:
        config = dataclasses.replace(config, arrival_sweep=tuple(
            float(a) for a in args.arrivals.split(",") if a))
    points = sweep(config, scenarios=scenarios, artifacts=args.out,
                   attack=_attack(args), selection_seed=args.seed)
    metrics_path, summary_path = write_results(
        [p.result for p in points], Path(args.out) / "sweep", config)
    for point in points:
        _print_aggregate(f"{point.scenario}@a{point.arrival_mean:g}",
                         point.result.aggregate)
    print(f"wrote {metrics_path}")
    print(f"wrote {summary_path}")
    return 0


def cmd_compare(args) -> int:
    config = load_config(args.config)
    results = compare(config, artifacts=args.out, attack=_attack(args),
                      selection_seed=args.seed)
    print(compare_table(results))
    metrics_path, summary_path = write_results(
        results, Path(args.out) / "compare", config)
    print(f"wrote {metrics_path}")
    print(f"wrote {summary_path}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (CliUsageError, ConfigParseError, ConfigValidationError,
            ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (OSError, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
