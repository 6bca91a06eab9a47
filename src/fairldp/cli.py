"""Command-line entry point: design, perturb, evaluate, sweep, verify."""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigError, FairLdpError, NumericalFailure, SolverError
from .evaluation import Calibration
from .pipeline import (
    OVERRIDES,
    cmd_design,
    cmd_evaluate,
    cmd_perturb,
    cmd_sweep,
    cmd_verify,
    load_config,
    render_json,
    sweep_csv,
    trials_csv,
    write_json,
)

EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_DATA = 4


def _add_config_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="run config JSON file")
    parser.add_argument("--data", help="override: input CSV path")
    parser.add_argument("--mechanism", help="override: mechanism name")
    parser.add_argument("--epsilon", type=float, help="override: privacy budget")
    parser.add_argument("--zeta", type=float, help="override: error budget")
    parser.add_argument("--seed", type=int, help="override: root seed")
    parser.add_argument("--trials", type=int, help="override: number of trials")
    parser.add_argument(
        "--train-fraction", type=float, help="override: train split fraction"
    )
    parser.add_argument(
        "--calibration",
        choices=[c.value for c in Calibration],
        help="override: threshold calibration",
    )
    parser.add_argument(
        "--sensitive-as-feature",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="override: expose the sensitive column to the classifier",
    )
    parser.add_argument(
        "--skip-undefined-groups",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="override: warn and skip groups with undefined rates",
    )


def _overrides(args: argparse.Namespace) -> dict:
    return {key: value for key, value in vars(args).items() if key in OVERRIDES}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairldp",
        description=(
            "Design locally private, fairness-improving randomization for a "
            "sensitive CSV column and evaluate the downstream effect."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_design = sub.add_parser("design", help="design a mechanism and report it")
    _add_config_options(p_design)
    p_design.add_argument("--out", help="write the design report JSON here")

    p_perturb = sub.add_parser("perturb", help="rewrite the CSV with reports")
    _add_config_options(p_perturb)
    p_perturb.add_argument(
        "--mechanism-file", required=True, help="design report JSON to apply"
    )
    p_perturb.add_argument("--out", required=True, help="perturbed CSV path")

    p_eval = sub.add_parser("evaluate", help="run the trial loop and summarize")
    _add_config_options(p_eval)
    p_eval.add_argument("--out", help="write the evaluate report JSON here")
    p_eval.add_argument(
        "--out-csv", help="also write per-trial rows as CSV here"
    )

    p_sweep = sub.add_parser("sweep", help="evaluate across privacy budgets")
    _add_config_options(p_sweep)
    p_sweep.add_argument(
        "--epsilons",
        required=True,
        help="comma-separated privacy budgets, e.g. 0.5,1,2,4",
    )
    p_sweep.add_argument(
        "--mechanisms",
        help="comma-separated mechanism names (default: the configured one)",
    )
    p_sweep.add_argument("--out", help="write the sweep JSON here")
    p_sweep.add_argument("--out-csv", help="write the long-format table here")

    p_verify = sub.add_parser(
        "verify", help="re-audit an existing design (and evaluate) report"
    )
    p_verify.add_argument("design_report", help="design report JSON")
    p_verify.add_argument(
        "evaluate_report", nargs="?", default=None, help="evaluate report JSON"
    )
    return parser


def _emit(payload: dict, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(render_json(payload))


def _parse_list(text: str, what: str, parse=str) -> list:
    items = [part.strip() for part in text.split(",") if part.strip()]
    if not items:
        raise ConfigError(f"{what} list is empty")
    try:
        return [parse(part) for part in items]
    except ValueError as err:
        raise ConfigError(f"bad {what} list: {err}") from None


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "design":
            payload = cmd_design(load_config(args.config, _overrides(args)), args.out)
            _emit(payload, args.out)
        elif args.command == "perturb":
            payload = cmd_perturb(
                load_config(args.config, _overrides(args)),
                args.mechanism_file,
                args.out,
            )
            sys.stdout.write(render_json(payload))
        elif args.command == "evaluate":
            payload = cmd_evaluate(
                load_config(args.config, _overrides(args)),
                out_path=args.out,
            )
            if args.out_csv:
                with open(args.out_csv, "w", encoding="utf-8") as fh:
                    fh.write(trials_csv(payload))
            _emit(payload, args.out)
        elif args.command == "sweep":
            mechanisms = args.mechanisms
            if mechanisms is not None:
                mechanisms = _parse_list(mechanisms, "mechanism")
            payload = cmd_sweep(
                load_config(args.config, _overrides(args)),
                _parse_list(args.epsilons, "epsilon", float),
                mechanisms=mechanisms,
                out_path=args.out,
            )
            if args.out_csv:
                with open(args.out_csv, "w", encoding="utf-8") as fh:
                    fh.write(sweep_csv(payload))
            _emit(payload, args.out)
        else:
            payload = cmd_verify(args.design_report, args.evaluate_report)
            sys.stdout.write(render_json(payload))
            if not payload["ok"]:
                print("error: verification failed", file=sys.stderr)
                return EXIT_DATA
    except (FairLdpError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        if isinstance(err, NumericalFailure):
            for name, value in err.details().items():
                print(f"  {name}: {value}", file=sys.stderr)
        if isinstance(err, ConfigError):
            return EXIT_CONFIG
        return EXIT_SOLVER if isinstance(err, SolverError) else EXIT_DATA
    return 0
