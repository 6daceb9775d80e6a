"""Command line front end.

Subcommands: solve, optimum, poa, batch, sweep, verify, oracle. Data
goes to stdout, diagnostics to stderr. Exit codes: 0 success (and
verified equilibria), 1 failed verification, 2 usage error, 3 bad input,
4 solver non-convergence. Numeric display is fixed to 6 decimals; file
output keeps full precision.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Sequence

import numpy as np

from . import formats, oracle, solver
from .batch import MechanismError, batch_sweep, mechanism_pipeline
from .model import VERIFY_TOL, Game, social_cost
from .solver import ConvergenceError, SolverParams, _solve_pair, potential, solve, wardrop_gap


def _positive_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _parse_n_list(text: str) -> list[int]:
    """Comma list of batch counts; a '...' token continues the progression
    of the two preceding values (geometric when divisible, else
    arithmetic) up to the value that follows it."""
    tokens = [tok.strip() for tok in text.split(",") if tok.strip()]
    values: list[int] = []
    for pos, token in enumerate(tokens):
        if token == "...":
            if len(values) < 2 or pos + 1 >= len(tokens) or tokens[pos + 1] == "...":
                raise argparse.ArgumentTypeError("'...' needs two values before and one after")
            try:
                terminator = int(tokens[pos + 1])
            except ValueError:
                raise argparse.ArgumentTypeError(f"bad count {tokens[pos + 1]!r}") from None
            a, b = values[-2], values[-1]
            if a >= 1 and b % a == 0 and b // a >= 2:
                step = b // a
                value = b * step
                while value < terminator:
                    values.append(value)
                    value *= step
            elif b > a:
                step = b - a
                value = b + step
                while value < terminator:
                    values.append(value)
                    value += step
            else:
                raise argparse.ArgumentTypeError(f"cannot continue progression {a},{b},...")
            if value != terminator:
                raise argparse.ArgumentTypeError(
                    f"progression from {a},{b} does not reach {terminator}"
                )
        else:
            try:
                count = int(token)
            except ValueError:
                raise argparse.ArgumentTypeError(f"bad count {token!r}") from None
            if count < 1:
                raise argparse.ArgumentTypeError(f"counts must be >= 1, got {count}")
            values.append(count)
    if not values:
        raise argparse.ArgumentTypeError("empty count list")
    return sorted(set(values))


def _solver_params(args: argparse.Namespace) -> SolverParams:
    return SolverParams(args.max_iterations, args.gap_tol)


def _cmd_solve(game: Game, args: argparse.Namespace) -> int:
    result = solve(game, args.mode, _solver_params(args))
    print(f"social cost: {result.social_cost_original:.6f}")
    print(f"relative gap: {result.relative_gap:.6f}")
    print(f"iterations: {result.iterations}")
    if args.out:
        formats.save_solve_result(result, args.out)
    return 0


def _cmd_optimum(game: Game, args: argparse.Namespace) -> int:
    result = solve(game, "marginal", _solver_params(args))
    print(f"optimal social cost: {result.social_cost_original:.6f}")
    if args.out:
        formats.save_solve_result(result, args.out)
    return 0


def _cmd_poa(game: Game, args: argparse.Namespace) -> int:
    optimal, selfish, ratio = _solve_pair(game, _solver_params(args))
    print(f"equilibrium social cost: {selfish.social_cost_original:.6f}")
    print(f"optimal social cost: {optimal.social_cost_original:.6f}")
    if ratio is None:
        raise ValueError("price of anarchy undefined: optimal social cost is zero")
    print(f"price of anarchy: {ratio:.6f}")
    return 0


def _cmd_batch(game: Game, args: argparse.Namespace) -> int:
    outcome = mechanism_pipeline(game, args.epsilon, _solver_params(args))
    report = outcome.batch_report
    for edge_id, row in report.per_edge.items():
        print(
            f"edge {edge_id}: N={row.count} batch_cost={row.batch_cost:.6f} "
            f"gap={row.gap:.6f}"
        )
    print(f"batch social cost: {report.total_batch_cost:.6f}")
    print(f"social cost: {report.total_original_cost:.6f}")
    print(f"gap: {report.total_gap:.6f}")
    # Every optimum that solve returns is a batch equilibrium (see mechanism_pipeline).
    print("equilibrium: true")
    if outcome.price_of_anarchy is None:
        print("price of anarchy: undefined")
    else:
        print(f"price of anarchy: {outcome.price_of_anarchy:.6f}")
    if args.report:
        formats.save_batch_report_csv(report, args.report)
    return 0


def _cmd_sweep(game: Game, args: argparse.Namespace) -> int:
    optimum = solve(game, "marginal", _solver_params(args))
    print("N,batch_cost,gap")
    for count, cost, gap in batch_sweep(game, optimum.flow, args.n_list):
        print(f"{count},{cost!r},{gap!r}")
    return 0


def _cmd_verify(game: Game, args: argparse.Namespace) -> int:
    flow = formats.load_flow(args.flow, game)
    # The batch verdict is the marginal one, whatever the batch counts
    # (see mechanism_pipeline).
    violation = wardrop_gap(game, flow, "original" if args.mode == "wardrop" else "marginal")
    print(f"max violation: {violation:.6f}")
    return 0 if violation <= args.tol else 1


def _cmd_oracle(game: Game, args: argparse.Namespace) -> int:
    flow = oracle.grid_search_equilibrium(game, args.resolution, args.mode)
    for (type_id, index), amount in sorted(flow.amounts.items()):
        print(f"type {type_id} strategy {index}: {amount:.6f}")
    print(f"potential: {potential(game, flow, args.mode):.6f}")
    print(f"social cost: {social_cost(game, flow):.6f}")
    return 0


def _add_solver_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--max-iterations", type=_positive_int,
                        default=SolverParams.max_iterations)
    parser.add_argument("--gap-tol", type=_positive_float,
                        default=SolverParams.relative_gap_tol,
                        help="stop at sum f*(cost - type's cheapest)/|potential|, "
                        "once no used strategy costs more than verify's default "
                        "--tol above its type's cheapest")


def build_parser() -> argparse.ArgumentParser:
    return _build_parsers()[0]


def _build_parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser, and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="wardrop",
        description="Wardrop equilibria, social optima and batch pricing "
        "for congestion games over explicit strategy sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="compute an equilibrium or optimum flow")
    p_solve.add_argument("game")
    p_solve.add_argument("--mode", choices=solver.MODES, default="original")
    p_solve.add_argument("--out", default=None, help="write the flow as JSON")
    _add_solver_options(p_solve)
    p_solve.set_defaults(func=_cmd_solve)

    p_opt = sub.add_parser("optimum", help="compute the social optimum cost")
    p_opt.add_argument("game")
    p_opt.add_argument("--out", default=None, help="write the flow as JSON")
    _add_solver_options(p_opt)
    p_opt.set_defaults(func=_cmd_optimum)

    p_poa = sub.add_parser("poa", help="equilibrium cost, optimum cost and their ratio")
    p_poa.add_argument("game")
    _add_solver_options(p_poa)
    p_poa.set_defaults(func=_cmd_poa)

    p_batch = sub.add_parser("batch", help="run the batch mechanism end to end")
    p_batch.add_argument("game")
    p_batch.add_argument("--epsilon", type=_positive_float, required=True,
                         help="allowed batch cost overshoot")
    p_batch.add_argument("--report", default=None, help="write the per-edge report as CSV")
    _add_solver_options(p_batch)
    p_batch.set_defaults(func=_cmd_batch)

    p_sweep = sub.add_parser("sweep", help="batch cost vs uniform batch count, as CSV")
    p_sweep.add_argument("game")
    p_sweep.add_argument("--n-list", type=_parse_n_list, required=True,
                         help="comma list, '...' continues the progression: 1,2,4,...,1024")
    _add_solver_options(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_verify = sub.add_parser("verify", help="check a flow file for equilibrium")
    p_verify.add_argument("game")
    p_verify.add_argument("flow")
    p_verify.add_argument("--mode", choices=("wardrop", "marginal", "batch"),
                          default="wardrop")
    p_verify.add_argument("--tol", type=_positive_float, default=VERIFY_TOL)
    p_verify.set_defaults(func=_cmd_verify)

    p_oracle = sub.add_parser("oracle", help="brute-force equilibrium by grid search")
    p_oracle.add_argument("game")
    p_oracle.add_argument("--resolution", type=_positive_float, default=1e-3)
    p_oracle.add_argument("--mode", choices=solver.MODES, default="original")
    p_oracle.set_defaults(func=_cmd_oracle)

    return parser, sub.choices


# The parsers `run` reuses: building the subcommand tree costs about
# twenty parses, so it is built once, on first use.
_parsers = functools.cache(_build_parsers)


def _parse(argv: Sequence[str]) -> argparse.Namespace:
    """argv parsed as the top-level parser would, in one pass: a command's
    arguments go straight to its own parser. Anything that does not start
    with a command name, help included, goes to the top-level parser."""
    parser, commands = _parsers()
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:])
    if extras:
        # The top-level parser reports what the command left, as its own
        # parse_args would.
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def run(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # Overflow and the NaNs it breeds end as exit 4 or a printed nan;
        # numpy's warnings about them would only repeat that on stderr.
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(formats.load_game(args.game), args)
    except (ConvergenceError, MechanismError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError, MemoryError) as exc:
        # formats.FormatError and GameValidationError are ValueErrors; a
        # game too large for memory is bad input too.
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
