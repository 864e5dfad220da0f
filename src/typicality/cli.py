"""Command-line interface.

Commands: subspace-info, bounds, experiment, spin-chain, purity-oracle.
Every default is declared once, on its flag.  The entries of a ``--config``
file are parsed as flags placed before the command line, so explicit flags
win.  The resolved config is echoed into every output artifact together with
the seed and a config hash.  Exit codes: 0 success, 2 argument/config errors
and allocations that do not fit in memory, 3 a bound row violated beyond
three standard errors, 4 I/O errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys

from . import experiments, spin_chain
from .bounds import finite, formula_rows, write_bound_table
from .errors import TypicalityError
from .linalg import DEFAULT_DIMENSION_CAP, INVARIANT_ATOL
from .subspace import canonical_ensemble

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BOUND_VIOLATION = 3
EXIT_IO = 4

_STDOUT_HELP = "file to write; - for stdout"


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and the parser of each command, by name."""
    parser = argparse.ArgumentParser(
        prog="typicality",
        description="Constrained-subspace ensembles, Haar sampling and concentration bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    add_command = functools.partial(
        sub.add_parser, formatter_class=argparse.ArgumentDefaultsHelpFormatter
    )

    def add_subspace_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--spin-chain", nargs=3, type=int, metavar=("N", "K", "NP"),
                       help="fixed-excitation chain: sites, system sites, excitations")
        p.add_argument("--full", nargs=2, type=int, metavar=("DS", "DE"),
                       help="unconstrained composite space")
        p.add_argument("--subspace-file", help="JSON subspace produced by this package")
        p.add_argument("--cap", type=int, default=DEFAULT_DIMENSION_CAP,
                       help="size cap: d_S*d_E of a dense basis file; d_S of a chain, a full "
                            "space or an index file, whose d_S*d_E stays within 2^26")

    p_info = add_command("subspace-info", help="dimensions and marginal purities")
    add_subspace_args(p_info)
    p_info.add_argument("--output", default="-", help=_STDOUT_HELP)
    p_info.add_argument("--format", choices=("json", "text"), default="text", help="output format")
    p_info.add_argument("--config", help="JSON config file; flags override")

    p_bounds = add_command("bounds", help="closed-form bound table, no sampling")
    p_bounds.add_argument("--d-s", type=int, required=True)
    p_bounds.add_argument("--d-r", type=int, required=True)
    p_bounds.add_argument("--d-eff", type=float, help="defaults to d_R / d_S")
    p_bounds.add_argument("--epsilon", type=float, action="append",
                          help="repeatable; defaults to d_R^(-1/3)")
    p_bounds.add_argument("--output", default="-", help=_STDOUT_HELP)
    p_bounds.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")

    p_exp = add_command("experiment", help="seeded Monte Carlo distance experiment")
    add_subspace_args(p_exp)
    p_exp.add_argument("--trials", type=int, default=1000, help="Monte Carlo trials")
    p_exp.add_argument("--seed", type=int)
    p_exp.add_argument("--epsilon", type=float)
    p_exp.add_argument("--xi", type=float,
                       help="typical-window half-width; adds the window filter bound row")
    p_exp.add_argument("--workers", type=int, default=1, help="worker processes")
    p_exp.add_argument("--output", default="experiment",
                       help="prefix for .csv and .json artifacts")
    p_exp.add_argument("--format", choices=("csv", "json", "both"), default="both",
                       help="artifacts to write")
    p_exp.add_argument("--config", help="JSON config file; flags override")

    p_chain = add_command("spin-chain", help="chain report: window, tails, bounds")
    p_chain.add_argument("--n", type=int, required=True)
    p_chain.add_argument("--k", type=int, required=True)
    p_chain.add_argument("--np", dest="num_excited", type=int, required=True)
    p_chain.add_argument("--xi", type=float, help="window half-width, default k^(2/3)")
    p_chain.add_argument("--epsilon", type=float, help="default d_R^(-1/3)")
    p_chain.add_argument("--output", default="-", help=_STDOUT_HELP)

    p_pur = add_command("purity-oracle", help="exact mean purity, optional MC cross-check")
    add_subspace_args(p_pur)
    p_pur.add_argument("--trials", type=int, help="Monte Carlo trials; none skips the check")
    p_pur.add_argument("--seed", type=int)
    p_pur.add_argument("--workers", type=int, default=1, help="worker processes")
    p_pur.add_argument("--output", default="-", help=_STDOUT_HELP)
    return parser, sub.choices


def _config_tokens(command: argparse.ArgumentParser, path: str) -> list[str]:
    """The entries of the JSON config object at ``path`` as the command's flags.

    A list value becomes the flag's arguments; ``null`` values and keys that
    name none of the command's flags are skipped.
    """
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise TypicalityError(f"config file {path} does not hold a JSON object")
    flags = {opt for action in command._actions if action.dest not in ("help", "config")
             for opt in action.option_strings}
    tokens: list[str] = []
    for key, value in data.items():
        flag = "--" + key.replace("_", "-")
        if value is None or flag not in flags:
            continue
        tokens += [flag, *map(str, value)] if isinstance(value, list) else [f"{flag}={value}"]
    return tokens


def _subspace_spec(args: argparse.Namespace) -> dict:
    given = [s for s in ("spin_chain", "full", "subspace_file") if getattr(args, s)]
    if len(given) != 1:
        raise TypicalityError(
            "exactly one of --spin-chain, --full, --subspace-file is required"
        )
    if args.spin_chain:
        n, k, np_ = args.spin_chain
        return {"kind": "spin-chain", "n": n, "k": k, "num_excited": np_}
    if args.full:
        ds, de = args.full
        return {"kind": "full", "dim_system": ds, "dim_environment": de}
    return {"kind": "file", "path": args.subspace_file}


def _cmd_subspace_info(args: argparse.Namespace) -> int:
    sub_ = experiments.resolve_subspace(_subspace_spec(args), cap=args.cap)
    info = experiments.subspace_info(canonical_ensemble(sub_))
    if args.format == "json":
        experiments.write_json(info, args.output)
    else:
        with experiments.output(args.output) as fh:
            for key, value in info.items():
                fh.write(f"{key}: {value}\n")
    return EXIT_OK


def _cmd_bounds(args: argparse.Namespace) -> int:
    d_s, d_r = args.d_s, args.d_r
    if d_s < 1 or d_r < 1:
        raise TypicalityError("--d-s and --d-r must be positive")
    # the sphere tails take 2 d_R as a float, the operator-basis and family tails 2 d_S^2
    finite("d_R (in 2 d_R)", lambda: float(2 * d_r))
    finite("d_S (in 2 d_S^2)", lambda: float(2 * d_s * d_s))
    d_eff = args.d_eff if args.d_eff is not None else d_r / d_s
    if not (math.isfinite(d_eff) and d_eff > 0):
        raise TypicalityError(f"--d-eff must be a finite positive number, got {d_eff!r}")

    rows = []
    for i, eps in enumerate(args.epsilon or [None]):
        for row in formula_rows(d_s, d_r, d_eff, eps):
            if i and row.epsilon is None:
                continue  # printed with the first epsilon
            eta, eta_prime = (row.bound, "") if row.threshold is None else (row.threshold, row.bound)
            rows.append({"d_S": d_s, "d_R": d_r, "d_E_eff": d_eff,
                         "epsilon": "" if row.epsilon is None else row.epsilon,
                         "eta": eta, "eta_prime": eta_prime, "source_formula": row.name})
    if args.format == "json":
        experiments.write_json(rows, args.output)
    else:
        with experiments.output(args.output) as fh:
            write_bound_table(rows, fh)
    return EXIT_OK


def _cmd_experiment(args: argparse.Namespace) -> int:
    if args.seed is None:
        raise TypicalityError("--seed is required for sampling commands")
    spec = _subspace_spec(args)
    filter_spec = None
    if args.xi is not None:
        filter_spec = {"kind": "typical-window", "half_width": args.xi}
    config = experiments.ExperimentConfig(
        subspace=spec,
        trials=args.trials,
        seed=args.seed,
        epsilon=args.epsilon,
        filter=filter_spec,
        workers=args.workers,
        cap=args.cap,
    )
    result = experiments.run_distance_experiment(config)
    if args.format in ("csv", "both"):
        with open(f"{args.output}.csv", "w", encoding="utf-8", newline="") as fh:
            experiments.write_trials_csv(fh, result)
    if args.format in ("json", "both"):
        experiments.write_summary_json(f"{args.output}.json", result)
    for row in result.bound_rows:
        status = "ok" if row.satisfied else "VIOLATED"
        extra = " (vacuous)" if row.vacuous else ""
        print(f"{row.name}: formula {row.formula_value:.6g}, "
              f"empirical {row.empirical_value:.6g} [{status}]{extra}")
    return EXIT_OK if result.all_bounds_satisfied else EXIT_BOUND_VIOLATION


def _cmd_spin_chain(args: argparse.Namespace) -> int:
    report = spin_chain.spin_chain_report(args.n, args.k, args.num_excited, args.xi, args.epsilon)
    experiments.write_json(dataclasses.asdict(report), args.output)
    return EXIT_OK


def _cmd_purity_oracle(args: argparse.Namespace) -> int:
    sub_ = experiments.resolve_subspace(_subspace_spec(args), cap=args.cap)
    exact = experiments.exact_average_purity(sub_)
    out = {"exact_average_purity": exact}
    status = EXIT_OK
    if args.trials is not None:
        if args.seed is None:
            raise TypicalityError("--seed is required for sampling commands")
        mean, se = experiments.mc_average_purity(sub_, args.trials, args.seed, workers=args.workers)
        z = 0.0 if se == 0 or abs(mean - exact) <= INVARIANT_ATOL else (mean - exact) / se
        out.update({"mc_mean": mean, "mc_standard_error": se, "z_score": z,
                    "trials": args.trials, "seed": args.seed})
        if abs(z) > 3.0:
            status = EXIT_BOUND_VIOLATION
    experiments.write_json(out, args.output)
    return status


_COMMANDS = {
    "subspace-info": _cmd_subspace_info,
    "bounds": _cmd_bounds,
    "experiment": _cmd_experiment,
    "spin-chain": _cmd_spin_chain,
    "purity-oracle": _cmd_purity_oracle,
}


def main(argv: list[str] | None = None) -> int:
    parser, commands = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None) is not None:
            # argv[0] is the command: the top-level parser takes no other argument
            tokens = _config_tokens(commands[args.command], args.config)
            args = parser.parse_args([args.command, *tokens, *argv[1:]])
        return _COMMANDS[args.command](args)
    except (TypicalityError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
