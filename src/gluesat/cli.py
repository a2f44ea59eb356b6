"""Command-line solver for a single DIMACS instance.

Prints SAT-competition style output ("s SATISFIABLE" plus "v" model
lines, "s UNSATISFIABLE", or "s UNKNOWN") and exits 10 / 20 / 0
respectively; input or parse failures exit 1.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from contextlib import ExitStack
from typing import Optional, Sequence

from .formula import DimacsError, parse_dimacs
from .metrics import STATS_CSV_HEADER
from .proof import ProofWriter
from .solver import Solver, SolverConfig, Verdict

EXIT_SAT = 10
EXIT_UNSAT = 20
EXIT_UNKNOWN = 0
EXIT_ERROR = 1


def positive_seconds(text: str) -> float:
    """argparse type for a wall-clock budget: finite and > 0 seconds."""
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and > 0: {text!r}")
    return value


def positive_count(text: str) -> int:
    """argparse type for a count budget: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1: {text!r}")
    return value


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gluesat",
        description="CDCL SAT solver with optional glue-variable activity bumping",
    )
    ap.add_argument("cnf", help="path to a DIMACS CNF file")
    ap.add_argument(
        "--glue-bump",
        choices=["on", "off"],
        default="off",
        help="bump glue-variable activities on backtrack (default: off)",
    )
    ap.add_argument("--timeout", type=positive_seconds, default=None, metavar="S",
                    help="wall-clock budget in seconds for the whole run, reading "
                         "and parsing the input included; exceeding it yields UNKNOWN")
    ap.add_argument("--max-conflicts", type=positive_count, default=None, metavar="N",
                    help="conflict budget; exceeding it yields UNKNOWN")
    ap.add_argument("--proof", metavar="PATH", default=None,
                    help="write a DRAT proof stream to PATH")
    ap.add_argument("--stats-csv", metavar="PATH", default=None,
                    help="write a statistics CSV to PATH: the header plus one row")
    return ap


def config_from_args(args: argparse.Namespace) -> SolverConfig:
    """The search options the arguments ask for. --timeout is not among
    them: run_single turns it into the deadline it passes to solve()."""
    return SolverConfig(glue_bump=args.glue_bump == "on", max_conflicts=args.max_conflicts)


def write_stats_csv(fh, instance: str, verdict: str, wall: float, report) -> None:
    import csv  # only runs that ask for --stats-csv load the module

    w = csv.writer(fh)
    w.writerow(STATS_CSV_HEADER)
    w.writerow(report.csv_row(instance, verdict, wall))


def output_clash(
    inputs: Sequence[tuple[str, str]], outputs: Sequence[tuple[str, Optional[str]]]
) -> Optional[str]:
    """Why an output path would overwrite an input or an earlier output,
    compared after os.path.realpath; None when none would.

    Both take (name, path) pairs, the name being how the error message
    calls the file; an output path of None is not written and skipped.
    """
    taken = {os.path.realpath(path): name for name, path in inputs}
    for name, path in outputs:
        if path:
            real = os.path.realpath(path)
            if real in taken:
                return f"{name} {path} would overwrite {taken[real]}"
            taken[real] = f"the {name} output"
    return None


def print_model(model: list[int], out=sys.stdout) -> None:
    lits = model + [0]
    for i in range(0, len(lits), 20):
        print("v " + " ".join(str(x) for x in lits[i : i + 20]), file=out)


def run_single(argv: Optional[list[str]] = None, out=sys.stdout, err=sys.stderr) -> int:
    args = build_arg_parser().parse_args(argv)
    started = time.perf_counter()  # --timeout counts from here
    clash = output_clash(
        [("the input CNF", args.cnf)],
        [("--proof", args.proof), ("--stats-csv", args.stats_csv)],
    )
    if clash is not None:
        print(f"error: {clash}", file=err)
        return EXIT_ERROR
    try:
        with open(args.cnf, "rb") as fh:
            formula = parse_dimacs(fh)
    except (OSError, DimacsError) as e:
        print(f"error: {e}", file=err)
        return EXIT_ERROR

    with ExitStack() as stack:
        # Open every output before solving, so a bad path costs no solve.
        try:
            proof_fh = stack.enter_context(open(args.proof, "w")) if args.proof else None
            stats_fh = (
                stack.enter_context(open(args.stats_csv, "w", newline=""))
                if args.stats_csv
                else None
            )
        except OSError as e:
            print(f"error: {e}", file=err)
            return EXIT_ERROR
        proof = ProofWriter(proof_fh) if proof_fh is not None else None
        solver = Solver(formula, config_from_args(args), proof=proof)
        # Parsing and setup spend the same budget; a deadline already
        # past stops the solver before its first propagation.
        deadline = None if args.timeout is None else started + args.timeout
        result = solver.solve(deadline)
        if stats_fh is not None:
            write_stats_csv(
                stats_fh, args.cnf, result.verdict.value, result.elapsed_s, result.counters
            )

    c = result.counters
    print(f"c variables {formula.num_vars} clauses {len(formula.clauses)}", file=out)
    print(
        f"c decisions {c.decisions} propagations {c.propagations} "
        f"conflicts {c.conflicts} glue-clauses {c.glue_clauses} "
        f"restarts {result.restarts}",
        file=out,
    )
    if c.gf is not None:
        print(f"c glue-vars {c.glue_var_count} gf {c.gf:.4f}", file=out)
    print(f"c time {result.elapsed_s:.3f} s", file=out)
    print(f"s {result.verdict.value}", file=out)
    if result.verdict is Verdict.SAT:
        print_model(result.model, out=out)

    if result.verdict is Verdict.SAT:
        return EXIT_SAT
    if result.verdict is Verdict.UNSAT:
        return EXIT_UNSAT
    return EXIT_UNKNOWN


def main(argv: Optional[list[str]] = None) -> None:
    sys.exit(run_single(argv))


if __name__ == "__main__":
    main()
