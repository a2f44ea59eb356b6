"""Corpus harness: baseline vs glue-bump A/B runs with PAR-2 scoring.

`gluesat-bench` runs both `default_configs` on every listed instance;
`run_corpus` takes any named configs, and builds the solved-difference
series only when both `baseline` and `gb` are among them.

At most `jobs` worker processes run the (instance, config) pairs. Each
worker is forked once and solves task after task, sent over its own
duplex pipe, until the harness closes its end or dies; a worker that is
hard-killed or exits without a result is replaced by a new one for the
next task.
A task has one clock, started before its input is opened: its wall time
covers reading, parsing, building and solving, and its solver's deadline
is that start plus the timeout, so the solver gives up cleanly between
propagation rounds. A hard kill at timeout plus a grace period, counted
from when the task was sent, catches runaways. The harness blocks on the
busy workers' pipes until one turns readable (the worker's RunRecord, or
EOF from a worker that died) or the earliest kill deadline passes.
Unsolved instances score twice the timeout (PAR-2, reported as a sum
over instances). A cumulative series of solved(gb, <=t) -
solved(baseline, <=t) over a time grid supports solve-time difference
plots.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import sys
import time
import warnings
from bisect import bisect_right
from collections import deque
from multiprocessing.connection import wait
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, NamedTuple, NoReturn, Optional, Sequence

from .formula import parse_dimacs
from .metrics import STATS_COLUMNS, MetricsReport
from .solver import Solver, SolverConfig

# argparse, csv and .cli are imported where they are used, so that
# importing the harness as a library loads none of them.
if TYPE_CHECKING:
    import argparse

SOLVED_VERDICTS = ("SATISFIABLE", "UNSATISFIABLE")
HARD_KILL_GRACE_S = 5.0
SERIES_POINTS = 100

RECORDS_CSV_HEADER = (
    ["instance", "config", "verdict", "wall_time_s", "timeout_s"] + STATS_COLUMNS + ["error"]
)
SUMMARY_CSV_HEADER = ["config", "solved_sat", "solved_unsat", "par2_sum_s"]
SERIES_CSV_HEADER = ["time_s", "solved_diff"]


class RunRecord(NamedTuple):
    instance: str
    config: str
    verdict: str  # SATISFIABLE / UNSATISFIABLE / UNKNOWN / ERROR
    wall_time_s: float
    timeout_s: float
    report: Optional[MetricsReport] = None
    error: str = ""

    @property
    def solved(self) -> bool:
        return self.verdict in SOLVED_VERDICTS

    def csv_row(self) -> list[str]:
        stats = [""] * len(STATS_COLUMNS) if self.report is None else self.report.csv_cells()
        return [
            self.instance,
            self.config,
            self.verdict,
            repr(self.wall_time_s),
            repr(self.timeout_s),
            *stats,
            self.error,
        ]


class Par2Summary(NamedTuple):
    config: str
    solved_sat: int
    solved_unsat: int
    par2_s: float


class CorpusResult(NamedTuple):
    records: list[RunRecord]
    summaries: list[Par2Summary]
    series: list[tuple[float, int]]


def default_configs(max_conflicts: Optional[int] = None) -> dict[str, SolverConfig]:
    return {
        "baseline": SolverConfig(glue_bump=False, max_conflicts=max_conflicts),
        "gb": SolverConfig(glue_bump=True, max_conflicts=max_conflicts),
    }


def read_manifest(path: str | Path) -> list[str]:
    """Instance paths, one per line; blank lines and '#' comments ignored.
    Relative paths resolve against the manifest's directory."""
    base = Path(path).parent
    out = []
    for line in Path(path).read_text().splitlines():
        s = line.strip()
        if not s or s.startswith("#"):
            continue
        p = Path(s)
        out.append(str(p if p.is_absolute() else base / p))
    return out


def _solve_worker(inst: str, name: str, config: SolverConfig, timeout_s: float) -> RunRecord:
    """Solve one instance into its RunRecord. One clock, started before
    the file is opened, gives both the budget of timeout_s and the
    record's wall time, so parsing and building count in each."""
    t0 = time.perf_counter()
    try:
        with open(inst, "rb") as fh:
            formula = parse_dimacs(fh)
        result = Solver(formula, config).solve(t0 + timeout_s)
        verdict, report, error = result.verdict.value, result.counters, ""
    except Exception as e:  # report parse/IO failures as errored records
        verdict, report, error = "ERROR", None, f"{type(e).__name__}: {e}"
    wall = time.perf_counter() - t0
    return RunRecord(inst, name, verdict, wall, timeout_s, report, error)


def _worker_loop(conn, harness_ends) -> None:
    """Solve the tasks sent over conn until the harness closes its end or
    dies. `harness_ends` are the harness's pipe ends this worker was
    forked with, its own included; once they are closed here, the
    harness's close or death reads EOF, or fails the send of a result
    (on a socketpair, possibly as a reset connection)."""
    for end in harness_ends:
        end.close()
    try:
        while True:
            conn.send(_solve_worker(*conn.recv()))
    except (EOFError, OSError):
        return


def run_corpus(
    instances: Sequence[str | Path],
    configs: dict[str, SolverConfig],
    timeout_s: float = 60.0,
    jobs: int = 1,
) -> CorpusResult:
    """Run every config on every instance and aggregate.

    Raises RuntimeError if two configs disagree SAT vs UNSAT on the same
    instance — that is a solver bug, not a benchmark outcome.
    """
    records: list[RunRecord] = []
    pending = deque(
        (str(inst), name) for inst in instances for name in sorted(configs)
    )
    idle: list = []  # (process, task pipe) of each worker waiting for a task
    running: dict = {}  # task pipe -> (process, instance, config, send time)
    kill_after = timeout_s + HARD_KILL_GRACE_S

    try:
        while pending or running:
            while pending and len(running) < max(1, jobs):
                inst, name = pending.popleft()
                if not os.path.isfile(inst):
                    warnings.warn(f"missing instance {inst}: excluded from PAR-2")
                    records.append(
                        RunRecord(inst, name, "ERROR", 0.0, timeout_s, error="missing file")
                    )
                    continue
                if idle:
                    proc, conn = idle.pop()
                else:
                    conn, child_conn = mp.Pipe()
                    # The worker closes its copies of the harness's ends: its
                    # own and, as no worker is idle here, the busy ones'.
                    proc = mp.Process(target=_worker_loop, args=(child_conn, [conn, *running]))
                    proc.start()
                    child_conn.close()
                running[conn] = (proc, inst, name, time.monotonic())
                conn.send((inst, name, configs[name], timeout_s))
            if not running:
                continue

            # A pipe turns readable when its worker sends a result or exits.
            first_kill = min(start for *_, start in running.values()) + kill_after
            ready = wait(list(running), timeout=max(0.0, first_kill - time.monotonic()))
            now = time.monotonic()
            for conn, (proc, inst, name, start) in list(running.items()):
                if conn in ready:
                    try:
                        records.append(conn.recv())
                    except EOFError:  # the worker exited without a result
                        records.append(RunRecord(
                            inst, name, "ERROR", 0.0, timeout_s, error="worker pipe closed"
                        ))
                    else:
                        idle.append((proc, conn))
                        del running[conn]
                        continue
                elif now - start >= kill_after:
                    proc.terminate()
                    records.append(RunRecord(
                        inst, name, "UNKNOWN", now - start, timeout_s, error="hard timeout"
                    ))
                else:
                    continue
                # The worker is gone or going; the next task gets a new one.
                del running[conn]
                proc.join()
                conn.close()
    finally:
        # A busy worker is killed mid-task; an idle one returns once its pipe closes.
        for proc, *_ in running.values():
            proc.terminate()
        for proc, conn in idle + [(proc, conn) for conn, (proc, *_) in running.items()]:
            conn.close()
            proc.join()

    records.sort(key=lambda r: (r.instance, r.config))
    _check_verdict_agreement(records)
    summaries = par2_summaries(records, timeout_s, sorted(configs))
    series = []
    if configs.keys() >= {"baseline", "gb"}:
        series = solved_diff_series(records, timeout_s)
    return CorpusResult(records, summaries, series)


def _check_verdict_agreement(records: list[RunRecord]) -> None:
    by_instance: dict[str, set[str]] = {}
    for r in records:
        by_instance.setdefault(r.instance, set()).add(r.verdict)
    for inst, verdicts in by_instance.items():
        if "SATISFIABLE" in verdicts and "UNSATISFIABLE" in verdicts:
            raise RuntimeError(f"contradictory verdicts on {inst}: {sorted(verdicts)}")


def par2_summaries(
    records: Sequence[RunRecord], timeout_s: float, config_names: Sequence[str]
) -> list[Par2Summary]:
    """PAR-2 per config: solved runs count their wall time, unsolved
    (UNKNOWN) runs 2x timeout, errored records are excluded."""
    out = []
    for name in config_names:
        scored = [r for r in records if r.config == name and r.verdict != "ERROR"]
        par2 = 0.0
        for r in scored:  # records are sorted; summation order is fixed
            par2 += r.wall_time_s if r.solved else 2.0 * timeout_s
        sat = sum(r.verdict == "SATISFIABLE" for r in scored)
        unsat = sum(r.verdict == "UNSATISFIABLE" for r in scored)
        out.append(Par2Summary(name, sat, unsat, par2))
    return out


def solved_diff_series(
    records: Sequence[RunRecord], timeout_s: float
) -> list[tuple[float, int]]:
    """solved(gb, <=t) - solved(baseline, <=t) on a grid of SERIES_POINTS
    equal steps from 0 to timeout_s."""
    gb_times = sorted(r.wall_time_s for r in records if r.config == "gb" and r.solved)
    base_times = sorted(r.wall_time_s for r in records if r.config == "baseline" and r.solved)

    series = []
    for i in range(SERIES_POINTS + 1):
        t = timeout_s * i / SERIES_POINTS
        series.append((t, bisect_right(gb_times, t) - bisect_right(base_times, t)))
    return series


# ---- CSV output ------------------------------------------------------------


def _write_csv(path: str | Path, header: list[str], rows: Iterable[list]) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def write_records_csv(path: str | Path, records: Sequence[RunRecord]) -> None:
    _write_csv(path, RECORDS_CSV_HEADER, (r.csv_row() for r in records))


def write_summary_csv(path: str | Path, summaries: Sequence[Par2Summary]) -> None:
    rows = ([s.config, s.solved_sat, s.solved_unsat, repr(s.par2_s)] for s in summaries)
    _write_csv(path, SUMMARY_CSV_HEADER, rows)


def write_series_csv(path: str | Path, series: Sequence[tuple[float, int]]) -> None:
    """The solved-difference series, one row per grid point."""
    _write_csv(path, SERIES_CSV_HEADER, ([repr(t), diff] for t, diff in series))


# ---- CLI --------------------------------------------------------------------


def build_arg_parser() -> argparse.ArgumentParser:
    import argparse

    from .cli import positive_count, positive_seconds

    ap = argparse.ArgumentParser(
        prog="gluesat-bench",
        description="A/B benchmark harness (baseline vs glue-bump) with PAR-2 scoring",
    )
    ap.add_argument("--manifest", required=True, metavar="PATH",
                    help="file listing one DIMACS instance path per line")
    ap.add_argument("--out-dir", required=True, metavar="DIR",
                    help="directory for records.csv, summary.csv, series.csv")
    ap.add_argument("--timeout", type=positive_seconds, default=60.0, metavar="S",
                    help="wall-clock budget per run, reading and parsing the "
                         "input included (default 60)")
    ap.add_argument("--max-conflicts", type=positive_count, default=None, metavar="N",
                    help="per-solve conflict budget (deterministic runs)")
    ap.add_argument("--jobs", type=positive_count, default=1, metavar="N",
                    help="concurrent solver processes (default 1)")
    return ap


def _fail(message: object) -> NoReturn:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(1)


def main(argv: Optional[list[str]] = None) -> None:
    from .cli import output_clash

    args = build_arg_parser().parse_args(argv)

    # Fail on a bad manifest, an output that would overwrite an input or
    # a bad output directory before any solving or writing.
    out_dir = Path(args.out_dir)
    try:
        instances = read_manifest(args.manifest)
    except (OSError, UnicodeDecodeError) as e:
        _fail(e)
    clash = output_clash(
        [("the manifest", args.manifest)] + [("a listed instance", p) for p in instances],
        [(name, str(out_dir / name)) for name in ("records.csv", "summary.csv", "series.csv")],
    )
    if clash is not None:
        _fail(clash)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        _fail(e)
    configs = default_configs(max_conflicts=args.max_conflicts)
    result = run_corpus(instances, configs, timeout_s=args.timeout, jobs=args.jobs)

    write_records_csv(out_dir / "records.csv", result.records)
    write_summary_csv(out_dir / "summary.csv", result.summaries)
    write_series_csv(out_dir / "series.csv", result.series)

    for s in result.summaries:
        print(
            f"{s.config}: sat {s.solved_sat}  unsat {s.solved_unsat}  "
            f"par2 {s.par2_s:.2f} s"
        )


if __name__ == "__main__":
    main()
