"""Corpus harness: baseline vs glue-bump A/B runs with PAR-2 scoring.

Each (instance, config) pair solves in its own worker process under a
wall-clock timeout; the solver also sees the timeout so it can give up
cleanly between propagation rounds, and a hard kill at timeout plus a
grace period catches runaways. The harness blocks on the running
workers' result pipes until one turns readable (a result, or EOF from a
worker that died) or the earliest kill deadline passes. Unsolved
instances score twice the timeout (PAR-2, reported as a sum over
instances). A cumulative series of solved(gb, <=t) - solved(baseline,
<=t) over a time grid supports solve-time difference plots.
"""

from __future__ import annotations

import argparse
import csv
import multiprocessing as mp
import os
import sys
import time
import warnings
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, replace
from multiprocessing.connection import wait
from pathlib import Path
from typing import Optional, Sequence

from .cli import positive_count, positive_seconds
from .formula import parse_dimacs
from .metrics import STATS_CSV_HEADER, MetricsReport
from .solver import Solver, SolverConfig

SOLVED_VERDICTS = ("SATISFIABLE", "UNSATISFIABLE")
HARD_KILL_GRACE_S = 5.0
SERIES_POINTS = 100

RECORDS_CSV_HEADER = (
    ["instance", "config", "verdict", "wall_time_s", "timeout_s"]
    + STATS_CSV_HEADER[3:]
    + ["error"]
)
SUMMARY_CSV_HEADER = ["config", "solved_sat", "solved_unsat", "par2_sum_s"]
SERIES_CSV_HEADER = ["time_s", "solved_diff"]


@dataclass
class RunRecord:
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
        head = [
            self.instance,
            self.config,
            self.verdict,
            repr(self.wall_time_s),
            repr(self.timeout_s),
        ]
        if self.report is None:
            stats = [""] * len(STATS_CSV_HEADER[3:])
        else:
            stats = self.report.csv_row("", "", 0.0)[3:]
        return head + stats + [self.error]


@dataclass
class Par2Summary:
    config: str
    solved_sat: int
    solved_unsat: int
    par2_s: float


@dataclass
class CorpusResult:
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


def _solve_worker(conn, path: str, config: SolverConfig) -> None:
    t0 = time.perf_counter()
    try:
        with open(path, "rb") as fh:
            formula = parse_dimacs(fh)
        result = Solver(formula, config).solve()
        conn.send(
            {
                "verdict": result.verdict.value,
                "wall": result.elapsed_s,
                "report": result.report,
            }
        )
    except Exception as e:  # report parse/IO failures as errored records
        conn.send(
            {
                "verdict": "ERROR",
                "wall": time.perf_counter() - t0,
                "error": f"{type(e).__name__}: {e}",
            }
        )
    finally:
        conn.close()


def run_corpus(
    instances: Sequence[str | Path],
    configs: dict[str, SolverConfig],
    timeout_s: float = 60.0,
    jobs: int = 1,
    grace_s: float = HARD_KILL_GRACE_S,
) -> CorpusResult:
    """Run every config on every instance and aggregate.

    Raises RuntimeError if two configs disagree SAT vs UNSAT on the same
    instance — that is a solver bug, not a benchmark outcome.
    """
    records: list[RunRecord] = []
    pending = deque(
        (str(inst), name) for inst in instances for name in sorted(configs)
    )
    running: dict = {}  # result pipe -> (process, instance, config, spawn time)
    kill_after = timeout_s + grace_s

    while pending or running:
        while pending and len(running) < max(1, jobs):
            inst, name = pending.popleft()
            if not os.path.isfile(inst):
                warnings.warn(f"missing instance {inst}: excluded from PAR-2")
                records.append(
                    RunRecord(inst, name, "ERROR", 0.0, timeout_s, None, "missing file")
                )
                continue
            cfg = replace(configs[name], time_limit_s=timeout_s)
            conn, child_conn = mp.Pipe(duplex=False)
            proc = mp.Process(target=_solve_worker, args=(child_conn, inst, cfg))
            proc.start()
            child_conn.close()
            running[conn] = (proc, inst, name, time.monotonic())
        if not running:
            continue

        # A pipe turns readable when its worker sends a result or exits.
        first_kill = min(start for *_, start in running.values()) + kill_after
        ready = wait(list(running), timeout=max(0.0, first_kill - time.monotonic()))
        now = time.monotonic()
        for conn, (proc, inst, name, start) in list(running.items()):
            if conn in ready:
                try:
                    msg = conn.recv()
                except EOFError:  # the worker exited without a result
                    msg = {"verdict": "ERROR", "wall": 0.0, "error": "worker pipe closed"}
            elif now - start >= kill_after:
                proc.terminate()
                msg = {"verdict": "UNKNOWN", "wall": now - start, "error": "hard timeout"}
            else:
                continue
            proc.join()
            conn.close()
            del running[conn]
            records.append(
                RunRecord(
                    inst, name, msg["verdict"], msg["wall"], timeout_s,
                    msg.get("report"), msg.get("error", ""),
                )
            )

    records.sort(key=lambda r: (r.instance, r.config))
    _check_verdict_agreement(records)
    summaries = par2_summaries(records, timeout_s, sorted(configs))
    series = []
    if "baseline" in configs and "gb" in configs:
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
        sat = unsat = 0
        par2 = 0.0
        for r in records:  # records are sorted; summation order is fixed
            if r.config != name or r.verdict == "ERROR":
                continue
            if r.verdict == "SATISFIABLE":
                sat += 1
                par2 += r.wall_time_s
            elif r.verdict == "UNSATISFIABLE":
                unsat += 1
                par2 += r.wall_time_s
            else:
                par2 += 2.0 * timeout_s
        out.append(Par2Summary(name, sat, unsat, par2))
    return out


def solved_diff_series(
    records: Sequence[RunRecord],
    timeout_s: float,
    points: int = SERIES_POINTS,
) -> list[tuple[float, int]]:
    """solved(gb, <=t) - solved(baseline, <=t) on a uniform time grid."""
    gb_times = sorted(r.wall_time_s for r in records if r.config == "gb" and r.solved)
    base_times = sorted(r.wall_time_s for r in records if r.config == "baseline" and r.solved)

    series = []
    for i in range(points + 1):
        t = timeout_s * i / points
        series.append((t, bisect_right(gb_times, t) - bisect_right(base_times, t)))
    return series


# ---- CSV output ------------------------------------------------------------


def write_records_csv(path: str | Path, records: Sequence[RunRecord]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(RECORDS_CSV_HEADER)
        for r in records:
            w.writerow(r.csv_row())


def write_summary_csv(path: str | Path, summaries: Sequence[Par2Summary]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(SUMMARY_CSV_HEADER)
        for s in summaries:
            w.writerow([s.config, s.solved_sat, s.solved_unsat, repr(s.par2_s)])


def write_series_csv(path: str | Path, series: Sequence[tuple[float, int]]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(SERIES_CSV_HEADER)
        for t, diff in series:
            w.writerow([repr(t), diff])


def recompute_par2_from_csv(
    path: str | Path, timeout_s: float
) -> dict[str, float]:
    """Independent PAR-2 recount from a records CSV (same row order)."""
    out: dict[str, float] = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            cfg = row["config"]
            if row["verdict"] == "ERROR":
                continue
            out.setdefault(cfg, 0.0)
            if row["verdict"] in SOLVED_VERDICTS:
                out[cfg] += float(row["wall_time_s"])
            else:
                out[cfg] += 2.0 * timeout_s
    return out


# ---- CLI --------------------------------------------------------------------


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gluesat-bench",
        description="A/B benchmark harness (baseline vs glue-bump) with PAR-2 scoring",
    )
    ap.add_argument("--manifest", required=True, metavar="PATH",
                    help="file listing one DIMACS instance path per line")
    ap.add_argument("--out-dir", required=True, metavar="DIR",
                    help="directory for records.csv, summary.csv, series.csv")
    ap.add_argument("--timeout", type=positive_seconds, default=60.0, metavar="S",
                    help="per-solve wall clock budget (default 60)")
    ap.add_argument("--max-conflicts", type=positive_count, default=None, metavar="N",
                    help="per-solve conflict budget (deterministic runs)")
    ap.add_argument("--jobs", type=positive_count, default=1, metavar="N",
                    help="concurrent solver processes (default 1)")
    ap.add_argument("--configs", default="baseline,gb", metavar="NAMES",
                    help="comma-separated subset of {baseline,gb}")
    return ap


def main(argv: Optional[list[str]] = None) -> None:
    args = build_arg_parser().parse_args(argv)
    all_configs = default_configs(max_conflicts=args.max_conflicts)
    names = [n.strip() for n in args.configs.split(",") if n.strip()]
    if not names:
        print("error: no configs", file=sys.stderr)
        sys.exit(1)
    unknown = [n for n in names if n not in all_configs]
    if unknown:
        print(f"error: unknown configs {unknown}", file=sys.stderr)
        sys.exit(1)
    configs = {n: all_configs[n] for n in names}

    # Fail on a bad manifest or output directory before any solving.
    out_dir = Path(args.out_dir)
    try:
        instances = read_manifest(args.manifest)
        out_dir.mkdir(parents=True, exist_ok=True)
    except (OSError, UnicodeDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        sys.exit(1)
    result = run_corpus(instances, configs, timeout_s=args.timeout, jobs=args.jobs)

    write_records_csv(out_dir / "records.csv", result.records)
    write_summary_csv(out_dir / "summary.csv", result.summaries)
    if result.series:
        write_series_csv(out_dir / "series.csv", result.series)

    for s in result.summaries:
        print(
            f"{s.config}: sat {s.solved_sat}  unsat {s.solved_unsat}  "
            f"par2 {s.par2_s:.2f} s"
        )


if __name__ == "__main__":
    main()
