"""gluesat benchmark: closed-loop workloads through the user's entry points.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a gluesat checkout. Each workload has one client
that sends the next solve only after the previous one finished. Both
configs, `baseline` and `gb`, run in every pass. Every pass gets a
fresh batch of inputs from (seed, pass). With --trace 0 the run measures
end-to-end metrics in passes until S seconds have gone by; with --trace 1 it traces one pass over batch 0 and reports
per-layer metrics. The last stdout line is a JSON object with keys
correct, attempted, failed and metrics.

This process never imports gluesat and holds no formula. Linux carries a
parent's peak RSS into a spawned child's ru_maxrss, so a large
orchestrator would hide the CLI's own peak; all in-process work happens
in fresh worker interpreters instead (worker.py).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

from common import CONFIGS, SOLVED, Run
from traced import traced_run

WORKLOADS = ("php-proof", "rand3-par2")
MIN_PASSES = 3
# No pass starts later than this after the first, so a slow machine still
# ends inside the 180 s limit.
PASS_WINDOW_S = 110.0
SETUP_MIN_REPS = 3
SETUP_MIN_S = 1.0


def tail(values: list[float]) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    n = len(values)
    s = sorted(values)
    text = f"median {statistics.median(s):.4f}"
    if n > 20:  # below that, the percentile would sit under the median
        rank = n - 10
        text += f", p{100 * rank // n} {s[rank - 1]:.4f}"
    return text + f", range {s[0]:.4f}..{s[-1]:.4f} (n={n})"


def check_verdicts(run: Run, manifest: dict, verdicts: dict) -> None:
    """Known answers per family, and no SAT/UNSAT disagreement between configs."""
    for inst in manifest["instances"]:
        got = {cfg: verdicts.get((inst["name"], cfg)) for cfg in CONFIGS}
        if inst["expect"]:
            for cfg, v in got.items():
                run.record(v == inst["expect"],
                           f"{inst['name']} {cfg}: verdict {v}, known answer {inst['expect']}")
        run.record(set(got.values()) != {"SATISFIABLE", "UNSATISFIABLE"},
                   f"{inst['name']}: configs disagree {got}")


def check_proofs(run: Run, jobs: list[dict], tag: str) -> float:
    """check_rup over every proof; returns the summed reading+check time."""
    out = run.worker("check", {"jobs": jobs})
    for job, res in zip(jobs, out["results"]):
        run.record(res["ok"], f"{tag} {os.path.basename(job['proof'])}: check_rup rejected the proof")
    return sum(r["check_s"] for r in out["results"])


def corpus_config(run: Run, manifest: dict, cfg: str, tag: str, verdicts: dict) -> dict:
    """One timed run_corpus call, then an in-process solve with a proof of
    every instance it solved: run_corpus returns neither models nor
    proofs. The two must agree on verdict and counters."""
    insts = manifest["instances"]
    out = run.worker("corpus", {
        "paths": [i["path"] for i in insts], "config": cfg,
        "max_conflicts": manifest["max_conflicts"], "timeout_s": manifest["timeout_s"]})
    by_name = {os.path.basename(i["path"]): i for i in insts}
    jobs, counts = [], []
    for rec in out["records"]:
        inst = by_name[rec["instance"]]
        verdicts[(inst["name"], cfg)] = rec["verdict"]
        run.record(rec["verdict"] != "ERROR" and not rec["error"],
                   f"{tag} {inst['name']} {cfg}: run_corpus record {rec['verdict']} {rec['error']!r}")
        if rec["verdict"] in SOLVED:
            jobs.append({"cnf": inst["path"], "config": cfg,
                         "proof": os.path.join(run.dir, f"{inst['name']}.{cfg}.drat")})
            counts.append((inst["name"], rec["verdict"], rec["counts"]))
    proved = run.worker("prove", {"jobs": jobs, "max_conflicts": manifest["max_conflicts"]})
    proofs = []
    for job, (name, verdict, rec_counts), res in zip(jobs, counts, proved["results"]):
        what = f"{tag} {name} {cfg}"
        run.record(res["verdict"] == verdict and res["counts"] == rec_counts,
                   f"{what}: in-process {res['verdict']} {res['counts']} differs from "
                   f"run_corpus {verdict} {rec_counts}")
        if res["verdict"] == "SATISFIABLE":
            run.record(bool(res["model_ok"]), f"{what}: model does not satisfy the formula")
        elif res["verdict"] == "UNSATISFIABLE":
            proofs.append(job)
    return {"wall_s": out["wall_s"], "par2_s": out["par2_s"], "solved": out["solved"],
            "rss_kb": out["peak_rss_kb"], "proofs": proofs,
            "requests": [r["wall_time_s"] for r in out["records"]]}


def cli_config(run: Run, manifest: dict, cfg: str, tag: str, verdicts: dict) -> dict:
    """Every input through the CLI, one after another; the pass's PAR-2
    scores each run's `c time` line, the solver's own elapsed_s."""
    wall = par2 = 0.0
    solved = rss_kb = 0
    proofs, requests = [], []
    for inst in manifest["instances"]:
        res = run.cli(inst, cfg, tag)
        verdicts[(inst["name"], cfg)] = res["verdict"]
        rss_kb = max(rss_kb, res["rss_kb"])
        wall += res["wall_s"]
        requests.append(res["wall_s"])
        run.record(res["verdict"] in SOLVED, f"{tag} {inst['name']} {cfg}: no answer")
        if res["verdict"] in SOLVED:
            solved += 1
            par2 += res["time_s"] or 0.0
        if res["verdict"] == "UNSATISFIABLE":
            proofs.append({"cnf": inst["path"], "proof": res["proof"]})
    return {"wall_s": wall, "par2_s": par2, "solved": solved, "rss_kb": rss_kb,
            "proofs": proofs, "requests": requests}


def generate(run: Run, batch: int) -> dict:
    manifest = run.worker("gen", {"workload": run.workload, "seed": run.seed, "batch": batch,
                                  "dir": os.path.join(run.dir, f"b{batch}")})
    for i in manifest["instances"]:
        print(f"input b{batch} {i['name']}: {i['vars']} vars, {i['clauses']} clauses, "
              f"{i['bytes']} bytes")
    return manifest


def end_to_end(run: Run, seconds: float) -> dict:
    """Closed-loop passes, each on a fresh batch of inputs, until
    `seconds` have gone by since the first pass began and at least
    MIN_PASSES passes are done. Only entry-point calls and proof checks
    are timed: generation, model checks and the in-process proof solves
    of rand3-par2 are not."""
    manifest = generate(run, 0)
    paths = [i["path"] for i in manifest["instances"]]
    setup = run.worker("setup", {"paths": paths, "min_reps": SETUP_MIN_REPS, "min_s": SETUP_MIN_S})
    one_config = corpus_config if manifest["entry"] == "corpus" else cli_config
    samples: dict[str, list[float]] = {}
    requests: dict[str, list[float]] = {cfg: [] for cfg in CONFIGS}
    rss_kb = 0
    passes = 0
    started = time.monotonic()
    stop_by = started + PASS_WINDOW_S
    while (passes < MIN_PASSES or time.monotonic() - started < seconds) \
            and time.monotonic() < stop_by:
        if passes:
            shutil.rmtree(os.path.join(run.dir, f"b{passes - 1}"), ignore_errors=True)
            manifest = generate(run, passes)
        tag = f"pass {passes}"
        verdicts: dict = {}
        proofs: list[dict] = []
        for cfg in CONFIGS if passes % 2 == 0 else CONFIGS[::-1]:
            out = one_config(run, manifest, cfg, tag, verdicts)
            for name in ("wall_s", "par2_s", "solved"):
                samples.setdefault(f"{name}.{cfg}", []).append(out[name])
            requests[cfg].extend(out["requests"])
            rss_kb = max(rss_kb, out["rss_kb"])
            proofs.extend(out["proofs"])
        samples.setdefault("check_s", []).append(check_proofs(run, proofs, tag))
        check_verdicts(run, manifest, verdicts)
        passes += 1

    metrics = {"setup_s": (setup["setup_s"], "s")}
    print(f"setup_s: median {setup['setup_s']:.4f} s over {setup['reps']} repetitions")
    for name, values in sorted(samples.items()):
        unit = "count" if name.startswith("solved") else "s"
        metrics[name] = (statistics.median(values), unit)
        print(f"{name}: {tail(values)} {unit} over passes")
    for cfg in CONFIGS:
        print(f"request latency {cfg}: {tail(requests[cfg])} s per solve")
    metrics["peak_rss_mb"] = (rss_kb / 1024.0, "MB")
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"peak_rss_mb: {rss_kb / 1024.0:.1f} MB (orchestrator floor {own:.1f} MB); "
          f"{passes} passes in {time.monotonic() - started:.1f} s")
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "gluesat", "cli.py")):
        print("error: run from the root of a gluesat checkout (src/gluesat missing)",
              file=sys.stderr)
        return 2
    run = Run(root, args.workload, args.seed)
    shutil.rmtree(run.dir, ignore_errors=True)
    os.makedirs(run.dir)
    try:
        metrics = traced_run(run, generate(run, 0)) if args.trace else end_to_end(run, args.seconds)
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
