"""The traced run (--trace 1): per-layer metrics for one workload.

A worker replays the workload in-process three times per (instance,
config): untraced, with spans, and with per-call counters. The CLI
workloads also run the real CLI once per (instance, config), for its
overhead and to compare its counters with the traced search. Spans stay
in memory in the worker and are written to .perfbench_work/ at the end.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

from common import CONFIGS, Run

ACCOUNT_TOLERANCE_S = 1e-6
STARTUP_REPS = 5


def startup_seconds(run: Run) -> float:
    """A fresh interpreter importing gluesat.cli; median of a few runs."""
    walls = []
    for _ in range(STARTUP_REPS):
        wall, code, _ = run.spawn([sys.executable, "-c", "import gluesat.cli"], os.devnull)
        run.record(code == 0, "import gluesat.cli failed")
        walls.append(wall)
    return statistics.median(walls)


def fingerprint_file(run: Run) -> str:
    return os.path.join(run.base, f"fingerprints-{run.workload}-s{run.seed}.json")


def traced_run(run: Run, manifest: dict) -> dict:
    corpus = manifest["entry"] == "corpus"
    insts = manifest["instances"]
    spans_out = os.path.join(run.base, f"spans-{run.workload}-s{run.seed}.json")
    out = run.worker("trace", {
        "instances": insts, "dir": run.dir, "emit_proof": not corpus, "corpus": corpus,
        "max_conflicts": manifest["max_conflicts"], "timeout_s": manifest["timeout_s"],
        "spans_out": spans_out,
    })
    size = {i["name"]: i["bytes"] for i in insts}
    fingerprints = {}
    verdicts = {}
    cli_overhead = {cfg: 0.0 for cfg in CONFIGS}
    for r in out["results"]:
        key = f"{r['instance']}/{r['config']}"
        what = f"trace {key}"
        fp = r["fp"]
        fingerprints[key] = fp
        verdicts[(r["instance"], r["config"])] = r["verdict"]
        run.record(fp == r["untraced"]["fp"] == r["count_fp"],
                   f"{what}: search fingerprint differs between passes")
        if r["verdict"] == "SATISFIABLE":
            run.record(bool(r["model_ok"]), f"{what}: model does not satisfy the formula")
        if r["verdict"] == "UNSATISFIABLE":
            run.record(bool(r.get("proof_ok")), f"{what}: check_rup rejected the proof")
        run.record(abs(r["accounted_s"] - r["solve_span_s"]) <= ACCOUNT_TOLERANCE_S,
                   f"{what}: self times {r['accounted_s']} do not add up to solve span "
                   f"{r['solve_span_s']}")
        print(f"fingerprint {key}: decisions {fp['decisions']} propagations "
              f"{fp['propagations']} conflicts {fp['conflicts']} sha1 {fp['decision_sha1']}")
    if not corpus:
        by_key = {(r["instance"], r["config"]): r for r in out["results"]}
        for inst in insts:
            for cfg in CONFIGS:
                r = by_key[(inst["name"], cfg)]
                res = run.cli(inst, cfg, "trace")
                fp = r["fp"]
                run.record(res["counts"] is not None and res["counts"][:3] ==
                           [fp["decisions"], fp["propagations"], fp["conflicts"]],
                           f"trace {inst['name']} {cfg}: CLI counters {res['counts']} "
                           f"differ from the traced search {fp}")
                s = r["self"]
                traced = s["formula.parse"] + s["solver.init"] + r["solve_span_s"]
                cli_overhead[cfg] += res["wall_s"] - traced
    for cfg, b in out["bench"].items():
        for rec in b["records"]:
            name = rec["instance"][: -len(".cnf")]
            fp = fingerprints[f"{name}/{cfg}"]
            run.record(rec["counts"] == [fp["decisions"], fp["propagations"], fp["conflicts"]],
                       f"trace bench {name} {cfg}: run_corpus counters {rec['counts']} differ")
            run.record(rec["verdict"] == verdicts[(name, cfg)],
                       f"trace bench {name} {cfg}: verdict {rec['verdict']}")

    # Counters must repeat exactly across runs of the same code and seed.
    path = fingerprint_file(run)
    if os.path.exists(path):
        with open(path) as fh:
            previous = json.load(fh)
        run.record(previous == fingerprints, f"fingerprints differ from the earlier run in {path}")
    else:
        with open(path, "w") as fh:
            json.dump(fingerprints, fh, indent=1, sort_keys=True)

    metrics: dict[str, tuple[float, str]] = {"cli.startup_s": (startup_seconds(run), "s")}
    for cfg in CONFIGS:
        rs = [r for r in out["results"] if r["config"] == cfg]

        def self_s(name: str) -> float:
            return sum(r["self"].get(name, 0.0) for r in rs)

        def total(field: str) -> float:
            return sum(r.get(field, 0) for r in rs)

        def fp_sum(field: str) -> int:
            return sum(r["fp"][field] for r in rs)

        def count(field: str) -> int:
            return sum(r["counts"][field] for r in rs)

        def ratio(a: float, b: float) -> float:
            return a / b if b > 0 else 0.0

        parse_s = self_s("formula.parse")
        untraced_solve = sum(r["untraced"]["solve_s"] for r in rs)
        untraced_wall = sum(r["untraced"]["wall_s"] for r in rs)
        b = out["bench"].get(cfg)
        values = {
            "formula.parse_s": (parse_s, "s"),
            "formula.parse_mb_per_s": (ratio(sum(size[r["instance"]] for r in rs) / 1e6, parse_s), "MB/s"),
            "solver.init_s": (self_s("solver.init"), "s"),
            "solver.propagate_s": (self_s("solver.propagate"), "s"),
            "solver.propagations": (fp_sum("propagations"), "count"),
            "solver.props_per_s": (ratio(fp_sum("propagations"), self_s("solver.propagate")), "1/s"),
            "solver.analyze_s": (self_s("solver.analyze"), "s"),
            "solver.conflicts": (fp_sum("conflicts"), "count"),
            "solver.conflicts_per_s": (ratio(fp_sum("conflicts"), untraced_solve), "1/s"),
            "solver.decide_s": (self_s("solver.decide"), "s"),
            "solver.decisions": (fp_sum("decisions"), "count"),
            "solver.backtrack_s": (self_s("solver.backtrack"), "s"),
            "solver.unassigned": (total("unassigned"), "count"),
            "solver.reduce_db_s": (self_s("solver.reduce_db"), "s"),
            "solver.reduce_db_calls": (total("reduce_db_calls"), "count"),
            "solver.learnts_deleted": (total("learnts_deleted"), "count"),
            "solver.solve_self_s": (self_s("solver.solve"), "s"),
            "solver.restarts": (total("restarts"), "count"),
            "activity.heap_inserts": (count("heap_inserts"), "count"),
            "activity.heap_removes": (count("heap_removes"), "count"),
            "activity.heap_updates": (count("heap_updates"), "count"),
            "activity.rescales": (count("rescales"), "count"),
            "glue.hook_calls": (count("hook_calls"), "count"),
            "glue.bumps": (count("bumps"), "count"),
            "glue.bump_yield": (ratio(count("bumps"), count("hook_calls")), "ratio"),
            "glue.glue_clauses": (total("glue_clauses"), "count"),
            "proof.emit_s": (self_s("proof.emit"), "s"),
            "proof.lemmas": (total("lemmas"), "count"),
            "proof.deletions": (total("deletions"), "count"),
            "proof.bytes": (total("proof_bytes"), "bytes"),
            "proof.parse_drat_s": (total("parse_drat_s"), "s"),
            "proof.rup_s": (total("rup_s"), "s"),
            "proof.lemmas_per_s": (ratio(total("checked_lemmas"), total("rup_s")), "1/s"),
            "bench.tasks": (len(b["records"]) if b else 0, "count"),
            "bench.overhead_s": (b["wall_s"] - sum(x["wall_time_s"] for x in b["records"])
                                 if b else 0.0, "s"),
            "bench.hard_kills": (sum(x["error"] == "hard timeout" for x in b["records"])
                                 if b else 0, "count"),
            "bench.errors": (sum(x["verdict"] == "ERROR" for x in b["records"]) if b else 0,
                             "count"),
            "cli.overhead_s": (cli_overhead[cfg], "s"),
            "trace.overhead_s": (total("traced_wall_s") - untraced_wall, "s"),
            "trace.count_overhead_s": (total("counting_wall_s") - untraced_wall, "s"),
        }
        for name, v in values.items():
            metrics[f"{name}.{cfg}"] = v
    solve_spans = sum(r["solve_span_s"] for r in out["results"])
    print(f"traced solve spans {solve_spans:.4f} s, accounted by layer self times "
          f"{sum(r['accounted_s'] for r in out['results']):.4f} s; spans in {spans_out}")
    return metrics
