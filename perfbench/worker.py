"""In-process measurements, each run in a fresh interpreter by run.py.

    python3 perfbench/worker.py COMMAND '<json arguments>'

prints one JSON object on its last stdout line. Commands: gen, setup,
prove, check, corpus, trace. The orchestrator sets PYTHONPATH so that
gluesat is imported from the checkout's src/ directory.
"""

from __future__ import annotations

import gc
import io
import json
import os
import resource
import statistics
import sys
import time

import gluesat
from gluesat.bench import default_configs, run_corpus
from gluesat.formula import parse_dimacs
from gluesat.proof import ProofWriter, check_rup, parse_drat
from gluesat.solver import Solver, SolverConfig

from checks import model_satisfies
from spans import FingerprintSolver, SpanRecorder, TimedProofWriter, TimedSolver, attach_counters
from workloads import generate

CONFIGS = ("baseline", "gb")
# Proofs are checked this many times and the median kept: a burst of load
# from elsewhere on a shared machine then moves one repetition, not the
# reported time.
CHECK_REPS = 3


def solver_config(name: str, max_conflicts=None) -> SolverConfig:
    return default_configs(max_conflicts=max_conflicts)[name]


def _model_ok(cnf_path: str, result):
    """None without a model, else whether the benchmark's own evaluator
    finds every clause of the DIMACS file satisfied."""
    if result.model is None:
        return None
    model = bytearray(len(result.model) + 1)
    for x in result.model:
        model[abs(x)] = 1 if x > 0 else 2
    return model_satisfies(cnf_path, model)


def cmd_gen(a: dict) -> dict:
    return generate(a["workload"], a["seed"], a["batch"], a["dir"])


def cmd_setup(a: dict) -> dict:
    """parse_dimacs plus Solver construction, summed over the inputs.

    Repeated until both `min_reps` and `min_s` are reached; the median
    repetition is reported. Untraced.
    """
    paths = a["paths"]
    reps: list[float] = []
    started = time.perf_counter()
    while len(reps) < a["min_reps"] or time.perf_counter() - started < a["min_s"]:
        gc.collect()
        total = 0.0
        for p in paths:
            t0 = time.perf_counter()
            with open(p, "rb") as fh:
                formula = parse_dimacs(fh)
            solver = Solver(formula, SolverConfig())
            total += time.perf_counter() - t0
            del solver, formula
        reps.append(total)
    return {"setup_s": statistics.median(reps), "reps": len(reps)}


def cmd_prove(a: dict) -> dict:
    """Solve each (instance, config) in-process with a proof attached.

    run_corpus returns neither models nor proofs, so this solve supplies
    both; its counters must equal the run_corpus records' counters, which
    shows it made the same search.
    """
    out = []
    for job in a["jobs"]:
        with open(job["cnf"], "rb") as fh:
            formula = parse_dimacs(fh)
        with open(job["proof"], "w") as sink:
            cfg = solver_config(job["config"], a["max_conflicts"])
            result = Solver(formula, cfg, proof=ProofWriter(sink)).solve()
        c = result.counters
        out.append({"verdict": result.verdict.value, "model_ok": _model_ok(job["cnf"], result),
                    "counts": [c.decisions, c.propagations, c.conflicts]})
    return {"results": out}


def cmd_check(a: dict) -> dict:
    """Time reading each proof plus check_rup, CHECK_REPS times; the
    median repetition is reported. The formula parse is untimed."""
    out = []
    for job in a["jobs"]:
        with open(job["cnf"], "rb") as fh:
            formula = parse_dimacs(fh)
        reps, ok = [], True
        for _ in range(CHECK_REPS):
            gc.collect()
            t0 = time.perf_counter()
            with open(job["proof"]) as fh:
                text = fh.read()
            ok = check_rup(formula, text) and ok
            reps.append(time.perf_counter() - t0)
        out.append({"ok": ok, "check_s": statistics.median(reps)})
    return {"results": out}


def _corpus(paths: list, config: str, max_conflicts, timeout_s: float) -> dict:
    t0 = time.perf_counter()
    result = run_corpus(paths, {config: solver_config(config, max_conflicts)},
                        timeout_s=timeout_s, jobs=1)
    wall = time.perf_counter() - t0
    summary = result.summaries[0]
    records = []
    for r in result.records:
        rep = r.report
        records.append({
            "instance": os.path.basename(r.instance),
            "verdict": r.verdict,
            "wall_time_s": r.wall_time_s,
            "error": r.error,
            "counts": None if rep is None else [rep.decisions, rep.propagations, rep.conflicts],
        })
    return {"wall_s": wall, "par2_s": summary.par2_s,
            "solved": summary.solved_sat + summary.solved_unsat, "records": records}


def cmd_corpus(a: dict) -> dict:
    """One gluesat.bench.run_corpus call with one config and jobs=1."""
    out = _corpus(a["paths"], a["config"], a["max_conflicts"], a["timeout_s"])
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out["peak_rss_kb"] = max(self_rss, child_rss)
    return out


def _trace_one(rec: SpanRecorder, inst: dict, config: str, a: dict) -> dict:
    """Untraced, span and counting passes over one (instance, config).

    The first two emit a proof only when the workload's entry point does
    (a["emit_proof"]); an UNSAT verdict is checked either way, on a proof
    from a separate solve when the passes emitted none.
    """
    with open(inst["path"], "rb") as fh:
        data = fh.read()
    cfg = solver_config(config, a["max_conflicts"])
    proof_path = None
    if a["emit_proof"]:
        proof_path = os.path.join(a["dir"], f"{inst['name']}.{config}.trace.drat")

    def sink():
        return open(proof_path, "w") if proof_path else io.StringIO()

    # Untraced pass: the reference wall for the tracing overhead.
    gc.collect()
    t0 = time.perf_counter()
    formula = parse_dimacs(data)
    with sink() as fh:
        solver = FingerprintSolver(formula, cfg, proof=ProofWriter(fh) if proof_path else None)
        t_solve = time.perf_counter()
        result = solver.solve()
        t1 = time.perf_counter()
    untraced = {"wall_s": t1 - t0, "solve_s": t1 - t_solve, "fp": solver.fingerprint()}
    del solver, formula

    # Span pass.
    rec.trace_id = f"{inst['name']}/{config}"
    gc.collect()
    t0 = time.perf_counter()
    idx = rec.begin("formula.parse")
    formula = parse_dimacs(data)
    rec.end(idx)
    with sink() as fh:
        writer = TimedProofWriter(fh, rec) if proof_path else None
        idx = rec.begin("solver.init")
        solver = TimedSolver(formula, cfg, proof=writer, rec=rec)
        rec.end(idx)
        idx = rec.begin("solver.solve")
        result = solver.solve()
        rec.end(idx)
    traced_wall = time.perf_counter() - t0
    selfs = rec.self_times(rec.trace_id)
    solve_span = rec.total(rec.trace_id, "solver.solve")
    inside = [n for n in selfs if n.startswith(("solver.", "proof.emit")) and n != "solver.init"]
    accounted = sum(selfs[n] for n in inside)
    out = {
        "verdict": result.verdict.value,
        "model_ok": _model_ok(inst["path"], result),
        "untraced": untraced,
        "traced_wall_s": traced_wall,
        "self": selfs,
        "solve_span_s": solve_span,
        "accounted_s": accounted,
        "fp": solver.fingerprint(),
        "restarts": result.restarts,
        "glue_clauses": result.counters.glue_clauses,
        "unassigned": solver.unassigned,
        "reduce_db_calls": solver.reduce_db_calls,
        "learnts_deleted": solver.learnts_deleted,
        "lemmas": writer.lemmas if writer else 0,
        "deletions": writer.deletions if writer else 0,
        "proof_bytes": os.path.getsize(proof_path) if proof_path else 0,
    }
    del solver

    # Counting pass: per-call wrappers on the hot heap and glue methods.
    gc.collect()
    t0 = time.perf_counter()
    with sink() as fh:
        solver = FingerprintSolver(formula, cfg, proof=ProofWriter(fh) if proof_path else None)
        counts = attach_counters(solver)
        solver.solve()
    out["counting_wall_s"] = time.perf_counter() - t0
    out["counts"] = counts
    out["count_fp"] = solver.fingerprint()
    del solver

    # Checker, on the proof the span pass wrote or on a fresh one.
    if result.verdict.value == "UNSATISFIABLE":
        if proof_path is None:
            proof_path = os.path.join(a["dir"], f"{inst['name']}.{config}.check.drat")
            with open(proof_path, "w") as fh:
                Solver(formula, cfg, proof=ProofWriter(fh)).solve()
        with open(proof_path) as fh:
            text = fh.read()
        idx = rec.begin("proof.parse_drat")
        events = parse_drat(text)
        rec.end(idx)
        idx = rec.begin("proof.rup")
        out["proof_ok"] = check_rup(formula, events)
        rec.end(idx)
        out["checked_lemmas"] = sum(1 for e in events if e.kind == "add")
        out["parse_drat_s"] = rec.total(rec.trace_id, "proof.parse_drat")
        out["rup_s"] = rec.total(rec.trace_id, "proof.rup")
    return out


def cmd_trace(a: dict) -> dict:
    rec = SpanRecorder()
    results = []
    # Warm-up: the first solve in a fresh interpreter pays for growing the
    # allocator's arenas, which would otherwise land on the untraced pass.
    with open(a["instances"][0]["path"], "rb") as fh:
        Solver(parse_dimacs(fh), solver_config("baseline", a["max_conflicts"])).solve()
    for inst in a["instances"]:
        for config in CONFIGS:
            r = _trace_one(rec, inst, config, a)
            r["instance"] = inst["name"]
            r["config"] = config
            results.append(r)
    bench = {}
    if a["corpus"]:
        paths = [inst["path"] for inst in a["instances"]]
        for config in CONFIGS:
            bench[config] = _corpus(paths, config, a["max_conflicts"], a["timeout_s"])
    with open(a["spans_out"], "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "trace_id"],
                   "spans": rec.rows()}, fh)
    return {"results": results, "bench": bench}


COMMANDS = {"gen": cmd_gen, "setup": cmd_setup, "prove": cmd_prove, "check": cmd_check,
            "corpus": cmd_corpus, "trace": cmd_trace}


def main() -> None:
    src = os.path.realpath(os.path.join(os.path.dirname(__file__), "..", "src"))
    if not os.path.realpath(gluesat.__file__).startswith(src + os.sep):
        sys.exit(f"gluesat imported from {gluesat.__file__}, not from {src}")
    cmd, args = sys.argv[1], json.loads(sys.argv[2])
    print(json.dumps(COMMANDS[cmd](args)))


if __name__ == "__main__":
    main()
