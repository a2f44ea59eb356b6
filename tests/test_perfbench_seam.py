"""The gluesat names that perfbench/ reaches, exercised in tier-1.

perfbench subclasses the solver and wraps its heap and glue hooks by
attribute name (perfbench/spans.py), and reads the corpus harness's
records and summaries by field name (perfbench/worker.py). A change
under src/gluesat that drops or renames one of them fails here, not as
failed operations in a benchmark run.
"""

import io
import random
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from gluesat.formula import to_dimacs
from gluesat.gen import pigeonhole, random_ksat
from gluesat.proof import check_rup
from gluesat.solver import Solver, Verdict

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, PERFBENCH)
    try:
        import spans
        import worker
        import workloads
    finally:
        sys.path.remove(PERFBENCH)
    return SimpleNamespace(spans=spans, worker=worker, workloads=workloads)


@pytest.mark.parametrize("config", ["baseline", "gb"])
def test_traced_solve_on_php(perfbench, config):
    spans = perfbench.spans
    formula = pigeonhole(4)  # PHP(5,4)
    rec = spans.SpanRecorder()
    sink = io.StringIO()
    writer = spans.TimedProofWriter(sink, rec)
    solver = spans.TimedSolver(
        formula, perfbench.worker.solver_config(config), proof=writer, rec=rec
    )
    counts = spans.attach_counters(solver)
    result = solver.solve()

    assert result.verdict is Verdict.UNSAT
    fp, c = solver.fingerprint(), result.counters
    assert (fp["decisions"], fp["propagations"], fp["conflicts"]) == (
        c.decisions, c.propagations, c.conflicts
    )
    assert check_rup(formula, sink.getvalue())
    assert writer.lemmas > 0
    assert rec.total(rec.trace_id, "solver.propagate") > 0
    assert counts["heap_inserts"] > 0 and counts["heap_updates"] > 0
    assert (counts["bumps"] > 0) == (config == "gb")


def test_relabel_round_trips(perfbench):
    formula = pigeonhole(4)
    relabelled = perfbench.workloads.relabel(formula, random.Random(3))
    # relabel's first draw from its rng is the variable permutation
    perm = list(range(1, formula.num_vars + 1))
    random.Random(3).shuffle(perm)
    inverse = {new: old for old, new in enumerate(perm, start=1)}
    restored = [
        sorted(inverse[abs(x)] * (1 if x > 0 else -1) for x in c.to_ints())
        for c in relabelled.clauses
    ]
    assert relabelled.num_vars == formula.num_vars
    assert sorted(restored) == sorted(sorted(c.to_ints()) for c in formula.clauses)


def test_corpus_reads_the_harness_records(perfbench, tmp_path):
    worker = perfbench.worker
    formulas = {"php3.cnf": pigeonhole(3), "rand.cnf": random_ksat(20, 70, seed=1)}
    for name, f in formulas.items():
        (tmp_path / name).write_text(to_dimacs(f))
    paths = [str(tmp_path / name) for name in formulas]
    out = worker._corpus(paths, "gb", 1000, 30.0)

    assert out["solved"] == 2
    assert out["par2_s"] == sum(r["wall_time_s"] for r in out["records"])
    assert [r["instance"] for r in out["records"]] == ["php3.cnf", "rand.cnf"]
    for r in out["records"]:
        c = Solver(formulas[r["instance"]], worker.solver_config("gb", 1000)).solve().counters
        assert r["counts"] == [c.decisions, c.propagations, c.conflicts]
        assert r["error"] == ""


@pytest.mark.parametrize("config", ["baseline", "gb"])
def test_traced_restarts_read_the_gf_series(perfbench, config, tmp_path):
    # perfbench's solver.restarts reads SolveResult.restarts, which is the
    # number of glue-fraction samples; PHP(6,5) restarts once
    formula = pigeonhole(5)
    cnf = tmp_path / "php6.cnf"
    cnf.write_text(to_dimacs(formula))
    worker = perfbench.worker
    args = {"max_conflicts": None, "emit_proof": False, "dir": str(tmp_path)}
    out = worker._trace_one(
        perfbench.spans.SpanRecorder(), {"name": "php6", "path": str(cnf)}, config, args
    )
    result = Solver(formula, worker.solver_config(config)).solve()
    assert result.restarts == len(result.counters.gf_series) == out["restarts"] == 1
