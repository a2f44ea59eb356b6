"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line (see conftest). Tolerances are pinned in the assertions.

test_proof_mutation_rejection is a known, analyzed red: see its
docstring. Everything else must pass.
"""

import csv
import io
import math
import random
import time
from types import SimpleNamespace

import pytest

from gluesat.activity import ActivityTable
from gluesat.bench import default_configs, run_corpus, write_records_csv
from gluesat.formula import to_dimacs
from gluesat.gen import parity_contradiction, pigeonhole, random_ksat, unit_chain
from gluesat.glue import GlueTracker
from gluesat.metrics import STATS_CSV_HEADER
from gluesat.proof import ProofWriter, check_rup, parse_drat
from gluesat.solver import Solver, SolverConfig, Verdict, compute_lbd
from helpers import (
    InstrumentedSolver,
    directional_corpus,
    known_unsat_corpus,
    literal_values,
    oracle_corpus,
    reduce_schedule,
)
from oracles import (
    centrality,
    model_satisfies,
    proof_steps_semantically_valid,
    recompute_par2_from_csv,
    truth_table_satisfiable,
)
from test_proof import mutate_one_literal

SAFETY_CONFLICT_BUDGET = 500_000  # never reached on <=20-variable inputs


@pytest.fixture(scope="module")
def oracle_sweep():
    """Solve the whole small-instance corpus once, under both configs,
    with proofs, against the truth-table oracle."""
    t0 = time.perf_counter()
    corpus = oracle_corpus()
    entries = []
    for name, formula in corpus:
        expected_sat = truth_table_satisfiable(formula)
        runs = {}
        for label, gb in (("baseline", False), ("gb", True)):
            sink = io.StringIO()
            cfg = SolverConfig(glue_bump=gb, max_conflicts=SAFETY_CONFLICT_BUDGET)
            result = Solver(formula, cfg, proof=ProofWriter(sink)).solve()
            runs[label] = (result, sink.getvalue())
        entries.append(SimpleNamespace(
            name=name, formula=formula, expected_sat=expected_sat, runs=runs
        ))
    return SimpleNamespace(entries=entries, elapsed_s=time.perf_counter() - t0)


def test_oracle_correctness(oracle_sweep):
    """>=500 generated CNFs with <=20 variables: GB-on and GB-off verdicts
    both equal exhaustive enumeration, 100%, in under 5 minutes. Larger
    crafted UNSAT instances are UNSAT with a proof check_rup accepts."""
    entries = oracle_sweep.entries
    assert len(entries) >= 500
    assert all(e.formula.num_vars <= 20 for e in entries)
    for e in entries:
        want = Verdict.SAT if e.expected_sat else Verdict.UNSAT
        for label in ("baseline", "gb"):
            result, _ = e.runs[label]
            assert result.verdict is want, (e.name, label)
    # crafted instances too large to enumerate, unsatisfiable by
    # construction; their proofs carry the verdict past the truth table
    for name, formula in known_unsat_corpus():
        for gb in (False, True):
            sink = io.StringIO()
            r = Solver(formula, SolverConfig(glue_bump=gb), proof=ProofWriter(sink)).solve()
            assert r.verdict is Verdict.UNSAT, name
            assert check_rup(formula, sink.getvalue()) is True, (name, gb)
    assert oracle_sweep.elapsed_s < 300.0


def test_model_soundness(oracle_sweep):
    """Every SAT verdict's model passes independent evaluation, 100%."""
    checked = 0
    for e in oracle_sweep.entries:
        for label in ("baseline", "gb"):
            result, _ = e.runs[label]
            if result.verdict is Verdict.SAT:
                assert model_satisfies(e.formula, result.model), (e.name, label)
                checked += 1
    assert checked >= 200


def test_proof_soundness(oracle_sweep):
    """Every UNSAT DRAT proof passes the RUP check, 100%."""
    checked = 0
    for e in oracle_sweep.entries:
        for label in ("baseline", "gb"):
            result, proof_text = e.runs[label]
            if result.verdict is Verdict.UNSAT:
                assert check_rup(e.formula, proof_text) is True, (e.name, label)
                checked += 1
    assert checked >= 100


def test_proof_mutation_rejection(oracle_sweep):
    """A single random literal-sign mutation is rejected on >= 95% of
    corpus proofs.

    KNOWN RED. The 95% bound is structurally unattainable for untrimmed
    desk-scale CDCL proofs: flipping one sign frequently leaves a proof
    that is still a logically valid refutation (these formulas are
    over-constrained and CDCL proofs are redundant), and a sound RUP
    checker must accept it. Measured rejection stays in the 65-85% band
    across corpora, configs with aggressive clause deletion, and
    mutation samplings; every surviving mutated proof small enough to
    enumerate is independently verified below to be semantically valid,
    so acceptances are coincidences of validity, not checker laxity.
    """
    rng = random.Random(20240810)
    rejected = 0
    survivors = []
    mutated_total = 0
    for e in oracle_sweep.entries:
        for label in ("baseline", "gb"):
            result, proof_text = e.runs[label]
            if result.verdict is not Verdict.UNSAT:
                continue
            events = parse_drat(proof_text)
            mutated = mutate_one_literal(events, rng)
            if mutated is None:
                continue  # a bare "0" proof has no literal to flip
            mutated_total += 1
            if check_rup(e.formula, mutated):
                survivors.append((e.formula, mutated))
            else:
                rejected += 1
    assert mutated_total >= 100
    # the checker never accepted an unsound mutation: every survivor is a
    # genuinely valid refutation under exhaustive implication checking
    vindicated = sum(
        1 for formula, mutated in survivors
        if proof_steps_semantically_valid(formula, mutated)
    )
    assert vindicated == len(survivors)
    rate = rejected / mutated_total
    assert rate >= 0.95, (
        f"rejected {rejected}/{mutated_total} = {rate:.1%} single-sign mutations; "
        f"all {len(survivors)} surviving mutated proofs were independently "
        f"verified to remain logically valid refutations, so the 5% allowance "
        f"for coincidental validity is exceeded by the proofs themselves, not "
        f"by any unsoundness in check_rup"
    )


def test_alg2_unit_semantics():
    """Glue levels {v1: 3, v2: 1} and activity(v1) = 2.0: unassigning v1
    bumps it to exactly 3.5 (centrality 0.75, bump 1.5)."""
    tracker = GlueTracker(2)
    tracker.glue_level = [3, 1]
    tracker.total_glue_level = 4
    tracker.glue_var_count = 2
    table = ActivityTable(2)
    table.activity[0] = 2.0
    assert centrality(tracker, 0) == 0.75
    tracker.on_unassigned(0, table)
    assert table.activity[0] == 3.5  # exact


def test_invariant_suites(oracle_sweep):
    """Watched-literal, asserting-clause, centrality normalization
    (sum == 1 +- 1e-12), decision partition, GF + NGF == 1 +- 1e-12,
    glue permanence under reduction, and bump scale-equivariance."""
    # watched-literal + asserting-clause, audited live on mixed instances
    audit_set = [
        pigeonhole(4),
        pigeonhole(5),
        parity_contradiction(6),
        unit_chain(9, sat=False),
    ] + [random_ksat(18, 79, seed=s) for s in range(8)]
    trackers = []
    for i, f in enumerate(audit_set):
        s = InstrumentedSolver(f, SolverConfig(glue_bump=bool(i % 2)))
        r = s.solve()
        assert r.verdict in (Verdict.SAT, Verdict.UNSAT)
        trackers.append(s.glue)

    # centrality normalization on every end-of-run tracker state
    for tracker in trackers:
        if tracker.total_glue_level == 0:
            continue
        total = sum(
            centrality(tracker, v)
            for v in range(len(tracker.glue_level))
            if tracker.glue_level[v] > 0
        )
        assert abs(total - 1.0) <= 1e-12

    # partition and pool fractions across the whole oracle sweep
    for e in oracle_sweep.entries:
        for label in ("baseline", "gb"):
            rep = e.runs[label][0].counters
            assert rep.glue_decisions + rep.nonglue_decisions == rep.decisions
            assert abs(rep.gf + rep.ngf - 1.0) <= 1e-12

    # glue permanence: force heavy reduction, no LBD <= 2 deletion ever
    deleted = []
    for f in (pigeonhole(5), pigeonhole(6)):
        with reduce_schedule(25, 10):
            s = InstrumentedSolver(f)
            s.solve()
        deleted.extend(s.deleted_lbds)
    assert deleted
    assert all(lbd > 2 for lbd in deleted)

    # scale equivariance of the unassignment bump
    rng = random.Random(77)
    for _ in range(300):
        n = rng.randint(1, 8)
        levels = [rng.randint(0, 4) for _ in range(n)]
        if sum(levels) == 0:
            levels[0] = 1
        v = rng.randrange(n)
        base = rng.uniform(0.0, 10.0)
        k = 10 ** rng.uniform(-12, 12)

        def bumped(start):
            t = GlueTracker(n)
            t.glue_level = list(levels)
            t.total_glue_level = sum(levels)
            table = ActivityTable(n)
            table.activity[v] = start
            t.on_unassigned(v, table)
            return table.activity[v]

        assert math.isclose(bumped(k * base), k * bumped(base), rel_tol=1e-12)


def test_lbd_oracle():
    """compute_lbd equals a brute-force distinct-level count on 10,000
    randomized cases, 100%."""
    rng = random.Random(424242)
    for _ in range(10_000):
        n = rng.randint(1, 40)
        levels = [rng.randint(0, 12) for _ in range(n)]
        value = literal_values([rng.choice([1, -1]) for _ in range(n)])
        size = rng.randint(1, n)
        vs = rng.sample(range(n), size)
        lits = [2 * v + rng.randint(0, 1) for v in vs]
        assert compute_lbd(lits, levels, value) == len({levels[v] for v in vs})


def test_directional_replication():
    """On runs with >= 100 decisions in both classes, glue-decision PR
    exceeds nonglue-decision PR on >= 60% of instances."""
    qualifying = 0
    wins = 0
    for name, formula in directional_corpus():
        cfg = SolverConfig(glue_bump=False, max_conflicts=8000)
        result = Solver(formula, cfg).solve()
        rep = result.counters
        if rep.glue_decisions >= 100 and rep.nonglue_decisions >= 100:
            qualifying += 1
            if rep.pr_glue > rep.pr_nonglue:
                wins += 1
    assert qualifying >= 15  # the experiment must not be vacuous
    assert wins / qualifying >= 0.60


def test_ab_harness(tmp_path):
    """run_corpus completes with zero contradictory verdicts, emits PAR-2
    for both configs, and the summary matches an exact recount from the
    raw records CSV."""
    corpus = {
        "php3.cnf": pigeonhole(3),
        "php4.cnf": pigeonhole(4),
        "php5.cnf": pigeonhole(5),
        "parity6.cnf": parity_contradiction(6),
        "chain12.cnf": unit_chain(12),
        "chain12u.cnf": unit_chain(12, sat=False),
        "rand_a.cnf": random_ksat(30, 126, seed=21),
        "rand_b.cnf": random_ksat(40, 170, seed=22),
        "rand_c.cnf": random_ksat(50, 213, seed=23),
        "rand_d.cnf": random_ksat(60, 258, seed=24),
    }
    paths = []
    for fname, formula in corpus.items():
        p = tmp_path / fname
        p.write_text(to_dimacs(formula))
        paths.append(str(p))

    timeout = 60.0
    configs = default_configs(max_conflicts=30_000)
    result = run_corpus(paths, configs, timeout_s=timeout, jobs=2)

    assert len(result.records) == 2 * len(paths)
    assert not any(r.verdict == "ERROR" for r in result.records)
    by_config = {s.config: s for s in result.summaries}
    assert set(by_config) == {"baseline", "gb"}
    for s in result.summaries:
        assert s.par2_s >= 0.0

    records_csv = tmp_path / "records.csv"
    write_records_csv(records_csv, result.records)
    recount = recompute_par2_from_csv(records_csv, timeout)
    for s in result.summaries:
        assert recount[s.config] == s.par2_s  # exact, not approximate


def test_determinism(tmp_path):
    """Identical config runs produce identical decision counts,
    verdicts, and stats CSV rows (wall-time columns excluded)."""
    wall_cols = {STATS_CSV_HEADER.index("wall_time_s")}
    for gb in (False, True):
        rows = []
        for _ in range(2):
            f = random_ksat(40, 168, seed=31)
            cfg = SolverConfig(glue_bump=gb)
            s = InstrumentedSolver(f, cfg)
            result = s.solve()
            buf = io.StringIO()
            csv.writer(buf).writerow(
                result.counters.csv_row("inst", result.verdict.value, 0.0)
            )
            rows.append((result.verdict, result.counters, s.decision_lits, buf.getvalue()))
        (v1, c1, d1, row1), (v2, c2, d2, row2) = rows
        assert v1 == v2
        assert c1 == c2
        assert d1 == d2
        cells1 = next(csv.reader(io.StringIO(row1)))
        cells2 = next(csv.reader(io.StringIO(row2)))
        for i, (a, b) in enumerate(zip(cells1, cells2)):
            if i not in wall_cols:
                assert a == b
