import csv
import io
from itertools import accumulate

import pytest

from gluesat.bench import RECORDS_CSV_HEADER
from gluesat.gen import parity_contradiction, pigeonhole, random_ksat, unit_chain
from gluesat.metrics import (
    STATS_COLUMNS,
    STATS_CSV_HEADER,
    MetricsCollector,
    finalize_report,
)
from gluesat.proof import ADD, ProofWriter, parse_drat
from gluesat.solver import RESTART_BASE, Solver, SolverConfig, Verdict
from helpers import attach_classification_log
from oracles import luby_sequence


# ---- classification and attribution -----------------------------------------


def test_first_decision_is_nonglue():
    s = Solver(random_ksat(10, 30, seed=1))
    s.decide()
    assert s.metrics.nonglue.decisions == 1
    assert s.metrics.glue.decisions == 0


def test_decision_with_positive_glue_level_is_glue():
    m = MetricsCollector()
    m.record_decision(4, is_glue=True)
    assert m.glue.decisions == 1 and m.nonglue.decisions == 0


def test_propagations_attributed_to_latest_decision_class():
    m = MetricsCollector()
    m.record_decision(0, is_glue=True)
    m.record_propagations(7)
    m.record_propagations(3)
    assert m.glue.propagations == 10
    assert m.nonglue.propagations == 0


def test_preamble_collects_level0_work():
    m = MetricsCollector()
    m.record_propagations(1)  # before any decision
    m.record_conflict(None)
    assert m.preamble.propagations == 1
    assert m.preamble.conflicts == 1
    assert m.glue.propagations == m.nonglue.propagations == 0


def test_attribution_follows_backtracking():
    m = MetricsCollector()
    m.record_decision(0, is_glue=True)  # level 1
    m.record_decision(1, is_glue=False)  # level 2
    m.record_conflict(3)  # attributed to nonglue (level 2)
    m.on_backtrack(1)
    m.record_propagations(1)  # attributed to glue again (level 1)
    m.on_backtrack(0)
    m.record_propagations(1)  # preamble now
    assert m.nonglue.conflicts == 1
    assert m.glue.propagations == 1
    assert m.preamble.propagations == 1


def test_conflict_lbd_folding():
    m = MetricsCollector()
    m.record_decision(0, is_glue=True)
    m.record_conflict(4)
    m.record_conflict(2)
    m.on_backtrack(0)
    m.record_conflict(None)  # level 0, no clause learnt: counted, not folded
    assert m.glue.conflicts == 2
    assert m.glue.lbd_sum == 6
    assert (m.preamble.conflicts, m.preamble.lbd_sum) == (1, 0)
    r = finalize_report(m, glue_clauses=0, glue_var_count=0, num_vars=1)
    assert r.albd_glue == 3.0


def test_classification_matches_glue_log_replay():
    for seed in (0, 5):
        s = Solver(random_ksat(30, 126, seed=seed), SolverConfig(glue_bump=True))
        log = attach_classification_log(s)
        s.solve()
        glue_vars: set = set()
        decisions = 0
        for ev in log:
            if ev[0] == "glue_clause":
                glue_vars.update(ev[1])
            else:
                _, var, reported = ev
                assert reported == (var in glue_vars)
                decisions += 1
        assert decisions == s.counters.decisions


# ---- conservation ------------------------------------------------------------


def test_class_totals_partition_global_counters():
    for seed in range(5):
        f = random_ksat(24, 100, seed=seed + 30)
        s = Solver(f, SolverConfig(glue_bump=bool(seed % 2)))
        r = s.solve()
        m = s.metrics
        assert m.glue.decisions + m.nonglue.decisions == r.counters.decisions
        assert (
            m.glue.propagations + m.nonglue.propagations + m.preamble.propagations
            == r.counters.propagations
        )
        assert (
            m.glue.conflicts + m.nonglue.conflicts + m.preamble.conflicts
            == r.counters.conflicts
        )
        c = r.counters
        assert c.glue_decisions + c.nonglue_decisions == c.decisions


@pytest.mark.parametrize("glue_bump", [False, True])
def test_every_class_conflict_learns_one_lemma(glue_bump):
    # the one conflict that learns nothing is the level-0 one, and it lands
    # in the preamble; so a class's conflicts count its LBD samples
    cases = [
        (pigeonhole(5), Verdict.UNSAT),
        (parity_contradiction(12), Verdict.UNSAT),
        (random_ksat(150, 1050, seed=1), Verdict.UNSAT),
        (random_ksat(40, 168, seed=31), Verdict.SAT),
    ]
    for formula, verdict in cases:
        sink = io.StringIO()
        s = Solver(formula, SolverConfig(glue_bump=glue_bump), proof=ProofWriter(sink))
        assert s.solve().verdict is verdict
        lemmas = [e for e in parse_drat(sink.getvalue()) if e.kind == ADD and e.lits]
        m = s.metrics
        assert len(lemmas) == m.glue.conflicts + m.nonglue.conflicts > 0
        assert m.preamble.conflicts == (verdict is Verdict.UNSAT)
        assert m.preamble.lbd_sum == 0


# ---- finalize_report -----------------------------------------------------------


def test_pr_is_propagations_per_decision():
    m = MetricsCollector()
    m.record_decision(0, is_glue=True)
    for _ in range(9):
        m.record_decision(1, is_glue=True)
    m.record_propagations(100)
    r = finalize_report(m, glue_clauses=0, glue_var_count=0, num_vars=5)
    assert (r.decisions, r.propagations, r.conflicts) == (10, 100, 0)
    assert r.pr_glue == 10.0
    assert r.pr_nonglue is None  # no nonglue decisions: absent, not zero


def test_report_absent_ratios_serialize_empty():
    m = MetricsCollector()
    r = finalize_report(m, glue_clauses=0, glue_var_count=0, num_vars=4)
    row = r.csv_row("inst", "UNKNOWN", 0.5)
    header_index = {name: i for i, name in enumerate(STATS_CSV_HEADER)}
    for col in ("pr_glue", "lr_glue", "albd_glue"):
        assert row[header_index[col]] == ""
    assert row[header_index["gf"]] == "0.0"


def test_gf_is_glue_var_count_over_num_vars():
    for gvc, n in [(3, 7), (0, 5), (11, 11), (1, 997), (22, 100)]:
        r = finalize_report(MetricsCollector(), 0, gvc, n)
        assert r.gf == gvc / n
        assert (r.glue_var_count, r.num_vars) == (gvc, n)
    assert finalize_report(MetricsCollector(), 0, 0, 0).gf is None


def test_gf_series_sampling():
    m = MetricsCollector()
    m.gf_series.append((10_000, 0.25))
    m.gf_series.append((20_000, 0.5))
    r = finalize_report(m, 0, 5, 10)
    assert r.gf_series == [(10_000, 0.25), (20_000, 0.5)]
    assert [g for _, g in r.gf_series] == sorted(g for _, g in r.gf_series)


def test_report_rows_are_byte_identical_across_runs():
    f = pigeonhole(4)
    rows = []
    for _ in range(2):
        r = Solver(f, SolverConfig(glue_bump=True)).solve()
        buf = io.StringIO()
        csv.writer(buf).writerow(r.counters.csv_row("php", r.verdict.value, 0.0))
        rows.append(buf.getvalue())
    assert rows[0] == rows[1]


def test_gf_series_sampled_at_every_restart():
    # a short UNSAT run: 2 restarts under baseline, 3 under gb
    f = random_ksat(150, 1050, seed=1)
    for glue_bump in (False, True):
        r = Solver(f, SolverConfig(glue_bump=glue_bump)).solve()
        assert r.verdict is Verdict.UNSAT
        series = r.counters.gf_series
        assert r.restarts >= 2
        assert len(series) == r.restarts
        # each restart comes RESTART_BASE * luby(i) conflicts after the last
        gaps = [RESTART_BASE * t for t in luby_sequence(r.restarts)]
        assert [c for c, _ in series] == list(accumulate(gaps))
        fractions = [g for _, g in series]
        assert fractions == sorted(fractions)  # glue variables are never unmarked
        assert fractions[-1] <= r.counters.gf


def test_unit_chain_is_all_preamble():
    s = Solver(unit_chain(8))
    r = s.solve()
    assert r.verdict is Verdict.SAT
    assert s.metrics.preamble.propagations == 8
    assert r.counters.glue_decisions == r.counters.nonglue_decisions == 0


def test_header_is_fixed():
    assert STATS_COLUMNS == [
        "decisions",
        "propagations",
        "conflicts",
        "glue_clauses",
        "glue_decisions",
        "nonglue_decisions",
        "pr_glue",
        "lr_glue",
        "albd_glue",
        "pr_nonglue",
        "lr_nonglue",
        "albd_nonglue",
        "gf",
    ]
    assert STATS_CSV_HEADER == ["instance", "verdict", "wall_time_s"] + STATS_COLUMNS
    assert RECORDS_CSV_HEADER == (
        ["instance", "config", "verdict", "wall_time_s", "timeout_s"] + STATS_COLUMNS + ["error"]
    )
