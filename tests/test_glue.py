import math
import random

from gluesat.activity import ActivityTable
from gluesat.formula import Clause, Formula, lit_from_int
from gluesat.gen import pigeonhole, random_ksat
from gluesat.glue import GlueTracker
from gluesat.solver import Solver, SolverConfig, Verdict
from helpers import InstrumentedSolver, attach_activity_log, force_decision, oracle_corpus
from oracles import centrality, replay_activity_log


def glue_clause(ext_lits):
    return Clause([lit_from_int(x) for x in ext_lits], lbd=2)


# ---- raising glue levels (learning-time hook) --------------------------------


def test_first_glue_clause_raises_levels():
    t = GlueTracker(4)
    t.on_glue_clause_learned(glue_clause([1, -2]))
    assert t.glue_level == [1, 1, 0, 0]
    assert t.total_glue_level == 2
    assert t.glue_var_count == 2
    assert t.glue_clause_count == 1


def test_repeat_variable_accumulates():
    t = GlueTracker(3)
    t.on_glue_clause_learned(glue_clause([1, 2]))
    t.on_glue_clause_learned(glue_clause([1, -3]))
    assert t.glue_level[0] == 2
    assert t.glue_var_count == 3
    assert t.glue_clause_count == 2
    assert t.total_glue_level == 4


def test_duplicate_clause_still_counts():
    t = GlueTracker(2)
    t.on_glue_clause_learned(glue_clause([1, 2]))
    t.on_glue_clause_learned(glue_clause([1, 2]))
    assert t.glue_level == [2, 2]
    assert t.glue_clause_count == 2


def test_only_lbd_two_is_glue():
    s = InstrumentedSolver(random_ksat(60, 256, seed=4))
    s.solve()
    lbds = [lbd for *_, lbd, _ in s.learn_events]
    assert 1 in lbds and 2 in lbds and max(lbds) > 2
    assert s.counters.glue_clauses == lbds.count(2)


def test_levels_match_occurrence_recount_over_random_sequence():
    rng = random.Random(123)
    n = 30
    t = GlueTracker(n)
    log = []
    for _ in range(100):
        size = rng.randint(2, 6)
        ext = rng.sample(range(1, n + 1), size)
        ext = [v if rng.random() < 0.5 else -v for v in ext]
        t.on_glue_clause_learned(glue_clause(ext))
        log.append(ext)
    # independent recount straight from the clause log
    counts = [0] * n
    for ext in log:
        for x in ext:
            counts[abs(x) - 1] += 1
    assert t.glue_level == counts
    assert t.total_glue_level == sum(counts)
    assert t.glue_var_count == sum(1 for c in counts if c > 0)


# ---- bump on unassignment ------------------------------------------------------


def test_bump_example_three_quarters_centrality():
    t = GlueTracker(2)
    t.glue_level = [3, 1]
    t.total_glue_level = 4
    t.glue_var_count = 2
    table = ActivityTable(2)
    table.activity[0] = 2.0
    t.on_unassigned(0, table)
    assert table.activity[0] == 3.5  # 2.0 + 2.0 * 0.75, exactly


def test_bump_zero_activity_is_identity():
    t = GlueTracker(1)
    t.glue_level = [5]
    t.total_glue_level = 5
    table = ActivityTable(1)
    t.on_unassigned(0, table)
    assert table.activity[0] == 0.0


def test_bump_skips_nonglue_and_disabled():
    # backtrack bumps only glue variables, and only under GB
    f = Formula(2, [])
    for gb in (True, False):
        s = Solver(f, SolverConfig(glue_bump=gb))
        s.glue.glue_level = [2, 0]
        s.glue.total_glue_level = 2
        s.activities.activity[:] = [1.0, 1.0]
        force_decision(s, 1)
        force_decision(s, 2)
        s.backtrack(0)
        assert s.activities.activity == ([2.0, 1.0] if gb else [1.0, 1.0])


def test_bump_leaves_tracker_state_unchanged():
    t = GlueTracker(2)
    t.glue_level = [3, 1]
    t.total_glue_level = 4
    t.glue_var_count = 2
    table = ActivityTable(2)
    table.activity[0] = 1.0
    t.on_unassigned(0, table)
    assert t.glue_level == [3, 1]
    assert t.total_glue_level == 4
    assert t.glue_clause_count == 0


def test_single_bump_form():
    # activity after the hook == activity before * (1 + centrality)
    rng = random.Random(9)
    for _ in range(200):
        n = rng.randint(1, 10)
        t = GlueTracker(n)
        t.glue_level = [rng.randint(0, 5) for _ in range(n)]
        t.total_glue_level = sum(t.glue_level)
        if t.total_glue_level == 0:
            continue
        table = ActivityTable(n)
        v = rng.choice([u for u in range(n) if t.glue_level[u] > 0])
        before = rng.uniform(0, 50)
        table.activity[v] = before
        t.on_unassigned(v, table)
        gc = t.glue_level[v] / t.total_glue_level
        assert math.isclose(table.activity[v], before * (1 + gc), rel_tol=1e-12)


def test_scale_equivariance_of_bump():
    rng = random.Random(21)
    for _ in range(100):
        n = rng.randint(1, 8)
        levels = [rng.randint(0, 4) for _ in range(n)]
        if sum(levels) == 0:
            levels[0] = 1
        k = 10 ** rng.uniform(-20, 20)
        v = rng.randrange(n)
        base = rng.uniform(0, 10)

        def bumped(start):
            t = GlueTracker(n)
            t.glue_level = list(levels)
            t.total_glue_level = sum(levels)
            table = ActivityTable(n)
            table.activity[v] = start
            t.on_unassigned(v, table)
            return table.activity[v]

        assert math.isclose(bumped(k * base), k * bumped(base), rel_tol=1e-12)


# ---- centrality -----------------------------------------------------------------


def test_centrality_sole_variable():
    t = GlueTracker(3)
    t.on_glue_clause_learned(glue_clause([2, 3]))
    t2 = GlueTracker(1)
    t2.glue_level = [1]
    t2.total_glue_level = 1
    assert centrality(t2, 0) == 1.0


def test_centrality_shares():
    t = GlueTracker(2)
    t.glue_level = [3, 1]
    t.total_glue_level = 4
    assert centrality(t, 0) == 0.75
    assert centrality(t, 1) == 0.25


def test_centrality_normalizes_to_one():
    rng = random.Random(17)
    for _ in range(100):
        n = rng.randint(1, 40)
        t = GlueTracker(n)
        t.glue_level = [rng.randint(0, 9) for _ in range(n)]
        t.total_glue_level = sum(t.glue_level)
        if t.total_glue_level == 0:
            continue
        total = sum(centrality(t, v) for v in range(n) if t.glue_level[v] > 0)
        assert abs(total - 1.0) <= 1e-12


# ---- integration with the solver -------------------------------------------------


def test_glue_membership_is_monotone_during_search():
    f = pigeonhole(5)

    class MembershipAudit(InstrumentedSolver):
        def decide(self):
            lit = super().decide()
            v = lit >> 1
            if self.glue.glue_level[v] > 0:
                ever_glue.add(v)
            else:
                assert v not in ever_glue, "glue status must never revert"
            return lit

    ever_glue: set = set()
    MembershipAudit(f, SolverConfig(glue_bump=True)).solve()
    assert ever_glue  # the audit actually saw glue decisions


def test_tracker_counts_match_solver_counter():
    for seed in (3, 4):
        f = random_ksat(25, 105, seed=seed)
        s = Solver(f, SolverConfig(glue_bump=True))
        s.solve()
        assert s.glue.glue_clause_count == s.counters.glue_clauses
        assert s.glue.glue_var_count == sum(1 for g in s.glue.glue_level if g > 0)
        assert s.glue.total_glue_level == sum(s.glue.glue_level)


def test_trace_replay_recomputes_final_activities():
    # every bump/decay/unassign-bump event, replayed offline, lands on the
    # same final activity table
    for name, f in [("php", pigeonhole(4)), ("rand", random_ksat(20, 88, seed=2))]:
        s = Solver(f, SolverConfig(glue_bump=True))
        log = attach_activity_log(s)
        s.solve()
        replayed = replay_activity_log(f.num_vars, log, decay=0.95)
        for v in range(f.num_vars):
            assert math.isclose(
                s.activities.activity[v], replayed[v], rel_tol=1e-9, abs_tol=1e-300
            ), (name, v)


def test_gb_off_equals_tracker_blind():
    # with bumping off, glue tracking must not perturb the search at all:
    # a tracker that never sees a glue clause gives the same run
    for seed in range(4):
        f = random_ksat(22, 95, seed=seed + 11)
        plain = InstrumentedSolver(f, SolverConfig(glue_bump=False))
        r_plain = plain.solve()
        blind = InstrumentedSolver(f, SolverConfig(glue_bump=False))
        blind.glue.on_glue_clause_learned = lambda clause: None
        r_blind = blind.solve()
        assert blind.glue.glue_clause_count == 0
        assert r_plain.counters.glue_clauses > 0
        assert r_plain.verdict == r_blind.verdict
        # the blinded report's glue fields differ by design; the search does not
        c_plain, c_blind = r_plain.counters, r_blind.counters
        assert (c_plain.decisions, c_plain.propagations, c_plain.conflicts) == (
            c_blind.decisions,
            c_blind.propagations,
            c_blind.conflicts,
        )
        assert plain.decision_lits == blind.decision_lits
        assert r_plain.restarts == r_blind.restarts


def test_gb_on_changes_nothing_until_glue_exists():
    # pure-propagation instances never learn clauses, so GB is inert
    from gluesat.gen import unit_chain

    f = unit_chain(12)
    on = Solver(f, SolverConfig(glue_bump=True)).solve()
    off = Solver(f, SolverConfig(glue_bump=False)).solve()
    assert on.verdict == off.verdict == Verdict.SAT
    assert on.counters == off.counters


def test_gb_on_and_off_verdicts_agree():
    for name, f in oracle_corpus()[60:100]:
        on = Solver(f, SolverConfig(glue_bump=True)).solve()
        off = Solver(f, SolverConfig(glue_bump=False)).solve()
        assert on.verdict == off.verdict, name
