import io
import math
import random
import time
from contextlib import nullcontext

import pytest

from gluesat.formula import Clause, Formula, lit_to_int, parse_dimacs
from gluesat.gen import parity_contradiction, pigeonhole, random_ksat
from gluesat.proof import ProofWriter, check_rup
from gluesat.solver import (
    SolverConfig,
    Solver,
    Verdict,
    compute_lbd,
    luby,
)
from helpers import (
    InstrumentedSolver,
    assignment_consistent,
    force_decision,
    literal_values,
    oracle_corpus,
    reduce_schedule,
    unassigned_argmax,
    watches_consistent,
)
from oracles import (
    first_uip_resolution,
    luby_sequence,
    model_satisfies,
    simulate_luby_restarts,
    truth_table_satisfiable,
)


# ---- solve: whole-formula verdicts ------------------------------------------


def test_solve_contradictory_units_unsat():
    f = parse_dimacs("p cnf 1 2\n1 0\n-1 0\n")
    r = Solver(f).solve()
    assert r.verdict is Verdict.UNSAT


def test_solve_simple_sat():
    f = parse_dimacs("p cnf 2 2\n1 2 0\n-1 2 0\n")
    r = Solver(f).solve()
    assert r.verdict is Verdict.SAT
    assert model_satisfies(f, r.model)


def test_solve_pigeonhole_php43_unsat():
    f = pigeonhole(3)
    assert truth_table_satisfiable(f) is False  # brute force over 2^12
    assert Solver(f).solve().verdict is Verdict.UNSAT


def test_solve_empty_clause_input():
    f = parse_dimacs("p cnf 2 1\n0\n")
    assert Solver(f).solve().verdict is Verdict.UNSAT


def test_solve_empty_formula():
    r = Solver(Formula(0, [])).solve()
    assert r.verdict is Verdict.SAT
    assert r.model == []


def test_unconstrained_variables_get_default_phase():
    f = parse_dimacs("p cnf 3 1\n1 0")
    r = Solver(f).solve()
    assert r.verdict is Verdict.SAT
    assert r.model == [1, -2, -3]  # defaults are false


def test_conflict_budget_gives_unknown():
    f = pigeonhole(5)
    r = Solver(f, SolverConfig(max_conflicts=5)).solve()
    assert r.verdict is Verdict.UNKNOWN
    assert r.counters.conflicts == 5


def test_conflict_budget_below_one_is_refused():
    # as --max-conflicts is on both command lines: a cap of 0 would still
    # allow one conflict
    for cap in (0, -3):
        with pytest.raises(ValueError, match=f"max_conflicts must be >= 1: {cap}"):
            Solver(pigeonhole(5), SolverConfig(max_conflicts=cap))
    r = Solver(pigeonhole(5), SolverConfig(max_conflicts=1)).solve()
    assert r.verdict is Verdict.UNKNOWN
    assert r.counters.conflicts == 1


def test_second_solve_raises():
    s = Solver(pigeonhole(3))
    assert s.solve().verdict is Verdict.UNSAT
    with pytest.raises(RuntimeError, match="single-use"):
        s.solve()


# ---- propagate ---------------------------------------------------------------


def test_propagate_unit_clause_at_level0():
    s = Solver(Formula.from_ints(1, [[1]]))
    assert s.propagate() is None
    assert s.value[0] == 1 and s.levels[0] == 0
    assert s.counters.propagations == 1


def test_propagate_implication_with_reason():
    s = Solver(Formula.from_ints(2, [[-1, 2]]))
    force_decision(s, 1)
    assert s.propagate() is None
    assert s.value[2] == 1 and s.value[3] == -1
    assert s.levels[1] == 1
    assert s.reasons[1] is s.clauses[0]


def test_propagate_conflict_on_second_clause():
    s = Solver(Formula.from_ints(2, [[-1, 2], [-1, -2]]))
    force_decision(s, 1)
    confl = s.propagate()
    assert confl is s.clauses[1]
    # trail still reflects the propagation made before the conflict
    assert s.value[2] == 1


# ---- analyze_conflict --------------------------------------------------------


def test_level0_conflict_learns_nothing():
    s = InstrumentedSolver(Formula.from_ints(1, [[1], [-1]]))
    r = s.solve()
    assert r.verdict is Verdict.UNSAT
    assert s.learnts == []
    assert r.counters.conflicts == 1


def test_unit_learnt_clause_assertion_level_and_lbd():
    s = Solver(Formula.from_ints(2, [[-1, 2], [-1, -2]]))
    force_decision(s, 1)
    confl = s.propagate()
    lits, assertion_level, lbd = s.analyze_conflict(confl)
    assert [lit_to_int(l) for l in lits] == [-1]
    assert assertion_level == 0
    assert lbd == 1


def test_first_uip_textbook_instance():
    # decisions x1@1, x4@2; the implication funnel at level 2 pinches at x5
    f = Formula.from_ints(
        7,
        [
            [-1, 2],
            [-4, 5],
            [-5, -2, 6],
            [-5, -2, 7],
            [-6, -7],
        ],
    )
    s = Solver(f)
    force_decision(s, 1)
    assert s.propagate() is None
    force_decision(s, 4)
    confl = s.propagate()
    assert confl is not None

    trail_ext = [lit_to_int(l) for l in s.trail]
    reasons = {
        (lit >> 1) + 1: s.reasons[lit >> 1].to_ints()
        for lit in s.trail
        if s.reasons[lit >> 1] is not None
    }
    levels = {(lit >> 1) + 1: s.levels[lit >> 1] for lit in s.trail}
    expected = first_uip_resolution(
        trail_ext, reasons, levels, confl.to_ints(), s.current_level
    )

    lits, assertion_level, lbd = s.analyze_conflict(confl)
    assert sorted(lit_to_int(l) for l in lits) == expected
    assert expected == [-5, -2]  # frozen from the resolution oracle
    assert lit_to_int(lits[0]) == -5  # asserting literal first
    assert assertion_level == 1
    assert lbd == 2


def test_first_uip_matches_resolution_oracle_randomized():
    # drive real solves and re-derive every learnt clause by resolution
    rng = random.Random(99)
    checked = 0
    for trial in range(30):
        n = rng.randint(8, 16)
        f = random_ksat(n, int(n * 4.3), seed=trial + 500)

        class OracleChecked(InstrumentedSolver):
            def analyze_conflict(self, confl):
                trail_ext = [lit_to_int(l) for l in self.trail]
                reasons = {
                    (lit >> 1) + 1: self.reasons[lit >> 1].to_ints()
                    for lit in self.trail
                    if self.reasons[lit >> 1] is not None
                }
                levels = {
                    (lit >> 1) + 1: self.levels[lit >> 1] for lit in self.trail
                }
                expected = first_uip_resolution(
                    trail_ext, reasons, levels, confl.to_ints(), self.current_level
                )
                lits, alevel, lbd = super().analyze_conflict(confl)
                assert sorted(lit_to_int(l) for l in lits) == expected
                nonlocal_counter[0] += 1
                return lits, alevel, lbd

        nonlocal_counter = [0]
        OracleChecked(f).solve()
        checked += nonlocal_counter[0]
    assert checked > 100


# ---- compute_lbd --------------------------------------------------------------


def test_compute_lbd_examples():
    # three literals all at level 7 -> 1 block
    levels = [7, 7, 7]
    value = literal_values([1, 1, 1])
    assert compute_lbd([0, 2, 4], levels, value) == 1
    levels = [2, 5]
    value = literal_values([1, -1])
    assert compute_lbd([0, 2], levels, value) == 2


def test_compute_lbd_unassigned_is_error():
    with pytest.raises(ValueError, match="unassigned"):
        compute_lbd([0], [3], [0, 0])
    # a false literal is assigned; its unassigned neighbour is not
    with pytest.raises(ValueError, match="unassigned"):
        compute_lbd([1, 2], [3, 4], literal_values([1, 0]))


def test_compute_lbd_randomized_against_distinct_count():
    rng = random.Random(4)
    for _ in range(2000):
        n = rng.randint(1, 30)
        levels = [rng.randint(0, 8) for _ in range(n)]
        value = literal_values([rng.choice([1, -1]) for _ in range(n)])
        lits = [2 * v + rng.randint(0, 1) for v in range(n)]
        size = rng.randint(1, n)
        chosen = rng.sample(lits, size)
        expected = len({levels[l >> 1] for l in chosen})
        assert compute_lbd(chosen, levels, value) == expected


# ---- decide -------------------------------------------------------------------


def test_decide_all_zero_activities_picks_lowest_with_false_phase():
    s = Solver(Formula(3, []))
    lit = s.decide()
    assert lit_to_int(lit) == -1
    assert s.current_level == 1
    assert s.counters.decisions == 1


def test_decide_picks_argmax():
    s = Solver(Formula(2, []))
    s.activities.bump(0, 0.5)
    s.activities.bump(1, 2.0)
    assert lit_to_int(s.decide()) == -2


def test_decide_matches_linear_scan_after_bump_decay():
    rng = random.Random(11)
    s = Solver(Formula(20, []))
    for _ in range(300):
        op = rng.random()
        if op < 0.7:
            s.activities.bump(rng.randrange(20))
        else:
            s.activities.decay()
    acts = s.activities.activity
    expected = max(range(20), key=lambda v: (acts[v], -v))
    assert (s.decide() >> 1) == expected


def test_decide_uses_saved_phase():
    s = Solver(Formula.from_ints(2, [[-1, 2]]))
    force_decision(s, 1)
    s.propagate()
    s.backtrack(0)  # phases of x1, x2 saved as True
    assert lit_to_int(s.decide()) == 1


class ArgmaxOracleSolver(Solver):
    """Checks every decision against a brute-force scan: the pick is the
    max of (activity, -index) over all unassigned variables, and every
    unassigned variable is in the branching heap."""

    def __init__(self, *args, **kwargs):
        self.checked_decisions = 0
        self.reduce_db_calls = 0
        super().__init__(*args, **kwargs)

    def decide(self):
        expected = unassigned_argmax(self)
        lit = super().decide()
        assert lit >> 1 == expected
        self.checked_decisions += 1
        return lit

    def reduce_db(self):
        self.reduce_db_calls += 1
        return super().reduce_db()


@pytest.mark.parametrize("glue_bump", [False, True], ids=["baseline", "gb"])
@pytest.mark.parametrize(
    "build, max_conflicts, schedule",
    [
        (lambda: pigeonhole(5), None, None),
        (lambda: parity_contradiction(12), None, None),
        (lambda: random_ksat(100, 426, seed=2), 400, (100, 300)),
    ],
    ids=["php6_5", "parity12", "rand100_capped"],
)
def test_every_decision_is_the_unassigned_argmax(build, max_conflicts, schedule, glue_bump):
    cfg = SolverConfig(glue_bump=glue_bump, max_conflicts=max_conflicts)
    with reduce_schedule(*schedule) if schedule else nullcontext():
        s = ArgmaxOracleSolver(build(), cfg)
        s.solve()
    assert s.checked_decisions > 50
    if schedule:
        assert s.reduce_db_calls > 0


# ---- backtrack ----------------------------------------------------------------


def test_backtrack_level_filter():
    s = Solver(Formula(3, []))
    force_decision(s, 1)
    force_decision(s, 2)
    s._enqueue(2 * 2, None)  # x3 joins level 2
    s.backtrack(1)
    assert s.value[0] == 1 and s.value[1] == -1  # x1 stays
    assert s.value[2:] == [0, 0, 0, 0]
    assert s.current_level == 1


def test_backtrack_to_zero_clears_everything_above():
    s = Solver(Formula(4, []))
    for ext in (1, 2, 3):
        force_decision(s, ext)
    s.backtrack(0)
    assert s.current_level == 0
    assert all(x == 0 for x in s.value)
    assert sum(s.activities.heap.in_heap) == 4


def test_backtrack_hook_order_bump_before_reinsert():
    # the glue bump must land before the next decision, whether backtrack
    # unassigns variables decide() popped or ones still in the lazy heap
    for opened_by in ("decide", "force_decision"):
        s = Solver(Formula(3, []), SolverConfig(glue_bump=True))
        if opened_by == "decide":
            s.decide()  # v0 at level 1, popped from the heap
            s.decide()  # v1 at level 2, popped from the heap
        else:
            force_decision(s, 2)  # v1 at level 1, left in the heap
            force_decision(s, 1)  # v0 at level 2, left in the heap
        s.glue.glue_level[0] = 3
        s.glue.glue_level[1] = 1
        s.glue.total_glue_level = 4
        s.glue.glue_var_count = 2
        s.activities.bump(0, 2.0)
        # v2 ranks above v0 before v0's glue bump, below it after
        s.activities.bump(2, 3.0)

        s.backtrack(0)
        assert s.activities.activity[0] == 3.5, opened_by  # 2.0 * (1 + 3/4)
        assert s.activities.activity[1] == 0.0, opened_by
        assert all(s.activities.heap.in_heap), opened_by
        assert (s.decide() >> 1) == 0, opened_by


# ---- activity bumping / decay ---------------------------------------------------


def test_bump_adds_amount():
    s = Solver(Formula(1, []))
    s.activities.bump(0, 1.0)
    s.activities.bump(0, 1.0)
    assert s.activities.activity[0] == 2.0


def test_rescale_preserves_argmax():
    s = Solver(Formula(5, []))
    rng = random.Random(2)
    for _ in range(50):
        s.activities.bump(rng.randrange(5))
        if rng.random() < 0.5:
            s.activities.decay()
    before = max(range(5), key=lambda v: (s.activities.activity[v], -v))
    s.activities.rescale()
    assert (s.decide() >> 1) == before


def test_rescale_triggers_automatically():
    s = Solver(Formula(2, []))
    s.activities.bump(0, 5e99)
    s.activities.bump(0, 6e99)  # crosses 1e100
    assert s.activities.activity[0] == pytest.approx(1.1)
    assert s.activities.var_inc == 1e-100


def test_interleaved_bump_decay_matches_naive_replay():
    rng = random.Random(31337)
    s = Solver(Formula(10, []))
    ops = []
    for _ in range(500):
        if rng.random() < 0.6:
            v = rng.randrange(10)
            ops.append(("bump", v))
            s.activities.bump(v)
        else:
            ops.append(("decay",))
            s.activities.decay()
    # naive replay: explicit loop, no shared code
    act = [0.0] * 10
    inc = 1.0
    for op in ops:
        if op[0] == "bump":
            act[op[1]] += inc
            if act[op[1]] > 1e100:
                act = [a * 1e-100 for a in act]
                inc *= 1e-100
        else:
            inc /= 0.95
    for v in range(10):
        assert math.isclose(s.activities.activity[v], act[v], rel_tol=1e-9, abs_tol=0.0)


# ---- reduce_db -------------------------------------------------------------------


def _fabricate_learnt(s, ext_lits, lbd, activity=0.0):
    c = Clause([2 * (abs(x) - 1) + (0 if x > 0 else 1) for x in ext_lits],
               lbd=lbd, activity=activity)
    s.learnts.append(c)
    s.watches[c.lits[0]].append(c)
    s.watches[c.lits[1]].append(c)
    return c


def test_clause_activity_rescale_covers_the_new_learnt():
    # the new clause's own bump fires the rescale; it must be scaled with
    # the clauses already in the database
    s = Solver(Formula(4, []))
    old = _fabricate_learnt(s, [1, 2], 3, activity=9e19)
    s.cla_inc = 2e20
    new = s._attach_learnt([2, 6], 3)
    assert math.isclose(old.activity, 0.9)
    assert math.isclose(s.cla_inc, 2.0)
    assert math.isclose(new.activity, 2.0)


class RescaleAuditSolver(Solver):
    """Counts variable and clause-activity rescales; at the first decision
    after each variable rescale, checks that every unassigned variable
    has a live heap entry and that the pick is the brute-force argmax."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.var_rescales = self.clause_rescales = 0
        self.audit_next_pick = False
        rescale = self.activities.rescale

        def counted_rescale():
            rescale()
            self.var_rescales += 1
            self.audit_next_pick = True

        self.activities.rescale = counted_rescale

    def _bump_clause_activity(self, c):
        before = self.cla_inc
        super()._bump_clause_activity(c)
        self.clause_rescales += self.cla_inc < before

    def decide(self):
        if not self.audit_next_pick:
            return super().decide()
        self.audit_next_pick = False
        heap, act = self.activities.heap, self.activities.activity
        live = {v for key, v in heap.entries if heap.in_heap[v] and key == -act[v]}
        unassigned = [v for v in range(self.num_vars) if self.value[2 * v] == 0]
        assert [v for v in unassigned if v not in live] == []
        expected = unassigned_argmax(self)
        lit = super().decide()
        assert lit >> 1 == expected
        return lit


@pytest.mark.parametrize("glue_bump", [False, True])
def test_frequent_rescales_keep_verdicts_certified(monkeypatch, glue_bump):
    # Lowered limits make both rescales fire every few dozen conflicts in
    # runs of ~900 conflicts.
    monkeypatch.setattr("gluesat.activity.RESCALE_LIMIT", 32.0)
    monkeypatch.setattr("gluesat.activity.RESCALE_FACTOR", 1 / 32)
    monkeypatch.setattr("gluesat.solver.CLAUSE_ACT_LIMIT", 1.0)
    monkeypatch.setattr("gluesat.solver.CLAUSE_ACT_RESCALE", 0.75)
    unsat, sat = pigeonhole(6), random_ksat(120, 504, seed=17)

    sink = io.StringIO()
    s = RescaleAuditSolver(unsat, SolverConfig(glue_bump=glue_bump), proof=ProofWriter(sink))
    assert s.solve().verdict is Verdict.UNSAT
    assert check_rup(unsat, sink.getvalue()) is True
    assert s.var_rescales >= 10 and s.clause_rescales >= 10

    s = RescaleAuditSolver(sat, SolverConfig(glue_bump=glue_bump))
    r = s.solve()
    assert r.verdict is Verdict.SAT and model_satisfies(sat, r.model)
    assert s.var_rescales >= 10 and s.clause_rescales >= 10


def test_reduce_db_keeps_all_glue():
    s = Solver(Formula(6, []))
    for i in range(5):
        _fabricate_learnt(s, [i + 1, -(i % 5 + 2)] if i + 1 != i % 5 + 2 else [i + 1, 6], 2)
    assert s.reduce_db() == 0
    assert len(s.learnts) == 5


def test_reduce_db_deletes_worse_half_of_candidates():
    s = Solver(Formula(12, []))
    glue1 = _fabricate_learnt(s, [1, 2], 2)
    glue2 = _fabricate_learnt(s, [3, 4], 2)
    reason1 = _fabricate_learnt(s, [12, -11], 4)
    reason2 = _fabricate_learnt(s, [8, -11], 5)
    deletable = [
        _fabricate_learnt(s, [1, 9], 3, activity=6.0),
        _fabricate_learnt(s, [2, 10], 3, activity=5.0),
        _fabricate_learnt(s, [3, 11], 4, activity=4.0),
        _fabricate_learnt(s, [4, 12], 5, activity=9.0),
        _fabricate_learnt(s, [5, 9], 6, activity=2.0),
        _fabricate_learnt(s, [6, 10], 7, activity=1.0),
    ]
    # park reason1/reason2 on the trail, each implying its first literal
    force_decision(s, 11)
    s._enqueue(reason1.lits[0], reason1)  # x12
    s._enqueue(reason2.lits[0], reason2)  # x8
    assert s.reduce_db() == 3  # half of the 6 candidates
    assert glue1 in s.learnts and glue2 in s.learnts
    assert reason1 in s.learnts and reason2 in s.learnts
    # the three worst by (lbd asc, activity desc) are gone
    survivors = set(map(id, s.learnts))
    assert id(deletable[0]) in survivors
    assert id(deletable[1]) in survivors
    assert id(deletable[2]) in survivors
    assert id(deletable[3]) not in survivors
    assert id(deletable[4]) not in survivors
    assert id(deletable[5]) not in survivors


def test_reduce_db_never_deletes_lbd2_in_real_runs():
    with reduce_schedule(30, 10):
        s = InstrumentedSolver(pigeonhole(6))
        s.solve()
    assert s.deleted_lbds  # reduction actually happened
    assert all(lbd > 2 for lbd in s.deleted_lbds)


def test_verdicts_stable_with_and_without_reduction():
    for seed in range(6):
        f = random_ksat(25, 107, seed=seed + 40)
        with reduce_schedule(20, 5):
            with_reduce = Solver(f).solve()
        with reduce_schedule(10**9, 0):
            without = Solver(f).solve()
        assert with_reduce.verdict == without.verdict
        assert with_reduce.verdict in (Verdict.SAT, Verdict.UNSAT)


# ---- restarts ---------------------------------------------------------------------


def test_luby_prefix():
    assert [luby(i) for i in range(1, 8)] == [1, 1, 2, 1, 1, 2, 4]
    assert [luby(i) for i in range(1, 64)] == luby_sequence(63)


def test_first_restart_fires_at_restart_base():
    # the first restart fires at conflict RESTART_BASE, not one before
    f = pigeonhole(6)  # PHP(7,6)
    r = Solver(f, SolverConfig(max_conflicts=99)).solve()
    assert (r.counters.conflicts, r.restarts, r.counters.gf_series) == (99, 0, [])
    r = Solver(f, SolverConfig(max_conflicts=100)).solve()
    assert (r.counters.conflicts, r.restarts) == (100, 1)
    assert [c for c, _ in r.counters.gf_series] == [100]


def test_restart_count_matches_luby_oracle_at_10000_conflicts():
    f = pigeonhole(8)  # hard enough to hit the budget
    s = Solver(f, SolverConfig(max_conflicts=10_000))
    r = s.solve()
    assert r.verdict is Verdict.UNKNOWN
    assert r.counters.conflicts == 10_000
    assert r.restarts == simulate_luby_restarts(10_000, 100)


# ---- cross-cutting invariants -------------------------------------------------------


def test_watch_and_asserting_invariants_on_mixed_runs():
    for seed in range(8):
        f = random_ksat(20, 86, seed=seed)
        s = InstrumentedSolver(f, SolverConfig(glue_bump=bool(seed % 2)))
        r = s.solve()
        assert r.verdict in (Verdict.SAT, Verdict.UNSAT)


def test_watches_consistent_detects_a_missing_watch():
    # the oracle the InstrumentedSolver audit rests on can fail
    s = Solver(random_ksat(10, 40, seed=1))
    assert watches_consistent(s)
    c = s.clauses[0]
    s.watches[c.lits[1]].remove(c)
    assert not watches_consistent(s)


def test_assignment_consistent_detects_half_an_assignment():
    # the oracle the InstrumentedSolver audit rests on can fail
    s = Solver(random_ksat(10, 40, seed=1))
    force_decision(s, 3)
    assert s.propagate() is None
    assert assignment_consistent(s)
    s.value[5] = 0  # clear only the false literal -x3, x3 stays true
    assert not assignment_consistent(s)


def test_counter_consistency():
    for seed in range(6):
        f = random_ksat(18, 79, seed=seed + 60)
        s = InstrumentedSolver(f, SolverConfig(glue_bump=True))
        r = s.solve()
        assert r.counters.propagations == s.reason_enqueues
        level0_conflicts = 1 if r.verdict is Verdict.UNSAT else 0
        assert r.counters.conflicts == s.analyze_calls + level0_conflicts


def test_reason_clauses_unit_under_trail_prefix():
    f = random_ksat(15, 64, seed=77)
    s = Solver(f)
    force_decision(s, 1)
    s.propagate()
    seen = set()
    for lit in s.trail:
        v = lit >> 1
        reason = s.reasons[v]
        if reason is not None:
            for other in reason.lits:
                if other != lit:
                    assert (other ^ 1) >> 1 in seen or s.levels[other >> 1] == 0
        seen.add(v)


def test_decide_rescale_argmax_invariance():
    rng = random.Random(5)
    s = Solver(Formula(12, []))
    for _ in range(80):
        s.activities.bump(rng.randrange(12))
        if rng.random() < 0.3:
            s.activities.decay()
    acts_before = list(s.activities.activity)
    pick_before = max(range(12), key=lambda v: (acts_before[v], -v))
    for k in (7.5, 1e-30, 3e25):
        t = Solver(Formula(12, []))
        for v in range(12):
            t.activities.bump(v, acts_before[v] * k)
        assert (t.decide() >> 1) == pick_before


def test_oracle_equivalence_sample():
    # small slice here; the full >=500-instance sweep runs in acceptance
    for name, f in oracle_corpus()[:40]:
        expected = truth_table_satisfiable(f)
        r = Solver(f).solve()
        assert r.verdict is (Verdict.SAT if expected else Verdict.UNSAT), name
        if expected:
            assert model_satisfies(f, r.model), name


def test_determinism_same_config_same_run():
    f = random_ksat(30, 128, seed=12)
    cfg = SolverConfig(glue_bump=True)
    a = InstrumentedSolver(f, cfg)
    ra = a.solve()
    b = InstrumentedSolver(f, cfg)
    rb = b.solve()
    assert ra.verdict == rb.verdict
    assert ra.counters == rb.counters
    assert a.decision_lits == b.decision_lits


def test_time_budget_unknown():
    s = Solver(pigeonhole(7))
    deadline = time.perf_counter() + 0.05
    r = s.solve(deadline)
    assert r.verdict is Verdict.UNKNOWN
    assert time.perf_counter() >= deadline


def test_time_budget_bounds_a_conflict_free_run():
    # 60,000 decisions and not one conflict: the budget must still stop it
    s = Solver(Formula(60_000, []))
    started = time.perf_counter()
    deadline = started + 0.05
    r = s.solve(deadline)
    elapsed = time.perf_counter() - started
    assert r.verdict is Verdict.UNKNOWN
    assert r.counters.conflicts == 0
    assert time.perf_counter() >= deadline
    assert elapsed < 0.5
