"""Shared test machinery: instrumented solvers, state fabrication, corpora."""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

import gluesat.solver
from gluesat.formula import Formula
from gluesat.gen import (
    parity_chain,
    parity_contradiction,
    pigeonhole,
    random_ksat,
    unit_chain,
)
from gluesat.solver import Solver


@contextmanager
def reduce_schedule(limit: int, growth: int):
    """Run another clause-database schedule: the first reduction once the
    learnts outnumber `limit`, each later one `growth` learnts on. Wrap
    both building and solving: Solver.__init__ reads the limit and
    reduce_db the growth."""
    with (
        mock.patch.object(gluesat.solver, "LEARNT_LIMIT", limit),
        mock.patch.object(gluesat.solver, "LEARNT_LIMIT_GROWTH", growth),
    ):
        yield


def watches_consistent(solver: Solver) -> bool:
    """Watched-literal invariant: every clause of length >= 2 sits in the
    watch lists of its first two literals, and unless satisfied, neither
    watched literal is false."""
    value = solver.value
    for c in solver.clauses + solver.learnts:
        if len(c.lits) < 2:
            continue
        w0, w1 = c.lits[0], c.lits[1]
        if c not in solver.watches[w0] or c not in solver.watches[w1]:
            return False
        if any(value[l] > 0 for l in c.lits):
            continue
        if value[w0] < 0 or value[w1] < 0:
            return False
    return True


def assignment_consistent(solver: Solver) -> bool:
    """Literal-indexed assignment invariant: the two literals of every
    variable hold opposite values (both 0 when unassigned), and a
    variable is assigned exactly when it is on the trail, with its trail
    literal true."""
    value = solver.value
    if len(value) != 2 * solver.num_vars:
        return False
    if any(value[2 * v] != -value[2 * v + 1] for v in range(solver.num_vars)):
        return False
    on_trail = {lit >> 1 for lit in solver.trail}
    if len(on_trail) != len(solver.trail) or any(value[lit] != 1 for lit in solver.trail):
        return False
    return all((value[2 * v] != 0) == (v in on_trail) for v in range(solver.num_vars))


def reasons_imply_first(solver: Solver) -> bool:
    """Reason invariant that reduce_db's locked test relies on: every
    literal on the trail with a reason clause sits at that clause's
    lits[0]."""
    reasons = solver.reasons
    for lit in solver.trail:
        reason = reasons[lit >> 1]
        if reason is not None and reason.lits[0] != lit:
            return False
    return True


def literal_values(var_values: list[int]) -> list[int]:
    """A literal-indexed value array (as `Solver.value`) from per-variable
    values: x at 2v and -x at 2v + 1."""
    out = []
    for x in var_values:
        out += [x, -x]
    return out


def force_decision(solver: Solver, ext_lit: int) -> int:
    """Open a new decision level on a chosen literal (tests drive the
    trail into known shapes this way)."""
    v = abs(ext_lit) - 1
    lit = 2 * v + (0 if ext_lit > 0 else 1)
    solver.metrics.record_decision(v, solver.glue.is_glue_var(v))
    solver.trail_lim.append(len(solver.trail))
    solver._enqueue(lit, None)
    return lit


def unassigned_argmax(solver: Solver) -> int:
    """Brute-force branching oracle: the max of (activity, -index) over
    all unassigned variables. Asserts first that every unassigned
    variable is in the branching heap."""
    act = solver.activities.activity
    in_heap = solver.activities.heap.in_heap
    unassigned = [v for v in range(solver.num_vars) if solver.value[2 * v] == 0]
    missing = [v for v in unassigned if not in_heap[v]]
    assert not missing, f"unassigned variables out of the heap: {missing}"
    return max(unassigned, key=lambda v: (act[v], -v))


class InstrumentedSolver(Solver):
    """Solver that audits its own invariants while running.

    - checks the watched-literal, assignment and reason invariants after
      every clean propagate()
    - checks that every learnt clause has exactly one literal at the
      conflict level
    - independently recounts reason-bearing assignments and
      analyze_conflict calls
    - remembers the decision literal sequence and deleted clauses' LBDs
    """

    def __init__(self, *args, check_watches: bool = True, **kwargs):
        self.check_watches = check_watches
        self.reason_enqueues = 0
        self.analyze_calls = 0
        self.decision_lits: list[int] = []
        self.deleted_lbds: list[int] = []
        self.learn_events: list[tuple] = []
        super().__init__(*args, **kwargs)

    def _enqueue(self, lit, reason):
        if reason is not None:
            self.reason_enqueues += 1
        super()._enqueue(lit, reason)

    def propagate(self):
        before = len(self.trail)
        confl = super().propagate()
        # every assignment made inside propagate carries a reason
        self.reason_enqueues += len(self.trail) - before
        if confl is None and self.check_watches:
            assert watches_consistent(self), "watched-literal invariant broken"
            assert assignment_consistent(self), "assignment array invariant broken"
            assert reasons_imply_first(self), "a reason's implied literal is not lits[0]"
        return confl

    def decide(self):
        lit = super().decide()
        self.decision_lits.append(lit)
        return lit

    def analyze_conflict(self, confl):
        conflict_level = self.current_level
        lits, assertion_level, lbd = super().analyze_conflict(confl)
        self.analyze_calls += 1
        at_conflict = [l for l in lits if self.levels[l >> 1] == conflict_level]
        assert len(at_conflict) == 1, "learnt clause is not asserting"
        self.learn_events.append((tuple(lits), assertion_level, lbd, conflict_level))
        return lits, assertion_level, lbd

    def reduce_db(self):
        before = {id(c): c.lbd for c in self.learnts}
        n = super().reduce_db()
        alive = {id(c) for c in self.learnts}
        self.deleted_lbds.extend(
            lbd for cid, lbd in before.items() if cid not in alive
        )
        return n


def attach_activity_log(solver: Solver) -> list[tuple]:
    """Record every activity event for offline replay.

    ("bump", v): conflict-side bump by the current increment.
    ("gbump", v, glue_level, total): bump on backtrack-unassignment.
    ("decay",): per-conflict increment growth.
    """
    log: list[tuple] = []
    table = solver.activities
    tracker = solver.glue
    orig_bump, orig_decay = table.bump, table.decay

    def bump(var, amount=None):
        if amount is None:
            log.append(("bump", var))
        else:
            log.append(("gbump", var, tracker.glue_level[var], tracker.total_glue_level))
        orig_bump(var, amount)

    def decay():
        log.append(("decay",))
        orig_decay()

    table.bump = bump
    table.decay = decay
    return log


def attach_classification_log(solver: Solver) -> list[tuple]:
    """Interleaved log of glue-clause learnings and decision classifications."""
    log: list[tuple] = []
    tracker = solver.glue
    orig_learn = tracker.on_glue_clause_learned

    def learn(clause):
        log.append(("glue_clause", tuple(l >> 1 for l in clause.lits)))
        orig_learn(clause)

    tracker.on_glue_clause_learned = learn
    collector = solver.metrics
    orig_decision = collector.record_decision

    def record_decision(var, is_glue):
        log.append(("decision", var, is_glue))
        orig_decision(var, is_glue)

    collector.record_decision = record_decision
    return log


# ---- corpora ----------------------------------------------------------------


def oracle_corpus() -> list[tuple[str, Formula]]:
    """>= 500 instances, every one with at most 20 variables, suitable
    for exhaustive truth-table checking."""
    instances: list[tuple[str, Formula]] = []
    ratios = [3.0, 3.5, 4.0, 4.26, 4.5, 5.0]
    for n in range(5, 21):
        for r_i, ratio in enumerate(ratios):
            for rep in range(5):
                seed = 10_000 + n * 100 + r_i * 10 + rep
                m = max(1, int(round(n * ratio)))
                instances.append(
                    (f"rand3_n{n}_r{ratio}_{rep}", random_ksat(n, m, seed=seed))
                )
    for holes in range(1, 5):  # up to PHP(5,4): 20 variables
        instances.append((f"php{holes + 1}_{holes}", pigeonhole(holes)))
    for n in range(2, 8):
        instances.append((f"parity{n}_odd", parity_chain(n, odd=True)))
        instances.append((f"parity{n}_even", parity_chain(n, odd=False)))
        instances.append((f"parity{n}_contra", parity_contradiction(n)))
    for n in range(1, 11):
        instances.append((f"chain{n}_sat", unit_chain(n, sat=True)))
        instances.append((f"chain{n}_unsat", unit_chain(n, sat=False)))
    return instances


def known_unsat_corpus() -> list[tuple[str, Formula]]:
    """Crafted instances too large to enumerate but unsatisfiable by
    construction."""
    return [
        ("php6_5", pigeonhole(5)),
        ("php7_6", pigeonhole(6)),
        ("parity12_contra", parity_contradiction(12)),
        ("parity20_contra", parity_contradiction(20)),
    ]


def directional_corpus() -> list[tuple[str, Formula]]:
    """satlib-style instances at n=100-150 around the 3-SAT phase
    transition, plus crafted ones: big enough runs to accumulate 100+
    decisions in both the glue and nonglue classes."""
    out: list[tuple[str, Formula]] = []
    for n in (100, 125, 150):
        for r_i, ratio in enumerate((4.0, 4.26, 4.4)):
            for rep in range(4):
                seed = 5000 + n * 10 + r_i * 100 + rep
                out.append(
                    (
                        f"dir_n{n}_r{ratio}_{rep}",
                        random_ksat(n, int(n * ratio), seed=seed),
                    )
                )
    out.append(("dir_php7_6", pigeonhole(6)))
    out.append(("dir_php8_7", pigeonhole(7)))
    out.append(("dir_parity20", parity_contradiction(20)))
    out.append(("dir_parity30", parity_contradiction(30)))
    return out
