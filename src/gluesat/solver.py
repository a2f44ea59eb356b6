"""The CDCL search engine.

Trail-based assignment with two watched literals per clause, first-UIP
conflict analysis, EVSIDS branching, phase saving, Luby restarts, and
LBD-aware clause-database reduction on Glucose's schedule (the first at
LEARNT_LIMIT learnts, then every LEARNT_LIMIT_GROWTH more; clauses with
LBD <= GLUE_LBD are kept forever). Glue tracking and per-decision-class
metrics live in the tracker and collector objects the solver owns; the
one search-totals type is the MetricsReport that `finalize_report` folds
from them, which `Solver.counters` and `SolveResult.counters` return. A
DRAT proof writer can be attached to log every learnt clause and deletion.

Assignments live in one array indexed by literal code (`value[lit]`, as
CaDiCaL's `vals`): assigning a literal sets it to 1 and its negation
`lit ^ 1` to -1, and unassigning clears both, so the hot loops read a
literal's truth value without decoding its sign. Levels, reasons and
phases stay indexed by variable.

Determinism: for a fixed formula and config the run is bit-reproducible.
Ties in branching go to the lowest variable index, the default phase is
False, and the deadline passed to `solve()` is checked before every
propagation round — it can truncate a run but never reorders heuristic
state.
"""

from __future__ import annotations

import time
from enum import Enum
from typing import Iterable, NamedTuple, Optional, Sequence

from .activity import ActivityTable
from .formula import Clause, Formula, gc_paused, lit_to_int
from .glue import GLUE_LBD, GlueTracker
from .metrics import MetricsCollector, MetricsReport, finalize_report
from .proof import ProofWriter

CLAUSE_ACT_LIMIT = 1e20
CLAUSE_ACT_RESCALE = 1e-20
CLAUSE_DECAY = 0.999
RESTART_BASE = 100  # conflicts per unit of the Luby sequence
# Glucose's clause-database schedule (Audemard & Simon, IJCAI 2009)
LEARNT_LIMIT = 2000
LEARNT_LIMIT_GROWTH = 300


def luby(i: int) -> int:
    """The i-th term (1-based) of the Luby sequence 1,1,2,1,1,2,4,..."""
    if i < 1:
        raise ValueError("luby is 1-indexed")
    k = i.bit_length()
    if i == (1 << k) - 1:
        return 1 << (k - 1)
    return luby(i - (1 << (k - 1)) + 1)


def compute_lbd(lits: Iterable[int], levels: Sequence[int], value: Sequence[int]) -> int:
    """Count the distinct decision levels among a clause's literals.

    `levels` is indexed by variable and `value` by literal code. Every
    literal must be assigned; raises ValueError otherwise.
    """
    distinct = set()
    for lit in lits:
        if value[lit] == 0:
            raise ValueError(f"literal {lit_to_int(lit)} is unassigned")
        distinct.add(levels[lit >> 1])
    return len(distinct)


class Verdict(Enum):
    SAT = "SATISFIABLE"
    UNSAT = "UNSATISFIABLE"
    UNKNOWN = "UNKNOWN"


class SolverConfig(NamedTuple):
    """Search options: the glue-bump switch and a conflict budget for
    deterministic runs. Immutable: derive a changed copy with `_replace`.
    The time budget is not among them; it is the `deadline` of a solve."""

    glue_bump: bool = False
    max_conflicts: Optional[int] = None


class SolveResult(NamedTuple):
    """One solve's outcome. Immutable: derive a changed copy with `_replace`.
    It holds no time: the caller that sets the deadline owns the clock."""

    verdict: Verdict
    model: Optional[list[int]]  # signed DIMACS literals, one per variable
    counters: MetricsReport  # search totals and per-class metrics
    restarts: int


class Solver:
    """One single-use CDCL solver instance over a parsed formula.

    The instance owns all mutable state; run independent instances for
    concurrent solves. The input formula is never mutated: construction
    copies its clauses in order, since propagation reorders watched
    literals in place, watching each copy of two or more literals and
    enqueueing each unit in the same pass, with the cyclic garbage
    collector paused (formula.gc_paused). A conflict budget below 1
    raises ValueError; a second solve() raises RuntimeError.
    """

    def __init__(
        self,
        formula: Formula,
        config: Optional[SolverConfig] = None,
        proof: Optional[ProofWriter] = None,
    ):
        self.config = config or SolverConfig()
        cap = self.config.max_conflicts
        if cap is not None and cap < 1:
            raise ValueError(f"max_conflicts must be >= 1: {cap!r}")
        n = formula.num_vars
        self.num_vars = n
        self.proof = proof
        self._solved = False
        with gc_paused():
            self.glue = GlueTracker(n, bump_enabled=self.config.glue_bump)
            self.metrics = MetricsCollector()

            # by literal code: 0 unassigned, 1 true, -1 false; value[lit ^ 1] == -value[lit]
            self.value = [0] * (2 * n)
            self.levels = [0] * n
            self.reasons: list[Optional[Clause]] = [None] * n
            self.phases = [False] * n
            self.trail: list[int] = []
            self.trail_lim: list[int] = []
            self.qhead = 0
            self.activities = ActivityTable(n)
            for v in range(n):
                self.activities.heap.insert(v)

            self.watches: list[list[Clause]] = [[] for _ in range(2 * n)]
            self.clauses: list[Clause] = []
            self.learnts: list[Clause] = []
            self.cla_inc = 1.0
            self.learnt_limit = LEARNT_LIMIT
            self.next_restart = RESTART_BASE  # the conflict total that restarts next
            self._root_conflict = False

            # Copy the original clauses in order: watch each one of two or
            # more literals, enqueue each unit, and note an empty or
            # falsified one as a root conflict.
            clauses = self.clauses
            watches = self.watches
            value = self.value
            for original in formula.clauses:
                lits = original.lits[:]
                c = Clause(lits)
                clauses.append(c)
                if len(lits) > 1:
                    watches[lits[0]].append(c)
                    watches[lits[1]].append(c)
                elif not lits or value[lits[0]] < 0:
                    self._root_conflict = True
                elif value[lits[0]] == 0:
                    self._enqueue(lits[0], c)

    # ---- assignment primitives -------------------------------------------

    @property
    def current_level(self) -> int:
        return len(self.trail_lim)

    @property
    def counters(self) -> MetricsReport:
        """The search totals and per-class metrics of the search so far."""
        glue = self.glue
        return finalize_report(
            self.metrics, glue.glue_clause_count, glue.glue_var_count, self.num_vars
        )

    def _enqueue(self, lit: int, reason: Optional[Clause]) -> None:
        self.value[lit] = 1
        self.value[lit ^ 1] = -1
        v = lit >> 1
        self.levels[v] = len(self.trail_lim)
        self.reasons[v] = reason
        self.trail.append(lit)
        if reason is not None:
            self.metrics.record_propagations(1)

    # ---- propagation -----------------------------------------------------

    def propagate(self) -> Optional[Clause]:
        """Assign all unit consequences of the trail.

        Returns a conflicting clause, or None once a fixpoint is reached.
        The watched literal that became false is kept at lits[1].
        """
        value = self.value
        watches = self.watches
        trail = self.trail
        levels = self.levels
        reasons = self.reasons
        level = len(self.trail_lim)
        start = len(trail)
        qhead = self.qhead

        while qhead < len(trail):
            falsified = trail[qhead] ^ 1
            qhead += 1
            watch_list = watches[falsified]
            i = 0
            n = len(watch_list)
            while i < n:
                c = watch_list[i]
                lits = c.lits
                first = lits[0]
                if first == falsified:
                    first = lits[1]
                    lits[0] = first
                    lits[1] = falsified
                fv = value[first]
                if fv > 0:
                    i += 1
                    continue
                for j in range(2, len(lits)):
                    lj = lits[j]
                    if value[lj] >= 0:
                        lits[1] = lj
                        lits[j] = falsified
                        watch_list[i] = watch_list[-1]
                        watch_list.pop()
                        n -= 1
                        watches[lj].append(c)
                        break
                else:
                    if fv < 0:
                        self.qhead = qhead
                        self.metrics.record_propagations(len(trail) - start)
                        return c
                    value[first] = 1
                    value[first ^ 1] = -1
                    v0 = first >> 1
                    levels[v0] = level
                    reasons[v0] = c
                    trail.append(first)
                    i += 1
        self.qhead = qhead
        self.metrics.record_propagations(len(trail) - start)
        return None

    # ---- branching -------------------------------------------------------

    def decide(self) -> int:
        """Open a new level on the best unassigned variable.

        Picks the maximum-activity unassigned variable (ties to the
        lowest index) with its saved phase, and reports the decision's
        glue class to the metrics collector. `pop_max` skips stale heap
        entries itself; assigned variables it returns on the way leave
        the heap here.
        """
        heap = self.activities.heap
        value = self.value
        v = heap.pop_max()
        while value[2 * v] != 0:
            v = heap.pop_max()
        self.metrics.record_decision(v, self.glue.glue_level[v] > 0)
        self.trail_lim.append(len(self.trail))
        lit = 2 * v + (0 if self.phases[v] else 1)
        self._enqueue(lit, None)
        return lit

    def backtrack(self, level: int) -> None:
        """Unassign everything above `level`, newest first.

        Each variable's phase is saved and, under GB, a glue variable's
        activity is bumped; if it is still in the heap, `heap.update`
        pushes an entry with the bumped key. A variable that `decide`
        popped (its `in_heap` flag clear) re-enters the heap after its
        bump. Either way the bump lands before the next decision.
        """
        assert level < self.current_level
        limit = self.trail_lim[level]
        trail, phases, value, reasons = self.trail, self.phases, self.value, self.reasons
        activities = self.activities
        heap = activities.heap
        in_heap = heap.in_heap
        glue = self.glue
        glue_level = glue.glue_level
        bump_enabled = glue.bump_enabled
        for idx in range(len(trail) - 1, limit - 1, -1):
            lit = trail[idx]
            v = lit >> 1
            phases[v] = (lit & 1) == 0
            value[lit] = 0
            value[lit ^ 1] = 0
            reasons[v] = None
            if bump_enabled and glue_level[v] > 0:
                glue.on_unassigned(v, activities)
            if not in_heap[v]:
                heap.insert(v)
        del trail[limit:]
        del self.trail_lim[level:]
        self.qhead = min(self.qhead, limit)
        self.metrics.on_backtrack(level)

    # ---- conflict analysis -----------------------------------------------

    def analyze_conflict(self, confl: Clause) -> tuple[list[int], int, int]:
        """Derive the first-UIP clause from a conflict.

        Returns (learnt literals, assertion level, lbd). The asserting
        literal is at index 0 and a literal from the assertion level at
        index 1 (the two watch slots). Bumps the activity of every
        variable met during resolution.
        """
        current = len(self.trail_lim)
        levels = self.levels
        trail = self.trail
        reasons = self.reasons
        bump = self.activities.bump
        seen = bytearray(self.num_vars)
        learnt: list[int] = []
        counter = 0
        p = -1  # no literal resolved on yet
        idx = len(trail) - 1

        while True:
            if confl.lbd:  # learnt
                self._bump_clause_activity(confl)
            for q in confl.lits:
                if q == p:
                    continue
                v = q >> 1
                if not seen[v]:
                    lv = levels[v]
                    if lv > 0:
                        seen[v] = 1
                        bump(v)
                        if lv >= current:
                            counter += 1
                        else:
                            learnt.append(q)
            while not seen[trail[idx] >> 1]:
                idx -= 1
            p = trail[idx]
            pv = p >> 1
            seen[pv] = 0
            counter -= 1
            idx -= 1
            if counter == 0:
                break
            confl = reasons[pv]

        learnt.insert(0, p ^ 1)
        if len(learnt) == 1:
            assertion_level = 0
        else:
            max_i = 1
            for i in range(2, len(learnt)):
                if levels[learnt[i] >> 1] > levels[learnt[max_i] >> 1]:
                    max_i = i
            learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
            assertion_level = levels[learnt[1] >> 1]
        lbd = compute_lbd(learnt, levels, self.value)
        return learnt, assertion_level, lbd

    def _attach_learnt(self, lits: list[int], lbd: int) -> Clause:
        c = Clause(list(lits), lbd=lbd)
        self.learnts.append(c)  # before the bump, so a rescale it fires covers c
        self._bump_clause_activity(c)
        if len(lits) >= 2:
            self.watches[lits[0]].append(c)
            self.watches[lits[1]].append(c)
        if self.proof is not None:
            self.proof.add(c.to_ints())
        return c

    def _bump_clause_activity(self, c: Clause) -> None:
        c.activity += self.cla_inc
        if c.activity > CLAUSE_ACT_LIMIT:
            for lc in self.learnts:
                lc.activity *= CLAUSE_ACT_RESCALE
            self.cla_inc *= CLAUSE_ACT_RESCALE

    # ---- clause database -------------------------------------------------

    def reduce_db(self) -> int:
        """Delete the worse half of the deletable learnt clauses.

        Clauses with LBD <= GLUE_LBD (glue and unit) and clauses currently
        serving as reasons are never deleted. The rest are ranked by
        (LBD ascending, activity descending) and the bottom half goes,
        each deletion logged to the proof. Raises the reduction limit by
        LEARNT_LIMIT_GROWTH.
        """
        reasons = self.reasons
        # A reason clause keeps its implied literal at lits[0] (MiniSat's
        # locked()): propagate and the asserting learnt put it there, and
        # only a false lits[0] is ever swapped away.
        candidates = [
            c for c in self.learnts if c.lbd > GLUE_LBD and reasons[c.lits[0] >> 1] is not c
        ]
        candidates.sort(key=lambda c: (c.lbd, -c.activity))
        doomed = candidates[len(candidates) - len(candidates) // 2 :]
        doomed_ids = {id(c) for c in doomed}
        for c in doomed:
            self.watches[c.lits[0]].remove(c)
            self.watches[c.lits[1]].remove(c)
            if self.proof is not None:
                self.proof.delete(c.to_ints())
        self.learnts = [c for c in self.learnts if id(c) not in doomed_ids]
        self.learnt_limit += LEARNT_LIMIT_GROWTH
        return len(doomed)

    # ---- restarts ----------------------------------------------------------

    def _restart(self, conflicts: int) -> None:
        """Sample (conflicts, glue fraction), set the next Luby restart, go to level 0."""
        series = self.metrics.gf_series
        series.append((conflicts, self.glue.glue_var_count / self.num_vars))
        self.next_restart = conflicts + RESTART_BASE * luby(len(series) + 1)
        if self.current_level > 0:
            self.backtrack(0)

    # ---- main loop ---------------------------------------------------------

    def solve(self, deadline: Optional[float] = None) -> SolveResult:
        """Search until a verdict, the conflict budget or `deadline`: an
        absolute time.perf_counter() value, checked before every
        propagation round, so one already past stops the search before
        its first propagation. The solver keeps no clock of its own; the
        caller times the run from the start its deadline counts from."""
        if self._solved:
            raise RuntimeError("Solver is single-use: solve() was already called")
        self._solved = True
        cfg = self.config
        verdict = Verdict.UNKNOWN
        model: Optional[list[int]] = None

        while not self._root_conflict:
            if deadline is not None and time.perf_counter() >= deadline:
                break
            confl = self.propagate()
            if confl is not None:
                if self.current_level == 0:
                    self._root_conflict = True
                    break
                lits, assertion_level, lbd = self.analyze_conflict(confl)
                self.metrics.record_conflict(lbd)
                self.backtrack(assertion_level)
                clause = self._attach_learnt(lits, lbd)
                if lbd == GLUE_LBD:
                    self.glue.on_glue_clause_learned(clause)
                self._enqueue(lits[0], clause)
                self.activities.decay()
                self.cla_inc /= CLAUSE_DECAY
                conflicts = self.metrics.total("conflicts")
                if conflicts >= self.next_restart:
                    self._restart(conflicts)
                cap = cfg.max_conflicts
                if cap is not None and conflicts >= cap:
                    break
            else:
                if len(self.learnts) > self.learnt_limit:
                    self.reduce_db()
                if len(self.trail) == self.num_vars:
                    verdict = Verdict.SAT
                    value = self.value
                    model = [
                        (v + 1) if value[2 * v] > 0 else -(v + 1)
                        for v in range(self.num_vars)
                    ]
                    break
                self.decide()

        if self._root_conflict:
            self.metrics.record_conflict(None)
            if self.proof is not None:
                self.proof.add([])
            verdict = Verdict.UNSAT
        if self.proof is not None:
            self.proof.flush()
        return SolveResult(verdict, model, self.counters, len(self.metrics.gf_series))
