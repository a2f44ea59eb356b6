"""Spans and counters recorded around calls into each gluesat layer.

Nothing under src/ changes: subclasses time the public solver methods,
in the pattern of tests/helpers.InstrumentedSolver, and instance
attributes wrap the heap and glue hooks for the counting pass. Two
separate passes keep the cost apart: the span pass times the coarse
methods (about 10^4 calls), the counting pass wraps the ~10^6-call heap
and glue methods and times nothing.
"""

from __future__ import annotations

import hashlib
from array import array
from time import perf_counter

from gluesat.proof import ProofWriter
from gluesat.solver import Solver


class SpanRecorder:
    """In-memory spans: name, start, end, parent index and trace id.

    Spans nest through a stack; a span's parent is the span open when it
    began. Fields live in flat arrays rather than one object per span, so
    recording allocates nothing the cyclic garbage collector must scan
    (with a large formula live, extra collections would be most of the
    tracing cost). Written out only when the run ends.
    """

    def __init__(self):
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.trace_ids: list[str] = []
        self.stack: list[int] = []
        self.trace_id = ""

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.trace_ids.append(self.trace_id)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        popped = self.stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed while {popped} was open")

    def rows(self) -> list[tuple]:
        return list(zip(self.names, self.starts, self.ends, self.parents, self.trace_ids))

    def self_times(self, trace_id: str) -> dict[str, float]:
        """Summed self time per span name within one trace: each span's
        duration minus the durations of its direct children."""
        rows = [(i, r) for i, r in enumerate(self.rows()) if r[4] == trace_id]
        child_time: dict[int, float] = {}
        for _, (name, start, end, parent, _) in rows:
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        out: dict[str, float] = {}
        for idx, (name, start, end, _, _) in rows:
            out[name] = out.get(name, 0.0) + (end - start) - child_time.get(idx, 0.0)
        return out

    def total(self, trace_id: str, name: str) -> float:
        return sum(e - s for n, s, e, _, t in self.rows() if t == trace_id and n == name)


class TimedProofWriter(ProofWriter):
    """ProofWriter whose additions and deletions are `proof.emit` spans."""

    def __init__(self, sink, rec: SpanRecorder):
        super().__init__(sink)
        self.rec = rec
        self.lemmas = 0
        self.deletions = 0

    def add(self, lits):
        idx = self.rec.begin("proof.emit")
        super().add(lits)
        self.rec.end(idx)
        self.lemmas += 1

    def delete(self, lits):
        idx = self.rec.begin("proof.emit")
        super().delete(lits)
        self.rec.end(idx)
        self.deletions += 1


class FingerprintSolver(Solver):
    """Remembers the decision-literal sequence for the search fingerprint."""

    def __init__(self, *args, **kwargs):
        self.decision_sha = hashlib.sha1()
        super().__init__(*args, **kwargs)

    def decide(self):
        lit = super().decide()
        self.decision_sha.update(lit.to_bytes(4, "little"))
        return lit

    def fingerprint(self) -> dict:
        c = self.counters
        return {"decisions": c.decisions, "propagations": c.propagations,
                "conflicts": c.conflicts, "decision_sha1": self.decision_sha.hexdigest()}


class TimedSolver(FingerprintSolver):
    """Span pass: one span per call of each coarse solver method."""

    def __init__(self, *args, rec: SpanRecorder, **kwargs):
        self.rec = rec
        self.unassigned = 0
        self.reduce_db_calls = 0
        self.learnts_deleted = 0
        super().__init__(*args, **kwargs)

    def propagate(self):
        idx = self.rec.begin("solver.propagate")
        confl = super().propagate()
        self.rec.end(idx)
        return confl

    def analyze_conflict(self, confl):
        idx = self.rec.begin("solver.analyze")
        out = super().analyze_conflict(confl)
        self.rec.end(idx)
        return out

    def decide(self):
        idx = self.rec.begin("solver.decide")
        lit = super().decide()
        self.rec.end(idx)
        return lit

    def backtrack(self, level):
        before = len(self.trail)
        idx = self.rec.begin("solver.backtrack")
        super().backtrack(level)
        self.rec.end(idx)
        self.unassigned += before - len(self.trail)

    def reduce_db(self):
        idx = self.rec.begin("solver.reduce_db")
        n = super().reduce_db()
        self.rec.end(idx)
        self.reduce_db_calls += 1
        self.learnts_deleted += n
        return n


def attach_counters(solver: Solver) -> dict[str, int]:
    """Counting pass: wrap the per-variable heap and glue-hook methods of
    one solver instance. Attach after construction, so the counts cover
    solve() only and not the initial heap fill."""
    counts = {"heap_inserts": 0, "heap_removes": 0, "heap_updates": 0,
              "rescales": 0, "hook_calls": 0, "bumps": 0}
    heap = solver.activities.heap
    table = solver.activities
    glue = solver.glue

    def wrap(obj, method: str, key: str):
        inner = getattr(obj, method)

        def counted(*args):
            counts[key] += 1
            return inner(*args)

        setattr(obj, method, counted)

    wrap(heap, "insert", "heap_inserts")
    wrap(heap, "remove", "heap_removes")
    wrap(heap, "update", "heap_updates")
    wrap(table, "rescale", "rescales")
    inner_hook = glue.on_unassigned

    def hook(var, activities):
        counts["hook_calls"] += 1
        if glue.bump_enabled and glue.glue_level[var] > 0:
            counts["bumps"] += 1
        return inner_hook(var, activities)

    glue.on_unassigned = hook
    return counts
