"""DRAT proof emission and an independent RUP checker.

The solver logs every learnt clause as an addition and every clause-
database deletion as a deletion, in text DRAT ("<lits> 0", "d <lits> 0").
An unsatisfiability proof ends with the empty clause.

check_rup() replays a proof against the original formula: each added
clause must be derivable by reverse unit propagation (assume its negated
literals, propagate, reach a conflict) from the formula plus earlier
additions that have not been deleted. It validates plain RUP only; this
solver never emits clauses needing the full RAT check.

The checker keeps the formula's clauses and the proof's lemmas in two
watch arrays and propagates formula clauses first: a lemma watch list is
visited only when no formula watch list is pending (core-first
propagation, as in Heule, Hunt and Wetzler, "Trimming while checking
clausal proofs", FMCAD 2013). On the solver's pigeonhole proofs about
nine checks in ten find their conflict in a formula clause, so the long
lemma lists are read less often. The verdict cannot depend on this
order: unit propagation to a fixpoint implies the same literals in any
order, so it reaches a conflict in every order or in none (see
_ClauseDb).
"""

from __future__ import annotations

from typing import IO, Iterable, NamedTuple, Sequence, Union

from .formula import Formula

ADD = "add"
DELETE = "delete"

_Watches = list[list[list[int]]]  # code -> clauses watching it


class ProofEvent(NamedTuple):
    """One parsed proof line, as parse_drat returns and check_rup reads it."""

    kind: str  # ADD or DELETE
    lits: list[int]  # signed DIMACS literals


class ProofWriter:
    """Writes text DRAT lines to a sink as the solver learns and deletes:
    one "<lits> 0" line per addition, one "d <lits> 0" per deletion."""

    def __init__(self, sink: IO[str]):
        self.sink = sink

    def add(self, lits: Sequence[int]) -> None:
        self.sink.write(" ".join(map(str, [*lits, 0])) + "\n")

    def delete(self, lits: Sequence[int]) -> None:
        self.sink.write("d " + " ".join(map(str, [*lits, 0])) + "\n")

    def flush(self) -> None:
        self.sink.flush()


def parse_drat(text: str) -> list[ProofEvent]:
    """Parse text DRAT into events; raises ValueError on malformed lines."""
    events: list[ProofEvent] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("c"):
            continue
        kind = ADD
        if stripped.startswith("d"):
            kind = DELETE
            stripped = stripped[1:].strip()
        try:
            nums = [int(t) for t in stripped.split()]
        except ValueError:
            raise ValueError(f"proof line {lineno}: non-integer token") from None
        if not nums or nums[-1] != 0:
            raise ValueError(f"proof line {lineno}: missing terminating 0")
        if any(n == 0 for n in nums[:-1]):
            raise ValueError(f"proof line {lineno}: embedded 0")
        events.append(ProofEvent(kind, nums[:-1]))
    return events


class _ClauseDb:
    """Watched-literal clause store for repeated RUP propagations.

    It takes literals as codes only: check_rup codes each signed literal
    l once, as 2*|l| + (l < 0), so its negation is code ^ 1. `value` is a
    flat list indexed by code: an assignment sets value[c] = 1 and
    value[c ^ 1] = -1. A clause is a list of distinct codes whose first
    two are watched, and deletions find it by its sorted codes.

    There are two watch arrays, `formula_watches` for the formula's
    clauses and `lemma_watches` for proof lemmas; entry c of each holds
    that array's clauses watching c, visited when c turns false. One
    trail is walked by two heads, one per array, and a lemma watch list
    is visited only when the formula head has reached the end of the
    trail, so every implication a lemma adds goes through the formula
    clauses before the next lemma list is read.

    The order cannot change a verdict. Suppose one order stops at a
    fixpoint where no clause is false. Each literal that another order
    implies is forced by a clause whose other literals it made false; by
    induction those are false at the fixpoint too, and as the fixpoint
    has no unit or false clause, the literal is true there. So the other
    order's assignment stays inside the fixpoint's and cannot falsify a
    clause either: a conflict is found in every order or in none. The
    walk stops only at a conflict or when both heads reach the end of
    the trail, which is a fixpoint of every clause in both arrays.

    Watch positions persist across checks. That stays sound because every
    check starts from the empty assignment, under which any two literals
    of a clause are valid watches, and undoes its trail before returning.
    """

    def __init__(self, num_vars: int):
        self.value: list[int] = [0] * (2 * num_vars + 2)  # 0/1/-1 per code
        self.formula_watches: _Watches = [[] for _ in self.value]
        self.lemma_watches: _Watches = [[] for _ in self.value]
        self.units: list[int] = []  # codes of singleton clauses
        self.has_empty = False
        # sorted codes -> live (watch array, clause) pairs, for deletions
        self.registry: dict[tuple[int, ...], list[tuple[_Watches, list[int]]]] = {}

    def add(self, codes: Sequence[int], lemma: bool) -> None:
        """Add a formula clause, or a proof lemma if `lemma` is true."""
        # a repeated literal would take both watches and hide the clause's unit
        clause = list(dict.fromkeys(codes))
        watches = self.lemma_watches if lemma else self.formula_watches
        self.registry.setdefault(tuple(sorted(codes)), []).append((watches, clause))
        if not clause:
            self.has_empty = True
        elif len(clause) == 1:
            self.units.append(clause[0])
        else:
            watches[clause[0]].append(clause)
            watches[clause[1]].append(clause)

    def delete(self, codes: Sequence[int]) -> None:
        """Drop the last added clause with these literals, from whichever
        array watches it; unknown clauses are a no-op (deleting a clause
        never makes a proof unsound)."""
        bucket = self.registry.get(tuple(sorted(codes)))
        if not bucket:
            return
        watches, clause = bucket.pop()
        if not clause:
            return  # the empty clause is never meaningfully deleted
        if len(clause) == 1:
            self.units.remove(clause[0])
            return
        for w in clause[:2]:  # by identity: equal clauses may watch differently
            watch_list = watches[w]
            del watch_list[next(i for i, c in enumerate(watch_list) if c is clause)]

    def propagates_to_conflict(self, assumptions: Sequence[int]) -> bool:
        """Assume the given codes, unit propagate, report conflict.

        All assignments are undone before returning.
        """
        if self.has_empty:
            return True
        value = self.value
        formula_watches = self.formula_watches
        lemma_watches = self.lemma_watches
        trail: list[int] = []
        conflict = False
        for lit in [*assumptions, *self.units]:
            if value[lit] < 0:
                conflict = True
                break
            if value[lit] == 0:
                value[lit] = 1
                value[lit ^ 1] = -1
                trail.append(lit)

        formula_head = lemma_head = 0  # the trail grows while it is walked
        while not conflict:
            if formula_head < len(trail):
                watches = formula_watches
                falsified = trail[formula_head] ^ 1
                formula_head += 1
            elif lemma_head < len(trail):
                watches = lemma_watches
                falsified = trail[lemma_head] ^ 1
                lemma_head += 1
            else:
                break
            kept: list[list[int]] = []
            remaining = iter(watches[falsified])
            for clause in remaining:
                # normalize: the falsified watch sits in slot 1
                if clause[0] == falsified:
                    clause[0] = clause[1]
                    clause[1] = falsified
                other = clause[0]
                if value[other] > 0:
                    kept.append(clause)
                    continue
                for j in range(2, len(clause)):
                    cand = clause[j]
                    if value[cand] >= 0:
                        clause[1] = cand
                        clause[j] = falsified
                        watches[cand].append(clause)
                        break
                else:
                    kept.append(clause)
                    if value[other] < 0:
                        conflict = True
                        kept.extend(remaining)
                        break
                    value[other] = 1
                    value[other ^ 1] = -1
                    trail.append(other)
            watches[falsified] = kept

        for lit in trail:
            value[lit] = value[lit ^ 1] = 0
        return conflict


def _codes(lits: Iterable[int]) -> list[int]:
    """The checker's code of each signed literal l: 2*|l| + (l < 0)."""
    return [2 * abs(l) + (l < 0) for l in lits]


def check_rup(formula: Formula, proof: Union[str, Iterable[ProofEvent]]) -> bool:
    """True iff every added clause is RUP in order and the proof reaches
    the empty clause.

    Checking stops at the first verified empty clause: the events after
    it are not checked. A text proof is still parsed whole first, so a
    malformed line anywhere raises ValueError."""
    events = parse_drat(proof) if isinstance(proof, str) else list(proof)
    max_var = max(formula.num_vars, max((abs(l) for ev in events for l in ev.lits), default=0))

    db = _ClauseDb(max_var)
    for clause in formula.clauses:
        db.add(_codes(clause.to_ints()), lemma=False)

    for ev in events:
        codes = _codes(ev.lits)  # one line at a time: no coded copy of the proof
        if ev.kind == DELETE:
            db.delete(codes)
            continue
        if not db.propagates_to_conflict([c ^ 1 for c in codes]):
            return False
        if not codes:
            return True  # verified empty clause: unsatisfiability derived
        db.add(codes, lemma=True)
    return False  # proof never derived the empty clause
