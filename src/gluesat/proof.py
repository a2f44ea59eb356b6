"""DRAT proof emission and an independent RUP checker.

The solver logs every learnt clause as an addition and every clause-
database deletion as a deletion, in text DRAT ("<lits> 0", "d <lits> 0").
An unsatisfiability proof ends with the empty clause.

check_rup() replays a proof against the original formula: each added
clause must be derivable by reverse unit propagation (assume its negated
literals, propagate, reach a conflict) from the formula plus earlier
additions that have not been deleted. It validates plain RUP only; this
solver never emits clauses needing the full RAT check.

The checker keeps clauses in four stores (see _ClauseDb). Formula
clauses of two or three distinct literals sit in one occurrence array
and are never moved; longer formula clauses and the proof's lemmas sit
in two watch arrays; unit clauses sit in a list. It propagates formula
clauses first: a lemma watch list is visited only when no formula
literal is pending (core-first propagation, as in Heule, Hunt and
Wetzler, "Trimming while checking clausal proofs", FMCAD 2013). On the
solver's pigeonhole proofs about nine checks in ten find their conflict
in a formula clause, so the long lemma lists are read less often. On
random 3-SAT proofs most clause visits are to short formula clauses,
which the occurrence array reads without moving a watch. The verdict
cannot depend on the order or the store: unit propagation to a
fixpoint implies the same literals in any order, so it reaches a
conflict in every order or in none (see _ClauseDb).

The checker builds only what a check reads. Formula clauses of three
distinct literals go into the occurrence array straight from the
formula's literal codes. Every add, formula clause or lemma, is
appended to one log; each deletion line first moves the entries logged
since the previous one into the index that deletions look clauses up
in, in the order they were added, so a deletion still drops the last
added copy. A proof with no deletions builds no index entry, and a
solve that never reduces its learnt clauses writes none.
"""

from __future__ import annotations

from typing import IO, Iterable, NamedTuple, Sequence, Union

from .formula import Clause, Formula

ADD = "add"
DELETE = "delete"

_Watches = list[list[list[int]]]  # code -> clauses watching it
_Pairs = list[list[tuple[int, int]]]  # code -> other two codes of each short clause
_Index = dict[tuple[int, ...], list[tuple[list, list[int]]]]  # sorted raw codes -> (store, clause)s
# one add, as add logs it, (raw codes, store, clause), or as load_formula
# logs a 3-literal formula clause: its own list of internal codes
_Logged = Union[tuple[Sequence[int], list, list[int]], list[int]]


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
    """Clause store for repeated RUP propagations.

    It takes literals as codes only: check_rup codes each signed literal
    l once, as 2*|l| + (l < 0), so its negation is code ^ 1. `value` is a
    flat list indexed by code: an assignment sets value[c] = 1 and
    value[c ^ 1] = -1. Codes 0 and 1 name no literal. Code 1 is held
    false (and so code 0 true) for the database's whole life, and pads
    the pair of a binary clause.

    A clause is kept in one of four stores, as a list of distinct codes:
    - `pairs`, for formula clauses of two or three codes: entry c holds,
      for each such clause containing c, the pair of its other two codes
      (a binary's other code and 1). Nothing in it moves;
    - `formula_watches`, for longer formula clauses, and `lemma_watches`,
      for proof lemmas of two or more codes: watch arrays, whose entry c
      holds the clauses watching c, with the first two codes watched;
    - `units`, for one-code clauses of either kind, and for the empty
      clause as code 1, which is always false.
    Deletions find a clause by its sorted raw codes in `registry`, which
    names the store that holds it. Every add is appended to `log`, and
    load_formula logs each 3-literal clause it puts straight into
    `pairs` as the clause's own list of internal codes. Each deletion
    first folds the log into `registry` in add order and empties it, so
    a proof with no deletions builds no index entry, and a deletion still
    drops the last added clause with its codes: a lemma that repeats a
    formula clause is deleted before the formula's copy, from the store
    that holds it. The empty clause is never deleted.

    One trail is walked by two heads. When the formula head reaches a
    literal, its negation c has turned false: the walk checks every pair
    in pairs[c], implying the free code of a pair whose other code is
    false and stopping at a pair with both false, then visits
    formula_watches[c]. The lemma head visits lemma_watches[c] only when
    the formula head has reached the end of the trail, so every
    implication a lemma adds goes through the formula clauses before the
    next lemma list is read.

    The order cannot change a verdict. Suppose one order stops at a
    fixpoint where no clause is false. Each literal that another order
    implies is forced by a clause whose other literals it made false; by
    induction those are false at the fixpoint too, and as the fixpoint
    has no unit or false clause, the literal is true there. So the other
    order's assignment stays inside the fixpoint's and cannot falsify a
    clause either: a conflict is found in every order or in none. The
    walk stops only at a conflict or when both heads reach the end of
    the trail, which is a fixpoint of every clause in every store: a
    watched clause keeps a watch on a true or free code, and a short
    clause is checked each time the formula head reaches one of its
    false codes, the last time with every false code already set, so it
    is left neither false nor unit.

    Watch positions persist across checks. That stays sound because every
    check starts from the empty assignment, under which any two literals
    of a clause are valid watches, and undoes its trail before returning.
    """

    def __init__(self, num_vars: int):
        self.value: list[int] = [1, -1] + [0] * (2 * num_vars)  # 0/1/-1 per code
        self.pairs: _Pairs = [[] for _ in self.value]
        self.formula_watches: _Watches = [[] for _ in self.value]
        self.lemma_watches: _Watches = [[] for _ in self.value]
        self.units: list[int] = []  # codes of singleton clauses; 1 for an empty one
        self.registry: _Index = {}  # the adds up to the last deletion
        self.log: list[_Logged] = []  # the adds since then, in order

    def load_formula(self, clauses: Iterable[Clause]) -> None:
        """Add the formula's clauses; called once, on an empty database.

        A clause of three distinct internal codes l goes straight into
        `pairs` as codes l + 2, which equal 2*|d| + (d < 0) for its
        DIMACS literals d, and is logged as its own list of internal
        codes; every other clause goes through `add`."""
        pairs = self.pairs
        log = self.log
        for clause in clauses:
            lits = clause.lits
            if len(lits) == 3:
                a, b, c = lits
                if a != b != c != a:  # three distinct codes
                    a += 2
                    b += 2
                    c += 2
                    pairs[a].append((b, c))
                    pairs[b].append((a, c))
                    pairs[c].append((a, b))
                    log.append(lits)
                    continue
            self.add([l + 2 for l in lits], lemma=False)

    def add(self, codes: Sequence[int], lemma: bool) -> None:
        """Add a formula clause, or a proof lemma if `lemma` is true."""
        # a repeated literal would take both watches and hide the clause's unit
        clause = list(dict.fromkeys(codes))
        store: list
        if lemma:
            store = self.lemma_watches
        elif len(clause) <= 3:
            store = self.pairs
        else:
            store = self.formula_watches
        self.log.append((codes, store, clause))
        if len(clause) < 2:
            self.units.append(clause[0] if clause else 1)  # code 1 is always false
        elif store is self.pairs:
            for code, pair in _pair_entries(clause):
                store[code].append(pair)
        else:
            store[clause[0]].append(clause)
            store[clause[1]].append(clause)

    def delete(self, codes: Sequence[int]) -> None:
        """Drop the last added clause with these literals, from whichever
        store holds it; unknown clauses are a no-op (deleting a clause
        never makes a proof unsound)."""
        registry = self.registry
        for entry in self.log:  # fold the adds since the last deletion, in order
            if isinstance(entry, tuple):
                raw, store, clause = entry
            else:  # a load_formula triple, oriented as its pairs hold it
                raw = clause = [l + 2 for l in entry]
                store = self.pairs
            registry.setdefault(tuple(sorted(raw)), []).append((store, clause))
        self.log = []
        bucket = registry.get(tuple(sorted(codes)))
        if not bucket:
            return
        store, clause = bucket.pop()
        if not clause:
            return  # the empty clause is never meaningfully deleted
        if len(clause) == 1:
            self.units.remove(clause[0])
        elif store is self.pairs:
            for code, pair in _pair_entries(clause):
                store[code].remove(pair)  # by value: equal pairs are interchangeable
        else:
            for w in clause[:2]:  # by identity: equal clauses may watch differently
                watch_list = store[w]
                del watch_list[next(i for i, c in enumerate(watch_list) if c is clause)]

    def propagates_to_conflict(self, assumptions: Sequence[int]) -> bool:
        """Assume the given codes, unit propagate, report conflict.

        All assignments are undone before returning.
        """
        value = self.value
        pairs = self.pairs
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
                for x, y in pairs[falsified]:
                    # values are -1/0/1: a sum of -2 is both false, -1 is
                    # one false and one free, and 0 or more has a true
                    # code or both free
                    both = value[x] + value[y]
                    if both >= 0:
                        continue
                    if both < -1:
                        conflict = True
                        break
                    if value[x]:
                        x = y
                    value[x] = 1
                    value[x ^ 1] = -1
                    trail.append(x)
                if conflict:
                    break
            elif lemma_head < len(trail):
                watches = lemma_watches
                falsified = trail[lemma_head] ^ 1
                lemma_head += 1
            else:
                break
            if not watches[falsified]:
                continue  # most formula lists are empty: pairs hold the short clauses
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


def _pair_entries(clause: list[int]) -> tuple[tuple[int, tuple[int, int]], ...]:
    """(code, pair of the other two codes) for each code of a clause of two
    or three codes, as _ClauseDb.pairs holds them; a binary pads with 1."""
    if len(clause) == 2:
        a, b = clause
        return (a, (b, 1)), (b, (a, 1))
    a, b, c = clause
    return (a, (b, c)), (b, (a, c)), (c, (a, b))


def _codes(lits: Iterable[int]) -> list[int]:
    """The checker's code of each signed literal l: 2*|l| + (l < 0)."""
    return [2 * abs(l) + (l < 0) for l in lits]


def check_rup(formula: Formula, proof: Union[str, Iterable[ProofEvent]]) -> bool:
    """True iff every added clause is RUP in order and the proof reaches
    the empty clause.

    Checking stops at the first verified empty clause: the events after
    it are not checked. A text proof is still parsed whole first, so a
    malformed line anywhere raises ValueError.

    DRAT lets a proof name variables the formula lacks. They are renamed
    num_vars + 1, num_vars + 2, ..., which keeps every verdict and sizes
    the checker by how many there are, not by their largest index."""
    events = parse_drat(proof) if isinstance(proof, str) else list(proof)
    n = formula.num_vars
    fresh = {abs(l) for ev in events for l in ev.lits if l > n or -l > n}
    if fresh:
        rename = {}
        for new, v in enumerate(fresh, n + 1):
            rename[v], rename[-v] = new, -new
        events = [ProofEvent(ev.kind, [rename.get(l, l) for l in ev.lits]) for ev in events]

    db = _ClauseDb(n + len(fresh))
    db.load_formula(formula.clauses)

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
