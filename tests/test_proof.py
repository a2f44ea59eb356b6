import io
import random

import pytest

import gluesat.proof
from gluesat.formula import Clause, Formula, lit_from_int, parse_dimacs
from gluesat.gen import parity_contradiction, pigeonhole, random_ksat
from gluesat.proof import (
    ADD,
    DELETE,
    ProofEvent,
    ProofWriter,
    _ClauseDb,
    _codes,
    check_rup,
    parse_drat,
)
from gluesat.solver import Solver, Verdict
from helpers import over_property_seeds, reduce_schedule, solve_shared, solve_with_proof, traced_peak
from oracles import (
    first_rejected_lemma,
    model_satisfies,
    proof_steps_semantically_valid,
    rup_reference,
    truth_table_satisfiable,
)


# ---- emission -----------------------------------------------------------------


def test_add_line_format():
    sink = io.StringIO()
    w = ProofWriter(sink)
    w.add([1, -2])
    assert sink.getvalue() == "1 -2 0\n"


def test_delete_line_format():
    sink = io.StringIO()
    w = ProofWriter(sink)
    w.delete([3])
    assert sink.getvalue() == "d 3 0\n"


def test_unsat_proof_ends_with_empty_clause():
    f = parse_dimacs("p cnf 1 2\n1 0\n-1 0\n")
    result, proof = solve_with_proof(f)
    assert result.verdict is Verdict.UNSAT
    adds = [e for e in parse_drat(proof) if e.kind == ADD]
    assert adds[-1].lits == []


@pytest.fixture(scope="module")
def php76_with_deletions():
    """PHP(7,6) under `baseline` with a reduce schedule that deletes,
    solved once for the module: the result, its proof text, and the
    learnt and deleted clauses in the order the solver made them."""
    learned = []
    deleted = []

    class Audit(Solver):
        def _attach_learnt(self, lits, lbd):
            c = super()._attach_learnt(lits, lbd)
            learned.append(tuple(c.to_ints()))
            return c

        def reduce_db(self):
            before = {id(c): tuple(c.to_ints()) for c in self.learnts}
            n = super().reduce_db()
            alive = {id(c) for c in self.learnts}
            deleted.extend(v for k, v in before.items() if k not in alive)
            return n

    sink = io.StringIO()
    with reduce_schedule(40, 20):
        result = Audit(pigeonhole(6), proof=ProofWriter(sink)).solve()
    return result, sink.getvalue(), learned, deleted


def test_every_learnt_clause_has_one_add_and_deletes_match(php76_with_deletions):
    result, proof, learned, deleted = php76_with_deletions
    assert result.verdict is Verdict.UNSAT
    events = parse_drat(proof)
    adds = [tuple(e.lits) for e in events if e.kind == ADD]
    dels = [tuple(e.lits) for e in events if e.kind == DELETE]
    assert adds[:-1] == learned  # one add per learnt clause, in order
    assert adds[-1] == ()
    assert sorted(dels) == sorted(deleted)  # one delete per deletion
    assert dels  # reduction actually exercised the delete path


# ---- parsing -------------------------------------------------------------------


def test_parse_drat_roundtrip():
    text = "1 -2 0\nd 3 0\n0\n"
    events = parse_drat(text)
    assert [(e.kind, e.lits) for e in events] == [
        (ADD, [1, -2]),
        (DELETE, [3]),
        (ADD, []),
    ]
    sink = io.StringIO()
    w = ProofWriter(sink)
    for e in events:
        (w.add if e.kind == ADD else w.delete)(e.lits)
    assert sink.getvalue() == text


def test_parse_drat_malformed():
    with pytest.raises(ValueError, match="non-integer"):
        parse_drat("1 x 0\n")
    with pytest.raises(ValueError, match="terminating 0"):
        parse_drat("1 2\n")
    with pytest.raises(ValueError, match="embedded 0"):
        parse_drat("1 0 2 0\n")


# ---- RUP checking ----------------------------------------------------------------


def test_empty_clause_rup_on_contradictory_units():
    f = parse_dimacs("p cnf 1 2\n1 0\n-1 0\n")
    assert check_rup(f, "0\n") is True


def test_unrelated_clause_is_not_rup():
    f = parse_dimacs("p cnf 9 2\n1 2 0\n-1 2 0\n")
    assert check_rup(f, "9 0\n") is False


def test_proof_without_empty_clause_fails():
    f = parse_dimacs("p cnf 2 2\n1 2 0\n-1 2 0\n")
    assert check_rup(f, "2 0\n") is False  # valid RUP add, but no refutation


def test_empty_formula_clause_makes_anything_rup():
    f = parse_dimacs("p cnf 1 1\n0\n")
    assert check_rup(f, "0\n") is True
    assert check_rup(f, "1 0\n0\n") is True
    assert check_rup(f, "-7 0\n0\n") is True  # a variable the formula lacks
    assert check_rup(f, "d 0\n0\n") is True  # the empty clause is never deleted
    assert check_rup(f, "d 0\n1 0\n0\n") is True


def test_proof_variables_beyond_formula_range():
    # DRAT permits fresh variables; the checker sizes itself accordingly
    f = parse_dimacs("p cnf 2 2\n1 2 0\n-1 2 0\n")
    assert check_rup(f, "7 0\n") is False
    assert check_rup(f, "2 0\n-7 7 0\n0\n") is False  # still no refutation


def test_sizing_the_checker_keeps_no_copy_of_the_proof_literals():
    # 40,000 lemmas x 12 literals over 5,000 variables, half of them
    # negative; the first lemma is not RUP, so the check stops there and
    # its peak is sizing plus the empty clause database (~2.2 MB). A list
    # of every |literal| held while sizing would add ~13 MB. A variable
    # beyond the formula's adds one variable: sized by its index, variable
    # 300,000 would take ~115 MB.
    n, width = 5000, 12
    events = []
    for i in range(40_000):
        variables = [(i * width + j) % n + 1 for j in range(width)]  # distinct in a lemma
        events.append(ProofEvent(ADD, [v if j % 2 else -v for j, v in enumerate(variables)]))
    f = parse_dimacs("p cnf 2 4\n1 2 0\n-1 2 0\n1 -2 0\n-1 -2 0\n")
    fresh_refutation = "-300000 2 0\n300000 -2 0\n300000 0\n0\n"
    for formula, proof, verdict in (
        (Formula(n), events, False), (f, "300000 0\n", False), (f, fresh_refutation, True)
    ):
        accepted, peak = traced_peak(lambda: check_rup(formula, proof))
        assert accepted is verdict
        assert peak < 4 * 2**20, f"check_rup peak {peak / 2**20:.1f} MB"


def test_loading_a_formula_allocates_nothing_per_3_literal_clause():
    # 21,250 3-literal clauses over 5,000 variables: the pair store and
    # the log of the formula's own literal lists peak at ~8.0 MB; logging
    # a new tuple or list of codes per clause instead peaks at ~11.2 MB
    f = random_ksat(5000, 21250, seed=1)
    accepted, peak = traced_peak(lambda: check_rup(f, "0\n"))
    assert accepted is False
    assert peak < 9 * 2**20, f"check_rup peak {peak / 2**20:.2f} MB"


def test_deleting_a_needed_clause_breaks_the_proof():
    # the units make every literal of the clause false; once the clause
    # is deleted, nothing of it (a unit, or any pair-store entry of a
    # short clause) may be left to find the conflict
    for clause in ("1", "1 2", "2 1", "1 2 3", "2 3 1", "3 1 2"):
        lits = clause.split()
        f = parse_dimacs(f"p cnf 3 {1 + len(lits)}\n{clause} 0\n" + "".join(f"-{l} 0\n" for l in lits))
        assert check_rup(f, "0\n") is True
        assert check_rup(f, f"d {clause} 0\n0\n") is False
        assert check_rup(f, "d 5 0\n0\n") is True  # deleting nothing is a no-op
        assert check_rup(f, "d 2 3 0\n0\n") is True  # other literals: no match


def codes(lits):
    """_ClauseDb takes checker codes: 2*|l| + (l < 0) per signed literal."""
    return [2 * abs(l) + (l < 0) for l in lits]


def test_repeated_literal_still_propagates():
    # [1 1] is the unit 1; [1 1 2] with 2 false implies 1
    f = parse_dimacs("p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n")
    assert check_rup(f, "1 1 0\n0\n") is True
    f = parse_dimacs("p cnf 4 5\n1 2 3 0\n1 2 -3 0\n-1 4 0\n-1 -4 0\n-2 0\n")
    assert check_rup(f, "1 1 2 0\n0\n") is True
    assert check_rup(f, "1 1 2 0\nd 1 2 0\n0\n") is True  # other literals: no match
    assert check_rup(f, "1 1 2 0\nd 2 1 1 0\n0\n") is False
    # a formula clause (1 1 2), from a Formula built without normalizing,
    # goes to the pair store as the binary (1 2)
    x1, x2, x3 = (lit_from_int(v) for v in (1, 2, 3))
    f = Formula(3, [Clause([x1, x1, x2]), Clause([x2 ^ 1, x3]), Clause([x2 ^ 1, x3 ^ 1]),
                    Clause([x1 ^ 1])])
    assert check_rup(f, "0\n") is True
    assert check_rup(f, "d 2 1 1 0\n0\n") is False
    db = _ClauseDb(3)
    db.add(codes([1, 1, 2]), lemma=False)
    (one,), (two,) = codes([1]), codes([2])
    assert db.pairs[one] == [(two, 1)] and db.pairs[two] == [(one, 1)]
    assert sum(map(len, db.pairs)) == 2


def test_delete_reaches_the_array_that_watches_the_clause():
    # (1 2) is a formula clause and is re-added as the lemma (2 1); the
    # lemma 3 needs (1 2), and the empty clause then follows from 3
    f = parse_dimacs("p cnf 4 5\n1 2 0\n-1 3 0\n-2 3 0\n-3 4 0\n-3 -4 0\n")
    assert check_rup(f, "2 1 0\nd 1 2 0\n3 0\n0\n") is True
    assert check_rup(f, "2 1 0\nd 1 2 0\nd 1 2 0\n3 0\n0\n") is False

    db = _ClauseDb(4)
    db.add(codes([1, 2]), lemma=False)  # a formula binary: the pair store
    db.add(codes([2, 1]), lemma=True)
    assert sum(map(len, db.pairs)) == sum(map(len, db.lemma_watches)) == 2
    assert not any(db.formula_watches)
    db.delete(codes([1, 2]))  # the last added copy goes: the lemma
    assert not any(db.lemma_watches)
    assert sum(map(len, db.pairs)) == 2
    assert db.propagates_to_conflict(codes([-1, -2])) is True
    db.delete(codes([2, 1]))
    assert not any(db.pairs)
    assert db.propagates_to_conflict(codes([-1, -2])) is False

    # the other order, with a ternary: the lemma (3 2 1) and then the
    # formula clause (1 2 3), whose copy the first deletion finds
    db.add(codes([3, 2, 1]), lemma=True)
    db.add(codes([1, 2, 3]), lemma=False)
    assert sum(map(len, db.pairs)) == 3
    db.delete(codes([2, 3, 1]))
    assert not any(db.pairs)
    assert sum(map(len, db.lemma_watches)) == 2
    assert db.propagates_to_conflict(codes([-1, -2, -3])) is True
    db.delete(codes([1, 2, 3]))
    assert not any(db.lemma_watches)
    assert db.propagates_to_conflict(codes([-1, -2, -3])) is False


def test_first_deletion_after_lemmas_removes_a_needed_clause():
    # the units make every literal of the needed clause false, and the
    # lemmas over the variables 5 and 6 are RUP only through it; the
    # index is built at the deletion, after the lemmas, and must still
    # find the clause: a 3-literal one that load_formula puts straight
    # into the pair store, a binary, a long clause and a unit
    for clause in ("3 1 2", "2 1", "1 2 3 4", "1"):
        lits = clause.split()
        f = parse_dimacs(f"p cnf 6 {1 + len(lits)}\n{clause} 0\n" + "".join(f"-{l} 0\n" for l in lits))
        lemmas = "5 6 0\n-5 6 0\n"
        assert check_rup(f, lemmas + "0\n") is True
        assert check_rup(f, lemmas + f"d {clause} 0\n0\n") is False
        assert check_rup(f, lemmas + f"d {' '.join(reversed(lits))} 0\n0\n") is False
        assert check_rup(f, lemmas + "d 5 6 0\n0\n") is True


def test_first_deletion_takes_the_lemma_before_the_formula_copy():
    # the formula clause (1 2 3) goes straight into the pair store, and
    # the lemma (3 1 2) repeats it; the first deletion folds both into
    # the index and must put the formula's copy before the lemma's
    db = _ClauseDb(3)
    db.load_formula(parse_dimacs("p cnf 3 1\n1 2 3 0\n").clauses)
    db.add(codes([3, 1, 2]), lemma=True)
    assert sum(map(len, db.pairs)) == 3 and sum(map(len, db.lemma_watches)) == 2
    db.delete(codes([2, 3, 1]))  # the last added copy goes: the lemma
    assert not any(db.lemma_watches)
    assert sum(map(len, db.pairs)) == 3
    assert db.propagates_to_conflict(codes([-1, -2, -3])) is True
    db.delete(codes([1, 2, 3]))
    assert not any(db.pairs)
    assert db.propagates_to_conflict(codes([-1, -2, -3])) is False
    # an add after a deletion is folded in by the next one
    db.add(codes([1, 2, 3]), lemma=True)
    db.delete(codes([3, 2, 1]))
    assert not any(db.lemma_watches)
    # the same through check_rup: the first deletion leaves the formula's copy
    f = parse_dimacs("p cnf 3 4\n1 2 3 0\n-1 0\n-2 0\n-3 0\n")
    assert check_rup(f, "3 1 2 0\nd 1 2 3 0\n0\n") is True
    assert check_rup(f, "3 1 2 0\nd 1 2 3 0\nd 1 2 3 0\n0\n") is False


def test_every_deletion_folds_the_adds_since_the_previous_one():
    # the lemma (2 3 1) is added between two deletions; the second
    # deletion must find it, and so leave the formula's copy
    f = parse_dimacs("p cnf 3 4\n1 2 3 0\n-1 0\n-2 0\n-3 0\n")
    prefix = "3 1 2 0\nd 1 2 3 0\n2 3 1 0\nd 1 2 3 0\n"
    assert check_rup(f, prefix + "0\n") is True
    assert check_rup(f, prefix + "d 3 2 1 0\n0\n") is False


def test_a_check_builds_the_deletion_index_only_at_a_deletion(monkeypatch):
    made = []

    class Recorded(_ClauseDb):
        def __init__(self, num_vars):
            super().__init__(num_vars)
            made.append(self)

    monkeypatch.setattr(gluesat.proof, "_ClauseDb", Recorded)
    f = pigeonhole(3)  # four 3-literal pigeon clauses and 18 binaries
    result, proof = solve_with_proof(f)
    events = parse_drat(proof)
    assert result.verdict is Verdict.UNSAT and not any(e.kind == DELETE for e in events)
    assert check_rup(f, events) is True
    (db,) = made
    assert db.registry == {}
    assert len(db.log) == len(f.clauses) + len(events) - 1  # not the empty lemma
    # deletes nothing; the log then holds only the adds after the deletion
    assert check_rup(f, [*events[:2], ProofEvent(DELETE, [1, 2]), *events[2:]]) is True
    assert sum(map(len, made[1].registry.values())) == len(f.clauses) + 2
    assert len(made[1].log) == len(events) - 3


def test_load_formula_holds_what_add_holds():
    # clauses built without normalizing: repeated literals, tautologies,
    # units, the empty clause and 2-5 literal clauses of either sign
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(1, 6)
        clauses = [
            Clause([rng.randrange(2 * n) for _ in range(rng.choice((0, 1, 2, 3, 3, 3, 4, 5)))])
            for _ in range(rng.randint(0, 12))
        ]
        loaded, added = _ClauseDb(n), _ClauseDb(n)
        loaded.load_formula(clauses)
        for c in clauses:
            added.add(_codes(c.to_ints()), lemma=False)
        for db in (loaded, added):
            db.delete([0])  # folds the log into the index; code 0 names no literal
        assert loaded.pairs == added.pairs
        assert loaded.formula_watches == added.formula_watches
        assert loaded.units == added.units

        def index(db):
            return {k: [(s is db.pairs, c) for s, c in v] for k, v in db.registry.items()}

        assert index(loaded) == index(added)


def test_formula_codes_are_internal_codes_plus_two():
    # load_formula codes a formula clause as l + 2 from its internal
    # codes l; a proof line is coded from its DIMACS literals by _codes
    f = parse_dimacs("p cnf 9 5\n1 -2 3 0\n-9 0\n4 -5 6 -7 8 9 0\n-1 2 0\n-3 -4 -6 0\n")
    lits = [l for c in f.clauses for l in c.to_ints()]
    assert min(lits) == -9 and max(lits) == 9
    for c in f.clauses:
        assert _codes(c.to_ints()) == [l + 2 for l in c.lits]


def test_tautological_short_clause_never_propagates():
    x1, x2 = lit_from_int(1), lit_from_int(2)
    f = Formula(2, [Clause([x1, x1 ^ 1]), Clause([x1, x1 ^ 1, x2]), Clause([x2 ^ 1, x1, x1 ^ 1])])
    # each lemma assumes its negation; none is RUP, and neither is the empty clause
    for lemma in ("", "1", "-1", "2", "-2", "1 2", "-1 -2", "1 -2", "-1 2"):
        events = parse_drat(f"{lemma} 0\n")
        assert check_rup(f, events) is False
        assert rup_reference(f, events) is False


def test_conflict_in_a_long_formula_clause_after_pair_propagation():
    # 1 implies 2 and 3 through binaries, (2 3) implies 4 through a
    # ternary, and only the 4-literal clause is then false
    f = parse_dimacs(
        "p cnf 5 6\n-1 2 0\n-1 3 0\n-2 -3 4 0\n-1 -2 -3 -4 0\n1 5 0\n1 -5 0\n")
    assert check_rup(f, "-1 0\n0\n") is True
    assert check_rup(f, "d -1 -2 -3 -4 0\n-1 0\n0\n") is False
    db = _ClauseDb(5)
    for c in f.clauses:
        db.add(codes(c.to_ints()), lemma=False)
    assert sum(map(len, db.formula_watches)) == 2  # the long clause only
    assert db.propagates_to_conflict(codes([1])) is True
    db.delete(codes([-4, -3, -2, -1]))
    assert db.propagates_to_conflict(codes([1])) is False


# (-1 2) is derived as a lemma and the formula clauses that gave it are
# deleted, so 1 implies 2 only through the lemma array
LEMMA_THEN_FORMULA = "-1 2 0\nd -1 2 3 0\nd -1 2 -3 0\n-1 0\n0\n"


def test_lemma_implication_sends_the_check_back_to_formula_clauses():
    # assuming 1: the formula is at fixpoint, the lemma implies 2, and
    # only then does the formula pair (-2 4), (-2 -4) conflict
    f = parse_dimacs(
        "p cnf 5 6\n-1 2 3 0\n-1 2 -3 0\n-2 4 0\n-2 -4 0\n1 5 0\n1 -5 0\n")
    assert check_rup(f, LEMMA_THEN_FORMULA) is True
    assert rup_reference(f, parse_drat(LEMMA_THEN_FORMULA)) is True


def test_non_rup_lemma_is_rejected_after_both_arrays_reach_fixpoint():
    # as above, but (-2 -4 6) lets 2 and 4 stand: after the lemma step
    # the formula propagates 4 and 6 and nothing conflicts, so -1 is not RUP
    f = parse_dimacs(
        "p cnf 6 6\n-1 2 3 0\n-1 2 -3 0\n-2 4 0\n-2 -4 6 0\n1 5 0\n1 -5 0\n")
    assert check_rup(f, LEMMA_THEN_FORMULA) is False
    assert rup_reference(f, parse_drat(LEMMA_THEN_FORMULA)) is False

    db = _ClauseDb(7)
    for c in ([-2, 4], [-2, -4, 6]):
        db.add(codes(c), lemma=False)
    db.add(codes([-1, 2]), lemma=True)
    db.add(codes([-6, -1, -7]), lemma=True)  # fires only after the formula step
    assert db.propagates_to_conflict(codes([1])) is False
    assert not any(db.value[2:])  # every assignment undone
    assert db.value[:2] == [1, -1]  # codes 0 and 1 name no literal; 1 pads binaries
    db.add(codes([7, -6]), lemma=False)  # 6 -> 7 now meets the lemma's -7
    assert db.propagates_to_conflict(codes([1])) is True
    assert not any(db.value[2:]) and db.value[:2] == [1, -1]


def test_solver_proofs_verify_on_mixed_corpus():
    instances = [
        pigeonhole(3),
        pigeonhole(4),
        pigeonhole(5),
        parity_contradiction(4),
        parity_contradiction(8),
        parse_dimacs("p cnf 1 2\n1 0\n-1 0\n"),
        parse_dimacs("p cnf 2 1\n0\n"),
    ]
    some_unsat_seeds = 0
    for seed in range(40):
        f = random_ksat(12, 55, seed=seed + 4000)
        if not truth_table_satisfiable(f):
            instances.append(f)
            some_unsat_seeds += 1
    assert some_unsat_seeds >= 3
    for gb in (False, True):
        for f in instances:
            result, proof = solve_with_proof(f, glue_bump=gb)
            assert result.verdict is Verdict.UNSAT
            assert check_rup(f, proof) is True


def test_proofs_with_deletions_verify(php76_with_deletions):
    result, proof, _, _ = php76_with_deletions
    assert result.verdict is Verdict.UNSAT
    assert any(e.kind == DELETE for e in parse_drat(proof))
    assert check_rup(pigeonhole(6), proof) is True


def test_php_8_7_baseline_proof_checks():
    # PHP(8,7) is the largest proof in the suite: 4,643 conflicts under
    # `baseline`, a few seconds to solve and check.
    f = pigeonhole(7)
    result, proof = solve_shared(f, glue_bump=False)  # also test_directional_replication's
    assert result.verdict is Verdict.UNSAT
    assert result.counters.conflicts == 4643
    assert check_rup(f, proof) is True


def test_shared_solve_equals_a_fresh_one():
    for gb in (False, True):  # keyed by the clauses: a new equal formula hits the cache
        cached, proof = solve_shared(pigeonhole(5), gb)
        fresh, text = solve_with_proof(pigeonhole(5), glue_bump=gb)
        assert (cached.verdict, cached.counters, proof) == (fresh.verdict, fresh.counters, text)
        assert type(proof) is str and solve_shared(pigeonhole(5), gb) == (cached, proof)


def sweep_instance(rng):
    """One instance of the mid-size certification sweep."""
    family = rng.choice(("ksat", "ksat", "php", "parity"))
    if family == "ksat":
        # away from the ~4.26 threshold: satisfiable up to 300 variables,
        # unsatisfiable up to 150, where most refutations take under 300
        # conflicts
        ratio = rng.choice((3.0, 3.5, 7.0, 8.0))
        n = rng.randint(50, 300 if ratio < 4 else 150)
        return random_ksat(n, int(n * ratio), seed=rng.randrange(1 << 30))
    if family == "php":
        return pigeonhole(rng.randint(4, 5))
    return parity_contradiction(rng.randint(12, 30))


def test_mid_size_verdicts_are_certified():
    """Seeded sweep past the truth-table corpus: 170 instances of 20-300
    variables, each under one random reduce schedule with glue bumping
    off and on, capped at 300 conflicts. Small learnt limits make
    reduce_db delete clauses in the proofs. Every SAT model is evaluated
    and every UNSAT proof checked."""
    rng = random.Random(23)
    certified = with_deletions = 0
    for _ in range(170):
        f = sweep_instance(rng)
        schedule = (rng.choice((1, 5, 20, 2000)), rng.randint(0, 300))
        for gb in (False, True):
            with reduce_schedule(*schedule):
                result, proof = solve_with_proof(f, glue_bump=gb, max_conflicts=300)
            where = f"{f.num_vars} vars, glue_bump={gb}, reduce schedule {schedule}"
            if result.verdict is Verdict.SAT:
                assert model_satisfies(f, result.model), where
            elif result.verdict is Verdict.UNSAT:
                events = parse_drat(proof)
                assert check_rup(f, events), (
                    f"{where}: first rejected lemma {first_rejected_lemma(f, events)}"
                )
                with_deletions += any(e.kind == DELETE for e in events)
            else:
                continue
            certified += 1
    assert certified >= 300
    assert with_deletions >= 100


def mutate_one_literal(events, rng):
    """Flip the sign of one random literal in a random add event."""
    add_positions = [
        i for i, e in enumerate(events) if e.kind == ADD and e.lits
    ]
    if not add_positions:
        return None
    i = rng.choice(add_positions)
    j = rng.randrange(len(events[i].lits))
    mutated = [ProofEvent(e.kind, list(e.lits)) for e in events]
    mutated[i].lits[j] = -mutated[i].lits[j]
    return mutated


def test_mutation_sensitivity_and_sound_acceptance():
    """Corrupting one literal usually breaks a proof; when the corrupted
    proof still checks, that must be because it genuinely remains a valid
    refutation (verified here by exhaustive implication checking), never
    because the checker waved something unsound through. The reference
    replay agrees, and names a rejected lemma no earlier than the
    mutated event: the unchanged prefix still checks.
    """
    f = pigeonhole(4)  # 20 variables: survivors can be vindicated exactly
    result, proof = solve_with_proof(f)
    assert result.verdict is Verdict.UNSAT
    events = parse_drat(proof)
    assert check_rup(f, events) is True
    rng = random.Random(606)
    rejected = 0
    survivors = 0
    trials = 60
    for _ in range(trials):
        mutated = mutate_one_literal(events, rng)
        named = first_rejected_lemma(f, mutated)
        if check_rup(f, mutated):
            survivors += 1
            assert named is None
            assert proof_steps_semantically_valid(f, mutated)
        else:
            rejected += 1
            assert named is not None
            index, lits = named
            at = next(i for i, (e, m) in enumerate(zip(events, mutated)) if e.lits != m.lits)
            assert index >= at
            assert lits == (mutated[index].lits if index < len(mutated) else [])
    assert rejected >= trials // 2  # the checker is clearly not a stub
    assert rejected + survivors == trials


# ---- differential fuzzing against the full-scan reference ------------------------

EDITS = (
    "add_random",       # any literals: duplicates and tautologies included
    "add_copy",         # a clause already in the formula or the proof
    "repeat_lit",       # one literal of a proof lemma repeated in place
    "add_tautology",    # a known clause plus v and -v
    "delete_random",    # usually a clause nobody added, maybe the empty one
    "delete_unit",      # a one-literal clause, known or not
    "delete_known",     # a formula or proof clause, literals reordered
    "drop_event",       # remove one event of the solver's proof
)


@over_property_seeds
def test_check_rup_matches_reference_on_adversarial_proofs(rng):
    """check_rup agrees exactly with a naive full-scan RUP replay on
    solver proofs of small random formulas, each with adversarial events
    spliced in; whatever it accepts is also a semantically valid proof."""
    n = rng.randint(1, 10)
    pool = [l for v in range(1, n + 1) for l in (v, -v)]
    widths = [rng.randint(min(n, 2), min(n, 5)) for _ in range(rng.randint(0, 6 * n))]
    clauses = [[rng.choice((v, -v)) for v in rng.sample(range(1, n + 1), k)] for k in widths]
    formula = Formula.from_ints(n, clauses)
    with reduce_schedule(rng.choice((1, 2000)), 0):
        _, proof = solve_with_proof(formula, glue_bump=rng.random() < 0.5)
    events = parse_drat(proof)
    known = [c.to_ints() for c in formula.clauses] + [e.lits for e in events if e.lits]
    units = [c for c in known if len(c) == 1]
    for edit in rng.choices(EDITS, k=rng.randint(0, 6)):
        if edit == "drop_event":
            if events:
                del events[rng.randrange(len(events))]
            continue
        if edit == "repeat_lit":
            lemmas = [e.lits for e in events if e.kind == ADD and e.lits]
            if lemmas:
                lits = rng.choice(lemmas)
                lits.insert(rng.randint(0, len(lits)), rng.choice(lits))
            continue
        if edit in ("add_random", "delete_random"):
            lits = rng.choices(pool, k=rng.randint(0, 4))
        elif edit == "delete_unit":  # a known unit half the time
            lits = list(rng.choice(units)) if units and rng.random() < 0.5 else [rng.choice(pool)]
        elif not known:
            continue
        else:
            lits = list(rng.choice(known))
            if edit == "add_tautology":
                v = rng.randint(1, n)
                lits += [v, -v]
            elif edit == "delete_known":
                rng.shuffle(lits)
        kind = ADD if edit.startswith("add") else DELETE
        events.insert(rng.randint(0, len(events)), ProofEvent(kind, lits))
    accepted = check_rup(formula, events)
    assert accepted is rup_reference(formula, events)
    if accepted:
        assert proof_steps_semantically_valid(formula, events)
