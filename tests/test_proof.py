import io
import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from gluesat.formula import Formula, parse_dimacs
from gluesat.gen import parity_contradiction, pigeonhole, random_ksat
from gluesat.proof import (
    ADD,
    DELETE,
    ProofEvent,
    ProofWriter,
    _ClauseDb,
    check_rup,
    parse_drat,
)
from gluesat.solver import Solver, SolverConfig, Verdict
from helpers import reduce_schedule
from oracles import (
    first_rejected_lemma,
    model_satisfies,
    proof_steps_semantically_valid,
    rup_reference,
    truth_table_satisfiable,
)


def solve_with_proof(formula, **cfg):
    sink = io.StringIO()
    s = Solver(formula, SolverConfig(**cfg), proof=ProofWriter(sink))
    result = s.solve()
    return result, sink.getvalue()


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


def test_every_learnt_clause_has_one_add_and_deletes_match():
    f = pigeonhole(6)

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
        result = Audit(f, proof=ProofWriter(sink)).solve()
    assert result.verdict is Verdict.UNSAT
    events = parse_drat(sink.getvalue())
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
    assert check_rup(f, "d 0\n0\n") is True  # the empty clause is never deleted


def test_proof_variables_beyond_formula_range():
    # DRAT permits fresh variables; the checker sizes itself accordingly
    f = parse_dimacs("p cnf 2 2\n1 2 0\n-1 2 0\n")
    assert check_rup(f, "7 0\n") is False
    assert check_rup(f, "2 0\n-7 7 0\n0\n") is False  # still no refutation


def test_sizing_the_checker_keeps_no_copy_of_the_proof_literals():
    # 40,000 lemmas x 12 literals over 5,000 variables, half of them
    # negative; the first lemma is not RUP, so the check stops there and
    # its peak is sizing plus the empty clause database (~1.6 MB). A list
    # of every |literal| held while sizing would add ~13 MB.
    n, width = 5000, 12
    events = []
    for i in range(40_000):
        variables = [(i * width + j) % n + 1 for j in range(width)]  # distinct in a lemma
        events.append(ProofEvent(ADD, [v if j % 2 else -v for j, v in enumerate(variables)]))
    tracemalloc.start()
    try:
        assert check_rup(Formula(n), events) is False
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, f"check_rup peak {peak / 2**20:.1f} MB"


def test_deleting_a_needed_clause_breaks_the_proof():
    f = parse_dimacs("p cnf 1 2\n1 0\n-1 0\n")
    assert check_rup(f, "d 1 0\n0\n") is False
    assert check_rup(f, "d 5 0\n0\n") is True  # deleting nothing is a no-op


def test_repeated_literal_still_propagates():
    # [1 1] is the unit 1; [1 1 2] with 2 false implies 1
    f = parse_dimacs("p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n")
    assert check_rup(f, "1 1 0\n0\n") is True
    f = parse_dimacs("p cnf 4 5\n1 2 3 0\n1 2 -3 0\n-1 4 0\n-1 -4 0\n-2 0\n")
    assert check_rup(f, "1 1 2 0\n0\n") is True
    assert check_rup(f, "1 1 2 0\nd 1 2 0\n0\n") is True  # other literals: no match
    assert check_rup(f, "1 1 2 0\nd 2 1 1 0\n0\n") is False


def test_delete_reaches_the_array_that_watches_the_clause():
    # (1 2) is a formula clause and is re-added as the lemma (2 1); the
    # lemma 3 needs (1 2), and the empty clause then follows from 3
    f = parse_dimacs("p cnf 4 5\n1 2 0\n-1 3 0\n-2 3 0\n-3 4 0\n-3 -4 0\n")
    assert check_rup(f, "2 1 0\nd 1 2 0\n3 0\n0\n") is True
    assert check_rup(f, "2 1 0\nd 1 2 0\nd 1 2 0\n3 0\n0\n") is False

    db = _ClauseDb(4)
    db.add([1, 2], lemma=False)
    db.add([2, 1], lemma=True)
    assert sum(map(len, db.formula_watches)) == sum(map(len, db.lemma_watches)) == 2
    db.delete([1, 2])  # the last added copy goes: the lemma
    assert not any(db.lemma_watches)
    assert sum(map(len, db.formula_watches)) == 2
    assert db.propagates_to_conflict([-1, -2]) is True
    db.delete([2, 1])
    assert not any(db.formula_watches)
    assert db.propagates_to_conflict([-1, -2]) is False


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
        db.add(c, lemma=False)
    db.add([-1, 2], lemma=True)
    db.add([-6, -1, -7], lemma=True)  # fires only after the formula step
    assert db.propagates_to_conflict([1]) is False
    assert not any(db.value)  # every assignment undone
    db.add([7, -6], lemma=False)  # 6 -> 7 now meets the lemma's -7
    assert db.propagates_to_conflict([1]) is True
    assert not any(db.value)


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


def test_proofs_with_deletions_verify():
    f = pigeonhole(6)
    with reduce_schedule(40, 20):
        result, proof = solve_with_proof(f)
    assert result.verdict is Verdict.UNSAT
    assert any(e.kind == DELETE for e in parse_drat(proof))
    assert check_rup(f, proof) is True


def test_php_8_7_baseline_proof_checks():
    # PHP(8,7) is the largest proof in the suite: 4,643 conflicts under
    # `baseline`, a few seconds to solve and check.
    f = pigeonhole(7)
    result, proof = solve_with_proof(f, glue_bump=False)
    assert result.verdict is Verdict.UNSAT
    assert result.counters.conflicts == 4643
    assert check_rup(f, proof) is True


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


@given(st.data())
def test_check_rup_matches_reference_on_adversarial_proofs(data):
    """check_rup agrees exactly with a naive full-scan RUP replay on
    solver proofs of small random formulas, each with adversarial events
    spliced in; whatever it accepts is also a semantically valid proof."""
    n = data.draw(st.integers(1, 10), label="num_vars")
    lit = st.integers(1, n).flatmap(lambda v: st.sampled_from((v, -v)))
    clause = st.lists(lit, min_size=min(n, 2), max_size=5, unique_by=abs)
    m = data.draw(st.integers(0, 6 * n), label="num_clauses")
    formula = Formula.from_ints(n, data.draw(st.lists(clause, min_size=m, max_size=m)))
    glue_bump = data.draw(st.booleans(), label="glue_bump")
    with reduce_schedule(data.draw(st.sampled_from((1, 2000)), label="learnt_limit"), 0):
        _, proof = solve_with_proof(formula, glue_bump=glue_bump)
    events = parse_drat(proof)
    known = [c.to_ints() for c in formula.clauses] + [e.lits for e in events if e.lits]
    for edit in data.draw(st.lists(st.sampled_from(EDITS), max_size=6), label="edits"):
        if edit == "drop_event":
            if events:
                del events[data.draw(st.integers(0, len(events) - 1))]
            continue
        if edit == "repeat_lit":
            lemmas = [e.lits for e in events if e.kind == ADD and e.lits]
            if lemmas:
                lits = data.draw(st.sampled_from(lemmas))
                repeated = data.draw(st.sampled_from(lits))
                lits.insert(data.draw(st.integers(0, len(lits))), repeated)
            continue
        if edit in ("add_random", "delete_random"):
            lits = data.draw(st.lists(lit, max_size=4))
        elif edit == "delete_unit":
            lits = [data.draw(lit)]
        elif not known:
            continue
        else:
            lits = list(data.draw(st.sampled_from(known)))
            if edit == "add_tautology":
                v = data.draw(st.integers(1, n))
                lits += [v, -v]
            elif edit == "delete_known":
                lits = data.draw(st.permutations(lits))
        kind = ADD if edit.startswith("add") else DELETE
        at = data.draw(st.integers(0, len(events)))
        events.insert(at, ProofEvent(kind, lits))
    accepted = check_rup(formula, events)
    assert accepted is rup_reference(formula, events)
    if accepted:
        assert proof_steps_semantically_valid(formula, events)
