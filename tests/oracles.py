"""Independent oracles the tests check the solver against.

Everything here is deliberately written from first principles, sharing
no code with the package under test: truth-table enumeration over
bigint bitmaps, direct clause evaluation, full-scan unit propagation,
a list-doubling Luby generator, a resolution-based first-UIP
calculator, and a PAR-2 recount read back from a records CSV.

The one exception is `parse_dimacs_reference`, the package's earlier
token-at-a-time DIMACS parser kept as the differential oracle for
`parse_dimacs`: it builds the same `Formula`/`Clause` objects through
the package's literal codec and `normalize_clause`.
"""

from __future__ import annotations

import csv
import warnings
from typing import IO, Optional, Union

from gluesat.formula import Clause, DimacsError, Formula, lit_from_int, normalize_clause


def _var_mask(v: int, n: int) -> int:
    """Bitmap over all 2^n assignments: bit a is set iff variable v
    (0-based) is true in assignment a."""
    block = (1 << (1 << v)) - 1
    m = block << (1 << v)
    width = 1 << (v + 1)
    total = 1 << n
    while width < total:
        m |= m << width
        width <<= 1
    return m


_mask_cache: dict[int, list[int]] = {}


def truth_table_satisfiable(formula: Formula) -> bool:
    """Exhaustive enumeration of all 2^n assignments (n <= 24 or so)."""
    n = formula.num_vars
    if n not in _mask_cache:
        _mask_cache[n] = [_var_mask(v, n) for v in range(n)]
    masks = _mask_cache[n]
    full = (1 << (1 << n)) - 1
    acc = full
    for clause in formula.clauses:
        cm = 0
        for lit in clause.lits:
            v = lit >> 1
            cm |= masks[v] if (lit & 1) == 0 else (full & ~masks[v])
        acc &= cm
        if acc == 0:
            return False
    return acc != 0


def _satisfiable_int_clauses(num_vars: int, clauses: list[list[int]]) -> bool:
    """Truth-table satisfiability over signed-integer clauses."""
    if num_vars not in _mask_cache:
        _mask_cache[num_vars] = [_var_mask(v, num_vars) for v in range(num_vars)]
    masks = _mask_cache[num_vars]
    full = (1 << (1 << num_vars)) - 1
    acc = full
    for clause in clauses:
        cm = 0
        for lit in clause:
            m = masks[abs(lit) - 1]
            cm |= m if lit > 0 else (full & ~m)
        acc &= cm
        if acc == 0:
            return False
    return acc != 0


def proof_steps_semantically_valid(formula: Formula, events) -> bool:
    """Enumeration-based vindication of a clausal proof (small inputs):
    every added clause must be logically implied by the formula plus the
    not-yet-deleted earlier additions, and the additions must reach the
    empty clause. Stronger than RUP: checks implication itself.
    """
    num_vars = formula.num_vars
    db: list[list[int]] = [c.to_ints() for c in formula.clauses]
    for ev in events:
        if ev.kind == "delete":
            key = sorted(ev.lits)
            for i, c in enumerate(db):
                if sorted(c) == key:
                    del db[i]
                    break
            continue
        clause = ev.lits
        negation = [[-l] for l in clause]
        if _satisfiable_int_clauses(num_vars, db + negation):
            return False  # not implied
        if not clause:
            return True
        db.append(clause)
    return False


def _unit_propagation_conflicts(clauses: list[list[int]], assumptions: list[int]) -> bool:
    """Full-scan unit propagation: sweep every clause until a sweep
    changes nothing. A clause is the set of its literals, so duplicate
    literals count once and a tautology is never unit."""
    true: set[int] = set()
    for lit in assumptions:
        if -lit in true:
            return True
        true.add(lit)
    changed = True
    while changed:
        changed = False
        for clause in clauses:
            if any(l in true for l in clause):
                continue
            open_lits = {l for l in clause if -l not in true}
            if not open_lits:
                return True
            if len(open_lits) == 1:
                true.add(open_lits.pop())
                changed = True
    return False


def rup_reference(formula: Formula, events) -> bool:
    """Naive replay of a clausal proof by reverse unit propagation, for
    differential testing of the RUP checker.

    Every added clause must make unit propagation over the live clauses
    plus its negated literals reach a conflict; the replay accepts at the
    first such empty clause. A deletion removes one live clause with the
    same sorted literals, an unknown clause is a no-op, and the empty
    clause is never deleted.
    """
    return first_rejected_lemma(formula, events) is None


def first_rejected_lemma(formula: Formula, events) -> Optional[tuple[int, list[int]]]:
    """The `rup_reference` replay, naming what it rejects: the index in
    `events` and the literals of the first addition that is not RUP, or
    None if the proof is accepted. A proof whose additions all check but
    never reach the empty clause is rejected at (len(events), []), the
    empty clause it lacks."""
    clauses: list[list[int]] = [c.to_ints() for c in formula.clauses]
    for i, ev in enumerate(events):
        if ev.kind == "delete":
            key = sorted(ev.lits)
            if not key:
                continue
            for j, c in enumerate(clauses):
                if sorted(c) == key:
                    del clauses[j]
                    break
            continue
        if not _unit_propagation_conflicts(clauses, [-l for l in ev.lits]):
            return i, list(ev.lits)
        if not ev.lits:
            return None
        clauses.append(list(ev.lits))
    return len(events), []


def model_satisfies(formula: Formula, model: list[int]) -> bool:
    """Evaluate every clause under a model given as signed literals."""
    value = {abs(l): l > 0 for l in model}
    for clause in formula.clauses:
        ok = False
        for lit in clause.lits:
            var = (lit >> 1) + 1
            if var not in value:
                return False
            if value[var] == ((lit & 1) == 0):
                ok = True
                break
        if not ok:
            return False
    return True


def recompute_par2_from_csv(path, timeout_s: float) -> dict[str, float]:
    """PAR-2 per config recounted from a records CSV (same row order):
    solved rows add their wall time, UNKNOWN rows twice the timeout,
    ERROR rows nothing."""
    out: dict[str, float] = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            cfg = row["config"]
            if row["verdict"] == "ERROR":
                continue
            out.setdefault(cfg, 0.0)
            if row["verdict"] in ("SATISFIABLE", "UNSATISFIABLE"):
                out[cfg] += float(row["wall_time_s"])
            else:
                out[cfg] += 2.0 * timeout_s
    return out


def luby_sequence(count: int) -> list[int]:
    """First `count` Luby terms via the doubling construction
    S_{k+1} = S_k + S_k + [2^k], S_1 = [1] (giving 1,1,2,1,1,2,4,...)."""
    seq = [1]
    k = 1
    while len(seq) < count:
        seq = seq + seq + [1 << k]
        k += 1
    return seq[:count]


def simulate_luby_restarts(num_checked_conflicts: int, base: int) -> int:
    """Restart count when the policy is consulted after each of
    `num_checked_conflicts` conflicts and fires as soon as the
    per-segment conflict count reaches base * luby(segment).

    A terminal level-0 conflict ends the search before the policy is
    consulted, so callers pass conflicts-1 for solved-UNSAT runs.
    """
    seq = luby_sequence(num_checked_conflicts + 1)
    restarts = 0
    since = 0
    for _ in range(num_checked_conflicts):
        since += 1
        if since >= base * seq[restarts]:
            restarts += 1
            since = 0
    return restarts


def first_uip_resolution(
    trail: list[int],
    reasons: dict[int, list[int]],
    levels: dict[int, int],
    conflict: list[int],
    current_level: int,
) -> list[int]:
    """Resolution-based first-UIP: repeatedly resolve the conflict clause
    against the reason of the latest-assigned literal of the current
    level while more than one current-level literal remains.

    All literals are signed external integers; `trail` is in assignment
    order; `reasons` maps a variable to the clause that propagated it
    (absent for decisions). Returns the learnt clause as a sorted list.
    """
    clause = set(conflict)

    def current_level_lits() -> list[int]:
        return [l for l in clause if levels[abs(l)] == current_level]

    position = {abs(l): i for i, l in enumerate(trail)}
    while len(current_level_lits()) > 1:
        pivot_lit = max(current_level_lits(), key=lambda l: position[abs(l)])
        var = abs(pivot_lit)
        reason = reasons[var]
        clause.discard(pivot_lit)
        for l in reason:
            if abs(l) != var:
                clause.add(l)
    # drop literals falsified at level 0, as the solver does
    clause = {l for l in clause if levels[abs(l)] > 0}
    return sorted(clause)


def centrality(tracker, var: int) -> float:
    """A variable's share of the combined glue level, in [0, 1], recounted
    from the tracker's per-variable levels rather than its running total."""
    return tracker.glue_level[var] / sum(tracker.glue_level)


def replay_activity_log(
    num_vars: int,
    events: list[tuple],
    decay: float,
    rescale_limit: float = 1e100,
    rescale_factor: float = 1e-100,
) -> list[float]:
    """Recompute final activities from a semantic event log.

    Events: ("bump", v) conflict-side bump by the current increment;
    ("gbump", v, glue_level, total_glue_level) an unassignment bump;
    ("decay",) one conflict's increment growth.
    """
    act = [0.0] * num_vars
    inc = 1.0

    def add(v: int, amount: float) -> None:
        nonlocal inc
        act[v] += amount
        if act[v] > rescale_limit:
            for i in range(num_vars):
                act[i] *= rescale_factor
            inc *= rescale_factor

    for ev in events:
        if ev[0] == "bump":
            add(ev[1], inc)
        elif ev[0] == "gbump":
            _, v, gl, total = ev
            add(v, act[v] * (gl / total))
        elif ev[0] == "decay":
            inc /= decay
        else:
            raise ValueError(f"unknown event {ev!r}")
    return act


def parse_dimacs_reference(source: Union[str, bytes, IO]) -> Formula:
    """Parse DIMACS CNF text into a Formula, one token at a time.

    `parse_dimacs` must agree with it on every input: the same Formula
    and warning text, or a DimacsError with the same message.
    """
    if hasattr(source, "read"):
        source = source.read()
    if isinstance(source, bytes):
        text = source.decode("latin-1")
    else:
        text = source

    num_vars = -1
    declared_clauses = -1
    clauses: list[Clause] = []
    raw_count = 0
    pending: list[int] = []

    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("c"):
            continue
        if stripped.startswith("%"):
            break
        if stripped.startswith("p"):
            if num_vars >= 0:
                raise DimacsError(f"line {lineno}: duplicate header")
            parts = stripped.split()
            if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
                raise DimacsError(f"line {lineno}: malformed header {stripped!r}")
            try:
                num_vars = int(parts[2])
                declared_clauses = int(parts[3])
            except ValueError:
                raise DimacsError(f"line {lineno}: non-integer header counts") from None
            if num_vars < 0 or declared_clauses < 0:
                raise DimacsError(f"line {lineno}: negative header counts")
            continue
        if num_vars < 0:
            raise DimacsError(f"line {lineno}: clause data before 'p cnf' header")
        for tok in stripped.split():
            try:
                val = int(tok)
            except ValueError:
                raise DimacsError(f"line {lineno}: non-integer token {tok!r}") from None
            if val == 0:
                raw_count += 1
                lits = normalize_clause(pending)
                pending = []
                if lits is None:
                    continue
                clauses.append(Clause([lit_from_int(x) for x in lits]))
            else:
                if abs(val) > num_vars:
                    raise DimacsError(
                        f"line {lineno}: literal {val} out of range (num_vars={num_vars})"
                    )
                pending.append(val)

    if num_vars < 0:
        raise DimacsError("missing 'p cnf' header")
    if pending:
        raise DimacsError("unterminated clause at end of input (missing 0)")
    if raw_count != declared_clauses:
        warnings.warn(
            f"header declares {declared_clauses} clauses but {raw_count} were read",
            stacklevel=2,
        )
    return Formula(num_vars, clauses)
