"""Property tests over seeded random inputs: the solver over random
SolverConfigs, reduce schedules and small formulas, both text parsers
over byte-mutated valid inputs, and `parse_dimacs` against the
token-at-a-time reference parser."""

from __future__ import annotations

import io
import random
import warnings
from unittest import mock

import gluesat.formula
from gluesat.formula import CHUNK_LINES, DimacsError, Formula, parse_dimacs, to_dimacs
from gluesat.gen import parity_chain, parity_contradiction, pigeonhole
from gluesat.proof import ADD, DELETE, ProofWriter, check_rup, parse_drat
from gluesat.solver import SolverConfig, Verdict
from helpers import InstrumentedSolver, over_property_seeds, reduce_schedule, unassigned_argmax
from oracles import model_satisfies, parse_dimacs_reference, truth_table_satisfiable

# ---- solver over SolverConfig ---------------------------------------------------

WIDTHS = (1, 2, 3, 3, 3, 3, 3, 3, 3, 3, 3, 4)
CRAFTED = (None, None, pigeonhole(3), pigeonhole(2), parity_contradiction(4), parity_chain(6))


def small_formula(rng: random.Random) -> Formula:
    """A formula over at most 12 variables: a relabelled crafted instance
    (pigeonhole, parity) plus a few random clauses, or random clauses
    only, mostly 3-literal, 0 to 6 per variable, so across the 3-SAT
    threshold. The crafted ones make runs reach learning and reduce_db.
    One formula in twenty also holds the empty clause."""
    base = rng.choice(CRAFTED)
    if base is None:
        n = rng.randint(1, 12)
        clauses = []
        m = rng.randint(0, 6 * n)
    else:
        n = base.num_vars
        clauses = [c.to_ints() for c in base.clauses]
        m = rng.randint(0, 3)
    for _ in range(m):
        width = rng.choice(WIDTHS)
        clauses.append([rng.choice((v, -v)) for v in rng.choices(range(1, n + 1), k=width)])
    if rng.random() < 0.05:
        clauses.append([])
    # rename every variable and flip its sign at random
    rename = [0] + [v * rng.choice((1, -1)) for v in rng.sample(range(1, n + 1), n)]
    return Formula.from_ints(n, [[rename[l] if l > 0 else -rename[-l] for l in c] for c in clauses])


class ArgmaxInstrumentedSolver(InstrumentedSolver):
    """InstrumentedSolver that also checks every decision against the
    brute-force unassigned argmax."""

    def decide(self):
        expected = unassigned_argmax(self)
        lit = super().decide()
        assert lit >> 1 == expected
        return lit


@over_property_seeds
def test_solver_fuzz_over_configs(rng):
    formula = small_formula(rng)
    glue_bump, cap = rng.random() < 0.5, rng.choice((None, rng.randint(1, 20)))
    config = SolverConfig(glue_bump=glue_bump, max_conflicts=cap)
    schedule = (rng.choice((rng.choice((0, 1)), rng.randint(2, 8), 2000)), rng.randint(0, 300))
    sink = io.StringIO()
    with reduce_schedule(*schedule):
        result = ArgmaxInstrumentedSolver(formula, config, proof=ProofWriter(sink)).solve()
    satisfiable = truth_table_satisfiable(formula)
    if result.verdict is Verdict.SAT:
        assert satisfiable
        assert model_satisfies(formula, result.model)
    elif result.verdict is Verdict.UNSAT:
        assert not satisfiable
        assert check_rup(formula, sink.getvalue())
    else:
        assert config.max_conflicts is not None
        assert result.counters.conflicts >= config.max_conflicts


# ---- parsers over mutated bytes -------------------------------------------------

# DIMACS/DRAT syntax bytes about half the time, any byte otherwise
BYTES = list(b"0123456789 -\n\t\rpcnfd%") * 11 + list(range(256))
PROOF_LITS = [l for l in range(-9, 10) if l]


def mutate(data: bytes, rng: random.Random, alphabet: list[int]) -> bytes:
    """`data` after 1 to 8 random edits: each replaces, inserts or deletes
    one byte at any position. A quarter of the written bytes are 0, the
    terminator of both formats, so that edits often move a clause end; the
    rest come from `alphabet`."""
    buf = bytearray(data)
    for _ in range(rng.randint(1, 8)):
        op = rng.choice(("replace", "insert", "delete"))
        byte = ord("0") if rng.random() < 0.25 else rng.choice(alphabet)
        i = rng.randint(0, len(buf))
        if op == "insert":
            buf.insert(i, byte)
        elif i < len(buf):
            if op == "replace":
                buf[i] = byte
            else:
                del buf[i]
    return bytes(buf)


@over_property_seeds
def test_parse_dimacs_fuzz_raises_only_dimacs_error(rng):
    data = mutate(to_dimacs(small_formula(rng)).encode(), rng, BYTES)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # header clause-count mismatches
            parsed = parse_dimacs(data)
    except DimacsError:
        return
    assert isinstance(parsed, Formula)
    assert all(lit >> 1 < parsed.num_vars for c in parsed.clauses for lit in c.lits)


# DIMACS syntax plus every latin-1 character that str.split or
# str.splitlines treats as whitespace or a line break; bytes.split splits
# on none of \x85 \xa0 \x1c-\x1f.
DIMACS_BYTES = list(b"0123456789-+_%pcnf \n\r\t\x85\xa0\x0b\x0c\x1c\x1d\x1e\x1f")


def parse_outcome(parse, data: bytes):
    """What a DIMACS parser makes of `data`: the variable count, the
    clauses' literal codes and the warning texts, or the DimacsError text."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            f = parse(data)
        except DimacsError as e:
            return "error", str(e)
    return f.num_vars, [c.lits for c in f.clauses], [str(w.message) for w in caught]


def reflow(text: str, per_line: int) -> str:
    """DIMACS text with its clause tokens rebroken `per_line` to a line,
    so clauses span lines and lines hold several clauses."""
    header, body = text.split("\n", 1)
    toks = body.split()
    rows = [" ".join(toks[k : k + per_line]) for k in range(0, len(toks), per_line)]
    return "\n".join([header, *rows, ""])


@over_property_seeds
def test_parse_dimacs_matches_reference_on_mutated_bytes(rng):
    """Small chunks make clauses span chunks and put bad tokens at chunk edges."""
    text, per_line = to_dimacs(small_formula(rng)), rng.randint(0, 5)
    data = mutate((reflow(text, per_line) if per_line else text).encode(), rng, DIMACS_BYTES)
    with mock.patch.object(gluesat.formula, "CHUNK_LINES", rng.choice([1, 2, 3, CHUNK_LINES])):
        assert parse_outcome(parse_dimacs, data) == parse_outcome(parse_dimacs_reference, data)


@over_property_seeds
def test_parse_drat_fuzz_raises_only_value_error(rng):
    sink = io.StringIO()
    w = ProofWriter(sink)
    for _ in range(rng.randint(0, 10)):
        (w.delete if rng.random() < 0.5 else w.add)(rng.choices(PROOF_LITS, k=rng.randint(0, 4)))
    text = mutate(sink.getvalue().encode(), rng, BYTES).decode("latin-1")
    try:
        events = parse_drat(text)
    except ValueError:
        return
    assert all(ev.kind in (ADD, DELETE) and 0 not in ev.lits for ev in events)
