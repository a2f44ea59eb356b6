"""Hypothesis fuzzing: the solver over random SolverConfigs, reduce
schedules and small formulas, both text parsers over byte-mutated valid
inputs, and `parse_dimacs` against the token-at-a-time reference parser."""

from __future__ import annotations

import io
import random
import warnings
from unittest import mock

from hypothesis import given, strategies as st

import gluesat.formula
from gluesat.formula import CHUNK_LINES, DimacsError, Formula, parse_dimacs, to_dimacs
from gluesat.gen import parity_chain, parity_contradiction, pigeonhole
from gluesat.proof import ADD, DELETE, ProofWriter, check_rup, parse_drat
from gluesat.solver import SolverConfig, Verdict
from helpers import InstrumentedSolver, reduce_schedule, unassigned_argmax
from oracles import model_satisfies, parse_dimacs_reference, truth_table_satisfiable

# ---- solver over SolverConfig ---------------------------------------------------

WIDTHS = (1, 2, 3, 3, 3, 3, 3, 3, 3, 3, 3, 4)
CRAFTED = (None, None, pigeonhole(3), pigeonhole(2), parity_contradiction(4), parity_chain(6))
CONFIGS = st.builds(
    SolverConfig,
    glue_bump=st.booleans(),
    max_conflicts=st.none() | st.integers(1, 20),
)
# reduce_schedule's (learnt limit, growth)
SCHEDULES = st.tuples(
    st.sampled_from([0, 1]) | st.integers(2, 8) | st.just(2000),
    st.integers(0, 300),
)


@st.composite
def small_formulas(draw) -> Formula:
    """A formula over at most 12 variables: a relabelled crafted instance
    (pigeonhole, parity) plus a few random clauses, or random clauses
    only, mostly 3-literal, 0 to 6 per variable, so across the 3-SAT
    threshold. The crafted ones make runs reach learning and reduce_db.
    Clauses come from a drawn seed, which generates far faster than
    drawing every literal."""
    base = draw(st.sampled_from(CRAFTED))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if base is None:
        n = 12 - draw(st.integers(0, 11))  # shrinks toward 12 variables
        clauses = []
        m = draw(st.integers(0, 6 * n))
    else:
        n = base.num_vars
        clauses = [c.to_ints() for c in base.clauses]
        m = draw(st.integers(0, 3))
    for _ in range(m):
        width = rng.choice(WIDTHS)
        clauses.append([rng.choice((v, -v)) for v in rng.choices(range(1, n + 1), k=width)])
    if draw(st.integers(0, 19)) == 0:
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


@given(small_formulas(), CONFIGS, SCHEDULES)
def test_solver_fuzz_over_configs(formula, config, schedule):
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

# DIMACS/DRAT syntax bytes mostly, any byte sometimes
BYTES = st.sampled_from(list(b"0123456789 -\n\t\rpcnfd%")) | st.integers(0, 255)
EDITS = st.lists(
    st.tuples(st.sampled_from(["replace", "insert", "delete"]), st.integers(0, 1 << 16), BYTES),
    min_size=1,
    max_size=8,
)


def mutate(data: bytes, edits) -> bytes:
    buf = bytearray(data)
    for op, at, byte in edits:
        i = at % (len(buf) + 1)
        if op == "insert":
            buf.insert(i, byte)
        elif i < len(buf):
            if op == "replace":
                buf[i] = byte
            else:
                del buf[i]
    return bytes(buf)


@given(small_formulas(), EDITS)
def test_parse_dimacs_fuzz_raises_only_dimacs_error(formula, edits):
    data = mutate(to_dimacs(formula).encode(), edits)
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
DIMACS_EDITS = st.lists(
    st.tuples(
        st.sampled_from(["replace", "insert", "delete"]),
        st.integers(0, 1 << 16),
        st.sampled_from(list(b"0123456789-+_%pcnf \n\r\t\x85\xa0\x0b\x0c\x1c\x1d\x1e\x1f")),
    ),
    min_size=1,
    max_size=8,
)


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


@given(
    small_formulas(),
    st.integers(0, 5),
    st.sampled_from([1, 2, 3, CHUNK_LINES]),
    DIMACS_EDITS,
)
def test_parse_dimacs_matches_reference_on_mutated_bytes(formula, per_line, chunk_lines, edits):
    """Small chunks make clauses span chunks and put bad tokens at chunk edges."""
    text = to_dimacs(formula)
    data = mutate((reflow(text, per_line) if per_line else text).encode(), edits)
    with mock.patch.object(gluesat.formula, "CHUNK_LINES", chunk_lines):
        assert parse_outcome(parse_dimacs, data) == parse_outcome(parse_dimacs_reference, data)


PROOF_LINES = st.lists(
    st.tuples(st.booleans(), st.lists(st.integers(-9, 9).filter(bool), max_size=4)),
    max_size=10,
)


@given(PROOF_LINES, EDITS)
def test_parse_drat_fuzz_raises_only_value_error(lines, edits):
    sink = io.StringIO()
    w = ProofWriter(sink)
    for deletion, lits in lines:
        (w.delete if deletion else w.add)(lits)
    text = mutate(sink.getvalue().encode(), edits).decode("latin-1")
    try:
        events = parse_drat(text)
    except ValueError:
        return
    assert all(ev.kind in (ADD, DELETE) and 0 not in ev.lits for ev in events)
