import gc
import io
import random

import pytest

from gluesat.formula import (
    Clause,
    DimacsError,
    Formula,
    lit_from_int,
    lit_to_int,
    normalize_clause,
    parse_dimacs,
    to_dimacs,
)
from gluesat.gen import parity_chain, pigeonhole, random_ksat
from gluesat.solver import Solver
from helpers import traced_peak
from oracles import parse_dimacs_reference


def clause_ints(formula):
    return [c.to_ints() for c in formula.clauses]


def test_literal_codec():
    assert lit_from_int(1) == 0
    assert lit_from_int(-1) == 1
    assert lit_from_int(3) == 4
    assert lit_from_int(-3) == 5
    for ext in [1, -1, 2, -2, 17, -17]:
        code = lit_from_int(ext)
        assert lit_to_int(code) == ext
        assert code ^ 1 == lit_from_int(-ext)
        assert code >> 1 == abs(ext) - 1


def test_parse_minimal():
    f = parse_dimacs("p cnf 1 1\n1 0")
    assert f.num_vars == 1
    assert clause_ints(f) == [[1]]


def test_parse_drops_tautology_and_keeps_comment():
    f = parse_dimacs("p cnf 2 1\nc note\n1 -1 0")
    assert f.num_vars == 2
    assert f.clauses == []


def test_parse_literal_out_of_range():
    with pytest.raises(DimacsError, match="out of range"):
        parse_dimacs("p cnf 2 1\n3 0")
    with pytest.raises(DimacsError, match="out of range"):
        parse_dimacs("p cnf 2 1\n-3 0")


def test_parse_errors():
    with pytest.raises(DimacsError, match="header"):
        parse_dimacs("1 0\n")
    with pytest.raises(DimacsError, match="header"):
        parse_dimacs("")
    with pytest.raises(DimacsError, match="non-integer"):
        parse_dimacs("p cnf 2 1\n1 x 0")
    with pytest.raises(DimacsError, match="unterminated"):
        parse_dimacs("p cnf 2 1\n1 2")
    with pytest.raises(DimacsError, match="duplicate header"):
        parse_dimacs("p cnf 2 1\np cnf 2 1\n1 0")
    with pytest.raises(DimacsError, match="malformed"):
        parse_dimacs("p cnf 2\n1 0")
    with pytest.raises(DimacsError, match="negative"):
        parse_dimacs("p cnf -2 1\n1 0")


def test_clause_count_mismatch_warns():
    with pytest.warns(UserWarning, match="declares 3 clauses but 1"):
        f = parse_dimacs("p cnf 2 3\n1 2 0")
    assert clause_ints(f) == [[1, 2]]


def test_tautology_counts_toward_header():
    # the dropped tautology was still read, so no warning
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f = parse_dimacs("p cnf 2 2\n1 -1 0\n1 2 0")
    assert clause_ints(f) == [[1, 2]]


def test_empty_clause_retained():
    f = parse_dimacs("p cnf 2 2\n0\n1 0")
    assert clause_ints(f) == [[], [1]]


def test_duplicates_removed_in_clause():
    f = parse_dimacs("p cnf 3 1\n1 1 2 0")
    assert clause_ints(f) == [[1, 2]]


def test_multiline_and_multi_clause_lines():
    f = parse_dimacs("p cnf 3 2\n1 2\n3 0 -1\n-2 0\n")
    assert clause_ints(f) == [[1, 2, 3], [-1, -2]]


def test_bytes_and_filelike_input():
    text = "p cnf 2 1\n1 -2 0\n"
    assert clause_ints(parse_dimacs(text.encode())) == [[1, -2]]
    assert clause_ints(parse_dimacs(io.StringIO(text))) == [[1, -2]]
    assert clause_ints(parse_dimacs(io.BytesIO(text.encode()))) == [[1, -2]]


def test_percent_line_ends_input():
    # SATLIB files end with "%\n0"; the trailing 0 is not an empty clause
    f = parse_dimacs("p cnf 2 1\n1 2 0\n%\n0\n")
    assert clause_ints(f) == [[1, 2]]


def test_normalize_clause_examples():
    assert normalize_clause([1, 1, 2]) == [1, 2]
    assert normalize_clause([1, -1]) is None
    assert normalize_clause([3, -2, 3, -2]) == [3, -2]
    assert normalize_clause([]) == []


def test_formula_from_ints_checks_range():
    with pytest.raises(DimacsError, match=r"^literal 3 out of range \(num_vars=2\)$"):
        Formula.from_ints(2, [[3]])
    with pytest.raises(DimacsError, match="literal -5 out of range"):
        Formula.from_ints(2, [[1, -1], [2, -5, 2]])
    with pytest.raises(DimacsError, match="literal 0"):
        Formula.from_ints(2, [[1, 0, 2]])


def test_formula_from_ints_normalizes_like_parse_dimacs():
    clauses = [[1, -2], [2, 2, -3], [3, -3], [], [-1]]
    f = Formula.from_ints(3, clauses)
    assert clause_ints(f) == [[1, -2], [2, -3], [], [-1]]
    text = "p cnf 3 5\n" + "".join(" ".join(map(str, c + [0])) + "\n" for c in clauses)
    assert f == parse_dimacs(text)


def test_huge_variable_index_costs_no_table_memory():
    text = "p cnf 4000000000 2\n-3999999999 1 0\n3999999999 -1 1 0\n"
    f, peak = traced_peak(lambda: parse_dimacs(text))
    assert peak < 1_000_000
    assert f == parse_dimacs_reference(text)
    assert f.clauses[0].lits == [2 * 3999999998 + 1, 0]


@pytest.mark.parametrize("enabled", [True, False])
def test_parse_and_solver_leave_the_collector_as_found(enabled):
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        f = parse_dimacs("p cnf 3 2\n1 -2 0\n2 3 0\n")
        assert gc.isenabled() is enabled
        with pytest.raises(DimacsError):
            parse_dimacs("p cnf 3 2\n1 -2 0\n2 x 0\n")
        assert gc.isenabled() is enabled
        Solver(f)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_round_trip_identity():
    formulas = [
        parse_dimacs("p cnf 4 3\n1 -2 0\n0\n4 3 -1 0\n"),
        random_ksat(12, 50, seed=3),
        pigeonhole(3),
        parity_chain(5),
        Formula(3, []),  # no clauses at all
    ]
    for f in formulas:
        again = parse_dimacs(to_dimacs(f))
        assert again == f
        # literal and clause order preserved exactly
        assert clause_ints(again) == clause_ints(f)


def test_unused_variables_are_legal():
    f = parse_dimacs("p cnf 10 1\n1 0")
    assert f.num_vars == 10
    assert clause_ints(f) == [[1]]


def test_parse_totality_fuzz():
    # arbitrary byte streams either parse or raise DimacsError, never crash
    rng = random.Random(20240809)
    alphabet = b"pcnf 0123456789-\n\t%xd"
    import warnings

    for trial in range(400):
        if trial % 2:
            blob = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 200)))
        else:
            blob = bytes(rng.choice(alphabet) for _ in range(rng.randrange(0, 200)))
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                result = parse_dimacs(blob)
            assert isinstance(result, Formula)
        except DimacsError:
            pass


def test_fuzz_near_valid_mutations():
    import warnings

    base = to_dimacs(random_ksat(8, 30, seed=1))
    rng = random.Random(7)
    for _ in range(200):
        chars = list(base)
        for _ in range(rng.randrange(1, 4)):
            pos = rng.randrange(len(chars))
            chars[pos] = chr(rng.randrange(32, 127))
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                result = parse_dimacs("".join(chars))
            assert isinstance(result, Formula)
        except DimacsError:
            pass


def test_clause_identity_semantics():
    # clauses compare by identity so watch lists can hold duplicates safely
    a = Clause([0, 2])
    b = Clause([0, 2])
    assert a != b
    assert a == a
    assert len({a, b}) == 2
