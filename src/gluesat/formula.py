"""CNF formulas, the internal literal encoding, and DIMACS parsing.

Variables are 0-based internally and 1-based in DIMACS. A literal is an
integer code 2*v (positive) or 2*v + 1 (negative), so negating a literal
is a single bit flip.
"""

from __future__ import annotations

import gc
import warnings
from contextlib import contextmanager
from typing import IO, Iterable, Iterator, Optional, Union

# Clause-data lines that parse_dimacs tokenizes in one pass; bounds the
# transient token and literal-code lists of a parse.
CHUNK_LINES = 4096


class DimacsError(ValueError):
    """Raised on malformed DIMACS input."""


@contextmanager
def gc_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector, restoring its previous state.

    For bulk builds of clauses, which form no reference cycles: without
    the pause the collector re-scans the growing clause list many times
    while it is built.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def lit_from_int(ext: int) -> int:
    """Convert a signed DIMACS literal (nonzero) to its internal code."""
    v = abs(ext) - 1
    return 2 * v + (0 if ext > 0 else 1)


def lit_to_int(lit: int) -> int:
    """Convert an internal literal code back to signed DIMACS form."""
    v = (lit >> 1) + 1
    return v if (lit & 1) == 0 else -v


class Clause:
    """A clause over internal literal codes.

    `lbd` is 0 for an original clause and at least 1 for a learnt one,
    so it also says whether the clause was learnt. A learnt clause is
    glue when its lbd equals glue.GLUE_LBD.
    """

    __slots__ = ("lits", "lbd", "activity")

    def __init__(self, lits: list[int], lbd: int = 0, activity: float = 0.0):
        self.lits = lits
        self.lbd = lbd
        self.activity = activity

    def to_ints(self) -> list[int]:
        return [lit_to_int(l) for l in self.lits]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = "L" if self.lbd else ""
        return f"Clause({self.to_ints()}{tag} lbd={self.lbd})"


class Formula:
    """A parsed CNF: a variable count and a clause list.

    Equality is structural over num_vars and the clause literals, which
    is what the DIMACS round-trip guarantee is stated over.
    """

    __slots__ = ("num_vars", "clauses")

    def __init__(self, num_vars: int, clauses: Optional[list[Clause]] = None):
        self.num_vars = num_vars
        self.clauses = [] if clauses is None else clauses

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Formula(num_vars={self.num_vars!r}, clauses={self.clauses!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Formula):
            return NotImplemented
        return self.num_vars == other.num_vars and [c.lits for c in self.clauses] == [
            c.lits for c in other.clauses
        ]

    @classmethod
    def from_ints(cls, num_vars: int, clauses: Iterable[Iterable[int]]) -> "Formula":
        """Build a formula from signed-integer clauses, normalizing each.

        Tautological clauses are dropped, duplicate literals removed; a
        literal of 0 or beyond num_vars raises DimacsError. The clauses
        go through the same builder as parse_dimacs.
        """
        flat: list[int] = []
        count = 0
        for raw in clauses:
            flat += raw
            flat.append(0)
            count += 1
        if flat.count(0) != count:
            raise DimacsError("literal 0 inside a clause")
        builder = _ClauseBuilder(num_vars)
        if not builder.add(flat):
            bad = next(x for x in flat if abs(x) > num_vars)
            raise DimacsError(f"literal {bad} out of range (num_vars={num_vars})")
        return cls(num_vars, builder.clauses)


def normalize_clause(literals: list[int]) -> Optional[list[int]]:
    """Remove duplicate literals (keeping first occurrence order).

    Returns None when the clause is a tautology (contains both l and -l).
    Input and output are signed DIMACS integers.
    """
    seen: set[int] = set()
    out: list[int] = []
    for l in literals:
        if -l in seen:
            return None
        if l not in seen:
            seen.add(l)
            out.append(l)
    return out


class _ClauseBuilder:
    """Turns signed DIMACS ints, 0 ending each clause, into the Clauses of
    one formula; the one owner of normalizing, range checking and coding.

    A clause may span `add` calls: the ints after the last 0 wait in
    `pending`. A clause that repeats a variable goes through
    normalize_clause; every other one is cut straight out of the codes.
    Codes come from one table per formula, indexed by the signed int
    (a negative int indexes from the end), so equal literals share one
    int object. The table grows to the largest variable seen, but not
    past the number of ints read, so a huge variable index costs no
    table memory; ints beyond the table are coded one by one.
    """

    def __init__(self, num_vars: int):
        self.num_vars = num_vars
        self.clauses: list[Clause] = []
        self.read = 0  # clauses ended by a 0, dropped tautologies included
        self.pending: list[int] = []
        self._ints = 0
        self._table = [-1]  # [unused, code(1) .. code(m), code(-m) .. code(-1)]

    def add(self, vals: list[int]) -> bool:
        """Append a Clause for each clause a 0 in `vals` ends. Returns
        False, adding nothing, when some int is beyond num_vars."""
        if not vals:
            return True
        self._ints += len(vals)
        if self.pending and 0 in vals:
            vals = self.pending + vals
        top = max(max(vals), -min(vals))
        if top > self.num_vars:
            return False
        if 0 not in vals:
            self.pending += vals
            return True
        table = self._table
        covered = len(table) >> 1
        if covered < top <= self._ints:
            table[covered + 1 : covered + 1] = [
                *range(2 * covered, 2 * top, 2),
                *range(2 * top - 1, 2 * covered, -2),
            ]
            covered = top
        code = table.__getitem__ if top <= covered else lit_from_int
        codes = list(map(code, vals))
        variables = list(map(abs, vals))
        append = self.clauses.append
        index = vals.index
        i = 0
        try:
            while True:
                j = index(0, i)
                if len(set(variables[i:j])) == j - i:
                    append(Clause(codes[i:j]))
                else:
                    lits = normalize_clause(vals[i:j])
                    if lits is not None:
                        append(Clause(list(map(code, lits))))
                i = j + 1
        except ValueError:  # no 0 after i
            self.pending = vals[i:]
        self.read += vals.count(0)
        return True


def _raise_token_error(lines: list[str], start: int, stop: int, num_vars: int) -> None:
    """Scan the clause-data lines lines[start:stop] one token at a time and
    raise the DimacsError of the first bad token, with its line number."""
    for lineno, line in enumerate(lines[start:stop], start=start + 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("c"):
            continue
        for tok in stripped.split():
            try:
                val = int(tok)
            except ValueError:
                raise DimacsError(f"line {lineno}: non-integer token {tok!r}") from None
            if abs(val) > num_vars:
                raise DimacsError(
                    f"line {lineno}: literal {val} out of range (num_vars={num_vars})"
                )
    raise AssertionError("no bad token in a chunk that failed")


def parse_dimacs(source: Union[str, bytes, IO]) -> Formula:
    """Parse DIMACS CNF text into a Formula.

    Accepts str, bytes (decoded as latin-1), or a file-like object.
    Lines split as str.splitlines does and tokens as str.split does.
    Comment lines start with 'c'; a line starting with '%' ends the input
    (SATLIB convention). Clause-count mismatches with the header are
    tolerated with a warning; out-of-range literals, non-integer tokens,
    a missing header, or an unterminated final clause are errors.
    Tautologies are dropped, duplicate literals removed, and an empty
    clause is kept as-is.

    Clause data is read CHUNK_LINES lines at a time: each chunk is
    tokenized and converted by C-level passes (join, split, int,
    min/max) and cut into clauses at its 0s. A chunk with a bad token is
    scanned again one token at a time, so the error names the first bad
    token and its line exactly as a token-at-a-time parser would. The
    cyclic garbage collector is paused for the parse.
    """
    if hasattr(source, "read"):
        source = source.read()
    if isinstance(source, bytes):
        text = source.decode("latin-1")
    else:
        text = source

    with gc_paused():
        lines = text.splitlines()
        num_vars = -1
        declared_clauses = -1
        builder = _ClauseBuilder(0)
        chunk: list[str] = []
        start = 0  # index in lines where the chunk's line range begins

        def add_chunk(stop: int) -> None:
            nonlocal start
            try:
                vals = list(map(int, " ".join(chunk).split()))
            except ValueError:
                vals = None
            if vals is None or not builder.add(vals):
                _raise_token_error(lines, start, stop, num_vars)
            chunk.clear()
            start = stop

        for lineno, line in enumerate(lines, start=1):
            stripped = line.strip()
            if not stripped or stripped[0] in "cp%":
                if not stripped or stripped[0] == "c":
                    continue
                if chunk:
                    add_chunk(lineno - 1)
                if stripped[0] == "%":
                    break
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
                builder = _ClauseBuilder(num_vars)
                start = lineno
                continue
            if num_vars < 0:
                raise DimacsError(f"line {lineno}: clause data before 'p cnf' header")
            chunk.append(stripped)
            if len(chunk) == CHUNK_LINES:
                add_chunk(lineno)
        if chunk:
            add_chunk(len(lines))

    if num_vars < 0:
        raise DimacsError("missing 'p cnf' header")
    if builder.pending:
        raise DimacsError("unterminated clause at end of input (missing 0)")
    if builder.read != declared_clauses:
        warnings.warn(
            f"header declares {declared_clauses} clauses but {builder.read} were read",
            stacklevel=2,
        )
    return Formula(num_vars, builder.clauses)


def to_dimacs(formula: Formula) -> str:
    """Serialize a Formula to DIMACS text (round-trips through parse_dimacs)."""
    lines = [f"p cnf {formula.num_vars} {len(formula.clauses)}"]
    for c in formula.clauses:
        lines.append(" ".join(str(x) for x in c.to_ints() + [0]))
    return "\n".join(lines) + "\n"
