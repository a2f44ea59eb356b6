"""CNF formulas, the internal literal encoding, and DIMACS parsing.

Variables are 0-based internally and 1-based in DIMACS. A literal is an
integer code 2*v (positive) or 2*v + 1 (negative), so negating a literal
is a single bit flip.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import IO, Iterable, Optional, Union


class DimacsError(ValueError):
    """Raised on malformed DIMACS input."""


def lit_from_int(ext: int) -> int:
    """Convert a signed DIMACS literal (nonzero) to its internal code."""
    v = abs(ext) - 1
    return 2 * v + (0 if ext > 0 else 1)


def lit_to_int(lit: int) -> int:
    """Convert an internal literal code back to signed DIMACS form."""
    v = (lit >> 1) + 1
    return v if (lit & 1) == 0 else -v


@dataclass(eq=False, slots=True)
class Clause:
    """A clause over internal literal codes.

    `lbd` is 0 for an original clause and at least 1 for a learnt one,
    so it also says whether the clause was learnt; whether a learnt
    clause is glue is decided from it by GlueTracker.is_glue_lbd.
    """

    lits: list[int]
    lbd: int = 0
    activity: float = 0.0

    def to_ints(self) -> list[int]:
        return [lit_to_int(l) for l in self.lits]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = "L" if self.lbd else ""
        return f"Clause({self.to_ints()}{tag} lbd={self.lbd})"


@dataclass(eq=False)
class Formula:
    """A parsed CNF: a variable count and a clause list.

    Equality is structural over num_vars and the clause literals, which
    is what the DIMACS round-trip guarantee is stated over.
    """

    num_vars: int
    clauses: list[Clause] = field(default_factory=list)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Formula):
            return NotImplemented
        return self.num_vars == other.num_vars and [c.lits for c in self.clauses] == [
            c.lits for c in other.clauses
        ]

    @classmethod
    def from_ints(cls, num_vars: int, clauses: Iterable[Iterable[int]]) -> "Formula":
        """Build a formula from signed-integer clauses, normalizing each.

        Tautological clauses are dropped, duplicate literals removed.
        """
        out = cls(num_vars)
        for raw in clauses:
            lits = normalize_clause(list(raw))
            if lits is None:
                continue
            for ext in lits:
                if abs(ext) > num_vars:
                    raise DimacsError(f"literal {ext} out of range (num_vars={num_vars})")
            out.clauses.append(Clause([lit_from_int(x) for x in lits]))
        return out


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


def parse_dimacs(source: Union[str, bytes, IO]) -> Formula:
    """Parse DIMACS CNF text into a Formula.

    Accepts str, bytes, or a file-like object. Comment lines start with
    'c'; a line consisting of '%' ends the input (SATLIB convention).
    Clause-count mismatches with the header are tolerated with a warning;
    out-of-range literals, non-integer tokens, a missing header, or an
    unterminated final clause are errors. Tautologies are dropped,
    duplicate literals removed, and an empty clause is kept as-is.
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


def to_dimacs(formula: Formula) -> str:
    """Serialize a Formula to DIMACS text (round-trips through parse_dimacs)."""
    lines = [f"p cnf {formula.num_vars} {len(formula.clauses)}"]
    for c in formula.clauses:
        lines.append(" ".join(str(x) for x in c.to_ints() + [0]))
    return "\n".join(lines) + "\n"
