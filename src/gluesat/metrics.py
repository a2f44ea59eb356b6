"""Per-decision-class solver statistics.

Every branching decision is classified as glue or nonglue by whether the
chosen variable has appeared in a glue clause so far. Propagations and
conflicts are attributed to the class of the decision that opened the
current (highest) decision level; work done at level 0 — before any
decision, or after a backjump/restart lands there — goes to a separate
preamble bucket so the two classes always partition the rest.

The end-of-solve report carries, per class, the propagation rate
(propagations/decisions), the learning rate (conflicts/decisions) and
the average LBD of clauses learnt under that class, plus the fraction
of formula variables that are glue at the end of the run.
Every conflict above level 0 learns one clause and the level-0 one is
the preamble's, so a class's average LBD is its LBD sum over its conflicts.
Ratios with a zero denominator are reported as None and serialize to
empty CSV cells.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

# The MetricsReport fields that make up a stats row, in column order.
STATS_COLUMNS = [
    "decisions",
    "propagations",
    "conflicts",
    "glue_clauses",
    "glue_decisions",
    "nonglue_decisions",
    "pr_glue",
    "lr_glue",
    "albd_glue",
    "pr_nonglue",
    "lr_nonglue",
    "albd_nonglue",
    "gf",
]
STATS_CSV_HEADER = ["instance", "verdict", "wall_time_s"] + STATS_COLUMNS


class ClassCounters:
    """Counters for one decision class (or the preamble bucket); each
    glue or nonglue conflict adds its learnt clause's LBD to `lbd_sum`."""

    __slots__ = ("decisions", "propagations", "conflicts", "lbd_sum")

    def __init__(self) -> None:
        self.decisions = 0
        self.propagations = 0
        self.conflicts = 0
        self.lbd_sum = 0


class MetricsReport(NamedTuple):
    """A solve's one record of totals: the search totals (decisions,
    propagations, conflicts, glue clauses) that `Solver.counters` and
    `SolveResult.counters` return, and the per-class metrics. Immutable:
    derive a changed copy with `_replace`."""

    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0
    glue_clauses: int = 0
    glue_decisions: int = 0
    nonglue_decisions: int = 0
    pr_glue: Optional[float] = None
    lr_glue: Optional[float] = None
    albd_glue: Optional[float] = None
    pr_nonglue: Optional[float] = None
    lr_nonglue: Optional[float] = None
    albd_nonglue: Optional[float] = None
    gf: Optional[float] = None
    glue_var_count: int = 0
    num_vars: int = 0
    # (conflict count, glue fraction) samples, one per restart;
    # figure-style output, not part of the CSV row.
    gf_series: Sequence[tuple[int, float]] = ()

    def csv_cells(self) -> list[str]:
        """The STATS_COLUMNS cells; None becomes an empty cell."""
        cells = [getattr(self, name) for name in STATS_COLUMNS]
        return ["" if c is None else repr(c) for c in cells]

    def csv_row(self, instance: str, verdict: str, wall_time_s: float) -> list[str]:
        """One row matching STATS_CSV_HEADER."""
        return [instance, verdict, repr(wall_time_s)] + self.csv_cells()


class MetricsCollector:
    """Accumulates per-class counters during one solve."""

    def __init__(self) -> None:
        self.glue = ClassCounters()
        self.nonglue = ClassCounters()
        self.preamble = ClassCounters()
        # class of each open level, index = level: the preamble at level 0,
        # then the class of each level's decision; the top is the current one
        self._level_class: list[ClassCounters] = [self.preamble]
        self.gf_series: list[tuple[int, float]] = []

    def record_decision(self, var: int, is_glue: bool) -> None:
        bucket = self.glue if is_glue else self.nonglue
        bucket.decisions += 1
        self._level_class.append(bucket)

    def record_propagations(self, count: int) -> None:
        """Credit `count` propagations to the current level's class."""
        self._level_class[-1].propagations += count

    def total(self, name: str) -> int:
        """One counter summed over the glue, nonglue and preamble buckets."""
        return sum(getattr(b, name) for b in (self.glue, self.nonglue, self.preamble))

    def record_conflict(self, lbd: Optional[int]) -> None:
        """Attribute a conflict; lbd is None only for the terminal level-0
        conflict, which learns no clause and lands in the preamble."""
        self._level_class[-1].conflicts += 1
        if lbd is not None:
            self._level_class[-1].lbd_sum += lbd

    def on_backtrack(self, level: int) -> None:
        del self._level_class[level + 1 :]


def _ratio(num: float, den: float) -> Optional[float]:
    return num / den if den else None


def finalize_report(
    collector: MetricsCollector,
    glue_clauses: int,
    glue_var_count: int,
    num_vars: int,
) -> MetricsReport:
    """Fold the collected counters into the per-instance report.

    The decision, propagation and conflict totals are the sums of the
    glue, nonglue and preamble buckets.
    """
    g, ng = collector.glue, collector.nonglue
    return MetricsReport(
        decisions=collector.total("decisions"),
        propagations=collector.total("propagations"),
        conflicts=collector.total("conflicts"),
        glue_clauses=glue_clauses,
        glue_decisions=g.decisions,
        nonglue_decisions=ng.decisions,
        pr_glue=_ratio(g.propagations, g.decisions),
        lr_glue=_ratio(g.conflicts, g.decisions),
        albd_glue=_ratio(g.lbd_sum, g.conflicts),
        pr_nonglue=_ratio(ng.propagations, ng.decisions),
        lr_nonglue=_ratio(ng.conflicts, ng.decisions),
        albd_nonglue=_ratio(ng.lbd_sum, ng.conflicts),
        gf=_ratio(glue_var_count, num_vars),
        glue_var_count=glue_var_count,
        num_vars=num_vars,
        gf_series=list(collector.gf_series),
    )
