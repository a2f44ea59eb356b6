"""Glue-variable tracking and activity bumping.

A learnt clause whose LBD is 2 is a "glue" clause. Every variable that
has appeared in at least one glue clause so far is a glue variable; its
glue level counts those appearances. A glue variable's centrality is its
glue level divided by the combined glue level of all glue variables.

The bumping scheme is deliberately delayed: glue levels are raised the
moment a glue clause is learnt (before its asserting literal is placed),
but a variable's activity is only bumped when backtracking unassigns it,
so the bump is in the branching heap before the next decision. The bump
is multiplicative: activity grows by activity * centrality, i.e. by the
factor (1 + centrality), so it commutes with global rescaling.
"""

from __future__ import annotations

from .activity import ActivityTable
from .formula import Clause

GLUE_LBD = 2


class GlueTracker:
    """Per-variable glue levels and the derived bump-on-unassign hook.

    Tracking is always on (`Solver.decide` classifies each decision with
    it for the metrics collector); only the activity bumping is gated by
    `bump_enabled`, which the solver reads before calling
    `on_unassigned`. All counts are cumulative over a solve and never
    decrease.
    """

    def __init__(self, num_vars: int, bump_enabled: bool = True):
        self.bump_enabled = bump_enabled
        self.glue_level = [0] * num_vars
        self.total_glue_level = 0
        self.glue_clause_count = 0
        self.glue_var_count = 0

    def on_glue_clause_learned(self, clause: Clause) -> None:
        """Raise the glue level of every variable in a new glue clause.

        The caller must pass only learnt clauses whose LBD is exactly
        GLUE_LBD (unit clauses, LBD 1, never count); the clause is not
        checked here. Called after the clause is learnt and attached but
        before the asserting literal is assigned, so the levels are
        current by the time that assignment is later undone.
        """
        for lit in clause.lits:
            v = lit >> 1
            if self.glue_level[v] == 0:
                self.glue_var_count += 1
            self.glue_level[v] += 1
        self.total_glue_level += len(clause.lits)
        self.glue_clause_count += 1

    def on_unassigned(self, var: int, activities: ActivityTable) -> None:
        """Bump a glue variable freed by backtracking.

        The caller must call this only when `bump_enabled` is set and
        `var` is a glue variable (glue level > 0); neither is checked
        here. Adds activity(var) * centrality(var), making the new
        activity equal to the old one times (1 + centrality). The
        backtrack that fires it finishes before the next decision, so
        the heap orders that decision by the bumped score.
        """
        centrality = self.glue_level[var] / self.total_glue_level
        activities.bump(var, activities.activity[var] * centrality)
