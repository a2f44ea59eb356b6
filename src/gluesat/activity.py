"""Variable activities and the branching priority structure.

EVSIDS-style scoring: conflicts bump involved variables by a growing
increment; "decay" divides the increment by DECAY instead of touching
stored scores. Everything is rescaled by 1e-100 once any activity passes 1e100,
which preserves the argmax. The branching order is a stdlib `heapq`
list of lazy entries that bumps and rescales leave stale (VarOrderHeap).
"""

from __future__ import annotations

import heapq

DECAY = 0.95
RESCALE_LIMIT = 1e100
RESCALE_FACTOR = 1e-100
MAX_ENTRIES_PER_VAR = 4


class VarOrderHeap:
    """Max-priority order over variables, keyed by activity.

    `entries` is a heapq min-heap of (-activity, var): the key alone is
    the tie rule (higher activity, then lower index), a total order, so
    decisions are deterministic. `in_heap[var]` marks the members. An
    entry is live when its variable is a member and its key equals
    -activity[var]; every member has a live entry, the rest are stale.
    `update` pushes a new entry, `remove` only clears the flag, and
    `pop_max` discards stale entries until it meets a live one.
    `rebuild` keeps one live entry per member; it runs after a rescale
    (every key goes stale) and when the list passes MAX_ENTRIES_PER_VAR
    entries per variable, which bounds its memory. The members are a
    superset of the unassigned variables: assigned ones stay until
    `Solver.decide` pops them, and backtrack re-inserts only popped ones.
    """

    def __init__(self, activity: list[float]):
        """Start with every variable a member."""
        self.activity = activity
        self.in_heap = [True] * len(activity)
        self.rebuild()

    def _push(self, var: int) -> None:
        heapq.heappush(self.entries, (-self.activity[var], var))
        if len(self.entries) > MAX_ENTRIES_PER_VAR * len(self.in_heap):
            self.rebuild()

    def insert(self, var: int) -> None:
        assert not self.in_heap[var], f"variable {var} already in heap"
        self.in_heap[var] = True
        self._push(var)

    def remove(self, var: int) -> None:
        assert self.in_heap[var], f"variable {var} not in heap"
        self.in_heap[var] = False

    def update(self, var: int) -> None:
        """Give var a live entry for its new activity; its old one goes stale."""
        if self.in_heap[var]:
            self._push(var)

    def pop_max(self) -> int:
        entries, in_heap, act = self.entries, self.in_heap, self.activity
        while True:
            key, var = heapq.heappop(entries)
            if in_heap[var] and key == -act[var]:
                self.remove(var)
                return var

    def rebuild(self) -> None:
        """Drop every stale entry: heapify one live entry per member."""
        act, in_heap = self.activity, self.in_heap
        self.entries = [(-act[v], v) for v in range(len(act)) if in_heap[v]]
        heapq.heapify(self.entries)


class ActivityTable:
    """Per-variable activity scores plus the branching heap."""

    def __init__(self, num_vars: int):
        self.activity = [0.0] * num_vars
        self.var_inc = 1.0
        self.heap = VarOrderHeap(self.activity)

    def bump(self, var: int, amount: float | None = None) -> None:
        """Add `amount` (default: the current increment) to var's activity."""
        self.activity[var] += self.var_inc if amount is None else amount
        if self.activity[var] > RESCALE_LIMIT:
            self.rescale()
        self.heap.update(var)

    def decay(self) -> None:
        """One conflict's worth of decay: grow the increment by 1/DECAY."""
        self.var_inc /= DECAY

    def rescale(self) -> None:
        """Scale all activities and the increment down by 1e-100.

        A uniform positive scaling keeps the order of every pair but
        changes every heap key, so the heap is rebuilt.
        """
        act = self.activity
        for v in range(len(act)):
            act[v] *= RESCALE_FACTOR
        self.var_inc *= RESCALE_FACTOR
        self.heap.rebuild()
