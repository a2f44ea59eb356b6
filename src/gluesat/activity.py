"""Variable activities and the branching priority structure.

EVSIDS-style scoring: conflicts bump involved variables by a growing
increment; "decay" divides the increment by DECAY instead of touching
stored scores. Everything is rescaled by 1e-100 once any activity passes 1e100,
which preserves the argmax.
"""

from __future__ import annotations

DECAY = 0.95
RESCALE_LIMIT = 1e100
RESCALE_FACTOR = 1e-100


class VarOrderHeap:
    """Binary max-heap over variables, keyed by activity.

    Ties break toward the lower variable index so decisions are
    deterministic; (activity, lower index) is a total order. The heap is
    lazy: it holds a superset of the unassigned variables. Assigned
    variables stay in it until `Solver.decide` pops them on its way to
    the best unassigned one, and backtracking re-inserts only the
    variables that were popped.
    """

    def __init__(self, activity: list[float]):
        self.activity = activity
        self.heap: list[int] = []
        self.pos: list[int] = [-1] * len(activity)

    def __len__(self) -> int:
        return len(self.heap)

    def _sift_up(self, i: int) -> None:
        """Move slot i's variable up, shifting lower-ranked parents down."""
        h, pos, act = self.heap, self.pos, self.activity
        var = h[i]
        a = act[var]
        while i > 0:
            parent = (i - 1) >> 1
            p = h[parent]
            ap = act[p]
            if a < ap or (a == ap and var > p):
                break
            h[i] = p
            pos[p] = i
            i = parent
        h[i] = var
        pos[var] = i

    def _sift_down(self, i: int) -> None:
        """Move slot i's variable down, shifting higher-ranked children up."""
        h, pos, act = self.heap, self.pos, self.activity
        n = len(h)
        var = h[i]
        a = act[var]
        while True:
            child = 2 * i + 1
            if child >= n:
                break
            c = h[child]
            ac = act[c]
            right = child + 1
            if right < n:
                r = h[right]
                ar = act[r]
                if ar > ac or (ar == ac and r < c):
                    child, c, ac = right, r, ar
            if ac < a or (ac == a and c > var):
                break
            h[i] = c
            pos[c] = i
            i = child
        h[i] = var
        pos[var] = i

    def insert(self, var: int) -> None:
        assert self.pos[var] < 0, f"variable {var} already in heap"
        self.heap.append(var)
        self._sift_up(len(self.heap) - 1)

    def remove(self, var: int) -> None:
        i = self.pos[var]
        assert i >= 0, f"variable {var} not in heap"
        last = self.heap.pop()
        self.pos[var] = -1
        if i < len(self.heap):
            self.heap[i] = last
            self._sift_down(i)
            self._sift_up(i)

    def pop_max(self) -> int:
        var = self.heap[0]
        self.remove(var)
        return var

    def update(self, var: int) -> None:
        """Restore heap order after var's activity rose.

        Activities only rise (bumps add a non-negative amount, and a
        rescale keeps every pair's order), so a sift up suffices.
        """
        i = self.pos[var]
        if i >= 0:
            self._sift_up(i)


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

        A uniform positive scaling preserves the order of every pair, so
        the heap needs no rebuild.
        """
        act = self.activity
        for v in range(len(act)):
            act[v] *= RESCALE_FACTOR
        self.var_inc *= RESCALE_FACTOR
