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
    deterministic. Holds exactly the variables inserted and not yet
    removed; the solver keeps that set equal to the unassigned variables.
    """

    def __init__(self, activity: list[float]):
        self.activity = activity
        self.heap: list[int] = []
        self.pos: list[int] = [-1] * len(activity)

    def __len__(self) -> int:
        return len(self.heap)

    def __contains__(self, var: int) -> bool:
        return self.pos[var] >= 0

    def _ranks_above(self, u: int, v: int) -> bool:
        au, av = self.activity[u], self.activity[v]
        return au > av or (au == av and u < v)

    def _swap(self, i: int, j: int) -> None:
        h = self.heap
        h[i], h[j] = h[j], h[i]
        self.pos[h[i]] = i
        self.pos[h[j]] = j

    def _sift_up(self, i: int) -> None:
        h = self.heap
        while i > 0:
            parent = (i - 1) >> 1
            if not self._ranks_above(h[i], h[parent]):
                break
            self._swap(i, parent)
            i = parent

    def _sift_down(self, i: int) -> None:
        h = self.heap
        n = len(h)
        while True:
            left = 2 * i + 1
            if left >= n:
                break
            best = left
            right = left + 1
            if right < n and self._ranks_above(h[right], h[left]):
                best = right
            if not self._ranks_above(h[best], h[i]):
                break
            self._swap(i, best)
            i = best

    def insert(self, var: int) -> None:
        assert self.pos[var] < 0, f"variable {var} already in heap"
        self.heap.append(var)
        self.pos[var] = len(self.heap) - 1
        self._sift_up(self.pos[var])

    def remove(self, var: int) -> None:
        i = self.pos[var]
        assert i >= 0, f"variable {var} not in heap"
        last = self.heap.pop()
        self.pos[var] = -1
        if i < len(self.heap):
            self.heap[i] = last
            self.pos[last] = i
            self._sift_down(i)
            self._sift_up(i)

    def pop_max(self) -> int:
        var = self.heap[0]
        self.remove(var)
        return var

    def update(self, var: int) -> None:
        """Restore heap order after var's activity changed."""
        i = self.pos[var]
        if i >= 0:
            self._sift_up(i)
            self._sift_down(i)


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
