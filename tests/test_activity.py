"""VarOrderHeap against a sorted-list reference."""

from __future__ import annotations

from gluesat.activity import MAX_ENTRIES_PER_VAR, ActivityTable, VarOrderHeap
from helpers import over_property_seeds

# Few distinct values, so most comparisons are ties broken by index.
ACTIVITIES = [0.0, 0.0, 1.0, 1.0, 2.5]
# Mostly rises, as in the solver; a fall leaves a stale entry that would
# pop first, so only pop_max's key check keeps the order right.
CHANGES = [0.0, 0.0, 0.5, 1.0, 2.0, -0.5]
KINDS = ["insert"] * 3 + ["remove"] + ["pop"] * 2 + ["update"] * 3 + ["rescale"]


def check_layout(heap: VarOrderHeap, members: set[int]) -> None:
    act, entries = heap.activity, heap.entries
    assert {v for v, flag in enumerate(heap.in_heap) if flag} == members
    assert {v for key, v in entries if heap.in_heap[v] and key == -act[v]} == members
    assert all(entries[(i - 1) >> 1] <= entries[i] for i in range(1, len(entries)))
    assert len(entries) <= MAX_ENTRIES_PER_VAR * len(act)


@over_property_seeds
def test_heap_matches_sorted_reference(rng):
    """An update applies its activity change and update() `repeats` times, so
    members get enough updates to pass the stale-entry bound between rescales."""
    n = rng.randint(1, 12)
    table = ActivityTable(n)
    table.activity[:] = rng.choices(ACTIVITIES, k=n)
    activity, heap = table.activity, table.heap
    heap.rebuild()  # every variable starts a member, keyed by its new activity
    members = set(range(n))

    def best() -> int:
        return max(members, key=lambda v: (activity[v], -v))

    for _ in range(rng.randint(0, 60)):
        kind, v = rng.choice(KINDS), rng.randrange(n)
        change, repeats = rng.choice(CHANGES), rng.randint(1, 50)
        if kind == "insert" and v not in members:
            heap.insert(v)
            members.add(v)
        elif kind == "remove" and v in members:
            heap.remove(v)
            members.discard(v)
        elif kind == "pop" and members:
            expected = best()
            assert heap.pop_max() == expected
            members.discard(expected)
        elif kind == "update":
            for _ in range(repeats):
                activity[v] += change
                heap.update(v)
        elif kind == "rescale":
            table.rescale()
        check_layout(heap, members)

    drained = [heap.pop_max() for _ in range(len(members))]
    assert drained == sorted(members, key=lambda v: (-activity[v], v))
    assert not any(heap.in_heap)
