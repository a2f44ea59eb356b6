"""VarOrderHeap against a sorted-list reference."""

from __future__ import annotations

from hypothesis import given, strategies as st

from gluesat.activity import MAX_ENTRIES_PER_VAR, ActivityTable, VarOrderHeap

# Few distinct values, so most comparisons are ties broken by index.
ACTIVITIES = st.sampled_from([0.0, 0.0, 1.0, 1.0, 2.5])
# Mostly rises, as in the solver; a fall leaves a stale entry that would
# pop first, so only pop_max's key check keeps the order right.
CHANGES = st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.0, -0.5])
# (kind, variable, activity change, repeats): an update applies its
# change and update() `repeats` times, so members get enough updates to
# push past the stale-entry bound between rescales.
OPS = st.tuples(
    st.sampled_from(["insert"] * 3 + ["remove"] + ["pop"] * 2 + ["update"] * 3 + ["rescale"]),
    st.integers(0, 11),
    CHANGES,
    st.integers(1, 50),
)


def check_layout(heap: VarOrderHeap, members: set[int]) -> None:
    act, entries = heap.activity, heap.entries
    assert {v for v, flag in enumerate(heap.in_heap) if flag} == members
    assert {v for key, v in entries if heap.in_heap[v] and key == -act[v]} == members
    assert all(entries[(i - 1) >> 1] <= entries[i] for i in range(1, len(entries)))
    assert len(entries) <= MAX_ENTRIES_PER_VAR * len(act)


@given(st.lists(ACTIVITIES, min_size=1, max_size=12), st.lists(OPS, max_size=60))
def test_heap_matches_sorted_reference(initial, ops):
    n = len(initial)
    table = ActivityTable(n)
    table.activity[:] = initial
    activity, heap = table.activity, table.heap
    members: set[int] = set()

    def best() -> int:
        return max(members, key=lambda v: (activity[v], -v))

    for kind, v, change, repeats in ops:
        v %= n
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
