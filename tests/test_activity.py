"""VarOrderHeap against a sorted-list reference."""

from __future__ import annotations

from hypothesis import given, strategies as st

from gluesat.activity import VarOrderHeap

# Few distinct values, so most comparisons are ties broken by index.
ACTIVITIES = st.sampled_from([0.0, 0.0, 1.0, 1.0, 2.5])
RISES = st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.0])
OPS = st.one_of(
    st.tuples(st.just("insert"), st.integers(0, 11)),
    st.tuples(st.just("remove"), st.integers(0, 11)),
    st.tuples(st.just("pop"), st.just(0)),
    st.tuples(st.just("update"), st.integers(0, 11), RISES),
)


def check_layout(heap: VarOrderHeap, members: set[int]) -> None:
    assert sorted(heap.heap) == sorted(members)
    for v, p in enumerate(heap.pos):
        if v in members:
            assert heap.heap[p] == v
        else:
            assert p == -1
    act = heap.activity
    for i in range(1, len(heap.heap)):
        child, parent = heap.heap[i], heap.heap[(i - 1) >> 1]
        assert (act[parent], -parent) > (act[child], -child)


@given(st.lists(ACTIVITIES, min_size=1, max_size=12), st.lists(OPS, max_size=60))
def test_heap_matches_sorted_reference(activity, ops):
    n = len(activity)
    heap = VarOrderHeap(activity)
    members: set[int] = set()

    def best() -> int:
        return max(members, key=lambda v: (activity[v], -v))

    for op in ops:
        kind, v = op[0], op[1] % n
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
            activity[v] += op[2]
            heap.update(v)
        check_layout(heap, members)
        assert len(heap) == len(members)

    drained = [heap.pop_max() for _ in range(len(heap))]
    assert drained == sorted(members, key=lambda v: (-activity[v], v))
    assert all(p == -1 for p in heap.pos)
