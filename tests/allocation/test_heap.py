"""Indexed max-heap, including a hypothesis model-based check."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AllocationError
from repro.oracles.allocation import IndexedMaxHeap


def test_push_top_pop_order():
    heap = IndexedMaxHeap()
    for key, item in [(3.0, "a"), (5.0, "b"), (1.0, "c"), (4.0, "d")]:
        heap.push(key, item)
    assert heap.top() == (5.0, "b")
    popped = [heap.pop()[1] for _ in range(len(heap))]
    assert popped == ["b", "d", "a", "c"]


def test_tie_break_is_insertion_order():
    heap = IndexedMaxHeap([(1.0, "first"), (1.0, "second")])
    assert heap.top()[1] == "first"


def test_update_key_up_and_down():
    heap = IndexedMaxHeap([(1.0, "a"), (2.0, "b"), (3.0, "c")])
    heap.update("a", 10.0)
    assert heap.top() == (10.0, "a")
    heap.update("a", 0.0)
    assert heap.top() == (3.0, "c")
    assert heap.key_of("a") == 0.0


def test_contains_and_len():
    heap = IndexedMaxHeap([(1.0, "x")])
    assert "x" in heap and "y" not in heap
    assert len(heap) == 1


def test_remove():
    heap = IndexedMaxHeap([(1.0, "a"), (5.0, "b"), (3.0, "c")])
    heap.remove("b")
    assert heap.top() == (3.0, "c")
    assert "b" not in heap
    assert heap.is_valid()


def test_errors():
    heap = IndexedMaxHeap()
    with pytest.raises(AllocationError):
        heap.top()
    with pytest.raises(AllocationError):
        heap.pop()
    heap.push(1.0, "a")
    with pytest.raises(AllocationError):
        heap.push(2.0, "a")
    with pytest.raises(AllocationError):
        heap.update("missing", 1.0)
    with pytest.raises(AllocationError):
        heap.key_of("missing")
    with pytest.raises(AllocationError):
        heap.remove("missing")


@st.composite
def operations(draw):
    ops = []
    items = set()
    for _ in range(draw(st.integers(1, 60))):
        kind = draw(st.sampled_from(["push", "pop", "update", "remove"]))
        if kind == "push":
            item = draw(st.integers(0, 100))
            if item in items:
                continue
            items.add(item)
            ops.append(("push", draw(st.floats(-100, 100)), item))
        elif items:
            item = draw(st.sampled_from(sorted(items)))
            if kind == "pop":
                ops.append(("pop", None, None))
            elif kind == "update":
                ops.append(("update", draw(st.floats(-100, 100)), item))
            else:
                items.discard(item)
                ops.append(("remove", None, item))
    return ops


@given(operations())
@settings(max_examples=80, deadline=None)
def test_against_reference_model(ops):
    heap = IndexedMaxHeap()
    model = {}
    insertion = {}
    counter = 0
    for kind, key, item in ops:
        if kind == "push":
            heap.push(key, item)
            model[item] = key
            insertion[item] = counter
            counter += 1
        elif kind == "pop":
            if not model:
                continue
            best = max(model, key=lambda i: (model[i], -insertion[i]))
            popped_key, popped_item = heap.pop()
            assert popped_item == best
            assert popped_key == model.pop(best)
        elif kind == "update":
            if item not in model:
                continue
            heap.update(item, key)
            model[item] = key
        elif kind == "remove":
            if item not in heap:
                continue
            heap.remove(item)
            model.pop(item, None)
        assert heap.is_valid()
        assert len(heap) == len(model)
        if model:
            best = max(model, key=lambda i: (model[i], -insertion[i]))
            top_key, top_item = heap.top()
            assert top_item == best
            assert top_key == model[best]


class TestMaxExcluding:
    def test_excluding_root_returns_second_max(self):
        heap = IndexedMaxHeap([(5.0, "a"), (3.0, "b"), (4.0, "c")])
        assert heap.max_excluding("a") == 4.0

    def test_excluding_non_root_returns_root(self):
        heap = IndexedMaxHeap([(5.0, "a"), (3.0, "b"), (4.0, "c")])
        assert heap.max_excluding("b") == 5.0
        assert heap.max_excluding("c") == 5.0

    def test_singleton_returns_default(self):
        heap = IndexedMaxHeap([(5.0, "a")])
        assert heap.max_excluding("a") == 0.0
        assert heap.max_excluding("a", default=-1.0) == -1.0

    def test_missing_item_raises(self):
        heap = IndexedMaxHeap([(5.0, "a")])
        with pytest.raises(AllocationError):
            heap.max_excluding("zzz")

    @given(st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=100.0,
                      allow_nan=False, allow_infinity=False),
            st.integers(min_value=0, max_value=30),
        ),
        min_size=1, max_size=30,
        unique_by=lambda pair: pair[1],
    ))
    @settings(max_examples=200, deadline=None)
    def test_matches_linear_scan(self, entries):
        heap = IndexedMaxHeap(entries)
        for _, item in entries:
            expected = max(
                (key for key, other in entries if other != item),
                default=0.0,
            )
            assert heap.max_excluding(item) == max(0.0, expected)
