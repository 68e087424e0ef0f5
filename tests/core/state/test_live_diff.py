"""The live diff reads what a capture records.

``graph_diff_live(before, roots)`` must return exactly what
``graph_diff(before, capture_frame(roots))`` returns — the same
``GraphDifference`` string, or ``None`` for both — without building the
after-graph.  The property test builds random object graphs (aliasing,
cycles, slots, container subclasses, opaque leaves, awkward scalars),
captures a frame of them, mutates them at random, and diffs both ways.
"""

import pytest
from hypothesis import given, settings

from repro.core.state import (
    StateStats,
    capture_frame,
    get_backend,
    graph_diff,
    graph_diff_live,
)

from .object_pools import (
    Plain,
    Pool,
    mutate,
    mutations,
    recipes,
    root_picks,
)


@given(recipes, root_picks, mutations)
@settings(max_examples=300, deadline=None)
def test_live_diff_equals_capture_then_diff(recipe, picks, changes):
    """Also when two walks of one instant share their reads: a frame of
    the first root, then the whole frame, as the trace pass walks an
    inner and an outer wrapper's roots."""
    pool = Pool(recipe)
    labels = ["self"] + [("arg", i) for i in range(len(picks) - 1)]
    roots = [(label, pool.resolve((True, i))) for label, i in zip(labels, picks)]
    before = capture_frame(roots)
    inner_before = capture_frame(roots[:1])
    for change in changes:
        mutate(pool, roots, *change)
    live = graph_diff_live(before, roots)
    captured = graph_diff(before, capture_frame(roots))
    assert str(live) == str(captured)
    reads = {}
    inner = graph_diff(inner_before, capture_frame(roots[:1]))
    assert str(graph_diff_live(inner_before, roots[:1], reads)) == str(inner)
    assert str(graph_diff_live(before, roots, reads)) == str(captured)


# -- one case per reason --------------------------------------------------


def _holder(**attrs):
    holder = Plain()
    holder.__dict__.update(attrs)
    return holder


def _diff_after(holder, change):
    """The live diff of *holder* across *change*, checked against
    capture-then-diff."""
    roots = [("self", holder)]
    before = capture_frame(roots)
    change()
    live = graph_diff_live(before, roots)
    assert str(live) == str(graph_diff(before, capture_frame(roots)))
    return str(live)


def test_reason_kind():
    holder = _holder(payload=[1])
    assert _diff_after(holder, lambda: setattr(holder, "payload", (1,))) == (
        "at /slot='self'/attr='payload': kind list != tuple"
    )


def test_reason_type():
    holder = _holder(payload=1)
    assert _diff_after(holder, lambda: setattr(holder, "payload", True)) == (
        "at /slot='self'/attr='payload': type int != bool"
    )


def test_reason_value():
    holder = _holder(payload=bytearray(b"ab"))
    assert _diff_after(holder, lambda: holder.payload.append(ord("c"))) == (
        "at /slot='self'/attr='payload': value b'ab' != b'abc'"
    )


def test_reason_scalar_value():
    holder = _holder(items=[1, "a", 2.5])
    assert _diff_after(holder, lambda: holder.items.__setitem__(1, "b")) == (
        "at /slot='self'/attr='items'/index=1: value 'a' != 'b'"
    )


def test_equal_scalars_and_nan_compare_equal():
    holder = _holder(items=[1, float("nan"), -0.0, True, "a", None])

    def change():
        holder.items[1] = float("nan")  # a different NaN: the state is the same
        holder.items[2] = 0.0

    assert _diff_after(holder, change) == "None"


def test_label_mismatch_is_reported_before_the_node_children():
    holder = _holder(a=1, b=[1], c=1)

    def change():
        holder.a = 2
        holder.b[0] = 2
        del holder.c
        holder.d = 1

    assert _diff_after(holder, change) == (
        "at /slot='self': edge label ('attr', 'c') != ('attr', 'd')"
    )


def test_reason_child_count():
    holder = _holder(payload=[1])
    assert _diff_after(holder, lambda: holder.payload.append(2)) == (
        "at /slot='self'/attr='payload': child count 1 != 2"
    )


def test_reason_edge_label():
    holder = _holder(a=1)

    def change():
        del holder.a
        holder.b = 1

    assert _diff_after(holder, change) == (
        "at /slot='self': edge label ('attr', 'a') != ('attr', 'b')"
    )


def test_reason_sharing_structure():
    shared = [1]
    holder = _holder(x=shared, y=shared)
    assert _diff_after(holder, lambda: setattr(holder, "y", [1])) == (
        "at /slot='self'/attr='x': sharing structure differs"
    )


def test_aliased_roots_and_cycles_compare_equal():
    ring = [1]
    ring.append(ring)
    holder = _holder(ring=ring, me=None)
    holder.me = holder
    roots = [("self", holder), (("arg", 0), ring), (("arg", 1), holder)]
    assert graph_diff_live(capture_frame(roots), roots) is None


# -- the backend verb -----------------------------------------------------


def test_graph_backend_diff_live_counts_one_compare_and_no_capture():
    backend = get_backend("graph")
    holder = _holder(payload=[1, 2])
    roots = [("self", holder)]
    before = backend.capture_frame(roots)
    holder.payload.pop()
    stats = StateStats()
    difference = backend.diff_live(before, roots, stats=stats)
    assert str(difference) == "at /slot='self'/attr='payload': child count 2 != 1"
    assert (stats.captures, stats.compares) == (0, 1)


@pytest.mark.parametrize("name", ("fingerprint",))
def test_other_backends_capture_then_diff(name):
    backend = get_backend(name)
    holder = _holder(payload=[1])
    roots = [("self", holder)]
    before = backend.capture_frame(roots)
    stats = StateStats()
    assert backend.diff_live(before, roots, stats=stats) is None
    holder.payload.append(2)
    assert backend.diff_live(before, roots, stats=stats) is not None
    assert stats.compares == 2
    assert stats.captures + stats.fingerprints == 2
