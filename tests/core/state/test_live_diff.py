"""The live diff reads what a capture records.

``graph_diff_live(before, roots)`` must return exactly what
``graph_diff(before, capture_frame(roots))`` returns — the same
``GraphDifference`` string, or ``None`` for both — without building the
after-graph.  The property test builds random object graphs (aliasing,
cycles, slots, container subclasses, opaque leaves, awkward scalars),
captures a frame of them, mutates them at random, and diffs both ways.
"""

import collections
import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.state import (
    CaptureLimitError,
    StateStats,
    capture_frame,
    get_backend,
    graph_diff,
    graph_diff_live,
)


class Plain:
    """State in ``__dict__``."""


class Slotted:
    __slots__ = ("a", "b", "c")


class SlotAndDict:
    __slots__ = ("a", "__dict__")


class TaggedList(list):
    """A container subclass carrying instance attributes."""


class Tag(str):
    pass


def opaque_function():
    pass


_NAN = float("nan")

#: ``True`` beside ``1`` and ``1.0``, one shared NaN (and fresh ones, see
#: :func:`_scalar`), ``-0.0`` beside ``0``, and a ``str`` subclass.
SCALARS = (
    None, 0, 1, True, False, 1.0, -0.0, _NAN, "a", "", Tag("a"), b"x", 2**70, 1j
)

#: Attribute names; ``_hidden`` and ``b`` are what the ignore filters drop.
NAMES = ("a", "b", "c", "_hidden")

KINDS = (
    "plain",
    "slotted",
    "slotdict",
    "list",
    "tuple",
    "dict",
    "set",
    "frozenset",
    "deque",
    "bytearray",
    "tagged",
    "defaultdict",
    "function",
    "class",
)
_SHELLS = {
    "plain": Plain,
    "slotted": Slotted,
    "slotdict": SlotAndDict,
    "list": list,
    "dict": dict,
    "set": set,
    "deque": collections.deque,
    "tagged": TaggedList,
    "defaultdict": lambda: collections.defaultdict(list),
}
_OPAQUE = {"function": opaque_function, "class": Plain}

IGNORES = (None, lambda name: name.startswith("_"), lambda name: name == "b")

#: A reference: ``(True, i)`` is node ``i`` (mod pool size), ``(False, j)``
#: a scalar.
refs = st.tuples(st.booleans(), st.integers(0, 63))
recipes = st.lists(
    st.tuples(st.sampled_from(KINDS), st.lists(refs, max_size=4)),
    min_size=1,
    max_size=8,
)
OPS = ("setattr", "delattr", "append", "pop", "replace", "copy", "root")
mutations = st.lists(
    st.tuples(st.sampled_from(OPS), st.integers(0, 63), refs, st.integers(0, 63)),
    max_size=4,
)
#: Roots are pool nodes (a "root" mutation may swap in a scalar).
root_picks = st.lists(st.integers(0, 63), min_size=1, max_size=3)


def _scalar(index):
    index %= len(SCALARS) + 1
    if index == len(SCALARS):
        return float("nan")  # a NaN of its own
    return SCALARS[index]


def _hashable(value):
    try:
        hash(value)
    except TypeError:
        return False
    return True


class Pool:
    """Live objects built from a recipe; immutable containers only
    reference nodes built before them, mutable ones anything."""

    def __init__(self, recipe):
        self.nodes = [None] * len(recipe)
        for i, (kind, _) in enumerate(recipe):
            if kind in _SHELLS:
                self.nodes[i] = _SHELLS[kind]()
            elif kind in _OPAQUE:
                self.nodes[i] = _OPAQUE[kind]
        for i, (kind, children) in enumerate(recipe):
            values = [self.resolve(ref) for ref in children]
            if kind == "tuple":
                self.nodes[i] = tuple(values)
            elif kind == "frozenset":
                self.nodes[i] = frozenset(v for v in values if _hashable(v))
            elif kind == "bytearray":
                self.nodes[i] = bytearray(b"abc"[: len(values)])
        for i, (kind, children) in enumerate(recipe):
            for k, ref in enumerate(children):
                self.add(self.nodes[i], k, self.resolve(ref))

    def resolve(self, ref):
        is_node, index = ref
        if is_node:
            node = self.nodes[index % len(self.nodes)]
            if node is not None:
                return node
        return _scalar(index)

    def add(self, node, k, value):
        name = NAMES[k % len(NAMES)]
        if isinstance(node, (Plain, Slotted, SlotAndDict)):
            try:
                setattr(node, name, value)
            except AttributeError:
                pass  # not a slot of this class
        elif isinstance(node, (list, collections.deque)):
            node.append(value)
            if isinstance(node, TaggedList):
                node.label = value
        elif isinstance(node, dict):
            node[value if _hashable(value) else name] = k
        elif isinstance(node, set) and _hashable(value):
            node.add(value)
        elif isinstance(node, bytearray):
            node.append(k)


def mutate(pool, roots, op, target, ref, position):
    if target % 2:  # half the mutations hit a root, which is reachable
        node = roots[target // 2 % len(roots)][1]
    else:
        node = pool.nodes[target // 2 % len(pool.nodes)]
    value = pool.resolve(ref)
    name = NAMES[position % len(NAMES)]
    if op == "root":
        roots[position % len(roots)] = (roots[position % len(roots)][0], value)
    elif op == "setattr":
        try:
            setattr(node, name, value)
        except (AttributeError, TypeError):
            pass
    elif op == "delattr":  # unsets a slot on the slotted classes
        try:
            delattr(node, name)
        except (AttributeError, TypeError):
            pass
    elif op == "append":
        pool.add(node, position, value)
    elif op == "pop":
        if isinstance(node, dict) and node:
            node.popitem()
        elif isinstance(node, (list, collections.deque, bytearray, set)) and node:
            node.pop()
    elif op == "replace":  # re-aliases a shared child when value is a node
        if isinstance(node, (list, collections.deque)) and node:
            node[position % len(node)] = value
        elif isinstance(node, dict) and node:
            node[next(iter(node))] = value
    elif op == "copy":  # an equal-valued private copy of a shared child
        if isinstance(node, (Plain, SlotAndDict)):
            for key, child in sorted(vars(node).items()):
                if isinstance(child, (list, dict, Plain)):
                    setattr(node, key, copy.copy(child))
                    break
        elif isinstance(node, list) and node:
            node[position % len(node)] = copy.copy(node[position % len(node)])


@given(recipes, root_picks, mutations, st.sampled_from(IGNORES))
@settings(max_examples=300, deadline=None)
def test_live_diff_equals_capture_then_diff(recipe, picks, changes, ignore):
    pool = Pool(recipe)
    labels = ["self"] + [("arg", i) for i in range(len(picks) - 1)]
    roots = [(label, pool.resolve((True, i))) for label, i in zip(labels, picks)]
    before = capture_frame(roots, ignore_attrs=ignore)
    for change in changes:
        mutate(pool, roots, *change)
    live = graph_diff_live(before, roots, ignore_attrs=ignore)
    captured = graph_diff(before, capture_frame(roots, ignore_attrs=ignore))
    assert str(live) == str(captured)


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


def test_graph_backend_diff_live_under_budget_captures_the_after_state():
    backend = get_backend("graph")
    holder = _holder(payload=[1])
    roots = [("self", holder)]
    before = backend.capture_frame(roots)
    stats = StateStats()
    assert backend.diff_live(before, roots, max_nodes=100, stats=stats) is None
    assert (stats.captures, stats.compares) == (1, 1)
    holder.payload.extend(range(200))
    with pytest.raises(CaptureLimitError):
        backend.diff_live(before, roots, max_nodes=100)


@pytest.mark.parametrize("name", ("fingerprint", "undolog"))
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
