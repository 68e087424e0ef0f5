"""The classification table and the list-built children against the oracle.

:func:`list_children` takes fast paths by exact type (exact sequences,
plain and slots-only instances, dicts keyed by exact scalars), and
:func:`capture` numbers nodes in one loop over a per-type table.  Both
must give exactly what the pre-table generator chain and capturer give
(:mod:`children_oracle`): the same labels, down to the label objects'
reprs, the same child objects, and the same graph node for node.
"""

import collections
import gc
import importlib
import weakref

import pytest
from hypothesis import given, settings

from repro.core.state import (
    capture,
    capture_frame,
    fingerprint,
    introspect,
    list_children,
    type_info,
)

from . import children_oracle as oracle
from .object_pools import Pool, TaggedDeque, mutate, mutations, recipes, root_picks


fingerprint_module = importlib.import_module("repro.core.state.fingerprint")


def _pairs(pairs):
    return [(label, repr(label), id(child)) for label, child in pairs]


def assert_children_match(obj):
    expected = _pairs(oracle.iter_children(obj, introspect.kind_of(obj)))
    assert _pairs(list_children(obj)) == expected
    assert _pairs(list_children(obj, type_info(obj))) == expected


def assert_graphs_match(graph, expected):
    assert (graph.root, len(graph.nodes)) == (expected.root, len(expected.nodes))
    for node, want in zip(graph.nodes, expected.nodes):
        assert node == want  # kind, type name, value and edges
        assert [repr(label) for label, _ in node.edges] == [
            repr(label) for label, _ in want.edges
        ]


@given(recipes, root_picks, mutations)
@settings(max_examples=300, deadline=None)
def test_children_and_capture_equal_the_oracle(recipe, picks, changes):
    pool = Pool(recipe)
    labels = ["self"] + [("arg", i) for i in range(len(picks) - 1)]
    roots = [(label, pool.resolve((True, i))) for label, i in zip(labels, picks)]
    for change in changes:
        mutate(pool, roots, *change)
    for obj in oracle.reachable(pool.nodes + [value for _, value in roots]):
        assert_children_match(obj)
    for node in pool.nodes:
        assert_graphs_match(capture(node), oracle.capture(node))
    assert_graphs_match(capture_frame(roots), oracle.capture_frame(roots))


# -- shapes the fast paths special-case ------------------------------------


class _HiddenSlots:
    __slots__ = ("zeta", "_repro_mark", "alpha", "unset")


def test_slots_only_instance_hides_repro_slots_and_skips_unset_ones():
    obj = _HiddenSlots()
    obj.zeta, obj._repro_mark, obj.alpha = 1, 2, [3]
    assert [label for label, _ in list_children(obj)] == [
        ("attr", "alpha"),
        ("attr", "zeta"),
    ]
    assert_children_match(obj)
    assert_graphs_match(capture(obj), oracle.capture(obj))


def test_deque_subclass_yields_items_then_attributes():
    items = TaggedDeque([1, "a"])
    items.label = items
    assert [label for label, _ in list_children(items)] == [
        ("index", 0),
        ("index", 1),
        ("attr", "label"),
    ]
    assert_children_match(items)
    assert_graphs_match(capture(items), oracle.capture(items))


@pytest.mark.parametrize("make", (list, tuple, collections.deque))
def test_sequence_longer_than_the_label_table(make):
    size = introspect._INDEX_LABELS_MAX + 3
    sequence = make(range(size))
    children = list_children(sequence)
    assert children[-1] == (("index", size - 1), size - 1)
    assert_children_match(sequence)
    assert_graphs_match(capture(sequence), oracle.capture(sequence))
    assert len(introspect._INDEX_LABELS) <= introspect._INDEX_LABELS_MAX


def test_exact_scalar_keys_sort_by_type_name_then_repr():
    mapping = {9: "nine", 2**70: "big", "b": 1, 1: "one", None: 0, b"x": 2, 1.5: 3}
    assert [label[1] for label, _ in list_children(mapping)] == [
        ("NoneType", None),
        ("bytes", b"x"),
        ("float", 1.5),
        ("int", 1),
        ("int", 2**70),
        ("int", 9),
        ("str", "b"),
    ]
    assert_children_match(mapping)
    assert_children_match({9: 0, 10: 1, 1: 2})
    assert_children_match({})


def test_nan_keys_keep_insertion_order():
    first, second = float("nan"), float("nan")
    mapping = {second: "second", 1.0: "one", first: "first"}
    assert [value for _, value in list_children(mapping)] == ["one", "second", "first"]
    assert_children_match(mapping)
    assert_children_match({complex(first, 0): 0, complex(second, 0): 1})


class _LoudName(str):
    def __repr__(self):
        return "LOUD"


def test_attribute_name_of_a_str_subclass_keeps_its_own_label():
    cached = type("Cached", (), {})()
    cached.a = 1
    list_children(cached)  # caches the exact-str label ("attr", "a")
    obj = type("Odd", (), {})()
    obj.__dict__[_LoudName("a")] = 2
    ((label, _),) = list_children(obj)
    assert type(label[1]) is _LoudName
    assert_children_match(obj)


class _Proxy:
    """Slots only, but ``__getattr__`` answers ``__dict__`` too."""

    __slots__ = ("target",)

    def __getattr__(self, name):
        return getattr(self.target, name)


def test_slotted_proxy_with_getattr_takes_the_general_path():
    target = type("Target", (), {})()
    target.x = 1
    proxy = _Proxy()
    proxy.target = target
    assert [label for label, _ in list_children(proxy)] == [
        ("attr", "target"),
        ("attr", "x"),
    ]
    assert_children_match(proxy)


def test_defaultdict_and_container_subclass_attributes():
    factory_dict = collections.defaultdict(list, {2: [1], 1: "a"})
    ordered = collections.OrderedDict([(2, "b"), (1, "a")])
    ordered.note = "n"
    for obj in (factory_dict, ordered, frozenset({3, 1, (2,)}), {1, "a", None}):
        assert_children_match(obj)
        assert_graphs_match(capture(obj), oracle.capture(obj))


# -- the tables stay within their bounds -----------------------------------


@pytest.fixture
def restored_tables():
    """Put the module caches back as they were, so the classes this test
    defines neither outlive it nor crowd out the rest of the session."""
    caches = (
        introspect._TYPE_TABLE,
        introspect._SLOT_CACHE,
        introspect._ATTR_LABELS,
        fingerprint_module._TYPE_INFO,
    )
    saved = [dict(cache) for cache in caches]
    yield
    for cache, before in zip(caches, saved):
        cache.clear()
        cache.update(before)


def test_type_table_stays_within_its_bound(restored_tables):
    bound = introspect._TYPE_TABLE_MAX
    classes = [type(f"Shape{i}", (), {}) for i in range(bound + 1)]
    for i, cls in enumerate(classes):
        obj = cls()
        obj.value = i
        obj.peer = classes[i - 1]() if i else None
        assert_graphs_match(capture(obj), oracle.capture(obj))
    assert len(introspect._TYPE_TABLE) <= bound
    # the table started over when it filled, so a type seen since is kept
    late = classes[-1]()
    late.value = [1]
    assert type(late) in introspect._TYPE_TABLE
    assert type_info(late)[1] == "object"
    assert_graphs_match(capture(late), oracle.capture(late))


def test_full_type_tables_start_over(restored_tables, monkeypatch):
    """A full per-type table is cleared, not frozen: a long-running
    service keeps memoizing the types of new subjects, and a retired
    class held only by a table is collected."""
    for module, bound in (
        (introspect, "_TYPE_TABLE_MAX"),
        (introspect, "_SLOT_CACHE_MAX"),
        (fingerprint_module, "_TYPE_INFO_MAX"),
    ):
        monkeypatch.setattr(module, bound, 8)
    tables = (
        introspect._TYPE_TABLE,
        introspect._SLOT_CACHE,
        fingerprint_module._TYPE_INFO,
    )

    def use(cls):
        obj = cls()
        obj.value = 1
        capture(obj)
        fingerprint(obj)

    first = type("Retired", (), {})
    use(first)
    assert all(first in table for table in tables)
    retired = weakref.ref(first)
    del first
    for i in range(20):
        cls = type(f"Fresh{i}", (), {})
        use(cls)
        assert all(cls in table and len(table) <= 8 for table in tables)
    gc.collect()
    assert retired() is None
