"""Capture and rollback of container subclasses and stdlib containers.

Exact-type dispatch would make OrderedDict, defaultdict, deque, and user
container subclasses invisible to the object graph and unrestorable by
the checkpoint — a silent false-atomic verdict.  These tests pin the
isinstance-based handling.
"""

from collections import OrderedDict, defaultdict, deque, namedtuple

import pytest

from repro.core import capture, checkpoint, graphs_equal


class AttrList(list):
    """A list subclass carrying its own attribute state."""

    def __init__(self, *args):
        super().__init__(*args)
        self.label = "fresh"


class AttrDict(dict):
    pass


# -- object graph -----------------------------------------------------------


def test_deque_contents_captured():
    d = deque([1, 2, 3])
    before = capture(d)
    d.append(4)
    assert not graphs_equal(before, capture(d))
    assert graphs_equal(capture(deque([1, 2])), capture(deque([1, 2])))


def test_deque_vs_list_distinguished():
    assert not graphs_equal(capture(deque([1])), capture([1]))


def test_ordereddict_contents_captured():
    od = OrderedDict(a=1)
    before = capture(od)
    od["b"] = 2
    assert not graphs_equal(before, capture(od))


def test_ordereddict_vs_dict_distinguished():
    assert not graphs_equal(capture(OrderedDict(a=1)), capture({"a": 1}))


def test_defaultdict_contents_and_factory_captured():
    dd = defaultdict(list, a=[1])
    before = capture(dd)
    dd["b"].append(2)  # implicitly creates "b"
    assert not graphs_equal(before, capture(dd))
    # factory is part of the graph: list-backed vs set-backed differ
    assert not graphs_equal(
        capture(defaultdict(list)), capture(defaultdict(set))
    )


def test_list_subclass_items_and_attrs_captured():
    al = AttrList([1, 2])
    before = capture(al)
    al.append(3)
    assert not graphs_equal(before, capture(al))
    al.pop()
    al.label = "changed"
    assert not graphs_equal(before, capture(al))


def test_dict_subclass_captured():
    ad = AttrDict(x=1)
    before = capture(ad)
    ad["y"] = 2
    assert not graphs_equal(before, capture(ad))


# -- checkpoint / restore --------------------------------------------------------


def test_restore_deque():
    d = deque([1, 2, 3])
    saved = checkpoint(d)
    d.append(4)
    d.popleft()
    d.rotate(1)
    saved.restore()
    assert list(d) == [1, 2, 3]


def test_restore_ordereddict():
    od = OrderedDict([("a", 1), ("b", 2)])
    saved = checkpoint(od)
    od["c"] = 3
    del od["a"]
    saved.restore()
    assert dict(od) == {"a": 1, "b": 2}


def test_restore_defaultdict():
    dd = defaultdict(list)
    dd["k"].append(1)
    saved = checkpoint(dd)
    dd["k"].append(2)
    dd["fresh"].append(9)
    dd.default_factory = set
    saved.restore()
    assert dict(dd) == {"k": [1]}
    assert dd.default_factory is list  # the factory is state, like capture's


def test_restore_list_subclass_items_and_attrs():
    al = AttrList([1, 2])
    saved = checkpoint(al)
    al.append(3)
    al.label = "dirty"
    saved.restore()
    assert list(al) == [1, 2]
    assert al.label == "fresh"
    assert isinstance(al, AttrList)  # identity and type preserved


def test_restore_dict_subclass():
    ad = AttrDict(x=1)
    ad.note = "mine"
    saved = checkpoint(ad)
    ad["y"] = 2
    ad.note = "overwritten"
    saved.restore()
    assert dict(ad) == {"x": 1}
    assert ad.note == "mine"


def test_restore_tuple_subclass_attributes():
    class TaggedTuple(tuple):
        pass

    tagged = TaggedTuple((1, [2]))
    tagged.tag = "x"
    before = capture(tagged)
    saved = checkpoint(tagged)
    tagged.tag = "y"
    tagged.extra = 1
    tagged[1].append(3)
    saved.restore()
    assert graphs_equal(before, capture(tagged))
    assert saved.recorded_count == 2  # the tuple's attributes, the list


def test_namedtuple_gets_no_record():
    point = namedtuple("Point", "x y")(1, [2])
    assert checkpoint(point).recorded_count == 1  # the list only


def test_restore_nested_deque_in_object():
    class Buffer:
        def __init__(self):
            self.pending = deque()

    buffer = Buffer()
    buffer.pending.append("a")
    saved = checkpoint(buffer)
    buffer.pending.append("b")
    saved.restore()
    assert list(buffer.pending) == ["a"]
    assert isinstance(buffer.pending, deque)


def test_masked_method_with_deque_state():
    from repro.core import failure_atomic

    class Queue:
        def __init__(self):
            self.items = deque()

        @failure_atomic
        def push_pair(self, a, b):
            self.items.append(a)
            if b is None:
                raise ValueError("b required")
            self.items.append(b)

    queue = Queue()
    queue.push_pair(1, 2)
    with pytest.raises(ValueError):
        queue.push_pair(3, None)
    assert list(queue.items) == [1, 2]
