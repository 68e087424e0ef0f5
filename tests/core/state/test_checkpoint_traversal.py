"""The checkpoint's records against the traversal it replaced.

:class:`~repro.core.state.checkpoint.Checkpoint` classifies each value
with one type-table lookup and copies an exact list, an exact dict and a
plain instance without going through ``_visit``.  It must record exactly
what the old traversal (:mod:`checkpoint_oracle`) records: the same
objects, in the same order, with equal saved state.  Restoring is shared,
so equal records restore equally.
"""

import collections

import pytest
from hypothesis import given, settings

from repro.core.state import checkpoint
from repro.core.state.checkpoint import _UNSET

from . import checkpoint_oracle as oracle
from .object_pools import (
    Plain,
    Pool,
    SlottedHidden,
    Tag,
    mutate,
    mutations,
    recipes,
    root_picks,
)


def assert_records_match(*roots):
    saved, expected = checkpoint(*roots), oracle.checkpoint(*roots)
    assert saved.recorded_count == expected.recorded_count
    for record, want in zip(saved._records, expected._records):
        assert record.obj is want.obj
        assert record.kind == want.kind
        assert record.state == want.state
    return saved


@given(recipes, root_picks, mutations)
@settings(max_examples=300, deadline=None)
def test_records_match_the_old_traversal(recipe, picks, changes):
    pool = Pool(recipe)
    roots = [("self", pool.resolve((True, i))) for i in picks]
    for change in changes:  # unset slots, swapped factories, re-aliased children
        mutate(pool, roots, *change)
    assert_records_match(*(value for _, value in roots))


def test_exact_containers_record_keys_values_and_items():
    key, value = Plain(), Plain()
    key.part, value.part = [1], {2: [3]}
    shared = [{key: value, "k": [value]}, (value,)]  # `key` is only a key
    saved = assert_records_match(shared)
    assert {id(record.obj) for record in saved._records} >= {id(key), id(value)}


def test_hidden_attribute_of_a_plain_instance_is_not_recorded():
    obj = Plain()
    obj.kept = [1, [2]]
    obj._repro_tag = [3]
    saved = assert_records_match(obj)
    dict_copy, slot_values = saved._records[0].state
    assert dict_copy == {"kept": obj.kept} and slot_values == []
    assert all(record.obj is not obj._repro_tag for record in saved._records)


def test_str_subclass_attribute_names():
    obj = Plain()
    vars(obj)[Tag("named")] = [1]
    vars(obj)[Tag("_repro_named")] = [2]
    saved = assert_records_match(obj)
    assert list(saved._records[0].state[0]) == ["named"]


def test_non_str_attribute_name_fails_as_before():
    obj = Plain()
    vars(obj)[1] = [1]
    with pytest.raises(AttributeError):
        oracle.checkpoint(obj)
    with pytest.raises(AttributeError):
        checkpoint(obj)


def test_slotted_instance_with_an_unset_and_a_hidden_slot():
    obj = SlottedHidden()
    obj.c = [1]
    obj._repro_hidden = [2]  # `a` stays unset
    saved = assert_records_match(obj)
    assert saved._records[0].state == (None, [("c", obj.c), ("a", _UNSET)])


class SlotsUnderDict(Plain):
    __slots__ = ("slot",)


def test_slots_added_under_a_dict_class():
    obj = SlotsUnderDict()
    obj.attr = [1]
    assert_records_match(obj)
    obj.slot = [2]
    assert_records_match(obj)


class NotedList(list):
    pass


class NotedDict(dict):
    pass


class NotedDefaultDict(collections.defaultdict):
    pass


@pytest.mark.parametrize(
    "container",
    [NotedList([1, [2]]), NotedDict(a=[1]), NotedDefaultDict(list, a=[1])],
    ids=["list", "dict", "defaultdict"],
)
def test_container_subclasses_with_attributes(container):
    container.note = [3]
    saved = assert_records_match(container)
    items, (dict_copy, _) = saved._records[0].state
    assert dict_copy == {"note": container.note}
