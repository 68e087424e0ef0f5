"""The fingerprint ⇔ graph-equality contract (hypothesis + directed).

The whole point of the fingerprint backend is the equivalence

    fingerprint(a) == fingerprint(b)  ⇔  graphs_equal(capture(a), capture(b))

for arbitrary object graphs, including aliasing and cycles.  The "⇐"
direction is what makes the fast path *sound* (equal states never report
a spurious change); the "⇒" direction is collision resistance, which a
128-bit digest can only provide probabilistically — the seeded smoke
test at the bottom checks that thousands of structurally distinct graphs
produce no collision.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.state import (
    capture,
    capture_frame,
    fingerprint,
    fingerprint_frame,
    graphs_equal,
)

# -- strategies (mirrors tests/core/test_properties.py) -------------------

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-1000, 1000),
    st.floats(allow_infinity=False, width=32),
    st.text(max_size=8),
    st.binary(max_size=8),
)


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
        st.sets(st.integers(-50, 50), max_size=4),
        st.tuples(children, children),
    )


values = st.recursive(scalars, containers, max_leaves=20)


class Holder:
    def __init__(self, payload):
        self.payload = payload


# -- the equivalence, both directions -------------------------------------


@given(values, values)
@settings(max_examples=200)
def test_fingerprint_iff_graphs_equal(a, b):
    same_graph = graphs_equal(capture(a), capture(b))
    same_digest = fingerprint(a) == fingerprint(b)
    assert same_graph == same_digest


@given(values)
def test_fingerprint_deterministic(value):
    assert fingerprint(value) == fingerprint(value)


@given(values)
def test_holder_fingerprint_tracks_graph(payload):
    one, two = Holder(payload), Holder(payload)
    assert graphs_equal(capture(one), capture(two))
    assert fingerprint(one) == fingerprint(two)


@given(values, values)
@settings(max_examples=100)
def test_frame_fingerprint_iff_frame_graphs_equal(a, b):
    roots_a = [("self", Holder(a)), ("arg0", 7)]
    roots_b = [("self", Holder(b)), ("arg0", 7)]
    same_graph = graphs_equal(capture_frame(roots_a), capture_frame(roots_b))
    same_digest = fingerprint_frame(roots_a) == fingerprint_frame(roots_b)
    assert same_graph == same_digest


# -- aliasing and cycles --------------------------------------------------


def test_aliasing_distinguished_from_copies():
    shared = [1, 2]
    aliased = {"a": shared, "b": shared}
    copied = {"a": [1, 2], "b": [1, 2]}
    assert not graphs_equal(capture(aliased), capture(copied))
    assert fingerprint(aliased) != fingerprint(copied)


def test_equal_aliasing_structure_hashes_equal():
    def build():
        shared = Holder(1)
        return [shared, shared, Holder(2)]

    assert fingerprint(build()) == fingerprint(build())


def test_self_cycle_terminates_and_compares():
    a, b = [], []
    a.append(a)
    b.append(b)
    assert fingerprint(a) == fingerprint(b)
    # a cycle of period two is a different shape than a self-loop
    c, d = [], []
    c.append(d)
    d.append(c)
    assert fingerprint(a) != fingerprint(c)


def test_mutual_cycle_through_objects():
    def build(tag):
        one, two = Holder(None), Holder(tag)
        one.payload = two
        two.partner = one
        return one

    assert fingerprint(build("x")) == fingerprint(build("x"))
    assert fingerprint(build("x")) != fingerprint(build("y"))


# -- scalar comparison semantics ------------------------------------------


def test_nan_equals_nan():
    assert fingerprint(float("nan")) == fingerprint(float("nan"))
    assert graphs_equal(capture(float("nan")), capture(float("nan")))


def test_negative_zero_equals_zero():
    assert fingerprint(-0.0) == fingerprint(0.0)
    assert graphs_equal(capture(-0.0), capture(0.0))


def test_bool_int_separated_by_type():
    assert fingerprint(True) != fingerprint(1)
    assert not graphs_equal(capture(True), capture(1))


def test_int_float_separated_by_type():
    assert fingerprint(2) != fingerprint(2.0)
    assert not graphs_equal(capture(2), capture(2.0))


def test_str_bytes_separated():
    assert fingerprint("ab") != fingerprint(b"ab")


def test_slots_participate():
    class Slotted:
        __slots__ = ("x", "y")

        def __init__(self, x, y):
            self.x = x
            self.y = y

    assert fingerprint(Slotted(1, 2)) == fingerprint(Slotted(1, 2))
    assert fingerprint(Slotted(1, 2)) != fingerprint(Slotted(1, 3))


def test_ignore_attrs_filter_applies():
    one, two = Holder(1), Holder(1)
    two._repro_noise = "ignored"  # default filter drops _repro_* attrs
    assert fingerprint(one) == fingerprint(two)


def test_fingerprint_is_stringy():
    digest = fingerprint([1, 2, 3])
    assert isinstance(digest, str)
    assert len(digest) == 32  # 128 bits, hex
    assert digest == str(digest)


# -- canonical ordering of scalar keys/members -----------------------------


class RudeInt(int):
    """A scalar subclass whose repr raises (regression subject)."""

    def __repr__(self):
        raise RuntimeError("no repr for you")


class RudeStr(str):
    def __repr__(self):
        raise RuntimeError("no repr for you")


def test_unreprable_scalar_subclasses_keep_distinct_sort_keys():
    from repro.core.state.introspect import scalar_sort_key

    keys = {scalar_sort_key(RudeInt(n)) for n in range(10)}
    assert len(keys) == 10  # one key per value, no <unreprable> collapse


def test_unreprable_scalar_set_members_compare_deterministically():
    # Before the fix every RudeInt collapsed onto one "<unreprable>" sort
    # key, so the canonical order degraded to insertion order and two
    # captures of the same set could disagree.
    forward = {RudeInt(n) for n in range(8)}
    backward = {RudeInt(n) for n in reversed(range(8))}
    assert graphs_equal(capture(forward), capture(backward))
    assert fingerprint(forward) == fingerprint(backward)


@given(st.lists(st.integers(-100, 100), unique=True, min_size=2, max_size=8))
def test_scalar_subclass_sets_hash_like_their_orderings(values):
    one = {RudeInt(v) for v in values}
    two = {RudeInt(v) for v in reversed(values)}
    assert fingerprint(one) == fingerprint(two)
    different = {RudeInt(v + 1) for v in values}
    assert fingerprint(one) != fingerprint(different)


def test_unreprable_dict_keys_compare_deterministically():
    forward = {RudeStr(chr(97 + n)): n for n in range(6)}
    backward = {RudeStr(chr(97 + n)): n for n in reversed(range(6))}
    assert graphs_equal(capture(forward), capture(backward))
    assert fingerprint(forward) == fingerprint(backward)


def test_sort_key_uses_base_repr_but_keeps_subclass_type_name():
    from repro.core.state.introspect import scalar_sort_key

    kind, rendered = scalar_sort_key(RudeInt(3))
    assert kind == "RudeInt"
    assert rendered == "3"
    # bool is matched before int, so True never renders as "1"
    assert scalar_sort_key(True) == ("bool", "True")


# -- seeded collision-resistance smoke ------------------------------------


def test_no_collisions_across_distinct_graphs():
    """Thousands of structurally distinct graphs, zero digest collisions."""
    import random

    rng = random.Random(20260806)
    seen = {}
    count = 0

    def check(value, key):
        nonlocal count
        count += 1
        digest = fingerprint(value)
        assert seen.setdefault(digest, key) == key, (
            f"collision between {seen[digest]!r} and {key!r}"
        )

    for n in range(800):
        check(n, ("int", n))
        check([n], ("list1", n))
        check((n,), ("tuple1", n))
        check({"k": n}, ("dict1", n))
        check(Holder(n), ("holder", n))
    for n in range(200):
        chain = None
        for i in range(n % 17):
            chain = [i, chain]
        check([n, chain], ("chain", n))
        check(str(rng.random()), ("strf", n))
    assert count == 4400
    assert len(seen) == count
