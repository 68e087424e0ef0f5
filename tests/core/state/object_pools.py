"""Random object graphs for the state-layer property tests.

A *recipe* lists nodes by kind, each with references to other nodes or to
scalars; :class:`Pool` builds the live objects (aliasing, cycles, slots,
container subclasses, opaque leaves, awkward scalars) and :func:`mutate`
changes them at random.  The live-diff and checkpoint round-trip tests
draw from the same strategies, so both cover every graph shape here.
"""

import collections
import copy

from hypothesis import strategies as st


class Plain:
    """State in ``__dict__``."""


class Slotted:
    __slots__ = ("a", "b", "c")


class SlotAndDict:
    __slots__ = ("a", "__dict__")


class TaggedList(list):
    """A container subclass carrying instance attributes."""


class TaggedTuple(tuple):
    """An immutable container whose instance attributes are mutable."""


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

#: Attribute names; every traversal skips ``_repro_hidden``, the
#: instrumentation's own kind of attribute.
NAMES = ("a", "b", "c", "_repro_hidden")

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
    "taggedtuple",
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

#: A reference: ``(True, i)`` is node ``i`` (mod pool size), ``(False, j)``
#: a scalar.
refs = st.tuples(st.booleans(), st.integers(0, 63))
recipes = st.lists(
    st.tuples(st.sampled_from(KINDS), st.lists(refs, max_size=4)),
    min_size=1,
    max_size=8,
)
OPS = (
    "setattr", "delattr", "append", "pop", "replace", "copy", "factory", "root"
)
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
            elif kind == "taggedtuple":
                self.nodes[i] = TaggedTuple(values)
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
        elif isinstance(node, TaggedTuple):
            node.label = value
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
    elif op == "factory":  # the factory is state: capture yields it
        if isinstance(node, collections.defaultdict):
            factory = node.default_factory
            node.default_factory = set if factory is list else list
