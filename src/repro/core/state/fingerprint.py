"""Structural state fingerprints — graph equality in one digest compare.

:func:`fingerprint` reduces the object graph reachable from a root to a
128-bit digest in a **single traversal**, such that

    ``fingerprint(a) == fingerprint(b)``  ⇔  ``graphs_equal(capture(a),
    capture(b))``

The right-hand side is the paper's Definition-2 comparison — rooted
isomorphism over kinds, types, scalar values, edge labels, and sharing
structure.  The equivalence holds because the digest is a hash of a
*canonical serialization* of exactly the structure that comparison
inspects:

* the traversal visits children in the canonical order of
  :func:`repro.core.state.introspect.list_children` — the same code the
  graph capturer uses, so both sides agree on edge order byte for byte;
* aliasing is captured by canonical node numbering: every non-scalar
  object gets an id in first-visit order, and later references serialize
  as a back-reference to that id instead of re-serializing the subtree
  (this is what makes two graphs with different *sharing* hash
  differently even when their unfolded trees agree — and what keeps the
  traversal linear on DAGs and terminating on cycles);
* scalar values serialize under the comparison's value semantics, not
  ``repr``: NaN equals NaN, ``-0.0`` equals ``0.0``, and ``bool``/``int``
  stay separated by their type tag.

Detection campaigns use the digest as a fast path: "did the state
change?" becomes a 16-byte comparison instead of materializing and
walking two full graphs.  The digest cannot *explain* a difference — the
:class:`~repro.core.state.backend.FingerprintBackend` falls back to a
full graph capture + diff when digests disagree and diagnostics are
wanted.

Within one digest size the hash is Merkle-style, not injective: distinct
graphs could in principle collide.  With a 128-bit BLAKE2 digest the
collision probability is ~2⁻⁶⁴ per pair — far below the noise floor of a
fault-injection experiment (the test suite includes a seeded
collision-resistance smoke over thousands of distinct graphs).
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from .introspect import (
    KIND_BYTEARRAY,
    KIND_OBJECT,
    default_ignore,
    is_opaque,
    is_scalar,
    kind_of,
    list_children,
    opaque_token,
    slot_names,
    type_name,
)

__all__ = [
    "StateFingerprint",
    "fingerprint",
    "fingerprint_frame",
    "DIGEST_BITS",
]

#: Digest width: 128 bits (16 bytes), rendered as 32 hex characters.
DIGEST_BITS = 128

#: Serialization format version, mixed into every digest.  Bump whenever
#: the encoding changes so stale digests can never compare equal to new
#: ones by accident.
_FORMAT_TAG = b"repro-state-fp:1\x00"


class StateFingerprint(str):
    """A 128-bit structural state digest (hex-rendered).

    A plain ``str`` subclass: digests compare, hash, sort, and serialize
    like strings (journals and JSON reports need no special casing), but
    the distinct type documents what the value *is* in signatures.
    """

    __slots__ = ()

    def __repr__(self) -> str:  # diagnostics show the short prefix
        return f"<fp {self[:12]}…>" if len(self) > 12 else f"<fp {str(self)}>"


def _encode_str(text: str) -> bytes:
    data = text.encode("utf-8", "surrogatepass")
    return b"%d:" % len(data) + data


def _encode_bytes(data: bytes) -> bytes:
    return b"%d;" % len(data) + data


def _encode_scalar_value(value: Any) -> bytes:
    """Encode a scalar *value* under graph-comparison equality semantics.

    Two scalars of the same type name must encode equal iff the graph
    comparison would find them equal: NaN == NaN (the state did not
    change), -0.0 == 0.0, and numeric subclasses compare by value.
    """
    if value is None:
        return b"z"
    if isinstance(value, bool):
        return b"b1" if value else b"b0"
    if isinstance(value, int):
        return b"i" + str(int(value)).encode("ascii")
    if isinstance(value, float):
        v = float(value)
        if v != v:
            return b"fnan"
        if v == 0.0:
            v = 0.0  # collapse -0.0 onto 0.0: they compare equal
        return b"f" + repr(v).encode("ascii")
    if isinstance(value, complex):
        c = complex(value)
        if c != c:
            return b"cnan"  # any NaN component: equal to every NaN complex
        re = 0.0 if c.real == 0.0 else c.real
        im = 0.0 if c.imag == 0.0 else c.imag
        return b"c" + repr(re).encode("ascii") + b"," + repr(im).encode("ascii")
    if isinstance(value, str):
        return b"s" + _encode_str(value)
    if isinstance(value, bytes):
        return b"y" + _encode_bytes(value)
    raise TypeError(f"not a scalar: {type(value).__name__}")  # pragma: no cover


def _encode_label_part(part: Any) -> bytes:
    """Encode one component of an edge label under tuple-``==`` semantics.

    Graph comparison matches labels with plain tuple equality, where
    ``True == 1`` and ``-0.0 == 0.0``; the encoding collapses exactly the
    values tuple equality collapses.
    """
    if isinstance(part, tuple):
        return b"(" + b"".join(_encode_label_part(p) for p in part) + b")"
    if isinstance(part, str):
        return b"s" + _encode_str(part)
    if isinstance(part, bool) or isinstance(part, int):
        # bool collapses onto int deliberately: ("index", True) == ("index", 1)
        return b"i" + str(int(part)).encode("ascii")
    if part is None:
        return b"z"
    if isinstance(part, float):
        if part != part:
            return b"fnan"
        if part == 0.0:
            return b"f0.0"
        if part == int(part):
            # 2.0 == 2 under tuple equality; collapse onto the int encoding
            return b"i" + str(int(part)).encode("ascii")
        return b"f" + repr(part).encode("ascii")
    if isinstance(part, bytes):
        return b"y" + _encode_bytes(part)
    if isinstance(part, complex):
        return b"c" + repr(part).encode("ascii")
    # Labels are generated by the capture machinery; anything else would
    # be a new label scheme. Fall back to repr rather than failing a run.
    return b"r" + _encode_str(repr(part))


#: Encoded-label memo.  Labels repeat enormously across a campaign
#: (``("attr", "next")`` once per list node per capture), and label
#: equality under dict lookup is tuple ``==`` — exactly the equivalence
#: the encoding collapses (``True``/``1``, ``2.0``/``2``), so a cache hit
#: can never return a wrong encoding.  Bounded so fuzz campaigns with
#: unbounded label vocabularies cannot grow it without limit.
_LABEL_CACHE: Dict[Any, bytes] = {}
_LABEL_CACHE_MAX = 8192


def _encode_label(label: Tuple[str, Any]) -> bytes:
    try:
        cached = _LABEL_CACHE.get(label)
    except TypeError:  # unhashable component; encode directly
        return b"L" + _encode_label_part(label)
    if cached is None:
        cached = b"L" + _encode_label_part(label)
        if len(cached) <= 128 and len(_LABEL_CACHE) < _LABEL_CACHE_MAX:
            _LABEL_CACHE[label] = cached
    return cached


#: Fused header+payload encoders for the seven *exact* scalar types —
#: the single hottest node shape.  Each returns exactly the bytes the
#: generic path (``S`` + type name + payload) would produce.
_SCALAR_FAST: Dict[type, Callable[[Any], bytes]] = {
    type(None): lambda value: b"S8:NoneTypez",
    bool: lambda value: b"S4:boolb1" if value else b"S4:boolb0",
    int: lambda value: b"S3:inti%d" % value,
    float: lambda value: b"S5:float" + _encode_scalar_value(value),
    complex: lambda value: b"S7:complex" + _encode_scalar_value(value),
    str: lambda value: b"S3:strs" + _encode_str(value),
    bytes: lambda value: b"S5:bytesy" + _encode_bytes(value),
}

#: Attribute- and index-label encodings, keyed directly by name/position
#: so the hot paths skip the label-tuple allocation entirely.
_ATTR_LABELS: Dict[str, bytes] = {}


def _attr_label(name: str) -> bytes:
    cached = _ATTR_LABELS.get(name)
    if cached is None:
        cached = _encode_label(("attr", name))
        if len(cached) <= 128 and len(_ATTR_LABELS) < _LABEL_CACHE_MAX:
            _ATTR_LABELS[name] = cached
    return cached


_INDEX_LABELS: List[bytes] = []


def _index_label(index: int) -> bytes:
    try:
        return _INDEX_LABELS[index]
    except IndexError:
        pass
    if index < 4096:
        while len(_INDEX_LABELS) <= index:
            _INDEX_LABELS.append(
                _encode_label(("index", len(_INDEX_LABELS)))
            )
        return _INDEX_LABELS[index]
    return _encode_label(("index", index))


_CAT_SCALAR, _CAT_OPAQUE, _CAT_NODE = 0, 1, 2

#: Per-type dispatch memo: ``type -> (category, preencoded header, kind)``.
#: Scalar-ness, opaqueness, kind, and type name are all functions of the
#: exact runtime type, so the isinstance chains and string encodings run
#: once per distinct type instead of once per node.  Bounded because fuzz
#: runs synthesize classes without limit; a full memo starts over, as
#: ``introspect._TYPE_TABLE`` does.
_TYPE_INFO: Dict[type, Tuple[int, bytes, Optional[str]]] = {}
_TYPE_INFO_MAX = 4096


def _type_info(tp: type, sample: Any) -> Tuple[int, bytes, Optional[str]]:
    info = _TYPE_INFO.get(tp)
    if info is None:
        if is_scalar(sample):
            info = (_CAT_SCALAR, b"S" + _encode_str(tp.__name__), None)
        elif is_opaque(sample):
            info = (_CAT_OPAQUE, b"O" + _encode_str(tp.__name__), None)
        else:
            kind = kind_of(sample)
            header = b"N" + _encode_str(kind) + _encode_str(type_name(sample))
            info = (_CAT_NODE, header, kind)
        if len(_TYPE_INFO) >= _TYPE_INFO_MAX:
            _TYPE_INFO.clear()
        _TYPE_INFO[tp] = info
    return info


#: Flush the serialization buffer to the hasher once it crosses this
#: size: the buffer stays cache-resident and never reallocates toward
#: graph-sized peaks, while the hasher still sees few, large updates.
_FLUSH_BYTES = 1 << 16


class _Fingerprinter:
    """One-pass canonical-serialization hasher (iterative, cycle-safe)."""

    def __init__(self) -> None:
        self._hasher = hashlib.blake2b(digest_size=DIGEST_BITS // 8)
        self._hasher.update(_FORMAT_TAG)
        self._seen: Dict[int, int] = {}  # id(obj) -> canonical node number
        # Pin visited objects so id() values stay unique mid-traversal.
        self._pins: List[Any] = []
        # Serialization accumulates here and drains to the hasher in
        # large zero-copy (memoryview) batches: thousands of tiny
        # hasher.update calls cost more than the buffering.
        self._buffer = bytearray()

    def _flush(self) -> None:
        buffer = self._buffer
        if buffer:
            with memoryview(buffer) as view:
                self._hasher.update(view)
            del buffer[:]

    def digest(self) -> StateFingerprint:
        self._flush()
        return StateFingerprint(self._hasher.hexdigest())

    def add_frame(self, label_values: Iterable[Tuple[Any, Any]]) -> None:
        """Serialize a synthetic frame node over several labeled roots."""
        self._buffer += b"F<frame>"
        for key, value in label_values:
            self._buffer += _encode_label(("slot", key))
            self.add_value(value)

    def add_value(self, value: Any) -> None:
        """Serialize the subgraph rooted at *value* (explicit stack DFS)."""
        buffer = self._buffer
        feed = buffer.extend
        hasher_update = self._hasher.update
        seen = self._seen
        pin = self._pins.append
        stack: List[Tuple[bool, Any]] = [(False, value)]
        pop = stack.pop
        push = stack.append
        scalar_fast = _SCALAR_FAST
        while stack:
            if len(buffer) >= _FLUSH_BYTES:
                with memoryview(buffer) as view:
                    hasher_update(view)
                del buffer[:]
            is_token, item = pop()
            if is_token:
                feed(item)
                continue
            tp = type(item)
            encoder = scalar_fast.get(tp)
            if encoder is not None:
                feed(encoder(item))
                continue
            category, header, kind = _type_info(tp, item)
            if category == _CAT_SCALAR:  # scalar subclass (enums, ...)
                feed(header)
                feed(_encode_scalar_value(item))
                continue
            oid = id(item)
            canonical = seen.get(oid)
            if canonical is not None:
                feed(b"R%d" % canonical)
                continue
            seen[oid] = len(seen)
            pin(item)
            feed(header)
            if category == _CAT_OPAQUE:
                feed(_encode_str(opaque_token(item)))
                continue
            if tp is list or tp is tuple:
                # Exact builtin sequences: index-labeled items, no
                # instance attributes — the generic path would yield
                # exactly these children.  Leading runs of exact
                # scalars are emitted inline (no stack round-trip).
                size = len(item)
                feed(b"E%d" % size)
                position = 0
                while position < size:
                    child = item[position]
                    encoder = scalar_fast.get(type(child))
                    if encoder is None:
                        break
                    feed(_index_label(position))
                    feed(encoder(child))
                    position += 1
                for rest in range(size - 1, position - 1, -1):
                    push((False, item[rest]))
                    push((True, _index_label(rest)))
                continue
            if kind == KIND_OBJECT:
                obj_dict = getattr(item, "__dict__", None)
                if type(obj_dict) is dict and not slot_names(tp):
                    # Plain-__dict__ instances: attr-labeled values in
                    # sorted name order, same as the generic path.
                    names = [
                        name for name in obj_dict if not default_ignore(name)
                    ]
                    names.sort()
                    total = len(names)
                    feed(b"E%d" % total)
                    position = 0
                    while position < total:
                        child = obj_dict[names[position]]
                        encoder = scalar_fast.get(type(child))
                        if encoder is None:
                            break
                        feed(_attr_label(names[position]))
                        feed(encoder(child))
                        position += 1
                    for rest in range(total - 1, position - 1, -1):
                        push((False, obj_dict[names[rest]]))
                        push((True, _attr_label(names[rest])))
                    continue
            elif kind == KIND_BYTEARRAY:
                feed(_encode_bytes(bytes(item)))
                continue
            children = list_children(item)
            feed(b"E%d" % len(children))
            for label, child in reversed(children):
                push((False, child))
                push((True, _encode_label(label)))


def fingerprint(value: Any) -> StateFingerprint:
    """Digest the object graph rooted at *value* in one traversal.

    Reaches exactly what :func:`repro.core.state.graph.capture` reaches.
    """
    hasher = _Fingerprinter()
    hasher.add_value(value)
    return hasher.digest()


def fingerprint_frame(label_values: Iterable[Tuple[Any, Any]]) -> StateFingerprint:
    """Digest several labeled roots under one synthetic frame node.

    The frame-node shape matches
    :func:`repro.core.state.graph.capture_frame`, so a frame fingerprint
    equals another frame fingerprint iff the corresponding frame captures
    are :func:`~repro.core.state.graph.graphs_equal`.
    """
    hasher = _Fingerprinter()
    hasher.add_frame(label_values)
    return hasher.digest()
