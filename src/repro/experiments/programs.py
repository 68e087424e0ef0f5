"""Test programs for every application of the paper's evaluation.

Table 1 lists six C++ applications (the Self\\* framework apps) and ten
Java applications (the Doug Lea collections plus Jakarta Regexp).  Each
entry here is an :class:`AppProgram`: a deterministic, re-runnable
workload plus the classes the Code Weaver instruments for it.

Workloads are sized so a full injection sweep (one program execution per
injection point) stays laptop-fast, while still exercising every method
and the interesting error paths of each subject.  Hot one-line accessors
are excluded from instrumentation via the Analyzer's exclusion list (the
analog of the paper's web-interface exclusions).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Tuple

from repro.collections import (
    CircularList,
    CLCell,
    Dynarray,
    EmptyCollectionError,
    HashedMap,
    HashedSet,
    IllegalElementError,
    LinkedBuffer,
    LinkedList,
    LLCell,
    LLMap,
    LLPair,
    NoSuchElementError,
    RBMap,
    RBTree,
    KVPair,
    UpdatableCollection,
)
from repro.collections.linked_buffer import BufferChunk
from repro.collections.rb_tree import RBCell
from repro.regexp import (
    Compiler,
    Matcher,
    Parser,
    Regexp,
    RegexpSyntaxError,
)
from repro.regexp.program import Instruction, Program as RegexpProgram
from repro.selfstar.apps import (
    AdaptorChainApp,
    StdQApp,
    Xml2CTcpApp,
    Xml2CViaSc1App,
    Xml2CViaSc2App,
    Xml2XmlApp,
)
from repro.selfstar.apps.samples import XML_DOCUMENTS

__all__ = [
    "AppProgram",
    "CPP_PROGRAMS",
    "JAVA_PROGRAMS",
    "ALL_PROGRAMS",
    "program_by_name",
]

LANGUAGE_CPP = "C++"
LANGUAGE_JAVA = "Java"


@dataclass
class AppProgram:
    """One evaluation application: workload + instrumentation set."""

    name: str
    language: str
    classes: List[type]
    body: Callable[[], None]
    #: Method names (or "Class.method" keys) excluded from weaving.
    exclude: FrozenSet[str] = frozenset()
    #: Workload repetitions per program execution.  The paper's workloads
    #: produce thousands of injections; raising ``rounds`` moves ours
    #: toward that scale (campaign time grows quadratically with it).
    rounds: int = 1

    def __call__(self) -> None:
        for _ in range(self.rounds):
            self.body()

    def scaled(self, rounds: int) -> "AppProgram":
        """A copy of this application with a *rounds*-times workload."""
        if rounds < 1:
            raise ValueError("rounds must be >= 1")
        return AppProgram(
            name=self.name,
            language=self.language,
            classes=self.classes,
            body=self.body,
            exclude=self.exclude,
            rounds=rounds,
        )


# --------------------------------------------------------------------------
# C++ side: the Self* framework applications
# --------------------------------------------------------------------------

_SMALL_DOCS = XML_DOCUMENTS[:2]

#: XML parser/writer internals: treated as uninstrumentable library code,
#: the way the paper's Java flavor cannot instrument core classes
#: (Section 5.2).  Only the public entry points remain wrapped.
_XML_HOT = frozenset(
    {
        "XmlParser._peek",
        "XmlParser._advance",
        "XmlParser._starts_with",
        "XmlParser._error",
        "XmlParser._skip_whitespace",
        "XmlParser._skip_prolog",
        "XmlParser._skip_comments",
        "XmlParser._skip_one_comment",
        "XmlParser._parse_element",
        "XmlParser._parse_attributes",
        "XmlParser._parse_quoted",
        "XmlParser._parse_content",
        "XmlParser._expect_closing_tag",
        "XmlParser._parse_name",
        "XmlParser._parse_entity",
        "XmlWriter._write_element",
    }
)


def _adaptor_chain_body() -> None:
    AdaptorChainApp(batch_size=3).run()


def _std_q_body() -> None:
    StdQApp(capacity=4, burst=3).run(8)


def _xml2c_tcp_body() -> None:
    Xml2CTcpApp(error_rate=0.25, seed=11).run(XML_DOCUMENTS)


def _xml2c_viasc1_body() -> None:
    Xml2CViaSc1App().run(_SMALL_DOCS)


def _xml2c_viasc2_body() -> None:
    Xml2CViaSc2App(batch_size=2).run(_SMALL_DOCS)


def _xml2xml_body() -> None:
    Xml2XmlApp().run(XML_DOCUMENTS)


def _with_app(app_class: type, extra: Tuple[type, ...] = ()) -> List[type]:
    """Instrumentation set for one Self* app.

    The driver class itself is *not* woven: it is the test program ``P``
    of the paper's methodology, which drives the classified application
    classes but is not itself a classification subject (symmetric with
    the Java side, where the test bodies are plain functions).
    """
    classes = list(app_class.involved_classes())
    classes.extend(extra)
    seen = set()
    unique = []
    for cls in classes:
        if cls is not app_class and cls not in seen:
            seen.add(cls)
            unique.append(cls)
    return unique


CPP_PROGRAMS: List[AppProgram] = [
    AppProgram(
        name="adaptorChain",
        language=LANGUAGE_CPP,
        classes=_with_app(AdaptorChainApp),
        body=_adaptor_chain_body,
    ),
    AppProgram(
        name="stdQ",
        language=LANGUAGE_CPP,
        classes=_with_app(StdQApp),
        body=_std_q_body,
    ),
    AppProgram(
        name="xml2Ctcp",
        language=LANGUAGE_CPP,
        classes=_with_app(Xml2CTcpApp),
        body=_xml2c_tcp_body,
        exclude=_XML_HOT | {"decide", "mangle", "_initializer_literal", "_emit_struct", "_emit_initializer"},
    ),
    AppProgram(
        name="xml2Cviasc1",
        language=LANGUAGE_CPP,
        classes=_with_app(Xml2CViaSc1App),
        body=_xml2c_viasc1_body,
        exclude=_XML_HOT | {"mangle", "_initializer_literal", "_emit_struct", "_emit_initializer"},
    ),
    AppProgram(
        name="xml2Cviasc2",
        language=LANGUAGE_CPP,
        classes=_with_app(Xml2CViaSc2App),
        body=_xml2c_viasc2_body,
        exclude=_XML_HOT | {"mangle", "_initializer_literal", "_emit_struct", "_emit_initializer"},
    ),
    AppProgram(
        name="xml2xml1",
        language=LANGUAGE_CPP,
        classes=_with_app(Xml2XmlApp),
        body=_xml2xml_body,
        exclude=_XML_HOT | {"_write_element", "transform_element"},
    ),
]


# --------------------------------------------------------------------------
# Java side: the collections and Regexp applications
# --------------------------------------------------------------------------


def _read_phase(collection, probes) -> None:
    """Query-heavy traffic: the read-mostly usage real callers generate."""
    for _ in range(3):
        collection.size()
        collection.is_empty()
        for probe in probes:
            collection.contains(probe)


def _circular_list_body() -> None:
    ring = CircularList()
    for value in (2, 3, 4):
        ring.insert_last(value)
    ring.insert_first(1)
    ring.insert_at(2, 9)
    for index in range(ring.size()):
        ring.get_at(index)
    _read_phase(ring, (1, 9, 42))
    ring.index_of(9)
    ring.replace_at(0, 7)
    ring.rotate(2)
    ring.remove_at(1)
    ring.remove_element(9)
    ring.remove_first()
    ring.remove_last()
    try:
        ring.get_at(99)
    except NoSuchElementError:
        pass
    try:
        CircularList().remove_first()
    except EmptyCollectionError:
        pass
    ring.clear()


def _dynarray_body() -> None:
    array = Dynarray(capacity=2, screener=lambda e: e != "bad")
    for value in range(5):
        array.append(value)
    array.insert_at(2, 99)
    array.replace_at(0, -1)
    array.remove_at(3)
    array.remove_element(99)
    for index in range(array.size()):
        array.get_at(index)
    _read_phase(array, (0, 4, "missing"))
    array.index_of(4)
    array.sort()
    array.trim_to_size()
    try:
        array.insert_at(1, "bad")  # screener failure mid-shift
    except IllegalElementError:
        pass
    try:
        array.get_at(50)
    except NoSuchElementError:
        pass
    array.clear()


def _hashed_map_body() -> None:
    mapping = HashedMap(capacity=2)
    for key in range(6):  # forces one growth/rehash
        mapping.put(f"k{key}", key)
    mapping.put("k1", 11)
    for key in ("k1", "k2", "k3", "k4", "k5"):
        mapping.get(key)
        mapping.contains_key(key)
    mapping.get_or_default("missing", 0)
    mapping.size()
    mapping.is_empty()
    mapping.remove_key("k0")
    mapping.items()
    mapping.keys()
    mapping.values()
    try:
        mapping.get("missing")
    except NoSuchElementError:
        pass
    mapping.clear()


def _hashed_set_body() -> None:
    hashed = HashedSet(capacity=2)
    hashed.union_update([1, 2, 3, 4, 5])  # forces growth
    hashed.add(3)
    for probe in (1, 2, 3, 4, 5, 6, 7):
        hashed.contains(probe)
    hashed.size()
    hashed.is_empty()
    hashed.remove(2)
    hashed.discard(99)
    hashed.intersection_update([1, 3, 5])
    try:
        hashed.remove(2)
    except NoSuchElementError:
        pass
    hashed.clear()


def _ll_map_body() -> None:
    mapping = LLMap()
    mapping.update({"a": 1, "b": 2, "c": 3})
    mapping.put("a", 9)
    for key in ("a", "b", "c", "z"):
        mapping.contains_key(key)
        mapping.get_or_default(key, 0)
    mapping.get("b")
    mapping.size()
    mapping.keys()
    mapping.values()
    mapping.replace_values(9, 10)
    mapping.remove_key("c")
    try:
        mapping.remove_key("zz")
    except NoSuchElementError:
        pass
    mapping.clear()


def _linked_buffer_body() -> None:
    buffer = LinkedBuffer(chunk_size=4)
    buffer.append_text("hello, world")
    for _ in range(6):
        buffer.peek()
        buffer.size()
        buffer.text()
    buffer.chunk_count()
    buffer.take_char()
    buffer.take_text(4)
    buffer.compact()
    buffer.append_char("!")
    try:
        buffer.take_text(100)
    except NoSuchElementError:
        pass
    buffer.clear()


def _linked_list_body() -> None:
    lst = LinkedList()
    lst.extend([3, 1, 2])
    lst.insert_first(0)
    lst.insert_at(2, 9)
    for index in range(lst.size()):
        lst.get_at(index)
    _read_phase(lst, (0, 9, 42))
    lst.index_of(9)
    lst.first()
    lst.last()
    lst.replace_at(0, 5)
    lst.replace_all(9, 7)
    lst.remove_at(2)
    lst.remove_element(7)
    lst.remove_first()
    lst.remove_last()
    lst.extend([4, 5])
    lst.reverse()
    lst.removed_duplicates()
    try:
        lst.get_at(99)
    except NoSuchElementError:
        pass
    try:
        LinkedList().remove_last()
    except EmptyCollectionError:
        pass
    lst.clear()


def _rb_map_body() -> None:
    mapping = RBMap()
    mapping.update({"m": 1, "a": 2, "z": 3, "q": 4})
    mapping.put("a", 9)
    for key in ("m", "a", "z", "q", "nope"):
        mapping.contains_key(key)
        mapping.get_or_default(key)
    mapping.get("m")
    mapping.first_key()
    mapping.last_key()
    mapping.keys()
    mapping.size()
    mapping.remove_key("m")
    try:
        mapping.get("nope")
    except NoSuchElementError:
        pass
    mapping.clear()


def _rb_tree_body() -> None:
    tree = RBTree()
    tree.extend([5, 2, 8, 1, 9, 3])
    tree.insert(2)  # duplicate
    for probe in (1, 2, 3, 5, 8, 9, 42):
        tree.contains(probe)
    tree.minimum()
    tree.maximum()
    tree.height()
    tree.size()
    tree.is_empty()
    tree.remove(5)
    tree.take_minimum()
    try:
        tree.remove(42)
    except NoSuchElementError:
        pass
    tree.clear()


def _regexp_body() -> None:
    # compile once, match many: the typical usage profile of the library
    regexp = Regexp("(a|b)+c?")
    for text in (
        "abac", "bbb", "xyz", "c", "ab", "", "aabbc", "ba",
        "cab", "abcabc", "bbbb", "ac",
    ):
        regexp.match(text)
        regexp.fullmatch(text)
    regexp.search("xxabc")
    regexp.findall("ab ba")
    Regexp("\\d{2}").substitute("a12b34", "#")
    try:
        Regexp("(unclosed")
    except RegexpSyntaxError:
        pass


_COLLECTION_BASE = (UpdatableCollection,)

#: Tiny per-node plumbing excluded from weaving in the regexp subject
#: (per-character parser steps and per-instruction VM internals).
_REGEXP_HOT = frozenset(
    {
        "_peek",
        "_next",
        "_error",
        "_lookahead",
        "_greedy",
        "_class_char",
        "class_matches",
        "describe",
    }
)

JAVA_PROGRAMS: List[AppProgram] = [
    AppProgram(
        name="CircularList",
        language=LANGUAGE_JAVA,
        classes=[UpdatableCollection, CircularList, CLCell],
        body=_circular_list_body,
    ),
    AppProgram(
        name="Dynarray",
        language=LANGUAGE_JAVA,
        classes=[UpdatableCollection, Dynarray],
        body=_dynarray_body,
    ),
    AppProgram(
        name="HashedMap",
        language=LANGUAGE_JAVA,
        classes=[UpdatableCollection, HashedMap, LLPair],
        body=_hashed_map_body,
    ),
    AppProgram(
        name="HashedSet",
        language=LANGUAGE_JAVA,
        classes=[UpdatableCollection, HashedSet],
        body=_hashed_set_body,
    ),
    AppProgram(
        name="LLMap",
        language=LANGUAGE_JAVA,
        classes=[UpdatableCollection, LLMap, LLPair],
        body=_ll_map_body,
    ),
    AppProgram(
        name="LinkedBuffer",
        language=LANGUAGE_JAVA,
        classes=[UpdatableCollection, LinkedBuffer, BufferChunk],
        body=_linked_buffer_body,
    ),
    AppProgram(
        name="LinkedList",
        language=LANGUAGE_JAVA,
        classes=[UpdatableCollection, LinkedList, LLCell],
        body=_linked_list_body,
    ),
    AppProgram(
        name="RBMap",
        language=LANGUAGE_JAVA,
        classes=[UpdatableCollection, RBMap, RBTree, RBCell, KVPair],
        body=_rb_map_body,
    ),
    AppProgram(
        name="RBTree",
        language=LANGUAGE_JAVA,
        classes=[UpdatableCollection, RBTree, RBCell],
        body=_rb_tree_body,
    ),
    AppProgram(
        name="RegExp",
        language=LANGUAGE_JAVA,
        classes=[Regexp, Parser, Compiler, RegexpProgram, Instruction, Matcher],
        body=_regexp_body,
        exclude=_REGEXP_HOT,
    ),
]

ALL_PROGRAMS: List[AppProgram] = CPP_PROGRAMS + JAVA_PROGRAMS

_BY_NAME: Dict[str, AppProgram] = {p.name: p for p in ALL_PROGRAMS}


def program_by_name(name: str) -> AppProgram:
    """Look up an evaluation program by its Table 1 name."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(
            f"unknown application {name!r}; choose from {sorted(_BY_NAME)}"
        ) from None
