"""Ask a transparency index about a frame while it is suspended.

A certificate depends on the instruction a frame is suspended at and on
what its names are bound to at that moment, so the tests query it from
inside a callee, as the trace pass does at a wrapper entry.
"""

import sys

from repro.core.tracepass import TransparencyIndex
from repro.core.tracepass.transparency import caught_by

#: CPython 3.11+ certifies frames from their exception tables.
HAS_EXCEPTIONTABLE = hasattr((lambda: None).__code__, "co_exceptiontable")

#: The handler shapes the tests expect are those of CPython 3.11's
#: bytecode; another interpreter's decoder may certify less, by
#: answering None, but never something else.
SHAPES_PINNED = sys.version_info[:2] == (3, 11)


def assert_certifies(found, expected):
    """*found* is the expected answer, or, off the pinned interpreter,
    None."""
    if SHAPES_PINNED or found is not None:
        assert found == expected


def catchers_at(subject, *args, index=None):
    """``index.catchers`` of the frame that calls the probe passed to
    *subject* as its first argument, asked during that call (a fresh
    index unless one is given)."""
    index = TransparencyIndex() if index is None else index
    seen = []

    def probe(*_args, **_kwargs):
        seen.append(index.catchers(sys._getframe(1)))

    subject(probe, *args)
    (answer,) = seen
    return answer


def passing_types(catchers, types):
    """The members of *types*, in order, that no catcher catches; none
    when the frame certifies no type."""
    if catchers is None:
        return ()
    return tuple(t for t in types if not caught_by(t, catchers))
