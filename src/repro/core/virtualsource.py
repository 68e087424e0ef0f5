"""Source registry for classes built from generated (virtual) modules.

Several subsystems materialize subject programs from *rendered* source
rather than files on disk: the fuzz builder ``exec``'s the source a
:class:`~repro.fuzz.spec.ProgramSpec` renders to, and the variant
builder ``exec``'s transformed module sources.  Downstream passes then
read that source back through the ordinary ``inspect`` machinery — the
trace pass's transparency index certifies suspended lines, and
tracebacks want real lines — so every generated module must be
registered with :mod:`linecache` under its synthetic ``<...>``
filename.

:func:`register_virtual_source` is the one shared way to do that.  The
angle-bracket convention matters: ``inspect.getsource`` only consults
``linecache`` for filenames of the form ``<...>`` (anything else must
exist on disk), and ``linecache.checkcache`` purges entries whose
filename looks like a real path that no longer exists.
"""

from __future__ import annotations

import linecache

__all__ = [
    "register_virtual_source",
    "unregister_virtual_source",
    "virtual_source_registered",
]


def register_virtual_source(filename: str, source: str) -> str:
    """Register *source* under *filename* so ``inspect.getsource`` works.

    Args:
        filename: the synthetic filename the module's code objects carry
            (``compile(source, filename, "exec")``).  Must be wrapped in
            angle brackets — that is what makes ``inspect`` fall through
            to ``linecache`` instead of requiring a file on disk.
        source: the module source text.

    Returns:
        The filename, for convenient chaining into ``compile``.
    """
    if not (filename.startswith("<") and filename.endswith(">")):
        raise ValueError(
            f"virtual filename {filename!r} must be <angle-bracketed>; "
            "inspect.getsource only consults linecache for such names"
        )
    linecache.cache[filename] = (
        len(source),
        None,
        source.splitlines(True),
        filename,
    )
    return filename


def unregister_virtual_source(filename: str) -> None:
    """Drop a registered module (tests use this to simulate sourceless
    subjects — e.g. the trace pass's ``transparency`` fallback)."""
    linecache.cache.pop(filename, None)


def virtual_source_registered(filename: str) -> bool:
    """True when *filename* currently resolves in the registry."""
    return filename in linecache.cache
