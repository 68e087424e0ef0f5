"""No code under ``src/`` stops a run from inside its own process.

``PyThreadState_SetAsyncExc`` raises an exception in another thread at
its next bytecode boundary — inside any ``finally``, ``Weaver.__exit__``
included — which is exactly the half-finished exception handling this
project detects in others.  A ``SIGALRM`` handler (armed by
``signal.alarm`` or ``setitimer``) does the same to the main thread.
The engines used both to stop hung runs and shards; now the supervisor
is the one clock, and a run or shard process that outlives its limit
is a process that gets killed.  This test keeps it that way, so a
second, in-process kill path cannot come back unnoticed.

Deliberately a source grep, not an import hook: it catches uses in
modules that are never imported by the test run.
"""

import os

SRC_ROOT = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "src"
)

FORBIDDEN = (
    "PyThreadState_SetAsyncExc",
    "SIGALRM",
    "setitimer",
    "signal.alarm",
)


def test_no_async_exceptions_under_src():
    found = []
    for dirpath, _dirnames, filenames in os.walk(SRC_ROOT):
        for filename in filenames:
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            with open(path, encoding="utf-8") as handle:
                for number, line in enumerate(handle, start=1):
                    for name in FORBIDDEN:
                        if name in line:
                            rel = os.path.relpath(path, SRC_ROOT)
                            found.append(f"{name} at {rel}:{number}")
    assert not found, "in-process kill path: " + ", ".join(found)
