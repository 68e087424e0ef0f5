"""No code under ``src/`` posts asynchronous exceptions into threads.

``PyThreadState_SetAsyncExc`` raises an exception in another thread at
its next bytecode boundary — inside any ``finally``, ``Weaver.__exit__``
included — which is exactly the half-finished exception handling this
project detects in others.  The engines used it to kill hung runs and
shards; now a per-run budget is ``SIGALRM`` on the main thread of a
shard process, and a hung shard is a process that gets killed.  This
test keeps it that way.

Deliberately a source grep, not an import hook: it catches uses in
modules that are never imported by the test run.
"""

import os

SRC_ROOT = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "src"
)

FORBIDDEN = "PyThreadState_SetAsyncExc"


def test_no_async_exceptions_under_src():
    found = []
    for dirpath, _dirnames, filenames in os.walk(SRC_ROOT):
        for filename in filenames:
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            with open(path, encoding="utf-8") as handle:
                for number, line in enumerate(handle, start=1):
                    if FORBIDDEN in line:
                        rel = os.path.relpath(path, SRC_ROOT)
                        found.append(f"{rel}:{number}")
    assert not found, f"{FORBIDDEN} used at: " + ", ".join(found)
