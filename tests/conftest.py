"""Checks every tier-1 test module must pass on its way out.

Each test module leaves the process as it found it:

* no undo log is still active, and the same classes (normally none)
  carry a write barrier — a leaked barrier changes how every later
  write to that class is recorded;
* the ``SIGALRM`` handler is the one it found, and ``ITIMER_REAL`` is
  disarmed — a test's alarm watchdog must not outlive it;
* no chaos fault injector is armed, and no child process is alive;
* no submitted service subject's source is left in ``linecache``;
* the state layer's module caches are within their bounds.
"""

import importlib
import linecache
import multiprocessing
import signal

import pytest

from repro.core import cow
from repro.core.state import introspect
from repro.resilience import chaos

_fingerprint = importlib.import_module("repro.core.state.fingerprint")

#: Each bounded module cache of the state layer, with its bound.
_BOUNDED_CACHES = (
    ("introspect._TYPE_TABLE", introspect._TYPE_TABLE, introspect._TYPE_TABLE_MAX),
    ("introspect._INDEX_LABELS", introspect._INDEX_LABELS, introspect._INDEX_LABELS_MAX),
    ("introspect._ATTR_LABELS", introspect._ATTR_LABELS, introspect._ATTR_LABELS_MAX),
    ("introspect._SLOT_CACHE", introspect._SLOT_CACHE, introspect._SLOT_CACHE_MAX),
    ("fingerprint._TYPE_INFO", _fingerprint._TYPE_INFO, _fingerprint._TYPE_INFO_MAX),
    ("fingerprint._LABEL_CACHE", _fingerprint._LABEL_CACHE, _fingerprint._LABEL_CACHE_MAX),
    ("fingerprint._ATTR_LABELS", _fingerprint._ATTR_LABELS, _fingerprint._LABEL_CACHE_MAX),
)


def _service_sources():
    return {name for name in linecache.cache if name.startswith("<service:")}


@pytest.fixture(autouse=True, scope="module")
def process_left_as_found():
    barriers = set(cow._BARRIERS)
    alarm_handler = signal.getsignal(signal.SIGALRM)
    sources = _service_sources()
    yield
    assert not cow._ACTIVE_LOGS, f"barrier sinks left active: {cow._ACTIVE_LOGS}"
    after = set(cow._BARRIERS)
    assert after == barriers, "write barriers changed: " + ", ".join(
        sorted(
            f"{'+' if cls in after else '-'}{cls.__qualname__}"
            for cls in after ^ barriers
        )
    )
    assert signal.getsignal(signal.SIGALRM) == alarm_handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert chaos.active_injector() is None
    assert multiprocessing.active_children() == []
    assert _service_sources() <= sources, (
        "service sources left registered: "
        + ", ".join(sorted(_service_sources() - sources))
    )
    oversized = [
        f"{name} holds {len(cache)} > {bound}"
        for name, cache, bound in _BOUNDED_CACHES
        if len(cache) > bound
    ]
    assert not oversized, "module caches past their bounds: " + ", ".join(oversized)
