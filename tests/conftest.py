"""Checks every tier-1 test module must pass on its way out.

Each test module leaves the process's write-barrier state as it found
it: no undo log or trace recorder is still the active barrier sink, and
the same classes (normally none) carry a write barrier.  A leaked
barrier changes how every later write to that class is recorded.
"""

import pytest

from repro.core import cow


@pytest.fixture(autouse=True, scope="module")
def write_barriers_left_as_found():
    before = set(cow._BARRIERS)
    yield
    assert not cow._ACTIVE_LOGS, f"barrier sinks left active: {cow._ACTIVE_LOGS}"
    after = set(cow._BARRIERS)
    assert after == before, "write barriers changed: " + ", ".join(
        sorted(
            f"{'+' if cls in after else '-'}{cls.__qualname__}"
            for cls in after ^ before
        )
    )
