"""The StateBackend protocol: the detection registry and its semantics."""

import pytest

from repro.core import InjectionCampaign
from repro.core.masking import get_strategy
from repro.core.state import (
    BACKENDS,
    FingerprintBackend,
    GraphBackend,
    StateBackend,
    StateFingerprint,
    StateStats,
    get_backend,
)
from repro.experiments import program_by_name, run_app_campaign


class Point:
    def __init__(self, x, y):
        self.x = x
        self.y = y


def _summary(backend, value, stats=None):
    return backend.capture_frame([("self", value)], stats=stats)


# -- registry -------------------------------------------------------------


def test_registry_names():
    assert list(BACKENDS) == ["graph", "fingerprint"]
    for name, backend in BACKENDS.items():
        assert backend.name == name


def test_detection_backends_excludes_undolog():
    # The undo log is a masking strategy (repro.core.masking.STRATEGIES):
    # it has no summary of its own, so detection never offers it.
    assert "undolog" not in BACKENDS


def test_get_backend_resolution():
    assert get_backend(None) is BACKENDS["graph"]
    assert get_backend("fingerprint") is BACKENDS["fingerprint"]
    instance = GraphBackend()
    assert get_backend(instance) is instance


def test_get_backend_unknown_name_lists_known():
    with pytest.raises(ValueError, match="unknown state backend"):
        get_backend("merkle")
    with pytest.raises(ValueError, match="fingerprint"):
        get_backend("nope")


def test_get_backend_refuses_undolog():
    with pytest.raises(ValueError, match=r"\(known: fingerprint, graph\)"):
        get_backend("undolog")


def test_campaign_refuses_undolog():
    with pytest.raises(ValueError, match=r"\(known: fingerprint, graph\)"):
        InjectionCampaign(state_backend="undolog")


@pytest.mark.parametrize("workers", (None, 2))
def test_run_app_campaign_refuses_undolog(workers):
    with pytest.raises(ValueError, match=r"\(known: fingerprint, graph\)"):
        run_app_campaign(
            program_by_name("LLMap"), workers=workers, state_backend="undolog"
        )


# -- capture/diff semantics agree across backends -------------------------


@pytest.mark.parametrize("name", tuple(BACKENDS))
def test_equal_states_have_no_diff(name):
    backend = get_backend(name)
    a = _summary(backend, Point(1, [2, 3]))
    b = _summary(backend, Point(1, [2, 3]))
    assert backend.diff(a, b) is None


@pytest.mark.parametrize("name", tuple(BACKENDS))
def test_changed_states_diff(name):
    backend = get_backend(name)
    a = _summary(backend, Point(1, [2, 3]))
    b = _summary(backend, Point(1, [2, 3, 4]))
    assert backend.diff(a, b) is not None


def test_fingerprint_backend_is_lossy_graph_is_not():
    assert get_backend("fingerprint").lossy_diff
    assert not get_backend("graph").lossy_diff


def test_fingerprint_diff_reason_names_the_digests():
    backend = FingerprintBackend()
    a = _summary(backend, [1])
    b = _summary(backend, [2])
    difference = backend.diff(a, b)
    assert "fingerprint changed" in difference.reason
    assert a in difference.reason and b in difference.reason


def test_fingerprint_capture_returns_digest():
    summary = _summary(get_backend("fingerprint"), Point(0, 0))
    assert isinstance(summary, StateFingerprint)


# -- eager checkpoint, judged by each backend -----------------------------


@pytest.mark.parametrize("name", tuple(BACKENDS))
def test_eager_checkpoint_roundtrip(name):
    # The eager checkpoint is masking's ``snapshot`` strategy; a rollback
    # must leave a state every detection backend calls unchanged.
    backend = get_backend(name)
    snapshot = get_strategy("snapshot")
    obj = Point(1, [2, 3])
    before = _summary(backend, obj)
    cp = snapshot.checkpoint([obj])
    assert snapshot.checkpoint_size(cp) > 0
    assert snapshot.rollback_size(cp) == 0
    obj.x = 99
    obj.y.append(4)
    assert backend.diff(before, _summary(backend, obj)) is not None
    snapshot.restore(cp)
    assert obj.x == 1 and obj.y == [2, 3]
    assert backend.diff(before, _summary(backend, obj)) is None
    snapshot.commit(cp)  # no-op for eager checkpoints


# -- stats ----------------------------------------------------------------


def test_stats_counted_per_operation():
    stats = StateStats()
    backend = get_backend("graph")
    a = _summary(backend, Point(1, 2), stats)
    b = _summary(backend, Point(1, 2), stats)
    backend.diff(a, b, stats=stats)
    assert stats.captures == 2
    assert stats.compares == 1
    assert stats.seconds >= 0.0

    fp_stats = StateStats()
    fp = get_backend("fingerprint")
    x = _summary(fp, Point(1, 2), fp_stats)
    y = _summary(fp, Point(1, 2), fp_stats)
    fp.diff(x, y, stats=fp_stats)
    assert fp_stats.fingerprints == 2
    assert fp_stats.captures == 0
    assert fp_stats.compares == 1


def test_backend_repr_names_backend():
    assert "graph" in repr(get_backend("graph"))
    assert isinstance(get_backend("graph"), StateBackend)
    assert isinstance(get_backend("fingerprint"), FingerprintBackend)
