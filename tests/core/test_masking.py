"""Tests for atomicity wrappers and the Masker (Listing 2)."""

import pytest

from repro.core import cow
from repro.core.analyzer import Analyzer
from repro.core.injection import InjectionCampaign, make_injection_wrapper
from repro.core.masking import (
    STRATEGIES,
    CheckpointStrategy,
    Masker,
    MaskingStats,
    failure_atomic,
    get_strategy,
    make_atomicity_wrapper,
)
from repro.core.state import GraphBackend, capture, graphs_equal


class Ledger:
    def __init__(self):
        self.entries = []
        self.total = 0

    def add(self, amount):
        self.entries.append(amount)  # mutation before the guard
        if amount < 0:
            raise ValueError("negative amount")
        self.total += amount

    def merge(self, other):
        self.entries.extend(other.entries)
        other.entries.clear()  # mutates the argument too
        raise RuntimeError("merge always fails (for testing)")

    def ok(self):
        return self.total


def spec_for(name):
    specs = {s.name: s for s in Analyzer().analyze_class(Ledger)}
    return specs[name]


def test_wrapper_rolls_back_receiver_on_exception():
    wrapper = make_atomicity_wrapper(spec_for("add"))
    ledger = Ledger()
    wrapper(ledger, 5)
    before = capture(ledger)
    with pytest.raises(ValueError):
        wrapper(ledger, -1)
    assert graphs_equal(before, capture(ledger))


def test_wrapper_transparent_on_success():
    wrapper = make_atomicity_wrapper(spec_for("add"))
    ledger = Ledger()
    wrapper(ledger, 5)
    assert ledger.total == 5
    assert ledger.entries == [5]


def test_wrapper_rethrows_original_exception():
    wrapper = make_atomicity_wrapper(spec_for("add"))
    ledger = Ledger()
    with pytest.raises(ValueError, match="negative"):
        wrapper(ledger, -1)


def test_wrapper_rolls_back_mutable_arguments():
    wrapper = make_atomicity_wrapper(spec_for("merge"))
    a, b = Ledger(), Ledger()
    b.entries.append(7)
    with pytest.raises(RuntimeError):
        wrapper(a, b)
    assert b.entries == [7]
    assert a.entries == []


class Router:
    def route(self, hops, callback, path, **options):
        return callback(path) + hops


class _RecordingCheckpoints(CheckpointStrategy):
    """The snapshot strategy, keeping every root list it checkpoints."""

    name = "recording"

    def __init__(self):
        super().__init__()
        self.roots = []

    def checkpoint(self, roots):
        self.roots.append(roots)
        return super().checkpoint(roots)


class _RecordingCaptures(GraphBackend):
    """The graph backend, keeping every labeled root list it captures."""

    def __init__(self):
        super().__init__()
        self.frames = []

    def capture_frame(self, label_values, *, stats=None):
        self.frames.append(label_values)
        return super().capture_frame(label_values, stats=stats)


def test_atomicity_wrapper_checkpoints_the_roots_detection_captures(
    monkeypatch,
):
    spec = Analyzer().analyze_class(Router)[0]
    router, path, retry, sink = Router(), [1, 2], [0], {"k": 1}
    args = (router, 3, len, path)
    kwargs = {"sink": sink, "label": "x", "retry": retry}

    captures = _RecordingCaptures()
    campaign = InjectionCampaign(state_backend=captures)
    campaign.begin_run(10_000)  # a threshold no call reaches
    make_injection_wrapper(spec, campaign)(*args, **kwargs)
    campaign.end_run(completed=True, escaped=False)
    [frame] = captures.frames
    assert [label for label, _ in frame] == [
        "self", ("arg", 2), ("kwarg", "retry"), ("kwarg", "sink")
    ]

    strategy = _RecordingCheckpoints()
    monkeypatch.setitem(STRATEGIES, strategy.name, strategy)
    for checkpoint_args in (True, False):
        make_atomicity_wrapper(
            spec, checkpoint_args=checkpoint_args, strategy=strategy.name
        )(*args, **kwargs)
    full, receiver_only = strategy.roots
    assert len(full) == len(frame)
    assert all(value is root for value, (_, root) in zip(full, frame))
    assert len(receiver_only) == 1 and receiver_only[0] is router


def test_wrapper_checkpoint_args_disabled():
    wrapper = make_atomicity_wrapper(spec_for("merge"), checkpoint_args=False)
    a, b = Ledger(), Ledger()
    b.entries.append(7)
    with pytest.raises(RuntimeError):
        wrapper(a, b)
    assert a.entries == []  # receiver restored
    assert b.entries == []  # argument NOT restored


def test_stats_counters():
    stats = MaskingStats()
    wrapper = make_atomicity_wrapper(spec_for("add"), stats=stats)
    ledger = Ledger()
    wrapper(ledger, 1)
    with pytest.raises(ValueError):
        wrapper(ledger, -1)
    assert stats.wrapped_calls == 2
    assert stats.rollbacks == 1
    assert stats.per_method_calls["Ledger.add"] == 2
    assert stats.per_method_rollbacks["Ledger.add"] == 1
    assert stats.checkpointed_objects > 0


def test_masker_wraps_selected_methods_only():
    masker = Masker({"Ledger.add"})
    with masker:
        wrapped = masker.mask_class(Ledger)
        assert wrapped == ["Ledger.add"]
        assert getattr(Ledger.add, "_repro_kind", None) == "atomicity"
        assert not hasattr(Ledger.ok, "_repro_kind")
    assert not hasattr(Ledger.add, "_repro_kind")  # unweaved on exit


def test_masker_end_to_end_rollback():
    masker = Masker({"Ledger.add"})
    with masker:
        masker.mask_class(Ledger)
        ledger = Ledger()
        ledger.add(4)
        with pytest.raises(ValueError):
            ledger.add(-1)
        assert ledger.entries == [4]
        assert ledger.total == 4
    # after unmasking, the raw non-atomic behavior is back
    ledger = Ledger()
    with pytest.raises(ValueError):
        ledger.add(-1)
    assert ledger.entries == [-1]


def test_masker_class_without_selected_methods():
    class Unrelated:
        def work(self):
            return 1

    masker = Masker({"Ledger.add"})
    with masker:
        assert masker.mask_class(Unrelated) == []


def test_masker_from_classification():
    from repro.core.classify import classify
    from repro.core.runlog import NONATOMIC, RunLog

    log = RunLog()
    record = log.begin_run(1)
    record.injected_method = "X"
    record.add_mark("Ledger.add", NONATOMIC)
    masker = Masker.from_classification(classify(log))
    assert masker.methods == {"Ledger.add"}


def test_nested_masked_calls():
    class Outer:
        def __init__(self):
            self.ledger = Ledger()
            self.count = 0

        def record(self, amount):
            self.count += 1
            self.ledger.add(amount)  # may raise after count changed

    masker = Masker({"Ledger.add", "Outer.record"})
    with masker:
        masker.mask_class(Ledger)
        masker.mask_class(Outer)
        outer = Outer()
        outer.record(3)
        before = capture(outer)
        with pytest.raises(ValueError):
            outer.record(-1)
        assert graphs_equal(before, capture(outer))
        assert outer.count == 1


def test_failure_atomic_decorator_on_method():
    class Box:
        def __init__(self):
            self.items = []

        @failure_atomic
        def put_two(self, a, b):
            self.items.append(a)
            if b is None:
                raise ValueError("b required")
            self.items.append(b)

    box = Box()
    box.put_two(1, 2)
    with pytest.raises(ValueError):
        box.put_two(3, None)
    assert box.items == [1, 2]


def test_failure_atomic_decorator_with_options():
    stats = MaskingStats()

    class Box:
        def __init__(self):
            self.items = []

        @failure_atomic(stats=stats)
        def fill(self, values):
            for value in values:
                self.items.append(value)
                if value < 0:
                    raise ValueError("negative")

    box = Box()
    with pytest.raises(ValueError):
        box.fill([1, 2, -3])
    assert box.items == []
    assert stats.rollbacks == 1


def test_failure_atomic_on_free_function_mutating_argument():
    @failure_atomic
    def drain(queue):
        while queue:
            item = queue.pop()
            if item == "poison":
                raise RuntimeError("poison item")

    queue = ["poison", "b", "a"]
    with pytest.raises(RuntimeError):
        drain(queue)
    assert queue == ["poison", "b", "a"]


def test_masked_method_preserves_return_value():
    masker = Masker({"Ledger.ok"})
    with masker:
        masker.mask_class(Ledger)
        ledger = Ledger()
        assert ledger.ok() == 0


def test_atomic_block_rolls_back_on_exception():
    from repro.core.masking import atomic_block

    a, b = Ledger(), Ledger()
    a.add(1)
    with pytest.raises(ValueError):
        with atomic_block(a, b) as block:
            a.add(2)
            b.add(3)
            raise ValueError("fail after both mutations")
    assert a.entries == [1]
    assert b.entries == []
    assert block.rolled_back


def test_atomic_block_keeps_changes_on_success():
    from repro.core.masking import atomic_block

    ledger = Ledger()
    with atomic_block(ledger) as block:
        ledger.add(5)
    assert ledger.entries == [5]
    assert not block.rolled_back


def test_atomic_block_requires_objects():
    from repro.core.masking import atomic_block

    with pytest.raises(ValueError):
        atomic_block()


def test_atomic_block_never_swallows_exception():
    from repro.core.masking import atomic_block

    ledger = Ledger()
    with pytest.raises(KeyError):
        with atomic_block(ledger):
            raise KeyError("must propagate")


def test_atomic_block_nested():
    from repro.core.masking import atomic_block

    ledger = Ledger()
    with atomic_block(ledger):
        ledger.add(1)
        with pytest.raises(ValueError):
            with atomic_block(ledger):
                ledger.add(2)
                raise ValueError("inner")
        assert ledger.entries == [1]  # inner rollback only
        ledger.add(3)
    assert ledger.entries == [1, 3]


# -- checkpoint strategies --------------------------------------------------


class Point:
    def __init__(self, x, y):
        self.x = x
        self.y = y


@pytest.fixture
def undolog():
    strategy = get_strategy("undolog")
    strategy.cover([Point])
    yield strategy
    strategy.uncover([Point])


def test_strategy_registry():
    assert list(STRATEGIES) == ["snapshot", "undolog"]
    for name, strategy in STRATEGIES.items():
        assert strategy.name == name
        assert get_strategy(name) is strategy
    with pytest.raises(ValueError, match=r"\(known: snapshot, undolog\)"):
        get_strategy("graph")
    with pytest.raises(ValueError, match="unknown checkpoint strategy"):
        Masker({"Ledger.add"}, strategy="eager")


def test_snapshot_strategy_roundtrip():
    snapshot = get_strategy("snapshot")
    obj = Point(1, [2, 3])
    saved = snapshot.checkpoint([obj])
    assert snapshot.checkpoint_size(saved) > 0
    assert snapshot.rollback_size(saved) == 0
    obj.x = 99
    obj.y.append(4)
    snapshot.restore(saved)
    assert obj.x == 1 and obj.y == [2, 3]
    snapshot.commit(saved)  # no-op for eager checkpoints


def test_undolog_strategy_rollback(undolog):
    obj = Point(1, 2)
    saved = undolog.checkpoint([obj])
    assert undolog.checkpoint_size(saved) == 0  # nothing copied up front
    obj.x = 99
    assert undolog.rollback_size(saved) == 1
    undolog.restore(saved)
    assert obj.x == 1
    assert not cow._ACTIVE_LOGS


def test_undolog_strategy_commit_retires_the_log(undolog):
    obj = Point(1, 2)
    saved = undolog.checkpoint([obj])
    obj.x = 5
    undolog.commit(saved)
    assert not cow._ACTIVE_LOGS
    obj.x = 7  # writes after commit land nowhere
    assert obj.x == 7


def test_undolog_cover_installs_and_uncover_removes_the_barrier():
    undolog = get_strategy("undolog")
    before = dict(vars(Point))
    undolog.cover([Point])
    try:
        assert "__setattr__" in vars(Point)
    finally:
        undolog.uncover([Point])
    assert dict(vars(Point)) == before


def test_wrapper_kind_names_the_strategy():
    assert make_atomicity_wrapper(spec_for("add"))._repro_kind == "atomicity"
    wrapped = make_atomicity_wrapper(spec_for("add"), strategy="undolog")
    assert wrapped._repro_kind == "atomicity-undolog"


def test_undolog_masker_covers_every_class_it_is_given():
    class Audit:  # no wrapped method, but its writes must roll back too
        def __init__(self):
            self.count = 0

    class Account:
        def __init__(self):
            self.balance = 0
            self.audit = Audit()

        def deposit(self, amount):
            self.balance += amount
            self.audit.count += 1
            if amount < 0:
                raise ValueError("negative")

    stats = MaskingStats()
    with Masker({"Account.deposit"}, stats=stats, strategy="undolog") as masker:
        assert masker.mask_classes([Account, Audit]) == ["Account.deposit"]
        account = Account()
        account.deposit(5)
        with pytest.raises(ValueError):
            account.deposit(-1)
        assert (account.balance, account.audit.count) == (5, 1)
        assert stats.checkpointed_objects == 2  # the two writes undone
    for cls in (Account, Audit):
        assert "__setattr__" not in vars(cls)
        assert "__delattr__" not in vars(cls)
