"""The masking phase: atomicity wrappers (Listing 2, Steps 4 and 5).

An atomicity wrapper checkpoints the receiver's object graph before
calling the wrapped method; if the method exits with an exception, the
wrapper restores the checkpointed state *in place* and re-throws.  Callers
therefore observe failure atomic behavior: either the method completed, or
the object graph is exactly what it was before the call.

:class:`Masker` drives Steps 4–5: given a classification and a policy, it
weaves atomicity wrappers for exactly the methods that need them (by
default the *pure* failure non-atomic ones — conditional methods become
atomic for free once their callees are masked, Section 4.3).

:func:`failure_atomic` is the standalone decorator form for programmers
who want the "checkpoint, execute, roll back on exception" idiom directly.

Every wrapper checkpoints through one of two strategies, chosen by name
from :data:`STRATEGIES`: ``snapshot`` copies the reachable state eagerly
(Listing 2's ``deep_copy``), ``undolog`` logs the first write of each
attribute through a class write barrier (§6.2's copy-on-write, cost
∝ writes, not object size).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from .analyzer import Analyzer, MethodSpec
from .classify import ClassificationResult
from .cow import UndoLog, install_write_barrier, remove_write_barrier
from .policy import WrapPolicy, select_methods_to_wrap
from .runlog import MethodKey
from .state import Checkpoint, checkpoint
from .state.introspect import root_values
from .weaver import Weaver

__all__ = [
    "CheckpointStrategy",
    "STRATEGIES",
    "get_strategy",
    "MaskingStats",
    "make_atomicity_wrapper",
    "Masker",
    "failure_atomic",
    "atomic_block",
]


class CheckpointStrategy:
    """How an atomicity wrapper saves state and rolls it back.

    The base class is the eager ``snapshot`` strategy: :meth:`checkpoint`
    copies everything reachable from the roots, :meth:`restore` writes
    it back in place.
    """

    #: registry name; what ``strategy=`` and ``--strategy`` carry.
    name = "snapshot"
    #: ``_repro_kind`` tag stamped on the wrappers using this strategy.
    kind = "atomicity"
    #: Whether :meth:`checkpoint` reads its roots; a wrapper selects
    #: none for a strategy that does not.
    reads_roots = True

    def cover(self, classes: Iterable[type]) -> None:
        """Make writes to instances of *classes* restorable."""

    def uncover(self, classes: Iterable[type]) -> None:
        """Undo :meth:`cover`."""

    def checkpoint(self, roots: Sequence[Any]) -> Any:
        return checkpoint(*roots)

    def restore(self, saved: Checkpoint) -> None:
        saved.restore()

    def commit(self, saved: Any) -> None:
        """Retire a checkpoint after the call returned (default no-op)."""

    def checkpoint_size(self, saved: Checkpoint) -> int:
        """Objects recorded *at checkpoint time* (for MaskingStats)."""
        return saved.recorded_count

    def rollback_size(self, saved: Any) -> int:
        """Extra objects counted *at rollback time* (for MaskingStats)."""
        return 0


class UndoLogStrategy(CheckpointStrategy):
    """A :class:`~repro.core.cow.UndoLog` region per call.

    Roots are implicit: the write barrier, installed by :meth:`cover`,
    routes every attribute write on a covered class into the innermost
    active log, whatever object it lands on, so a checkpoint copies
    nothing.  Writes that bypass the barrier — in-place container
    mutation, or instances of uncovered classes — are not rolled back.
    """

    name = "undolog"
    kind = "atomicity-undolog"
    reads_roots = False

    def cover(self, classes: Iterable[type]) -> None:
        for cls in classes:
            install_write_barrier(cls)

    def uncover(self, classes: Iterable[type]) -> None:
        for cls in classes:
            remove_write_barrier(cls)

    def checkpoint(self, roots: Sequence[Any]) -> UndoLog:
        return UndoLog().__enter__()

    def restore(self, saved: UndoLog) -> None:
        try:
            saved.rollback()
        finally:
            saved.__exit__(None, None, None)

    def commit(self, saved: UndoLog) -> None:
        # Exiting absorbs the log into any enclosing active log, keeping
        # nested-region rollback sound (see UndoLog.__exit__).
        saved.__exit__(None, None, None)

    def checkpoint_size(self, saved: UndoLog) -> int:
        return 0  # nothing is copied up front — that is the point

    def rollback_size(self, saved: UndoLog) -> int:
        return saved.recorded_writes


#: The masking registry; strategies are stateless, so instances are shared.
STRATEGIES: Dict[str, CheckpointStrategy] = {
    strategy.name: strategy
    for strategy in (CheckpointStrategy(), UndoLogStrategy())
}


def get_strategy(name: str) -> CheckpointStrategy:
    """Resolve a checkpoint strategy name."""
    try:
        return STRATEGIES[name]
    except KeyError:
        known = ", ".join(STRATEGIES)
        raise ValueError(
            f"unknown checkpoint strategy {name!r} (known: {known})"
        ) from None


@dataclass
class MaskingStats:
    """Counters kept by atomicity wrappers (used by the overhead benches)."""

    wrapped_calls: int = 0
    rollbacks: int = 0
    checkpointed_objects: int = 0
    per_method_calls: Dict[MethodKey, int] = field(default_factory=dict)
    per_method_rollbacks: Dict[MethodKey, int] = field(default_factory=dict)

    def note_call(self, method: MethodKey, recorded: int) -> None:
        self.wrapped_calls += 1
        self.checkpointed_objects += recorded
        self.per_method_calls[method] = self.per_method_calls.get(method, 0) + 1

    def note_rollback(self, method: MethodKey) -> None:
        self.rollbacks += 1
        self.per_method_rollbacks[method] = (
            self.per_method_rollbacks.get(method, 0) + 1
        )


def make_atomicity_wrapper(
    spec: MethodSpec,
    *,
    stats: Optional[MaskingStats] = None,
    checkpoint_args: bool = True,
    strategy: str = "snapshot",
) -> Callable:
    """Build the atomicity wrapper of Listing 2 for one method.

    Args:
        strategy: the name of a :data:`STRATEGIES` entry.  Under
            ``undolog`` the classes the method writes to must be covered
            (:meth:`CheckpointStrategy.cover`).
    """
    original = spec.func
    has_receiver = spec.has_receiver
    state = get_strategy(strategy)
    reads_roots = state.reads_roots

    @functools.wraps(original)
    def atomic_m(*args: Any, **kwargs: Any) -> Any:
        roots = (
            root_values(has_receiver, args, kwargs, with_args=checkpoint_args)
            if reads_roots
            else ()
        )
        saved = state.checkpoint(roots)
        if stats is not None:
            stats.note_call(spec.key, state.checkpoint_size(saved))
        try:
            result = original(*args, **kwargs)
        except BaseException:
            state.restore(saved)
            if stats is not None:
                stats.checkpointed_objects += state.rollback_size(saved)
                stats.note_rollback(spec.key)
            raise
        state.commit(saved)
        return result

    atomic_m._repro_wrapped = original  # type: ignore[attr-defined]
    atomic_m._repro_spec = spec  # type: ignore[attr-defined]
    atomic_m._repro_kind = state.kind  # type: ignore[attr-defined]
    return atomic_m


class Masker:
    """Applies the masking phase to a set of classes.

    Args:
        methods: the methods to wrap, normally the output of
            :func:`repro.core.policy.select_methods_to_wrap`.
        stats: optional shared counters.
        analyzer: method discovery; defaults to a fresh :class:`Analyzer`.
        strategy: the wrappers' checkpoint strategy (:data:`STRATEGIES`);
            every class handed to :meth:`mask_class` is covered by it.

    The masker is a context manager; on exit it unweaves every wrapper
    and uncovers every class, restoring the original classes.
    """

    def __init__(
        self,
        methods: Iterable[MethodKey],
        *,
        stats: Optional[MaskingStats] = None,
        analyzer: Optional[Analyzer] = None,
        checkpoint_args: bool = True,
        strategy: str = "snapshot",
    ) -> None:
        self.methods = set(methods)
        self.stats = stats if stats is not None else MaskingStats()
        self._checkpoint_args = checkpoint_args
        self._strategy = get_strategy(strategy)
        self._weaver = Weaver(self._factory, analyzer)
        self._covered: List[type] = []
        self.wrapped: List[MethodKey] = []

    @classmethod
    def from_classification(
        cls,
        classification: ClassificationResult,
        policy: Optional[WrapPolicy] = None,
        **kwargs: Any,
    ) -> "Masker":
        """Masker for the methods a classification + policy selects."""
        policy = policy or WrapPolicy()
        return cls(select_methods_to_wrap(classification, policy), **kwargs)

    def _factory(self, spec: MethodSpec) -> Callable:
        return make_atomicity_wrapper(
            spec,
            stats=self.stats,
            checkpoint_args=self._checkpoint_args,
            strategy=self._strategy.name,
        )

    def mask_class(self, cls: type) -> List[MethodKey]:
        """Wrap the selected methods that *cls* defines; return their keys."""
        self._strategy.cover([cls])
        self._covered.append(cls)
        analyzer = self._weaver._analyzer
        wanted = [
            spec.name
            for spec in analyzer.analyze_class(cls)
            if spec.key in self.methods
        ]
        if not wanted:
            return []
        specs = self._weaver.weave_class(cls, methods=wanted)
        keys = [spec.key for spec in specs]
        self.wrapped.extend(keys)
        return keys

    def mask_module_functions(self, module) -> List[MethodKey]:
        """Wrap the selected module-level functions of *module*."""
        import inspect as _inspect

        prefix = f"{module.__name__}."
        wanted = [
            name
            for name, value in vars(module).items()
            if _inspect.isfunction(value) and prefix + name in self.methods
        ]
        if not wanted:
            return []
        specs = self._weaver.weave_module_functions(module, functions=wanted)
        keys = [spec.key for spec in specs]
        self.wrapped.extend(keys)
        return keys

    def mask_classes(self, classes: Iterable[type]) -> List[MethodKey]:
        keys: List[MethodKey] = []
        for cls in classes:
            keys.extend(self.mask_class(cls))
        return keys

    def unmask_all(self) -> None:
        self._weaver.unweave_all()
        self._strategy.uncover(self._covered)
        self._covered.clear()
        self.wrapped.clear()

    def __enter__(self) -> "Masker":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.unmask_all()


class atomic_block:
    """Failure atomicity for an arbitrary code block.

    The block form of Listing 2: checkpoint the given objects on entry;
    if the block exits with an exception, restore them in place and let
    the exception propagate::

        with atomic_block(account, ledger):
            account.debit(amount)
            ledger.append(entry)     # a failure rolls BOTH back

    The checkpoint covers everything reachable from the listed objects,
    with the same aliasing-preserving in-place restore the method
    wrappers use.
    """

    def __init__(self, *objects: Any) -> None:
        if not objects:
            raise ValueError("atomic_block needs at least one object")
        self._objects = objects
        self._saved: Optional[Any] = None
        self.rolled_back = False

    def __enter__(self) -> "atomic_block":
        self._saved = checkpoint(*self._objects)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None and self._saved is not None:
            self._saved.restore()
            self.rolled_back = True
        self._saved = None
        return False  # never swallow the exception


def failure_atomic(
    func: Optional[Callable] = None,
    *,
    checkpoint_args: bool = True,
    stats: Optional[MaskingStats] = None,
    strategy: str = "snapshot",
) -> Callable:
    """Decorator form of the atomicity wrapper.

    Makes a method (or any function mutating its arguments) failure
    atomic::

        class Account:
            @failure_atomic
            def transfer(self, other, amount): ...

    With no parentheses it decorates directly; with keyword arguments it
    returns a configured decorator.  Under ``strategy="undolog"`` the
    classes the function writes to must be covered first, e.g.
    ``STRATEGIES["undolog"].cover([Account])``.
    """

    def decorate(target: Callable) -> Callable:
        spec = MethodSpec(
            owner=None,
            name=target.__name__,
            func=target,
            key=getattr(target, "__qualname__", target.__name__),
            kind="method",  # first positional argument is the receiver
            exceptions=(),
        )
        return make_atomicity_wrapper(
            spec,
            stats=stats,
            checkpoint_args=checkpoint_args,
            strategy=strategy,
        )

    if func is not None:
        return decorate(func)
    return decorate
