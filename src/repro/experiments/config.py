"""A campaign's knobs, declared once.

Every engine entry point takes one frozen :class:`CampaignConfig`: the
campaign driver, the shard supervisor and each shard, masking
validation, the chaos harness, the service, the fuzz harness and the
variant oracle.  Its constructor coerces and validates every field,
with the messages the service answers a bad submission with (a 400).
The journal fragment header (:meth:`CampaignConfig.header`) and the
service's cache key (:meth:`CampaignConfig.to_dict`) are two views of
it, so removing a knob is one field and its uses.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.core.state import StateBackend, get_backend

__all__ = ["CampaignConfig", "HEADER_FIELDS"]

#: Metadata of a field that a journal fragment's header records: a
#: resume or merge refuses fragments that disagree on it.
_IN_HEADER = {"header": True}


@dataclass(frozen=True)
class CampaignConfig:
    """The knobs of one detection campaign.

    Attributes:
        stride: inject at every *stride*-th point (1 = the paper's full
            sweep).
        rounds: workload multiplier: the campaign runs its program at
            ``rounds`` times the program's own rounds, at quadratically
            growing cost (``scale`` of :func:`run_app_campaign`).
        state_backend: how runs compare before/after state: ``graph``
            (the reference) or ``fingerprint`` (digests, with a graph
            re-run of every non-atomic run for its difference strings).
        trace_derive: instrument the profiling run
            (:mod:`repro.core.tracepass`) and derive the record of every
            trace-decidable point from it; the classification is
            identical, derived runs carry ``provenance="trace"``.
        workers: run on the shard engine as this many shards, of which
            at most ``os.cpu_count()`` run at once.  ``None`` runs the
            sequential engine, unless a ``timeout`` is set (then one
            shard per CPU).
        timeout: per-run wall-clock budget in seconds, which the shard
            engine's supervisor enforces by killing the shard process.
        retries: re-runs of a point whose run overran ``timeout``
            before it is journaled crashed.

    Construction coerces exactly: counts take integers, integral floats
    and integral strings (``"2"``); ``trace_derive`` takes booleans, 0
    and 1; ``timeout`` takes a finite number of seconds > 0 or a string
    of one.  Anything else raises :class:`ValueError`.
    """

    stride: int = field(default=1, metadata=_IN_HEADER)
    rounds: int = 1
    state_backend: str = field(default="graph", metadata=_IN_HEADER)
    trace_derive: bool = field(default=False, metadata=_IN_HEADER)
    workers: Optional[int] = None
    timeout: Optional[float] = None
    retries: int = 1

    def __post_init__(self) -> None:
        backend = self.state_backend
        checked = {
            "stride": _count("stride", self.stride, 1),
            "rounds": _count("rounds", self.rounds, 1),
            "state_backend": get_backend(
                backend if isinstance(backend, StateBackend) else str(backend)
            ).name,
            "trace_derive": _flag("trace_derive", self.trace_derive),
            "workers": _optional(_count, "workers", self.workers, 1),
            "timeout": _optional(_seconds, "timeout", self.timeout),
            "retries": _count("retries", self.retries, 0),
        }
        for name, value in checked.items():
            object.__setattr__(self, name, value)

    @classmethod
    def from_mapping(cls, config: Optional[Mapping[str, Any]]) -> "CampaignConfig":
        """The config a mapping of knobs spells, missing ones defaulted;
        anything but a mapping, or an unknown key, is a
        :class:`ValueError`."""
        config = {} if config is None else config
        if not isinstance(config, Mapping):
            raise ValueError(
                f"config must be a mapping of knobs, got {type(config).__name__}"
            )
        known = sorted(f.name for f in dataclasses.fields(cls))
        unknown = set(config) - set(known)
        if unknown:
            raise ValueError(
                f"unknown config keys: {sorted(unknown)} (known: {known})"
            )
        return cls(**config)

    def to_dict(self) -> Dict[str, Any]:
        """Every knob by name: the cache-key form the service hashes
        (:func:`~repro.service.cache.submission_digest`)."""
        return dataclasses.asdict(self)

    def header(self, program, total_points: int) -> Dict[str, Any]:
        """The campaign plan a journal fragment's header records, shard
        aside: *program*'s name and rounds (times :attr:`rounds`), the
        point count, and every :data:`HEADER_FIELDS` knob."""
        plan = {
            "program": program.name,
            "rounds": program.rounds * self.rounds,
            "total_points": total_points,
        }
        plan.update((name, getattr(self, name)) for name in HEADER_FIELDS)
        return plan

    def scaled(self, program):
        """*program* at :attr:`rounds` times its own rounds."""
        if self.rounds == 1:
            return program
        return program.scaled(self.rounds * program.rounds)

    def sequential(self) -> "CampaignConfig":
        """The same campaign on the sequential engine."""
        return dataclasses.replace(self, workers=None, timeout=None)


#: The knobs a fragment header records (see :meth:`CampaignConfig.header`).
HEADER_FIELDS: Tuple[str, ...] = tuple(
    f.name for f in dataclasses.fields(CampaignConfig) if f.metadata.get("header")
)


def _bad(name: str, expected: str, value: Any) -> ValueError:
    return ValueError(f"bad config value: {name} must be {expected}, got {value!r}")


def _count(name: str, value: Any, minimum: int) -> int:
    """*value* as an exact integer >= *minimum*."""
    if isinstance(value, str):
        try:
            value = int(value)
        except ValueError:
            raise _bad(name, "an integer", value) from None
    elif isinstance(value, float) and value.is_integer():
        value = int(value)
    elif isinstance(value, bool) or not isinstance(value, int):
        raise _bad(name, "an integer", value)
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}")
    return value


def _flag(name: str, value: Any) -> bool:
    """*value* as a boolean: ``True``, ``False``, 1 or 0."""
    if isinstance(value, int) and value in (0, 1):
        return bool(value)
    raise _bad(name, "a boolean", value)


def _seconds(name: str, value: Any) -> float:
    """*value* as a finite number of seconds > 0."""
    if isinstance(value, bool):
        raise _bad(name, "a number of seconds", value)
    try:
        seconds = float(value)
    except (TypeError, ValueError, OverflowError):
        raise _bad(name, "a number of seconds", value) from None
    if not (seconds > 0 and math.isfinite(seconds)):
        raise ValueError(f"{name} must be > 0 and finite")
    return seconds


def _optional(check, name: str, value: Any, *args: Any) -> Any:
    return None if value is None else check(name, value, *args)
