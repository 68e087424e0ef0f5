"""The journal fragment header is pinned byte for byte.

A fragment's header line records the campaign it belongs to; a resume or
merge compares it key by key.  So the bytes a campaign writes must stay
what earlier versions wrote — for both state backends, with and without
the trace pass, at strides 1 and 2 and for a scaled workload — and the
fragment version must stay 2, or fragments journaled before a refactor
stop resuming.  Only ``run_app_campaign``'s keywords are used, so the
pins hold across changes to how the engines take their knobs.
"""

import json
import os

import pytest

from repro.experiments import AppProgram, run_app_campaign
from repro.experiments.shard import CAMPAIGN_KEYS, FRAGMENT_VERSION


class _PinBox:
    """Two injection points: ``__init__`` and ``put``."""

    def __init__(self):
        self.items = []

    def put(self, item):
        self.items = self.items + [item]


def _body():
    _PinBox().put(1)


def _program() -> AppProgram:
    return AppProgram(
        name="pinbox", language="Java", classes=[_PinBox], body=_body
    )


def _header(backend, trace, stride, rounds=1, points=2):
    return (
        '{"kind": "header", "program": "pinbox", '
        f'"rounds": {rounds}, "shard_count": 1, "shard_index": 0, '
        f'"state_backend": "{backend}", "stride": {stride}, '
        f'"total_points": {points}, "trace_derive": {json.dumps(trace)}, '
        '"version": 2}'
    )


#: ``(run_app_campaign keywords, header line)`` of fragments as they
#: have been written since version 2.
PINNED_HEADERS = [
    (
        dict(state_backend=backend, trace_derive=trace, stride=stride),
        _header(backend, trace, stride),
    )
    for backend in ("graph", "fingerprint")
    for trace in (False, True)
    for stride in (1, 2)
] + [(dict(scale=2), _header("graph", False, 1, rounds=2, points=4))]


@pytest.mark.parametrize(
    "knobs, header",
    PINNED_HEADERS,
    ids=[
        "-".join(f"{key}={value}" for key, value in knobs.items())
        for knobs, _ in PINNED_HEADERS
    ],
)
def test_fragment_header_bytes_are_pinned(tmp_path, knobs, header):
    run_app_campaign(_program(), workers=1, journal=str(tmp_path), **knobs)
    with open(os.path.join(tmp_path, "shard-00.jsonl"), "rb") as handle:
        assert handle.readline() == header.encode("utf-8") + b"\n"
    assert FRAGMENT_VERSION == 2
    assert set(json.loads(header)) - {"kind", "shard_index"} == set(
        CAMPAIGN_KEYS
    )
