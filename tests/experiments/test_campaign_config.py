"""Tests for the campaign's knobs, declared once (``CampaignConfig``).

Construction coerces exactly: a value that does not mean what it spells
(``"false"`` for a flag, a NaN budget, a fractional stride) is a
``ValueError``, also through ``run_app_campaign``'s keywords, not a
campaign that runs with another meaning.  (The service answers the same
values with a 400; see ``tests/service``.)
"""

import pytest

from repro.experiments import AppProgram, CampaignConfig, run_app_campaign


class _Box:
    """Two injection points: ``__init__`` and ``put``."""

    def __init__(self):
        self.items = []

    def put(self, item):
        self.items = self.items + [item]


def _body():
    _Box().put(1)


def _program() -> AppProgram:
    return AppProgram(
        name="box", language="Java", classes=[_Box], body=_body
    )


@pytest.mark.parametrize(
    "knobs, message",
    [
        ({"trace_derive": "false"}, "trace_derive must be a boolean"),
        ({"timeout": float("nan")}, "timeout must be > 0 and finite"),
        ({"timeout": "nan"}, "timeout must be > 0 and finite"),
        ({"stride": 2.9}, "stride must be an integer"),
    ],
    ids=["flag-string", "nan-timeout", "nan-string-timeout", "fractional-stride"],
)
def test_run_app_campaign_rejects_values_it_would_miscoerce(knobs, message):
    with pytest.raises(ValueError, match=message):
        run_app_campaign(_program(), **knobs)


def test_config_coerces_exact_spellings():
    config = CampaignConfig(
        stride="2", rounds=3.0, trace_derive=1, workers="4", timeout="5"
    )
    assert config.to_dict() == {
        "stride": 2,
        "rounds": 3,
        "state_backend": "graph",
        "trace_derive": True,
        "workers": 4,
        "timeout": 5.0,
        "retries": 1,
    }
    assert CampaignConfig(timeout=2).timeout == 2.0
    for knobs in ({"retries": True}, {"workers": "two"}, {"timeout": True},
                  {"trace_derive": 2}, {"timeout": float("inf")}):
        with pytest.raises(ValueError):
            CampaignConfig(**knobs)
    with pytest.raises(ValueError, match="unknown config keys"):
        CampaignConfig.from_mapping({"scale": 2})
