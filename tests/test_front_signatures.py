"""The public signatures of both serving fronts, pinned.

Both constructors hand their arguments to the shared front base as one
mapping (``dict(locals())``), so the signatures are the only place their
knobs are listed.  This suite pins each one — names, kinds, defaults and
order — so a refactor behind them cannot rename, reorder or re-default a
knob unnoticed, and checks that every enumerated knob defaults to the
first allowed value of the front's knob table.
"""

import inspect

import pytest

from repro import MultiTenantStream, ShardedStream
from repro.streaming.serving.stream import KNOB_VALUES

REQUIRED = inspect.Parameter.empty
POSITIONAL = inspect.Parameter.POSITIONAL_OR_KEYWORD
KEYWORD = inspect.Parameter.KEYWORD_ONLY

SHARDED_STREAM = [
    ("constraint", POSITIONAL, REQUIRED),
    ("params", POSITIONAL, REQUIRED),
    ("shards", POSITIONAL, 2),
    ("horizon", KEYWORD, None),
    ("refresh_every", KEYWORD, None),
    ("ingest", KEYWORD, "exact"),
    ("mechanism", KEYWORD, "tree"),
    ("decay", KEYWORD, None),
    ("window", KEYWORD, None),
    ("composition", KEYWORD, "parallel"),
    ("router", KEYWORD, "round_robin"),
    ("mode", KEYWORD, "sync"),
    ("transport", KEYWORD, "thread"),
    ("request_timeout", KEYWORD, None),
    ("addresses", KEYWORD, None),
    ("heartbeat_every", KEYWORD, None),
    ("restart_policy", KEYWORD, "never"),
    ("shard_horizon", KEYWORD, None),
    ("backend", KEYWORD, "moment"),
    ("instruments", KEYWORD, None),
    ("x_domain", KEYWORD, None),
    ("projection", KEYWORD, None),
    ("projected_dim", KEYWORD, None),
    ("gamma", KEYWORD, None),
    ("sparsity_factor", KEYWORD, None),
    ("solver", KEYWORD, None),
    ("beta", KEYWORD, 0.05),
    ("fidelity", KEYWORD, "fast"),
    ("iteration_cap", KEYWORD, 400),
    ("rng", KEYWORD, None),
]

MULTI_TENANT_STREAM = [
    ("constraint", POSITIONAL, REQUIRED),
    ("params", POSITIONAL, REQUIRED),
    ("tenants", POSITIONAL, REQUIRED),
    ("shards", POSITIONAL, 2),
    ("horizon", KEYWORD, None),
    ("tenant_capacity", KEYWORD, None),
    ("decays", KEYWORD, None),
    ("tenant_decays", KEYWORD, None),
    ("refresh_every", KEYWORD, None),
    ("ingest", KEYWORD, "exact"),
    ("mode", KEYWORD, "sync"),
    ("transport", KEYWORD, "thread"),
    ("request_timeout", KEYWORD, None),
    ("addresses", KEYWORD, None),
    ("heartbeat_every", KEYWORD, None),
    ("restart_policy", KEYWORD, "never"),
    ("shard_horizon", KEYWORD, None),
    ("beta", KEYWORD, 0.05),
    ("fidelity", KEYWORD, "fast"),
    ("iteration_cap", KEYWORD, 400),
    ("rng", KEYWORD, None),
]

FRONTS = [(ShardedStream, SHARDED_STREAM), (MultiTenantStream, MULTI_TENANT_STREAM)]
IDS = ["ShardedStream", "MultiTenantStream"]


def _signature(cls):
    return [
        (name, parameter.kind, parameter.default)
        for name, parameter in inspect.signature(cls).parameters.items()
    ]


@pytest.mark.parametrize("cls, expected", FRONTS, ids=IDS)
def test_public_signature_is_pinned(cls, expected):
    assert _signature(cls) == expected


@pytest.mark.parametrize("cls, expected", FRONTS, ids=IDS)
def test_enumerated_knobs_default_to_their_first_allowed_value(cls, expected):
    defaults = {name: default for name, _, default in expected}
    for knob, allowed in KNOB_VALUES.items():
        if knob in defaults:
            assert defaults[knob] == allowed[0], knob
