"""Fuzzing the CLI spec parsers: every input parses or fails typed.

``--faults``, ``--retry-policy``, ``--autoscale``, ``--elastic-plan``
and ``--tenants`` take ``key=value`` text. Whatever the text, a parser
returns a value or raises a :class:`~repro.errors.KnorError` subclass
(the CLI turns those into exit code 2); a bare ``ValueError`` would
escape as a traceback. The formatters invert the parsers exactly.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.elastic import parse_autoscaler, parse_membership_spec, parse_tenants
from repro.elastic.autoscaler import AUTOSCALER_KEYS
from repro.elastic.plan import MEMBERSHIP_SPEC_KEYS
from repro.errors import ConfigError, KnorError
from repro.faults import (
    FAULT_SPEC_KEYS,
    RETRY_POLICY_KEYS,
    FaultSpec,
    RetryPolicy,
    format_fault_spec,
    format_retry_policy,
    parse_fault_spec,
    parse_retry_policy,
)

PARSERS = {
    "faults": (parse_fault_spec, FAULT_SPEC_KEYS),
    "retry": (parse_retry_policy, RETRY_POLICY_KEYS),
    "autoscale": (parse_autoscaler, AUTOSCALER_KEYS),
    "elastic": (parse_membership_spec, MEMBERSHIP_SPEC_KEYS),
    "tenants": (parse_tenants, ("alice", "bob", "", "a b")),
}

#: Value texts near the edges of what ``int``/``float`` accept.
VALUES = st.one_of(
    st.sampled_from([
        "0", "1", "-1", "0.5", "1.5", "2", "1e3", "1e400", "-1e400",
        "nan", "inf", "-inf", "abc", "", " ", "0x10", "1_000", "٣",
        "degraded", "abort", "2@64", "1@nan", "1@-5", "@", "=", "9" * 5000,
    ]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.text(max_size=8),
)


@st.composite
def spec_texts(draw, keys):
    """``key=value`` lists over known and unknown keys, plus noise."""
    key = st.one_of(st.sampled_from(keys), st.text(max_size=6))
    entry = st.one_of(
        st.tuples(key, VALUES).map(lambda kv: f"{kv[0]}={kv[1]}"),
        st.text(max_size=10),
    )
    return ",".join(draw(st.lists(entry, max_size=5)))


@pytest.mark.parametrize("which", sorted(PARSERS))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_parse_or_fail_typed(which, data):
    parse, keys = PARSERS[which]
    text = data.draw(st.one_of(spec_texts(keys), st.text(max_size=40)))
    try:
        parse(text)
    except KnorError:
        pass


@pytest.mark.parametrize(
    "parse,text,named",
    [
        (parse_fault_spec, "ssd_error=abc", "ssd_error='abc'"),
        (parse_fault_spec, "max_stragglers=1.5", "max_stragglers='1.5'"),
        (parse_fault_spec, "straggler_factor=nan", "straggler_factor='nan'"),
        (parse_retry_policy, "retries=x", "retries='x'"),
        (parse_retry_policy, "timeout_ms=nan", "timeout_ms='nan'"),
        (parse_retry_policy, "backoff_ms=inf", "backoff_ms='inf'"),
        (parse_autoscaler, "target_s=1,min=x", "min='x'"),
        (parse_membership_spec, "join=x", "join='x'"),
        (parse_tenants, "a=x", "a='x'"),
        (parse_tenants, "a=1@big", "a@budget_mb='big'"),
    ],
)
def test_bad_values_name_key_and_value(parse, text, named):
    with pytest.raises(ConfigError) as err:
        parse(text)
    assert named in str(err.value)


@pytest.mark.parametrize("field", ["backoff_ns", "timeout_ns"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
def test_retry_policy_rejects_non_finite_times(field, value):
    with pytest.raises(ConfigError, match=field):
        RetryPolicy(**{field: value})


@pytest.mark.parametrize("value", [math.nan, math.inf, 0.5])
def test_retry_policy_rejects_bad_multiplier(value):
    with pytest.raises(ConfigError, match="backoff_multiplier"):
        RetryPolicy(backoff_multiplier=value)


RATE = st.floats(0.0, 1.0)
FACTOR = st.floats(1.0, 1e6)
CAP = st.integers(0, 10**9)


@settings(max_examples=300, deadline=None)
@given(
    rates=st.fixed_dictionaries({
        name: RATE for name in (
            "ssd_retry_fail_rate", "worker_crash_rate",
            "node_failure_rate", "msg_drop_rate", "corruption_page_rate",
            "corruption_cache_rate", "corruption_msg_rate",
            "corruption_repair_fail_rate", "straggler_rate",
        )
    }),
    # Each <= 0.5, so their sum stays within FaultSpec's limit of 1.
    ssd_rates=st.tuples(st.floats(0.0, 0.5), st.floats(0.0, 0.5)),
    factors=st.tuples(FACTOR, FACTOR),
    caps=st.tuples(CAP, CAP, CAP, CAP, CAP),
)
def test_fault_spec_round_trips(rates, ssd_rates, factors, caps):
    spec = FaultSpec(
        **rates,
        ssd_error_rate=ssd_rates[0], ssd_slow_rate=ssd_rates[1],
        ssd_slow_factor=factors[0], straggler_factor=factors[1],
        max_worker_crashes=caps[0], max_node_failures=caps[1],
        max_msg_drops=caps[2], max_corruptions=caps[3],
        max_stragglers=caps[4],
    )
    assert parse_fault_spec(format_fault_spec(spec)) == spec


MS = st.floats(0.0, 1e9)


@settings(max_examples=300, deadline=None)
@given(
    retries=st.integers(1, 10**9),
    backoff_ms=MS,
    timeout_ms=MS,
    multiplier=FACTOR,
    mode=st.sampled_from(["degraded", "abort"]),
)
def test_retry_policy_round_trips(
    retries, backoff_ms, timeout_ms, multiplier, mode
):
    text = (
        f"retries={retries},backoff_ms={backoff_ms!r},"
        f"timeout_ms={timeout_ms!r},multiplier={multiplier!r},"
        f"node_failure={mode}"
    )
    policy = parse_retry_policy(text)
    assert parse_retry_policy(format_retry_policy(policy)) == policy
    direct = RetryPolicy(
        max_retries=retries, backoff_ns=backoff_ms * 1e6,
        timeout_ns=timeout_ms * 1e6, backoff_multiplier=multiplier,
        node_failure_mode=mode,
    )
    assert direct == policy
