"""Deterministic fault injection: the failure plane of the simulation.

FlashGraph makes the SEM engine "tolerant to in-memory failures,
allowing recovery ... through lightweight checkpointing" (Section 2),
and clusterNOR grows knor into a long-running clustering service where
node loss is routine. This module makes those failure modes
first-class *simulated* events -- exactly like the cost models make
time first-class -- so recovery code is exercised deterministically
instead of never.

A :class:`FaultPlan` decides, per injection site, whether a fault
fires:

===========  ====================================================
site         injected fault
===========  ====================================================
``ssd``      read-batch error (retried per :class:`RetryPolicy`)
             or a slow-page latency spike
``worker``   process crash between iterations (checkpoint resume
             or restart-from-scratch, per backend)
``checkpoint``  crash at a chosen point *inside*
             ``save_checkpoint`` (schedule-only)
``node``     permanent machine loss in a distributed run
             (re-shard-and-continue or clean abort, per policy)
``net``      dropped allreduce transmission (timeout + retransmit)
``corruption``  flipped bytes in a simulated SSD page, a
             DRAM-resident cached row, a checkpoint array or an
             in-flight allreduce payload -- always *detected* by the
             integrity layer (:mod:`repro.resilience`: real CRC32 for
             checkpoints and payloads, modelled for pages and rows), then
             quarantined and re-read/retransmitted, or aborted with
             :class:`~repro.errors.CorruptionError`
``straggler``  a thread or machine that keeps running but slower by
             ``straggler_factor`` (detected by EWMA, answered by
             work re-partitioning; timing-plane only)
===========  ====================================================

Two construction modes:

* ``FaultPlan(spec, seed=s)`` -- rate-driven. Every site owns an
  independent ``default_rng([seed, site_index])`` stream, and the
  simulation's query sequence is itself deterministic, so the full
  fault trace is a pure function of ``(seed, spec, workload)`` --
  byte-for-byte reproducible, as asserted by the test suite.
* ``FaultPlan.from_schedule([...])`` -- explicit one-shot events for
  tests ("crash the worker after iteration 3"). Scheduled events are
  consumed when they fire, so an iteration replayed after recovery
  does not re-fire them.

Plans are stateful (consumed schedules, crash caps): build a fresh
plan per run.

Every injected fault and every recovery action is reported through the
:class:`~repro.runtime.RunObserver` ``on_fault`` / ``on_retry`` /
``on_recovery`` event family; nothing on this plane can change a
clustering result (numerics stay exact), only simulated time and the
control flow that re-derives the same numerics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from repro.errors import ConfigError
from repro.spec import format_spec, num_text, parse_spec

#: Injection sites, in stream-index order (the order is part of the
#: on-disk meaning of a fault seed -- do not reorder; new sites are
#: appended so existing seeds keep their meaning).
SITES = ("ssd", "worker", "checkpoint", "node", "net", "corruption",
         "straggler")

#: Crash points accepted inside ``save_checkpoint``.
CHECKPOINT_CRASH_POINTS = (
    "arrays-written",       # arrays durable, manifest not yet committed
    "manifest-tmp-written",  # between tmp-write and the atomic rename
    "committed-no-gc",      # committed, stale arrays not yet collected
)


@dataclass(frozen=True)
class FaultSpec:
    """Per-site fault rates and caps for a seeded plan.

    Rates are per *query* (one SSD batch, one iteration boundary, one
    allreduce transmission...). Caps bound the recoverable-fault count
    so any plan with recoverable-only faults terminates.
    """

    ssd_error_rate: float = 0.0
    ssd_slow_rate: float = 0.0
    #: Service-time multiplier of a slow-page spike.
    ssd_slow_factor: float = 4.0
    #: Chance that a retry of a failed batch fails again.
    ssd_retry_fail_rate: float = 0.0
    worker_crash_rate: float = 0.0
    max_worker_crashes: int = 3
    node_failure_rate: float = 0.0
    max_node_failures: int = 1
    msg_drop_rate: float = 0.0
    max_msg_drops: int = 8
    #: Corruption rates: flipped bytes in an SSD page batch, a cached
    #: row, or an allreduce payload (checkpoint corruption is
    #: schedule-only, like checkpoint crashes).
    corruption_page_rate: float = 0.0
    corruption_cache_rate: float = 0.0
    corruption_msg_rate: float = 0.0
    #: Chance that the re-read/retransmission of corrupted data is
    #: corrupt again.
    corruption_repair_fail_rate: float = 0.0
    max_corruptions: int = 8
    #: Chance per iteration that one thread/machine starts straggling.
    straggler_rate: float = 0.0
    #: Execution-time multiplier of a straggling thread/machine.
    straggler_factor: float = 4.0
    max_stragglers: int = 2

    def __post_init__(self) -> None:
        for name in (
            "ssd_error_rate", "ssd_slow_rate", "ssd_retry_fail_rate",
            "worker_crash_rate", "node_failure_rate", "msg_drop_rate",
            "corruption_page_rate", "corruption_cache_rate",
            "corruption_msg_rate", "corruption_repair_fail_rate",
            "straggler_rate",
        ):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {v}")
        if self.ssd_error_rate + self.ssd_slow_rate > 1.0:
            raise ConfigError(
                "ssd_error_rate + ssd_slow_rate cannot exceed 1"
            )
        if self.ssd_slow_factor < 1.0:
            raise ConfigError(
                f"ssd_slow_factor must be >= 1, got {self.ssd_slow_factor}"
            )
        if self.straggler_factor < 1.0:
            raise ConfigError(
                f"straggler_factor must be >= 1, got "
                f"{self.straggler_factor}"
            )
        for name in (
            "max_worker_crashes", "max_node_failures", "max_msg_drops",
            "max_corruptions", "max_stragglers",
        ):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")

    @property
    def any_enabled(self) -> bool:
        return any(
            getattr(self, f) > 0.0
            for f in (
                "ssd_error_rate", "ssd_slow_rate", "worker_crash_rate",
                "node_failure_rate", "msg_drop_rate",
                "corruption_page_rate", "corruption_cache_rate",
                "corruption_msg_rate", "straggler_rate",
            )
        )


@dataclass(frozen=True)
class RetryPolicy:
    """How recoveries are answered (and charged simulated time).

    * SSD read errors: up to ``max_retries`` re-reads, each preceded by
      an exponential backoff of ``backoff_ns * multiplier**(attempt-1)``.
    * Dropped allreduce transmissions: each drop costs ``timeout_ns``
      (the detection wait) plus a full retransmission, up to
      ``max_retries`` times.
    * Node failures: ``node_failure_mode="degraded"`` re-shards the
      dead machine's rows onto survivors and continues;
      ``"abort"`` raises a clean
      :class:`~repro.errors.NodeFailureError`.
    """

    max_retries: int = 3
    backoff_ns: float = 2e6
    backoff_multiplier: float = 2.0
    timeout_ns: float = 50e6
    node_failure_mode: str = "degraded"

    def __post_init__(self) -> None:
        if self.max_retries < 1:
            raise ConfigError(
                f"max_retries must be >= 1, got {self.max_retries}"
            )
        for name in ("backoff_ns", "timeout_ns"):
            v = getattr(self, name)
            if not 0.0 <= v < math.inf:
                raise ConfigError(
                    f"{name} must be finite and >= 0, got {v}"
                )
        if not 1.0 <= self.backoff_multiplier < math.inf:
            raise ConfigError(
                "backoff_multiplier must be finite and >= 1, got "
                f"{self.backoff_multiplier}"
            )
        if self.node_failure_mode not in ("degraded", "abort"):
            raise ConfigError(
                "node_failure_mode must be 'degraded' or 'abort', got "
                f"{self.node_failure_mode!r}"
            )

    def backoff(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based), ns.

        ``attempt=0`` means "no retry happened" and charges exactly
        0.0, so exhaustion accounting stays a pure function of the
        fault seed across backends (the naive exponential would
        charge ``backoff_ns / multiplier`` there -- a float that
        differs between sites that start counting at 0 vs. 1).
        """
        if attempt < 0:
            raise ConfigError(
                f"retry attempt must be >= 0, got {attempt}"
            )
        if attempt == 0:
            return 0.0
        return self.backoff_ns * self.backoff_multiplier ** (attempt - 1)

    def schedule(self, n: int | None = None) -> tuple[float, ...]:
        """The backoff schedule for attempts ``1..n`` (defaults to the
        full retry budget). A pinned, deterministic tuple: the total
        delay of an exhausted retry loop is ``sum(schedule())`` plus
        the per-site service charges, independent of which site
        retried."""
        n = self.max_retries if n is None else n
        return tuple(self.backoff(i) for i in range(1, n + 1))


#: The drivers' default policy when faults are enabled.
DEFAULT_RETRY_POLICY = RetryPolicy()


@dataclass
class FaultEvent:
    """One scheduled injection (tests' explicit-crash vocabulary).

    ``site`` is one of :data:`SITES`; ``kind`` names the fault within
    the site (``read_error`` / ``slow`` for ssd, ``crash`` for worker,
    a :data:`CHECKPOINT_CRASH_POINTS` entry for checkpoint, ``fail``
    for node, ``drop`` for net, ``page`` / ``cache`` / ``message`` /
    ``checkpoint`` for corruption, ``slow`` for straggler).
    ``machine`` targets a node failure or a straggling thread/machine;
    ``times`` repeats the event (a ``read_error`` with ``times=2``
    also fails the first retry; a corruption with ``times=2`` also
    corrupts the first re-read).
    """

    site: str
    iteration: int
    kind: str
    machine: int | None = None
    times: int = 1

    _KINDS = {
        "ssd": ("read_error", "slow"),
        "worker": ("crash",),
        "checkpoint": CHECKPOINT_CRASH_POINTS,
        "node": ("fail",),
        "net": ("drop",),
        "corruption": ("page", "cache", "message", "checkpoint"),
        "straggler": ("slow",),
    }

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ConfigError(
                f"unknown fault site {self.site!r}; choose from {SITES}"
            )
        allowed = self._KINDS[self.site]
        if self.kind not in allowed:
            raise ConfigError(
                f"site {self.site!r} accepts kinds {allowed}, got "
                f"{self.kind!r}"
            )
        if self.times < 1:
            raise ConfigError(f"times must be >= 1, got {self.times}")


class FaultPlan:
    """Deterministic source of fault decisions for one run."""

    def __init__(
        self,
        spec: FaultSpec | None = None,
        *,
        seed: int = 0,
        schedule: list[FaultEvent] | None = None,
    ) -> None:
        self.spec = spec if spec is not None else FaultSpec()
        self.seed = seed
        self._schedule: list[FaultEvent] = [
            replace(ev) for ev in (schedule or [])
        ]
        self._rng = {
            site: np.random.default_rng([seed, i])
            for i, site in enumerate(SITES)
        }
        self.worker_crashes = 0
        self.node_failures = 0
        self.msg_drops = 0
        self.corruptions = 0
        self.stragglers = 0
        #: Can this plan ever produce a straggler / corruption? The
        #: backends gate the detection machinery (EWMA tracking, CRC
        #: verification) on these so plans without those sites keep
        #: byte-identical event traces with older code.
        self.straggler_enabled = self.spec.straggler_rate > 0.0 or any(
            ev.site == "straggler" for ev in self._schedule
        )
        self.corruption_enabled = (
            self.spec.corruption_page_rate > 0.0
            or self.spec.corruption_cache_rate > 0.0
            or self.spec.corruption_msg_rate > 0.0
            or any(ev.site == "corruption" for ev in self._schedule)
        )

    @classmethod
    def from_schedule(cls, events: list[FaultEvent]) -> "FaultPlan":
        """Explicit one-shot schedule (rates all zero)."""
        return cls(FaultSpec(), schedule=events)

    # -- schedule machinery -------------------------------------------

    def _take(
        self, site: str, iteration: int, kind: str | None = None
    ) -> FaultEvent | None:
        """Consume one matching scheduled event, if any."""
        for i, ev in enumerate(self._schedule):
            if ev.site != site or ev.iteration != iteration:
                continue
            if kind is not None and ev.kind != kind:
                continue
            if ev.times > 1:
                ev.times -= 1
            else:
                del self._schedule[i]
            return ev
        return None

    def _draw(self, site: str) -> float:
        return float(self._rng[site].random())

    # -- query sites ---------------------------------------------------

    def ssd_fault(self, iteration: int) -> str | None:
        """Fault for one SSD read batch: 'read_error', 'slow', None."""
        ev = self._take("ssd", iteration)
        if ev is not None:
            return ev.kind
        spec = self.spec
        if spec.ssd_error_rate == 0.0 and spec.ssd_slow_rate == 0.0:
            return None
        u = self._draw("ssd")
        if u < spec.ssd_error_rate:
            return "read_error"
        if u < spec.ssd_error_rate + spec.ssd_slow_rate:
            return "slow"
        return None

    def ssd_retry_fails(self, iteration: int) -> bool:
        """Does the current retry of a failed batch fail again?"""
        if self._take("ssd", iteration, "read_error") is not None:
            return True
        if self.spec.ssd_retry_fail_rate == 0.0:
            return False
        return self._draw("ssd") < self.spec.ssd_retry_fail_rate

    def worker_crash(self, iteration: int) -> bool:
        """Does the worker crash after completing ``iteration``?"""
        if self._take("worker", iteration, "crash") is not None:
            self.worker_crashes += 1
            return True
        spec = self.spec
        if (
            spec.worker_crash_rate == 0.0
            or self.worker_crashes >= spec.max_worker_crashes
        ):
            return False
        if self._draw("worker") < spec.worker_crash_rate:
            self.worker_crashes += 1
            return True
        return False

    def checkpoint_crash(self, iteration: int) -> str | None:
        """Crash point inside this iteration's checkpoint save.

        Schedule-only: a mid-save crash is a surgical test fixture,
        not a rate-driven background hazard.
        """
        ev = self._take("checkpoint", iteration)
        return ev.kind if ev is not None else None

    def node_failure(
        self, iteration: int, alive: list[int]
    ) -> int | None:
        """Machine lost at the start of ``iteration``, if any."""
        ev = self._take("node", iteration, "fail")
        if ev is not None:
            self.node_failures += 1
            victim = ev.machine if ev.machine is not None else alive[0]
            return victim if victim in alive else None
        spec = self.spec
        if (
            spec.node_failure_rate == 0.0
            or self.node_failures >= spec.max_node_failures
            or len(alive) <= 1
        ):
            return None
        if self._draw("node") < spec.node_failure_rate:
            self.node_failures += 1
            idx = int(self._rng["node"].integers(len(alive)))
            return alive[idx]
        return None

    def drop_message(self, iteration: int) -> bool:
        """Is the current allreduce transmission dropped?"""
        if self._take("net", iteration, "drop") is not None:
            self.msg_drops += 1
            return True
        spec = self.spec
        if (
            spec.msg_drop_rate == 0.0
            or self.msg_drops >= spec.max_msg_drops
        ):
            return False
        if self._draw("net") < spec.msg_drop_rate:
            self.msg_drops += 1
            return True
        return False

    # -- corruption site ----------------------------------------------

    def _corruption(self, iteration: int, kind: str, rate: float) -> bool:
        if self._take("corruption", iteration, kind) is not None:
            self.corruptions += 1
            return True
        if rate == 0.0 or self.corruptions >= self.spec.max_corruptions:
            return False
        if self._draw("corruption") < rate:
            self.corruptions += 1
            return True
        return False

    def page_corruption(self, iteration: int) -> bool:
        """Is one page of the current SSD read batch corrupted?"""
        return self._corruption(
            iteration, "page", self.spec.corruption_page_rate
        )

    def cache_corruption(self, iteration: int) -> bool:
        """Is one DRAM-resident cached row corrupted this iteration?"""
        return self._corruption(
            iteration, "cache", self.spec.corruption_cache_rate
        )

    def message_corruption(self, iteration: int) -> bool:
        """Is the current allreduce payload corrupted in flight?"""
        return self._corruption(
            iteration, "message", self.spec.corruption_msg_rate
        )

    def checkpoint_corruption(self, iteration: int) -> bool:
        """Are this iteration's checkpoint arrays corrupted on disk?

        Schedule-only, like :meth:`checkpoint_crash`: flipping real
        bytes in a just-committed file is a surgical test fixture.
        """
        if self._take("corruption", iteration, "checkpoint") is not None:
            self.corruptions += 1
            return True
        return False

    def corruption_repair_fails(self, iteration: int, kind: str) -> bool:
        """Is the re-read/retransmission of corrupted data bad too?"""
        if self._take("corruption", iteration, kind) is not None:
            return True
        if self.spec.corruption_repair_fail_rate == 0.0:
            return False
        return (
            self._draw("corruption")
            < self.spec.corruption_repair_fail_rate
        )

    def corruption_offset(self, nbytes: int) -> int:
        """Deterministic byte offset for a flip (corruption stream)."""
        return int(self._rng["corruption"].integers(nbytes))

    # -- straggler site -----------------------------------------------

    def straggler(
        self, iteration: int, candidates: list[int]
    ) -> tuple[int, float] | None:
        """``(victim, slow_factor)`` if a worker starts straggling.

        ``candidates`` lists the healthy thread/machine ids still
        running at full speed; the victim is drawn from the straggler
        stream, so the choice is a pure function of the fault seed.
        """
        ev = self._take("straggler", iteration, "slow")
        if ev is not None:
            self.stragglers += 1
            victim = (
                ev.machine if ev.machine is not None else candidates[0]
            )
            if victim not in candidates:
                return None
            return victim, self.spec.straggler_factor
        spec = self.spec
        if (
            spec.straggler_rate == 0.0
            or self.stragglers >= spec.max_stragglers
            or not candidates
        ):
            return None
        if self._draw("straggler") < spec.straggler_rate:
            self.stragglers += 1
            idx = int(self._rng["straggler"].integers(len(candidates)))
            return candidates[idx], spec.straggler_factor
        return None


def faulty_collective_ns(
    plan: FaultPlan | None,
    policy: RetryPolicy,
    iteration: int,
    base_ns: float,
    observer,
    *,
    payload: "np.ndarray | None" = None,
) -> float:
    """Charge dropped/corrupted-allreduce timeouts and retransmissions.

    Each drop costs the detection timeout plus a full retransmission
    of the collective; the reduced *values* are unaffected (the
    arithmetic already happened in-process, deterministically).
    A corrupted in-flight ``payload`` is detected by a real CRC32
    check of the tampered bytes, then retransmitted under the same
    budget. Raises :class:`~repro.errors.RetryExhaustedError` /
    :class:`~repro.errors.CorruptionError` past the policy's budget.
    """
    from repro.errors import CorruptionError, RetryExhaustedError

    if plan is None:
        return base_ns
    total = base_ns
    attempt = 0
    while plan.drop_message(iteration):
        attempt += 1
        observer.on_fault(
            iteration, "net", "drop", {"attempt": attempt}
        )
        if attempt > policy.max_retries:
            raise RetryExhaustedError(
                f"allreduce dropped {attempt} times at iteration "
                f"{iteration} (retry budget {policy.max_retries})"
            )
        total += policy.timeout_ns + base_ns
        observer.on_retry(iteration, "net", attempt, policy.timeout_ns)
    if attempt:
        observer.on_recovery(
            iteration, "net", "retransmit", {"attempts": attempt}
        )
    if plan.message_corruption(iteration):
        from repro.resilience.integrity import crc32_bytes, flip_byte

        clean = (
            np.ascontiguousarray(payload).tobytes()
            if payload is not None
            else int(iteration).to_bytes(8, "little", signed=True)
        )
        crc = crc32_bytes(clean)
        bad = 0
        while True:
            bad += 1
            offset = plan.corruption_offset(len(clean))
            detected = crc32_bytes(flip_byte(clean, offset)) != crc
            if not detected:  # unreachable: CRC32 catches 1-byte flips
                raise CorruptionError(
                    "allreduce payload corruption escaped the CRC32 "
                    f"check at iteration {iteration}"
                )
            observer.on_fault(
                iteration, "corruption", "message",
                {"attempt": bad, "offset": offset},
            )
            observer.on_corruption(
                iteration, "net-payload",
                {"offset": offset, "attempt": bad},
            )
            if bad > policy.max_retries:
                raise CorruptionError(
                    f"allreduce payload corrupt {bad} times at "
                    f"iteration {iteration} (retry budget "
                    f"{policy.max_retries})"
                )
            total += policy.timeout_ns + base_ns
            observer.on_retry(
                iteration, "corruption", bad, policy.timeout_ns
            )
            if not plan.corruption_repair_fails(iteration, "message"):
                break
        observer.on_recovery(
            iteration, "corruption", "retransmit", {"attempts": bad}
        )
    return total


# -- CLI spec parsing ----------------------------------------------------

_SPEC_KEYS = {
    "ssd_error": ("ssd_error_rate", float),
    "ssd_slow": ("ssd_slow_rate", float),
    "ssd_slow_factor": ("ssd_slow_factor", float),
    "ssd_retry_fail": ("ssd_retry_fail_rate", float),
    "worker_crash": ("worker_crash_rate", float),
    "max_worker_crashes": ("max_worker_crashes", int),
    "node_fail": ("node_failure_rate", float),
    "max_node_failures": ("max_node_failures", int),
    "msg_drop": ("msg_drop_rate", float),
    "max_msg_drops": ("max_msg_drops", int),
    "corrupt_page": ("corruption_page_rate", float),
    "corrupt_cache": ("corruption_cache_rate", float),
    "corrupt_msg": ("corruption_msg_rate", float),
    "corrupt_repair_fail": ("corruption_repair_fail_rate", float),
    "max_corruptions": ("max_corruptions", int),
    "straggler": ("straggler_rate", float),
    "straggler_factor": ("straggler_factor", float),
    "max_stragglers": ("max_stragglers", int),
}

_POLICY_KEYS = {
    "retries": ("max_retries", int),
    "backoff_ms": ("backoff_ns", float),
    "multiplier": ("backoff_multiplier", float),
    "timeout_ms": ("timeout_ns", float),
    "node_failure": ("node_failure_mode", str),
}

#: Policy keys given in milliseconds but stored in nanoseconds.
_MS_KEYS = ("backoff_ms", "timeout_ms")


def _ms_text(ns: float) -> str:
    """The milliseconds text that parses back to exactly ``ns``.

    ``ms * 1e6`` and ``ns / 1e6`` each round, so the nearest ``ms``
    may miss ``ns`` by one step; every ``ns`` that some text parses to
    is reached from ``ns / 1e6`` or one of its two neighbours.
    """
    ms = ns / 1e6
    for cand in (ms, math.nextafter(ms, -math.inf),
                 math.nextafter(ms, math.inf)):
        if cand * 1e6 == ns:
            return repr(cand)
    return repr(ms)


def parse_fault_spec(text: str) -> FaultSpec:
    """Parse the CLI's ``--faults`` spec, e.g.
    ``"ssd_error=0.05,worker_crash=0.1,msg_drop=0.02"``."""
    return FaultSpec(**parse_spec(text, "--faults", "fault", _SPEC_KEYS))


def parse_retry_policy(text: str) -> RetryPolicy:
    """Parse the CLI's ``--retry-policy`` spec, e.g.
    ``"retries=5,backoff_ms=2,timeout_ms=50,node_failure=abort"``."""
    fields = parse_spec(text, "--retry-policy", "retry-policy", _POLICY_KEYS)
    for key in _MS_KEYS:
        name = _POLICY_KEYS[key][0]
        if name in fields:
            fields[name] *= 1e6
    return RetryPolicy(**fields)


#: Public key lists -- the CLI generates its ``--faults`` /
#: ``--retry-policy`` help from these so the text can never drift from
#: the parser.
FAULT_SPEC_KEYS = tuple(sorted(_SPEC_KEYS))
RETRY_POLICY_KEYS = tuple(sorted(_POLICY_KEYS))


def format_fault_spec(spec: FaultSpec) -> str:
    """Inverse of :func:`parse_fault_spec`: only non-default keys, so
    ``parse_fault_spec(format_fault_spec(s)) == s``."""
    return format_spec(spec, _SPEC_KEYS, FaultSpec())


def format_retry_policy(policy: RetryPolicy) -> str:
    """Inverse of :func:`parse_retry_policy` (non-default keys only)."""
    return format_spec(
        policy, _POLICY_KEYS, RetryPolicy(),
        lambda key, value: (
            _ms_text(value) if key in _MS_KEYS else num_text(value)
        ),
    )
