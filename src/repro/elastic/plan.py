"""Deterministic cluster membership: the elastic plane of the simulation.

The fault plane (:mod:`repro.faults`) answers "a node died"; this
module generalizes it to "the node count changed". A
:class:`MembershipPlan` is the :class:`~repro.faults.FaultPlan`'s
sibling: a seeded, deterministic source of membership events fired at
iteration boundaries -- the only points where the paper's decentralized
protocol can re-negotiate who owns which shard.

Three event kinds:

===========  =====================================================
kind         membership change
===========  =====================================================
``join``     ``count`` machines are provisioned and adopted;
             shards re-shard *onto* the joiners (the inverse of the
             node-failure survivor path) and the collective's
             timing re-spans the new fleet
``leave``    planned scale-down: the victim drains its shards onto
             the survivors (charged network transfer time), then
             departs cleanly
``preempt``  spot-instance preemption. With ``notice > 0`` the
             victim gets a grace window of that many iterations to
             flush a checkpoint / drain its queue before the
             planned loss; ``notice == 0`` degrades to the existing
             node-failure path (abrupt loss, no drain)
===========  =====================================================

Construction mirrors the fault plan exactly:

* ``MembershipPlan(spec, seed=s)`` -- rate-driven. Every event kind
  owns an independent ``default_rng([seed, _STREAM_BASE + i])``
  stream (a namespace disjoint from the fault streams, so fault seed
  and plan seed compose without interference), making the full
  membership trace a pure function of ``(seed, spec, workload)``.
* ``MembershipPlan.from_schedule([...])`` -- explicit one-shot events
  for tests ("preempt machine 1 after iteration 3 with 2 iterations
  of notice"). Scheduled events are consumed when they fire.

Nothing on this plane can change a clustering result: membership moves
shard *ownership* (pure timing) and simulated time, never the
shard-ordered numerics or the allreduce arithmetic, which stays over
the fixed shard count forever. A zero-event plan leaves every code
path byte-identical to the fixed-cluster run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.errors import ConfigError
from repro.spec import format_spec, parse_spec

#: Event kinds, in stream-index order (append-only: the order is part
#: of the meaning of a membership seed).
MEMBERSHIP_KINDS = ("join", "leave", "preempt")

#: RNG stream namespace base. Fault streams use ``[seed, 0..len(SITES))``;
#: membership streams start far above so the two planes never collide
#: even when sharing one seed.
_STREAM_BASE = 100


@dataclass
class MembershipEvent:
    """One membership change (the tests' explicit-event vocabulary).

    ``machine`` targets a ``leave``/``preempt`` (``None`` lets the
    plan pick deterministically); ``count`` sizes a ``join``;
    ``notice`` is a preemption's grace window in iterations (0 =
    abrupt spot kill, the node-failure path).
    """

    kind: str
    iteration: int
    machine: int | None = None
    count: int = 1
    notice: int = 0

    def __post_init__(self) -> None:
        if self.kind not in MEMBERSHIP_KINDS:
            raise ConfigError(
                f"unknown membership kind {self.kind!r}; choose from "
                f"{MEMBERSHIP_KINDS}"
            )
        if self.count < 1:
            raise ConfigError(f"count must be >= 1, got {self.count}")
        if self.notice < 0:
            raise ConfigError(f"notice must be >= 0, got {self.notice}")
        if self.kind != "join" and self.count != 1:
            raise ConfigError(
                f"{self.kind!r} events change one machine (count=1)"
            )


@dataclass(frozen=True)
class MembershipSpec:
    """Per-kind event rates and caps for a seeded plan.

    Rates are per iteration boundary. Caps bound the event count so
    any rate-driven plan terminates; ``min_machines``/``max_machines``
    clamp the fleet so churn cannot strand the run.
    """

    join_rate: float = 0.0
    leave_rate: float = 0.0
    preempt_rate: float = 0.0
    #: Grace window (iterations) granted by rate-driven preemptions.
    preempt_notice: int = 2
    max_joins: int = 4
    max_leaves: int = 2
    max_preempts: int = 2
    min_machines: int = 1
    max_machines: int = 16

    def __post_init__(self) -> None:
        for name in ("join_rate", "leave_rate", "preempt_rate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {v}")
        for name in ("max_joins", "max_leaves", "max_preempts",
                     "preempt_notice"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if self.min_machines < 1:
            raise ConfigError(
                f"min_machines must be >= 1, got {self.min_machines}"
            )
        if self.max_machines < self.min_machines:
            raise ConfigError(
                "max_machines must be >= min_machines, got "
                f"{self.max_machines} < {self.min_machines}"
            )

    @property
    def any_enabled(self) -> bool:
        return any(
            getattr(self, f) > 0.0
            for f in ("join_rate", "leave_rate", "preempt_rate")
        )


class MembershipPlan:
    """Deterministic source of membership decisions for one run.

    Plans are stateful (consumed schedules, event caps): build a fresh
    plan per run, and wire each plan to exactly **one** consumer --
    the :class:`~repro.runtime.backends.DistributedBackend` polls
    :meth:`poll`; the single-machine backends' iteration loop polls
    :meth:`worker_preemption`. Double-wiring would double-draw the
    streams (the loop refuses a plan when the backend handles one).
    """

    def __init__(
        self,
        spec: MembershipSpec | None = None,
        *,
        seed: int = 0,
        schedule: list[MembershipEvent] | None = None,
    ) -> None:
        self.spec = spec if spec is not None else MembershipSpec()
        self.seed = seed
        self._schedule: list[MembershipEvent] = [
            replace(ev) for ev in (schedule or [])
        ]
        self._rng = {
            kind: np.random.default_rng([seed, _STREAM_BASE + i])
            for i, kind in enumerate(MEMBERSHIP_KINDS)
        }
        self.joins = 0
        self.leaves = 0
        self.preempts = 0

    @classmethod
    def from_schedule(
        cls, events: list[MembershipEvent]
    ) -> "MembershipPlan":
        """Explicit one-shot schedule (rates all zero)."""
        return cls(MembershipSpec(), schedule=events)

    @property
    def any_enabled(self) -> bool:
        """Can this plan ever fire an event? ``False`` guarantees the
        run takes the fixed-cluster code paths byte-identically."""
        return self.spec.any_enabled or bool(self._schedule)

    # -- schedule machinery -------------------------------------------

    def _take(
        self, kind: str, iteration: int
    ) -> MembershipEvent | None:
        """Consume one matching scheduled event, if any."""
        for i, ev in enumerate(self._schedule):
            if ev.kind != kind or ev.iteration != iteration:
                continue
            del self._schedule[i]
            return ev
        return None

    def _draw(self, kind: str) -> float:
        return float(self._rng[kind].random())

    def _count(self, ev: MembershipEvent) -> None:
        if ev.kind == "join":
            self.joins += 1
        elif ev.kind == "leave":
            self.leaves += 1
        else:
            self.preempts += 1

    # -- query sites ---------------------------------------------------

    def poll(
        self, iteration: int, alive: list[int]
    ) -> list[MembershipEvent]:
        """Membership changes at the start of ``iteration``.

        The distributed backend's query site: scheduled events first
        (in schedule order), then at most one rate-driven event per
        kind, drawn from that kind's stream. ``alive`` lists the
        currently live machine ids -- victims are drawn from it, and
        the fleet-size clamps are enforced here so a plan can never
        scale below ``min_machines`` or above ``max_machines``.
        """
        spec = self.spec
        events: list[MembershipEvent] = []
        n_alive = len(alive)
        for kind in MEMBERSHIP_KINDS:
            while True:
                ev = self._take(kind, iteration)
                if ev is None:
                    break
                if kind != "join" and (
                    n_alive <= 1
                    or (ev.machine is not None
                        and ev.machine not in alive)
                ):
                    continue  # victim already gone; event is moot
                if ev.machine is None and kind != "join":
                    ev = replace(ev, machine=alive[0])
                self._count(ev)
                events.append(ev)
                if kind == "join":
                    n_alive += ev.count
                else:
                    n_alive -= 1
        # Rate-driven: one boundary, at most one drawn event per kind.
        if (
            spec.join_rate > 0.0
            and self.joins < spec.max_joins
            and n_alive < spec.max_machines
            and self._draw("join") < spec.join_rate
        ):
            ev = MembershipEvent("join", iteration)
            self._count(ev)
            events.append(ev)
            n_alive += 1
        if (
            spec.leave_rate > 0.0
            and self.leaves < spec.max_leaves
            and n_alive > spec.min_machines
            and self._draw("leave") < spec.leave_rate
        ):
            idx = int(self._rng["leave"].integers(len(alive)))
            ev = MembershipEvent("leave", iteration, machine=alive[idx])
            self._count(ev)
            events.append(ev)
            n_alive -= 1
        if (
            spec.preempt_rate > 0.0
            and self.preempts < spec.max_preempts
            and n_alive > spec.min_machines
            and self._draw("preempt") < spec.preempt_rate
        ):
            idx = int(self._rng["preempt"].integers(len(alive)))
            ev = MembershipEvent(
                "preempt", iteration, machine=alive[idx],
                notice=spec.preempt_notice,
            )
            self._count(ev)
            events.append(ev)
        return events

    def worker_preemption(
        self, iteration: int
    ) -> MembershipEvent | None:
        """Spot preemption of the (single) worker machine, if any.

        The single-machine backends' query site: ``join``/``leave``
        are meaningless for one machine, so only the ``preempt``
        stream is consulted. With ``notice > 0`` the iteration loop
        flushes a checkpoint at the deadline before the planned loss;
        ``notice == 0`` degrades to the existing worker-crash path.
        """
        ev = self._take("preempt", iteration)
        if ev is not None:
            self._count(ev)
            return ev
        spec = self.spec
        if (
            spec.preempt_rate == 0.0
            or self.preempts >= spec.max_preempts
        ):
            return None
        if self._draw("preempt") < spec.preempt_rate:
            ev = MembershipEvent(
                "preempt", iteration, machine=0,
                notice=spec.preempt_notice,
            )
            self._count(ev)
            return ev
        return None


# -- CLI spec parsing ----------------------------------------------------

_MEMBERSHIP_KEYS = {
    "join": ("join_rate", float),
    "leave": ("leave_rate", float),
    "preempt": ("preempt_rate", float),
    "preempt_notice": ("preempt_notice", int),
    "max_joins": ("max_joins", int),
    "max_leaves": ("max_leaves", int),
    "max_preempts": ("max_preempts", int),
    "min_machines": ("min_machines", int),
    "max_machines": ("max_machines", int),
}

#: Public key list for generated CLI help and round-trip tests.
MEMBERSHIP_SPEC_KEYS = tuple(sorted(_MEMBERSHIP_KEYS))


def parse_membership_spec(text: str) -> MembershipSpec:
    """Parse the CLI's ``--elastic-plan`` spec, e.g.
    ``"preempt=0.05,preempt_notice=2,join=0.1,max_machines=8"``."""
    return MembershipSpec(**parse_spec(
        text, "--elastic-plan", "membership", _MEMBERSHIP_KEYS
    ))


def format_membership_spec(spec: MembershipSpec) -> str:
    """Render a spec back into ``--elastic-plan`` syntax (the inverse
    of :func:`parse_membership_spec`; round-trips exactly)."""
    return format_spec(spec, _MEMBERSHIP_KEYS)
