"""Autoscaler policy: capacity as a feedback loop over simulated time.

The autoscaler watches the three signals ROADMAP items 2 and 3 name:

* **per-iteration wall time** -- an EWMA of each iteration's
  ``sim_ns`` against a target watermark (the basic "we are too slow,
  buy machines" loop);
* **straggler pressure** -- machines the fault plane slowed and the
  EWMA detector flagged still occupy capacity; surviving fleet
  throughput sags even after their shards re-shard away;
* **memory pressure** -- :class:`~repro.mem.manager.MemoryCounters`
  resident-byte utilization against the budget and fresh spill
  activity (a machine spilling its working set to simulated SSD is a
  machine that needs a peer, not a bigger EWMA).

Requests are charged **honest simulated time**: capacity asked for at
simulated time ``T`` joins only at ``T + provision_s`` on the same
clock the iteration records advance
(:class:`~repro.simhw.engine.ProvisionTimeline`). Scale-down is
graceful -- the victim drains its shards like a planned ``leave``.

Everything here is deterministic: the decision log is a pure function
of the iteration times, straggler counts and memory counters that
drove it, which are themselves pure functions of the workload and the
fault/plan seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.spec import parse_spec
from repro.simhw.engine import ProvisionTimeline


@dataclass(frozen=True)
class AutoscalerPolicy:
    """Scaling thresholds and pacing for one run."""

    #: Scale up when the iteration-time EWMA exceeds this (seconds).
    target_iter_s: float
    #: Scale down when the EWMA falls below this (seconds; ``None``
    #: disables scale-down).
    scale_down_iter_s: float | None = None
    #: EWMA smoothing factor in (0, 1].
    alpha: float = 0.3
    #: Request→grant provisioning latency, simulated seconds.
    provision_s: float = 60.0
    #: Iteration boundaries to wait between scaling decisions.
    cooldown_iters: int = 3
    min_machines: int = 1
    max_machines: int = 16
    #: Machines requested per scale-up decision.
    step: int = 1
    #: Budget utilization (live/budget) that triggers a scale-up.
    mem_utilization: float = 0.9
    #: Count flagged stragglers as a scale-up signal.
    straggler_signal: bool = True
    #: Boundaries observed before the first decision (raw early EWMAs
    #: would misread startup skew as load).
    warmup_iters: int = 2

    def __post_init__(self) -> None:
        if self.target_iter_s <= 0:
            raise ConfigError(
                f"target_iter_s must be > 0, got {self.target_iter_s}"
            )
        if (
            self.scale_down_iter_s is not None
            and not 0 < self.scale_down_iter_s < self.target_iter_s
        ):
            raise ConfigError(
                "scale_down_iter_s must sit in (0, target_iter_s), got "
                f"{self.scale_down_iter_s}"
            )
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigError(f"alpha must be in (0, 1], got {self.alpha}")
        if self.provision_s < 0:
            raise ConfigError(
                f"provision_s must be >= 0, got {self.provision_s}"
            )
        if self.cooldown_iters < 0 or self.warmup_iters < 0:
            raise ConfigError("cooldown/warmup must be >= 0")
        if self.min_machines < 1:
            raise ConfigError(
                f"min_machines must be >= 1, got {self.min_machines}"
            )
        if self.max_machines < self.min_machines:
            raise ConfigError(
                "max_machines must be >= min_machines, got "
                f"{self.max_machines} < {self.min_machines}"
            )
        if self.step < 1:
            raise ConfigError(f"step must be >= 1, got {self.step}")
        if not 0.0 < self.mem_utilization <= 1.0:
            raise ConfigError(
                "mem_utilization must be in (0, 1], got "
                f"{self.mem_utilization}"
            )


class Autoscaler:
    """One run's scaling state machine over a provisioning timeline.

    The distributed backend drives it: :meth:`observe` after every
    iteration (advancing the simulated clock), then
    :meth:`take_grants` / :meth:`take_scale_down` at the next
    iteration boundary to learn what membership changes land now.
    """

    def __init__(self, policy: AutoscalerPolicy) -> None:
        self.policy = policy
        self.timeline = ProvisionTimeline(policy.provision_s * 1e9)
        self.ewma_s: float | None = None
        self._rounds = 0
        self._cooldown = 0
        self._last_spills = 0
        self._want_down = False
        #: Append-only decision log (tests pin its determinism).
        self.decisions: list[dict] = []

    def observe(
        self,
        iteration: int,
        sim_ns: float,
        *,
        n_machines: int,
        stragglers: int = 0,
        mem: "object | None" = None,
    ) -> None:
        """Fold one finished iteration into the scaling state."""
        pol = self.policy
        self.timeline.advance(sim_ns)
        it_s = sim_ns / 1e9
        self.ewma_s = (
            it_s if self.ewma_s is None
            else self.ewma_s + pol.alpha * (it_s - self.ewma_s)
        )
        self._rounds += 1
        signals = []
        if self.ewma_s > pol.target_iter_s:
            signals.append("iter-time")
        if stragglers and pol.straggler_signal:
            signals.append("straggler")
        if mem is not None:
            spills = getattr(mem, "spill_count", 0)
            if spills > self._last_spills:
                signals.append("mem-spill")
            self._last_spills = spills
            if getattr(mem, "budget_utilization", 0.0) >= pol.mem_utilization:
                signals.append("mem-resident")
        if self._rounds <= pol.warmup_iters:
            return
        if self._cooldown > 0:
            self._cooldown -= 1
            return
        provisioned = n_machines + self.timeline.outstanding
        if signals and provisioned < pol.max_machines:
            count = min(pol.step, pol.max_machines - provisioned)
            req = self.timeline.request(count)
            self._cooldown = pol.cooldown_iters
            self.decisions.append({
                "iteration": iteration, "action": "request",
                "count": count, "signals": signals,
                "ewma_s": self.ewma_s,
                "ready_at_s": req.ready_at_ns / 1e9,
            })
        elif (
            not signals
            and pol.scale_down_iter_s is not None
            and self.ewma_s < pol.scale_down_iter_s
            and n_machines > pol.min_machines
            and self.timeline.outstanding == 0
        ):
            self._want_down = True
            self._cooldown = pol.cooldown_iters
            self.decisions.append({
                "iteration": iteration, "action": "release",
                "count": 1, "signals": ["iter-time-low"],
                "ewma_s": self.ewma_s,
            })

    def take_grants(self) -> int:
        """Machines whose provisioning latency elapsed: join them now."""
        return self.timeline.take_ready()

    def take_scale_down(self) -> bool:
        """True once per granted scale-down decision (drain one)."""
        if not self._want_down:
            return False
        self._want_down = False
        return True


# -- CLI spec parsing ----------------------------------------------------

_AUTOSCALER_KEYS = {
    "target_s": ("target_iter_s", float),
    "down_s": ("scale_down_iter_s", float),
    "alpha": ("alpha", float),
    "provision_s": ("provision_s", float),
    "cooldown": ("cooldown_iters", int),
    "min": ("min_machines", int),
    "max": ("max_machines", int),
    "step": ("step", int),
    "mem_util": ("mem_utilization", float),
    "warmup": ("warmup_iters", int),
}

#: Public key list for generated CLI help.
AUTOSCALER_KEYS = tuple(sorted(_AUTOSCALER_KEYS))


def parse_autoscaler(text: str) -> AutoscalerPolicy:
    """Parse the CLI's ``--autoscale`` spec, e.g.
    ``"target_s=0.02,provision_s=30,max=8"``."""
    kwargs = parse_spec(text, "--autoscale", "autoscaler", _AUTOSCALER_KEYS)
    if "target_iter_s" not in kwargs:
        raise ConfigError("--autoscale requires target_s=<seconds>")
    return AutoscalerPolicy(**kwargs)
