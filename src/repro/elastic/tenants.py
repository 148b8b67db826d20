"""Multi-tenant fair share: several jobs, one simulated cluster.

The scheduler runs each tenant's :class:`~repro.runtime.IterationLoop`
one iteration boundary at a time and always picks the tenant with the
lowest **virtual time** -- consumed simulated nanoseconds divided by
the tenant's weight, the classic weighted-fair-queueing rule. Ties
break on the tenant name, so the interleaving is a pure function of
the jobs' simulated costs and weights: no wall clocks, no racing.

Isolation is per tenant:

* **memory** -- each job may carry its own
  :class:`~repro.mem.BudgetedManager`; the scheduler enters it
  (``use_manager``) around every boundary it runs for that tenant, so
  one tenant spilling to simulated SSD never charges a neighbour's
  budget;
* **elastic events** -- each job's own observers receive that job's
  ``on_scale_up`` / ``on_scale_down`` / ``on_preempt_notice`` stream
  (the loop's observer chain is per tenant already);
* **failures** -- a tenant that aborts (typed error) is recorded and
  removed from the rotation; the others keep running.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.errors import ConfigError, KnorError


@dataclass(frozen=True)
class TenantSpec:
    """One tenant as named on the CLI."""

    name: str
    weight: float = 1.0
    #: Per-tenant memory budget, MB (``None`` = unbudgeted).
    budget_mb: float | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("tenant name must be non-empty")
        if self.weight <= 0:
            raise ConfigError(
                f"tenant {self.name!r}: weight must be > 0, got "
                f"{self.weight}"
            )
        if self.budget_mb is not None and self.budget_mb <= 0:
            raise ConfigError(
                f"tenant {self.name!r}: budget_mb must be > 0, got "
                f"{self.budget_mb}"
            )


@dataclass
class TenantJob:
    """A tenant's runnable work: its loop plus its isolation context."""

    spec: TenantSpec
    #: An :class:`~repro.runtime.IterationLoop` (started by the
    #: scheduler; drive it only through the scheduler).
    loop: Any
    #: Optional per-tenant memory manager (e.g. a BudgetedManager).
    manager: Any = None

    @property
    def name(self) -> str:
        return self.spec.name


@dataclass
class TenantOutcome:
    """What one tenant's job produced under the scheduler."""

    name: str
    result: Any = None          # LoopResult when the job completed
    error: str | None = None    # typed abort, when it did not
    sim_ns: float = 0.0         # simulated time consumed
    boundaries: int = 0         # iteration boundaries granted


class FairShareScheduler:
    """Deterministic weighted fair share over tenant jobs."""

    def __init__(self, jobs: list[TenantJob]) -> None:
        if not jobs:
            raise ConfigError("fair-share scheduler needs >= 1 tenant")
        names = [j.name for j in jobs]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate tenant names: {sorted(names)}")
        self.jobs = list(jobs)
        #: The grant sequence, for tests: ``[(tenant, iteration), ...]``.
        self.grants: list[tuple[str, int]] = []

    def run(self) -> dict[str, TenantOutcome]:
        """Run every tenant to completion (or typed abort)."""
        from repro.mem import use_manager

        outcomes = {
            j.name: TenantOutcome(name=j.name) for j in self.jobs
        }
        virtual: dict[str, float] = {j.name: 0.0 for j in self.jobs}
        for job in self.jobs:
            with use_manager(job.manager):
                job.loop.start()
        active = list(self.jobs)
        while active:
            job = min(
                active, key=lambda j: (virtual[j.name], j.name)
            )
            out = outcomes[job.name]
            before = job.loop.consumed_sim_ns
            try:
                with use_manager(job.manager):
                    more = job.loop.step()
            except KnorError as exc:
                out.error = f"{type(exc).__name__}: {exc}"
                active.remove(job)
                continue
            if not more:
                with use_manager(job.manager):
                    out.result = job.loop.finish()
                active.remove(job)
                continue
            after = job.loop.consumed_sim_ns
            # A recovered boundary may rewind records; time never
            # rewinds. The 1ns floor guarantees rotation progress.
            charged = max(after - before, 1.0)
            out.sim_ns += charged
            out.boundaries += 1
            self.grants.append((job.name, out.boundaries))
            virtual[job.name] += charged / job.spec.weight
        return outcomes


# -- CLI spec parsing ----------------------------------------------------

def parse_tenants(text: str) -> list[TenantSpec]:
    """Parse the CLI's ``--tenants`` spec.

    Comma-separated ``name=weight`` entries, each with an optional
    ``@budget_mb`` suffix: ``"alice=2,bob=1@64"`` is two tenants where
    alice gets 2x the capacity and bob runs under a 64 MB budget.
    """
    from repro.spec import spec_pairs, spec_value

    specs: list[TenantSpec] = []
    for name, rest in spec_pairs(
        text, "--tenants", "name=weight[@budget_mb]"
    ):
        budget_mb: float | None = None
        weight_s = rest
        if "@" in rest:
            weight_s, budget_s = rest.split("@", 1)
            budget_mb = spec_value(
                float, budget_s.strip(), f"{name}@budget_mb", "--tenants"
            )
        specs.append(TenantSpec(
            name=name,
            weight=spec_value(float, weight_s.strip(), name, "--tenants"),
            budget_mb=budget_mb,
        ))
    if not specs:
        raise ConfigError("--tenants named no tenants")
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise ConfigError(f"duplicate tenant names: {sorted(names)}")
    return specs
