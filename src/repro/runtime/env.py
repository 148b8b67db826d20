"""One run's environment, resolved once.

Beside its numerics and its hardware, every run draws on the same six
things: the observers, the fault plan, the retry policy, the
membership plan, the autoscaler and the memory manager. Each public
entry point (``knori``, ``knors``, ``knord``, ``knord_loop``,
``mpi_lloyd``, ``run_mm_*``, ``run_algorithm``, ``ServePlane``)
resolves its keywords into one :class:`RunEnv` and hands it to its
substrate's one assembly, which builds its loop with
:meth:`RunEnv.loop`. The membership plan has one consumer: on a
cluster the backend (it reshards, :meth:`RunEnv.cluster`), on one
machine the loop (it preempts the worker).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Any, ContextManager, Sequence

from repro.mem import MemoryManager, build_manager, use_manager
from repro.runtime.backends import DistributedBackend, PureMpiBackend
from repro.runtime.loop import IterationLoop
from repro.runtime.observer import RunObserver

@dataclass(frozen=True)
class RunEnv:
    """The run context, independent of algorithm and substrate."""

    observers: tuple[RunObserver, ...] = ()
    faults: Any = None
    retry_policy: Any = None
    membership: Any = None
    autoscaler: Any = None
    #: Pushed for the run; ``None`` keeps the ambient manager.
    manager: MemoryManager | None = None

    @classmethod
    def resolve(
        cls, *, observers: Sequence[RunObserver] = (), faults: Any = None,
        retry_policy: Any = None, membership: Any = None,
        autoscaler: Any = None, mem: str | MemoryManager | None = None,
        mem_budget_bytes: int | None = None,
    ) -> "RunEnv":
        """The env of the drivers' keywords.

        ``observers`` receive the run's event stream, the manager's
        alloc/free/spill events included (attached here, once).
        ``faults``/``retry_policy`` are a :class:`~repro.faults.FaultPlan`
        and :class:`~repro.faults.RetryPolicy`, ``membership``/
        ``autoscaler`` a :class:`~repro.elastic.MembershipPlan` and
        :class:`~repro.elastic.Autoscaler`. ``mem`` selects the
        interpreter-side memory manager: ``"numpy"``, ``"arena"``
        (pooled reuse), ``"budget"`` (hard byte cap with simulated-SSD
        spill; needs ``mem_budget_bytes``), a prebuilt
        :class:`~repro.mem.MemoryManager`, or ``None`` to keep the
        ambient one. Results are bit-identical across managers.
        """
        manager = build_manager(mem, budget_bytes=mem_budget_bytes)
        observers = tuple(observers)
        if manager is not None:
            for obs in observers:
                manager.attach_observer(obs)
        return cls(
            observers, faults, retry_policy, membership, autoscaler,
            manager,
        )

    @classmethod
    def take(cls, kwargs: dict[str, Any], runner: Any) -> "RunEnv":
        """:meth:`resolve` the env keywords ``runner`` declares (its
        keyword-only parameters), removing them from ``kwargs``: the
        rest is the substrate's to take or reject."""
        declared = [
            p.name for p in inspect.signature(runner).parameters.values()
            if p.kind is p.KEYWORD_ONLY
        ]
        return cls.resolve(
            **{key: kwargs.pop(key) for key in declared if key in kwargs}
        )

    def use(self) -> ContextManager[MemoryManager]:
        """Push the run's manager (a pass-through without one)."""
        return use_manager(self.manager)

    def cluster(self, backend: type, *args: Any, **kwargs: Any) -> Any:
        """A cluster backend carrying the run's plans: on a cluster the
        backend consumes the membership plan and the autoscaler."""
        return backend(
            *args, faults=self.faults, retry_policy=self.retry_policy,
            membership=self.membership, autoscaler=self.autoscaler,
            **kwargs,
        )

    def loop(self, backend: Any, **kwargs: Any) -> IterationLoop:
        """The run's un-started :class:`IterationLoop` over ``backend``.
        On one machine the loop consumes the membership plan; a
        cluster backend (built by :meth:`cluster`) holds it already."""
        on_cluster = isinstance(backend, (DistributedBackend, PureMpiBackend))
        return IterationLoop(
            backend, observers=self.observers, faults=self.faults,
            membership=None if on_cluster else self.membership, **kwargs,
        )

