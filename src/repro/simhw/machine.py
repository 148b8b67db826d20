"""One simulated shared-memory machine.

Bundles the static pieces (topology, cost model, optional SSD array)
with the per-run pieces (memory manager, worker threads, execution
engine) behind a single object the drivers instantiate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.simhw.costmodel import CostModel, FOUR_SOCKET_XEON
from repro.simhw.engine import IterationEngine
from repro.simhw.memory import MemoryManager
from repro.simhw.ssd import SsdArray
from repro.simhw.thread import SimThread, spawn_threads
from repro.simhw.topology import BindPolicy, NumaTopology


@dataclass
class SimMachine:
    """A simulated NUMA machine ready to run worker threads.

    Examples
    --------
    >>> from repro.simhw import FOUR_SOCKET_XEON, BindPolicy
    >>> m = SimMachine.build(FOUR_SOCKET_XEON, n_threads=8)
    >>> len(m.threads)
    8
    >>> {t.node for t in m.threads}
    {0, 1, 2, 3}
    """

    cost_model: CostModel
    n_threads: int
    bind_policy: BindPolicy
    memory: MemoryManager
    threads: list[SimThread]
    engine: IterationEngine
    ssd: SsdArray | None = None

    @property
    def topology(self) -> NumaTopology:
        return self.cost_model.topology

    @classmethod
    def build(
        cls,
        cost_model: CostModel | None = None,
        *,
        n_threads: int | None = None,
        bind_policy: BindPolicy | None = None,
        ssd: SsdArray | None = None,
        record_executions: bool = False,
    ) -> "SimMachine":
        """Construct a machine with ``n_threads`` workers.

        The defaults are every single-machine run's: the paper's
        4-socket Xeon, NUMA-bound threads and ``n_threads`` at the
        machine's physical core count, the configuration the paper
        benchmarks most.
        """
        cost_model = cost_model or FOUR_SOCKET_XEON
        bind_policy = bind_policy or BindPolicy.NUMA_BIND
        topo = cost_model.topology
        if n_threads is None:
            n_threads = topo.physical_cores
        if n_threads < 1:
            raise ConfigError(f"n_threads must be >= 1, got {n_threads}")
        if n_threads > topo.hardware_threads * 4:
            raise ConfigError(
                f"{n_threads} threads grossly oversubscribes "
                f"{topo.hardware_threads} hardware threads"
            )
        return cls(
            cost_model=cost_model,
            n_threads=n_threads,
            bind_policy=bind_policy,
            memory=MemoryManager(topo),
            threads=spawn_threads(topo, n_threads, bind_policy),
            engine=IterationEngine(
                cost_model,
                bind_policy=bind_policy,
                record_executions=record_executions,
            ),
            ssd=ssd,
        )

    def nodes_of_row_blocks(self, block_fracs: np.ndarray) -> np.ndarray:
        """NUMA node holding each row block, by relative dataset position.

        Figure 1's layout: thread ``t`` owns rows ``[t*alpha,
        (t+1)*alpha)`` and its partition is allocated on *its* node --
        so a block's home bank is its owning thread's node (at T=1,
        everything is local to the one thread). Under an oblivious
        layout everything sits on node 0. ``build_task_blocks`` uses
        this to stamp ``TaskWork.home_node``.
        """
        fracs = np.asarray(block_fracs, dtype=np.float64)
        if self.bind_policy is BindPolicy.OBLIVIOUS:
            return np.zeros(fracs.shape, dtype=np.int64)
        owners = np.minimum(
            (fracs * self.n_threads).astype(np.int64), self.n_threads - 1
        )
        return np.array([t.node for t in self.threads])[owners]
