"""repro.runtime: the unified execution layer under every driver.

The paper's three engines -- in-memory (Section 5), semi-external
(Section 6) and distributed (Section 7) -- share one iteration
skeleton: exact numerics, row-block task construction, scheduler and
engine replay, barrier + reduction, per-iteration accounting. This
package factors that skeleton out once:

* **sources** (:class:`KmeansSource`, :class:`MMSource`) produce
  per-iteration exact work statistics;
* **backends** (:class:`InMemoryBackend`, :class:`SemBackend`,
  :class:`DistributedBackend`, :class:`PureMpiBackend`) price them on
  a substrate and emit :class:`~repro.metrics.IterationRecord`\\s;
* the :class:`IterationLoop` orchestrates any backend to convergence
  and assembles results uniformly;
* :class:`RunObserver` hooks expose the full trace-event stream to
  benchmarks, the CLI, and profilers.

``knori()``, ``knors()``, ``knord()``, the MM plane's ``run_mm_*``
drivers and ``baselines.mpi_lloyd`` are thin parameter-translation
shims over these pieces.

On top of the skeleton sits the **MM algorithm plane**
(:mod:`repro.runtime.mm`): any algorithm expressible as a per-row
*majorize* phase plus a global additive *minimize* reduction
(:class:`MMAlgorithm`) -- the one contract for custom
algorithms -- inherits all three backends, fault recovery,
checkpoints and the observer bus via ``run_mm_inmemory`` /
``run_mm_sem`` / ``run_mm_distributed``. k-means itself is the first
implementation (:class:`KmeansMM`); the extension zoo supplies the
rest (see :mod:`repro.extensions`).
"""

from repro.runtime.backends import (
    CheckpointHook,
    DistributedBackend,
    ExecutionBackend,
    InMemoryBackend,
    IterationOutcome,
    PureMpiBackend,
    SemBackend,
    ShardedKmeans,
    ShardedProgram,
)
from repro.runtime.loop import IterationLoop, LoopResult
from repro.runtime.mm import (
    KmeansMM,
    MMAlgorithm,
    MMShardedProgram,
    MMSource,
    MMStep,
    run_mm,
    run_mm_distributed,
    run_mm_inmemory,
    run_mm_sem,
)
from repro.runtime.memory import (
    register_distributed_memory,
    register_inmemory_memory,
    register_mm_memory,
    register_sem_memory,
    state_bytes_per_row,
)
from repro.runtime.observer import (
    ObserverChain,
    PrintObserver,
    RecordingObserver,
    RunObserver,
    TraceEvent,
    chain_observers,
)
from repro.runtime.sources import (
    KmeansSource,
    NumericsSource,
    StepStats,
    resolve_row_data,
)

__all__ = [
    "CheckpointHook",
    "DistributedBackend",
    "ExecutionBackend",
    "InMemoryBackend",
    "IterationLoop",
    "IterationOutcome",
    "KmeansMM",
    "KmeansSource",
    "LoopResult",
    "MMAlgorithm",
    "MMShardedProgram",
    "MMSource",
    "MMStep",
    "NumericsSource",
    "ObserverChain",
    "PrintObserver",
    "PureMpiBackend",
    "RecordingObserver",
    "RunObserver",
    "SemBackend",
    "ShardedKmeans",
    "ShardedProgram",
    "StepStats",
    "TraceEvent",
    "chain_observers",
    "register_distributed_memory",
    "register_inmemory_memory",
    "register_mm_memory",
    "register_sem_memory",
    "resolve_row_data",
    "run_mm",
    "run_mm_distributed",
    "run_mm_inmemory",
    "run_mm_sem",
    "state_bytes_per_row",
]
