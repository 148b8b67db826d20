"""Memory-layout registration and per-row state accounting (Table 1).

Two layouts exist, and every substrate registers one of them per
simulated machine:

* :func:`register_kmeans_memory` -- the k-means layout of Table 1:
  row data (when resident), assignments, global + per-thread centroid
  copies, the pruning mode's bounds and, semi-externally, the SAFS
  caches. :class:`~repro.runtime.mm.KmeansMM` owns it, so knori, knors
  and MM k-means report the same breakdown; knord's per-shard
  ``ShardedKmeans`` path calls it once per machine.
* :func:`register_mm_memory` -- the generic MM layout for every other
  algorithm (and the serving plane): O(n) per-row state plus global and
  per-thread model copies.

The module also owns the *per-row state traffic* constant the task
builder charges alongside row data:

* unpruned: the 4-byte assignment slot;
* MTI: assignment + the 8-byte upper bound (12 B/row);
* Elkan: assignment + upper bound + the k-wide lower-bound row
  (``(k + 1) * 8 + 4`` B/row) -- the O(nk) bound matrix is real state
  the iteration touches, so charging Elkan the MTI rate (as the seed
  drivers did) underestimates its memory traffic.
"""

from __future__ import annotations

from repro.simhw import AllocPolicy, BindPolicy, SimMachine

_F64 = 8
_I32 = 4


def state_bytes_per_row(pruning: str | None, k: int) -> int:
    """Bytes of algorithm state touched per active row, by mode."""
    if pruning is None:
        return _I32
    if pruning == "mti":
        return _F64 + _I32
    if pruning == "elkan":
        return (k + 1) * _F64 + _I32
    raise ValueError(f"unknown pruning mode {pruning!r}")


def _data_policy(machine: SimMachine) -> AllocPolicy:
    """Placement of O(n) row-indexed structures: partitioned with the
    rows under NUMA binding, first-touch oblivious otherwise."""
    if machine.bind_policy is BindPolicy.OBLIVIOUS:
        return AllocPolicy.OBLIVIOUS
    return AllocPolicy.PARTITIONED


def _alloc_model(
    machine: SimMachine, name: str, component: str, slots: int, d: int,
    thread_extra: int = 0,
) -> None:
    """A global model copy plus one private copy per thread."""
    machine.memory.alloc(
        f"global_{name}", slots * d * _F64, AllocPolicy.INTERLEAVE,
        component=component,
    )
    for th in machine.threads:
        machine.memory.alloc(
            f"thread{th.thread_id}_{name}",
            slots * d * _F64 + thread_extra,
            AllocPolicy.NUMA_BIND,
            component=f"per_thread_{component}",
            home_node=th.node,
        )


def _alloc_caches(
    machine: SimMachine, row_cache_bytes: int, page_cache_bytes: int,
    *, page_cache: bool,
) -> None:
    mem = machine.memory
    if row_cache_bytes > 0:
        mem.alloc(
            "row_cache", row_cache_bytes, AllocPolicy.PARTITIONED,
            component="row_cache",
        )
    if page_cache:
        mem.alloc(
            "page_cache", page_cache_bytes, AllocPolicy.INTERLEAVE,
            component="page_cache",
        )


def register_kmeans_memory(
    machine: SimMachine,
    n: int,
    d: int,
    k: int,
    pruning: str | None,
    *,
    resident_rows: bool = True,
    row_cache_bytes: int = 0,
    page_cache_bytes: int = 0,
) -> None:
    """The k-means layout (Table 1) over ``n`` rows on one machine.

    ``resident_rows=False`` is the semi-external layout: no O(nd) row
    data, only O(n) state plus the row cache (when enabled) and the
    SAFS page cache -- the semi-external argument in one layout.
    """
    mem = machine.memory
    policy = _data_policy(machine)
    if resident_rows:
        mem.alloc("row_data", n * d * _F64, policy, component="data")
    mem.alloc("assignment", n * _I32, policy, component="assignment")
    _alloc_model(machine, "centroids", "centroids", k, d,
                 thread_extra=k * _F64)
    dist_matrix = (k * (k + 1) // 2) * _F64
    if pruning == "mti":
        mem.alloc("mti_upper_bounds", n * _F64, policy,
                  component="mti_bounds")
        mem.alloc("centroid_dist_matrix", dist_matrix,
                  AllocPolicy.INTERLEAVE, component="mti_bounds")
    elif pruning == "elkan":
        mem.alloc("elkan_upper_bounds", n * _F64, policy,
                  component="ti_bounds")
        mem.alloc("elkan_lower_bounds", n * k * _F64, policy,
                  component="ti_lower_bound_matrix")
        mem.alloc("centroid_dist_matrix", dist_matrix,
                  AllocPolicy.INTERLEAVE, component="ti_bounds")
    _alloc_caches(machine, row_cache_bytes, page_cache_bytes,
                  page_cache=not resident_rows)


def register_mm_memory(
    machine: SimMachine,
    n: int,
    d: int,
    *,
    state_bytes_per_row: int,
    model_slots: int,
    resident_rows: bool = True,
    row_cache_bytes: int = 0,
    page_cache_bytes: int = 0,
) -> None:
    """Generic MM algorithm layout: row data (unless semi-external),
    O(n) per-row algorithm state, and the global + per-thread model
    copies (``model_slots`` d-length f64 vectors, the same funnel
    width the reduction is priced with)."""
    mem = machine.memory
    policy = _data_policy(machine)
    if resident_rows:
        mem.alloc("row_data", n * d * _F64, policy, component="data")
    mem.alloc(
        "mm_row_state", n * state_bytes_per_row, policy,
        component="mm_state",
    )
    _alloc_model(machine, "model", "model", model_slots, d)
    _alloc_caches(machine, row_cache_bytes, page_cache_bytes,
                  page_cache=page_cache_bytes > 0)
