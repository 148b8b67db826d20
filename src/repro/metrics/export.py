"""Export run results for downstream analysis.

Benchmark harnesses and notebooks want a run's outputs and its
per-iteration series as a flat file; :func:`write_json` serializes a
:class:`RunResult` to JSON (full fidelity minus the O(n) assignment).
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

from repro.metrics.results import IterationRecord, RunResult

_RECORD_FIELDS = [f.name for f in dataclasses.fields(IterationRecord)]


def _result_dict(result: RunResult) -> dict:
    """JSON-safe dictionary of a run's outputs and records."""
    return {
        "algorithm": result.algorithm,
        "iterations": result.iterations,
        "converged": result.converged,
        "inertia": result.inertia,
        "sim_seconds": result.sim_seconds,
        "sim_seconds_per_iter": result.sim_seconds_per_iter,
        "peak_memory_bytes": result.peak_memory_bytes,
        "memory_breakdown": dict(result.memory_breakdown),
        "params": _jsonable(result.params),
        "centroids": result.centroids.tolist(),
        "cluster_sizes": result.cluster_sizes.tolist(),
        "records": [
            {f: getattr(r, f) for f in _RECORD_FIELDS}
            for r in result.records
        ],
    }


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, Path):
        return str(value)
    return value


def write_json(path: str | Path, result: RunResult) -> Path:
    """Serialize a run to JSON at ``path``."""
    path = Path(path)
    path.write_text(json.dumps(_result_dict(result), indent=2))
    return path
