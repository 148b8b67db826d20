"""Shared fixtures and reporting helpers for the benchmark harness.

Every bench regenerates one of the paper's tables or figures at
reproduction scale, prints it (visible with ``pytest -s`` and in the
captured output), and writes it to ``results/latest_report.txt``. That
file is untracked and rewritten by each pytest session (its first
report truncates it), so a full ``pytest benchmarks/ --benchmark-only``
run leaves a complete report on disk without touching the tree. The
tracked ``results/benchmark_report.txt`` is a committed copy of one
full run. EXPERIMENTS.md records paper-vs-measured per figure.

Scale note: datasets run at ~1/1000 of the paper's n (Table 2 registry
defaults). Simulated times are labelled sim; Table 3 rows are real
wall-clock.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.data import friendster_like, load_dataset

RESULTS = Path(__file__).resolve().parent.parent / "results"
REPORT = RESULTS / "latest_report.txt"
_session_reports = 0


def report(title: str, body: str) -> None:
    """Print a figure/table and add it to this session's report."""
    global _session_reports
    text = f"\n{'#' * 70}\n# {title}\n{'#' * 70}\n{body}\n"
    print(text)
    RESULTS.mkdir(exist_ok=True)
    with open(REPORT, "a" if _session_reports else "w") as fh:
        fh.write(text)
    _session_reports += 1


@pytest.fixture(scope="session")
def fr8():
    """Friendster-8 at reproduction scale (66M -> 64K rows)."""
    return friendster_like(65536, 8)


@pytest.fixture(scope="session")
def fr32():
    """Friendster-32 at reproduction scale."""
    return friendster_like(65536, 32)


@pytest.fixture(scope="session")
def fr8_small():
    """Smaller Friendster-8 cut for sweep-heavy benches."""
    return friendster_like(16384, 8)


@pytest.fixture(scope="session")
def rm856():
    return load_dataset("rm-856m", n=131072)


@pytest.fixture(scope="session")
def rm1b():
    return load_dataset("rm-1b", n=131072)


@pytest.fixture(scope="session")
def ru2b():
    return load_dataset("ru-2b", n=131072)


@pytest.fixture(scope="session")
def fr32_file(tmp_path_factory, fr32):
    from repro.data import write_matrix

    path = tmp_path_factory.mktemp("data") / "fr32.knor"
    write_matrix(path, fr32)
    return path


@pytest.fixture(scope="session")
def fr8_file(tmp_path_factory, fr8):
    from repro.data import write_matrix

    path = tmp_path_factory.mktemp("data") / "fr8.knor"
    write_matrix(path, fr8)
    return path
