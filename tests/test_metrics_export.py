"""Export helpers: the JSON run report."""

import json

import numpy as np
import pytest

from repro import ConvergenceCriteria, knori
from repro.metrics import write_json


@pytest.fixture(scope="module")
def run(overlapping):
    return knori(
        overlapping, 5, seed=0,
        criteria=ConvergenceCriteria(max_iters=10),
    )


def test_json_fields(run, tmp_path):
    d = json.loads(write_json(tmp_path / "run.json", run).read_text())
    assert d["algorithm"] == "knori"
    assert d["iterations"] == run.iterations
    assert len(d["records"]) == run.iterations
    assert len(d["centroids"]) == 5
    assert "assignment" not in d


def test_json_roundtrip(run, tmp_path):
    path = write_json(tmp_path / "run.json", run)
    back = json.loads(path.read_text())
    assert back["inertia"] == pytest.approx(run.inertia)
    assert back["params"]["k"] == 5
    np.testing.assert_allclose(
        np.array(back["centroids"]), run.centroids
    )


def test_json_is_pure_json(run, tmp_path):
    """No numpy scalars sneak into the JSON output."""
    path = write_json(tmp_path / "r.json", run)
    json.loads(path.read_text())  # raises on non-JSON values
