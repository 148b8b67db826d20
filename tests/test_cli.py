"""CLI: generate, inspect, and cluster via the repro-kmeans entry."""

import re

import numpy as np
import pytest

from repro.cli import main
from repro.data import write_matrix


@pytest.fixture()
def small_matrix(tmp_path, overlapping):
    path = tmp_path / "data.knor"
    write_matrix(path, overlapping)
    return path


def test_gen_and_info(tmp_path, capsys):
    out = tmp_path / "rm.knor"
    assert main(["gen", "--dataset", "rm-856m", "--n", "256",
                 "-o", str(out)]) == 0
    assert out.exists()
    assert main(["info", str(out)]) == 0
    text = capsys.readouterr().out
    assert "n=256" in text and "d=16" in text


def test_knori_runs_and_saves(small_matrix, tmp_path, capsys):
    out = tmp_path / "result.npz"
    rc = main([
        "knori", str(small_matrix), "-k", "5", "--seed", "1",
        "--max-iters", "20", "--out", str(out),
    ])
    assert rc == 0
    assert "knori:" in capsys.readouterr().out
    data = np.load(out)
    assert data["centroids"].shape == (5, 8)
    assert data["assignment"].shape[0] == 3000


def test_knori_pruning_none(small_matrix, capsys):
    assert main([
        "knori", str(small_matrix), "-k", "3", "--pruning", "none",
        "--max-iters", "10",
    ]) == 0
    assert "knori-" in capsys.readouterr().out


def test_knors_reports_io(small_matrix, capsys):
    assert main([
        "knors", str(small_matrix), "-k", "4", "--max-iters", "10",
    ]) == 0
    out = capsys.readouterr().out
    assert "knors" in out
    assert "read" in out


def test_knors_checkpoint_resume(small_matrix, tmp_path, capsys):
    ckpt = tmp_path / "ckpt"
    assert main([
        "knors", str(small_matrix), "-k", "4", "--max-iters", "4",
        "--checkpoint-dir", str(ckpt), "--checkpoint-interval", "2",
    ]) == 0
    from repro.sem.checkpoint import has_checkpoint

    assert has_checkpoint(ckpt)
    assert main([
        "knors", str(small_matrix), "-k", "4", "--max-iters", "50",
        "--checkpoint-dir", str(ckpt), "--resume",
    ]) == 0


def test_quality_and_json_flags(small_matrix, tmp_path, capsys):
    j = tmp_path / "run.json"
    rc = main([
        "knori", str(small_matrix), "-k", "5", "--quality",
        "--json", str(j), "--max-iters", "15",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "silhouette=" in out and "davies-bouldin=" in out
    import json as _json

    data = _json.loads(j.read_text())
    assert data["params"]["k"] == 5
    assert len(data["records"]) == data["iterations"]


def test_knord(small_matrix, capsys):
    assert main([
        "knord", str(small_matrix), "-k", "4", "--machines", "3",
        "--max-iters", "10",
    ]) == 0
    assert "knord" in capsys.readouterr().out


def test_knord_rejects_elkan(small_matrix, capsys):
    rc = main([
        "knord", str(small_matrix), "-k", "4", "--pruning", "elkan",
    ])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_missing_file_is_graceful(capsys):
    assert main(["info", "/nonexistent/x.knor"]) == 2


def test_bad_dataset_name_rejected(tmp_path):
    with pytest.raises(SystemExit):
        main(["gen", "--dataset", "mnist", "-o",
              str(tmp_path / "x.knor")])


def test_kernel_gemm_matches_blocked(small_matrix, tmp_path):
    runs = {}
    for kernel in ("blocked", "gemm"):
        out = tmp_path / f"{kernel}.npz"
        assert main([
            "knori", str(small_matrix), "-k", "5", "--seed", "1",
            "--max-iters", "15", "--kernel", kernel, "--out", str(out),
        ]) == 0
        runs[kernel] = np.load(out)
    np.testing.assert_array_equal(
        runs["blocked"]["assignment"], runs["gemm"]["assignment"]
    )


def test_kernel_accepted_everywhere(small_matrix, capsys):
    assert main([
        "knors", str(small_matrix), "-k", "4", "--max-iters", "6",
        "--kernel", "gemm",
    ]) == 0
    assert main([
        "knord", str(small_matrix), "-k", "4", "--max-iters", "6",
        "--kernel", "gemm",
    ]) == 0
    assert main([
        "knori", str(small_matrix), "-k", "4", "--max-iters", "6",
        "--algorithm", "minibatch", "--kernel", "gemm",
    ]) == 0
    capsys.readouterr()


def test_kernel_rejected_for_mm_only_algorithms(small_matrix, capsys):
    rc = main([
        "knori", str(small_matrix), "-k", "4", "--max-iters", "5",
        "--algorithm", "gmm", "--kernel", "gemm",
    ])
    assert rc == 2
    assert "kernel" in capsys.readouterr().err


def test_knord_allreduce_rect(small_matrix, capsys):
    assert main([
        "knord", str(small_matrix), "-k", "4", "--max-iters", "6",
        "--allreduce", "rect",
    ]) == 0
    assert "knord" in capsys.readouterr().out


def test_serve_kernel_flag(small_matrix, capsys):
    assert main([
        "serve", str(small_matrix), "-k", "4", "--train-steps", "5",
        "--queries", "400", "--kernel", "gemm",
    ]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("command", ["knori", "knors", "knord"])
@pytest.mark.parametrize("algorithm", ["gmm", "minibatch"])
def test_quality_for_every_algorithm(small_matrix, capsys, command,
                                     algorithm):
    assert main([
        command, str(small_matrix), "-k", "4", "--max-iters", "4",
        "--algorithm", algorithm, "--quality",
    ]) == 0
    assert "quality: silhouette=" in capsys.readouterr().out


def test_serve_prints_each_spill_once(small_matrix, capsys):
    # The fit and the serve share one manager: each spill it makes
    # reaches the trace once.
    assert main([
        "serve", str(small_matrix), "-k", "4", "--train-steps", "5",
        "--queries", "2000", "--ingest-fraction", "0.2", "--mem",
        "budget", "--mem-budget-mb", "0.13", "--trace",
    ]) == 0
    err = capsys.readouterr().err
    spills = int(re.search(r"spills=(\d+)", err).group(1))
    assert spills > 0
    assert err.count("[mem] spill ") == spills


def test_tenants_resilience_counts_every_tenant(small_matrix, capsys):
    # Each tenant draws the same fault trace, so the [resilience] line
    # grows by one tenant's faults per tenant.
    faults = []
    for tenants in ("a=1", "a=1,b=1", "a=1,b=1,c=1"):
        assert main([
            "knord", str(small_matrix), "-k", "4", "--machines", "2",
            "--max-iters", "8", "--faults", "msg_drop=0.3,corrupt_msg=0.3",
            "--fault-seed", "3", "--trace", "--tenants", tenants,
        ]) == 0
        err = capsys.readouterr().err
        faults.append(int(
            re.search(r"\[resilience\] faults=(\d+)", err).group(1)))
    assert faults[0] > 0
    assert faults == [faults[0], 2 * faults[0], 3 * faults[0]]


def test_tenant_trace_prints_each_spill(small_matrix, capsys):
    # A budgeted tenant runs under its own manager; the trace observers
    # are attached to it, so every spill it counts is printed.
    assert main([
        "knord", str(small_matrix), "-k", "4", "--machines", "2",
        "--max-iters", "8", "--trace", "--tenants", "a=1,b=1@0.13",
    ]) == 0
    err = capsys.readouterr().err
    spills = int(re.search(r"spills=(\d+)", err).group(1))
    assert spills > 0
    assert err.count("[mem] spill ") == spills
