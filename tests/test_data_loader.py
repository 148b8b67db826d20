"""CSV/NPY import and the convert CLI path."""

import numpy as np
import pytest

from repro.cli import main
from repro.data import convert_to_knor, load_csv, load_npy, read_matrix
from repro.errors import ConfigError, DatasetError


@pytest.fixture()
def csv_file(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1.0,2.0,3.0\n4.0,5.0,6.0\n7.5,8.5,9.5\n")
    return p


@pytest.fixture()
def npy_file(tmp_path):
    p = tmp_path / "m.npy"
    np.save(p, np.arange(12, dtype=np.float32).reshape(4, 3))
    return p


class TestLoadCsv:
    def test_basic(self, csv_file):
        x = load_csv(csv_file)
        assert x.shape == (3, 3)
        assert x.dtype == np.float64
        assert x[2, 2] == 9.5

    def test_header_skip(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("a,b\n1,2\n3,4\n")
        x = load_csv(p, skip_header=1)
        assert x.shape == (2, 2)

    def test_other_delimiter(self, tmp_path):
        p = tmp_path / "t.tsv"
        p.write_text("1\t2\n3\t4\n")
        x = load_csv(p, delimiter="\t")
        assert x.shape == (2, 2)

    def test_single_column(self, tmp_path):
        p = tmp_path / "one.csv"
        p.write_text("1\n2\n3\n")
        assert load_csv(p).shape == (3, 1)

    @pytest.mark.parametrize(
        "text, shape", [("1,2,3\n", (1, 3)), ("5\n", (1, 1))],
        ids=["row", "cell"],
    )
    def test_single_row(self, tmp_path, text, shape):
        p = tmp_path / "row.csv"
        p.write_text(text)
        assert load_csv(p).shape == shape

    def test_non_numeric_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1,2\n3,oops\n")
        with pytest.raises(DatasetError):
            load_csv(p)

    def test_ragged_rejected(self, tmp_path):
        p = tmp_path / "ragged.csv"
        p.write_text("1,2,3\n4,5\n")
        with pytest.raises(DatasetError):
            load_csv(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError):
            load_csv(tmp_path / "nope.csv")


class TestLoadNpy:
    def test_basic(self, npy_file):
        x = load_npy(npy_file)
        assert x.shape == (4, 3)
        assert x.dtype == np.float64

    def test_wrong_ndim(self, tmp_path):
        p = tmp_path / "v.npy"
        np.save(p, np.arange(5))
        with pytest.raises(DatasetError):
            load_npy(p)

    def test_non_numeric(self, tmp_path):
        p = tmp_path / "s.npy"
        np.save(p, np.array([["a", "b"]]))
        with pytest.raises(DatasetError):
            load_npy(p)

    def test_complex_rejected(self, tmp_path):
        p = tmp_path / "c.npy"
        np.save(p, np.array([[1 + 2j, 3 + 0j]]))
        with pytest.raises(DatasetError, match="c.npy.*complex"):
            load_npy(p)


class TestConvert:
    def test_csv_roundtrip(self, csv_file, tmp_path):
        out = tmp_path / "m.knor"
        convert_to_knor(csv_file, out)
        np.testing.assert_array_equal(
            read_matrix(out), load_csv(csv_file)
        )

    def test_npy_roundtrip(self, npy_file, tmp_path):
        out = tmp_path / "m.knor"
        convert_to_knor(npy_file, out)
        assert read_matrix(out).shape == (4, 3)

    def test_unknown_format(self, csv_file, tmp_path):
        with pytest.raises(DatasetError):
            convert_to_knor(csv_file, tmp_path / "x.knor", fmt="hdf5")

    def test_cli_convert_then_cluster(self, csv_file, tmp_path, capsys):
        out = tmp_path / "m.knor"
        assert main(["convert", str(csv_file), "-o", str(out)]) == 0
        assert "n=3 d=3" in capsys.readouterr().out
        assert main([
            "knori", str(out), "-k", "2", "--max-iters", "5",
        ]) == 0


class TestNonFiniteRejection:
    """NaN/inf cells poison every distance they touch; the loaders
    refuse them by default and name the offending rows."""

    @pytest.fixture()
    def dirty_npy(self, tmp_path):
        x = np.arange(12, dtype=np.float64).reshape(4, 3)
        x[1, 2] = np.nan
        x[3, 0] = np.inf
        p = tmp_path / "dirty.npy"
        np.save(p, x)
        return p

    def test_npy_rejected_naming_rows(self, dirty_npy):
        with pytest.raises(DatasetError, match=r"\[1, 3\]"):
            load_npy(dirty_npy)

    def test_npy_allow_nonfinite_escape(self, dirty_npy):
        x = load_npy(dirty_npy, allow_nonfinite=True)
        assert np.isnan(x[1, 2])
        assert np.isinf(x[3, 0])

    def test_csv_rejected(self, tmp_path):
        p = tmp_path / "dirty.csv"
        p.write_text("1.0,2.0\nnan,4.0\n5.0,inf\n")
        with pytest.raises(DatasetError, match="NaN/inf"):
            load_csv(p)

    def test_csv_allow_nonfinite_escape(self, tmp_path):
        p = tmp_path / "dirty.csv"
        p.write_text("1.0,2.0\nnan,4.0\n")
        x = load_csv(p, allow_nonfinite=True)
        assert np.isnan(x[1, 0])

    def test_error_caps_row_listing(self, tmp_path):
        x = np.full((20, 2), np.nan)
        p = tmp_path / "allbad.npy"
        np.save(p, x)
        with pytest.raises(DatasetError, match=r"\+12 more"):
            load_npy(p)

    def test_convert_passes_flag_through(self, dirty_npy, tmp_path):
        out = tmp_path / "dirty.knor"
        with pytest.raises(DatasetError):
            convert_to_knor(dirty_npy, out)
        convert_to_knor(dirty_npy, out, allow_nonfinite=True)
        assert np.isnan(read_matrix(out)[1, 2])

    def test_cli_flag(self, dirty_npy, tmp_path):
        out = tmp_path / "dirty.knor"
        assert main(["convert", str(dirty_npy), "-o", str(out)]) == 2
        assert main([
            "convert", str(dirty_npy), "-o", str(out),
            "--allow-nonfinite",
        ]) == 0


class TestKTooLarge:
    """k > n is a dataset-shape mistake, not a numerics fault: every
    driver raises the same typed error before touching simulated
    hardware."""

    def test_drivers_reject_k_gt_n(self, tmp_path):
        from repro import knord, knori, knors
        from repro.data import write_matrix

        x = np.arange(10, dtype=np.float64).reshape(5, 2)
        with pytest.raises(DatasetError, match="k=7"):
            knori(x, 7)
        with pytest.raises(DatasetError, match="k=7"):
            knord(x, 7, n_machines=2)
        path = write_matrix(tmp_path / "m.knor", x)
        with pytest.raises(DatasetError, match="k=7"):
            knors(str(path), 7)

    def test_mpi_lloyd_rejects_k_gt_n(self):
        from repro.baselines import mpi_lloyd

        x = np.arange(10, dtype=np.float64).reshape(5, 2)
        with pytest.raises(DatasetError, match="k=7"):
            mpi_lloyd(x, 7, n_machines=1, ranks_per_machine=1)

    @pytest.mark.parametrize("k", [2.5, True])
    def test_drivers_reject_non_integer_k(self, tmp_path, k):
        from repro import knord, knori, knors
        from repro.baselines import mpi_lloyd
        from repro.data import write_matrix

        x = np.arange(10, dtype=np.float64).reshape(5, 2)
        path = write_matrix(tmp_path / "m.knor", x)
        runs = (
            lambda: knori(x, k),
            lambda: knors(str(path), k),
            lambda: knord(x, k, n_machines=2),
            lambda: mpi_lloyd(x, k, n_machines=1, ranks_per_machine=1),
        )
        for run in runs:
            with pytest.raises(ConfigError, match="k must be an integer"):
                run()
