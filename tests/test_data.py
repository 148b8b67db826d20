"""Datasets: generators, registry, and the on-disk matrix format."""

import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.data import (
    DATASETS,
    MatrixFile,
    friendster_like,
    king_like,
    load_dataset,
    rand_multivariate,
    rand_univariate,
    read_matrix,
    write_matrix,
)
from repro.data.friendster import rmat_edges
from repro.data.matrixfile import HEADER_BYTES
from repro.errors import DatasetError


class TestSynthetic:
    def test_rm_shape_and_determinism(self):
        a = rand_multivariate(500, 16, seed=1)
        b = rand_multivariate(500, 16, seed=1)
        assert a.shape == (500, 16)
        np.testing.assert_array_equal(a, b)
        c = rand_multivariate(500, 16, seed=2)
        assert not np.array_equal(a, c)

    def test_rm_has_cluster_structure(self):
        x = rand_multivariate(2000, 8, n_components=4, spread=10.0, seed=0)
        # Spread-10 means vs scale-1 noise: total variance far exceeds
        # within-component variance.
        assert x.var() > 10.0

    def test_ru_uniform_range(self):
        x = rand_univariate(1000, 4, seed=0)
        assert x.min() >= 0.0
        assert x.max() < 1.0
        assert abs(x.mean() - 0.5) < 0.05

    def test_validation(self):
        with pytest.raises(DatasetError):
            rand_multivariate(0, 4)
        with pytest.raises(DatasetError):
            rand_univariate(10, 0)
        with pytest.raises(DatasetError):
            rand_multivariate(10, 4, n_components=0)


class TestFriendster:
    def test_rmat_power_law_degrees(self):
        edges = rmat_edges(12, 16, seed=0)
        deg = np.bincount(edges.ravel())
        deg = deg[deg > 0]
        # Heavy tail: max degree far above the mean.
        assert deg.max() > 20 * deg.mean()

    def test_rmat_validation(self):
        with pytest.raises(DatasetError):
            rmat_edges(0, 8)
        with pytest.raises(DatasetError):
            rmat_edges(10, 8, a=0.9, b=0.2, c=0.2)

    def test_embedding_shape_and_cache(self, friendster_small):
        assert friendster_small.shape == (4096, 8)
        again = friendster_like(4096, 8)
        np.testing.assert_array_equal(friendster_small, again)

    def test_truncation(self):
        x = friendster_like(3000, 4)
        assert x.shape == (3000, 4)

    def test_king_differs_from_friendster(self):
        a = friendster_like(2048, 8)
        b = king_like(2048, 8)
        assert not np.array_equal(a, b)

    def test_validation(self):
        with pytest.raises(DatasetError):
            friendster_like(4, 8)
        with pytest.raises(DatasetError):
            friendster_like(1024, 0)


class TestRegistry:
    def test_table2_entries_present(self):
        for name in (
            "friendster-8", "friendster-32", "rm-856m", "rm-1b", "ru-2b",
        ):
            assert name in DATASETS

    def test_paper_dimensions_preserved(self):
        assert DATASETS["friendster-8"].d == 8
        assert DATASETS["friendster-32"].d == 32
        assert DATASETS["rm-856m"].d == 16
        assert DATASETS["rm-1b"].d == 32
        assert DATASETS["ru-2b"].d == 64

    def test_load_scaled(self):
        x = load_dataset("rm-856m", n=512)
        assert x.shape == (512, 16)

    def test_unknown_dataset(self):
        with pytest.raises(DatasetError):
            load_dataset("imagenet")

    def test_too_small_n(self):
        with pytest.raises(DatasetError):
            load_dataset("ru-2b", n=4)


class TestMatrixFile:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(100, 7))
        path = write_matrix(tmp_path / "m.knor", x)
        back = read_matrix(path)
        np.testing.assert_array_equal(back, x)

    def test_float32_roundtrip(self, tmp_path):
        x = np.ones((10, 3), dtype=np.float32)
        path = write_matrix(tmp_path / "m32.knor", x)
        mf = MatrixFile(path)
        assert mf.dtype == np.float32
        np.testing.assert_array_equal(mf.read_rows(None), x)

    def test_row_access(self, tmp_path):
        x = np.arange(60, dtype=np.float64).reshape(20, 3)
        path = write_matrix(tmp_path / "rows.knor", x)
        with MatrixFile(path) as mf:
            got = mf.read_rows(np.array([0, 5, 19]))
            np.testing.assert_array_equal(got, x[[0, 5, 19]])
            assert mf.row_bytes == 24
            assert mf.byte_range_of_row(5) == (120, 144)

    def test_row_out_of_range(self, tmp_path):
        path = write_matrix(tmp_path / "m.knor", np.zeros((5, 2)))
        mf = MatrixFile(path)
        with pytest.raises(DatasetError):
            mf.byte_range_of_row(5)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.knor"
        p.write_bytes(b"NOPE" + b"\0" * 100)
        with pytest.raises(DatasetError):
            MatrixFile(p)

    def test_truncated_file(self, tmp_path):
        x = np.zeros((100, 8))
        path = write_matrix(tmp_path / "t.knor", x)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(DatasetError):
            MatrixFile(path)

    def test_truncated_header(self, tmp_path):
        p = tmp_path / "h.knor"
        p.write_bytes(b"KN")
        with pytest.raises(DatasetError):
            MatrixFile(p)

    def test_unsupported_dtype(self, tmp_path):
        with pytest.raises(DatasetError):
            write_matrix(tmp_path / "i.knor", np.zeros((3, 3), dtype=int))

    def test_non_2d_rejected(self, tmp_path):
        with pytest.raises(DatasetError):
            write_matrix(tmp_path / "v.knor", np.zeros(5))

    def test_oversized_file_rejected(self, tmp_path):
        """A header declaring d=2 over a d=4 payload must not open:
        it would read rows misaligned (row 1 as ``[2, 3]``)."""
        x = np.arange(8, dtype=np.float64).reshape(2, 4)
        path = write_matrix(tmp_path / "o.knor", x)
        data = bytearray(path.read_bytes())
        struct.pack_into("<Q", data, 16, 2)  # d
        path.write_bytes(bytes(data))
        with pytest.raises(DatasetError, match=r"92 bytes.* 60 bytes"):
            MatrixFile(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = write_matrix(tmp_path / "t.knor", np.zeros((3, 2)))
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(DatasetError, match="77 bytes"):
            MatrixFile(path)


def _open_or_reject(data: bytes) -> None:
    """Write ``data`` as a matrix file: it must either open with an
    exactly-sized payload that reads back whole, or fail typed."""
    with tempfile.TemporaryDirectory() as td:
        path = Path(td) / "f.knor"
        path.write_bytes(data)
        try:
            mf = MatrixFile(path)
        except DatasetError:
            return
        with mf:
            assert len(data) == HEADER_BYTES + mf.n * mf.d * mf.dtype.itemsize
            assert mf.row_view().shape == (mf.n, mf.d)
            rows = mf.read_rows(None)
            assert rows.shape == (mf.n, mf.d)
            assert rows.dtype == np.float64


_HEADER = struct.Struct("<4sIQQI")
_U32 = st.integers(0, 2**32 - 1)
_U64 = st.integers(0, 2**64 - 1)
# Dimensions past numpy's intp limits, which a d=0 or n=0 header can
# pair with an exactly-sized (empty) payload.
_HUGE = st.sampled_from([2**31, 2**60, 2**63 - 1, 2**63, 2**64 - 1])


class TestMatrixFileFuzz:
    """Every byte string either opens as a well-formed matrix or raises
    ``DatasetError``; well-formed files round-trip exactly."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.binary(max_size=160))
    def test_arbitrary_bytes(self, data):
        _open_or_reject(data)

    @settings(max_examples=300, deadline=None)
    @given(
        magic=st.sampled_from([b"KNOR", b"KNOX", b"\0\0\0\0"]),
        version=st.one_of(st.just(1), _U32),
        n=st.one_of(st.integers(0, 6), _HUGE, _U64),
        d=st.one_of(st.integers(0, 6), _HUGE, _U64),
        code=st.one_of(st.sampled_from([0, 1]), _U32),
        payload=st.one_of(
            st.binary(max_size=300), st.integers(0, 300).map(bytes)
        ),
    )
    def test_arbitrary_header_over_payload(
        self, magic, version, n, d, code, payload
    ):
        _open_or_reject(_HEADER.pack(magic, version, n, d, code) + payload)

    @settings(max_examples=100, deadline=None)
    @given(
        dtype=st.sampled_from([np.float64, np.float32]),
        shape=st.tuples(st.integers(0, 6), st.integers(1, 5)),
        data=st.data(),
    )
    def test_roundtrip(self, dtype, shape, data):
        x = data.draw(arrays(dtype, shape))
        with tempfile.TemporaryDirectory() as td:
            path = write_matrix(Path(td) / "r.knor", x)
            assert path.stat().st_size == HEADER_BYTES + x.nbytes
            with MatrixFile(path) as mf:
                assert mf.dtype == dtype
                assert mf.row_view().tobytes() == x.tobytes()
                np.testing.assert_array_equal(
                    mf.read_rows(None), x.astype(np.float64)
                )
