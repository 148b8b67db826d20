"""SSD array model and SimMachine construction."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, IoSubsystemError
from repro.simhw import (
    BindPolicy,
    EC2_I3_16XLARGE,
    FOUR_SOCKET_XEON,
    SimMachine,
    SsdArray,
)
from repro.simhw.ssd import I3_NVME_ARRAY, OCZ_INTREPID_ARRAY


class TestSsdArray:
    def test_aggregate_figures(self):
        assert OCZ_INTREPID_ARRAY.array_bw == pytest.approx(24 * 450e6)
        assert OCZ_INTREPID_ARRAY.array_iops == pytest.approx(24 * 60e3)

    def test_large_sequential_read_bandwidth_bound(self):
        # One merged request covering many pages: bandwidth-limited.
        r = OCZ_INTREPID_ARRAY.read(1, 100_000)
        bw_ns = 100_000 * 4096 / OCZ_INTREPID_ARRAY.array_bw * 1e9
        assert r.service_ns == pytest.approx(bw_ns)

    def test_many_small_reads_iops_bound(self):
        r = OCZ_INTREPID_ARRAY.read(1_000_000, 1_000_000)
        iops_ns = 1_000_000 / OCZ_INTREPID_ARRAY.array_iops * 1e9
        assert r.service_ns == pytest.approx(iops_ns)

    def test_bytes_read_counts_pages(self):
        r = OCZ_INTREPID_ARRAY.read(10, 50)
        assert r.bytes_read == 50 * 4096

    def test_requests_cannot_exceed_pages(self):
        with pytest.raises(IoSubsystemError):
            OCZ_INTREPID_ARRAY.read(10, 5)

    def test_negative_rejected(self):
        with pytest.raises(IoSubsystemError):
            OCZ_INTREPID_ARRAY.read(-1, 5)

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            SsdArray(n_devices=0)
        with pytest.raises(ConfigError):
            SsdArray(page_bytes=100)
        with pytest.raises(ConfigError):
            SsdArray(per_device_bw=0)

    def test_nvme_faster_than_sata(self):
        sata = OCZ_INTREPID_ARRAY.read(100, 10_000)
        nvme = I3_NVME_ARRAY.read(100, 10_000)
        assert nvme.service_ns < sata.service_ns

    @settings(max_examples=40, deadline=None)
    @given(
        reqs=st.integers(0, 1000),
        extra=st.integers(0, 1000),
    )
    def test_service_monotone_in_pages(self, reqs, extra):
        base = OCZ_INTREPID_ARRAY.read(reqs, reqs)
        more = OCZ_INTREPID_ARRAY.read(reqs, reqs + extra)
        assert more.service_ns >= base.service_ns


class TestSimMachine:
    def test_defaults_to_physical_cores(self):
        m = SimMachine.build(FOUR_SOCKET_XEON)
        assert m.n_threads == 48
        assert len(m.threads) == 48

    def test_thread_nodes_spread(self):
        m = SimMachine.build(FOUR_SOCKET_XEON, n_threads=8)
        assert {t.node for t in m.threads} == {0, 1, 2, 3}

    def test_oblivious_round_robin(self):
        m = SimMachine.build(
            FOUR_SOCKET_XEON, n_threads=8,
            bind_policy=BindPolicy.OBLIVIOUS,
        )
        assert [t.node for t in m.threads] == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_node_of_row_block(self):
        m = SimMachine.build(FOUR_SOCKET_XEON, n_threads=8)
        assert m.nodes_of_row_blocks([0.0, 0.99]).tolist() == [0, 3]
        mo = SimMachine.build(
            FOUR_SOCKET_XEON, n_threads=8,
            bind_policy=BindPolicy.OBLIVIOUS,
        )
        assert mo.nodes_of_row_blocks([0.99]).tolist() == [0]

    def test_invalid_thread_counts(self):
        with pytest.raises(ConfigError):
            SimMachine.build(FOUR_SOCKET_XEON, n_threads=0)
        with pytest.raises(ConfigError):
            SimMachine.build(FOUR_SOCKET_XEON, n_threads=10_000)

    def test_i3_topology(self):
        m = SimMachine.build(EC2_I3_16XLARGE)
        assert m.topology.physical_cores == 32
        assert m.topology.n_nodes == 2
