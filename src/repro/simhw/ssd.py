"""SSD array model for the semi-external-memory substrate.

The paper's single-node machine drives 24 OCZ Intrepid 3000 SSDs behind
three HBAs; the cloud knors machine (i3.16xlarge) has 8 NVMe devices.
For k-means the array behaves like one logical device with an aggregate
bandwidth ceiling and an aggregate IOPS ceiling; SAFS stripes requests
across devices, so a read batch is limited by whichever ceiling it hits
first. The minimum transfer unit is one filesystem page (4 KB in every
experiment, Section 8.5).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError, IoSubsystemError

_NS_PER_S = 1e9


@dataclass(frozen=True)
class SsdReadResult:
    """Outcome of one read batch submitted to the array.

    ``retries`` and ``fault_delay_ns`` are zero on a clean batch; an
    injected read error or slow-page spike (see :mod:`repro.faults`)
    surfaces here after the retry policy resolved it, with the extra
    simulated time folded into ``service_ns``.
    """

    n_requests: int
    pages_read: int
    bytes_read: int
    service_ns: float
    retries: int = 0
    fault_delay_ns: float = 0.0

    def delayed(self, extra_ns: float, retries: int) -> "SsdReadResult":
        """This batch with fault-recovery time charged on top."""
        if extra_ns < 0:
            raise IoSubsystemError(
                f"negative fault delay {extra_ns}"
            )
        return SsdReadResult(
            n_requests=self.n_requests,
            pages_read=self.pages_read,
            bytes_read=self.bytes_read,
            service_ns=self.service_ns + extra_ns,
            retries=self.retries + retries,
            fault_delay_ns=self.fault_delay_ns + extra_ns,
        )


@dataclass(frozen=True)
class AsyncIoQueue:
    """Async request-queue configuration for one SSD array.

    SAFS submits reads asynchronously and keeps per-device queues full;
    the paper's arrays expose many independent channels (one per SSD),
    and NCQ/NVMe queue depth lets each channel overlap requests. The
    queue model turns both knobs into one *effective parallelism*
    factor that amortizes per-request service cost (the IOPS-limited
    term); bandwidth is a physical ceiling and never amortizes.

    Parameters
    ----------
    queue_depth:
        Outstanding requests one channel may overlap (NCQ depth 32 for
        the SATA Intrepids; NVMe queues are deeper but knors never
        benefits past the IOPS ceiling).
    channels:
        Independent device channels; ``None`` means one per device in
        the array the queue is applied to.
    """

    queue_depth: int = 32
    channels: int | None = None

    def __post_init__(self) -> None:
        if self.queue_depth < 1:
            raise ConfigError(
                f"queue_depth must be >= 1, got {self.queue_depth}"
            )
        if self.channels is not None and self.channels < 1:
            raise ConfigError(
                f"channels must be >= 1, got {self.channels}"
            )


@dataclass(frozen=True)
class SsdArray:
    """Aggregate model of a striped SSD array.

    Parameters
    ----------
    n_devices:
        Devices in the array.
    per_device_bw:
        Sequential read bandwidth of one device, bytes/second.
    per_device_iops:
        4K random-read IOPS of one device.
    page_bytes:
        Filesystem page size -- the minimum read unit (Section 6.2.1
        discusses why knors keeps this at 4 KB).
    """

    n_devices: int = 24
    per_device_bw: float = 450e6
    per_device_iops: float = 60e3
    page_bytes: int = 4096

    def __post_init__(self) -> None:
        if self.n_devices < 1:
            raise ConfigError(f"n_devices must be >= 1, got {self.n_devices}")
        if self.page_bytes < 512:
            raise ConfigError(
                f"page_bytes must be >= 512, got {self.page_bytes}"
            )
        if self.per_device_bw <= 0 or self.per_device_iops <= 0:
            raise ConfigError("device bandwidth and IOPS must be positive")

    @property
    def array_bw(self) -> float:
        """Aggregate sequential bandwidth, bytes/second."""
        return self.n_devices * self.per_device_bw

    @property
    def array_iops(self) -> float:
        """Aggregate 4K IOPS."""
        return self.n_devices * self.per_device_iops

    def read(self, n_requests: int, total_pages: int) -> SsdReadResult:
        """Service one batch of page reads.

        ``n_requests`` is the number of (merged) I/O requests SAFS
        issued; ``total_pages`` the pages they cover. Service time is
        the larger of the bandwidth-limited and IOPS-limited times --
        asynchronous submission keeps the device queues full, so the
        batch pipelines against whichever ceiling binds.
        """
        return self._service(n_requests, total_pages, 1)

    def _service(
        self, n_requests: int, total_pages: int, q_eff: int
    ) -> SsdReadResult:
        """One batch with its IOPS-limited term amortized ``q_eff``-wide
        (``q_eff == 1`` is the sync path: dividing by 1 is exact)."""
        if n_requests < 0 or total_pages < 0:
            raise IoSubsystemError("negative read batch")
        if n_requests > total_pages:
            raise IoSubsystemError(
                f"{n_requests} requests cannot cover only "
                f"{total_pages} pages"
            )
        nbytes = total_pages * self.page_bytes
        bw_ns = nbytes / self.array_bw * _NS_PER_S
        iops_ns = n_requests / self.array_iops * _NS_PER_S / q_eff
        return SsdReadResult(
            n_requests=n_requests,
            pages_read=total_pages,
            bytes_read=nbytes,
            service_ns=max(bw_ns, iops_ns),
        )

    def queue_parallelism(self, n_requests: int, queue: AsyncIoQueue) -> int:
        """Effective overlap factor for a batch under an async queue.

        With ``c`` channels each holding up to ``queue_depth``
        outstanding requests, a batch of ``n`` requests spreads
        ``ceil(n / c)`` deep per channel; the channel overlaps at most
        ``queue_depth`` of those. The batch therefore pipelines
        ``min(queue_depth, ceil(n / c))``-wide -- small batches cannot
        fill the queues and gain nothing (factor 1 == sync).
        """
        if n_requests <= 0:
            return 1
        channels = queue.channels or self.n_devices
        per_channel = -(-n_requests // channels)  # ceil division
        return max(1, min(queue.queue_depth, per_channel))

    def read_async(
        self, n_requests: int, total_pages: int, queue: AsyncIoQueue
    ) -> SsdReadResult:
        """Service one batch submitted through an async request queue.

        Identical geometry to :meth:`read` -- same requests, pages and
        bytes -- but the IOPS-limited term is amortized by the queue's
        effective parallelism. Service time is never larger than the
        sync path's, and equals it when the batch is too small to fill
        the queues or when bandwidth binds.
        """
        return self._service(
            n_requests, total_pages,
            self.queue_parallelism(n_requests, queue),
        )


#: The paper's 24-SSD OCZ Intrepid 3000 array (Section 8.1).
OCZ_INTREPID_ARRAY = SsdArray(
    n_devices=24, per_device_bw=450e6, per_device_iops=60e3
)

#: i3.16xlarge instance storage: 8 NVMe devices (Section 8.9.1).
I3_NVME_ARRAY = SsdArray(
    n_devices=8, per_device_bw=1.9e9, per_device_iops=200e3
)
