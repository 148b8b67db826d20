"""The online serving plane: streaming ingest + assignment queries.

Two halves, both riding the existing runtime:

* :class:`MiniBatchMM` -- Sculley mini-batch k-means as a first-class
  MM algorithm (``--algorithm=minibatch``), inheriting observers,
  fault recovery and v4 checkpoints from the MM plane. Its
  ``needs_data`` is the sampled batch, so the SEM backend's I/O shape
  *is* a streaming ingest path.
* :class:`ServePlane` -- assignment queries under seeded open-loop
  user traffic (:class:`~repro.simhw.serving.ArrivalProcess`),
  batched through a shared DistanceWorkspace, fetched through SAFS
  and its page cache, with p50/p99/p999 simulated latency as the
  product.
"""

from repro.serve.ingest import MiniBatchMM
from repro.serve.query import ServePlane, ServeResult

__all__ = ["MiniBatchMM", "ServePlane", "ServeResult"]
