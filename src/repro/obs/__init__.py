"""repro.obs — tracing, metrics, and phase timelines for the simulation.

The package namespace is what the simulated system may name: the
:class:`Observability` context it reports events to, the names of the
spans it opens around its operations, request kinds, and the default
exposure tag of page-table ranges.  The recorders, and the metric names,
trace-event kinds and lifecycle marks they record under, live in the
submodules, for the code that reads a run's records.  See
docs/observability.md for the event schema and usage.
"""

from repro.obs.context import NULL_OBS, Observability
from repro.obs.exposure import KIND_OS
from repro.obs.requests import (REQ_MEMCACHED, REQ_RR, REQ_RX, REQ_STORAGE,
                                REQ_TX)
from repro.obs.spans import (SPAN_COPY, SPAN_DEVICE_ACCESS, SPAN_DMA_MAP,
                             SPAN_DMA_UNMAP, SPAN_IOTLB_INVALIDATE,
                             SPAN_LOCK_WAIT, SPAN_POOL_ACQUIRE,
                             SPAN_POOL_RELEASE, SPAN_RX_PACKET, SPAN_STEP,
                             SPAN_TX_CHUNK)

__all__ = [
    "NULL_OBS", "Observability", "KIND_OS",
    "REQ_RX", "REQ_TX", "REQ_RR", "REQ_MEMCACHED", "REQ_STORAGE",
    "SPAN_STEP", "SPAN_RX_PACKET", "SPAN_TX_CHUNK", "SPAN_DEVICE_ACCESS",
    "SPAN_DMA_MAP", "SPAN_DMA_UNMAP", "SPAN_POOL_ACQUIRE",
    "SPAN_POOL_RELEASE", "SPAN_COPY", "SPAN_IOTLB_INVALIDATE",
    "SPAN_LOCK_WAIT",
]
