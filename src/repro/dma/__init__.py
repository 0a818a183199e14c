"""DMA API layer: the driver-facing interface plus all protection schemes."""

from repro.dma.api import (
    CoherentBuffer,
    DmaApi,
    DmaDirection,
    DmaHandle,
    SchemeProperties,
)
from repro.dma.direct import NoIommuDmaApi
from repro.dma.registry import (
    ALL_SCHEMES,
    FIGURE_SCHEMES,
    PAPER_ALIASES,
    create_dma_api,
    scheme_properties,
)
from repro.dma.zerocopy import DeferredZeroCopyDmaApi, StrictZeroCopyDmaApi

__all__ = [
    "DmaApi",
    "DmaDirection",
    "DmaHandle",
    "CoherentBuffer",
    "SchemeProperties",
    "NoIommuDmaApi",
    "StrictZeroCopyDmaApi",
    "DeferredZeroCopyDmaApi",
    "create_dma_api",
    "scheme_properties",
    "ALL_SCHEMES",
    "FIGURE_SCHEMES",
    "PAPER_ALIASES",
]
