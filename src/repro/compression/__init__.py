"""Model compression for constrained V2V exchange.

The paper uses top-k sparsification (Albasyoni et al.) with index–value
pair encoding.

The central quantity is :math:`\\psi = 1/\\varphi = S_c / S`: the size
of the compressed model relative to the original.  ``psi = 0`` means
"send nothing", ``psi = 1`` means "send uncompressed".
"""

from repro.compression.topk import (
    CompressedModel,
    TopkPlan,
    compress_topk,
    decompress,
    topk_for_psi,
    topk_plan,
)

__all__ = [
    "CompressedModel",
    "TopkPlan",
    "compress_topk",
    "decompress",
    "topk_for_psi",
    "topk_plan",
]
