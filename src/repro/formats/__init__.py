"""Sparse-matrix storage formats.

Holds only the formats the paper's evaluation runs: CSR (§2.1, the input
of every kernel), COO (the conversion hub and MatrixMarket I/O), BSR
(the cuSPARSE-BSR baseline and the block-size ablation), the paper's
contribution bitBSR (bitmap-compressed blocked CSR, §4.2), and the
bitCOO variant the paper proposes as future work (§7).

All formats share the :class:`~repro.formats.base.SparseMatrix` interface:
construction from / conversion to COO, a dense materialization, a
reference ``matvec`` and byte-exact memory accounting.  Conversion
between them goes through :func:`~repro.formats.convert.convert`.
"""

from repro.formats.base import SparseMatrix, available_formats, get_format, register_format
from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix
from repro.formats.bsr import BSRMatrix
from repro.formats.bitbsr import BitBSRMatrix
from repro.formats.bitcoo import BitCOOMatrix
from repro.formats.convert import convert, from_dense, from_scipy, to_scipy
from repro.formats.memory import FootprintReport, format_footprint

__all__ = [
    "SparseMatrix",
    "COOMatrix",
    "CSRMatrix",
    "BSRMatrix",
    "BitBSRMatrix",
    "BitCOOMatrix",
    "available_formats",
    "get_format",
    "register_format",
    "convert",
    "from_dense",
    "from_scipy",
    "to_scipy",
    "FootprintReport",
    "format_footprint",
]
