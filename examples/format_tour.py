"""Tour of the registered sparse formats on a Table-1 analog matrix.

Converts one of the paper's evaluation matrices (synthetic analog)
through every registered format — CSR and COO from §2.1, the BSR
baseline, bitBSR (§4.2) and bitCOO (§7) — verifying SpMV equivalence
and printing the memory footprint of each.

Run:  python examples/format_tour.py [matrix-name] [scale]
"""

import sys

import numpy as np

from repro.formats import available_formats, convert, format_footprint
from repro.matrices import generate_matrix, matrix_names
from repro.perf.report import format_table


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "consph"
    scale = float(sys.argv[2]) if len(sys.argv) > 2 else 0.02
    if name not in matrix_names():
        raise SystemExit(f"unknown matrix {name!r}; choose from {matrix_names()}")

    g = generate_matrix(name, scale=scale)
    coo = g.csr.tocoo()
    x = g.dense_vector()
    reference = g.csr.matvec(x)
    print(f"{name} (scale {scale}): {coo.nrows} rows, nnz={coo.nnz}\n")

    rows = []
    for fmt in available_formats():
        m = convert(coo, fmt)
        y = m.matvec(x)
        agree = np.allclose(y, reference, rtol=1e-3, atol=1e-2)
        report = format_footprint(m)
        rows.append(
            {
                "format": fmt,
                "bytes": report.total_bytes,
                "B/nnz": round(report.bytes_per_nnz, 2),
                "matvec==csr": "yes" if agree else "NO",
            }
        )
    print(format_table(rows, title="memory footprint by format"))
    print("\nbitBSR is the paper's format: bitmap positions + packed fp16 values.")


if __name__ == "__main__":
    main()
