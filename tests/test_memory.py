"""Memory budgets of the mesh and of the bulk stiffness matrix.

The tracemalloc peak of each call at rect N=160, above what was live before
it, including what the call returns. Measured with numpy 2.4.6 and scipy
1.17.1: `build_mesh` 2.8 MB (it keeps 2.1 MB) and `assemble_volume` 5.3 MB
(the CSR matrix is 2.9 MB). The budgets are those peaks plus 50 %. The
unstructured mesh with per-edge arrays peaked at 18.4 MB and the
element-block COO assembly at 17.6 MB.
"""
import tracemalloc

import numpy as np

from ppife.assembly import assemble_volume
from ppife.geometry import DomainSpec, build_mesh, circle, classify_elements
from ppife.local_basis import build_bases

MB = 1e6


def _peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


SPEC = DomainSpec(-1, 1, -1, 1, 160, "rect")


def test_mesh_memory_budget():
    assert _peak(lambda: build_mesh(SPEC)) <= 4.2 * MB


def test_stencil_memory_budget():
    mesh = build_mesh(SPEC)
    status, cuts = classify_elements(mesh, circle(0.0, 0.0, np.pi / 6.28))
    cuts = build_bases(cuts, 1.0, 1e4)
    assert _peak(lambda: assemble_volume(mesh, status, cuts, 1.0, 1e4)) <= 8.0 * MB
