"""Memory budgets of the mesh, the bulk stiffness matrix, the load, the
error norms, a case context and a whole scheme solve.

The tracemalloc peak of each call, above what was live before it,
including what the call returns. Measured with numpy 2.4.6 and scipy
1.17.1, at rect N=160: `build_mesh` 4.4 kB in a fresh process (it keeps
3.5 kB, the two grid-line arrays and the corner offsets; with stored node,
element and frame arrays it peaked at 2.8 MB and kept 2.1 MB),
`assemble_volume` 5.3 MB (the CSR matrix is 2.9 MB; on tri 4.2 MB, for
a matrix of 1.6 MB, and 4.8 MB when it sized its arrays for all 7 stencil
slots of a row, where the unit matrices fill 5), `assemble_load`,
given the context's cut rules, 5.7 MB, and `error_norms` (SPP, beta+ =
1e4, the context's rules) 7.5 MB. The budgets are those peaks plus 50 %.
The unstructured mesh with per-edge arrays peaked at 18.4 MB, the
element-block COO assembly at 17.6 MB, the load with every basis
function's values at every cut rule point at 13.4 MB, and the norms with
element-sized arrays over chunks of standard elements at 14.1 MB. Since
the cut quadrature runs in `cut_sweep` blocks, the load peaks at 2.5 MB
and the norms at 3.9 MB.

A bare `bulk_sweep` over the standard elements of tri N=640 at the
data rule's points peaks at 5.2 MB: its point blocks and, per cell variant
and side, the positions among the variant's elements. With an element-sized
id array of both sides and its variant mask it peaked at 17.4 MB. The
budget is 5.2 MB plus 50 %.

The load and one `error_norms` call at rect N=320, beta+ = 1e4, on the
context's rules, peak at 4.4 MB together; with one padded fan rule per
chord side over all cut elements at once they peaked at 14.9 MB. The
budget is 4.4 MB plus 15 %.

The first SPP `solve_scheme` on a context at rect N=320, beta+ = 10,
which forms the level-0 aggregates, peaks at 53.7 MB in a fresh process
(50.4 MB with scipy.sparse.linalg already imported); the MIS on the
symmetrized A_vol, which those aggregates replaced, took it to 75.1 MB. A
second solve (the aggregates already formed) peaks at 49.6 MB (47.7 MB
with the MIS aggregates); with a full-node scheme matrix sliced to the
free nodes in every solve it peaked at 59.3 MB. The budgets are 53.7 and
47.7 MB plus 15 %.

Since every scheme shares the context's AMG hierarchy, the first solve
that runs a V-cycle builds it and the context keeps it: at rect N=320 it
holds 8.0 MB (tracemalloc, after the build: the levels' P and Galerkin
matrices, 6.6 MB of arrays, the coarsest level's banded LU and the
scaling), and its build peaks at 34.0 MB. The first SPP solve then peaked
at 49.5 MB and a second one at 46.6 MB. An NPP solve after it, on a
context that holds the hierarchy, peaked at 40.2 MB; with a hierarchy per
solve it peaked at 50.8 MB.

Every scheme matrix is now one data array on the context's free-node
pattern, the index arrays of A_vol, which the Jacobi-scaled copy shares
too, and the symmetry check compares the data with itself at the
transposed positions. `build_context` at rect N=320, beta+ = 10, peaks at
31.6 MB; with a mesh that stored its node, element and frame arrays it
peaked at 38.9 MB, and with a full-node A_vol restricted to the free nodes
at 48.5 MB. The first SPP solve peaks at 39.5 MB, a second one at 28.0 MB,
and an NPP solve after SPP at 31.8 MB (40.2 MB with a matrix of index
arrays of its own, a scaled copy with copies of them and a sparse
transpose in the sum). The budgets of `build_context` and of that NPP
solve are their peaks plus 15 %.
"""
import tracemalloc

import numpy as np

from oracles import full_volume
from ppife.assembly import (DATA_DEGREE, MethodParams, assemble_load, bulk_rules,
                            cut_data_rules)
from ppife.geometry import DomainSpec, build_mesh, bulk_sweep, circle, classify_elements
from ppife.harness import RunConfig, build_context, solve_scheme
from ppife.local_basis import build_bases
from ppife.postprocess import error_norms, interpolate_nodal, radial_interface_solution

KB = 1e3
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
    assert _peak(lambda: build_mesh(SPEC)) <= 6.6 * KB


def _classified(spec=SPEC):
    mesh = build_mesh(spec)
    iface = circle(0.0, 0.0, np.pi / 6.28)
    status, cuts = classify_elements(mesh, iface)
    return mesh, iface, status, build_bases(cuts, 1.0, 1e4)


def test_stencil_memory_budget():
    mesh, _, status, cuts = _classified()
    assert _peak(lambda: full_volume(mesh, status, cuts)) <= 8.0 * MB
    mesh, _, status, cuts = _classified(DomainSpec(-1, 1, -1, 1, 160, "tri"))
    assert _peak(lambda: full_volume(mesh, status, cuts)) <= 6.4 * MB


def test_bulk_sweep_memory_budget():
    mesh = build_mesh(DomainSpec(-1, 1, -1, 1, 640, "tri"))
    iface = circle(0.0, 0.0, np.pi / 6.28)
    status, _ = classify_elements(mesh, iface)
    tables = {v: (name, spts) for v, (name, spts, _) in bulk_rules(mesh, DATA_DEGREE).items()}

    def sweep():
        for _ in bulk_sweep(mesh, status, iface, tables):
            pass
    assert _peak(sweep) <= 7.8 * MB


def test_load_memory_budget():
    mesh, iface, status, cuts = _classified()
    rules = cut_data_rules(cuts, iface)
    sol = radial_interface_solution(1.0, 1e4)
    assert _peak(lambda: assemble_load(mesh, status, cuts, sol, iface, rules=rules)) <= 8.5 * MB


def test_error_norms_memory_budget():
    config = RunConfig(mesh="rect", beta_plus=1e4)
    ctx = build_context(config, 160)
    coeffs = interpolate_nodal(ctx.mesh, ctx.sol, ctx.iface)
    args = (ctx.mesh, ctx.status, ctx.cuts, coeffs, ctx.sol, ctx.iface, ctx.traces,
            MethodParams.preset("spp", ctx.cuts).sigma0)
    assert _peak(lambda: error_norms(*args, rules=ctx.rules)) <= 11.3 * MB


def test_cut_sweep_memory_budget():
    config = RunConfig(mesh="rect", beta_plus=1e4)
    ctx = build_context(config, 320)
    coeffs = interpolate_nodal(ctx.mesh, ctx.sol, ctx.iface)
    args = (ctx.mesh, ctx.status, ctx.cuts, coeffs, ctx.sol, ctx.iface, ctx.traces,
            MethodParams.preset("spp", ctx.cuts).sigma0)

    def load_and_norms():
        assemble_load(ctx.mesh, ctx.status, ctx.cuts, ctx.sol, ctx.iface, rules=ctx.rules)
        error_norms(*args, rules=ctx.rules)

    assert _peak(load_and_norms) <= 5.1 * MB


def test_first_solve_scheme_memory_budget():
    config = RunConfig(mesh="rect", beta_plus=10.0)
    ctx = build_context(config, 320)
    assert _peak(lambda: solve_scheme(ctx, config, "spp")) <= 61.7 * MB


def test_solve_scheme_memory_budget():
    config = RunConfig(mesh="rect", beta_plus=10.0)
    ctx = build_context(config, 320)
    solve_scheme(ctx, config, "spp")
    assert _peak(lambda: solve_scheme(ctx, config, "spp")) <= 54.8 * MB


def test_second_scheme_memory_budget():
    config = RunConfig(mesh="rect", beta_plus=10.0)
    ctx = build_context(config, 320)
    solve_scheme(ctx, config, "spp")
    assert _peak(lambda: solve_scheme(ctx, config, "npp")) <= 36.6 * MB


def test_build_context_memory_budget():
    config = RunConfig(mesh="rect", beta_plus=10.0)
    assert _peak(lambda: build_context(config, 320)) <= 36.3 * MB
