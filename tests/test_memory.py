"""Memory budgets of the mesh, the bulk stiffness matrix, the load, the
error norms and a whole scheme solve.

The tracemalloc peak of each call, above what was live before it,
including what the call returns. Measured with numpy 2.4.6 and scipy
1.17.1, at rect N=160: `build_mesh` 2.8 MB (it keeps 2.1 MB),
`assemble_volume` 5.3 MB (the CSR matrix is 2.9 MB), `assemble_load`,
given the context's cut rules, 5.7 MB, and `error_norms` (SPP, beta+ =
1e4, the context's rules) 7.5 MB. The budgets are those peaks plus 50 %.
The unstructured mesh with per-edge arrays peaked at 18.4 MB, the
element-block COO assembly at 17.6 MB, the load with every basis
function's values at every cut rule point at 13.4 MB, and the norms with
element-sized arrays over chunks of standard elements at 14.1 MB.

The first SPP `solve_scheme` on a context at rect N=320, beta+ = 10,
which forms the level-0 aggregates, peaks at 53.7 MB in a fresh process
(50.4 MB with scipy.sparse.linalg already imported); the MIS on the
symmetrized A_vol, which those aggregates replaced, took it to 75.1 MB. A
second solve (the aggregates already formed) peaks at 49.6 MB (47.7 MB
with the MIS aggregates); with a full-node scheme matrix sliced to the
free nodes in every solve it peaked at 59.3 MB. The budgets are 53.7 and
47.7 MB plus 15 %.
"""
import tracemalloc

import numpy as np

from ppife.assembly import assemble_load, assemble_volume, cut_data_rules
from ppife.geometry import DomainSpec, build_mesh, circle, classify_elements
from ppife.harness import RunConfig, build_context, scheme_params, solve_scheme
from ppife.local_basis import build_bases
from ppife.postprocess import error_norms, interpolate_nodal, radial_interface_solution

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


def _classified():
    mesh = build_mesh(SPEC)
    iface = circle(0.0, 0.0, np.pi / 6.28)
    status, cuts = classify_elements(mesh, iface)
    return mesh, iface, status, build_bases(cuts, 1.0, 1e4)


def test_stencil_memory_budget():
    mesh, _, status, cuts = _classified()
    assert _peak(lambda: assemble_volume(mesh, status, cuts, 1.0, 1e4)) <= 8.0 * MB


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
            scheme_params(config, "spp"))
    assert _peak(lambda: error_norms(*args, rules=ctx.rules)) <= 11.3 * MB


def test_first_solve_scheme_memory_budget():
    config = RunConfig(mesh="rect", beta_plus=10.0)
    ctx = build_context(config, 320)
    assert _peak(lambda: solve_scheme(ctx, config, "spp")) <= 61.7 * MB


def test_solve_scheme_memory_budget():
    config = RunConfig(mesh="rect", beta_plus=10.0)
    ctx = build_context(config, 320)
    solve_scheme(ctx, config, "spp")
    assert _peak(lambda: solve_scheme(ctx, config, "spp")) <= 54.8 * MB
