"""Geometry and basis invariants over random circles and meshes.

Each example draws a circle centre in [-0.3, 0.3]^2, a radius in [0.2, 0.7]
and N in [8, 64] ([8, 32] for the patch test, which solves a global system)
on a rect or tri mesh of [-1, 1]^2. Draws that the mesh cannot resolve
(MultipleCrossings) are rejected.
"""
import numpy as np
from hypothesis import given, reject, settings, strategies as st

from ppife.assembly import (EDGE_DEGREE, MethodParams, apply_dirichlet, assemble_edge_terms,
                            assemble_load, assemble_volume, combine_system)
from ppife.errors import MultipleCrossings
from ppife.geometry import (EDGE_INTERFACE, INTERFACE, DomainSpec, build_mesh, circle,
                            classify_edges, classify_elements, edge_crossings,
                            edge_split_points)
from ppife.linsolve import cg
from ppife.local_basis import (basis_residuals, build_bases, standard_gradients,
                               standard_values, template_name)
from ppife.postprocess import PiecewiseSolution
from ppife.quadrature import polygon_area, split_edge_rule
from oracles import edge_intersection, standard_basis


def _cases(n_max):
    return st.tuples(
        st.sampled_from(["rect", "tri"]),
        st.integers(8, n_max),
        st.floats(-0.3, 0.3), st.floats(-0.3, 0.3),
        st.floats(0.2, 0.7),
    )


cases = _cases(64)


def _classified(case):
    kind, N, cx, cy, r = case
    mesh = build_mesh(DomainSpec(-1, 1, -1, 1, N, kind))
    iface = circle(cx, cy, r)
    try:
        status, cuts = classify_elements(mesh, iface)
    except MultipleCrossings:
        reject()
    return mesh, iface, status, cuts


@given(cases)
def test_cut_geometry(case):
    mesh, iface, status, cuts = _classified(case)
    h = mesh.h
    assert list(cuts) == np.flatnonzero(status == INTERFACE).tolist()

    # the chord splits every cut element into two sub-polygons that tile it
    for k, cut in cuts.items():
        am, ap = polygon_area(cut.poly_minus), polygon_area(cut.poly_plus)
        assert am > 0 and ap > 0
        assert abs(am + ap - polygon_area(mesh.element_vertices(k))) < 1e-12 * h * h

    # the batched crossing solve equals the one-segment oracle bit for bit;
    # segments whose samples all share one strict sign have no crossing
    ea = mesh.nodes[mesh.edge_nodes[:, 0]]
    eb = mesh.nodes[mesh.edge_nodes[:, 1]]
    hit, points = edge_crossings(ea, eb, iface, h)
    ts = np.linspace(0.0, 1.0, 17)
    s = ea[:, None, :] + ts[None, :, None] * (eb - ea)[:, None, :]
    vals = iface.phi(s[..., 0], s[..., 1])
    tol = iface.snap_tol * h
    open_edges = ~((vals > tol).all(axis=1) | (vals < -tol).all(axis=1))
    assert not hit[~open_edges].any()
    for e in np.flatnonzero(open_edges):
        x = edge_intersection(ea[e], eb[e], iface, h=h)
        assert hit[e] == (x is not None)
        if x is not None:
            assert np.array_equal(points[e], x)

    # every element cut through an edge carries that edge's solved point bit
    # for bit, so the two elements sharing the edge have identical D/E there
    for cut in cuts.values():
        for e in cut.cut_edges:
            assert hit[e]
            assert any(np.array_equal(X, points[e]) for X in (cut.D, cut.E))


@given(cases, st.sampled_from([10.0, 1e4]))
def test_cut_bases_satisfy_interface_conditions(case, beta_plus):
    mesh, _, _, cuts = _classified(case)
    bases = build_bases(mesh, cuts, 1.0, beta_plus)
    assert list(bases) == list(cuts)
    for k, basis in bases.items():
        res = basis_residuals(basis, mesh.element_vertices(k), 1.0, beta_plus)
        assert max(res.values()) < 1e-11, (k, res)


@given(cases)
def test_standard_neighbours_match_oracle(case):
    mesh, _, status, cuts = _classified(case)
    labels = classify_edges(mesh, status)
    kind = "q1" if mesh.cell_kind == "rect" else "p1"
    for e in np.flatnonzero(labels == EDGE_INTERFACE):
        a, b = mesh.nodes[mesh.edge_nodes[e]]
        pts = split_edge_rule(a, b, edge_split_points(mesh, int(e), cuts), EDGE_DEGREE).points
        for k in mesh.edge_elements[e]:
            if k in cuts:
                continue
            oracle = standard_basis(k, mesh.element_vertices(k), kind, template_name(mesh, k))
            assert np.array_equal(standard_values(mesh, k, pts), oracle.values(pts))
            assert np.array_equal(standard_gradients(mesh, k, pts), oracle.gradients(pts))


@settings(max_examples=30)
@given(_cases(32))
def test_patch_test_is_exact(case):
    # constant beta with the circle present: SPP reproduces a global
    # (bi)linear solution at the nodes to solver accuracy
    mesh, iface, status, cuts = _classified(case)
    bases = build_bases(mesh, cuts, 2.0, 2.0)
    if mesh.cell_kind == "rect":
        u = lambda x, y: 1.0 + 2.0 * x - 3.0 * y + 0.5 * x * y
        gu = lambda x, y: (2.0 + 0.5 * y, -3.0 + 0.5 * x)
    else:
        u = lambda x, y: 1.0 + 2.0 * x - 3.0 * y
        gu = lambda x, y: (2.0 + 0.0 * x, -3.0 + 0.0 * y)
    zero = lambda x, y: np.zeros_like(np.asarray(x, float))
    sol = PiecewiseSolution(u, u, gu, gu, zero, zero,
                            params={"beta_minus": 2.0, "beta_plus": 2.0})
    params = MethodParams.preset("spp", 2.0, 2.0)
    M, P, _ = assemble_edge_terms(mesh, classify_edges(mesh, status), status, cuts, bases,
                                  2.0, 2.0, params.alpha)
    A = combine_system(assemble_volume(mesh, status, cuts, bases, 2.0, 2.0), M, P, params)
    b = assemble_load(mesh, status, cuts, bases, sol, iface)
    sysm = apply_dirichlet(A, b, mesh, u)
    coeffs = sysm.expand(cg(*sysm.reduced(), tol_rel=1e-13).x)
    assert np.abs(coeffs - u(mesh.nodes[:, 0], mesh.nodes[:, 1])).max() < 1e-10
