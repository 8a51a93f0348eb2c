"""Geometry and basis invariants over random interfaces and meshes.

Each example draws a circle centre in [-0.3, 0.3]^2, a radius in [0.2, 0.7]
and N in [8, 64] ([8, 32] for the patch test, which solves a global system,
and [8, 48] for the load and norm oracles, which build a whole context) on a
rect or tri mesh of [-1, 1]^2. The oracle checks and the patch test
also draw straight lines a x + b y + c = 0 with a, b in [-1, 1] and c in
[-0.5, 0.5], solved with beta- = beta+. The Dirichlet split property draws
centres in [-0.9, 0.9]^2 and N in [8, 24], so that many circles cross the
boundary. Draws that the mesh cannot resolve (MultipleCrossings) are
rejected. The lattice aggregates need no classification: they draw N in
[8, 70] and circles with centres in [-0.9, 0.9]^2 and radii in [0.05, 1.2],
or the lines above. The reach-pruned audit is compared with the audit of
every edge at N in [8, 80] on circles with centres in [-1.3, 1.3]^2 and
radii in [0.01, 1.2], circles within 1e-3 h of tangency to a mesh line,
the lines above with c in [-1.5, 1.5], and a custom pair of parallel lines.
"""
import dataclasses
from unittest import mock

import numpy as np
import scipy.sparse as sp
from hypothesis import assume, example, given, reject, settings, strategies as st

from ppife import assembly, geometry
from ppife.assembly import (SCHEMES, MethodParams, VOLUME_DEGREE, apply_dirichlet,
                            assemble_edge_terms, assemble_load, bulk_rules, cut_data_rules,
                            edge_traces)
from ppife.errors import GeometryError, MultipleCrossings, SingularLocalSystem
from ppife.geometry import (_EDGE_SAMPLES, _SWEEP_POINTS, AGGREGATE_BOX, INTERFACE, SIDE_MINUS,
                            SIDE_PLUS, SNAP_TOL, DomainSpec, InterfaceGeometry, _edge_signs,
                            build_mesh, bulk_sweep, circle, classify_elements, cut_sweep,
                            edge_crossings, interface_edges, lattice_aggregates, line)
from ppife.harness import RunConfig, build_context
from ppife.linsolve import cg
from ppife.local_basis import (build_bases, cut_frame, cut_gradients, cut_values,
                               piece_gradients)
from ppife.postprocess import (PiecewiseSolution, _cut_sums, error_norms, interpolate_nodal,
                               radial_interface_solution)
from ppife.quadrature import fan_rule, polygon_area
import oracles
from oracles import (EDGE_INTERFACE, ReferenceMesh, all_edge_classify, ascending_bulk_load,
                     ascending_error_norms, basis_residuals, classify_cuts, classify_edges,
                     coo_volume, edge_intersection, edge_signs, edge_split_points, full_mesh,
                     full_node_system, full_volume, ife_basis, ife_system, mesh_frames,
                     padded_data_rules, per_basis_cut_load, per_basis_cut_sums, select_branches,
                     split_edge_rule, standard_basis, template_name)


def _cases(n_max):
    return st.tuples(
        st.sampled_from(["rect", "tri"]),
        st.integers(8, n_max),
        st.floats(-0.3, 0.3), st.floats(-0.3, 0.3),
        st.floats(0.2, 0.7),
    )


cases = _cases(64)
lines = st.tuples(st.sampled_from(["rect", "tri"]), st.integers(8, 64),
                  st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-0.5, 0.5))
interfaces = st.one_of(cases.map(lambda c: (c, "circle")), lines.map(lambda c: (c, "line")))


def _classified(case, shape="circle"):
    kind, N, a, b, c = case
    mesh = build_mesh(DomainSpec(-1, 1, -1, 1, N, kind))
    if shape == "line":
        assume(abs(a) + abs(b) > 1e-3)
        iface = line(a, b, c)
    else:
        iface = circle(a, b, c)
    try:
        status, cuts = classify_elements(mesh, iface)
    except MultipleCrossings:
        reject()
    return mesh, iface, status, cuts


@given(cases)
def test_cut_geometry(case):
    mesh, iface, status, cuts = _classified(case)
    h = mesh.h
    assert cuts.ids.tolist() == np.flatnonzero(status == INTERFACE).tolist()

    # the chord splits every cut element into two sub-polygons that tile it
    am, ap = polygon_area(cuts.poly_minus), polygon_area(cuts.poly_plus)
    assert (am > 0).all() and (ap > 0).all()
    assert (np.abs(am + ap - polygon_area(cuts.verts)) < 1e-12 * h * h).all()

    # the batched crossing solve equals the one-segment oracle bit for bit;
    # segments whose samples all share one strict sign have no crossing
    ends = mesh.edge_nodes(np.arange(mesh.n_edges))
    ea, eb = mesh.node_coords(ends).transpose(1, 0, 2)
    hit, points = edge_crossings(ea, eb, iface, h)
    ts = np.linspace(0.0, 1.0, 17)
    s = ea[:, None, :] + ts[None, :, None] * (eb - ea)[:, None, :]
    vals = iface.phi(s[..., 0], s[..., 1])
    tol = SNAP_TOL * h
    open_edges = ~((vals > tol).all(axis=1) | (vals < -tol).all(axis=1))
    assert not hit[~open_edges].any()
    for e in np.flatnonzero(open_edges):
        x = edge_intersection(ea[e], eb[e], iface, h=h)
        assert hit[e] == (x is not None)
        if x is not None:
            assert np.array_equal(points[e], x)

    # every element cut through an edge carries that edge's solved point bit
    # for bit, so the two elements sharing the edge have identical D/E there
    for X, e in zip(np.concatenate([cuts.D, cuts.E]), np.concatenate(cuts.cut_edges.T)):
        if e >= 0:
            assert hit[e] and np.array_equal(X, points[e])


@given(cases)
def test_interface_edges_equal_label_oracle(case):
    # the interior edges of the cut elements are the edges the label oracle
    # marks as interface, in ascending order
    mesh, _, status, cuts = _classified(case)
    labels = classify_edges(mesh, status)
    assert np.array_equal(interface_edges(mesh, cuts), np.flatnonzero(labels == EDGE_INTERFACE))


@given(interfaces)
def test_stacked_cuts_equal_per_element_oracle(drawn):
    # one stacked pass reproduces the per-element walk bit for bit: D, E, the
    # chord normal, the sub-polygons before padding and the cut mesh edges
    case, shape = drawn
    mesh, iface, status, cuts = _classified(case, shape)
    o_status, o_cuts = classify_cuts(mesh, iface)
    assert np.array_equal(status, o_status)
    assert cuts.ids.tolist() == list(o_cuts)
    for i, c in enumerate(o_cuts.values()):
        assert np.array_equal(cuts.D[i], c.D) and np.array_equal(cuts.E[i], c.E)
        assert np.array_equal(cuts.normal[i], c.chord_normal)
        assert np.array_equal(cuts.poly_minus[i, :cuts.n_minus[i]], c.poly_minus)
        assert np.array_equal(cuts.poly_plus[i, :cuts.n_plus[i]], c.poly_plus)
        assert tuple(e for e in cuts.cut_edges[i] if e >= 0) == c.cut_edges


def _audited(classify, mesh, iface):
    """A classification as (status, cuts, solved crossings), the crossings
    that `geometry.edge_crossings` finds as (p0, p1, points) of the crossed
    edges; or the type and message of the error it raises."""
    solved = []

    def record(p0, p1, iface, h):
        hit, points = edge_crossings(p0, p1, iface, h)
        solved.append((p0[hit], p1[hit], points[hit]))
        return hit, points

    try:
        with (mock.patch.object(geometry, "edge_crossings", record),
              mock.patch.object(oracles, "edge_crossings", record)):
            status, cuts = classify(mesh, iface)
    except GeometryError as exc:
        return type(exc), str(exc)
    return status, cuts, solved


def _two_lines(c, w):
    """phi = s (s - w), s = x + y + c: the lines s = 0 and s = w, with an
    infinite `reach`."""
    s = lambda x, y: np.asarray(x) + np.asarray(y) + c
    return InterfaceGeometry(lambda x, y: s(x, y) * (s(x, y) - w),
                             lambda x, y: (2.0 * s(x, y) - w, 2.0 * s(x, y) - w),
                             reach=lambda x, y, l: np.inf)


def _tangent_circle(kind, N, cx, cy, k, vertical, eps):
    """A circle within eps h of tangency to mesh line k (x or y = -1 + k h)."""
    h = 2.0 / N
    gap = abs((cx if vertical else cy) - (-1.0 + k * h))
    return kind, N, circle(cx, cy, gap + eps * h)


audit_cases = st.one_of(
    st.tuples(st.sampled_from(["rect", "tri"]), st.integers(8, 80),
              st.builds(circle, st.floats(-1.3, 1.3), st.floats(-1.3, 1.3),
                        st.floats(0.01, 1.2))),
    st.builds(_tangent_circle, st.sampled_from(["rect", "tri"]), st.integers(8, 80),
              st.floats(-0.5, 0.5), st.floats(-0.5, 0.5), st.integers(0, 8), st.booleans(),
              st.floats(-1e-3, 1e-3)),
    st.tuples(st.sampled_from(["rect", "tri"]), st.integers(8, 80),
              st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.5, 1.5))
              .filter(lambda p: abs(p[0]) + abs(p[1]) > 1e-3).map(lambda p: line(*p))),
    st.tuples(st.sampled_from(["rect", "tri"]), st.integers(8, 80),
              st.builds(_two_lines, st.floats(-2.5, 2.5), st.floats(0.05, 1.0))))


@given(audit_cases)
@example(("rect", 2, circle(0.5, 0.5, 0.55)))        # crosses one edge twice
@example(("tri", 80, circle(0.0, 0.0, 0.004)))       # inside one cell
@example(("rect", 20, _two_lines(2.0, 0.4)))
def test_reach_pruned_audit_equals_all_edge_oracle(case):
    """The audit of the edges within `reach` gives the classification of
    the audit of every edge bit for bit: the status, every CutSet field and
    the solved crossings, or the same error with the same message."""
    kind, N, iface = case
    mesh = build_mesh(DomainSpec(-1, 1, -1, 1, N, kind))
    got, want = _audited(classify_elements, mesh, iface), _audited(all_edge_classify, mesh, iface)
    if isinstance(want[0], type):
        assert got == want
        return
    assert np.array_equal(got[0], want[0])
    for f in dataclasses.fields(got[1]):
        a, b = getattr(got[1], f.name), getattr(want[1], f.name)
        assert (a is None and b is None) or _same(a, b), f.name
    assert len(got[2]) == len(want[2]) == 1
    for a, b in zip(got[2][0], want[2][0]):
        assert _same(a, b)


@given(st.sampled_from(["rect", "tri"]), st.integers(2, 40), st.integers(0, 2 ** 31))
def test_node_elements_equal_the_vertex_gather(kind, N, seed):
    mesh = build_mesh(DomainSpec(-1, 1, -1, 1, N, kind))
    nodes = np.flatnonzero(np.random.default_rng(seed).random(mesh.n_nodes) < 0.3)
    assert np.array_equal(np.unique(mesh.node_elements(nodes)),
                          np.flatnonzero(np.isin(full_mesh(mesh).elements, nodes).any(axis=1)))


@given(cases, st.integers(1, 10), st.integers(0, 2))
def test_cut_sweep_is_the_padded_rule_without_padding(case, degree, refine):
    """Each chord side of each cut row once, in ascending rows per vertex
    count, at most _SWEEP_POINTS points per block; the points and weights
    are the padded fan rule's first ones bit for bit, and the rest of its
    weights are zero."""
    mesh, _, _, cuts = _classified(case)
    seen = {0: [], 1: []}
    for side, rows, pts, w in cut_sweep(cuts, degree, refine):
        poly, count = ((cuts.poly_minus, cuts.n_minus), (cuts.poly_plus, cuts.n_plus))[side]
        assert (count[rows] == count[rows[0]]).all() and (np.diff(rows) > 0).all()
        assert 0 < w.size <= _SWEEP_POINTS or len(rows) == 1
        p_pts, p_w = fan_rule(poly[rows], degree, refine)
        n = w.shape[1]
        assert _same(pts, np.ascontiguousarray(p_pts[:, :n])) and _same(w, p_w[:, :n].copy())
        assert (p_w[:, n:] == 0).all()
        seen[side].append(rows)
    for side in (0, 1):
        rows = np.concatenate(seen[side]) if seen[side] else np.zeros(0, int)
        assert np.array_equal(np.sort(rows), np.arange(len(cuts)))


def _close(a, b):
    return np.abs(a - b).max(initial=0.0) <= 1e-15 * max(np.abs(b).max(initial=0.0), 1.0)


@given(interfaces, st.sampled_from([10.0, 1e4]))
def test_stacked_bases_equal_per_element_oracle(drawn, beta_plus):
    # values and gradients at the edge and volume quadrature points equal the
    # per-element LocalBasis of the per-element solve
    case, shape = drawn
    mesh, iface, status, cuts = _classified(case, shape)
    assume(len(cuts) > 0)
    bm, bp = (1.0, beta_plus) if shape == "circle" else (1.0, 1.0)
    cuts = build_bases(cuts, bm, bp)
    oracle = [ife_basis(k, cuts.verts[i], cuts.D[i], cuts.E[i], cuts.normal[i], bm, bp)
              for i, k in enumerate(cuts.ids)]

    traces = edge_traces(mesh, interface_edges(mesh, cuts), status, cuts)
    row_of = {k: i for i, k in enumerate(cuts.ids.tolist())}
    for b, e in enumerate(traces.edges):
        for s, k in enumerate(traces.elements[b]):
            if k in row_of:
                basis = oracle[row_of[k]]
                pts = traces.points[b]
                assert _close(traces.values[b, s], basis.values(pts))
                assert _close(traces.gradients[b, s], basis.gradients(pts))

    rows = np.arange(len(cuts))
    for poly, side in ((cuts.poly_minus, -1), (cuts.poly_plus, 1)):
        pts, _ = fan_rule(poly, VOLUME_DEGREE)
        xi, plus = cut_frame(cuts, rows, pts)
        V, G = cut_values(cuts, rows, xi, plus), cut_gradients(cuts, rows, xi, plus)
        Gp = piece_gradients(cuts.cp if side > 0 else cuts.cm, xi, cuts.h)
        for i, basis in enumerate(oracle):
            assert _close(V[i], basis.values(pts[i]))
            assert _close(G[i], basis.gradients(pts[i]))
            assert _close(Gp[i], basis.gradients_piece(pts[i], side))


@given(cases, st.sampled_from([10.0, 1e4]))
def test_cut_bases_satisfy_interface_conditions(case, beta_plus):
    mesh, _, _, cuts = _classified(case)
    cuts = build_bases(cuts, 1.0, beta_plus)
    assert cuts.cm.shape == cuts.cp.shape == (len(cuts), mesh.n_local, mesh.n_local)
    res = basis_residuals(cuts, 1.0, beta_plus)
    worst = max(r.max(initial=0.0) for r in res.values())
    assert worst < 1e-11, res


@given(cases, st.floats(-8.0, 8.0))
@example(("tri", 20, 0.0, 0.0, np.pi / 6.28), 5.0)
def test_accepted_local_systems_meet_the_residual_bound(case, exponent):
    # at beta+/beta- = 10^exponent the stacked solve refuses a local system
    # only for its condition estimate; each system it accepts, with X read
    # back from the coefficients it returns, has a long-double residual
    # within eps ||M||_F ||X||_F (the example: element 368 at 2.672e-12, which
    # an absolute bound of 1e-12 refused)
    _, _, _, cuts = _classified(case)
    bm, bp = 1.0, 10.0 ** exponent
    try:
        cuts = build_bases(cuts, bm, bp)
    except SingularLocalSystem as exc:
        assert ": condition estimate " in str(exc)
        return
    ld = np.longdouble
    for i in range(len(cuts)):
        M, rhs = ife_system(cuts.verts[i], cuts.D[i], cuts.E[i], cuts.normal[i], bm, bp)
        # rectangles share the xy row between the pieces
        X = np.vstack([cuts.cm[i].T[:3], cuts.cp[i].T[:3], cuts.cm[i].T[3:]])
        resid = np.abs(M.astype(ld) @ X.astype(ld) - rhs).max()
        assert resid <= np.finfo(float).eps * np.linalg.norm(M) * np.linalg.norm(X), i


@given(cases)
def test_standard_neighbours_match_oracle(case):
    mesh, iface, status, cuts = _classified(case)
    kind = "q1" if mesh.cell_kind == "rect" else "p1"
    traces = edge_traces(mesh, interface_edges(mesh, cuts), status, build_bases(cuts, 1.0, 10.0))
    o_cuts = classify_cuts(mesh, iface)[1]
    for b, e in enumerate(traces.edges):
        a, c = mesh.node_coords(mesh.edge_nodes([e])[0])
        rule = split_edge_rule(a, c, edge_split_points(mesh, int(e), o_cuts), 4)
        n = len(rule.weights)
        # the rule is the oracle's split rule, padded by a zero-weight piece
        assert np.array_equal(traces.points[b, :n], rule.points)
        assert np.array_equal(traces.weights[b, :n], rule.weights)
        assert (traces.weights[b, n:] == 0).all()
        for s, k in enumerate(traces.elements[b]):
            if status[k] == INTERFACE:
                continue
            oracle = standard_basis(k, mesh.node_coords(mesh.element_nodes(k)), kind,
                                    template_name(mesh, k))
            pts = traces.points[b]
            assert np.array_equal(traces.values[b, s], oracle.values(pts))
            assert np.array_equal(traces.gradients[b, s], oracle.gradients(pts))


@settings(max_examples=30)
@given(st.one_of(_cases(32).map(lambda c: (c, "circle")),
                 lines.map(lambda c: (c[0], min(c[1], 32)) + c[2:]).map(lambda c: (c, "line"))))
def test_patch_test_is_exact(drawn):
    # constant beta with a circle or a line present: SPP reproduces a global
    # (bi)linear solution at the nodes to solver accuracy
    mesh, iface, status, cuts = _classified(*drawn)
    cuts = build_bases(cuts, 2.0, 2.0)
    if mesh.cell_kind == "rect":
        u = lambda x, y: 1.0 + 2.0 * x - 3.0 * y + 0.5 * x * y
        gu = lambda x, y: (2.0 + 0.5 * y, -3.0 + 0.5 * x)
    else:
        u = lambda x, y: 1.0 + 2.0 * x - 3.0 * y
        gu = lambda x, y: (2.0 + 0.0 * x, -3.0 + 0.0 * y)
    zero = lambda x, y: np.zeros_like(np.asarray(x, float))
    sol = PiecewiseSolution(u, u, gu, gu, zero, zero)
    params = MethodParams.preset("spp", cuts)
    M, P, _ = assemble_edge_terms(mesh, interface_edges(mesh, cuts), status, cuts, 1.0)
    b = assemble_load(mesh, status, cuts, sol, iface, cut_data_rules(cuts, iface))
    sysm = apply_dirichlet(mesh, status, cuts, M, P, b, u).system(params)
    coeffs = sysm.expand(cg(*sysm.reduced(), tol_rel=1e-13).x)
    assert np.abs(coeffs - u(*full_mesh(mesh).nodes.T)).max() < 1e-10


@settings(max_examples=40)
@example(("rect", 20, 0.8, 0.0, 0.5), 10.0)
@example(("tri", 20, 0.8, 0.0, 0.5), 1e4)
@given(st.tuples(st.sampled_from(["rect", "tri"]), st.integers(8, 24),
                 st.floats(-0.9, 0.9), st.floats(-0.9, 0.9), st.floats(0.2, 0.7)),
       st.sampled_from([10.0, 1e4]))
def test_dirichlet_split_equals_full_node_slicing(case, beta_plus):
    # the context's one split against every scheme's full-node matrix sliced
    # to the free nodes; circles centred near the edge cross the boundary
    kind, N, cx, cy, r = case
    cfg = RunConfig(mesh=kind, N=(N,), interface_params=(cx, cy, r), beta_plus=beta_plus)
    try:
        ctx = build_context(cfg, N)
    except MultipleCrossings:
        reject()
    # M has columns at the nodes of both elements of an interface edge, so
    # its lift is 0, and the rhs bit for bit the sliced one, unless one of
    # those elements, cut or not, touches the boundary
    touches = np.isin(ctx.mesh.element_nodes(ctx.traces.elements),
                      full_mesh(ctx.mesh).boundary_nodes).any()
    for scheme in SCHEMES:
        params = MethodParams.preset(scheme, ctx.cuts, cfg.sigma0)
        A, rhs = ctx.split.system(params).reduced()
        A = A.copy()        # the shared pattern stores zeros where a scheme has none
        A.eliminate_zeros()
        A_ref, rhs_ref = full_node_system(ctx, params)
        for a, ref in ((A.data, A_ref.data), (A.indices, A_ref.indices),
                       (A.indptr, A_ref.indptr)):
            assert np.array_equal(a, ref), scheme
        if touches:
            assert np.abs(rhs - rhs_ref).max() <= 1e-14 * np.abs(rhs_ref).max(), scheme
        else:
            assert np.array_equal(rhs, rhs_ref), scheme


# ---------------------------------------------------------------------------
# per-component sweeps: bit for bit the gather-and-reduce and both-branch forms
# ---------------------------------------------------------------------------

def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@given(st.sampled_from(["rect", "tri"]), st.integers(2, 70), st.floats(-5.0, 5.0),
       st.floats(-5.0, 5.0), st.floats(1e-3, 10.0))
def test_mesh_frames_equal_gather_reduce(kind, N, xmin, ymin, width):
    mesh = build_mesh(DomainSpec(xmin, xmin + width, ymin, ymin + width, N, kind))
    _, origins, extents = mesh_frames(mesh)
    got = mesh.element_frames(np.arange(mesh.n_elements))
    assert _same(got[0], origins)
    assert _same(got[1], extents)


@given(st.integers(1, 40), st.floats(-0.3, 0.3), st.floats(-0.3, 0.3), st.floats(0.2, 0.7),
       st.integers(0, 2 ** 31))
def test_edge_signs_equal_where_sign(n, cx, cy, r, seed):
    rng = np.random.default_rng(seed)
    p0, p1 = rng.uniform(-1.0, 1.0, (2, n, 2))
    iface = circle(cx, cy, r)
    tol = 10.0 ** rng.uniform(-12, -1)
    got, want = _edge_signs(p0, p1, iface, tol), edge_signs(p0, p1, iface, tol)
    assert _same(got[0], want[0]) and _same(got[1], want[1])


@given(st.integers(-30, 0), st.integers(1, 20))
def test_edge_signs_at_the_snap_tolerance(exp, n):
    # phi = x sampled at (k - 8) tol, k = 0..16: exactly -tol and +tol at
    # k = 7 and 9, and exactly 0 at k = 8; a power-of-two tol keeps the
    # samples exact
    tol = 2.0 ** exp
    iface = InterfaceGeometry(lambda x, y: x, lambda x, y: (1.0, 0.0),
                              reach=lambda x, y, l: np.inf)
    p0 = np.tile([[-8 * tol, 0.0]], (n, 1))
    p1 = np.tile([[8 * tol, 1.0]], (n, 1))
    vals, signs = _edge_signs(p0, p1, iface, tol)
    assert np.array_equal(vals[0], (np.arange(len(_EDGE_SAMPLES)) - 8) * tol)
    assert _same(signs, edge_signs(p0, p1, iface, tol)[1])
    assert list(signs[0, 6:11]) == [-1, -1, 0, 1, 1]
    # and one ulp on either side of +-tol, and both zeros, as the end values
    near = np.array([np.nextafter(tol, 0.0), tol, np.nextafter(tol, 1.0), 0.0, -0.0])
    near = np.concatenate([near, -near])
    q0 = np.column_stack([near, np.zeros_like(near)])
    assert _same(_edge_signs(q0, q0, iface, tol)[1], edge_signs(q0, q0, iface, tol)[1])


def _branch_cases():
    # (x, y) arrays of assorted shapes, with the side mask of the circle, or
    # all minus, all plus; empty; and 0-d as Python floats, numpy scalars and
    # 0-d arrays
    shapes = st.sampled_from([(0,), (1,), (7,), (5, 3), (4, 3, 2)])
    return st.tuples(shapes, st.sampled_from(["phi", "minus", "plus"]), st.integers(0, 2 ** 31))


@given(_branch_cases(), st.sampled_from([10.0, 1e4, 0.1]), st.floats(1.5, 5.0),
       st.floats(0.2, 0.7))
def test_branch_selection_equals_where_form(drawn, beta_plus, alpha, r0):
    shape, mode, seed = drawn
    sol = radial_interface_solution(1.0, beta_plus, alpha_exp=alpha, r0=r0, center=(0.1, -0.2))
    iface = circle(0.1, -0.2, r0)
    x, y = np.random.default_rng(seed).uniform(-1.0, 1.0, (2,) + shape)
    minus = {"phi": iface.phi(x, y) < 0, "minus": np.ones(shape, bool),
             "plus": np.zeros(shape, bool)}[mode]
    want_u, (want_gx, want_gy), want_f = select_branches(sol, x, y, minus)
    assert _same(sol.u(x, y, minus), want_u)
    gx, gy = sol.grad(x, y, minus)
    assert _same(gx, want_gx) and _same(gy, want_gy)
    assert _same(sol.f(x, y, minus), want_f)
    assert _same(sol.u_at(x, y, iface), select_branches(sol, x, y, iface.phi(x, y) < 0)[0])
    # strided views, as a stack of points hands them out
    pts = np.stack([x, y], axis=-1)
    assert _same(sol.u(pts[..., 0], pts[..., 1], minus), want_u)


@given(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.booleans(),
       st.sampled_from([float, np.float64, np.asarray]))
def test_branch_selection_of_one_point(x, y, minus, kind):
    sol = radial_interface_solution(1.0, 10.0)
    x, y = kind(x), kind(y)
    want_u, (want_gx, want_gy), want_f = select_branches(sol, x, y, minus)
    assert _same(sol.u(x, y, minus), want_u)
    gx, gy = sol.grad(x, y, minus)
    assert _same(gx, want_gx) and _same(gy, want_gy)
    assert _same(sol.f(x, y, minus), want_f)


# ---------------------------------------------------------------------------
# the closed-form mesh and the stencil against the unstructured oracle
# ---------------------------------------------------------------------------

domains = st.tuples(st.sampled_from(["rect", "tri"]), st.integers(2, 70), st.floats(-5.0, 5.0),
                    st.floats(-5.0, 5.0), st.floats(1e-3, 10.0))


@given(domains)
def test_mesh_queries_equal_reference_mesh(domain):
    kind, N, xmin, ymin, width = domain
    spec = DomainSpec(xmin, xmin + width, ymin, ymin + width, N, kind)
    mesh, ref = build_mesh(spec), ReferenceMesh(spec)
    assert (mesh.n_nodes, mesh.n_elements, mesh.n_edges) == (ref.n_nodes, ref.n_elements,
                                                             ref.n_edges)
    ids, nodes = np.arange(ref.n_edges), np.arange(ref.n_nodes)
    elements = np.arange(ref.n_elements)
    for got, want in ((mesh.node_coords(nodes), ref.nodes),
                      (mesh.element_nodes(elements), ref.elements),
                      (mesh.element_frames(elements)[0], ref.element_origins),
                      (mesh.element_frames(elements)[1], ref.element_h),
                      (mesh.edge_nodes(ids), ref.edge_nodes),
                      (mesh.edge_elements(ids), ref.edge_elements),
                      (mesh.element_edges(np.arange(ref.n_elements)), ref.element_edges),
                      (mesh.edge_normals(ids), ref.edge_normals),
                      (mesh.edge_lengths(ids), ref.edge_lengths)):
        assert _same(got, want)
    # the queries take any ids, in any order
    rng = np.random.default_rng(N)
    pick = rng.integers(0, ref.n_edges, 7)
    assert _same(mesh.edge_normals(pick), ref.edge_normals[pick])
    assert _same(mesh.edge_elements(pick), ref.edge_elements[pick])
    pick = rng.integers(0, ref.n_nodes, 7)
    assert _same(mesh.node_coords(pick), ref.nodes[pick])
    pick = rng.integers(0, ref.n_elements, 7)
    assert _same(mesh.element_nodes(pick), ref.elements[pick])
    assert _same(mesh.element_frames(pick)[0], ref.element_origins[pick])
    assert _same(mesh.element_frames(pick)[1], ref.element_h[pick])
    # the Dirichlet split holds the boundary and free nodes
    zero = sp.csr_matrix((mesh.n_nodes, mesh.n_nodes))
    status, cuts = classify_elements(mesh, line(1.0, 0.0, 1.0 - xmin))
    cuts = build_bases(cuts, 1.0, 1.0)
    split = apply_dirichlet(mesh, status, cuts, zero, zero, np.zeros(mesh.n_nodes),
                            lambda x, y: np.zeros_like(x))
    assert _same(split.boundary, ref.boundary_nodes)
    assert _same(split.free, ref.interior_nodes)


@given(domains, st.floats(0.0, np.pi), st.floats(-0.4, 0.4), st.sampled_from([10.0, 1e4]))
def test_stencil_volume_equals_coo_oracle(domain, angle, offset, beta_plus):
    """Rectangles: bit for bit. Triangles: the stencil takes the unit P1
    matrix of each variant and the oracle each element's matrix from its
    vertex coordinates, whose differences carry a relative error of up to
    eps L / h for coordinates of size L; each entry then agrees to
    8 eps (1 + L / h) max|A| (0.43 of that at most over 300 random draws)."""
    kind, N, xmin, ymin, width = domain
    spec = DomainSpec(xmin, xmin + width, ymin, ymin + width, N, kind)
    mesh = build_mesh(spec)
    # a line through the domain, off its centre by up to 0.4 of its width
    a, b = np.cos(angle), np.sin(angle)
    c = -(a * (xmin + width / 2) + b * (ymin + width / 2)) + offset * width
    status, cuts = classify_elements(mesh, line(a, b, c))
    cuts = build_bases(cuts, 1.0, beta_plus)
    got = full_volume(mesh, status, cuts)
    want = coo_volume(mesh, status, cuts, 1.0, beta_plus)
    assert np.array_equal(got.indptr, want.indptr) and np.array_equal(got.indices, want.indices)
    if kind == "rect":
        assert _same(got.data, want.data)
    else:
        size = max(abs(xmin), abs(ymin), abs(xmin + width), abs(ymin + width))
        tol = 8 * np.finfo(float).eps * (1 + size / mesh.h) * np.abs(want.data).max()
        assert np.abs(got.data - want.data).max() <= tol


# ---------------------------------------------------------------------------
# side-pure bulk sweeps and piece-contracted cut quadrature against the
# ascending, mixed-side and per-basis oracles
# ---------------------------------------------------------------------------

# the golden files' bound on a change of an error column
NORM_RTOL = 1e-9
# the cut parts against the per-basis sums, relative to the largest load
# entry and to each sum's cut-element total (at most 1.4e-15 and 3.7e-15 over
# 20 random circles)
CUT_RTOL = 1e-13


def _context(case, beta_plus):
    kind, N, cx, cy, r0 = case
    config = RunConfig(mesh=kind, interface_params=(cx, cy, r0), beta_plus=beta_plus)
    try:
        return config, build_context(config, N)
    except MultipleCrossings:
        reject()


def _no_cuts(cuts):
    return dataclasses.replace(cuts, ids=cuts.ids[:0])


@settings(max_examples=30)
@given(_cases(48), st.sampled_from([10.0, 1e4]))
def test_load_equals_ascending_per_basis_oracle(case, beta_plus):
    """The standard elements' load bit for bit; a node that a minus and a
    plus standard element share (beside a degenerate cut only) sums them in
    another order. The cut elements' load within CUT_RTOL."""
    _, ctx = _context(case, beta_plus)
    mesh, status, cuts = ctx.mesh, ctx.status, ctx.cuts
    got = assemble_load(mesh, status, _no_cuts(cuts), ctx.sol, ctx.iface, [])
    want = ascending_bulk_load(mesh, status, ctx.sol, ctx.iface)
    keep = np.ones(mesh.n_nodes, bool)
    keep[np.intersect1d(mesh.element_nodes(np.flatnonzero(status == SIDE_MINUS)),
                        mesh.element_nodes(np.flatnonzero(status == SIDE_PLUS)))] = False
    assert _same(got[keep], want[keep])
    assert np.abs(got - want).max() <= 8 * np.finfo(float).eps * np.abs(want).max()
    got = assemble_load(mesh, np.full_like(status, INTERFACE), cuts, ctx.sol, ctx.iface,
                        ctx.rules)
    want = np.zeros(mesh.n_nodes)
    np.add.at(want, mesh.element_nodes(cuts.ids),
              per_basis_cut_load(cuts, ctx.sol, padded_data_rules(cuts, ctx.iface)))
    assert np.abs(got - want).max() <= CUT_RTOL * np.abs(want).max()


@settings(max_examples=30)
@given(_cases(48), st.sampled_from([10.0, 1e4]), st.integers(0, 2 ** 31))
def test_error_norms_equal_ascending_per_basis_oracle(case, beta_plus, seed):
    config, ctx = _context(case, beta_plus)
    rng = np.random.default_rng(seed)
    coeffs = (interpolate_nodal(ctx.mesh, ctx.sol, ctx.iface)
              + 1e-3 * rng.standard_normal(ctx.mesh.n_nodes))
    got = _cut_sums(ctx.mesh, ctx.cuts, coeffs, ctx.sol, ctx.rules)
    padded = padded_data_rules(ctx.cuts, ctx.iface)
    want = per_basis_cut_sums(ctx.mesh, ctx.cuts, coeffs, ctx.sol, padded)
    assert (np.abs(got - want) <= CUT_RTOL * want.sum(axis=(0, 1))).all()
    for scheme in ("classic", "spp"):
        args = (ctx.mesh, ctx.status, ctx.cuts, coeffs, ctx.sol, ctx.iface, ctx.traces,
                MethodParams.preset(scheme, ctx.cuts).sigma0)
        got = error_norms(*args, ctx.rules)
        want = ascending_error_norms(*args, padded)
        for norm in got:
            assert abs(got[norm] - want[norm]) <= NORM_RTOL * want[norm], norm


def test_bulk_block_where_the_sides_meet_takes_the_split():
    # rect N=64 with the canonical circle: the first block of 2048 elements
    # holds the 732 minus ones and the first plus ones, so f_minus and f_plus
    # each receive a 1-d gather of their points; the second block is all plus
    # and passes whole (block rows, points) arrays
    config, ctx = _context(("rect", 64, 0.0, 0.0, np.pi / 6.28), 10.0)
    seen = set()

    def spy(side, fn):
        def call(x, y):
            seen.add((side, np.ndim(x)))
            return fn(x, y)
        return call

    sol = ctx.sol
    spied = dataclasses.replace(sol, f_minus=spy("minus", sol.f_minus),
                                f_plus=spy("plus", sol.f_plus))
    got = assemble_load(ctx.mesh, ctx.status, _no_cuts(ctx.cuts), spied, ctx.iface, [])
    assert seen == {("minus", 1), ("plus", 1), ("plus", 2)}
    assert _same(got, ascending_bulk_load(ctx.mesh, ctx.status, sol, ctx.iface))


@given(cases, st.integers(1, 10))
def test_bulk_sweep_order_blocks_and_sides(case, degree):
    """Every standard element once, per cell variant minus side first, then
    plus, ascending within a side; at most _SWEEP_POINTS points per block;
    x, y the element origin plus h times the scaled points, and minus the
    sign of phi there."""
    mesh, iface, status, _ = _classified(case)
    full = full_mesh(mesh)
    tables = bulk_rules(mesh, degree)
    seen = {variant: [] for variant in tables}
    for table, ids, x, y, minus in bulk_sweep(mesh, status, iface, tables):
        variant = next(v for v, t in tables.items() if t is table)
        spts = table[1]
        assert 0 < x.size <= _SWEEP_POINTS
        assert x.shape == y.shape == minus.shape == (len(ids), len(spts))
        assert x.flags.c_contiguous and y.flags.c_contiguous
        origin = full.element_origins[ids]
        assert _same(x, origin[:, :1] + mesh.h * spts[:, 0])
        assert _same(y, origin[:, 1:] + mesh.h * spts[:, 1])
        assert np.array_equal(minus, iface.phi(x, y) < 0)
        seen[variant].append(ids)
    everything = []
    for variant, blocks in seen.items():
        ids = np.concatenate(blocks) if blocks else np.zeros(0, int)
        assert mesh.cell_kind == "rect" or (full.element_variant[ids] == variant).all()
        # sides as 0 (minus) and 1 (plus): the key (side, id) strictly ascends
        key = (status[ids] == SIDE_PLUS) * mesh.n_elements + ids
        assert (np.diff(key) > 0).all()
        everything.append(ids)
    everything = np.concatenate(everything)
    assert np.array_equal(np.sort(everything), np.flatnonzero(status != INTERFACE))


shapes = st.one_of(
    st.tuples(st.just(circle), st.floats(-0.9, 0.9), st.floats(-0.9, 0.9), st.floats(0.05, 1.2)),
    st.tuples(st.just(line), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-0.5, 0.5))
    .filter(lambda s: abs(s[1]) + abs(s[2]) > 1e-3))


@given(st.sampled_from(["rect", "tri"]), st.integers(8, 70), shapes)
@example("rect", 9, (circle, 0.0, 0.0, 0.5))       # N - 1 = 8, not a multiple of 3
@example("tri", 10, (line, 0.3, -0.7, 0.1))        # N - 1 = 9, odd
def test_lattice_aggregates_are_side_split_boxes(kind, N, shape):
    """On every level k the labels are 0..count - 1, one per aggregate of
    level k - 1 (per interior node on level 0), and the counts strictly
    fall. Each aggregate of level k, as a set of nodes, is all the nodes of
    one side of one box of b^(k+1) x b^(k+1) lattice nodes, which groups
    b x b boxes of level k - 1: no aggregate mixes sides, and no box side is
    split. The last level is the first with a single box."""
    mesh = build_mesh(DomainSpec(-1, 1, -1, 1, N, kind))
    iface = shape[0](*shape[1:])
    levels = lattice_aggregates(mesh, iface)
    nodes = full_mesh(mesh).interior_nodes
    x, y = mesh.node_coords(nodes).T
    plus = iface.phi(x, y) > 0
    j, i = np.divmod(nodes, N + 1)
    box = AGGREGATE_BOX[kind]
    counts = [n_coarse for _, n_coarse in levels]
    assert all(coarse < fine for fine, coarse in zip(counts, counts[1:]))
    assert (N - 1) // box ** len(levels) == 0 < (N - 1) // box ** (len(levels) - 1)

    node_agg, size = np.arange(len(nodes)), 1
    for labels, n_coarse in levels:
        assert labels.shape == (node_agg.max() + 1,)
        assert np.array_equal(np.unique(labels), np.arange(n_coarse))
        node_agg, size = labels[node_agg], size * box
        assert set(np.bincount(node_agg, plus) / np.bincount(node_agg)) <= {0.0, 1.0}
        # the aggregates are the classes of (box, side): one per occupied pair
        _, pair = np.unique(np.column_stack([i // size, j // size, plus]), axis=0,
                            return_inverse=True)
        assert len(np.unique(np.column_stack([node_agg, pair.ravel()]), axis=0)) == n_coarse
        assert pair.max() + 1 == n_coarse


@settings(max_examples=40)
@given(st.one_of(_cases(40).map(lambda c: (c, "circle")),
                 st.tuples(st.sampled_from(["rect", "tri"]), st.integers(8, 40),
                           st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
                           st.floats(-0.5, 0.5)).map(lambda c: (c, "line"))),
       st.sampled_from([10.0, 1e4]))
def test_shared_pattern_matrices_equal_the_summed_terms(interface, beta_plus):
    # every scheme's data on the context's one free-node pattern against the
    # sum of the sparse terms: the same nonzeros bit for bit, stored zeros
    # only where no term has an entry, a symmetric pattern, and the same
    # symmetry verdict as the sparse difference A - A^T
    mesh, iface, status, cuts = _classified(*interface)
    cuts = build_bases(cuts, 1.0, beta_plus)
    M, P, _ = assemble_edge_terms(mesh, interface_edges(mesh, cuts), status, cuts, 1.0)
    split = apply_dirichlet(mesh, status, cuts, M, P, np.zeros(mesh.n_nodes),
                            lambda x, y: np.zeros_like(x))
    free = full_mesh(mesh).interior_nodes
    A_vol = full_volume(mesh, status, cuts)
    pattern = split.A_vol
    T = pattern.T.tocsr()
    assert np.array_equal(T.indptr, pattern.indptr) and np.array_equal(T.indices, pattern.indices)
    for scheme in SCHEMES:
        params = MethodParams.preset(scheme, cuts)
        A = split.system(params).A
        assert np.shares_memory(A.indices, pattern.indices)
        assert np.shares_memory(A.indptr, pattern.indptr)
        ref = oracles.combine_system(A_vol, M, P, params)[free][:, free].tocsr()
        nz = A.copy()
        nz.eliminate_zeros()
        assert nz.nnz == ref.nnz and np.array_equal(nz.indptr, ref.indptr), scheme
        assert np.array_equal(nz.indices, ref.indices), scheme
        assert np.array_equal(nz.data.view(np.int64), ref.data.view(np.int64)), scheme
        assert assembly._is_symmetric(A) == oracles.is_symmetric_by_difference(ref), scheme
