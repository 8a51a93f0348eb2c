import dataclasses
from unittest import mock

import numpy as np
import pytest
from scipy.optimize import brentq

from ppife import geometry
from ppife.errors import ConfigError, MultipleCrossings
from ppife.geometry import (_AUDIT_ROWS, INTERFACE, SIDE_MINUS, SIDE_PLUS, CartesianMesh,
                            DomainSpec, _edge_signs, build_mesh, circle, classify_elements,
                            dump_mesh, edge_crossings, interface_edges, interface_from_name, line)
from ppife.quadrature import polygon_area
from oracles import (EDGE_INTERFACE, ReferenceMesh, classify_cuts, classify_edges,
                     dump_reference_mesh, edge_intersection, full_mesh)

R0 = np.pi / 6.28


def _crossing(p0, p1, iface, h=None):
    """The one-segment oracle's crossing, after checking that the vectorised
    solve finds bitwise the same one."""
    p0, p1 = np.asarray(p0, float), np.asarray(p1, float)
    h = np.linalg.norm(p1 - p0) if h is None else h
    x = edge_intersection(p0, p1, iface, h=h)
    hit, pts = edge_crossings(p0, p1, iface, h)
    assert hit.tolist() == [x is not None]
    if x is not None:
        assert np.array_equal(pts[0], x)
    return x


def test_rect_mesh_counts_n2():
    mesh = build_mesh(DomainSpec(-1, 1, -1, 1, 2, "rect"))
    assert mesh.n_nodes == 9
    assert mesh.n_elements == 4
    assert mesh.n_edges == 12
    assert int((mesh.edge_elements(np.arange(12))[:, 1] >= 0).sum()) == 4


def test_tri_mesh_counts_n2():
    mesh = build_mesh(DomainSpec(-1, 1, -1, 1, 2, "tri"))
    assert mesh.n_nodes == 9
    assert mesh.n_elements == 8
    assert mesh.n_edges == 16


def test_rect_mesh_n20():
    mesh = build_mesh(DomainSpec(-1, 1, -1, 1, 20, "rect"))
    assert mesh.h == pytest.approx(0.1)
    assert mesh.n_elements == 400


@pytest.mark.parametrize("kind", ["rect", "tri"])
def test_mesh_invariants(kind):
    mesh = build_mesh(DomainSpec(-1, 1, -1, 1, 5, kind))
    # Euler relation for a simply connected domain
    assert mesh.n_nodes - mesh.n_edges + mesh.n_elements == 1
    # uniform element areas
    want = mesh.h ** 2 if kind == "rect" else mesh.h ** 2 / 2
    for e in range(mesh.n_elements):
        area = polygon_area(mesh.node_coords(mesh.element_nodes(e)))
        assert area == pytest.approx(want, abs=1e-12 * mesh.h ** 2)
    # each interior edge two elements, boundary edges one
    ids = np.arange(mesh.n_edges)
    edge_elements, normals = mesh.edge_elements(ids), mesh.edge_normals(ids)
    interior = edge_elements[:, 1] >= 0
    for e in np.flatnonzero(interior):
        assert edge_elements[e, 0] < edge_elements[e, 1]
    # normals oriented from lower to higher element index
    centroids = full_mesh(mesh).centroids
    for e in np.flatnonzero(interior):
        t1, t2 = edge_elements[e]
        d = centroids[t2] - centroids[t1]
        assert float(normals[e] @ d) > 0


def test_domain_spec_validation():
    with pytest.raises(ConfigError):
        DomainSpec(1, -1, 0, 1, 4)
    with pytest.raises(ConfigError):
        DomainSpec(-1, 1, -1, 1, 1)
    with pytest.raises(ConfigError):
        DomainSpec(-1, 1, -1, 1, 4, "hex")
    with pytest.raises(ConfigError):
        DomainSpec(0, 2, 0, 1, 4)  # non-square cells


def test_edge_intersection_line():
    iface = line(1.0, 0.0, -0.5)  # x = 0.5
    x = _crossing(np.array([0.0, 0.0]), np.array([1.0, 0.0]), iface)
    assert np.allclose(x, [0.5, 0.0], atol=1e-13)


def test_edge_intersection_circle_axis():
    iface = circle(0.0, 0.0, 0.5)
    x = _crossing(np.array([0.0, 0.0]), np.array([0.0, 1.0]), iface)
    assert np.allclose(x, [0.0, 0.5], atol=1e-13)


def test_edge_intersection_vs_scalar_root_oracle():
    iface = circle(0.0, 0.0, R0)
    p0 = np.array([0.4, 0.0])
    p1 = np.array([0.6, 0.0])
    x = _crossing(p0, p1, iface)
    # independent scalar root-finder on the 1D restriction
    root = brentq(lambda t: iface.phi(0.4 + 0.2 * t, 0.0), 0.0, 1.0, xtol=1e-15)
    assert x[0] == pytest.approx(0.4 + 0.2 * root, abs=1e-12)
    assert x[0] == pytest.approx(R0, abs=1e-12)


def test_edge_intersection_snapped_endpoint():
    iface = circle(0.0, 0.0, 0.5)
    p0 = np.array([0.5, 0.0])       # exactly on the curve
    p1 = np.array([1.0, 0.0])
    assert _crossing(p0, p1, iface, h=0.5) is None


def test_edge_intersection_multiple_crossings():
    iface = circle(0.0, 0.0, 0.5)
    p0, p1 = np.array([-1.0, 0.3]), np.array([1.0, 0.3])
    with pytest.raises(MultipleCrossings):
        edge_intersection(p0, p1, iface)
    # one bad segment among good ones fails the whole batch
    with pytest.raises(MultipleCrossings):
        edge_crossings(np.array([[0.0, 0.0], p0]), np.array([[1.0, 0.0], p1]), iface, 2.0)


def test_classify_against_dense_sampling_oracle():
    mesh = build_mesh(DomainSpec(-1, 1, -1, 1, 20, "rect"))
    iface = circle(0.0, 0.0, R0)
    status, cuts = classify_elements(mesh, iface)
    assert status.dtype == np.int8 and status.shape == (mesh.n_elements,)
    t = np.linspace(0.0, 1.0, 50)
    TX, TY = np.meshgrid(t, t, indexing="ij")
    for k in range(mesh.n_elements):
        lo = mesh.node_coords(mesh.element_nodes(k)).min(axis=0)
        xs = lo[0] + mesh.h * TX
        ys = lo[1] + mesh.h * TY
        vals = iface.phi(xs, ys)
        oracle_cut = vals.min() < 0 < vals.max()
        assert (status[k] == INTERFACE) == oracle_cut == (k in cuts.ids), f"element {k}"
        if not oracle_cut:
            assert status[k] == (SIDE_MINUS if vals.max() <= 0 else SIDE_PLUS)


def test_far_interface_all_minus():
    mesh = build_mesh(DomainSpec(-1, 1, -1, 1, 4, "rect"))
    status, cuts = classify_elements(mesh, line(1.0, 0.0, -10.0))  # x = 10
    assert (status == SIDE_MINUS).all()
    assert len(cuts) == 0


def test_cut_invariants_circle():
    mesh = build_mesh(DomainSpec(-1, 1, -1, 1, 20, "rect"))
    iface = circle(0.0, 0.0, R0)
    status, cuts = classify_elements(mesh, iface)
    # rows exist for exactly the interface elements, in ascending order
    assert cuts.ids.tolist() == np.flatnonzero(status == INTERFACE).tolist()
    assert np.array_equal(cuts.verts, mesh.node_coords(mesh.element_nodes(cuts.ids)))
    for i in range(len(cuts)):
        am = polygon_area(cuts.poly_minus[i, :cuts.n_minus[i]])
        ap = polygon_area(cuts.poly_plus[i, :cuts.n_plus[i]])
        assert am > 0 and ap > 0
        assert am + ap == pytest.approx(mesh.h ** 2, abs=1e-12 * mesh.h ** 2)
        # D, E on the element boundary
        lo, hi = cuts.verts[i].min(axis=0), cuts.verts[i].max(axis=0)
        for X in (cuts.D[i], cuts.E[i]):
            on = (abs(X[0] - lo[0]) < 1e-12 or abs(X[0] - hi[0]) < 1e-12
                  or abs(X[1] - lo[1]) < 1e-12 or abs(X[1] - hi[1]) < 1e-12)
            assert on
        # chord normal agrees with the level-set gradient at the chord midpoint
        mid = 0.5 * (cuts.D[i] + cuts.E[i])
        g = np.array(iface.grad(mid[0], mid[1]))
        assert float(cuts.normal[i] @ g) > 0
    # the padded polygons have the same areas
    assert np.allclose(polygon_area(cuts.poly_minus) + polygon_area(cuts.poly_plus),
                       mesh.h ** 2, rtol=0, atol=1e-12 * mesh.h ** 2)
    assert len(cuts) > 0


def test_type_tags():
    # element (0,0) of a 2x2 mesh on (0,1)^2 spans [0,0.5]^2, h = 0.5
    mesh = build_mesh(DomainSpec(0, 1, 0, 1, 2, "rect"))
    # D=(0, 0.3h), E=(0.4h, 0): adjacent edges -> type I
    iface = line(0.75, 1.0, -0.15)
    status, cuts = classify_elements(mesh, iface)
    assert status[0] == INTERFACE and cuts.ids[0] == 0
    assert np.allclose(sorted(map(tuple, (cuts.D[0], cuts.E[0]))), [(0.0, 0.15), (0.2, 0.0)])
    # D=(0.3h, h), E=(0.4h, 0): opposite edges -> type II
    iface = line(1.0, 0.1, -0.2)
    status, cuts = classify_elements(mesh, iface)
    assert status[0] == INTERFACE and cuts.ids[0] == 0
    assert np.allclose(sorted(map(tuple, (cuts.D[0], cuts.E[0]))), [(0.15, 0.5), (0.2, 0.0)])


def test_subdomain_area_converges():
    iface = circle(0.0, 0.0, R0)
    exact = np.pi * R0 ** 2
    errs = []
    for N in (20, 40, 80):
        mesh = build_mesh(DomainSpec(-1, 1, -1, 1, N, "rect"))
        status, cuts = classify_elements(mesh, iface)
        area = (polygon_area(cuts.poly_minus).sum()
                + np.count_nonzero(status == SIDE_MINUS) * mesh.h ** 2)
        errs.append(abs(area - exact))
        assert errs[-1] < 4.0 * mesh.h ** 2
    assert errs[2] < errs[1] < errs[0]


def test_classification_is_deterministic():
    mesh = build_mesh(DomainSpec(-1, 1, -1, 1, 16, "rect"))
    iface = circle(0.0, 0.0, R0)
    status_a, a = classify_elements(mesh, iface)
    status_b, b = classify_elements(mesh, iface)
    assert np.array_equal(status_a, status_b)
    assert np.array_equal(a.ids, b.ids)
    assert np.array_equal(a.D, b.D)
    assert np.array_equal(a.E, b.E)
    assert np.array_equal(a.poly_minus, b.poly_minus)


def test_neighbours_share_crossing_points():
    mesh = build_mesh(DomainSpec(-1, 1, -1, 1, 20, "rect"))
    _, cuts = classify_elements(mesh, circle(0.0, 0.0, R0))
    pts = {}
    for X, e in zip(np.concatenate([cuts.D, cuts.E]), np.concatenate(cuts.cut_edges.T)):
        if e < 0:
            continue
        if e in pts:
            assert np.array_equal(pts[e], X)
        else:
            pts[e] = X


def test_edge_labels():
    mesh = build_mesh(DomainSpec(-1, 1, -1, 1, 20, "rect"))
    iface = circle(0.0, 0.0, R0)
    edge_elements = mesh.edge_elements(np.arange(mesh.n_edges))
    assert (edge_elements[:, 1] < 0).sum() == 80
    status, cuts = classify_elements(mesh, iface)
    edges = interface_edges(mesh, cuts)
    assert (np.diff(edges) > 0).all()
    labels = classify_edges(mesh, status)
    assert np.array_equal(edges, np.flatnonzero(labels == EDGE_INTERFACE))
    # interior edges only, each with a cut neighbour
    assert (edge_elements[edges, 1] >= 0).all()
    assert (status[edge_elements[edges]] == INTERFACE).any(axis=1).all()
    # every edge crossed by the curve is an interface edge
    crossed = cuts.cut_edges[cuts.cut_edges >= 0]
    assert np.isin(crossed[edge_elements[crossed, 1] >= 0], edges).all()
    # far interface: no interface edges at all
    assert len(interface_edges(mesh, classify_elements(mesh, line(1, 0, -10))[1])) == 0


def test_interface_edge_count_scales_linearly():
    iface = circle(0.0, 0.0, R0)
    ratios = []
    for N in (20, 40, 80):
        mesh = build_mesh(DomainSpec(-1, 1, -1, 1, N, "rect"))
        ratios.append(len(interface_edges(mesh, classify_elements(mesh, iface)[1])) / N)
    assert max(ratios) / min(ratios) < 2.0


def test_vertex_aligned_line_is_uncut():
    # x = 0 passes through mesh nodes for even N: everything snaps, no cuts
    mesh = build_mesh(DomainSpec(-1, 1, -1, 1, 4, "rect"))
    status, cuts = classify_elements(mesh, line(1.0, 0.0, 0.0))
    assert len(cuts) == 0
    assert (status == SIDE_MINUS).sum() == 8
    assert (status == SIDE_PLUS).sum() == 8


def test_interface_from_name():
    iface = interface_from_name("circle", (0.0, 0.0, 0.5))
    assert iface.phi(0.5, 0.0) == pytest.approx(0.0)
    with pytest.raises(ConfigError):
        interface_from_name("blob", (1.0,))
    with pytest.raises(ConfigError):
        interface_from_name("circle", (1.0,))


def test_dump_mesh(tmp_path):
    mesh = build_mesh(DomainSpec(-1, 1, -1, 1, 2, "rect"))
    path = tmp_path / "mesh.txt"
    dump_mesh(mesh, path)
    lines = path.read_text().strip().splitlines()
    kinds = {}
    for ln in lines:
        kinds[ln.split()[0]] = kinds.get(ln.split()[0], 0) + 1
    assert kinds == {"node": 9, "elem": 4, "edge": 12}
    node0 = lines[0].split()
    assert node0[:2] == ["node", "0"]
    assert float(node0[2]) == -1.0


@pytest.mark.parametrize("kind", ["rect", "tri"])
def test_dump_mesh_equals_reference_dump(kind, tmp_path):
    spec = DomainSpec(-1, 1, -1, 1, 7, kind)
    dump_mesh(build_mesh(spec), tmp_path / "mesh.txt")
    dump_reference_mesh(ReferenceMesh(spec), tmp_path / "reference.txt")
    assert (tmp_path / "mesh.txt").read_bytes() == (tmp_path / "reference.txt").read_bytes()


def test_classify_propagates_multiple_crossings():
    # circle dipping into one cell across a single edge twice
    mesh = build_mesh(DomainSpec(-1, 1, -1, 1, 2, "rect"))
    iface = circle(0.5, 0.5, 0.55)
    with pytest.raises(MultipleCrossings):
        classify_elements(mesh, iface)
    # the same far into the edge numbering: a small circle dips across one
    # horizontal edge near the top of the mesh, and the error names that
    # edge by its mesh id, past the first audit chunk of an audit of every
    # edge, though the reach-pruned audit sees it among its first edges
    mesh = build_mesh(DomainSpec(-1, 1, -1, 1, 120, "rect"))
    a = 115 * 121 + 60
    e = int(np.flatnonzero((mesh.edge_nodes(np.arange(mesh.n_edges)) == [a, a + 1])
                           .all(axis=1))[0])
    assert e >= _AUDIT_ROWS
    (x0, y0), h = mesh.node_coords(a), mesh.h
    iface = circle(x0 + 0.5 * h, y0 + 0.1 * h, 0.3 * h)
    with pytest.raises(MultipleCrossings, match=rf"^edge {e} is crossed 2 times"):
        classify_elements(mesh, iface)


def test_audit_work_grows_like_the_interface():
    # the points classify_elements passes to phi beyond one per node and one
    # per centroid: the audited edges, their crossings' bisection and the
    # sub-polygon means grow like N; an audit of every edge grew like N^2
    # (15.3x from N=80 to 320, against 3.80x)
    def extra(N):
        mesh = build_mesh(DomainSpec(-1, 1, -1, 1, N, "rect"))
        iface = circle(0.0, 0.0, R0)
        count = [0]

        def phi(x, y):
            count[0] += np.broadcast(x, y).size
            return iface.phi(x, y)

        classify_elements(mesh, dataclasses.replace(iface, phi=phi))
        return count[0] - mesh.n_nodes - mesh.n_elements

    assert extra(320) <= 4.5 * extra(80)


@pytest.mark.parametrize("pruned", [True, False])
def test_classify_samples_each_audited_edge_once(pruned):
    # the audit's samples also bracket the crossings, so no edge reaches
    # _edge_signs twice (sampling the crossed edges again did); an infinite
    # reach audits every edge, here in two blocks
    mesh = build_mesh(DomainSpec(-1, 1, -1, 1, 40, "rect"))
    assert mesh.n_edges > _AUDIT_ROWS
    iface = circle(0.0, 0.0, R0)
    if not pruned:
        iface = dataclasses.replace(iface, reach=lambda x, y, l: np.inf)
    sampled = []

    def record(p0, p1, iface, tol):
        sampled.append(np.column_stack([p0, p1]))
        return _edge_signs(p0, p1, iface, tol)

    with mock.patch.object(geometry, "_edge_signs", record):
        cuts = classify_elements(mesh, iface)[1]
    sampled = np.concatenate(sampled)
    assert len(np.unique(sampled, axis=0)) == len(sampled)
    ends = mesh.edge_nodes(np.unique(cuts.cut_edges[cuts.cut_edges >= 0]))
    crossed = mesh.node_coords(ends).reshape(-1, 4)
    assert len(crossed) and (crossed[:, None] == sampled).all(axis=2).any(axis=1).all()
    if not pruned:
        ends = mesh.edge_nodes(np.arange(mesh.n_edges))
        assert np.array_equal(sampled, mesh.node_coords(ends).reshape(-1, 4))


def test_degenerate_chord_falls_back_to_uncut():
    # steep level set clipping one corner: crossings exist but the chord is
    # far below the snap tolerance, so the element is reclassified by side
    from ppife.geometry import InterfaceGeometry
    mesh = build_mesh(DomainSpec(0, 1, 0, 1, 2, "rect"))
    scale = 1e6
    phi = lambda x, y: scale * (np.asarray(x) + np.asarray(y) - 2.0 + 1e-16)
    grad = lambda x, y: (scale * np.ones_like(np.asarray(x, float)),
                         scale * np.ones_like(np.asarray(y, float)))
    iface = InterfaceGeometry(phi, grad, reach=lambda x, y, l: np.inf)
    status, cuts = classify_elements(mesh, iface)
    assert len(cuts) == 0
    assert (status == SIDE_MINUS).all()


def test_every_crossed_edge_detected_by_oracle():
    # label oracle: run the crossing finder on every interior edge directly
    mesh = build_mesh(DomainSpec(-1, 1, -1, 1, 20, "rect"))
    iface = circle(0.0, 0.0, R0)
    status, cuts = classify_elements(mesh, iface)
    edges = interface_edges(mesh, cuts)
    ids = np.arange(mesh.n_edges)
    edge_nodes, edge_elements = mesh.edge_nodes(ids), mesh.edge_elements(ids)
    for e in ids:
        a, b = mesh.node_coords(edge_nodes[e])
        x = _crossing(a, b, iface, h=mesh.h)
        if x is not None and edge_elements[e, 1] >= 0:
            assert e in edges


def _assert_matches_oracle(mesh, iface):
    """The stacked classification equals the per-element walk bit for bit."""
    status, cuts = classify_elements(mesh, iface)
    o_status, o_cuts = classify_cuts(mesh, iface)
    assert np.array_equal(status, o_status)
    assert cuts.ids.tolist() == list(o_cuts)
    for i, c in enumerate(o_cuts.values()):
        assert np.array_equal(cuts.D[i], c.D) and np.array_equal(cuts.E[i], c.E)
        assert np.array_equal(cuts.normal[i], c.chord_normal)
        for padded, n, poly in ((cuts.poly_minus[i], cuts.n_minus[i], c.poly_minus),
                                (cuts.poly_plus[i], cuts.n_plus[i], c.poly_plus)):
            assert n == len(poly) and np.array_equal(padded[:n], poly)
            assert (padded[n:] == poly[-1]).all()
        assert tuple(e for e in cuts.cut_edges[i] if e >= 0) == c.cut_edges
    return cuts


@pytest.mark.parametrize("kind", ["rect", "tri"])
def test_snapped_vertex_cuts_match_oracle(kind):
    # lines through mesh nodes: a vertex plus a crossing, two vertices of a
    # cell diagonal, and vertices grazed by a line that also crosses edges
    from ppife.geometry import InterfaceGeometry
    mesh = build_mesh(DomainSpec(-1, 1, -1, 1, 8, kind))
    # two lines, one through the corner node (-1, -1) and one cutting the far
    # corner of the element there: on rect, two crossings plus a grazed
    # vertex, where the two crossings make the chord
    s = lambda x, y: np.asarray(x) + np.asarray(y) + 2.0
    pair = InterfaceGeometry(lambda x, y: s(x, y) * (s(x, y) - 0.4),
                             lambda x, y: (2.0 * s(x, y) - 0.4, 2.0 * s(x, y) - 0.4),
                             reach=lambda x, y, l: np.inf)
    snapped = 0
    for iface in (line(1.0, 1.0, 0.0), line(1.0, -1.0, 0.25), line(2.0, 1.0, 0.5),
                  line(1.0, 2.0, -0.25), line(1.0, -3.0, 0.5), circle(0.0, 0.0, 0.5),
                  circle(0.25, 0.0, 0.5), pair):
        cuts = _assert_matches_oracle(mesh, iface)
        snapped += int((cuts.cut_edges < 0).sum())
    assert snapped > 0
    if kind == "rect":
        cuts = classify_elements(mesh, pair)[1]
        assert cuts.ids[0] == 0 and (cuts.cut_edges[0] >= 0).all()


def test_crossing_beside_a_snapped_vertex_is_solved():
    # (x+y+2)(x+y+1.6) vanishes at the corner node (-1, -1) and crosses the
    # diagonal of element 0 at (-0.8, -0.8), inside the edge that ends at
    # that node; the chord joins the two crossings, not the corner
    from ppife.geometry import InterfaceGeometry
    mesh = build_mesh(DomainSpec(-1, 1, -1, 1, 8, "tri"))
    s = lambda x, y: np.asarray(x) + np.asarray(y) + 2.0
    pair = InterfaceGeometry(lambda x, y: s(x, y) * (s(x, y) - 0.4),
                             lambda x, y: (2.0 * s(x, y) - 0.4, 2.0 * s(x, y) - 0.4),
                             reach=lambda x, y, l: np.inf)
    cuts = _assert_matches_oracle(mesh, pair)
    assert cuts.ids[0] == 0 and (cuts.cut_edges[0] >= 0).all()
    assert np.allclose(cuts.D[0], [-0.75, -0.85], atol=1e-13)
    assert np.allclose(cuts.E[0], [-0.8, -0.8], atol=1e-13)
    assert _crossing([-1.0, -1.0], [-0.75, -0.75], pair, h=0.25) is not None


def test_edge_numbering_equals_two_column_unique():
    # the 1-D key numbering is the lexicographic order of np.unique(axis=0)
    for kind in ("rect", "tri"):
        mesh = build_mesh(DomainSpec(-1, 1, -1, 1, 7, kind))
        d = mesh.n_local
        elements = mesh.element_nodes(np.arange(mesh.n_elements))
        pairs = np.sort(elements[:, np.column_stack([np.arange(d), np.roll(np.arange(d), -1)])]
                        .reshape(-1, 2), axis=1)
        nodes, inverse = np.unique(pairs, axis=0, return_inverse=True)
        assert np.array_equal(mesh.edge_nodes(np.arange(mesh.n_edges)), nodes)
        assert np.array_equal(mesh.element_edges(np.arange(mesh.n_elements)),
                              inverse.reshape(mesh.n_elements, d))


def test_small_cells_far_from_origin_are_partitioned():
    # cells of h = 2.3e-5 at y = 1: the shoelace sum on absolute coordinates
    # carries a round-off of about eps |x| |y|, above the 1e-10 h^2 bound of
    # the partition check; about each element's first vertex it stays below
    mesh = build_mesh(DomainSpec(0.0, 0.001, 1.0, 1.001, 43, "tri"))
    status, cuts = classify_elements(mesh, line(1.0, 0.0, -0.0005))
    assert len(cuts) == 2 * 43 and (status[cuts.ids] == INTERFACE).all()
    assert np.allclose(cuts.D[:, 0], 0.0005, rtol=0, atol=1e-15)
    assert np.allclose(cuts.E[:, 0], 0.0005, rtol=0, atol=1e-15)
    bound = 1e-10 * mesh.h ** 2
    o = cuts.verts[:, :1]
    for shift, ok in ((o, True), (0.0, False)):
        parts = polygon_area(cuts.poly_minus - shift) + polygon_area(cuts.poly_plus - shift)
        assert (np.abs(parts - mesh.h ** 2 / 2) <= bound).all() == ok
