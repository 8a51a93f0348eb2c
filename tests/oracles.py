"""Independent reference implementations that the tests compare against.

None of this runs in the solver: storage checks and naive products for the
sparse kernels, a dense solve for small systems, the closed-form linear IFE
coupling, the per-norm error passes that `postprocess.error_norms` fuses, the
one-segment crossing solve that `geometry.edge_crossings` vectorises, the
standard bases' coefficient matrices written out (`TEMPLATES`), which
`local_basis` derives from the cell variants, and the per-element standard
basis that the templates replace, the per-element
classification, chord split and edge split points that `geometry.CutSet`
stacks, the per-element immersed basis (`LocalBasis`) and its solve, and the
reference cuts and lemma-scan ratios that `local_basis.ife_coefficients` and
`verify` stack over elements and samples, the edge labels that
`geometry.interface_edges` replaces, and the one-polygon, one-edge and
one-rectangle quadrature rules that `quadrature.fan_rule` and the stacked edge
split replace, the gather-and-reduce mesh frames, edge sign audit and
both-branch exact-solution selects that the per-component sweeps replace, and
the dense Cholesky test of the coercivity scan, the unstructured mesh
adjacency (every edge's endpoints, neighbours, normal and length) and the
element-block COO volume assembly that the closed-form mesh and the stencil
replace, the gather-and-reduce neighbour maxima of the AMG aggregation, and
the ascending, mixed-side bulk sweeps and per-basis cut quadrature of the
load and the error norms that the side-pure sweep and the piece
contraction replace, the per-sample draw loop and the sparse coercivity
path (free-node submatrices, `combine_system`, its symmetric part and a
banded Cholesky of it, with the paper's scheme weights for a beta pair,
`paper_params`) that the decoded word block and the linear band
combination of `verify` replace, the per-scheme slicing of the
full-node scheme matrix that the context's one Dirichlet split replaces,
the sum of sparse scheme terms (`combine_system`) and the symmetry check
through a sparse difference that the shared free-node pattern replaces,
the sign audit of every mesh edge that the reach-pruned audit replaces, and
the padded fan rules over all cut elements at once that `cut_sweep`'s
blocks replace. Last, the checks that tests run on library results: the
residuals of the immersed bases' defining conditions and the convergence
rates of an error sequence, and `full_volume`, the full-node stiffness
matrix through the library's one volume assembly.
"""
import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from ppife.assembly import (DATA_DEGREE, DATA_REFINE, EDGE_DEGREE, MethodParams,
                            assemble_edge_terms, assemble_load, assemble_volume, bulk_rules,
                            cut_volume_matrices)
from ppife.errors import GeometryError, MultipleCrossings, PpifeError, SingularLocalSystem
from ppife.geometry import (_AUDIT_ROWS, _SWEEP_POINTS, INTERFACE, RECT, SIDE_MINUS, SIDE_PLUS,
                            SNAP_TOL, TRI, CutSet, DomainSpec, _cut_set, _edge_signs,
                            _snapped_sign, build_mesh, circle, classify_elements,
                            edge_crossings, interface_edges)
from ppife.local_basis import (CHORD_TIE_TOL, _monomials, build_bases, cut_frame, cut_values,
                               phys_coefficients, piece_gradients, piece_values)
from ppife.quadrature import (QuadratureRule, _collapsed_triangle_rule, fan_rule, map_segment,
                              map_triangle, polygon_area, rect_rule, segment_rule)
from ppife.verify import DEFAULT_R0, quadrant_bound_constant

_N_EDGE_SAMPLES = 17


def _compressed_sign_flips(signs):
    nz = signs[signs != 0]
    if len(nz) < 2:
        return 0
    return int(np.count_nonzero(nz[:-1] * nz[1:] < 0))


def edge_intersection(p0, p1, iface, h=None):
    """Interface crossing of the segment p0 -> p1, or None.

    Samples with |phi| < SNAP_TOL*h are snapped onto the curve; the segment
    is crossed when its first and last strictly-signed samples have opposite
    signs. A sign audit on a 16-interval refinement raises MultipleCrossings
    when the curve cuts the segment more than once. The crossing parameter is
    resolved to 1e-14 by bisection.
    """
    p0 = np.asarray(p0, float)
    p1 = np.asarray(p1, float)
    if h is None:
        h = np.linalg.norm(p1 - p0)
    tol = SNAP_TOL * h

    ts = np.linspace(0.0, 1.0, _N_EDGE_SAMPLES)
    pts = p0 + ts[:, None] * (p1 - p0)
    vals = np.asarray(iface.phi(pts[:, 0], pts[:, 1]), float)
    signs = np.where(np.abs(vals) < tol, 0, np.sign(vals)).astype(int)
    if _compressed_sign_flips(signs) > 1:
        raise MultipleCrossings(
            f"interface crosses segment {p0}->{p1} more than once; refine the mesh")
    nz = signs[signs != 0]
    if len(nz) == 0 or nz[0] * nz[-1] > 0:
        return None

    # bracket between the nearest strictly-signed samples (interior samples may
    # sit inside the snap band around the crossing), then bisect
    s0 = nz[0]
    j = int(np.flatnonzero(signs == -s0)[0])
    k = int(np.flatnonzero(signs[:j] == s0)[-1])
    a, b = ts[k], ts[j]
    fa = float(vals[k])
    for _ in range(60):
        if b - a <= 1e-14:
            break
        m = 0.5 * (a + b)
        pm = p0 + m * (p1 - p0)
        fm = float(iface.phi(pm[0], pm[1]))
        if fm == 0.0:
            a = b = m
            break
        if fa * fm < 0:
            b = m
        else:
            a, fa = m, fm
    t = 0.5 * (a + b)
    return p0 + t * (p1 - p0)


@dataclass(eq=False)
class LocalBasis:
    """Nodal basis on one element, in scaled local monomials.

    For interface elements `coefs_minus`/`coefs_plus` differ and the chord
    data selects the active piece; for standard elements they are the same
    array.
    """

    element_id: int
    kind: str                 # 'p1' | 'q1' | 'ife_p1' | 'ife_q1'
    origin: np.ndarray
    h: float
    coefs_minus: np.ndarray   # (d, m)
    coefs_plus: np.ndarray
    D: Optional[np.ndarray] = None
    E: Optional[np.ndarray] = None
    chord_normal: Optional[np.ndarray] = None

    @property
    def n_funcs(self):
        return self.coefs_minus.shape[0]

    @property
    def is_interface(self):
        return self.kind.startswith("ife")

    def _scaled(self, pts):
        return (np.atleast_2d(np.asarray(pts, float)) - self.origin) / self.h

    def side_plus_mask(self, pts):
        """True where the plus piece is active (chord side test, minus on ties)."""
        pts = np.atleast_2d(np.asarray(pts, float))
        s = (pts - self.D) @ self.chord_normal
        return s > CHORD_TIE_TOL * self.h

    def _values_from(self, coefs, pts):
        return coefs @ _monomials(self._scaled(pts), coefs.shape[1]).T

    def _gradients_from(self, coefs, pts):
        return piece_gradients(coefs, self._scaled(pts), self.h)

    def values(self, pts):
        """Basis values at physical points, shape (d, n)."""
        if not self.is_interface:
            return self._values_from(self.coefs_minus, pts)
        vm = self._values_from(self.coefs_minus, pts)
        vp = self._values_from(self.coefs_plus, pts)
        mask = self.side_plus_mask(pts)
        return np.where(mask[None, :], vp, vm)

    def gradients(self, pts):
        """Basis gradients at physical points, shape (d, n, 2)."""
        if not self.is_interface:
            return self._gradients_from(self.coefs_minus, pts)
        gm = self._gradients_from(self.coefs_minus, pts)
        gp = self._gradients_from(self.coefs_plus, pts)
        mask = self.side_plus_mask(pts)
        return np.where(mask[None, :, None], gp, gm)

    def values_piece(self, pts, side):
        return self._values_from(self.coefs_plus if side > 0 else self.coefs_minus, pts)

    def gradients_piece(self, pts, side):
        return self._gradients_from(self.coefs_plus if side > 0 else self.coefs_minus, pts)

    def phys_coefficients(self):
        """Physical-monomial coefficients [1, x, y(, xy)] of both pieces."""
        return (phys_coefficients(self.coefs_minus, self.origin, self.h),
                phys_coefficients(self.coefs_plus, self.origin, self.h))


def basis_of(cuts, i):
    """The LocalBasis of row i of a CutSet with bases."""
    kind = "ife_q1" if cuts.verts.shape[1] == 4 else "ife_p1"
    return LocalBasis(int(cuts.ids[i]), kind, cuts.origin[i], cuts.h[i], cuts.cm[i], cuts.cp[i],
                      D=cuts.D[i], E=cuts.E[i], chord_normal=cuts.normal[i])


def cut_stack(verts, D, E, normal, beta_minus, beta_plus):
    """A CutSet of hand-built cuts (stacks, or one cut) with its bases; the
    sub-polygons and edge splits are left empty."""
    verts = np.asarray(verts, float)
    one = verts.ndim == 2
    verts, D, E, normal = (np.asarray(a, float)[None] if one else np.asarray(a, float)
                           for a in (verts, D, E, normal))
    K = len(verts)
    empty = np.zeros((K, 0, 2))
    cuts = CutSet(np.arange(K), verts, D, E, normal, empty, empty, np.zeros(K, int),
                  np.zeros(K, int), empty, np.full((K, 2), -1))
    return build_bases(cuts, beta_minus, beta_plus)


def ife_stack_basis(verts, D, E, normal, beta_minus, beta_plus):
    """The library's immersed basis of one hand-built cut, as a LocalBasis."""
    return basis_of(cut_stack(verts, D, E, normal, beta_minus, beta_plus), 0)


@dataclass(eq=False)
class ElementCut:
    """Cut data of one interface element.

    D/E are the curve-boundary intersections, the chord normal points from
    the minus sub-polygon toward the plus one, and poly_minus/poly_plus are
    the chord-split sub-polygons (CCW).
    """

    element_id: int
    D: np.ndarray
    E: np.ndarray
    cut_edges: tuple
    chord_normal: np.ndarray
    poly_minus: np.ndarray
    poly_plus: np.ndarray


def split_convex_by_chord(verts, D, E, tol):
    """Split a convex CCW polygon along the chord D-E.

    D and E must lie on the polygon boundary (possibly at vertices). Returns
    the two CCW sub-polygons (chainA from D to E, chainB from E to D), or None
    when the split is degenerate (one side empty).
    """
    verts = np.asarray(verts, float)
    nv = len(verts)
    ring = []
    tags = []
    for i in range(nv):
        v = verts[i]
        if np.linalg.norm(v - D) < tol:
            ring.append(D)
            tags.append("D")
        elif np.linalg.norm(v - E) < tol:
            ring.append(E)
            tags.append("E")
        else:
            ring.append(v)
            tags.append("v")
        a, b = v, verts[(i + 1) % nv]
        d = b - a
        ll = float(d @ d)
        for X, tag in ((D, "D"), (E, "E")):
            t = float((X - a) @ d) / ll
            if tol / np.sqrt(ll) < t < 1 - tol / np.sqrt(ll):
                foot = a + t * d
                if np.linalg.norm(X - foot) < tol:
                    ring.append(X)
                    tags.append(tag)
    if tags.count("D") != 1 or tags.count("E") != 1:
        return None
    iD = tags.index("D")
    iE = tags.index("E")
    order = list(range(len(ring)))

    def chain(i0, i1):
        idx = []
        k = i0
        while True:
            idx.append(k)
            if k == i1:
                break
            k = order[(k + 1) % len(order)]
        return np.array([ring[j] for j in idx])

    pa = chain(iD, iE)
    pb = chain(iE, iD)
    if len(pa) < 3 or len(pb) < 3:
        return None
    return pa, pb


def classify_one(mesh, iface, k, crossings, node_sign, tol):
    """Cut data of element k, or None when its cut is degenerate."""
    full = full_mesh(mesh)
    conn = full.elements[k]
    verts = full.nodes[conn]
    strict = [(crossings[e], e) for e in full.element_edges[k].tolist()
              if e in crossings]
    snapped = [(verts[i].copy(), None) for i in range(len(conn)) if node_sign[conn[i]] == 0]

    if len(strict) > 2:
        raise MultipleCrossings(f"element {k} boundary crossed {len(strict)} times")
    if len(strict) + len(snapped) < 2:
        return None

    if len(strict) == 2:
        (D, eD), (E, eE) = strict
    elif len(strict) + len(snapped) == 2:
        pts = strict + snapped
        (D, eD), (E, eE) = pts
    else:
        # one real crossing plus several grazing vertices: take the farthest pair
        pts = strict + snapped
        best = None
        for ii in range(len(pts)):
            for jj in range(ii + 1, len(pts)):
                dd = np.linalg.norm(pts[ii][0] - pts[jj][0])
                if best is None or dd > best[0]:
                    best = (dd, pts[ii], pts[jj])
        _, (D, eD), (E, eE) = best

    if np.linalg.norm(E - D) < tol:
        return None  # degenerate chord

    split = split_convex_by_chord(verts, D, E, max(tol, 1e-12 * mesh.h))
    if split is None:
        return None
    pa, pb = split
    area_a = polygon_area(pa)
    area_b = polygon_area(pb)
    area_k = abs(polygon_area(verts))
    if min(area_a, area_b) < 1e-12 * mesh.h ** 2:
        return None
    if abs(area_a + area_b - area_k) > 1e-10 * mesh.h ** 2:
        raise GeometryError(f"cut of element {k} does not partition it")

    def chain_side(poly):
        signs = []
        for p in poly:
            if np.linalg.norm(p - D) < tol or np.linalg.norm(p - E) < tol:
                continue
            for i, v in enumerate(verts):
                if np.linalg.norm(p - v) < 1e-12 * mesh.h:
                    signs.append(int(node_sign[conn[i]]))
                    break
        signs = [sg for sg in signs if sg != 0]
        if signs and all(sg == signs[0] for sg in signs):
            return signs[0]
        if signs:
            raise GeometryError(f"inconsistent vertex signs in element {k}")
        c = poly.mean(axis=0)
        return SIDE_PLUS if float(iface.phi(c[0], c[1])) > 0 else SIDE_MINUS

    sa = chain_side(pa)
    sb = chain_side(pb)
    if sa == sb:
        return None
    poly_minus, poly_plus = (pa, pb) if sa == SIDE_MINUS else (pb, pa)

    chord = E - D
    n = np.array([chord[1], -chord[0]])
    n /= np.linalg.norm(n)
    mid = 0.5 * (D + E)
    gx, gy = iface.grad(mid[0], mid[1])
    g = np.array([float(gx), float(gy)])
    if np.linalg.norm(g) > 1e-14:
        if float(n @ g) < 0:
            n = -n
    else:
        if float(n @ (poly_plus.mean(axis=0) - mid)) < 0:
            n = -n
    if float(n @ (poly_plus.mean(axis=0) - mid)) <= 0:
        raise GeometryError(f"chord normal of element {k} contradicts the level set")

    return ElementCut(k, D=D, E=E,
                      cut_edges=tuple(e for e in (eD, eE) if e is not None),
                      chord_normal=n, poly_minus=poly_minus, poly_plus=poly_plus)


def classify_cuts(mesh, iface):
    """(status, {element id: ElementCut}) from the per-element walk: every
    element with a snapped vertex or a crossed edge goes through
    `classify_one`; the crossings are those of `geometry.edge_crossings` over
    every mesh edge."""
    tol = SNAP_TOL * mesh.h
    full = full_mesh(mesh)
    node_phi = np.asarray(iface.phi(full.nodes[:, 0], full.nodes[:, 1]), float)
    node_sign = np.where(np.abs(node_phi) < tol, 0, np.sign(node_phi)).astype(np.int8)
    ends = full.edge_nodes
    hit, points = edge_crossings(full.nodes[ends[:, 0]], full.nodes[ends[:, 1]], iface, mesh.h)
    crossed = np.flatnonzero(hit)
    crossings = dict(zip(crossed.tolist(), points[crossed]))
    cent_phi = np.asarray(iface.phi(full.centroids[:, 0], full.centroids[:, 1]), float)
    status = np.where(cent_phi > 0, SIDE_PLUS, SIDE_MINUS).astype(np.int8)
    touched = (node_sign[full.elements] == 0).any(axis=1)
    adj = full.edge_elements[crossed].ravel()
    touched[adj[adj >= 0]] = True
    cuts = {}
    for k in np.flatnonzero(touched).tolist():
        cut = classify_one(mesh, iface, k, crossings, node_sign, tol)
        if cut is not None:
            status[k] = INTERFACE
            cuts[k] = cut
    return status, cuts


def oracle_bases(mesh, cuts, beta_minus, beta_plus):
    """{element id: LocalBasis} of the per-element solve, keyed like `cuts`."""
    full = full_mesh(mesh)
    return {k: ife_basis(k, full.nodes[full.elements[k]], c.D, c.E, c.chord_normal,
                         beta_minus, beta_plus) for k, c in cuts.items()}


# edge labels of `classify_edges`
EDGE_BOUNDARY = 0
EDGE_INTERIOR = 1
EDGE_INTERFACE = 2


def classify_edges(mesh, status):
    """Edge labels: boundary, interior, or interior-interface.

    Every interior edge adjacent to at least one interface element is labelled
    interface (penalties on the extra edges are harmless because the traces
    there agree identically).
    """
    adj = full_mesh(mesh).edge_elements
    labels = np.full(mesh.n_edges, EDGE_INTERIOR, dtype=np.int8)
    labels[adj[:, 1] < 0] = EDGE_BOUNDARY
    iface_elems = status == INTERFACE
    touched = np.zeros(mesh.n_edges, dtype=bool)
    touched |= iface_elems[adj[:, 0]]
    interior = adj[:, 1] >= 0
    touched[interior] |= iface_elems[adj[interior, 1]]
    labels[(labels == EDGE_INTERIOR) & touched] = EDGE_INTERFACE
    return labels


class DegeneratePolygon(PpifeError):
    """Sub-polygon with (numerically) vanishing area."""


def map_rect(rule, origin, hx, hy=None):
    """Map a reference-square rule onto an axis-aligned rectangle."""
    if hy is None:
        hy = hx
    pts = np.asarray(origin, float) + rule.points * np.array([hx, hy])
    return pts, rule.weights * (hx * hy)


def split_polygon_rule(poly, degree, refine=0):
    """Quadrature over a convex polygon with 3-5 vertices (`fan_rule` of one
    polygon, after a check that its area does not vanish). Weights sum to the
    polygon area."""
    poly = np.asarray(poly, float)
    area = polygon_area(poly)
    if area < 0:
        poly = poly[::-1]
        area = -area
    scale = max(np.ptp(poly[:, 0]), np.ptp(poly[:, 1]), 1e-300)
    if area < 1e-14 * scale * scale:
        raise DegeneratePolygon(f"polygon area {area:.3e} below tolerance")
    pts, wts = fan_rule(poly, degree, refine)
    return QuadratureRule(pts, wts)


def split_edge_rule(p0, p1, crossings, degree):
    """Gauss rule on segment p0 -> p1, split at the given crossing points.

    `crossings` may be None, a single point, or a list of points, in any
    order. They must lie strictly inside the segment and be distinct.
    """
    p0 = np.asarray(p0, float)
    p1 = np.asarray(p1, float)
    d = p1 - p0
    length = np.linalg.norm(d)
    if crossings is None:
        crossings = []
    elif isinstance(crossings, np.ndarray) and crossings.ndim == 1:
        crossings = [crossings]
    ts = [float(np.dot(np.asarray(x, float) - p0, d) / (length * length)) for x in crossings]
    breaks = np.concatenate([[0.0], np.sort(ts), [1.0]])[:, None]
    pts, wts = map_segment(segment_rule(degree), p0 + breaks[:-1] * d, p0 + breaks[1:] * d)
    return QuadratureRule(pts.reshape(-1, 2), wts.ravel())


def edge_split_points(mesh, edge_id, cuts):
    """Interior points where adjacent chords break the traces on this edge."""
    full = full_mesh(mesh)
    a = full.nodes[full.edge_nodes[edge_id, 0]]
    b = full.nodes[full.edge_nodes[edge_id, 1]]
    d = b - a
    ll = float(d @ d)
    pts = []
    for el in full.edge_elements[edge_id]:
        cut = cuts.get(int(el))
        if cut is None:
            continue
        for X in (cut.D, cut.E):
            t = float((X - a) @ d) / ll
            if 1e-12 < t < 1 - 1e-12:
                foot = a + t * d
                if np.linalg.norm(X - foot) < 1e-10 * mesh.h:
                    if not any(np.linalg.norm(X - p) < 1e-12 * mesh.h for p in pts):
                        pts.append(X)
    return pts


def fan_triangles(poly):
    """Fan-triangulate a convex polygon from its first vertex."""
    poly = np.asarray(poly, float)
    return [np.array([poly[0], poly[i], poly[i + 1]]) for i in range(1, len(poly) - 1)]


def _subdivide(tri):
    m01 = 0.5 * (tri[0] + tri[1])
    m12 = 0.5 * (tri[1] + tri[2])
    m20 = 0.5 * (tri[2] + tri[0])
    return [np.array([tri[0], m01, m20]), np.array([m01, tri[1], m12]),
            np.array([m20, m12, tri[2]]), np.array([m01, m12, m20])]


def cut_data_rules(cut, degree=DATA_DEGREE, refine=DATA_REFINE):
    """Refined chord-split quadrature for data integrands on a cut element.

    Yields (side, points, weights) per sub-polygon; the caller selects the
    exact-solution piece per point from the true level set.
    """
    ref = _collapsed_triangle_rule(degree)
    for side, poly in ((SIDE_MINUS, cut.poly_minus), (-SIDE_MINUS, cut.poly_plus)):
        tris = fan_triangles(poly)
        for _ in range(refine):
            tris = [c for t in tris for c in _subdivide(t)]
        pts, wts = map_triangle(ref, np.array(tris))
        yield side, pts.reshape(-1, 2), wts.ravel()


def interface_jump_residuals(sol, config, n_samples=360):
    """Max |[u]| and |[beta du/dn]| sampled along the circle of a circle
    interface's RunConfig, with its beta pair."""
    assert config.interface == "circle"
    cx, cy, r0 = config.interface_params
    iface = circle(cx, cy, r0)
    theta = np.linspace(0.0, 2 * np.pi, n_samples, endpoint=False)
    x = cx + r0 * np.cos(theta)
    y = cy + r0 * np.sin(theta)
    ju = sol.u_minus(x, y) - sol.u_plus(x, y)
    gmx, gmy = sol.grad_minus(x, y)
    gpx, gpy = sol.grad_plus(x, y)
    gx, gy = iface.grad(x, y)
    nn = np.hypot(gx, gy)
    nx, ny = gx / nn, gy / nn
    bm, bp = config.beta_minus, config.beta_plus
    jf = bm * (gmx * nx + gmy * ny) - bp * (gpx * nx + gpy * ny)
    return float(np.abs(ju).max()), float(np.abs(jf).max())


# the standard nodal bases' scaled-monomial coefficients, written out: the
# rectangle (0,0),(1,0),(1,1),(0,1) and the triangles (0,0),(1,0),(1,1) below
# the diagonal and (0,0),(1,1),(0,1) above it, against which the templates
# that `local_basis` derives from the cell variants are checked
TEMPLATES = {"rect": np.array([[1.0, -1.0, -1.0, 1.0],
                               [0.0, 1.0, 0.0, -1.0],
                               [0.0, 0.0, 0.0, 1.0],
                               [0.0, 0.0, 1.0, -1.0]]),
             "tri_lower": np.array([[1.0, -1.0, 0.0],
                                    [0.0, 1.0, -1.0],
                                    [0.0, 0.0, 1.0]]),
             "tri_upper": np.array([[1.0, 0.0, -1.0],
                                    [0.0, 1.0, 0.0],
                                    [0.0, -1.0, 1.0]])}
# the template of each cell variant, by variant
VARIANT_TEMPLATES = {RECT: ("rect",), TRI: ("tri_lower", "tri_upper")}


def template_values(name, pts):
    """Values of the standard nodal basis `name` at scaled points, (d, n)."""
    return piece_values(TEMPLATES[name], np.atleast_2d(pts))


def template_gradients(name, pts):
    """Scaled gradients of the standard nodal basis `name`, (d, n, 2)."""
    return piece_gradients(TEMPLATES[name], np.atleast_2d(pts), 1.0)


def named_rules(mesh, degree):
    """`assembly.bulk_rules` with each variant's template name in place of
    its coefficients: {variant: (name, points, weights)}."""
    return {v: (VARIANT_TEMPLATES[mesh.cell_kind][v],) + rule[1:]
            for v, rule in bulk_rules(mesh, degree).items()}


def template_name(mesh, k):
    """Template of the standard nodal basis on element k."""
    return VARIANT_TEMPLATES[mesh.cell_kind][full_mesh(mesh).element_variant[k]]


def standard_basis(element_id, verts, kind, variant=None):
    """Standard nodal basis of one element in its own scaled frame; uses the
    fixed templates when the scaled element matches one, otherwise solves the
    small Vandermonde system."""
    verts = np.asarray(verts, float)
    origin = verts.min(axis=0)
    h = max(np.ptp(verts[:, 0]), np.ptp(verts[:, 1]))
    sv = (verts - origin) / h
    if variant is not None:
        C = TEMPLATES[variant]
    else:
        m = len(verts)
        V = _monomials(sv, m)
        C = np.linalg.inv(V).T
    return LocalBasis(element_id, kind, origin, h, C, C)


def ife_system(verts, D, E, chord_normal, beta_minus, beta_plus):
    """The jump-condition system (M, rhs) of one cut element in its scaled
    frame, written out row by row: P1 on a triangle, Q1 (shared xy
    coefficient, flux matched at the chord midpoint) on a rectangle; the flux
    row is divided by max(beta)."""
    verts = np.asarray(verts, float)
    nv = len(verts)
    origin = verts.min(axis=0)
    h = max(np.ptp(verts[:, 0]), np.ptp(verts[:, 1]))
    n = np.asarray(chord_normal, float)
    D = np.asarray(D, float)
    E = np.asarray(E, float)
    Ds = (D - origin) / h
    Es = (E - origin) / h
    sv = (verts - origin) / h
    side = ((verts - D) @ n) > CHORD_TIE_TOL * h
    bscale = max(beta_minus, beta_plus)

    size = 7 if nv == 4 else 6
    M = np.zeros((size, size))
    rhs = np.zeros((size, nv))
    for i in range(nv):
        off = 3 if side[i] else 0
        M[i, off:off + 3] = [1.0, sv[i, 0], sv[i, 1]]
        if nv == 4:
            M[i, 6] = sv[i, 0] * sv[i, 1]
        rhs[i, i] = 1.0
    M[nv, :6] = [1.0, Ds[0], Ds[1], -1.0, -Ds[0], -Ds[1]]
    M[nv + 1, :6] = [1.0, Es[0], Es[1], -1.0, -Es[0], -Es[1]]
    M[nv + 2, :6] = [0.0, beta_minus * n[0] / bscale, beta_minus * n[1] / bscale,
                     0.0, -beta_plus * n[0] / bscale, -beta_plus * n[1] / bscale]
    if nv == 4:
        mid = 0.5 * (Ds + Es)
        M[6, 6] = (beta_minus - beta_plus) * (n[0] * mid[1] + n[1] * mid[0]) / bscale
    return M, rhs


def ife_basis(element_id, verts, D, E, chord_normal, beta_minus, beta_plus):
    """Immersed basis of one cut element: its `ife_system` solved, with one
    long-double refinement, and refused when its condition number exceeds
    1e14 or its residual eps ||M||_F ||X||_F."""
    M, rhs = ife_system(verts, D, E, chord_normal, beta_minus, beta_plus)
    verts = np.asarray(verts, float)
    nv = len(verts)
    origin = verts.min(axis=0)
    h = max(np.ptp(verts[:, 0]), np.ptp(verts[:, 1]))
    cond = np.linalg.cond(M)
    if not np.isfinite(cond) or cond > 1e14:
        raise SingularLocalSystem(f"element {element_id}: condition estimate {cond:.3e}")
    X = np.linalg.solve(M, rhs)
    rl = rhs.astype(np.longdouble) - M.astype(np.longdouble) @ X.astype(np.longdouble)
    X = X + np.linalg.solve(M, rl.astype(float))
    resid = np.abs(M.astype(np.longdouble) @ X.astype(np.longdouble) - rhs).max()
    if not np.isfinite(resid) or resid > np.finfo(float).eps * np.linalg.norm(M) * np.linalg.norm(X):
        raise SingularLocalSystem(f"element {element_id}: local residual {float(resid):.3e}")
    if nv == 4:
        cm = np.column_stack([X[0], X[1], X[2], X[6]])
        cp = np.column_stack([X[3], X[4], X[5], X[6]])
    else:
        cm, cp = X[:3].T.copy(), X[3:].T.copy()
    return LocalBasis(element_id, "ife_q1" if nv == 4 else "ife_p1", origin, h, cm, cp,
                      D=np.asarray(D, float), E=np.asarray(E, float),
                      chord_normal=np.asarray(chord_normal, float))


def cut_params(rng):
    """Random (d, e) in [0.01, 0.99], weighted toward the endpoints where the
    thin-sliver cuts live."""
    u = rng.uniform(0.0, 1.0, size=2)
    g = np.where(u < 0.5, 0.5 * (2 * u) ** 3, 1.0 - 0.5 * (2 * (1 - u)) ** 3)
    return 0.01 + 0.98 * g


def draw_cuts_loop(kind, samples, seed):
    """Seeded random reference cuts in the form `verify._reference_cuts`
    takes, one sample at a time: (d, e) and, on rectangles, then one
    `rng.integers(2)` for whether the chord joins opposite edges. Sample s
    is the cut that `reference_cut` draws s-th from the same seed."""
    rng = np.random.default_rng(seed)
    params = np.empty((samples, 2))
    opposite = np.zeros(samples, dtype=bool)
    for s in range(samples):
        params[s] = cut_params(rng)
        if kind == RECT:
            opposite[s] = rng.integers(2) != 0
    return params, opposite


def reference_cut(kind, rng, h=1.0):
    """One random cut of the reference element, drawn as `draw_cuts_loop`
    draws them;
    returns (verts, D, E, normal, poly_minus, poly_plus) with the minus side
    containing the origin vertex."""
    d, e = cut_params(rng)
    if kind == TRI:
        verts = np.array([[0.0, 0.0], [h, 0.0], [0.0, h]])
        D = np.array([0.0, d * h])
        E = np.array([e * h, 0.0])
    else:
        verts = np.array([[0.0, 0.0], [h, 0.0], [h, h], [0.0, h]])
        if rng.integers(2) == 0:                      # two adjacent edges
            D = np.array([0.0, d * h])
            E = np.array([e * h, 0.0])
        else:                                         # two opposite edges
            D = np.array([d * h, h])
            E = np.array([e * h, 0.0])
    chord = E - D
    n = np.array([chord[1], -chord[0]])
    n /= np.linalg.norm(n)
    if float((verts[0] - D) @ n) > 0:
        n = -n
    pa, pb = split_convex_by_chord(verts, D, E, 1e-12 * h)
    if any(np.allclose(p, verts[0]) for p in pa):
        poly_minus, poly_plus = pa, pb
    else:
        poly_minus, poly_plus = pb, pa
    return verts, D, E, n, poly_minus, poly_plus


def coef_ratio_max(kind, beta_pair, samples, rng):
    """Largest ratio between the two pieces' physical coefficient norms over
    `samples` reference cuts drawn from rng and their nodal functions."""
    worst = 0.0
    for _ in range(samples):
        cut = reference_cut(kind, rng)
        cm, cp = ife_basis(0, *cut[:4], *beta_pair).phys_coefficients()
        for j in range(len(cm)):
            nm = np.linalg.norm(cm[j])
            npn = np.linalg.norm(cp[j])
            if min(nm, npn) == 0.0:
                continue
            worst = max(worst, nm / npn, npn / nm)
    return worst


def quadrant_ratio_sampled(samples, seed, hs=(1.0, 0.5)):
    """The smallest of int_{[h/2, h]^2} |grad v|^2 / (C h^2 (c2^2 + c3^2 +
    c4^2 h^2)) over `samples` random bilinear coefficient vectors and sizes h
    from `hs`, by direct quadrature: a sampled upper bound of the minimum
    that `verify.quadrant_gradient_check` computes exactly."""
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((samples, 4))
    h = np.asarray(hs, float)[rng.integers(len(hs), size=samples)]
    rule = rect_rule(4)
    half = h[:, None] / 2
    x = half + rule.points[:, 0] * half
    y = half + rule.points[:, 1] * half
    gx = c[:, 1:2] + c[:, 3:4] * y
    gy = c[:, 2:3] + c[:, 3:4] * x
    lhs = (rule.weights * half * half * (gx * gx + gy * gy)).sum(axis=1)
    rhs = quadrant_bound_constant() * h * h * (c[:, 1] ** 2 + c[:, 2] ** 2 + c[:, 3] ** 2 * h * h)
    return float((lhs / rhs)[rhs > 0].min(initial=np.inf))


def trace_ratio(kind, cutdata, beta_pair, h):
    """max_B max_v ||beta grad(v).n_B|| / (h^{1/2} |K|^{-1/2} ||sqrt(beta) grad v||)
    on one reference cut, or None when its gradient Gram matrix is degenerate:
    polygon rules per piece, a split rule per element edge and one generalized
    symmetric eigenproblem per edge."""
    import scipy.linalg

    verts, D, E, n, poly_minus, poly_plus = cutdata
    bm, bp = beta_pair
    basis = ife_basis(0, verts, D, E, n, bm, bp)
    d = basis.n_funcs
    Dmat = np.zeros((d, d))
    for side, poly, b in ((SIDE_MINUS, poly_minus, bm), (1, poly_plus, bp)):
        rule = split_polygon_rule(poly, 4)
        G = basis.gradients_piece(rule.points, side)
        Dmat += b * np.einsum("q,iqa,jqa->ij", rule.weights, G, G)
    if np.trace(Dmat) < 1e-28:
        return None
    W = scipy.linalg.null_space(np.full((1, d), 1.0 / np.sqrt(d)))
    Dr = W.T @ Dmat @ W
    areaK = h * h if kind == RECT else h * h / 2

    worst = 0.0
    for i in range(len(verts)):
        a, b = verts[i], verts[(i + 1) % len(verts)]
        t = b - a
        nB = np.array([t[1], -t[0]]) / np.linalg.norm(t)
        # the chord ends that lie strictly inside this edge
        inside = [X for X in (D, E)
                  if abs(t[0] * (X - a)[1] - t[1] * (X - a)[0]) < 1e-12 * h * h
                  and 0.0 < (X - a) @ t < t @ t]
        rule = split_edge_rule(a, b, inside, 4)
        G = basis.gradients(rule.points)
        bpt = np.where(basis.side_plus_mask(rule.points), bp, bm)
        fl = bpt[None, :] * np.einsum("dqa,a->dq", G, nB)
        Nmat = np.einsum("q,iq,jq->ij", rule.weights, fl, fl)
        lam = scipy.linalg.eigh(W.T @ Nmat @ W, Dr, eigvals_only=True)[-1]
        worst = max(worst, np.sqrt(max(lam, 0.0) * areaK / h))
    return worst


def check_csr(A):
    """Validate CSR storage: monotone indptr, strictly increasing columns."""
    A = A.tocsr()
    indptr, indices = A.indptr, A.indices
    if indptr[0] != 0 or indptr[-1] != len(indices):
        raise ValueError("broken indptr")
    if np.any(np.diff(indptr) < 0):
        raise ValueError("indptr not monotone")
    for r in range(A.shape[0]):
        cols = indices[indptr[r]:indptr[r + 1]]
        if len(cols) > 1 and np.any(np.diff(cols) <= 0):
            raise ValueError(f"row {r}: columns not strictly increasing")
    return True


def dense_solve(A, b):
    """Dense LU oracle for small systems (n <= 2000)."""
    if sp.issparse(A):
        n = A.shape[0]
        if n > 2000:
            raise ValueError("dense fallback limited to n <= 2000")
        A = A.toarray()
    return np.linalg.solve(A, b)


def matvec_triplets(rows, cols, data, x, n):
    """Naive triplet-based product, used as an oracle for the CSR product."""
    y = np.zeros(n)
    np.add.at(y, rows, data * x[cols])
    return y


def linear_coupling_matrix(d, e, h, beta_minus, beta_plus):
    """Closed-form map c+ = F c- for a linear immersed function on the
    reference triangle with D = (0, d h), E = (e h, 0) (physical monomials).

    Derived by eliminating the two point-continuity conditions and the flux
    condition; an independent oracle for the local solver.
    """
    rho = beta_minus / beta_plus
    q = d * d + e * e
    g_minus = np.array([[0.0, -d * d * e * h, -d * e * e * h],
                        [0.0, d * d, d * e],
                        [0.0, d * e, e * e]])
    g_plus = np.array([[q, d * d * e * h, d * e * e * h],
                       [0.0, e * e, -d * e],
                       [0.0, -d * e, d * d]])
    return (g_minus * rho + g_plus) / q


def reference_error_norms(mesh, status, cuts, bases, coeffs, sol, iface, edge_labels, sigma0,
                          alpha, beta, degree=DATA_DEGREE, refine=DATA_REFINE):
    """One full sweep per norm, summed in the order the fused sweep must keep:
    standard elements block by block (`point_blocks`), minus side first, then
    the cut-element total, then (energy only) the penalty jumps edge by edge.
    On a cut element u_h is evaluated as one piece, the coefficients times
    the side's basis. Standard neighbours on the edges are evaluated through
    `standard_basis`. `beta` is the pair (beta-, beta+) the bases were built for,
    and each edge's jump weighs sigma0 / |B|^alpha."""
    bulk = np.concatenate([np.flatnonzero(status == s) for s in (SIDE_MINUS, SIDE_PLUS)])
    cut_ids = np.flatnonzero(status == INTERFACE)
    h = mesh.h
    full = full_mesh(mesh)

    def bulk_ids(variant):
        return bulk if mesh.cell_kind == RECT else bulk[full.element_variant[bulk] == variant]

    def bulk_sum(kind):
        total = 0.0
        for variant, (name, spts, swts) in named_rules(mesh, degree).items():
            ids = bulk_ids(variant)
            if len(ids) == 0:
                continue
            w = swts * h * h
            V = template_values(name, spts)
            G = template_gradients(name, spts) / h
            for block, x, y in point_blocks(mesh, ids, spts):
                minus = np.asarray(iface.phi(x, y)) < 0
                ce = coeffs[full.elements[block]]
                if kind == "l2":
                    diff = sol.u(x, y, minus) - ce @ V
                    total += float(np.einsum("eq,q->", diff * diff, w))
                    continue
                gx, gy = sol.grad(x, y, minus)
                d2 = (gx - ce @ G[:, :, 0]) ** 2 + (gy - ce @ G[:, :, 1]) ** 2
                if kind == "energy":
                    d2 = np.where(minus, beta[0], beta[1]) * d2
                total += float(np.einsum("eq,q->", d2, w))
        return total

    def cut_sum(kind):
        total = 0.0
        for k in cut_ids:
            basis, ce = bases[k], coeffs[full.elements[k]]
            for side, pts, wts in cut_data_rules(cuts[k], degree, refine):
                x, y = pts[:, 0], pts[:, 1]
                a = ce[None] @ (basis.coefs_plus if side > 0 else basis.coefs_minus)
                if kind == "l2":
                    minus = np.asarray(iface.phi(x, y)) < 0
                    diff = sol.u(x, y, minus) - basis._values_from(a, pts)[0]
                    total += float(np.dot(wts, diff * diff))
                    continue
                gh = basis._gradients_from(a, pts)[0]
                gx, gy = sol.grad(x, y, np.full(len(pts), side == SIDE_MINUS))
                d2 = (gx - gh[:, 0]) ** 2 + (gy - gh[:, 1]) ** 2
                if kind == "energy":
                    d2 = (beta[0] if side == SIDE_MINUS else beta[1]) * d2
                total += float(np.dot(wts, d2))
        return total

    def element_basis(k):
        if k in bases:
            return bases[k]
        kind = "q1" if mesh.cell_kind == RECT else "p1"
        return standard_basis(k, full.nodes[full.elements[k]], kind, template_name(mesh, k))

    def jump_square(e):
        t1, t2 = full.edge_elements[e]
        a, b = full.nodes[full.edge_nodes[e]]
        rule = split_edge_rule(a, b, edge_split_points(mesh, e, cuts), EDGE_DEGREE)
        u1 = coeffs[full.elements[t1]] @ element_basis(int(t1)).values(rule.points)
        u2 = coeffs[full.elements[t2]] @ element_basis(int(t2)).values(rule.points)
        return float(np.dot(rule.weights, (u1 - u2) ** 2))

    s = {kind: bulk_sum(kind) for kind in ("l2", "h1", "energy")}
    for kind in s:
        s[kind] += cut_sum(kind)
    for e in np.flatnonzero(edge_labels == EDGE_INTERFACE):
        if sigma0 == 0.0:
            continue
        s["energy"] += sigma0 / full.edge_lengths[e] ** alpha * jump_square(int(e))

    # sampled max error: a 5 x 5 grid per element plus the cut elements' vertices
    t = np.linspace(0.0, 1.0, 5)
    TX, TY = np.meshgrid(t, t, indexing="ij")
    if mesh.cell_kind == RECT:
        sample = {0: ("rect", np.column_stack([TX.ravel(), TY.ravel()]))}
    else:
        sample = {0: ("tri_lower", np.column_stack([TX.ravel(), (TX * TY).ravel()])),
                  1: ("tri_upper", np.column_stack([(TX * TY).ravel(), TX.ravel()]))}
    worst = 0.0
    for variant, (name, spts) in sample.items():
        ids = bulk_ids(variant)
        pts = full.element_origins[ids][:, None, :] + h * spts[None, :, :]
        x, y = pts[..., 0], pts[..., 1]
        uh = coeffs[full.elements[ids]] @ template_values(name, spts)
        worst = max(worst, float(np.abs(sol.u(x, y, np.asarray(iface.phi(x, y)) < 0)
                                        - uh).max()))
    for k in cut_ids:
        verts = full.nodes[full.elements[k]]
        lo = verts.min(axis=0)
        span = verts.max(axis=0) - lo
        pts = np.column_stack([(lo[0] + span[0] * TX).ravel(), (lo[1] + span[1] * TY).ravel()])
        if mesh.cell_kind != RECT:
            xi = (pts - lo) / h
            keep = (xi[:, 1] <= xi[:, 0] + 1e-12 if full.element_variant[k] == 0
                    else xi[:, 0] <= xi[:, 1] + 1e-12)
            pts = pts[keep]
        pts = np.vstack([pts, verts])
        x, y = pts[:, 0], pts[:, 1]
        ce, b = coeffs[full.elements[k]][None], bases[k]
        uh = np.where(b.side_plus_mask(pts), b._values_from(ce @ b.coefs_plus, pts)[0],
                      b._values_from(ce @ b.coefs_minus, pts)[0])
        worst = max(worst, float(np.abs(sol.u(x, y, np.asarray(iface.phi(x, y)) < 0)
                                        - uh).max()))
    return {"l2": float(np.sqrt(s["l2"])), "h1": float(np.sqrt(s["h1"])), "linf": worst,
            "energy": float(np.sqrt(s["energy"]))}


# ---------------------------------------------------------------------------
# per-component sweeps: the gather-and-reduce and both-branch forms
# ---------------------------------------------------------------------------

def mesh_frames(mesh):
    """Centroids, cell origins and extents per element, reduced over the
    (n_elem, d, 2) gather of the element vertices."""
    full = full_mesh(mesh)
    v = full.nodes[full.elements]
    return v.mean(axis=1), v.min(axis=1), np.ptp(v, axis=1).max(axis=1)


def edge_signs(p0, p1, iface, tol):
    """phi at the 17 samples of each segment from one (n, 17, 2) broadcast,
    and its sign with |phi| < tol snapped to 0."""
    ts = np.linspace(0.0, 1.0, _N_EDGE_SAMPLES)
    pts = p0[:, None, :] + ts[None, :, None] * (p1 - p0)[:, None, :]
    vals = np.asarray(iface.phi(pts[..., 0], pts[..., 1]), float)
    return vals, np.where(np.abs(vals) < tol, 0, np.sign(vals)).astype(np.int8)


def sign_flips(signs):
    """Sign changes along each row of `signs`, zeros skipped."""
    cols = np.arange(signs.shape[1])
    last = np.maximum.accumulate(np.where(signs != 0, cols, 0), axis=1)
    prev = np.take_along_axis(signs, last[:, :-1], axis=1)  # latest nonzero before
    return np.count_nonzero(prev * signs[:, 1:] < 0, axis=1)


def outer_signs(signs):
    """First and last nonzero entry of each row of `signs`, 0 for a row of
    zeros."""
    nz = signs != 0
    first = np.argmax(nz, axis=1)
    last = signs.shape[1] - 1 - np.argmax(nz[:, ::-1], axis=1)
    rows = np.arange(len(signs))
    return signs[rows, first], signs[rows, last]


def all_edge_classify(mesh, iface):
    """`geometry.classify_elements` with the sign audit on every mesh edge,
    in ascending blocks of `_AUDIT_ROWS` edges, whatever the `reach` of
    `iface`, and phi at the nodes, the centroids (`mesh_frames`) and the
    snapped elements from gathers over every node and element."""
    h = mesh.h
    tol = SNAP_TOL * h
    full = full_mesh(mesh)
    node_sign = _snapped_sign(np.asarray(iface.phi(full.nodes[:, 0], full.nodes[:, 1]), float),
                              tol)
    solve = []
    for lo in range(0, mesh.n_edges, _AUDIT_ROWS):
        ends = mesh.edge_nodes(np.arange(lo, min(lo + _AUDIT_ROWS, mesh.n_edges)))
        _, s = _edge_signs(full.nodes[ends[:, 0]], full.nodes[ends[:, 1]], iface, tol)
        rows = np.flatnonzero((s.min(axis=1) <= 0) & (s.max(axis=1) >= 0))
        flips = sign_flips(s[rows])
        if (flips > 1).any():
            i = int(np.argmax(flips > 1))
            raise MultipleCrossings(
                f"edge {lo + rows[i]} is crossed {flips[i]} times; refine the mesh")
        first, last = outer_signs(s[rows])
        solve.append(lo + rows[first * last < 0])
    solve = np.concatenate(solve)
    ends = mesh.edge_nodes(solve)
    hit, points = edge_crossings(full.nodes[ends[:, 0]], full.nodes[ends[:, 1]], iface, h)
    crossed = solve[hit]
    centroids = mesh_frames(mesh)[0]
    status = np.where(np.asarray(iface.phi(centroids[:, 0], centroids[:, 1]), float) > 0,
                      SIDE_PLUS, SIDE_MINUS).astype(np.int8)
    touched = (node_sign[full.elements] == 0).any(axis=1)
    adj = mesh.edge_elements(crossed).ravel()
    touched[adj[adj >= 0]] = True
    cuts = _cut_set(mesh, iface, np.flatnonzero(touched), crossed, points[hit], node_sign, tol)
    status[cuts.ids] = INTERFACE
    return status, cuts


def select_branches(sol, x, y, minus):
    """u, grad and f of a PiecewiseSolution with both branches evaluated at
    every point and selected by `minus` afterwards."""
    gmx, gmy = sol.grad_minus(x, y)
    gpx, gpy = sol.grad_plus(x, y)
    return (np.where(minus, sol.u_minus(x, y), sol.u_plus(x, y)),
            (np.where(minus, gmx, gpx), np.where(minus, gmy, gpy)),
            np.where(minus, sol.f_minus(x, y), sol.f_plus(x, y)))


def sparse_is_spd(S):
    """Positive definiteness of the symmetric sparse matrix S by a banded
    Cholesky of its lower band, over the bandwidth of its stored entries."""
    import scipy.linalg
    L = S.tocoo()
    low = L.row >= L.col
    ab = np.zeros((int((L.row - L.col).max(initial=0)) + 1, S.shape[0]))
    ab[(L.row - L.col)[low], L.col[low]] = L.data[low]
    try:
        scipy.linalg.cholesky_banded(ab, lower=True, check_finite=False)
    except np.linalg.LinAlgError:
        return False
    return True


def free_matrices(N, beta_pair, cell_kind=RECT, r0=DEFAULT_R0, alpha=1.0):
    """A_vol, M and P_unit of the coercivity scan's circle problem, restricted
    to the interior nodes, each built from its own mesh and geometry."""
    bm, bp = beta_pair
    mesh = build_mesh(DomainSpec(-1, 1, -1, 1, N, cell_kind))
    iface = circle(0.0, 0.0, r0)
    status, cuts = classify_elements(mesh, iface)
    cuts = build_bases(cuts, bm, bp)
    A_vol = full_volume(mesh, status, cuts)
    M, P, _ = assemble_edge_terms(mesh, interface_edges(mesh, cuts), status, cuts, alpha)
    free = full_mesh(mesh).interior_nodes
    return A_vol[free][:, free], M[free][:, free], P[free][:, free]


def combine_system(A_vol, M, P_unit, params: MethodParams):
    """Scheme matrix A_vol + delta*M + epsilon*M^T + sigma0*P_unit as a sum
    of sparse matrices, on the nodes the terms are given on: the library's
    sum before the shared free-node pattern, with no stored zeros."""
    A = (A_vol + params.delta * M + params.epsilon * M.T + params.sigma0 * P_unit).tocsr()
    A.sum_duplicates()
    A.eliminate_zeros()
    A.sort_indices()
    return A


def is_symmetric_by_difference(A, rtol=1e-12):
    """The symmetry check through scipy's sparse difference A - A^T: whether
    max |A - A^T| <= rtol * max |A| over every stored entry."""
    scale = np.abs(A.data).max() if A.nnz else 1.0
    return np.abs((A - A.T).data).max(initial=0.0) <= rtol * scale


def sparse_sym_part_spd(A_vol, M, P, params):
    """Definiteness of 0.5 (A + A^T) for the assembled scheme matrix A."""
    A = combine_system(A_vol, M, P, params)
    return sparse_is_spd(0.5 * (A + A.T))


def paper_params(scheme, beta_pair, sigma0=None):
    """The weights (delta, epsilon, sigma0) of a scheme by the paper's table
    for the coefficient pair `beta_pair`: SPP (-1, -1, 10 max beta), IPP
    (-1, 0, 10 max beta), NPP (-1, 1, 1); a `sigma0` replaces their penalty."""
    delta, epsilon, s = {"spp": (-1.0, -1.0, 10.0 * max(beta_pair)),
                         "ipp": (-1.0, 0.0, 10.0 * max(beta_pair)), "npp": (-1.0, 1.0, 1.0)}[scheme]
    return MethodParams(delta, epsilon, s if sigma0 is None else sigma0)


def sparse_scan_coercivity(Ns, beta_pairs, cell_kind=RECT, sigma0_override=None):
    """The metrics and the pass flag of `verify.scan_coercivity` through the
    sparse path: one geometry per (N, beta pair) and a full scheme matrix per
    test."""
    metrics = {}
    cache = {}
    ok = True
    for N in Ns:
        for pair in beta_pairs:
            cache[(N, pair)] = free_matrices(N, pair, cell_kind)
            for scheme in ("spp", "ipp"):
                params = paper_params(scheme, pair, sigma0_override)
                spd = sparse_sym_part_spd(*cache[(N, pair)], params)
                metrics[f"{scheme}_N{N}_b{pair[0]:g}_{pair[1]:g}"] = float(spd)
                ok = ok and spd
    N_npp = Ns[min(1, len(Ns) - 1)]
    for pair in beta_pairs:
        npp = paper_params("npp", pair, sigma0_override)
        spd = sparse_sym_part_spd(*cache[(N_npp, pair)], npp)
        metrics[f"npp_N{N_npp}_b{pair[0]:g}_{pair[1]:g}"] = float(spd)
        ok = ok and spd
    mats = cache[(N_npp, beta_pairs[0])]
    sig = paper_params("spp", beta_pairs[0]).sigma0
    lo, s = 0.0, sig
    for _ in range(40):
        s_try = s / 2.0
        if s_try < 1e-8 * sig:
            break
        if sparse_sym_part_spd(*mats, MethodParams(-1.0, -1.0, s_try)):
            s = s_try
        else:
            lo = s_try
            break
    metrics["spp_sigma_preset"] = sig
    metrics["spp_sigma_pd_down_to"] = s
    metrics["spp_sigma_fails_at"] = lo
    return metrics, ok


def dense_is_spd(S):
    """Positive definiteness of a sparse symmetric matrix by a dense
    Cholesky factorization."""
    try:
        np.linalg.cholesky(S.toarray())
    except np.linalg.LinAlgError:
        return False
    return True


# ---------------------------------------------------------------------------
# the per-scheme Dirichlet elimination on the full nodes
# ---------------------------------------------------------------------------

def full_node_system(ctx, params):
    """A scheme's free-node matrix and right-hand side on the context `ctx`
    through the full nodes: `combine_system` of the full-node A_vol, M and
    P_unit, sliced to the free rows and then to the free columns, and the
    full load on the free rows less A_fb g, the free rows' boundary columns
    times the boundary values."""
    mesh = ctx.mesh
    A_vol = full_volume(mesh, ctx.status, ctx.cuts)
    M, P, _ = assemble_edge_terms(mesh, ctx.traces.edges, ctx.status, ctx.cuts, ctx.traces.alpha)
    b = assemble_load(mesh, ctx.status, ctx.cuts, ctx.sol, ctx.iface, ctx.rules)
    full = full_mesh(mesh)
    free, bd = full.interior_nodes, full.boundary_nodes
    g = ctx.sol.u_at(full.nodes[bd, 0], full.nodes[bd, 1], ctx.iface)
    A_f = combine_system(A_vol, M, P, params)[free]
    return A_f[:, free].tocsr(), b[free] - A_f[:, bd] @ g


# ---------------------------------------------------------------------------
# the unstructured mesh adjacency and the element-block volume assembly
# ---------------------------------------------------------------------------

class ReferenceMesh:
    """The mesh with full edge and element adjacency, numbered by a
    `np.unique` over every element edge: nodes, elements, element_variant,
    edge_nodes (n_edge, 2) lexicographic, edge_elements (n_edge, 2) [lower,
    higher or -1], element_edges (n_elem, d), edge_normals from the lower
    element toward the higher one (outward on the boundary), edge_lengths,
    centroids, element_origins, element_h, boundary_nodes, interior_nodes."""

    def __init__(self, spec: DomainSpec):
        self.spec = spec
        self.cell_kind = spec.cell_kind
        n = spec.n
        xs = np.linspace(spec.xmin, spec.xmax, n + 1)
        ys = np.linspace(spec.ymin, spec.ymax, n + 1)
        X, Y = np.meshgrid(xs, ys, indexing="xy")
        self.nodes = np.column_stack([X.ravel(), Y.ravel()])

        def vid(i, j):
            return j * (n + 1) + i

        I, J = np.meshgrid(np.arange(n), np.arange(n), indexing="xy")
        i = I.ravel()
        j = J.ravel()
        v00, v10 = vid(i, j), vid(i + 1, j)
        v11, v01 = vid(i + 1, j + 1), vid(i, j + 1)
        if spec.cell_kind == RECT:
            self.elements = np.column_stack([v00, v10, v11, v01])
            self.element_variant = np.zeros(n * n, dtype=np.int8)
        else:
            self.elements = np.empty((2 * n * n, 3), dtype=int)
            self.elements[0::2] = np.column_stack([v00, v10, v11])
            self.elements[1::2] = np.column_stack([v00, v11, v01])
            self.element_variant = np.tile(np.array([0, 1], dtype=np.int8), n * n)
        self.n_nodes = len(self.nodes)
        self.n_elements = len(self.elements)
        d = self.elements.shape[1]
        a, b = self.elements, np.roll(self.elements, -1, axis=1)   # local edge i: V_i -> V_i+1
        keys, inverse = np.unique((np.minimum(a, b) * self.n_nodes + np.maximum(a, b)).ravel(),
                                  return_inverse=True)
        self.edge_nodes = np.column_stack(np.divmod(keys, self.n_nodes))
        self.element_edges = inverse.reshape(self.n_elements, d)
        self.n_edges = len(self.edge_nodes)

        elem_rep = np.repeat(np.arange(self.n_elements), d)
        flat = self.element_edges.ravel()
        lo = np.full(self.n_edges, self.n_elements, dtype=int)
        hi = np.full(self.n_edges, -1, dtype=int)
        np.minimum.at(lo, flat, elem_rep)
        np.maximum.at(hi, flat, elem_rep)
        count = np.bincount(flat, minlength=self.n_edges)
        assert count.max() <= 2 and count.min() >= 1, "broken edge adjacency"
        self.edge_elements = np.column_stack([lo, np.where(count == 2, hi, -1)])

        vx, vy = X.ravel()[self.elements.T], Y.ravel()[self.elements.T]
        self.centroids = np.column_stack([vx.mean(axis=0), vy.mean(axis=0)])
        self.element_origins = np.column_stack([vx[0], vy[0]])
        self.element_h = np.maximum(vx.max(axis=0) - vx[0], vy.max(axis=0) - vy[0])

        ea = self.nodes[self.edge_nodes[:, 0]]
        eb = self.nodes[self.edge_nodes[:, 1]]
        t = eb - ea
        self.edge_lengths = np.linalg.norm(t, axis=1)
        nrm = np.column_stack([t[:, 1], -t[:, 0]]) / self.edge_lengths[:, None]
        mid = 0.5 * (ea + eb)
        interior = self.edge_elements[:, 1] >= 0
        c0, c1 = self.centroids[self.edge_elements[:, 0]], self.centroids[self.edge_elements[:, 1]]
        ref = np.where(interior[:, None], c1 - c0, mid - c0)
        flip = np.einsum("ij,ij->i", nrm, ref) < 0
        nrm[flip] *= -1
        self.edge_normals = nrm

        bmask = np.zeros(self.n_nodes, dtype=bool)
        bmask[self.edge_nodes[~interior].ravel()] = True
        self.boundary_nodes = np.flatnonzero(bmask)
        self.interior_nodes = np.flatnonzero(~bmask)


@functools.lru_cache(maxsize=8)
def _reference_mesh(spec):
    return ReferenceMesh(spec)


def full_mesh(mesh):
    """The ReferenceMesh of `mesh`'s DomainSpec, cached."""
    return _reference_mesh(mesh.spec)


def dump_reference_mesh(mesh: ReferenceMesh, path):
    """`geometry.dump_mesh` written from the full arrays."""
    with open(path, "w") as f:
        for i, (x, y) in enumerate(mesh.nodes):
            f.write(f"node {i} {x:.17g} {y:.17g}\n")
        for i, conn in enumerate(mesh.elements):
            f.write("elem " + str(i) + " " + " ".join(str(v) for v in conn) + "\n")
        for i, ((a, b), (l, r)) in enumerate(zip(mesh.edge_nodes, mesh.edge_elements)):
            f.write(f"edge {i} {a} {b} {l} {r}\n")


def p1_stiffness_batch(verts, coef):
    """Local P1 stiffness matrices for a batch of triangles, (ne, 3, 3)."""
    x = verts[:, :, 0]
    y = verts[:, :, 1]
    b = y[:, [1, 2, 0]] - y[:, [2, 0, 1]]
    c = x[:, [2, 0, 1]] - x[:, [1, 2, 0]]
    area2 = x[:, 0] * b[:, 0] + x[:, 1] * b[:, 1] + x[:, 2] * b[:, 2]  # 2*area (CCW > 0)
    scale = coef / (2.0 * area2)
    return (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]) * scale[:, None, None]


def coo_volume(mesh, status, cuts, beta_minus, beta_plus):
    """The stiffness matrix as one COO of every element's block, the
    standard elements in ascending order and then the cut ones, summed by
    scipy's conversion to CSR."""
    n = mesh.n_nodes
    d = mesh.n_local
    bulk = np.flatnonzero(status != 0)
    coef = np.where(status == SIDE_MINUS, beta_minus, beta_plus)[bulk]
    if mesh.cell_kind == RECT:
        rule = rect_rule(2)
        G = template_gradients("rect", rule.points)
        blocks = coef[:, None, None] * np.einsum("q,iqa,jqa->ij", rule.weights, G, G)[None]
    else:
        blocks = p1_stiffness_batch(mesh.node_coords(mesh.element_nodes(bulk)), coef)
    conn = mesh.element_nodes(np.concatenate([bulk, cuts.ids]))
    data = np.concatenate([blocks, cut_volume_matrices(cuts)])
    A = sp.coo_matrix((data.ravel(), (np.repeat(conn, d, axis=1).ravel(),
                                      np.tile(conn, (1, d)).ravel())), shape=(n, n)).tocsr()
    A.sum_duplicates()
    A.eliminate_zeros()
    A.sort_indices()
    return A


# ---------------------------------------------------------------------------
# mixed-side bulk sweeps and per-basis cut quadrature: the load and the error
# norms before the side-pure sweep and piece contraction, with both exact
# branches evaluated at every point (`select_branches`)
# ---------------------------------------------------------------------------

def point_blocks(mesh, ids, spts):
    """The physical points of the scaled points `spts` on the elements `ids`,
    in consecutive blocks of at most `geometry._SWEEP_POINTS` points, as
    `geometry.bulk_sweep` walks them. Yields (block ids, x, y), x and y
    contiguous (block rows, n_points)."""
    rows = max(1, _SWEEP_POINTS // len(spts))
    hx, hy = mesh.h * spts[:, 0], mesh.h * spts[:, 1]
    for lo in range(0, len(ids), rows):
        origin = full_mesh(mesh).element_origins[ids[lo:lo + rows]]
        yield ids[lo:lo + rows], origin[:, :1] + hx, origin[:, 1:] + hy


def ascending_blocks(mesh, status, tables):
    """`geometry.bulk_sweep` with each variant's non-interface elements in
    ascending order, the two sides mixed. Yields (table, ids, x, y)."""
    bulk = np.flatnonzero(status != INTERFACE)
    variants = full_mesh(mesh).element_variant[bulk]
    for variant, table in tables.items():
        ids = bulk if mesh.cell_kind == RECT else bulk[variants == variant]
        for block, x, y in point_blocks(mesh, ids, table[1]):
            yield table, block, x, y


def ascending_bulk_load(mesh, status, sol, iface, degree=DATA_DEGREE):
    """The standard elements' part of `assembly.assemble_load` over
    ascending blocks, summed in element order."""
    b = np.zeros(mesh.n_nodes)
    h = mesh.h
    for (name, spts, swts), ids, x, y in ascending_blocks(mesh, status, named_rules(mesh, degree)):
        fw = select_branches(sol, x, y, np.asarray(iface.phi(x, y)) < 0)[2] * (swts * h * h)
        np.add.at(b, full_mesh(mesh).elements[ids], fw @ template_values(name, spts).T)
    return b


def padded_data_rules(cuts, iface, degree=DATA_DEGREE, refine=DATA_REFINE):
    """`assembly.cut_data_rules` as one rule per chord side over all cut
    elements, every sub-polygon padded to nv + 1 vertices: per side the
    points (K, n, 2), the weights (K, n), zero on the padding triangles, and
    whether phi < 0 at each point."""
    rules = []
    for poly in (cuts.poly_minus, cuts.poly_plus):
        pts, wts = fan_rule(poly, degree, refine)
        rules.append((pts, wts, np.asarray(iface.phi(pts[..., 0], pts[..., 1])) < 0))
    return rules


def per_basis_cut_load(cuts, sol, rules):
    """The cut elements' load (K, d) on the `padded_data_rules`: every basis
    function's values at every rule point, each from the piece its chord
    side selects."""
    rows = np.arange(len(cuts))
    acc = np.zeros(cuts.cm.shape[:2])
    for pts, wts, minus in rules:
        f = select_branches(sol, pts[..., 0], pts[..., 1], minus)[2]
        xi, plus = cut_frame(cuts, rows, pts)
        acc += (cut_values(cuts, rows, xi, plus) @ (f * wts)[..., None])[..., 0]
    return acc


def ascending_error_norms(mesh, status, cuts, coeffs, sol, iface, traces, sigma0, rules,
                          degree=DATA_DEGREE):
    """`postprocess.error_norms` on ascending blocks, with u_h on the cut
    elements from every basis function's values and gradients on the
    `padded_data_rules`."""
    beta = cuts.beta
    h = mesh.h
    sums = np.zeros(3)
    for (name, spts, swts), ids, x, y in ascending_blocks(mesh, status, named_rules(mesh, degree)):
        w = swts * h * h
        G = template_gradients(name, spts) / h
        ce = coeffs[full_mesh(mesh).elements[ids]]
        minus = np.asarray(iface.phi(x, y)) < 0
        u, (gx, gy), _ = select_branches(sol, x, y, minus)
        diff = u - ce @ template_values(name, spts)
        d2 = (gx - ce @ G[:, :, 0]) ** 2 + (gy - ce @ G[:, :, 1]) ** 2
        sums += (np.einsum("eq,q->", diff * diff, w), np.einsum("eq,q->", d2, w),
                 np.einsum("eq,q->", np.where(minus, beta[0], beta[1]) * d2, w))
    if len(cuts):
        parts = per_basis_cut_sums(mesh, cuts, coeffs, sol, rules)
        sums = sums + np.cumsum(parts.reshape(-1, 3), axis=0)[-1]
    l2, h1, energy = sums
    if sigma0 != 0.0:
        u = coeffs[full_mesh(mesh).elements[traces.elements]][:, :, None] @ traces.values
        jumps = np.vecdot(traces.weights, (u[:, 0, 0] - u[:, 1, 0]) ** 2)
        scale = sigma0 / mesh.edge_lengths(traces.edges) ** traces.alpha
        energy = np.cumsum(np.concatenate([[energy], scale * jumps]))[-1]
    return {"l2": float(np.sqrt(l2)), "h1": float(np.sqrt(h1)),
            "linf": ascending_linf_error(mesh, status, cuts, coeffs, sol, iface),
            "energy": float(np.sqrt(energy))}


def per_basis_cut_sums(mesh, cuts, coeffs, sol, rules):
    """`postprocess._cut_sums` from the (K, d, n) values and (K, d, n, 2)
    gradients of every basis function of the side's piece, on the
    `padded_data_rules`."""
    ce = coeffs[full_mesh(mesh).elements[cuts.ids]][:, None]
    out = np.zeros((len(cuts), 2, 3))
    for s, ((pts, wts, minus), c, b, grad) in enumerate(zip(
            rules, (cuts.cm, cuts.cp), cuts.beta, (sol.grad_minus, sol.grad_plus))):
        x, y = pts[..., 0], pts[..., 1]
        xi = (pts - cuts.origin[:, None]) / cuts.h[:, None, None]
        diff = select_branches(sol, x, y, minus)[0] - (ce @ piece_values(c, xi))[:, 0]
        gh = np.einsum("kd,kdqa->kqa", ce[:, 0], piece_gradients(c, xi, cuts.h))
        gx, gy = grad(x, y)
        d2 = (gx - gh[..., 0]) ** 2 + (gy - gh[..., 1]) ** 2
        out[:, s] = np.column_stack([np.vecdot(wts, diff * diff), np.vecdot(wts, d2),
                                     np.vecdot(wts, b * d2)])
    return out


def ascending_linf_error(mesh, status, cuts, coeffs, sol, iface, grid=5):
    """`postprocess._linf_error` on ascending blocks, with u_h on the cut
    elements from every basis function's values."""
    t = np.linspace(0.0, 1.0, grid)
    TX, TY = np.meshgrid(t, t, indexing="ij")
    if mesh.cell_kind == RECT:
        sample = {0: ("rect", np.column_stack([TX.ravel(), TY.ravel()]))}
    else:
        sample = {0: ("tri_lower", np.column_stack([TX.ravel(), (TX * TY).ravel()])),
                  1: ("tri_upper", np.column_stack([(TX * TY).ravel(), TX.ravel()]))}

    def u(x, y):
        return select_branches(sol, x, y, np.asarray(iface.phi(x, y)) < 0)[0]

    worst = 0.0
    for (name, spts), ids, x, y in ascending_blocks(mesh, status, sample):
        uh = coeffs[full_mesh(mesh).elements[ids]] @ template_values(name, spts)
        worst = max(worst, float(np.abs(u(x, y) - uh).max()))
    if len(cuts):
        lo = cuts.verts.min(axis=1)[:, None]
        span = cuts.verts.max(axis=1)[:, None] - lo
        pts = lo + span * np.column_stack([TX.ravel(), TY.ravel()])
        if mesh.cell_kind != RECT:
            xi = (pts - lo) / mesh.h
            lower = (full_mesh(mesh).element_variant[cuts.ids] == 0)[:, None]
            keep = np.where(lower, xi[..., 1] <= xi[..., 0] + 1e-12,
                            xi[..., 0] <= xi[..., 1] + 1e-12)
            pts = pts[keep].reshape(len(cuts), -1, 2)
        pts = np.concatenate([pts, cuts.verts], axis=1)
        rows = np.arange(len(cuts))
        ce = coeffs[full_mesh(mesh).elements[cuts.ids]][:, None]
        uh = (ce @ cut_values(cuts, rows, *cut_frame(cuts, rows, pts)))[:, 0]
        worst = max(worst, float(np.abs(u(pts[..., 0], pts[..., 1]) - uh).max()))
    return worst


# ---------------------------------------------------------------------------
# checks of library results: the immersed bases' defining conditions, the
# rates of an error sequence, the full-node stiffness matrix
# ---------------------------------------------------------------------------

def basis_residuals(cuts, beta_minus, beta_plus):
    """Worst-case residuals of the defining conditions of the immersed bases
    of a CutSet, per cut, in long double.

    Returns a dict of (K,) arrays with keys 'kronecker', 'continuity', 'flux'
    and 'partition'. The flux residual is pointwise
    (|beta- dv-/dn - beta+ dv+/dn|) for linear bases and the chord-line
    integral for bilinear ones; like the builder's flux row it is divided by
    max(beta), so all four are unit-free.
    """
    ld = np.longdouble
    cm, cp = cuts.cm.astype(ld), cuts.cp.astype(ld)
    origin, h = cuts.origin.astype(ld)[:, None], cuts.h.astype(ld)
    bm, bp = ld(beta_minus), ld(beta_plus)
    n = cuts.normal.astype(ld)[:, None, None]

    def xi(p):
        return (p.astype(ld) - origin) / h[:, None, None]

    def flux(p):
        """beta- dv-/dn - beta+ dv+/dn at the points p (K, n, 2): (K, d, n)."""
        return ((bm * piece_gradients(cm, xi(p), h) - bp * piece_gradients(cp, xi(p), h))
                * n).sum(axis=-1)

    verts, ends = cuts.verts, np.stack([cuts.D, cuts.E], axis=1)
    plus = (np.vecdot(verts - cuts.D[:, None], cuts.normal[:, None])
            > CHORD_TIE_TOL * cuts.h[:, None])
    vals = np.where(plus[:, None], piece_values(cp, xi(verts)), piece_values(cm, xi(verts)))
    out = {"kronecker": np.abs(vals - np.eye(cm.shape[1])).max(axis=(1, 2)),
           "continuity": np.abs(piece_values(cm, xi(ends))
                                - piece_values(cp, xi(ends))).max(axis=(1, 2))}
    if verts.shape[1] == 3:
        out["flux"] = np.abs(flux(cuts.D[:, None])).max(axis=(1, 2))
    else:
        # 2-point Gauss along the chord; exact for an affine integrand and
        # independent of the midpoint rule used in the construction
        t = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)], dtype=ld)[:, None]
        L = np.sqrt(np.vecdot(cuts.E - cuts.D, cuts.E - cuts.D)).astype(ld)
        p = cuts.D.astype(ld)[:, None] * (1 - t) + cuts.E.astype(ld)[:, None] * t
        out["flux"] = np.abs(flux(p).sum(axis=-1) * (L / 2)[:, None]).max(axis=1)
    out["flux"] = out["flux"] / max(bm, bp)
    out["partition"] = np.maximum(*(np.maximum(np.abs(c[:, :, 0].sum(axis=1) - 1),
                                               np.abs(c[:, :, 1:].sum(axis=1)).max(axis=1))
                                    for c in (cm, cp)))
    return {k: v.astype(float) for k, v in out.items()}


def convergence_rates(errors):
    """rate_k = log2(e_k / e_{k+1}) for a doubling sequence of (N, error)."""
    pairs = list(zip(errors[:-1], errors[1:]))
    if any(n1 != 2 * n0 for (n0, _), (n1, _) in pairs):
        raise ValueError("convergence_rates expects a doubling N sequence")
    return [float(np.log(e0 / e1) / np.log(2.0)) for (_, e0), (_, e1) in pairs]


def full_volume(mesh, status, cuts):
    """The stiffness matrix on every node: `assembly.assemble_volume` with
    all nodes free and no pairs."""
    return assemble_volume(mesh, status, cuts, np.arange(mesh.n_nodes), ((), ()))[0]
