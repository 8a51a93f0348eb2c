"""Cartesian meshes over a rectangle and their classification against an
implicit interface curve.

Triangular meshes split every cell along its lower-left -> upper-right
diagonal. Interface geometry is an implicit level set phi with phi < 0 inside
the "minus" subdomain; cut elements carry the two points D, E where the curve
crosses their boundary and the two sub-polygons induced by the straight chord
DE.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, GeometryError, MultipleCrossings
from .quadrature import polygon_area

RECT = "rect"
TRI = "tri"

# edge labels
EDGE_BOUNDARY = 0
EDGE_INTERIOR = 1
EDGE_INTERFACE = 2

# element status
SIDE_MINUS = -1
SIDE_PLUS = 1
INTERFACE = 0


@dataclass(frozen=True)
class DomainSpec:
    """Rectangular domain partitioned into n x n square cells."""

    xmin: float
    xmax: float
    ymin: float
    ymax: float
    n: int
    cell_kind: str = RECT

    def __post_init__(self):
        if not (self.xmax > self.xmin and self.ymax > self.ymin):
            raise ConfigError("domain must have positive extent")
        if self.n < 2:
            raise ConfigError("need at least 2 cells per side")
        if self.cell_kind not in (RECT, TRI):
            raise ConfigError(f"unknown cell kind {self.cell_kind!r}")
        hx = (self.xmax - self.xmin) / self.n
        hy = (self.ymax - self.ymin) / self.n
        if abs(hx - hy) > 1e-12 * max(hx, hy):
            raise ConfigError("cells must be square (equal spacing in x and y)")

    @property
    def h(self):
        return (self.xmax - self.xmin) / self.n


class CartesianMesh:
    """Structured mesh with full edge/element adjacency.

    Attributes
    ----------
    nodes : (n_nodes, 2) vertex coordinates
    elements : (n_elem, 3|4) vertex indices, counterclockwise
    edge_nodes : (n_edge, 2) endpoint indices, lexicographically ordered
    edge_elements : (n_edge, 2) adjacent elements, [lower, higher]; -1 if boundary
    element_edges : (n_elem, 3|4) edge index per local edge
    edge_normals : (n_edge, 2) unit normal, oriented from the lower-index
        adjacent element toward the higher-index one (outward on the boundary)
    """

    def __init__(self, spec: DomainSpec):
        self.spec = spec
        self.cell_kind = spec.cell_kind
        self.n_cells = spec.n
        self.h = spec.h
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
            lower = np.column_stack([v00, v10, v11])
            upper = np.column_stack([v00, v11, v01])
            self.elements = np.empty((2 * n * n, 3), dtype=int)
            self.elements[0::2] = lower
            self.elements[1::2] = upper
            self.element_variant = np.tile(np.array([0, 1], dtype=np.int8), n * n)

        self.n_nodes = len(self.nodes)
        self.n_elements = len(self.elements)
        d = self.elements.shape[1]
        local = np.column_stack([np.arange(d), np.roll(np.arange(d), -1)])
        pairs = self.elements[:, local]                     # (ne, d, 2)
        canon = np.sort(pairs.reshape(-1, 2), axis=1)
        self.edge_nodes, inverse = np.unique(canon, axis=0, return_inverse=True)
        self.element_edges = inverse.reshape(self.n_elements, d)
        self.n_edges = len(self.edge_nodes)

        elem_rep = np.repeat(np.arange(self.n_elements), d)
        flat = self.element_edges.ravel()
        lo = np.full(self.n_edges, self.n_elements, dtype=int)
        hi = np.full(self.n_edges, -1, dtype=int)
        np.minimum.at(lo, flat, elem_rep)
        np.maximum.at(hi, flat, elem_rep)
        count = np.bincount(flat, minlength=self.n_edges)
        if count.max() > 2 or count.min() < 1:
            raise GeometryError("broken edge adjacency")
        self.edge_elements = np.column_stack([lo, np.where(count == 2, hi, -1)])

        self.centroids = self.nodes[self.elements].mean(axis=1)
        # cell origin (lower-left node) and extent per element, the frame of
        # scaled local coordinates; the extent can differ from h in the last bit
        self.element_origins = self.nodes[self.elements].min(axis=1)
        self.element_h = np.ptp(self.nodes[self.elements], axis=1).max(axis=1)

        ea = self.nodes[self.edge_nodes[:, 0]]
        eb = self.nodes[self.edge_nodes[:, 1]]
        t = eb - ea
        self.edge_lengths = np.linalg.norm(t, axis=1)
        nrm = np.column_stack([t[:, 1], -t[:, 0]]) / self.edge_lengths[:, None]
        mid = 0.5 * (ea + eb)
        interior = self.edge_elements[:, 1] >= 0
        ref = np.where(interior[:, None],
                       self.centroids[self.edge_elements[:, 1]] - self.centroids[self.edge_elements[:, 0]],
                       mid - self.centroids[self.edge_elements[:, 0]])
        flip = np.einsum("ij,ij->i", nrm, ref) < 0
        nrm[flip] *= -1
        self.edge_normals = nrm

        bmask = np.zeros(self.n_nodes, dtype=bool)
        bmask[self.edge_nodes[~interior].ravel()] = True
        self.boundary_nodes = np.flatnonzero(bmask)
        self.interior_nodes = np.flatnonzero(~bmask)

    @property
    def n_local(self):
        return self.elements.shape[1]

    def element_vertices(self, e):
        return self.nodes[self.elements[e]]


def build_mesh(spec: DomainSpec) -> CartesianMesh:
    """Build the Cartesian mesh described by `spec`."""
    return CartesianMesh(spec)


def dump_mesh(mesh: CartesianMesh, path):
    """Plain-text dump: one `node|elem|edge` record per line, space-separated."""
    with open(path, "w") as f:
        for i, (x, y) in enumerate(mesh.nodes):
            f.write(f"node {i} {x:.17g} {y:.17g}\n")
        for i, conn in enumerate(mesh.elements):
            f.write("elem " + str(i) + " " + " ".join(str(v) for v in conn) + "\n")
        for i, ((a, b), (l, r)) in enumerate(zip(mesh.edge_nodes, mesh.edge_elements)):
            f.write(f"edge {i} {a} {b} {l} {r}\n")


# ---------------------------------------------------------------------------
# interface geometry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InterfaceGeometry:
    """Implicit curve phi(x, y) = 0 with phi < 0 on the minus subdomain.

    `phi` and `grad` must accept numpy arrays; `grad` returns (gx, gy).
    """

    phi: Callable
    grad: Callable
    snap_tol: float = 1e-10
    name: str = "custom"
    params: tuple = ()


def circle(cx, cy, r) -> InterfaceGeometry:
    """phi = (x-cx)^2 + (y-cy)^2 - r^2."""
    if r <= 0:
        raise ConfigError("circle radius must be positive")

    # np.square, not **2: numpy computes x**2 on arrays as x*x but on scalars
    # through pow(), which can differ in the last bit
    def phi(x, y):
        return np.square(x - cx) + np.square(y - cy) - r * r

    def grad(x, y):
        return 2.0 * (x - cx), 2.0 * (y - cy)

    return InterfaceGeometry(phi, grad, name="circle", params=(cx, cy, r))


def line(a, b, c) -> InterfaceGeometry:
    """phi = a*x + b*y + c."""
    if a == 0 and b == 0:
        raise ConfigError("line normal must be nonzero")

    def phi(x, y):
        return a * x + b * y + c

    def grad(x, y):
        return a * np.ones_like(np.asarray(x, float)), b * np.ones_like(np.asarray(y, float))

    return InterfaceGeometry(phi, grad, name="line", params=(a, b, c))


_BUILTINS = {"circle": (circle, 3), "line": (line, 3)}


def interface_from_name(name, params) -> InterfaceGeometry:
    """Look up a built-in level set by name (config hook)."""
    if name not in _BUILTINS:
        raise ConfigError(f"unknown interface {name!r}; builtins: {sorted(_BUILTINS)}")
    ctor, nargs = _BUILTINS[name]
    params = tuple(float(p) for p in params)
    if len(params) != nargs:
        raise ConfigError(f"interface {name!r} takes {nargs} parameters, got {len(params)}")
    return ctor(*params)


# ---------------------------------------------------------------------------
# edge / element classification
# ---------------------------------------------------------------------------

# 16-interval refinement used to audit for multiple crossings
_EDGE_SAMPLES = np.linspace(0.0, 1.0, 17)
# edges audited per pass: bounds the (rows, 17) sample arrays on any mesh
_AUDIT_ROWS = 20000


def _edge_signs(p0, p1, iface, tol):
    """phi at the samples of each segment p0[i] -> p1[i], and its sign with
    |phi| < tol snapped to 0; both of shape (n, 17)."""
    ts = _EDGE_SAMPLES
    pts = p0[:, None, :] + ts[None, :, None] * (p1 - p0)[:, None, :]
    vals = np.asarray(iface.phi(pts[..., 0], pts[..., 1]), float)
    return vals, np.where(np.abs(vals) < tol, 0, np.sign(vals)).astype(np.int8)


def _sign_flips(signs):
    """Sign changes along each row of `signs`, zeros skipped."""
    cols = np.arange(signs.shape[1])
    last = np.maximum.accumulate(np.where(signs != 0, cols, 0), axis=1)
    prev = np.take_along_axis(signs, last[:, :-1], axis=1)  # latest nonzero before
    return np.count_nonzero(prev * signs[:, 1:] < 0, axis=1)


def edge_crossings(p0, p1, iface: InterfaceGeometry, h):
    """Interface crossings of the segments p0[i] -> p1[i], bisected all at once.

    Endpoints with |phi| < snap_tol*h are snapped onto the curve, in which
    case no interior intersection is reported. A sign audit on a 16-interval
    refinement raises MultipleCrossings when the curve cuts a segment more
    than once. Each crossing parameter is resolved to 1e-14 by bisection
    between the nearest strictly-signed samples (interior samples may sit
    inside the snap band around the crossing). Returns (hit, points): a
    boolean mask and (n, 2) crossing points, NaN where there is none.
    """
    p0 = np.asarray(p0, float).reshape(-1, 2)
    p1 = np.asarray(p1, float).reshape(-1, 2)
    vals, signs = _edge_signs(p0, p1, iface, iface.snap_tol * h)
    flips = _sign_flips(signs)
    if (flips > 1).any():
        i = int(np.argmax(flips > 1))
        raise MultipleCrossings(
            f"interface crosses segment {p0[i]}->{p1[i]} more than once; refine the mesh")
    hit = signs[:, 0] * signs[:, -1] < 0
    rows = np.flatnonzero(hit)

    # bracket: first sample of the far sign, last one of the near sign before it
    S = signs[rows]
    cols = np.arange(S.shape[1])
    j = np.argmax(S == -S[:, :1], axis=1)
    k = np.where((S == S[:, :1]) & (cols < j[:, None]), cols, 0).max(axis=1)
    a, b, fa = _EDGE_SAMPLES[k], _EDGE_SAMPLES[j], vals[rows, k]
    q0 = p0[rows]
    d = p1[rows] - q0
    for _ in range(60):
        live = b - a > 1e-14
        if not live.any():
            break
        m = 0.5 * (a + b)
        pm = q0 + m[:, None] * d
        fm = np.asarray(iface.phi(pm[:, 0], pm[:, 1]), float)
        lower = live & (fa * fm < 0)           # crossing in [a, m]
        upper = live & ~lower                  # in [m, b], or exactly at m
        b = np.where(lower | (upper & (fm == 0.0)), m, b)
        a = np.where(upper, m, a)
        fa = np.where(upper, fm, fa)
    points = np.full(p0.shape, np.nan)
    points[rows] = q0 + (0.5 * (a + b))[:, None] * d
    return hit, points


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
    type_tag: Optional[str] = None   # 'I' / 'II' for rectangles


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


def classify_elements(mesh: CartesianMesh, iface: InterfaceGeometry):
    """Label every element against the interface; build cut data where it cuts.

    Returns (status, cuts): `status` holds SIDE_MINUS, SIDE_PLUS or INTERFACE
    per element (int8), and `cuts` maps the id of each interface element, in
    ascending order, to its ElementCut. Non-interface elements get their side
    from the sign of phi at the centroid. Crossing points are computed once
    per mesh edge so that neighbouring elements share bit-identical D/E
    points. Degenerate cuts (chord below snap tolerance, or an empty
    sub-polygon) fall back to non-interface status.
    """
    h = mesh.h
    tol = iface.snap_tol * h
    node_phi = np.asarray(iface.phi(mesh.nodes[:, 0], mesh.nodes[:, 1]), float)
    node_sign = np.where(np.abs(node_phi) < tol, 0, np.sign(node_phi)).astype(np.int8)

    # audit every edge for hidden double crossings; collect candidate edges
    ea = mesh.nodes[mesh.edge_nodes[:, 0]]
    eb = mesh.nodes[mesh.edge_nodes[:, 1]]
    candidates = []
    for lo in range(0, mesh.n_edges, _AUDIT_ROWS):
        _, s = _edge_signs(ea[lo:lo + _AUDIT_ROWS], eb[lo:lo + _AUDIT_ROWS], iface, tol)
        rows = np.flatnonzero(((s > 0).any(axis=1) & (s < 0).any(axis=1)) | (s == 0).any(axis=1))
        flips = _sign_flips(s[rows])
        if (flips > 1).any():
            i = int(np.argmax(flips > 1))
            raise MultipleCrossings(
                f"edge {lo + rows[i]} is crossed {flips[i]} times; refine the mesh")
        candidates.append(lo + rows)
    candidates = np.concatenate(candidates)

    ends = mesh.edge_nodes[candidates]
    solve = candidates[node_sign[ends[:, 0]] * node_sign[ends[:, 1]] < 0]
    hit, points = edge_crossings(ea[solve], eb[solve], iface, h)
    crossings = dict(zip(solve[hit].tolist(), points[hit]))

    cent_phi = np.asarray(iface.phi(mesh.centroids[:, 0], mesh.centroids[:, 1]), float)
    status = np.where(cent_phi > 0, SIDE_PLUS, SIDE_MINUS).astype(np.int8)

    touched = (node_sign[mesh.elements] == 0).any(axis=1)
    adj = mesh.edge_elements[solve[hit]].ravel()
    touched[adj[adj >= 0]] = True

    cuts = {}
    for k in np.flatnonzero(touched).tolist():
        cut = _classify_one(mesh, iface, k, crossings, node_sign, tol)
        if cut is not None:
            status[k] = INTERFACE
            cuts[k] = cut
    return status, cuts


def _classify_one(mesh, iface, k, crossings, node_sign, tol):
    """Cut data of element k, or None when its cut is degenerate."""
    conn = mesh.elements[k]
    verts = mesh.nodes[conn]
    strict = [(crossings[e], e) for e in mesh.element_edges[k].tolist() if e in crossings]
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

    type_tag = None
    if mesh.cell_kind == RECT:
        if eD is not None and eE is not None:
            shared = set(mesh.edge_nodes[eD]) & set(mesh.edge_nodes[eE])
            type_tag = "I" if shared else "II"
        else:
            type_tag = "II" if (len(pa), len(pb)) == (4, 4) else "I"

    return ElementCut(k, D=D, E=E,
                      cut_edges=tuple(e for e in (eD, eE) if e is not None),
                      chord_normal=n, poly_minus=poly_minus, poly_plus=poly_plus,
                      type_tag=type_tag)


def classify_edges(mesh: CartesianMesh, status) -> np.ndarray:
    """Edge labels: boundary, interior, or interior-interface.

    Every interior edge adjacent to at least one interface element is labelled
    interface (penalties on the extra edges are harmless because the traces
    there agree identically).
    """
    labels = np.full(mesh.n_edges, EDGE_INTERIOR, dtype=np.int8)
    labels[mesh.edge_elements[:, 1] < 0] = EDGE_BOUNDARY
    iface_elems = status == INTERFACE
    adj = mesh.edge_elements
    touched = np.zeros(mesh.n_edges, dtype=bool)
    touched |= iface_elems[adj[:, 0]]
    interior = adj[:, 1] >= 0
    touched[interior] |= iface_elems[adj[interior, 1]]
    labels[(labels == EDGE_INTERIOR) & touched] = EDGE_INTERFACE
    return labels


def edge_split_points(mesh, edge_id, cuts):
    """Interior points where adjacent chords break the traces on this edge."""
    a = mesh.nodes[mesh.edge_nodes[edge_id, 0]]
    b = mesh.nodes[mesh.edge_nodes[edge_id, 1]]
    d = b - a
    ll = float(d @ d)
    pts = []
    for el in mesh.edge_elements[edge_id]:
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
