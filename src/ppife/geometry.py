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


# (di, dj) of each local vertex from its cell's lower-left node, per element
# variant, counterclockwise: the rectangle; the triangles below and above the
# lower-left -> upper-right diagonal
_CORNERS = {RECT: np.array([[[0, 0], [1, 0], [1, 1], [0, 1]]]),
            TRI: np.array([[[0, 0], [1, 0], [1, 1]], [[0, 0], [1, 1], [0, 1]]])}


class CartesianMesh:
    """Structured mesh; its edges are index arithmetic on the grid.

    Node (i, j) is j (n + 1) + i, and cell (i, j) holds elements
    (j n + i) v + variant, v = 1 or 2 (the lower and upper triangle). Edges
    are numbered in the lexicographic order of their node pairs: node a has
    edges to a + 1, a + n + 1 and, on triangles, a + n + 2. The edge queries
    compute endpoints, neighbours, normals and lengths only for the ids asked.

    nodes (n_nodes, 2); elements (n_elem, 3|4), counterclockwise;
    element_variant (int8, 1 for upper triangles); element_origins
    (n_elem, 2) and element_h (n_elem,), the lower-left corner and extent of
    each cell, the frame of scaled local coordinates (the extent can differ
    from h in the last bit); boundary_nodes and interior_nodes, ascending.
    """

    def __init__(self, spec: DomainSpec):
        self.spec = spec
        self.cell_kind = spec.cell_kind
        self.n_cells = n = spec.n
        self.h = spec.h
        xs = np.linspace(spec.xmin, spec.xmax, n + 1)
        ys = np.linspace(spec.ymin, spec.ymax, n + 1)
        X, Y = np.meshgrid(xs, ys, indexing="xy")
        self.nodes = np.column_stack([X.ravel(), Y.ravel()])
        self.n_nodes = len(self.nodes)

        corners = _CORNERS[spec.cell_kind]
        self._nvar = nvar = len(corners)
        cell_node = (np.arange(n)[:, None] * (n + 1) + np.arange(n)).ravel()
        self.elements = (cell_node[:, None, None] + corners @ [1, n + 1]).reshape(n * n * nvar, -1)
        self.n_elements = len(self.elements)
        self.element_variant = np.tile(np.arange(nvar, dtype=np.int8), n * n)
        self.element_origins = np.repeat(self.nodes[cell_node], nvar, axis=0)
        self.element_h = np.repeat(np.maximum(np.diff(xs), np.diff(ys)[:, None]).ravel(), nvar)

        # edges per row of nodes below the top
        self._row = (nvar + 1) * n + 1
        self.n_edges = n * self._row + n

        on = np.zeros((n + 1, n + 1), dtype=bool)
        on[[0, -1]] = on[:, [0, -1]] = True
        self.boundary_nodes = np.flatnonzero(on)
        self.interior_nodes = np.flatnonzero(~on)

    @property
    def n_local(self):
        return self.elements.shape[1]

    def element_vertices(self, e):
        return self.nodes[self.elements[e]]

    def element_centroids(self, ids):
        """(len, 2) vertex means of the elements `ids` (indices or a slice),
        added in vertex order."""
        return self.nodes[self.elements[ids].T].mean(axis=0)

    def _edge_origins(self, ids):
        """Lower node (i, j) and direction k (0 right, 1 up, 2 up-right) of
        the edges `ids`. Below the top row a node has nvar + 1 edges, in the
        order of k, and a row ends with an up edge; the top row has right
        edges only."""
        n = self.n_cells
        j, r = np.divmod(np.asarray(ids), self._row)
        i, k = np.divmod(r, self._nvar + 1)
        top = j == n
        return np.where(top, r, i), j, np.where(top, 0, k + (i == n))

    def edge_nodes(self, ids):
        """(len, 2) endpoints of the edges `ids`, the lower node first."""
        i, j, k = self._edge_origins(ids)
        a = j * (self.n_cells + 1) + i
        return np.stack([a, a + np.array([1, self.n_cells + 1, self.n_cells + 2])[k]], axis=-1)

    def element_edges(self, ids):
        """(len, d) edge of each local edge V_i -> V_i+1 of the elements `ids`."""
        n = self.n_cells
        conn = self.elements[ids]
        a = np.minimum(conn, np.roll(conn, -1, axis=1))
        gap = np.maximum(conn, np.roll(conn, -1, axis=1)) - a
        j, i = np.divmod(a, n + 1)
        k = np.searchsorted([1, n + 1], gap)           # gap 1, n + 1, n + 2
        return np.where(j < n, j * self._row + (self._nvar + 1) * i + k - (i == n),
                        n * self._row + i)

    def _edge_sides(self, ids):
        """The elements before (lower id) and after the edges `ids`, -1 off
        the mesh, and the edges' directions. The one after lies in the cell
        of the edge's lower node (i, j), the upper triangle unless k = 0; the
        one before in the cell below (k = 0, upper triangle), to the left
        (k = 1, lower) or the same cell (k = 2, lower)."""
        n, tri = self.n_cells, self._nvar - 1
        i, j, k = self._edge_origins(ids)
        bi, bj = i - (k == 1), j - (k == 0)
        return np.column_stack([
            np.where((bi >= 0) & (bj >= 0), (bj * n + bi) * self._nvar + tri * (k == 0), -1),
            np.where((i < n) & (j < n), (j * n + i) * self._nvar + tri * (k > 0), -1)]), k

    def edge_elements(self, ids):
        """(len, 2) elements beside the edges `ids`, the lower id first; -1
        in the second column for a boundary edge."""
        el = self._edge_sides(ids)[0]
        return np.where(el[:, :1] >= 0, el, el[:, ::-1])

    def _edge_vectors(self, ids):
        ends = self.edge_nodes(ids)
        return self.nodes[ends[:, 1]] - self.nodes[ends[:, 0]]

    def edge_lengths(self, ids):
        """Lengths of the edges `ids`."""
        return np.linalg.norm(self._edge_vectors(ids), axis=1)

    def edge_normals(self, ids):
        """(len, 2) unit normals of the edges `ids`, from the lower-index
        element toward the higher one (outward on the boundary)."""
        t = self._edge_vectors(ids)
        nrm = np.column_stack([t[:, 1], -t[:, 0]]) / np.linalg.norm(t, axis=1)[:, None]
        # (t_y, -t_x) points from the element after an edge toward the one
        # before, except on up edges
        el, k = self._edge_sides(ids)
        nrm[(el[:, 0] >= 0) != (k == 1)] *= -1
        return nrm


def build_mesh(spec: DomainSpec) -> CartesianMesh:
    """Build the Cartesian mesh described by `spec`."""
    return CartesianMesh(spec)


def dump_mesh(mesh: CartesianMesh, path):
    """Plain-text dump: one `node|elem|edge` record per line, space-separated."""
    ids = np.arange(mesh.n_edges)
    with open(path, "w") as f:
        for i, (x, y) in enumerate(mesh.nodes):
            f.write(f"node {i} {x:.17g} {y:.17g}\n")
        for i, conn in enumerate(mesh.elements):
            f.write("elem " + str(i) + " " + " ".join(str(v) for v in conn) + "\n")
        for i, ((a, b), (l, r)) in enumerate(zip(mesh.edge_nodes(ids), mesh.edge_elements(ids))):
            f.write(f"edge {i} {a} {b} {l} {r}\n")


# ---------------------------------------------------------------------------
# interface geometry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InterfaceGeometry:
    """Implicit curve phi(x, y) = 0 with phi < 0 on the minus subdomain.

    `phi` and `grad` must accept numpy arrays, x broadcasting against y;
    `grad` returns (gx, gy).
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

# points per block of the pointwise sweeps over every edge or element (the
# edge audit and the centroid signs of `classify_elements`, and `bulk_sweep`,
# the quadrature of the load and the error norms on the standard elements).
# Each of their arrays then takes at most 256 kB, which the allocator serves
# again from freed memory; multi-megabyte temporaries are mapped afresh on
# every pass, and their page faults cost more than the arithmetic. The load
# and the norms accumulate per block, so nothing element-sized outlives one.
_SWEEP_POINTS = 1 << 15
# 16-interval refinement used to audit for multiple crossings
_EDGE_SAMPLES = np.linspace(0.0, 1.0, 17)
# edges audited per pass
_AUDIT_ROWS = _SWEEP_POINTS // len(_EDGE_SAMPLES)


def _snapped_sign(vals, tol):
    """Sign of `vals` as int8, with |vals| < tol snapped to 0."""
    return (vals >= tol).view(np.int8) - (vals <= -tol).view(np.int8)


def _edge_signs(p0, p1, iface, tol):
    """phi at the samples of each segment p0[i] -> p1[i], and its sign with
    |phi| < tol snapped to 0; both of shape (n, 17), transposed views of
    sample-major arrays, so that a reduction over each segment's samples
    runs along contiguous rows."""
    ts = _EDGE_SAMPLES[:, None]
    x = p0[:, 0] + ts * (p1[:, 0] - p0[:, 0])
    y = p0[:, 1] + ts * (p1[:, 1] - p0[:, 1])
    vals = np.asarray(iface.phi(x, y), float)
    return vals.T, _snapped_sign(vals, tol).T


def _sign_flips(signs):
    """Sign changes along each row of `signs`, zeros skipped."""
    cols = np.arange(signs.shape[1])
    last = np.maximum.accumulate(np.where(signs != 0, cols, 0), axis=1)
    prev = np.take_along_axis(signs, last[:, :-1], axis=1)  # latest nonzero before
    return np.count_nonzero(prev * signs[:, 1:] < 0, axis=1)


def _outer_signs(signs):
    """First and last nonzero entry of each row of `signs`, 0 for a row of
    zeros."""
    nz = signs != 0
    first = np.argmax(nz, axis=1)
    last = signs.shape[1] - 1 - np.argmax(nz[:, ::-1], axis=1)
    rows = np.arange(len(signs))
    return signs[rows, first], signs[rows, last]


def edge_crossings(p0, p1, iface: InterfaceGeometry, h):
    """Interface crossings of the segments p0[i] -> p1[i], bisected all at once.

    Samples with |phi| < snap_tol*h are snapped onto the curve. A segment has
    a crossing when its first and last strictly-signed samples have opposite
    signs; a snapped endpoint thus adds no crossing of its own, but does not
    hide one inside the segment. A sign audit on a 16-interval refinement
    raises MultipleCrossings when the curve cuts a segment more than once.
    Each crossing parameter is resolved to 1e-14 by bisection between the
    nearest strictly-signed samples (interior samples may sit inside the snap
    band around the crossing). Returns (hit, points): a boolean mask and
    (n, 2) crossing points, NaN where there is none.
    """
    p0 = np.asarray(p0, float).reshape(-1, 2)
    p1 = np.asarray(p1, float).reshape(-1, 2)
    vals, signs = _edge_signs(p0, p1, iface, iface.snap_tol * h)
    flips = _sign_flips(signs)
    if (flips > 1).any():
        i = int(np.argmax(flips > 1))
        raise MultipleCrossings(
            f"interface crosses segment {p0[i]}->{p1[i]} more than once; refine the mesh")
    first, last = _outer_signs(signs)
    hit = first * last < 0
    rows = np.flatnonzero(hit)

    # bracket: first sample of the far sign, last one of the near sign before it
    S = signs[rows]
    near = first[rows, None]
    cols = np.arange(S.shape[1])
    j = np.argmax(S == -near, axis=1)
    k = np.where((S == near) & (cols < j[:, None]), cols, 0).max(axis=1)
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


@dataclass(frozen=True, eq=False)
class CutSet:
    """The cut elements as one stack of arrays, a row per cut element in
    ascending element order.

    D and E are where the curve crosses the element boundary; a snapped
    vertex stands for a crossing that sits on it. The unit chord normal
    points from the minus sub-polygon toward the plus one. The sub-polygons
    are CCW from D or E and padded to nv + 1 vertices by repeating their last
    vertex, which adds zero-area fan triangles. Element edge i (V_i -> V_i+1)
    is split at `edge_splits[:, i]`: at the chord end on it, else at its end
    vertex. `local_basis.build_bases` fills in the immersed coefficients and
    the frames of their scaled monomials.
    """

    ids: np.ndarray          # (K,) element ids; stack indices for reference cuts
    verts: np.ndarray        # (K, nv, 2)
    D: np.ndarray            # (K, 2)
    E: np.ndarray            # (K, 2)
    normal: np.ndarray       # (K, 2)
    poly_minus: np.ndarray   # (K, nv + 1, 2)
    poly_plus: np.ndarray    # (K, nv + 1, 2)
    n_minus: np.ndarray      # (K,) vertex counts before padding
    n_plus: np.ndarray       # (K,)
    edge_splits: np.ndarray  # (K, nv, 2)
    cut_edges: np.ndarray    # (K, 2) mesh edges holding D and E; -1 at a vertex or off a mesh
    opposite: np.ndarray     # (K,) rectangle cut through opposite edges (type II)
    cm: Optional[np.ndarray] = None      # (K, d, m) minus-piece coefficients
    cp: Optional[np.ndarray] = None      # (K, d, m) plus-piece coefficients
    origin: Optional[np.ndarray] = None  # (K, 2) lower-left corner of each frame
    h: Optional[np.ndarray] = None       # (K,) size of each frame

    def __len__(self):
        return len(self.ids)


def ring_chains(verts, D, E, slot_D, slot_E):
    """The chord split of each element as index arithmetic on its ring
    [V0, X0, V1, X1, ...], where X_i is the chord end on edge i, if any; a
    chord end on vertex V_i takes that vertex's slot 2i.

    Returns (ring, chains, counts, edge_splits): the ring points (K, 2 nv, 2);
    the ring slots (K, nv + 1) of the sub-polygon from D to E and of the one
    from E to D, each padded by repeating its last slot; their vertex counts
    (K,); and the split point of each element edge (K, nv, 2).
    """
    K, nv = verts.shape[:2]
    R = 2 * nv
    rows = np.arange(K)
    ring = np.repeat(verts, 2, axis=1)
    ring[rows, slot_D] = D
    ring[rows, slot_E] = E
    odd = np.arange(1, R, 2)
    crossed = (slot_D[:, None] == odd) | (slot_E[:, None] == odd)
    edge_splits = np.where(crossed[..., None], ring[:, odd], ring[:, (odd + 1) % R])

    step = np.arange(R + 1)
    walk = (slot_D[:, None] + step) % R            # once round the ring from D
    on = (walk % 2 == 0) | (walk == slot_D[:, None]) | (walk == slot_E[:, None])
    at_E = ((slot_E - slot_D) % R)[:, None]
    chains, counts = [], []
    for keep in (on & (step <= at_E), on & (step >= at_E)):
        n = keep.sum(axis=1)
        first = np.argsort(~keep, axis=1, kind="stable")[:, :nv + 1]
        last = np.take_along_axis(first, np.minimum(n, nv + 1)[:, None] - 1, axis=1)
        chains.append(np.take_along_axis(walk, np.where(step[:nv + 1] < n[:, None], first, last),
                                         axis=1))
        counts.append(n)
    return ring, chains, counts, edge_splits


def _norm(v):
    # sqrt(vecdot) is bit for bit np.linalg.norm of one vector, on stacks too
    return np.sqrt(np.vecdot(v, v))


def classify_elements(mesh: CartesianMesh, iface: InterfaceGeometry):
    """Label every element against the interface and stack its cut elements.

    Returns (status, cuts): `status` holds SIDE_MINUS, SIDE_PLUS or INTERFACE
    per element (int8), and `cuts` is the CutSet of the interface elements.
    Non-interface elements get their side from the sign of phi at the
    centroid. Crossing points are computed once per mesh edge so that
    neighbouring elements share bit-identical D/E points. Degenerate cuts
    (chord below snap tolerance, or an empty sub-polygon) fall back to
    non-interface status.
    """
    h = mesh.h
    tol = iface.snap_tol * h
    node_phi = np.asarray(iface.phi(mesh.nodes[:, 0], mesh.nodes[:, 1]), float)
    node_sign = _snapped_sign(node_phi, tol)

    # audit every edge for hidden double crossings; collect the crossed ones
    solve = []
    for lo in range(0, mesh.n_edges, _AUDIT_ROWS):
        ends = mesh.edge_nodes(np.arange(lo, min(lo + _AUDIT_ROWS, mesh.n_edges)))
        _, s = _edge_signs(mesh.nodes[ends[:, 0]], mesh.nodes[ends[:, 1]], iface, tol)
        # all but the rows of one strict sign throughout
        rows = np.flatnonzero((s.min(axis=1) <= 0) & (s.max(axis=1) >= 0))
        flips = _sign_flips(s[rows])
        if (flips > 1).any():
            i = int(np.argmax(flips > 1))
            raise MultipleCrossings(
                f"edge {lo + rows[i]} is crossed {flips[i]} times; refine the mesh")
        first, last = _outer_signs(s[rows])
        solve.append(lo + rows[first * last < 0])
    solve = np.concatenate(solve)
    ends = mesh.edge_nodes(solve)
    hit, points = edge_crossings(mesh.nodes[ends[:, 0]], mesh.nodes[ends[:, 1]], iface, h)
    crossed = solve[hit]

    # side of phi at the centroid, in blocks of _SWEEP_POINTS vertex coordinates
    status = np.empty(mesh.n_elements, dtype=np.int8)
    rows = _SWEEP_POINTS // (2 * mesh.n_local)
    for lo in range(0, mesh.n_elements, rows):
        c = mesh.element_centroids(slice(lo, lo + rows))
        status[lo:lo + rows] = np.where(np.asarray(iface.phi(c[:, 0], c[:, 1]), float) > 0,
                                        SIDE_PLUS, SIDE_MINUS)

    touched = (node_sign[mesh.elements] == 0).any(axis=1)
    adj = mesh.edge_elements(crossed).ravel()
    touched[adj[adj >= 0]] = True
    cuts = _cut_set(mesh, iface, np.flatnonzero(touched), crossed, points[hit], node_sign, tol)
    status[cuts.ids] = INTERFACE
    return status, cuts


def _cut_set(mesh, iface, ids, crossed, points, node_sign, tol):
    """CutSet of the touched elements `ids` whose cut is not degenerate;
    `points` are the crossings of the edges `crossed` (ascending)."""
    h = mesh.h
    K, nv = len(ids), mesh.n_local
    rows = np.arange(K)
    conn = mesh.elements[ids]
    verts = mesh.nodes[conn]
    edges = mesh.element_edges(ids)
    # each local edge's crossing; a NaN row appended to the points where none
    at = np.searchsorted(crossed, edges)
    strict = np.append(crossed, -1)[at] == edges
    crossing = np.append(points, [[np.nan, np.nan]], axis=0)[np.where(strict, at, -1)]
    n_strict = strict.sum(axis=1)
    err = np.where(n_strict > 2, 1, 0)

    # the points a chord may join, in element order: the crossings by local
    # edge, then the snapped vertices. D, E are the first two, or the
    # farthest pair when grazing vertices add to fewer than two crossings.
    valid = np.concatenate([strict, node_sign[conn] == 0], axis=1)
    order = np.argsort(~valid, axis=1, kind="stable")
    pts = np.take_along_axis(np.concatenate([crossing, verts], axis=1),
                             order[..., None], axis=1)
    edge_of = np.take_along_axis(np.concatenate([edges, np.full((K, nv), -1)], axis=1),
                                 order, axis=1)
    count = valid.sum(axis=1)
    i, j = np.triu_indices(2 * nv, 1)
    dist = np.where(j < count[:, None], _norm(pts[:, i] - pts[:, j]), -1.0)
    far = np.argmax(dist, axis=1)
    farthest = (count > 2) & (n_strict < 2)
    a, b = np.where(farthest, i[far], 0), np.where(farthest, j[far], 1)
    D, E = pts[rows, a], pts[rows, b]
    cut_edges = np.column_stack([edge_of[rows, a], edge_of[rows, b]])

    # ring slots: a chord end within the split tolerance of a vertex takes it
    split_tol = max(tol, 1e-12 * h)
    slots = []
    for P, e in ((D, cut_edges[:, 0]), (E, cut_edges[:, 1])):
        near = _norm(verts - P[:, None]) < split_tol
        on_edge = 2 * np.argmax(edges == e[:, None], axis=1) + 1
        slots.append(np.where(near.any(axis=1), 2 * np.argmax(near, axis=1), on_edge))
    slot_D, slot_E = slots
    live = ((err == 0) & (count >= 2) & (_norm(E - D) >= tol) & (slot_D != slot_E))

    ring, (sa, sb), (na, nb), edge_splits = ring_chains(verts, D, E, slot_D, slot_E)
    pa, pb = ring[rows[:, None], sa], ring[rows[:, None], sb]
    live &= (na >= 3) & (nb >= 3)
    # areas about the first vertex: shoelace round-off grows with |x| |y|, not h
    o = verts[:, :1]
    area_a, area_b = polygon_area(pa - o), polygon_area(pb - o)
    live &= np.minimum(area_a, area_b) >= 1e-12 * h ** 2
    bad = live & (np.abs(area_a + area_b - np.abs(polygon_area(verts - o))) > 1e-10 * h ** 2)
    err[bad] = 2
    live &= ~bad

    # a chain's side: the sign of its vertices other than D and E, or of phi
    # at its mean when they all snap
    slot_sign = np.repeat(node_sign[conn], 2, axis=1)
    slot_sign[:, 1::2] = 0
    slot_sign[rows, slot_D] = 0
    slot_sign[rows, slot_E] = 0
    sides, means = [], []
    for slots, poly, n in ((sa, pa, na), (sb, pb, nb)):
        signs = slot_sign[rows[:, None], slots]
        pos, neg = (signs > 0).any(axis=1), (signs < 0).any(axis=1)
        bad = live & pos & neg
        err[bad] = 3
        live &= ~bad
        mean = (poly * (np.arange(nv + 1) < n[:, None])[..., None]).sum(axis=1) / n[:, None]
        above = np.asarray(iface.phi(mean[:, 0], mean[:, 1])) > 0
        fallback = np.where(above, SIDE_PLUS, SIDE_MINUS)
        sides.append(np.where(pos, SIDE_PLUS, np.where(neg, SIDE_MINUS, fallback)))
        means.append(mean)
    a_plus = sides[0] == SIDE_PLUS
    live &= sides[0] != sides[1]

    # chord normals, toward the plus side: along grad phi at the chord
    # midpoint, or toward the plus polygon's mean where the gradient vanishes
    k = np.flatnonzero(live)
    chord = E[k] - D[k]
    n = np.column_stack([chord[:, 1], -chord[:, 0]])
    n /= _norm(n)[:, None]
    mid = 0.5 * (D[k] + E[k])
    gx, gy, _ = np.broadcast_arrays(*iface.grad(mid[:, 0], mid[:, 1]), mid[:, 0])
    g = np.column_stack([gx, gy]).astype(float)
    to_plus = np.where(a_plus[k, None], means[0][k], means[1][k]) - mid
    flip = np.where(_norm(g) > 1e-14, np.vecdot(n, g) < 0, np.vecdot(n, to_plus) < 0)
    n[flip] *= -1
    err[k[np.vecdot(n, to_plus) <= 0]] = 4
    if err.any():
        r = int(np.argmax(err != 0))
        e = ids[r]
        if err[r] == 1:
            raise MultipleCrossings(f"element {e} boundary crossed {n_strict[r]} times")
        raise GeometryError({2: f"cut of element {e} does not partition it",
                             3: f"inconsistent vertex signs in element {e}",
                             4: f"chord normal of element {e} contradicts the level set"}[err[r]])

    opposite = np.zeros(len(k), dtype=bool)
    if mesh.cell_kind == RECT:
        eD, eE = cut_edges[k, 0], cut_edges[k, 1]
        ends_D, ends_E = mesh.edge_nodes(eD), mesh.edge_nodes(eE)
        shared = (ends_D[:, :, None] == ends_E[:, None, :]).any(axis=(1, 2))
        opposite = np.where((eD >= 0) & (eE >= 0), ~shared, (na[k] == 4) & (nb[k] == 4))
    plus = a_plus[k]
    return CutSet(ids[k], verts[k], D[k], E[k], n,
                  np.where(plus[:, None, None], pb[k], pa[k]),
                  np.where(plus[:, None, None], pa[k], pb[k]),
                  np.where(plus, nb[k], na[k]), np.where(plus, na[k], nb[k]),
                  edge_splits[k], cut_edges[k], opposite)


# side b of the node boxes of `lattice_aggregates` per mesh kind, from AMG
# iterations and times at N = 160-640: 3 x 3 boxes take SPP on tri at beta+ =
# 1e4 from 20 to 28 iterations; 2 x 2 boxes make a rect case 21 % slower
# (N=160, beta+ = 1e4: the context, SPP and NPP)
AGGREGATE_BOX = {RECT: 3, TRI: 2}


def lattice_aggregates(mesh: CartesianMesh, iface: InterfaceGeometry):
    """Aggregates of the interior nodes, in the order of `interior_nodes`,
    as `linsolve.SAHierarchy` takes them for its first level.

    Node (i, j) lies in box (i // b, j // b) of the node lattice, b =
    AGGREGATE_BOX[cell_kind], and each box is split by the side of its nodes,
    plus where phi > 0; phi is evaluated on a row of interior x against a
    column of interior y, by broadcasting. Returns per node its aggregate,
    numbered 0.. in the order of (box, side) with the empty ones left out,
    and their number.
    """
    n, b = mesh.n_cells, AGGREGATE_BOX[mesh.cell_kind]
    m = (n - 1) // b + 1                 # boxes per lattice row that hold interior nodes
    box = np.arange(1, n) // b
    x, y = mesh.nodes[1:n, 0], mesh.nodes[(n + 1) * np.arange(1, n), 1]
    label = 2 * m * box[:, None] + 2 * box
    label += np.asarray(iface.phi(x, y[:, None])) > 0
    label = label.ravel()
    used = np.bincount(label, minlength=2 * m * m) > 0
    return (np.cumsum(used) - 1)[label], int(used.sum())


def interface_edges(mesh: CartesianMesh, cuts: CutSet) -> np.ndarray:
    """Ids of the interface edges, ascending: the interior edges of the cut
    elements of `cuts`, the edges that carry the stabilization terms."""
    edges = np.unique(mesh.element_edges(cuts.ids))
    return edges[mesh.edge_elements(edges)[:, 1] >= 0]


def bulk_sweep(mesh: CartesianMesh, status, iface: InterfaceGeometry, tables):
    """The points of a rule on every standard (non-interface) element.

    `tables` maps each cell variant to a tuple whose second entry is the
    rule's scaled points (n, 2). A variant's elements come minus side first,
    then plus, each ascending, so that only the block where the sides meet
    mixes the exact solution's branches; they come in blocks of at most
    `_SWEEP_POINTS` points. Yields (table, element ids, x, y, minus) with
    x, y contiguous (block rows, n) and minus = phi(x, y) < 0.
    """
    bulk = np.concatenate([np.flatnonzero(status == side) for side in (SIDE_MINUS, SIDE_PLUS)])
    for variant, table in tables.items():
        ids = bulk if mesh.cell_kind == RECT else bulk[mesh.element_variant[bulk] == variant]
        spts = table[1]
        rows = max(1, _SWEEP_POINTS // len(spts))
        hx, hy = mesh.h * spts[:, 0], mesh.h * spts[:, 1]
        for lo in range(0, len(ids), rows):
            block = ids[lo:lo + rows]
            origin = mesh.element_origins[block]
            x, y = origin[:, :1] + hx, origin[:, 1:] + hy
            yield table, block, x, y, np.asarray(iface.phi(x, y)) < 0
