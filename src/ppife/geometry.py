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
from .quadrature import _collapsed_triangle_rule, fan_rule, polygon_area

RECT = "rect"
TRI = "tri"

# element status
SIDE_MINUS = -1
SIDE_PLUS = 1
INTERFACE = 0

# phi values below SNAP_TOL * h in magnitude count as on the curve
SNAP_TOL = 1e-10


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
    """Structured mesh of index arithmetic on the grid lines `xs`, `ys`.

    Node (i, j) is j (n + 1) + i, at (xs[i], ys[j]), and cell (i, j) holds
    elements (j n + i) v + variant, v = 1 or 2, variant 1 the upper
    triangle; an element's vertices run counterclockwise from the cell's
    lower-left node. Edges are numbered in the lexicographic order of their
    node pairs: node a has edges to a + 1, a + n + 1 and, on triangles,
    a + n + 2. Every query computes nodes, elements, frames and edges only
    for the ids asked; the mesh stores no per-node or per-element array.
    """

    def __init__(self, spec: DomainSpec):
        self.spec = spec
        self.cell_kind = spec.cell_kind
        self.n_cells = n = spec.n
        self.h = spec.h
        self.xs = np.linspace(spec.xmin, spec.xmax, n + 1)
        self.ys = np.linspace(spec.ymin, spec.ymax, n + 1)
        self.n_nodes = (n + 1) ** 2
        corners = _CORNERS[spec.cell_kind]
        self._nvar, self.n_local = corners.shape[:2]
        self.n_elements = n * n * self._nvar
        # node-id offset of each variant's local vertices from the cell's lower-left node
        self._offsets = corners @ [1, n + 1]
        # edges per row of nodes below the top
        self._row = (self._nvar + 1) * n + 1
        self.n_edges = n * self._row + n

    def node_coords(self, ids):
        """(..., 2) coordinates of the nodes `ids`."""
        j, i = np.divmod(np.asarray(ids), self.n_cells + 1)
        return np.stack([self.xs[i], self.ys[j]], axis=-1)

    def element_nodes(self, ids):
        """(..., d) nodes of the elements `ids`, counterclockwise: cell
        c = j n + i has lower-left node c + j."""
        c, v = np.divmod(np.asarray(ids), self._nvar)
        return (c + c // self.n_cells)[..., None] + np.take(self._offsets, v, axis=0)

    def element_frames(self, ids):
        """Lower-left corner (..., 2) and extent (...) of the cells of the
        elements `ids`: the frames of scaled local coordinates. The extent is
        the larger grid step, which can differ from h in the last bit."""
        j, i = np.divmod(np.asarray(ids) // self._nvar, self.n_cells)
        xs, ys = self.xs, self.ys
        return (np.stack([xs[i], ys[j]], axis=-1),
                np.maximum(xs[i + 1] - xs[i], ys[j + 1] - ys[j]))

    def node_elements(self, nodes):
        """Ids of the elements with a vertex among `nodes`, with repeats:
        node (i, j) is local vertex l of the element of each variant in
        cell (i, j) minus that variant's corner l, where the cell exists."""
        n, corners = self.n_cells, _CORNERS[self.cell_kind]
        j, i = np.divmod(np.asarray(nodes), n + 1)
        ci, cj = i[:, None, None] - corners[..., 0], j[:, None, None] - corners[..., 1]
        inside = (ci >= 0) & (ci < n) & (cj >= 0) & (cj < n)
        return ((cj * n + ci) * self._nvar + np.arange(self._nvar)[:, None])[inside]

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
        conn = self.element_nodes(ids)
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
        ends = self.node_coords(self.edge_nodes(ids))
        return ends[:, 1] - ends[:, 0]

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
        for i, (x, y) in enumerate(mesh.node_coords(np.arange(mesh.n_nodes))):
            f.write(f"node {i} {x:.17g} {y:.17g}\n")
        for i, conn in enumerate(mesh.element_nodes(np.arange(mesh.n_elements))):
            f.write("elem " + str(i) + " " + " ".join(str(v) for v in conn) + "\n")
        for i, ((a, b), (l, r)) in enumerate(zip(mesh.edge_nodes(ids), mesh.edge_elements(ids))):
            f.write(f"edge {i} {a} {b} {l} {r}\n")


# ---------------------------------------------------------------------------
# interface geometry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InterfaceGeometry:
    """Implicit curve phi(x, y) = 0 with phi < 0 on the minus subdomain.

    `phi`, `grad` and `reach` must accept numpy arrays, x broadcasting
    against y; `grad` returns (gx, gy). Values of phi within SNAP_TOL * h of
    0 snap onto the curve. `reach(x, y, l)` bounds |phi(q) - phi(x, y)|
    exactly from above for all q within l of (x, y): `classify_elements`
    audits for crossings the edges of the elements around the nodes where
    |phi| is within reach of twice the longest edge, and along every other
    edge phi keeps a strict sign. A curve with no known bound returns inf,
    and every edge is audited.
    """

    phi: Callable
    grad: Callable
    reach: Callable


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

    def reach(x, y, l):     # |q-c|^2 - |p-c|^2 = (q-p).(2(p-c) + (q-p))
        return 2.0 * np.sqrt(np.square(x - cx) + np.square(y - cy)) * l + l * l

    return InterfaceGeometry(phi, grad, reach)


def line(a, b, c) -> InterfaceGeometry:
    """phi = a*x + b*y + c."""
    if a == 0 and b == 0:
        raise ConfigError("line normal must be nonzero")

    def phi(x, y):
        return a * x + b * y + c

    def grad(x, y):
        return a * np.ones_like(np.asarray(x, float)), b * np.ones_like(np.asarray(y, float))

    def reach(x, y, l):
        return np.hypot(a, b) * l

    return InterfaceGeometry(phi, grad, reach)


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

# points per block of the pointwise sweeps (the edge audit of
# `edge_crossings`, `bulk_sweep` over the standard elements and
# `cut_sweep` over the cut ones, which the load, the error norms and the cut
# stiffness matrices share). Each of their arrays then takes at most 256 kB,
# which the allocator serves again from freed memory; multi-megabyte
# temporaries are mapped afresh on every pass, and their page faults cost
# more than the arithmetic. The consumers accumulate per block, so nothing
# element-sized outlives one.
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


def _sign_changes(signs):
    """Where the sign changes along each row of `signs`, zeros skipped:
    (changes, last), both (n, 16). changes[:, c] marks sample c + 1 as
    strictly signed against the latest nonzero sample up to c, and
    last[:, c] is that sample's column."""
    cols = np.arange(signs.shape[1])
    last = np.maximum.accumulate(np.where(signs != 0, cols, 0), axis=1)[:, :-1]
    return np.take_along_axis(signs, last, axis=1) * signs[:, 1:] < 0, last


def edge_crossings(p0, p1, iface: InterfaceGeometry, h):
    """Interface crossings of the segments p0[i] -> p1[i], the audit of
    `classify_elements`: one walk over 17 samples of each, in blocks of
    `_AUDIT_ROWS` segments, with |phi| < SNAP_TOL*h snapped onto the curve.

    The first segment whose strictly-signed samples change sign more than
    once raises MultipleCrossings with its row and sign changes. A segment
    whose signs change once is crossed; a snapped endpoint thus adds no
    crossing of its own, but does not hide one inside the segment. One
    bisection loop resolves every crossing parameter to 1e-14 from the last
    sample of one sign and the first of the other (interior samples may sit
    inside the snap band around the crossing). Returns (hit, points): a
    boolean mask and (n, 2) crossing points, NaN where there is none.
    """
    p0 = np.asarray(p0, float).reshape(-1, 2)
    p1 = np.asarray(p1, float).reshape(-1, 2)
    tol = SNAP_TOL * h
    brackets = []
    # one block at least, so that no segments give empty brackets
    for lo in range(0, max(len(p0), 1), _AUDIT_ROWS):
        vals, signs = _edge_signs(p0[lo:lo + _AUDIT_ROWS], p1[lo:lo + _AUDIT_ROWS], iface, tol)
        # all but the rows of one strict sign throughout
        r = np.flatnonzero((signs.min(axis=1) <= 0) & (signs.max(axis=1) >= 0))
        changes, last = _sign_changes(signs[r])
        flips = np.count_nonzero(changes, axis=1)
        if (flips > 1).any():
            f = int(np.argmax(flips > 1))
            i = lo + int(r[f])
            raise MultipleCrossings(f"interface crosses segment {p0[i]}->{p1[i]} more than once; "
                                    "refine the mesh", i, int(flips[f]))
        once = flips == 1
        c = np.argmax(changes[once], axis=1)
        k = np.take_along_axis(last[once], c[:, None], axis=1)[:, 0]
        brackets.append((lo + r[once], k, c + 1, vals[r[once], k]))
    rows, k, j, fa = map(np.concatenate, zip(*brackets))
    a, b = _EDGE_SAMPLES[k], _EDGE_SAMPLES[j]
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
    hit = np.zeros(len(p0), dtype=bool)
    hit[rows] = True
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
    vertex (`cut_sweep` integrates the first n_minus / n_plus only). Element
    edge i (V_i -> V_i+1) is split at `edge_splits[:, i]`: at the chord end
    on it, else at its end vertex. `local_basis.build_bases` fills in the
    coefficient pair (beta-, beta+) of the IFE space, the immersed
    coefficients and the frames of their scaled monomials.
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
    cm: Optional[np.ndarray] = None      # (K, d, m) minus-piece coefficients
    cp: Optional[np.ndarray] = None      # (K, d, m) plus-piece coefficients
    origin: Optional[np.ndarray] = None  # (K, 2) lower-left corner of each frame
    h: Optional[np.ndarray] = None       # (K,) size of each frame
    beta: Optional[tuple] = None         # (beta_minus, beta_plus) of the bases

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


def _distinct(ids):
    """np.unique of the ids (>= 0) `ids`, from a sort and a mask in a
    fraction of its time."""
    ids = np.sort(ids, axis=None)
    return ids[np.diff(ids, prepend=-1) != 0]


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
    h, n = mesh.h, mesh.n_cells
    tol = SNAP_TOL * h
    # phi on a row of node x against a column of node y, by broadcasting
    x, y = mesh.xs, mesh.ys[:, None]
    node_phi = np.asarray(iface.phi(x, y), float)
    node_sign = _snapped_sign(node_phi, tol).ravel()

    # the edges the curve may reach, audited for hidden double crossings as
    # their crossings are solved; the reach of two edges, not one, absorbs
    # the round-off of phi and of the sample points
    l = 2.0 * (np.hypot(h, h) if mesh.cell_kind == TRI else h)
    near = np.flatnonzero(np.abs(node_phi) <= iface.reach(x, y, l) + tol)
    audit = _distinct(mesh.element_edges(mesh.node_elements(near)))
    ends = mesh.node_coords(mesh.edge_nodes(audit))
    try:
        hit, points = edge_crossings(ends[:, 0], ends[:, 1], iface, h)
    except MultipleCrossings as err:
        raise MultipleCrossings(f"edge {audit[err.row]} is crossed {err.crossings} times; "
                                "refine the mesh") from err
    crossed = audit[hit]

    # side of phi at the centroids, per cell variant on a row of x against a
    # column of y: a centroid's x, the mean of its vertices' x in vertex
    # order, depends on the cell's column only, and its y on its row only
    status = np.empty((n, n, mesh._nvar), dtype=np.int8)
    for v, (di, dj) in enumerate(_CORNERS[mesh.cell_kind].transpose(0, 2, 1)):
        cx = np.mean([x[d:d + n] for d in di], axis=0)
        cy = np.mean([y[d:d + n] for d in dj], axis=0)
        status[..., v] = np.where(np.asarray(iface.phi(cx, cy), float) > 0, SIDE_PLUS, SIDE_MINUS)
    status = status.ravel()

    touched = np.zeros(mesh.n_elements, dtype=bool)
    touched[mesh.node_elements(np.flatnonzero(node_sign == 0))] = True
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
    conn = mesh.element_nodes(ids)
    verts = mesh.node_coords(conn)
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

    plus = a_plus[k]
    return CutSet(ids[k], verts[k], D[k], E[k], n,
                  np.where(plus[:, None, None], pb[k], pa[k]),
                  np.where(plus[:, None, None], pa[k], pb[k]),
                  np.where(plus, nb[k], na[k]), np.where(plus, na[k], nb[k]),
                  edge_splits[k], cut_edges[k])


# side b of the node boxes of `lattice_aggregates` per mesh kind, from AMG
# iterations and times at N = 160-640: 3 x 3 boxes take SPP on tri at beta+ =
# 1e4 from 20 to 28 iterations; 2 x 2 boxes make a rect case 21 % slower
# (N=160, beta+ = 1e4: the context, SPP and NPP)
AGGREGATE_BOX = {RECT: 3, TRI: 2}


def lattice_aggregates(mesh: CartesianMesh, iface: InterfaceGeometry):
    """The aggregates of every level of `linsolve.SAHierarchy`, from the
    node lattice: one (labels, count) pair per level.

    Level 0 labels the interior nodes in ascending order, the free nodes of
    `assembly.DirichletSplit`:
    node (i, j) lies in box (i // b, j // b) of the node lattice, b =
    AGGREGATE_BOX[cell_kind], and each box is split by the side of its nodes,
    plus where phi > 0; phi is evaluated on a row of interior x against a
    column of interior y, by broadcasting. Level k + 1 applies the same rule
    to the aggregates of level k: one in box (p, q) on one side goes to box
    (p // b, q // b) on that side. Each level numbers its aggregates 0.. in
    the order of (box, side), with the empty ones left out; the last level
    is the first with a single box.
    """
    n, b = mesh.n_cells, AGGREGATE_BOX[mesh.cell_kind]
    x, y = mesh.xs[1:n], mesh.ys[1:n]
    side = np.asarray(iface.phi(x, y[:, None])) > 0
    # positions (i, j) to put in boxes: on level 0 the interior lattice, a
    # row of i against a column of j; then one per aggregate of the level below
    i = np.arange(1, n)
    j = i[:, None]
    top, levels = n - 1, []              # top: the largest position
    while top:
        i, j, top = i // b, j // b, top // b
        key = (2 * ((top + 1) * j + i) + side).ravel()
        used = np.bincount(key, minlength=2 * (top + 1) ** 2) > 0
        levels.append(((np.cumsum(used) - 1)[key], int(used.sum())))
        j, key = np.divmod(np.flatnonzero(used), 2 * (top + 1))
        i, side = np.divmod(key, 2)
    return levels


def interface_edges(mesh: CartesianMesh, cuts: CutSet) -> np.ndarray:
    """Ids of the interface edges, ascending: the interior edges of the cut
    elements of `cuts`, the edges that carry the stabilization terms."""
    edges = _distinct(mesh.element_edges(cuts.ids))
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
    nvar = mesh._nvar
    for variant, table in tables.items():
        # per side, the positions k among the variant's elements, whose ids
        # are variant + nvar k: no element-sized id array
        minus, plus = (np.flatnonzero(status[variant::nvar] == side)
                       for side in (SIDE_MINUS, SIDE_PLUS))
        spts = table[1]
        rows = max(1, _SWEEP_POINTS // len(spts))
        hx, hy = mesh.h * spts[:, 0], mesh.h * spts[:, 1]
        m = len(minus)
        for lo in range(0, m + len(plus), rows):
            block = variant + nvar * np.concatenate([minus[lo:lo + rows],
                                                     plus[max(lo - m, 0):max(lo + rows - m, 0)]])
            origin = mesh.element_frames(block)[0]
            x, y = origin[:, :1] + hx, origin[:, 1:] + hy
            yield table, block, x, y, np.asarray(iface.phi(x, y)) < 0
        del minus, plus                 # before the next variant's


def cut_sweep(cuts: CutSet, degree, refine=0):
    """`quadrature.fan_rule` on both chord sides of the cut elements, minus
    (0) first, without padding: the rows whose sub-polygon has n vertices
    get the rule of their first n, the padded rule's first points. Yields
    (side, rows, points, weights), ascending rows of one n, at most
    `_SWEEP_POINTS` points per block."""
    per_tri = 4 ** refine * _collapsed_triangle_rule(degree).n_points
    for side, (poly, count) in enumerate(((cuts.poly_minus, cuts.n_minus),
                                          (cuts.poly_plus, cuts.n_plus))):
        for n in np.unique(count):
            rows = np.flatnonzero(count == n)
            step = max(1, _SWEEP_POINTS // ((n - 2) * per_tri))
            for lo in range(0, len(rows), step):
                block = rows[lo:lo + step]
                yield (side, block) + fan_rule(poly[block, :n], degree, refine)
