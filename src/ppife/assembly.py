"""Global assembly of the partially penalized immersed finite element system.

The bilinear form is

    sum_K int_K beta grad(u) . grad(v)
  + delta   * sum_B int_B {beta grad(u) . n_B} [v]
  + epsilon * sum_B int_B {beta grad(v) . n_B} [u]
  + sum_B sigma0 / |B|^alpha * int_B [u][v]

with the edge sums over interior interface edges only. Averages are the plain
1/2-1/2 mean of the two element traces; jumps are trace(T1) - trace(T2) with
T1 the lower-index element and n_B oriented from T1 to T2. The scheme presets
are classic (0, 0, 0), SPP (-1, -1, 10 max beta), IPP (-1, 0, 10 max beta),
and NPP (-1, +1, 1).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.io
import scipy.sparse as sp

from .errors import ConfigError
from .geometry import EDGE_INTERFACE, RECT, SIDE_MINUS, edge_split_points
from .local_basis import (standard_gradients, standard_values, template_gradients,
                          template_values)
from .quadrature import (map_triangle, rect_rule, split_edge_rule,
                         split_polygon_rule, _collapsed_triangle_rule,
                         fan_triangles, _subdivide)

VOLUME_DEGREE = 4
EDGE_DEGREE = 4
DATA_DEGREE = 6      # load / error integrands (non-polynomial data)
DATA_REFINE = 1      # uniform sub-triangle refinement on cut elements

SCHEMES = ("classic", "spp", "ipp", "npp")


@dataclass(frozen=True)
class MethodParams:
    """Scheme parameters: edge-term signs, penalty rule, penalty exponent."""

    scheme: str
    delta: float
    epsilon: float
    sigma0: float
    alpha: float = 1.0

    def __post_init__(self):
        if self.alpha < 1.0:
            raise ConfigError("penalty exponent alpha must be >= 1")

    @staticmethod
    def preset(name, beta_minus=1.0, beta_plus=1.0, sigma0=None, alpha=1.0):
        name = name.lower()
        if name == "classic":
            return MethodParams("classic", 0.0, 0.0, 0.0 if sigma0 is None else sigma0, alpha)
        if name == "spp":
            s = 10.0 * max(beta_minus, beta_plus) if sigma0 is None else sigma0
            return MethodParams("spp", -1.0, -1.0, s, alpha)
        if name == "ipp":
            s = 10.0 * max(beta_minus, beta_plus) if sigma0 is None else sigma0
            return MethodParams("ipp", -1.0, 0.0, s, alpha)
        if name == "npp":
            return MethodParams("npp", -1.0, 1.0, 1.0 if sigma0 is None else sigma0, alpha)
        raise ConfigError(f"unknown scheme {name!r}; choose from {SCHEMES}")


# ---------------------------------------------------------------------------
# volume terms
# ---------------------------------------------------------------------------

def _q1_ref_stiffness():
    rule = rect_rule(2)
    G = template_gradients("rect", rule.points)  # scaled gradients on [0,1]^2
    return np.einsum("q,iqa,jqa->ij", rule.weights, G, G)


_S_Q1 = _q1_ref_stiffness()


def _p1_stiffness_batch(verts, coef):
    """Local P1 stiffness matrices for a batch of triangles, (ne, 3, 3)."""
    x = verts[:, :, 0]
    y = verts[:, :, 1]
    b = y[:, [1, 2, 0]] - y[:, [2, 0, 1]]
    c = x[:, [2, 0, 1]] - x[:, [1, 2, 0]]
    area2 = x[:, 0] * b[:, 0] + x[:, 1] * b[:, 1] + x[:, 2] * b[:, 2]  # 2*area (CCW > 0)
    scale = coef / (2.0 * area2)
    return (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]) * scale[:, None, None]


def volume_element_matrix(basis, cut, beta_minus, beta_plus, degree=VOLUME_DEGREE):
    """Stiffness matrix of one cut element: both chord sides, each with its beta."""
    d = basis.n_funcs
    A = np.zeros((d, d))
    for side, poly, b in ((SIDE_MINUS, cut.poly_minus, beta_minus),
                          (-SIDE_MINUS, cut.poly_plus, beta_plus)):
        rule = split_polygon_rule(poly, degree)
        G = basis.gradients_piece(rule.points, side)
        A += b * np.einsum("q,iqa,jqa->ij", rule.weights, G, G)
    return A


def assemble_volume(mesh, status, cuts, bases, beta_minus, beta_plus):
    """Stiffness matrix sum_K int_K beta grad(phi_i) . grad(phi_j), CSR."""
    n = mesh.n_nodes
    d = mesh.n_local
    bulk = np.flatnonzero(status != 0)
    coef = np.where(status == SIDE_MINUS, beta_minus, beta_plus)[bulk]

    rows, cols, data = [], [], []
    if len(bulk):
        conn = mesh.elements[bulk]
        if mesh.cell_kind == RECT:
            blocks = coef[:, None, None] * _S_Q1[None, :, :]
        else:
            blocks = _p1_stiffness_batch(mesh.nodes[conn], coef)
        rows.append(np.repeat(conn, d, axis=1).ravel())
        cols.append(np.tile(conn, (1, d)).ravel())
        data.append(blocks.ravel())

    for k, cut in cuts.items():
        Aloc = volume_element_matrix(bases[k], cut, beta_minus, beta_plus)
        conn = mesh.elements[k]
        rows.append(np.repeat(conn, d))
        cols.append(np.tile(conn, d))
        data.append(Aloc.ravel())

    A = sp.coo_matrix((np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(n, n)).tocsr()
    A.sum_duplicates()
    A.eliminate_zeros()
    A.sort_indices()
    return A


# ---------------------------------------------------------------------------
# edge terms
# ---------------------------------------------------------------------------

class EdgeSide(NamedTuple):
    """One neighbour's trace on the quadrature points of an interface edge."""

    element: int
    values: np.ndarray      # (d, nq), as LocalBasis.values / standard_values give them
    gradients: np.ndarray   # (d, nq, 2)
    beta: np.ndarray        # (nq,) coefficient of the active side per point


class EdgeTrace(NamedTuple):
    """Split rule of one interface edge and both traces on it; sides[0] is the
    lower-index element, which the edge normal points away from."""

    edge: int
    points: np.ndarray
    weights: np.ndarray
    sides: tuple


def edge_traces(mesh, edge_labels, status, cuts, bases, beta_minus, beta_plus,
                degree=EDGE_DEGREE):
    """An EdgeTrace per interface edge, in ascending edge order.

    This is the one walk over interface edges: the edge terms, the penalty
    jumps of the energy norm and the interpolation-flux scan all read it.
    """
    traces = []
    for e in np.flatnonzero(edge_labels == EDGE_INTERFACE).tolist():
        a, b = mesh.nodes[mesh.edge_nodes[e]]
        rule = split_edge_rule(a, b, edge_split_points(mesh, e, cuts), degree)
        pts = rule.points
        sides = []
        for k in mesh.edge_elements[e].tolist():
            basis = bases.get(k)
            if basis is None:
                beta = np.full(len(pts), beta_minus if status[k] == SIDE_MINUS else beta_plus)
                sides.append(EdgeSide(k, standard_values(mesh, k, pts),
                                      standard_gradients(mesh, k, pts), beta))
            else:
                beta = np.where(basis.side_plus_mask(pts), beta_plus, beta_minus)
                sides.append(EdgeSide(k, basis.values(pts), basis.gradients(pts), beta))
        traces.append(EdgeTrace(e, pts, rule.weights, tuple(sides)))
    return traces


def edge_term_matrices(mesh, trace, alpha):
    """Consistency matrix M_loc[i,j] = int_B {beta grad(phi_j).n}[phi_i] and the
    unit penalty matrix |B|^-alpha int_B [phi_i][phi_j] of one edge, with the
    dof list (both elements' nodes, once each) they refer to."""
    conn = [mesh.elements[side.element].tolist() for side in trace.sides]
    dofs = list(dict.fromkeys(conn[0] + conn[1]))
    nB = mesh.edge_normals[trace.edge]
    w = trace.weights
    jump = np.zeros((len(dofs), len(w)))
    flux = np.zeros_like(jump)
    for side, nodes, sign in zip(trace.sides, conn, (1.0, -1.0)):
        loc = [dofs.index(g) for g in nodes]
        jump[loc] += sign * side.values
        flux[loc] += 0.5 * (side.beta[None, :] * np.einsum("dqa,a->dq", side.gradients, nB))
    M = np.einsum("q,iq,jq->ij", w, jump, flux)
    P = 1.0 / mesh.edge_lengths[trace.edge] ** alpha * np.einsum("q,iq,jq->ij", w, jump, jump)
    return dofs, M, P


def assemble_edge_terms(mesh, edge_labels, status, cuts, bases, beta_minus, beta_plus, alpha):
    """Assemble (M, P_unit, traces) over the interface edges: the consistency
    matrix, the penalty matrix at sigma0 = 1 (`combine_system` weighs both per
    scheme) and the `edge_traces` records the sums were taken over."""
    traces = edge_traces(mesh, edge_labels, status, cuts, bases, beta_minus, beta_plus)
    n = mesh.n_nodes
    rows, cols, mdata, pdata = [np.zeros(0, int)], [np.zeros(0, int)], [np.zeros(0)], [np.zeros(0)]
    for trace in traces:
        dofs, M, P = edge_term_matrices(mesh, trace, alpha)
        rows.append(np.repeat(dofs, len(dofs)))
        cols.append(np.tile(dofs, len(dofs)))
        mdata.append(M.ravel())
        pdata.append(P.ravel())
    r = np.concatenate(rows)
    c = np.concatenate(cols)
    M = sp.coo_matrix((np.concatenate(mdata), (r, c)), shape=(n, n)).tocsr()
    P = sp.coo_matrix((np.concatenate(pdata), (r, c)), shape=(n, n)).tocsr()
    for X in (M, P):
        X.sum_duplicates()
        X.eliminate_zeros()
        X.sort_indices()
    return M, P, traces


def combine_system(A_vol, M, P_unit, params: MethodParams):
    """Full scheme matrix A_vol + delta*M + epsilon*M^T + sigma0*P_unit."""
    A = (A_vol + params.delta * M + params.epsilon * M.T + params.sigma0 * P_unit).tocsr()
    A.sum_duplicates()
    A.eliminate_zeros()
    A.sort_indices()
    return A


# ---------------------------------------------------------------------------
# load vector
# ---------------------------------------------------------------------------

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


def bulk_rules(mesh, degree):
    """Scaled quadrature rule per cell variant: {variant: (template, points, weights)}."""
    if mesh.cell_kind == RECT:
        rule = rect_rule(degree)
        return {0: ("rect", rule.points, rule.weights)}
    ref = _collapsed_triangle_rule(degree)
    # map reference (0,0)-(1,0)-(0,1) onto the two cell triangles in scaled coords
    J_low = np.column_stack([[1.0, 0.0], [1.0, 1.0]])   # (0,0),(1,0),(1,1)
    J_up = np.column_stack([[1.0, 1.0], [0.0, 1.0]])    # (0,0),(1,1),(0,1)
    out = {}
    for variant, J, name in ((0, J_low, "tri_lower"), (1, J_up, "tri_upper")):
        pts = ref.points @ J.T
        det = abs(np.linalg.det(J))
        out[variant] = (name, pts, ref.weights * det)
    return out


def bulk_chunks(mesh, status, tables):
    """Non-interface elements in chunks, with the physical points of a rule.

    `tables` maps each cell variant to a tuple whose first two entries are the
    template name and the scaled points (as `bulk_rules` returns). Yields
    (table, element ids, x, y) with x, y of shape (len(ids), n_points).
    """
    bulk = np.flatnonzero(status != 0)
    h = mesh.h
    for variant, table in tables.items():
        if mesh.cell_kind == RECT:
            ids = bulk
        else:
            ids = bulk[mesh.element_variant[bulk] == variant]
        if len(ids) == 0:
            continue
        spts = table[1]
        for chunk in np.array_split(ids, max(1, len(ids) // 50000)):
            pts = mesh.element_origins[chunk][:, None, :] + h * spts[None, :, :]
            yield table, chunk, pts[..., 0], pts[..., 1]


def assemble_load(mesh, status, cuts, bases, solution, iface, degree=DATA_DEGREE,
                  refine=DATA_REFINE):
    """Load vector b_i = sum_K int_K f phi_i with the data-side of f chosen by
    the exact level set at each quadrature point."""
    b = np.zeros(mesh.n_nodes)
    h = mesh.h
    for (name, spts, swts), chunk, x, y in bulk_chunks(mesh, status, bulk_rules(mesh, degree)):
        V = template_values(name, spts)              # (d, nq)
        w = swts * h * h                             # physical weights
        minus = np.asarray(iface.phi(x, y)) < 0
        f = np.where(minus, solution.f_minus(x, y), solution.f_plus(x, y))
        loc = (f * w[None, :]) @ V.T                 # (nc, d)
        np.add.at(b, mesh.elements[chunk], loc)

    for k, cut in cuts.items():
        basis = bases[k]
        acc = np.zeros(basis.n_funcs)
        for _side, pts, wts in cut_data_rules(cut, degree, refine):
            x, y = pts[:, 0], pts[:, 1]
            minus = np.asarray(iface.phi(x, y)) < 0
            f = np.where(minus, solution.f_minus(x, y), solution.f_plus(x, y))
            acc += basis.values(pts) @ (f * wts)
        b[mesh.elements[k]] += acc
    return b


# ---------------------------------------------------------------------------
# boundary conditions
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class SparseSystem:
    """Assembled system with Dirichlet bookkeeping.

    `A` and `b` are the full (all-node) matrix and load; boundary dofs carry
    interpolated boundary values and are eliminated in `reduced()`.
    """

    A: sp.csr_matrix
    b: np.ndarray
    boundary: np.ndarray
    boundary_values: np.ndarray
    free: np.ndarray

    def reduced(self):
        A_ff = self.A[self.free][:, self.free].tocsr()
        rhs = self.b[self.free] - self.A[self.free][:, self.boundary] @ self.boundary_values
        return A_ff, rhs

    def expand(self, x_free):
        x = np.empty(self.A.shape[0])
        x[self.free] = x_free
        x[self.boundary] = self.boundary_values
        return x

    @property
    def dirichlet(self):
        return dict(zip(self.boundary.tolist(), self.boundary_values.tolist()))


def apply_dirichlet(A, b, mesh, g) -> SparseSystem:
    """Fix boundary dofs to the nodal interpolation of g(x, y)."""
    bd = mesh.boundary_nodes
    vals = np.asarray(g(mesh.nodes[bd, 0], mesh.nodes[bd, 1]), float)
    return SparseSystem(A, b, bd, vals, mesh.interior_nodes)


def dump_matrix(path, A):
    """MatrixMarket coordinate dump of a sparse matrix."""
    scipy.io.mmwrite(str(path), A.tocoo())
