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
from .geometry import _CORNERS, RECT, SIDE_MINUS, bulk_sweep, cut_sweep
from .local_basis import (_monomials, cut_frame, cut_gradients, cut_values, piece_gradients,
                          piece_values, template_coefs, template_gradients, template_values)
from .quadrature import _collapsed_triangle_rule, map_segment, rect_rule, segment_rule

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

def cut_volume_matrices(cuts, beta_minus, beta_plus, degree=VOLUME_DEGREE):
    """Stiffness matrices (K, d, d) of the cut elements: each chord side's
    sub-polygon with its piece and its beta, over the blocks of `cut_sweep`."""
    A = np.zeros(cuts.cm.shape[:2] + cuts.cm.shape[1:2])
    for side, rows, pts, w in cut_sweep(cuts, degree):
        c = (cuts.cm, cuts.cp)[side][rows]
        G = piece_gradients(c, (pts - cuts.origin[rows, None]) / cuts.h[rows, None, None],
                            cuts.h[rows])
        A[rows] += (beta_minus, beta_plus)[side] * np.einsum("kq,kiqa,kjqa->kij", w, G, G)
    return A


def assemble_volume(mesh, status, cuts, beta_minus, beta_plus):
    """Stiffness matrix sum_K int_K beta grad(phi_i) . grad(phi_j), CSR.

    Each row is a 9-point (rectangles) or 7-point (triangles) stencil over
    the node's neighbours. Shifted array adds fill it with beta times the
    unit stiffness matrix of each standard element's cell variant, which in
    2D does not depend on h, and the cut elements' matrices are added after.
    Each entry sums the standard elements in ascending element order, then
    the cut ones in ascending order."""
    n, d, nn = mesh.n_cells, mesh.n_local, mesh.n_nodes
    corners = _CORNERS[mesh.cell_kind]
    nvar = len(corners)
    unit = []                                     # per variant, (d, d)
    for name, pts, w in bulk_rules(mesh, 2).values():
        G = template_gradients(name, pts)
        unit.append(np.einsum("q,iqa,jqa->ij", w, G, G))
    # node-index offset from local vertex l to m, and its stencil slot
    gap = (corners[:, None, :] - corners[:, :, None]) @ [1, n + 1]   # (nvar, d, d)
    offsets = np.unique(gap)
    slot = np.searchsorted(offsets, gap)
    coef = np.array([beta_minus, 0.0, beta_plus])[status + 1].reshape(n, n, nvar)  # 0 if cut
    acc = np.zeros((len(offsets), n + 1, n + 1))
    # node (i, j) is vertex l of the element in cell (i, j) - corner l, so
    # (-dj, -di, variant) ascending is ascending element id
    for v, l, m in sorted(np.ndindex(nvar, d, d),
                          key=lambda t: (-corners[t[0], t[1], 1], -corners[t[0], t[1], 0], t[0])):
        di, dj = corners[v, l]
        acc[slot[v, l, m], dj:dj + n, di:di + n] += coef[..., v] * unit[v][l, m]
    conn = mesh.elements[cuts.ids]
    np.add.at(acc.reshape(-1), (slot[cuts.ids % nvar] * nn + conn[:, :, None]).ravel(),
              cut_volume_matrices(cuts, beta_minus, beta_plus).ravel())

    acc = acc.reshape(len(offsets), nn).T                            # (node, slot)
    keep = acc != 0
    idx = np.int32 if nn * len(offsets) < 2 ** 31 else np.int64
    indptr = np.zeros(nn + 1, dtype=idx)
    np.cumsum(np.count_nonzero(keep, axis=1), out=indptr[1:])
    cols = (np.arange(nn, dtype=idx)[:, None] + offsets.astype(idx))[keep]
    return sp.csr_matrix((acc[keep], cols, indptr), shape=(nn, nn))


# ---------------------------------------------------------------------------
# edge terms
# ---------------------------------------------------------------------------

class EdgeTraces(NamedTuple):
    """The interface edges in ascending order, their split Gauss rules and
    both neighbours' traces on them. Side 0 is the lower-index element, which
    the edge normal points away from. Every edge is split in two: at the
    chord end that lies inside it, or else at its end vertex, which leaves a
    zero-weight second piece."""

    edges: np.ndarray       # (B,)
    elements: np.ndarray    # (B, 2) the neighbours, lower index first
    points: np.ndarray      # (B, nq, 2)
    weights: np.ndarray     # (B, nq)
    values: np.ndarray      # (B, 2, d, nq), or None when not asked for
    gradients: np.ndarray   # (B, 2, d, nq, 2)
    beta: np.ndarray        # (B, 2, nq) coefficient of the active side per point


def edge_traces(mesh, edges, status, cuts, beta_minus, beta_plus,
                degree=EDGE_DEGREE, values=True):
    """The EdgeTraces of the interior edges `edges` (ascending ids, the
    `geometry.interface_edges` of `cuts` in a solve).

    This is the one walk over interface edges: the edge terms, the penalty
    jumps of the energy norm and the interpolation-flux scan all read it.
    The cut neighbours and the standard ones of each side are evaluated as
    two stacks; `values=False` skips the values.
    """
    B = len(edges)
    ends = mesh.edge_nodes(edges)
    a = mesh.nodes[ends[:, 0]]
    d = mesh.nodes[ends[:, 1]] - a
    # the chord end of an adjacent cut that lies inside the edge, if any
    hit = np.isin(cuts.cut_edges, edges)
    split = np.full((B, 2), np.nan)
    split[np.searchsorted(edges, cuts.cut_edges[hit])] = np.stack([cuts.D, cuts.E], axis=1)[hit]
    length = np.sqrt(np.vecdot(d, d))
    t = np.vecdot(split - a, d) / (length * length)
    t = np.where((t > 1e-12) & (t < 1 - 1e-12), t, 1.0)
    breaks = np.column_stack([np.zeros(B), t, np.ones(B)])[..., None]
    rule = segment_rule(degree)
    pts, w = map_segment(rule, a[:, None] + breaks[:, :-1] * d[:, None],
                         a[:, None] + breaks[:, 1:] * d[:, None])
    nv, nq = mesh.n_local, 2 * rule.n_points
    pts, w = pts.reshape(B, nq, 2), w.reshape(B, nq)

    row_of = np.full(mesh.n_elements, -1)
    row_of[cuts.ids] = np.arange(len(cuts))
    els = mesh.edge_elements(edges)
    V = np.empty((B, 2, nv, nq)) if values else None
    G = np.empty((B, 2, nv, nq, 2))
    beta = np.empty((B, 2, nq))
    for s in (0, 1):
        rows = row_of[els[:, s]]
        cut = rows >= 0
        xi, plus = cut_frame(cuts, rows[cut], pts[cut])
        if values:
            V[cut, s] = cut_values(cuts, rows[cut], xi, plus)
        G[cut, s] = cut_gradients(cuts, rows[cut], xi, plus)
        beta[cut, s] = np.where(plus, beta_plus, beta_minus)
        k = els[~cut, s]
        C = template_coefs(mesh, k)
        xi = (pts[~cut] - mesh.element_origins[k][:, None]) / mesh.element_h[k][:, None, None]
        if values:
            V[~cut, s] = piece_values(C, xi)
        G[~cut, s] = piece_gradients(C, xi, mesh.element_h[k])
        beta[~cut, s] = np.where(status[k] == SIDE_MINUS, beta_minus, beta_plus)[:, None]
    return EdgeTraces(edges, els, pts, w, V, G, beta)


def edge_term_matrices(mesh, traces, alpha):
    """Consistency matrices M_loc[i,j] = int_B {beta grad(phi_j).n}[phi_i] and
    unit penalty matrices |B|^-alpha int_B [phi_i][phi_j] of the edges of
    `traces`, (B, nd, nd) each, with the dofs (B, nd) they refer to: the
    lower-index element's nodes, then the other element's remaining ones."""
    c0, c1 = mesh.elements[traces.elements[:, 0]], mesh.elements[traces.elements[:, 1]]
    B, nv = c0.shape
    extra = c1[~(c1[:, :, None] == c0[:, None, :]).any(axis=2)].reshape(B, nv - 2)
    dofs = np.concatenate([c0, extra], axis=1)
    loc1 = np.argmax(c1[:, :, None] == dofs[:, None, :], axis=2)
    nB = mesh.edge_normals(traces.edges)
    flux_side = 0.5 * (traces.beta[:, :, None, :]
                       * np.einsum("bsdqa,ba->bsdq", traces.gradients, nB))
    w = traces.weights
    jump = np.zeros((B, dofs.shape[1], w.shape[1]))
    flux = np.zeros_like(jump)
    jump[:, :nv] += traces.values[:, 0]
    flux[:, :nv] += flux_side[:, 0]
    rows = np.arange(B)[:, None]
    jump[rows, loc1] += -traces.values[:, 1]
    flux[rows, loc1] += flux_side[:, 1]
    M = np.einsum("bq,biq,bjq->bij", w, jump, flux)
    P = (1.0 / mesh.edge_lengths(traces.edges) ** alpha)[:, None, None] * np.einsum(
        "bq,biq,bjq->bij", w, jump, jump)
    return dofs, M, P


def assemble_edge_terms(mesh, edges, status, cuts, beta_minus, beta_plus, alpha):
    """Assemble (M, P_unit, traces) over the interface edges `edges`: the consistency
    matrix, the penalty matrix at sigma0 = 1 (`combine_system` weighs both per
    scheme) and the `edge_traces` the sums were taken over."""
    traces = edge_traces(mesh, edges, status, cuts, beta_minus, beta_plus)
    dofs, M, P = edge_term_matrices(mesh, traces, alpha)
    nd = dofs.shape[1]
    r, c = np.repeat(dofs, nd, axis=1).ravel(), np.tile(dofs, (1, nd)).ravel()
    n = mesh.n_nodes
    out = []
    for X in (M, P):
        X = sp.coo_matrix((X.ravel(), (r, c)), shape=(n, n)).tocsr()
        X.sum_duplicates()
        X.eliminate_zeros()
        X.sort_indices()
        out.append(X)
    return out[0], out[1], traces


def scheme_sum(params: MethodParams, A_vol, M, Mt, P_unit):
    """A scheme's weighted sum of its four terms (matrices, or their lifts)."""
    return A_vol + params.delta * M + params.epsilon * Mt + params.sigma0 * P_unit


def combine_system(A_vol, M, P_unit, params: MethodParams):
    """Scheme matrix A_vol + delta*M + epsilon*M^T + sigma0*P_unit, on the
    nodes the terms are given on (the free nodes in a solve)."""
    A = scheme_sum(params, A_vol, M, M.T, P_unit).tocsr()
    A.sum_duplicates()
    A.eliminate_zeros()
    A.sort_indices()
    return A


# ---------------------------------------------------------------------------
# load vector
# ---------------------------------------------------------------------------

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


def cut_data_rules(cuts, iface, degree=DATA_DEGREE, refine=DATA_REFINE):
    """The refined fan rules of the load and the error norms over the cut
    elements: the blocks (side, rows, points, weights) of
    `geometry.cut_sweep`, each with whether phi < 0 at its points appended.
    A context builds them once."""
    return [(side, rows, pts, wts, np.asarray(iface.phi(pts[..., 0], pts[..., 1])) < 0)
            for side, rows, pts, wts in cut_sweep(cuts, degree, refine)]


def assemble_load(mesh, status, cuts, solution, iface, degree=DATA_DEGREE,
                  refine=DATA_REFINE, rules=None):
    """Load vector b_i = sum_K int_K f phi_i with the data-side of f chosen by
    the exact level set at each quadrature point. `rules` are the
    `cut_data_rules` of `cuts`, made here when not given. A chord side's rule
    lies on its piece: the piece's coefficients times sum_q w f mono(xi_q)."""
    b = np.zeros(mesh.n_nodes)
    h = mesh.h
    tables = {v: (template_values(name, spts).T, spts, swts * h * h)
              for v, (name, spts, swts) in bulk_rules(mesh, degree).items()}
    for (V, _, w), ids, x, y, minus in bulk_sweep(mesh, status, iface, tables):
        np.add.at(b, mesh.elements[ids], (solution.f(x, y, minus) * w) @ V)

    if len(cuts):
        acc = np.zeros(cuts.cm.shape[:2] + (1,))
        for side, rows, pts, wts, minus in rules or cut_data_rules(cuts, iface, degree, refine):
            c = (cuts.cm, cuts.cp)[side][rows]
            fw = solution.f(pts[..., 0], pts[..., 1], minus) * wts
            xi = (pts - cuts.origin[rows, None]) / cuts.h[rows, None, None]
            acc[rows] += c @ (fw[:, None] @ _monomials(xi, c.shape[-1])).swapaxes(-1, -2)
        np.add.at(b, mesh.elements[cuts.ids], acc[..., 0])
    return b


# ---------------------------------------------------------------------------
# boundary conditions
# ---------------------------------------------------------------------------

def restrict(X, free):
    """The CSR matrix X on the rows and columns `free` (ascending), in one
    pass over its arrays: the free rows' entries in free columns, renumbered."""
    pos = np.full(X.shape[0], -1, X.indices.dtype)
    pos[free] = np.arange(len(free))
    col = pos[X.indices]
    keep = np.repeat(pos >= 0, np.diff(X.indptr)) & (col >= 0)
    # a free row keeps its entries but those in boundary columns, which are few
    lost = np.searchsorted(X.indptr, np.flatnonzero(col < 0), side="right") - 1
    count = np.diff(X.indptr) - np.bincount(lost, minlength=X.shape[0])
    indptr = np.concatenate([[0], np.cumsum(count[free])])
    return sp.csr_matrix((X.data[keep], col[keep], indptr), shape=(len(free), len(free)))


@dataclass(eq=False)
class SparseSystem:
    """A scheme's system on the free nodes, `A` and `b`; the boundary nodes
    carry the interpolated boundary values."""

    A: sp.csr_matrix
    b: np.ndarray
    boundary: np.ndarray
    boundary_values: np.ndarray
    free: np.ndarray

    def reduced(self):
        return self.A, self.b

    def expand(self, x_free):
        x = np.empty(len(self.free) + len(self.boundary))
        x[self.free] = x_free
        x[self.boundary] = self.boundary_values
        return x


class DirichletSplit(NamedTuple):
    """The terms of `combine_system` and the load on the free nodes, and the
    lifts: A_vol, M, M^T and P_unit times the boundary values, free rows."""

    A_vol: sp.csr_matrix
    M: sp.csr_matrix
    P_unit: sp.csr_matrix
    lifts: tuple
    b: np.ndarray
    boundary: np.ndarray
    boundary_values: np.ndarray
    free: np.ndarray

    def system(self, params: MethodParams) -> SparseSystem:
        """A scheme's free-node system: terms and lifts weighted alike."""
        return SparseSystem(combine_system(self.A_vol, self.M, self.P_unit, params),
                            self.b - scheme_sum(params, *self.lifts), self.boundary,
                            self.boundary_values, self.free)


def apply_dirichlet(A_vol, M, P_unit, b, mesh, g) -> DirichletSplit:
    """Fix the boundary dofs to the nodal interpolation of g(x, y) and split
    the full-node terms and load there, once for every scheme."""
    bd, free = mesh.boundary_nodes, mesh.interior_nodes
    x = np.zeros(mesh.n_nodes)
    x[bd] = g(mesh.nodes[bd, 0], mesh.nodes[bd, 1])
    return DirichletSplit(*(restrict(X, free) for X in (A_vol, M, P_unit)),
                          tuple((X @ x)[free] for X in (A_vol, M, M.T, P_unit)),
                          b[free], bd, x[bd], free)


def dump_matrix(path, A):
    """MatrixMarket coordinate dump of a sparse matrix."""
    scipy.io.mmwrite(str(path), A.tocoo())
