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
import scipy.sparse as sp

from .errors import ConfigError
from .geometry import _CORNERS, _SWEEP_POINTS, RECT, SIDE_MINUS, TRI, bulk_sweep, cut_sweep
from .local_basis import (_monomials, cut_frame, cut_gradients, cut_values, piece_gradients,
                          piece_values, template_coefs)
from .quadrature import (_collapsed_triangle_rule, map_segment, map_triangle, rect_rule,
                         segment_rule)

VOLUME_DEGREE = 4
EDGE_DEGREE = 4
DATA_DEGREE = 6      # load / error integrands (non-polynomial data)
DATA_REFINE = 1      # uniform sub-triangle refinement on cut elements

SCHEMES = ("classic", "spp", "ipp", "npp")


@dataclass(frozen=True)
class MethodParams:
    """A scheme's edge-term weights: delta on M, epsilon on M^T and sigma0 on
    P_unit (`DirichletSplit.system`)."""

    delta: float
    epsilon: float
    sigma0: float

    @staticmethod
    def preset(name, cuts, sigma0=None):
        """The weights (delta, epsilon, sigma0) of scheme `name` on the IFE
        space `cuts`, None standing for 10 max beta, with beta `cuts.beta`; a
        `sigma0` replaces the penalty of spp, ipp and npp, and classic has none."""
        name = name.lower()
        if name not in SCHEMES:
            raise ConfigError(f"unknown scheme {name!r}; choose from {SCHEMES}")
        delta, epsilon, s = {"classic": (0.0, 0.0, 0.0), "spp": (-1.0, -1.0, None),
                             "ipp": (-1.0, 0.0, None), "npp": (-1.0, 1.0, 1.0)}[name]
        s = 10.0 * max(cuts.beta) if s is None else s
        return MethodParams(delta, epsilon, s if sigma0 is None or name == "classic" else sigma0)


# ---------------------------------------------------------------------------
# volume terms
# ---------------------------------------------------------------------------

def cut_volume_matrices(cuts):
    """Stiffness matrices (K, d, d) of the cut elements: each chord side's
    sub-polygon with its piece and its beta, over the blocks of `cut_sweep`."""
    A = np.zeros(cuts.cm.shape[:2] + cuts.cm.shape[1:2])
    for side, rows, pts, w in cut_sweep(cuts, VOLUME_DEGREE):
        c = (cuts.cm, cuts.cp)[side][rows]
        G = piece_gradients(c, (pts - cuts.origin[rows, None]) / cuts.h[rows, None, None],
                            cuts.h[rows])
        A[rows] += cuts.beta[side] * np.einsum("kq,kiqa,kjqa->kij", w, G, G)
    return A


def assemble_volume(mesh, status, cuts, pos, pairs):
    """Stiffness matrix sum_K int_K beta grad(phi_i) . grad(phi_j), CSR, on
    the free nodes, where `pos` maps each node to its position among them
    (ascending) or to -1, with the node pairs `pairs` = (rows, cols) of free
    nodes stored too, as zeros where it has none.

    Each row is a stencil over the node's neighbours (9 points on
    rectangles, 7 on triangles, and the pairs' offsets), filled by shifted
    array adds of beta times the unit stiffness matrix of each standard
    element's cell variant (in 2D independent of h), then by the cut
    elements' matrices: each entry sums the standard elements, then the cut
    ones, in ascending element order. Bands of rows of about
    `_SWEEP_POINTS` stencil entries go straight into the matrix's arrays.
    Returns (A, pair_at, lift): the matrix, the pairs' positions in its
    arrays, and the free rows' entries in the other columns as (rows, cols,
    values) in row order, the block of the boundary lift."""
    n, d, nn = mesh.n_cells, mesh.n_local, mesh.n_nodes
    corners = _CORNERS[mesh.cell_kind]
    nvar = len(corners)
    grads = [(w, piece_gradients(C, pts, 1.0)) for C, pts, w in bulk_rules(mesh, 2).values()]
    unit = [np.einsum("q,iqa,jqa->ij", w, G, G) for w, G in grads]     # per variant, (d, d)
    # node-index offset from local vertex l to m, and its stencil slot
    gap = (corners[:, None, :] - corners[:, :, None]) @ [1, n + 1]   # (nvar, d, d)
    pr, pc = (np.asarray(x, np.int64) for x in pairs)
    off = np.concatenate([gap.ravel(), pc - pr])
    offsets = np.flatnonzero(np.bincount(off - off.min())) + off.min()      # ascending
    S = len(offsets)
    slot = np.searchsorted(offsets, gap)
    pin = pr * S + np.searchsorted(offsets, pc - pr)            # the pairs' (row, slot)
    by_pin = np.argsort(pin)
    pin, pair_at = pin[by_pin], np.empty(len(pin), np.int64)
    coef = np.array([cuts.beta[0], 0.0, cuts.beta[1]])[status + 1].reshape(n, n, nvar)  # 0: cut
    # node (i, j) is vertex l of the element in cell (i, j) - corner l, so
    # (-dj, -di, variant) ascending is ascending element id
    order = sorted(np.ndindex(nvar, d, d),
                   key=lambda t: (-corners[t[0], t[1], 1], -corners[t[0], t[1], 0], t[0]))
    # the cut elements' entries by row node, each row's in (element, l, m) order
    row = np.repeat(mesh.element_nodes(cuts.ids), d, axis=1).ravel()
    by_row = np.argsort(row * len(row) + np.arange(len(row)))     # unique keys: stable
    cut_row, cut_slot = row[by_row], slot[cuts.ids % nvar].ravel()[by_row]
    cut_val = cut_volume_matrices(cuts).ravel()[by_row]

    idx = np.int32 if nn * S < 2 ** 31 else np.int64
    n_free = int(pos.max()) + 1
    indptr = np.zeros(n_free + 1, dtype=idx)
    # at least nnz: a row holds the slots of the nonzero unit entries (5 of
    # the 7 on triangles), its cut entries in other slots and its pairs
    filled = np.unique(slot[np.array(unit) != 0])
    size = n_free * len(filled) + np.count_nonzero(~np.isin(cut_slot, filled)) + len(pr)
    indices, data, lift, w = np.empty(size, idx), np.empty(size), [], 0
    band = max(1, _SWEEP_POINTS // (S * (n + 1)))          # node rows per band
    for y0 in range(0, n + 1, band):
        y1 = min(y0 + band, n + 1)
        u0, u1 = y0 * (n + 1), y1 * (n + 1)
        acc = np.zeros((S, y1 - y0, n + 1))
        for v, l, m in order:
            di, dj = corners[v, l]
            lo, hi = max(y0, dj), min(y1, dj + n)
            acc[slot[v, l, m], lo - y0:hi - y0, di:di + n] += (coef[lo - dj:hi - dj, :, v]
                                                                * unit[v][l, m])
        i, j = np.searchsorted(cut_row, (u0, u1))
        np.add.at(acc.reshape(S, -1), (cut_slot[i:j], cut_row[i:j] - u0), cut_val[i:j])
        acc = acc.reshape(S, -1).T                                   # (node, slot)
        keep = (acc != 0) & (pos[u0:u1, None] >= 0)
        i, j = np.searchsorted(pin, (u0 * S, u1 * S))
        keep[pin[i:j] // S - u0, pin[i:j] % S] = True
        node, at = np.nonzero(keep)
        value, node = acc[node, at], node + u0
        col = node + offsets[at]
        inner = pos[col] >= 0
        pair_at[by_pin[i:j]] = w + np.searchsorted((node * S + at)[inner], pin[i:j])
        lift.append((node[~inner], col[~inner], value[~inner]))
        k = w + np.count_nonzero(inner)
        indices[w:k], data[w:k] = pos[col[inner]], value[inner]
        rows = pos[u0:u1]
        indptr[1 + rows[rows >= 0]] = np.bincount(node[inner] - u0, minlength=u1 - u0)[rows >= 0]
        w = k
    np.cumsum(indptr, out=indptr)
    indices.resize(w, refcheck=False)
    data.resize(w, refcheck=False)
    A = sp.csr_matrix((data, indices, indptr), shape=(n_free, n_free))
    return A, pair_at, tuple(np.concatenate(x) for x in zip(*lift))


# ---------------------------------------------------------------------------
# edge terms
# ---------------------------------------------------------------------------

class EdgeTraces(NamedTuple):
    """The interface edges in ascending order, their split Gauss rules and
    both neighbours' traces on them, and the penalty exponent alpha that
    `assemble_edge_terms` records. Side 0 is the lower-index element, which
    the edge normal points away from. Every edge is split in two: at the
    chord end that lies inside it, or else at its end vertex, which leaves a
    zero-weight second piece."""

    edges: np.ndarray       # (B,)
    elements: np.ndarray    # (B, 2) the neighbours, lower index first
    points: np.ndarray      # (B, nq, 2)
    weights: np.ndarray     # (B, nq)
    values: np.ndarray      # (B, 2, d, nq)
    gradients: np.ndarray   # (B, 2, d, nq, 2)
    beta: np.ndarray        # (B, 2, nq) coefficient of the active side per point
    alpha: float            # the penalty exponent of P_unit, or None when not assembled


def edge_traces(mesh, edges, status, cuts):
    """The EdgeTraces of the interior edges `edges` (ascending ids, the
    `geometry.interface_edges` of `cuts` in a solve), on split Gauss rules of
    degree EDGE_DEGREE: the one walk over interface edges, which the edge
    terms, the penalty jumps of the energy norm and the interpolation-flux
    scan read. The cut and the standard neighbours of each side are
    evaluated as two stacks."""
    B = len(edges)
    ends = mesh.node_coords(mesh.edge_nodes(edges))
    a, d = ends[:, 0], ends[:, 1] - ends[:, 0]
    # the chord end of an adjacent cut that lies inside the edge, if any
    hit = np.isin(cuts.cut_edges, edges)
    split = np.full((B, 2), np.nan)
    split[np.searchsorted(edges, cuts.cut_edges[hit])] = np.stack([cuts.D, cuts.E], axis=1)[hit]
    length = np.sqrt(np.vecdot(d, d))
    t = np.vecdot(split - a, d) / (length * length)
    t = np.where((t > 1e-12) & (t < 1 - 1e-12), t, 1.0)
    breaks = np.column_stack([np.zeros(B), t, np.ones(B)])[..., None]
    rule = segment_rule(EDGE_DEGREE)
    pts, w = map_segment(rule, a[:, None] + breaks[:, :-1] * d[:, None],
                         a[:, None] + breaks[:, 1:] * d[:, None])
    nv, nq = mesh.n_local, 2 * rule.n_points
    pts, w = pts.reshape(B, nq, 2), w.reshape(B, nq)

    row_of = np.full(mesh.n_elements, -1)
    row_of[cuts.ids] = np.arange(len(cuts))
    els = mesh.edge_elements(edges)
    V = np.empty((B, 2, nv, nq))
    G = np.empty((B, 2, nv, nq, 2))
    beta = np.empty((B, 2, nq))
    bm, bp = cuts.beta
    for s in (0, 1):
        rows = row_of[els[:, s]]
        cut = rows >= 0
        xi, plus = cut_frame(cuts, rows[cut], pts[cut])
        V[cut, s] = cut_values(cuts, rows[cut], xi, plus)
        G[cut, s] = cut_gradients(cuts, rows[cut], xi, plus)
        beta[cut, s] = np.where(plus, bp, bm)
        k = els[~cut, s]
        C = template_coefs(mesh, k)
        origin, size = mesh.element_frames(k)
        xi = (pts[~cut] - origin[:, None]) / size[:, None, None]
        V[~cut, s] = piece_values(C, xi)
        G[~cut, s] = piece_gradients(C, xi, size)
        beta[~cut, s] = np.where(status[k] == SIDE_MINUS, bm, bp)[:, None]
    return EdgeTraces(edges, els, pts, w, V, G, beta, None)


def edge_term_matrices(mesh, traces):
    """Consistency matrices M_loc[i,j] = int_B {beta grad(phi_j).n}[phi_i] and
    unit penalty matrices |B|^-alpha int_B [phi_i][phi_j], alpha = `traces.alpha`,
    of the edges of `traces`, (B, nd, nd) each, with the dofs (B, nd) they refer
    to: the lower-index element's nodes, then the other element's remaining ones."""
    c0, c1 = mesh.element_nodes(traces.elements).transpose(1, 0, 2)
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
    P = (1.0 / mesh.edge_lengths(traces.edges) ** traces.alpha)[:, None, None] * np.einsum(
        "bq,biq,bjq->bij", w, jump, jump)
    return dofs, M, P


def assemble_edge_terms(mesh, edges, status, cuts, alpha):
    """Assemble (M, P_unit, traces) over the interface edges `edges`: the consistency
    matrix, the penalty matrix at sigma0 = 1 with the exponent `alpha` >= 1
    (`DirichletSplit.system` weighs both per scheme) and the `edge_traces` the
    sums were taken over, with `alpha` recorded as `traces.alpha`."""
    if alpha < 1.0:
        raise ConfigError("penalty exponent alpha must be >= 1")
    traces = edge_traces(mesh, edges, status, cuts)._replace(alpha=alpha)
    dofs, M, P = edge_term_matrices(mesh, traces)
    nd = dofs.shape[1]
    r, c = np.repeat(dofs, nd, axis=1).ravel(), np.tile(dofs, (1, nd)).ravel()
    # tocsr sums the duplicates and sorts each row
    M, P = (sp.coo_matrix((X.ravel(), (r, c)), shape=(mesh.n_nodes,) * 2).tocsr() for X in (M, P))
    M.eliminate_zeros()
    P.eliminate_zeros()
    return M, P, traces


# ---------------------------------------------------------------------------
# load vector
# ---------------------------------------------------------------------------

def bulk_rules(mesh, degree):
    """Scaled quadrature rule per cell variant, with the variant's standard
    basis: {variant: (coefficients (d, m), points, weights)}, the triangles'
    rules mapped onto the unit cell's variants of `geometry._CORNERS`."""
    if mesh.cell_kind == RECT:
        rule = rect_rule(degree)
        return {0: (template_coefs(mesh, 0), rule.points, rule.weights)}
    rule = _collapsed_triangle_rule(degree)
    return {v: (template_coefs(mesh, v),) + map_triangle(rule, tri)
            for v, tri in enumerate(_CORNERS[TRI])}


def cut_data_rules(cuts, iface):
    """The refined fan rules of the load and the error norms over the cut
    elements: the blocks (side, rows, points, weights) of
    `geometry.cut_sweep`, each with whether phi < 0 at its points appended.
    A context builds them once."""
    return [(side, rows, pts, wts, np.asarray(iface.phi(pts[..., 0], pts[..., 1])) < 0)
            for side, rows, pts, wts in cut_sweep(cuts, DATA_DEGREE, DATA_REFINE)]


def assemble_load(mesh, status, cuts, solution, iface, rules):
    """Load vector b_i = sum_K int_K f phi_i with the data-side of f chosen by
    the exact level set at each quadrature point, over the `cut_data_rules`
    `rules` of `cuts` on the cut elements. A chord side's rule lies on its
    piece: the piece's coefficients times sum_q w f mono(xi_q)."""
    b = np.zeros(mesh.n_nodes)
    h = mesh.h
    tables = {v: (piece_values(C, spts).T, spts, swts * h * h)
              for v, (C, spts, swts) in bulk_rules(mesh, DATA_DEGREE).items()}
    for (V, _, w), ids, x, y, minus in bulk_sweep(mesh, status, iface, tables):
        np.add.at(b, mesh.element_nodes(ids), (solution.f(x, y, minus) * w) @ V)

    if len(cuts):
        acc = np.zeros(cuts.cm.shape[:2] + (1,))
        for side, rows, pts, wts, minus in rules:
            c = (cuts.cm, cuts.cp)[side][rows]
            fw = solution.f(pts[..., 0], pts[..., 1], minus) * wts
            xi = (pts - cuts.origin[rows, None]) / cuts.h[rows, None, None]
            acc[rows] += c @ (fw[:, None] @ _monomials(xi, c.shape[-1])).swapaxes(-1, -2)
        np.add.at(b, mesh.element_nodes(cuts.ids), acc[..., 0])
    return b


# ---------------------------------------------------------------------------
# boundary conditions
# ---------------------------------------------------------------------------

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
    """The scheme terms and the load on the free nodes, and the lifts.

    A_vol's index arrays are the pattern of every scheme matrix, which
    stores the couplings of M, M^T and P_unit too. `terms` holds M, M^T and
    P_unit as (values, positions in the pattern), and `lifts` A_vol, M, M^T
    and P_unit times the boundary values as (rows, values), nonzero rows;
    a term's rows and columns are those of its positions in A_vol."""

    A_vol: sp.csr_matrix
    terms: tuple
    lifts: tuple
    b: np.ndarray
    boundary: np.ndarray
    boundary_values: np.ndarray
    free: np.ndarray

    def system(self, params: MethodParams) -> SparseSystem:
        """A scheme's free-node system: the data of A_vol + delta M +
        epsilon M^T + sigma0 P_unit, summed entry by entry in that order,
        and the load less the lifts weighted alike."""
        A = self.A_vol
        data = A.data.copy()
        for weight, (values, at) in zip((params.delta, params.epsilon, params.sigma0), self.terms):
            data[at] += weight * values
        lA, lM, lMt, lP = (np.zeros(len(self.free)) for _ in self.lifts)
        for lift, (rows, values) in zip((lA, lM, lMt, lP), self.lifts):
            lift[rows] = values
        rhs = self.b - (lA + params.delta * lM + params.epsilon * lMt + params.sigma0 * lP)
        return SparseSystem(sp.csr_matrix((data, A.indices, A.indptr), shape=A.shape), rhs,
                            self.boundary, self.boundary_values, self.free)


def apply_dirichlet(mesh, status, cuts, M, P_unit, b, g) -> DirichletSplit:
    """Fix the boundary dofs, found here, to the nodal interpolation of g(x, y)
    and split the terms and the load there, once for every scheme: A_vol is
    assembled on the free nodes alone, from the full-node M and P_unit."""
    on = np.zeros((mesh.n_cells + 1,) * 2, dtype=bool)
    on[[0, -1]] = on[:, [0, -1]] = True
    bd, free = np.flatnonzero(on), np.flatnonzero(~on)
    x = np.zeros(mesh.n_nodes)
    x[bd] = g(*mesh.node_coords(bd).T)
    pos = np.full(mesh.n_nodes, -1)
    pos[free] = np.arange(len(free))
    M, P_unit = M.tocoo(), P_unit.tocoo()
    # M, M^T and P_unit as (rows, cols, values), in their products' order;
    # P_unit's stored pattern is symmetric, so P_unit^T adds no pair
    terms = [(M.row, M.col, M.data), (M.col, M.row, M.data), (P_unit.row, P_unit.col, P_unit.data)]
    inner = [(pos[r] >= 0) & (pos[c] >= 0) for r, c, _ in terms]
    rows, cols = (np.concatenate([t[k][f] for t, f in zip(terms, inner)]) for k in (0, 1))
    A_vol, at, block = assemble_volume(mesh, status, cuts, pos, (rows, cols))
    at = np.split(at, np.cumsum([f.sum() for f in inner]))
    lifts = []
    for r, c, v in [block] + terms:
        out = (pos[r] >= 0) & (pos[c] < 0)
        y = np.zeros(len(free))
        np.add.at(y, pos[r[out]], v[out] * x[c[out]])       # each row in its entries' order
        lifts.append((np.flatnonzero(y), y[y != 0]))
    m, p = M.data[inner[0]], P_unit.data[inner[2]]
    return DirichletSplit(A_vol, ((m, at[0]), (m, at[1]), (p, at[2])), tuple(lifts), b[free],
                          bd, x[bd], free)


def dump_matrix(path, A):
    """MatrixMarket coordinate dump of the nonzeros of a sparse matrix."""
    import scipy.io          # here: it adds about 1.3 MB to a solve's memory

    A = A.tocoo(copy=True)
    A.eliminate_zeros()
    scipy.io.mmwrite(str(path), A)
