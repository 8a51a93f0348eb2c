"""Manufactured solutions, error norms, and run records with their tables."""
from __future__ import annotations

from dataclasses import astuple, dataclass
from typing import Callable, get_type_hints

import numpy as np

from .assembly import DATA_DEGREE, bulk_rules
from .geometry import RECT, TRI_AXIS, bulk_sweep
from .local_basis import cut_frame, piece_gradients, piece_values, template_coefs

LINF_GRID = 5       # samples per side of each element in the L-infinity error
# the error norms, in the order of their keys, runs.csv columns and tables
NORMS = ("l2", "h1", "linf", "energy")
# the default manufactured solution: r**5 about the circle r = pi/6.28
DEFAULT_R0 = np.pi / 6.28
DEFAULT_ALPHA_EXP = 5.0


@dataclass(frozen=True)
class PiecewiseSolution:
    """Closed-form exact solution of an interface problem.

    All members are vectorized callables of (x, y); the minus/plus split
    refers to the sign of the interface level set.
    """

    u_minus: Callable
    u_plus: Callable
    grad_minus: Callable   # -> (gx, gy)
    grad_plus: Callable
    f_minus: Callable
    f_plus: Callable

    def u(self, x, y, minus_mask):
        return _by_side(self.u_minus, self.u_plus, x, y, minus_mask, 1)[0]

    def grad(self, x, y, minus_mask):
        return _by_side(self.grad_minus, self.grad_plus, x, y, minus_mask, 2)

    def f(self, x, y, minus_mask):
        return _by_side(self.f_minus, self.f_plus, x, y, minus_mask, 1)[0]

    def u_at(self, x, y, iface):
        return self.u(x, y, np.asarray(iface.phi(x, y)) < 0)


def _by_side(minus_fn, plus_fn, x, y, minus_mask, n_out):
    """The `n_out` outputs of `minus_fn` where `minus_mask` holds and of
    `plus_fn` elsewhere, each side evaluated at its own points only.

    The branches are elementwise, so each value has the bits of evaluating
    the branch at every point and selecting afterwards; a branch whose side
    holds every point takes x and y whole. A 0-d x or y is passed on as it
    is, since numpy evaluates scalars through other routines than arrays.
    """
    shape = np.broadcast_shapes(np.shape(x), np.shape(y), np.shape(minus_mask))
    minus = np.broadcast_to(np.asarray(minus_mask, bool), shape).ravel()
    for fn, whole in ((minus_fn, minus.all()), (plus_fn, not minus.any())):
        if whole:
            vals = fn(x, y)
            return tuple(np.asarray(v, float) if np.shape(v) == shape
                         else np.full(shape, v, float) for v in (vals if n_out > 1 else (vals,)))
    out = tuple(np.empty(shape) for _ in range(n_out))
    # flat indices, not boolean masks: take and put beat masked copies
    for fn, idx in ((minus_fn, np.flatnonzero(minus)), (plus_fn, np.flatnonzero(~minus))):
        if len(idx):
            vals = fn(*(np.broadcast_to(a, shape).ravel()[idx] if np.ndim(a) else a
                        for a in (x, y)))
            for o, v in zip(out, vals if n_out > 1 else (vals,)):
                o.ravel()[idx] = v
    return out


def radial_interface_solution(beta_minus, beta_plus, alpha_exp=DEFAULT_ALPHA_EXP,
                              r0=DEFAULT_R0, center=(0.0, 0.0)) -> PiecewiseSolution:
    """u = r^a / beta^-, inside; r^a / beta^+ plus a matching constant outside.

    r is the distance from `center`. The additive constant
    (1/beta^- - 1/beta^+) r0^a makes the solution continuous across the circle
    r = r0, and the flux beta du/dn = a r^(a-1) is continuous by construction,
    so both interface conditions hold exactly. The corresponding source is
    f = -a^2 r^(a-2) on both sides.
    """
    a = float(alpha_exp)
    cx, cy = center
    shift = (1.0 / beta_minus - 1.0 / beta_plus) * r0 ** a

    def r2(x, y):
        return (np.asarray(x) - cx) ** 2 + (np.asarray(y) - cy) ** 2

    def u_minus(x, y):
        return r2(x, y) ** (a / 2) / beta_minus

    def u_plus(x, y):
        return r2(x, y) ** (a / 2) / beta_plus + shift

    def grad_side(beta):
        def g(x, y):
            s = a * r2(x, y) ** (a / 2 - 1) / beta
            return s * (np.asarray(x) - cx), s * (np.asarray(y) - cy)
        return g

    def f(x, y):
        return -a * a * r2(x, y) ** ((a - 2) / 2)

    return PiecewiseSolution(u_minus, u_plus, grad_side(beta_minus), grad_side(beta_plus), f, f)


def interpolate_nodal(mesh, sol, iface):
    """Nodal interpolant: coefficients are the exact values at mesh nodes."""
    x, y = mesh.node_coords(np.arange(mesh.n_nodes)).T
    return sol.u(x, y, np.asarray(iface.phi(x, y)) < 0)


# ---------------------------------------------------------------------------
# error norms
# ---------------------------------------------------------------------------

def error_norms(mesh, status, cuts, coeffs, sol, iface, traces, sigma0, rules):
    """Errors of u_h against the exact solution, keyed by NORMS.

    'l2' is ||u - u_h||_L2, 'h1' the broken H1 seminorm, 'linf' the sampled
    max error and 'energy' ||u - u_h||_h: the broken H1 seminorm weighted by
    the beta of `cuts` plus the penalty jump terms sigma0 / |B|^alpha
    ||[u_h]||_B^2. The exact solution is continuous across edges, so the edge
    jumps of the error reduce to the jumps of u_h, taken on the interface-edge
    `traces` that `assembly.assemble_edge_terms` returns; alpha is their
    `traces.alpha`, read only when the penalty `sigma0` is not 0. The cut
    elements' integrals run on `rules`, their `assembly.cut_data_rules`, and
    the standard elements' on the rules of degree DATA_DEGREE.

    One sweep over the standard elements and one over the chord sides of the
    cut elements fill the three squared sums; the cut elements' terms are
    added in element order, minus side first.
    Values compare against the exact branch chosen by the true level set;
    gradient-based integrands compare piece against piece (branch chosen by
    the sub-polygon side). In the thin region between chord and curve the
    exact gradient branches differ by the full coefficient contrast, and
    charging that mismatch to the discrete solution would inflate the
    gradient norms by an h-independent factor at large jumps.
    """
    sums = _bulk_sums(mesh, status, coeffs, sol, iface, cuts.beta)
    if len(cuts):
        # sequential sums keep the order of an element-by-element walk
        parts = _cut_sums(mesh, cuts, coeffs, sol, rules)
        sums = sums + np.cumsum(parts.reshape(-1, 3), axis=0)[-1]
    l2, h1, energy = sums
    if sigma0 != 0.0:
        ce = coeffs[mesh.element_nodes(traces.elements)][:, :, None]
        u = ce @ traces.values                                        # (B, 2, 1, nq)
        jumps = np.vecdot(traces.weights, (u[:, 0, 0] - u[:, 1, 0]) ** 2)
        scale = sigma0 / mesh.edge_lengths(traces.edges) ** traces.alpha
        energy = np.cumsum(np.concatenate([[energy], scale * jumps]))[-1]
    return dict(zip(NORMS, (float(np.sqrt(l2)), float(np.sqrt(h1)),
                            _linf_error(mesh, status, cuts, coeffs, sol, iface),
                            float(np.sqrt(energy)))))


def _bulk_sums(mesh, status, coeffs, sol, iface, beta):
    """Squared L2, H1 and energy error sums over the standard elements,
    accumulated block by block."""
    h = mesh.h
    sums = np.zeros(3)
    tables = {v: (piece_values(C, spts), spts, swts * h * h, piece_gradients(C, spts, h))
              for v, (C, spts, swts) in bulk_rules(mesh, DATA_DEGREE).items()}
    for (V, _, w, G), ids, x, y, minus in bulk_sweep(mesh, status, iface, tables):
        ce = coeffs[mesh.element_nodes(ids)]
        diff = sol.u(x, y, minus) - ce @ V
        gx, gy = sol.grad(x, y, minus)
        d2 = (gx - ce @ G[:, :, 0]) ** 2 + (gy - ce @ G[:, :, 1]) ** 2
        sums += (np.einsum("eq,q->", diff * diff, w), np.einsum("eq,q->", d2, w),
                 np.einsum("eq,q->", np.where(minus, beta[0], beta[1]) * d2, w))
    return sums


def _cut_sums(mesh, cuts, coeffs, sol, rules):
    """The same sums per cut element and chord side, (K, 2, 3), over the
    blocks of the refined fan rules (`cut_data_rules`), where u_h is the
    side's piece `coeffs @ c` (rows, 1, m)."""
    ce = coeffs[mesh.element_nodes(cuts.ids)][:, None]     # (K, 1, d)
    out = np.zeros((len(cuts), 2, 3))
    for side, rows, pts, wts, minus in rules:
        x, y = pts[..., 0], pts[..., 1]
        xi = (pts - cuts.origin[rows, None]) / cuts.h[rows, None, None]
        a = ce[rows] @ (cuts.cm, cuts.cp)[side][rows]
        diff = sol.u(x, y, minus) - piece_values(a, xi)[:, 0]
        gh = piece_gradients(a, xi, cuts.h[rows])[:, 0]
        gx, gy = (sol.grad_minus, sol.grad_plus)[side](x, y)  # the piece's, whatever phi says
        d2 = (gx - gh[..., 0]) ** 2 + (gy - gh[..., 1]) ** 2
        out[rows, side] = np.column_stack([np.vecdot(wts, diff * diff), np.vecdot(wts, d2),
                                           np.vecdot(wts, cuts.beta[side] * d2)])
    return out


def _linf_error(mesh, status, cuts, coeffs, sol, iface):
    """Max |u - u_h| over a LINF_GRID x LINF_GRID grid per element (its
    distinct points on triangles, where one side collapses to a vertex) plus
    all vertices."""
    t = np.linspace(0.0, 1.0, LINF_GRID)
    TX, TY = np.meshgrid(t, t, indexing="ij")
    if mesh.cell_kind == RECT:
        sample = {0: np.column_stack([TX.ravel(), TY.ravel()])}
    else:
        # (s, s t) on each variant's axes, from its vertex (0, 0), where the
        # first LINF_GRID points, at s = 0, all fall: it is sampled once
        st = np.column_stack([TX.ravel(), (TX * TY).ravel()])[LINF_GRID - 1:]
        sample = {v: np.roll(st, axis, axis=1) for v, axis in enumerate(TRI_AXIS)}

    worst = 0.0
    tables = {v: (piece_values(template_coefs(mesh, v), p), p) for v, p in sample.items()}
    for (V, _), ids, x, y, minus in bulk_sweep(mesh, status, iface, tables):
        uh = coeffs[mesh.element_nodes(ids)] @ V
        worst = max(worst, float(np.abs(sol.u(x, y, minus) - uh).max()))
    if len(cuts):
        # the grid on each cut element's bounding square; on triangles the
        # half of it the element covers, which has the same size on both
        lo = cuts.verts.min(axis=1)[:, None]
        span = cuts.verts.max(axis=1)[:, None] - lo
        pts = lo + span * np.column_stack([TX.ravel(), TY.ravel()])
        if mesh.cell_kind != RECT:
            xi = (pts - lo) / mesh.h
            xi_axis = (TRI_AXIS[cuts.ids % len(TRI_AXIS)] == 0)[:, None, None]
            xi = np.where(xi_axis, xi, xi[..., ::-1])   # on the element's axes
            keep = xi[..., 1] <= xi[..., 0] + 1e-12
            pts = pts[keep].reshape(len(cuts), -1, 2)
        pts = np.concatenate([pts, cuts.verts], axis=1)
        xi, plus = cut_frame(cuts, np.arange(len(cuts)), pts)
        ce = coeffs[mesh.element_nodes(cuts.ids)][:, None]
        uh = np.where(plus, piece_values(ce @ cuts.cp, xi)[:, 0],
                      piece_values(ce @ cuts.cm, xi)[:, 0])
        ue = sol.u_at(pts[..., 0], pts[..., 1], iface)
        worst = max(worst, float(np.abs(ue - uh).max()))
    return worst


# ---------------------------------------------------------------------------
# run records, CSV, and tables
# ---------------------------------------------------------------------------

@dataclass
class RunRecord:
    """One runs.csv row; the field names are its header."""

    scheme: str
    mesh: str
    N: int
    h: float
    beta_minus: float
    beta_plus: float
    e_l2: float
    e_h1: float
    e_linf: float
    e_energy: float
    iterations: int
    residual: float
    n_dofs: int
    n_interface_elements: int


def record_csv_rows(records):
    """runs.csv: RunRecord's field names, then a row per record, float
    fields as %.12e and the others as str."""
    types = get_type_hints(RunRecord)
    lines = [",".join(types)]
    for r in records:
        lines.append(",".join(f"{v:.12e}" if t is float else str(v)
                              for t, v in zip(types.values(), astuple(r))))
    return "\n".join(lines) + "\n"


def markdown_error_table(records, norm, schemes):
    """One row per N, an error and rate column per scheme (table-style layout)."""
    Ns = sorted({r.N for r in records})
    by = {(r.scheme, r.N): getattr(r, f"e_{norm}") for r in records}
    header = "| N |" + "".join(f" {s} {norm} | rate |" for s in schemes)
    sep = "|---|" + "---|---|" * len(schemes)
    lines = [header, sep]
    for i, N in enumerate(Ns):
        cells = [f"| {N} |"]
        for s in schemes:
            e = by.get((s, N))
            if e is None:
                cells.append(" - | - |")
                continue
            if i == 0 or (s, Ns[i - 1]) not in by:
                rate = "-"
            else:
                rate = f"{np.log2(by[(s, Ns[i - 1])] / e):.4f}"
            cells.append(f" {e:.4E} | {rate} |")
        lines.append("".join(cells))
    return "\n".join(lines) + "\n"
