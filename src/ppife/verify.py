"""Numerical probes of the analytical properties behind the method: local
coefficient bounds, trace-inequality ratios, a gradient lower bound on
quadrant sub-squares, coercivity of the assembled forms, and the decay of
interpolation flux errors on interface edges.

No analytic constants are asserted; every scan checks boundedness,
stability under cut-grid/mesh refinement, or a log-log slope, which is what
can be verified numerically.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .assembly import (MethodParams, apply_dirichlet, assemble_edge_terms, cut_volume_matrices,
                       edge_traces)
from .geometry import (INTERFACE, RECT, TRI, CutSet, DomainSpec, build_mesh, circle,
                       classify_elements, interface_edges, ring_chains)
from .local_basis import build_bases, cut_frame, cut_gradients, phys_coefficients
from .postprocess import DEFAULT_R0, interpolate_nodal, radial_interface_solution
from .quadrature import map_segment, rect_rule, segment_rule


@dataclass
class ScanReport:
    scan_id: str
    description: str
    samples: int
    metrics: dict = field(default_factory=dict)
    passed: bool = False

    def summary_line(self):
        status = "PASS" if self.passed else "FAIL"
        keys = ", ".join(f"{k}={v:.4g}" for k, v in sorted(self.metrics.items())
                         if isinstance(v, float))
        return f"{status} {self.scan_id}: {self.description} [{keys}]"

    def csv_rows(self):
        return ([f"{self.scan_id},passed,{int(self.passed)}",
                 f"{self.scan_id},samples,{self.samples}"]
                + [f"{self.scan_id},{k},{self.metrics[k]:.12e}" for k in sorted(self.metrics)])


# ---------------------------------------------------------------------------
# reference cut grids
# ---------------------------------------------------------------------------

_REF_VERTS = {TRI: np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
              RECT: np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])}


def _grid_cuts(kind, samples):
    """Parameters of a lemma scan's reference cuts: per topology (on
    rectangles, chords joining adjacent and opposite edges), (d, e) on an
    m x m uniform grid over [0.01, 0.99]^2, box faces included, and whether
    the chord joins opposite edges. m is the odd number nearest
    sqrt(4 samples / topologies), the upper one on a tie, and at least 3.
    Also returns the mask of the base grid, the even-indexed subgrid of each
    topology, which holds the box corners and about a quarter of the cuts."""
    topologies = (False, True) if kind == RECT else (False,)
    m = 2 * max(1, math.isqrt(samples // len(topologies))) + 1
    k, i, j = np.indices((len(topologies), m, m)).reshape(3, -1)
    t = np.linspace(0.01, 0.99, m)
    return np.column_stack([t[i], t[j]]), np.array(topologies)[k], (i % 2 == 0) & (j % 2 == 0)


def _reference_cuts(kind, cut_params) -> CutSet:
    """The cuts (d, e) and their topologies on the unit reference element,
    as a CutSet whose ids are the cut indices. The minus side holds the
    origin vertex; D sits at height d on x = 0 (at x = d on y = 1 for
    opposite-edge cuts) and E at x = e on y = 0."""
    params, opposite = cut_params
    S = len(params)
    verts = np.broadcast_to(_REF_VERTS[kind], (S,) + _REF_VERTS[kind].shape)
    nv = verts.shape[1]
    d, e = params[:, 0], params[:, 1]
    zero = np.zeros(S)
    D = np.where(opposite[:, None], np.column_stack([d, np.ones(S)]),
                 np.column_stack([zero, d]))
    E = np.column_stack([e, zero])
    # np.sqrt(np.vecdot(..)) is bit for bit the per-vector np.linalg.norm;
    # np.linalg.norm(axis=...) sums in another order
    n = np.column_stack([E[:, 1] - D[:, 1], D[:, 0] - E[:, 0]])
    n /= np.sqrt(np.vecdot(n, n))[:, None]
    n[((verts[:, 0] - D) * n).sum(axis=1) > 0] *= -1

    # D on edge nv-1 (x = 0) or on edge 2 (y = 1), E on edge 0 (y = 0); the
    # chain from D to E holds V0, so it is the minus side
    slot_D = np.where(opposite, 5, 2 * nv - 1)
    ring, (sa, sb), (na, nb), splits = ring_chains(verts, D, E, slot_D, np.ones(S, dtype=int))
    rows = np.arange(S)[:, None]
    return CutSet(np.arange(S), verts, D, E, n, ring[rows, sa], ring[rows, sb], na, nb,
                  splits, np.full((S, 2), -1))


# ---------------------------------------------------------------------------
# coefficient bounds
# ---------------------------------------------------------------------------

def _coef_ratios(kind, cut_params, beta_pair):
    """Per cut, the largest ratio between the two pieces' physical coefficient
    norms over the nodal functions (functions with a zero piece are skipped)."""
    cuts = build_bases(_reference_cuts(kind, cut_params), *beta_pair)
    phys = [phys_coefficients(c, cuts.origin, cuts.h) for c in (cuts.cm, cuts.cp)]
    norms = [np.sqrt(np.vecdot(p, p)) for p in phys]
    lo, hi = np.minimum(*norms), np.maximum(*norms)
    keep = lo > 0.0
    return np.where(keep, hi / np.where(keep, lo, 1.0), 0.0).max(axis=1)


def _refinement_scan(scan_id, description, kind, beta_pairs, samples, ratios, prefix):
    """A ScanReport recording, per beta pair, the largest of
    `ratios(kind, cut_params, pair)` over the base grid of `_grid_cuts`
    (`<prefix>_<tag>`), over the refined grid (`<prefix>_refined_<tag>`) and
    their relative drift. It passes when every maximum is positive, finite
    and moves by less than 10% under the 4x refinement; its `samples` is
    the base grid's cut count."""
    params, opposite, base = _grid_cuts(kind, samples)
    report = ScanReport(scan_id, description, int(base.sum()))
    ok = True
    for pair in beta_pairs:
        r = ratios(kind, (params, opposite), pair)
        coarse, fine = float(r[base].max()), float(r.max())
        tag = f"b{pair[0]:g}_{pair[1]:g}"
        report.metrics[f"{prefix}_{tag}"] = coarse
        report.metrics[f"{prefix}_refined_{tag}"] = fine
        # a zero maximum measures nothing: infinite drift, a failed scan
        drift = abs(fine - coarse) / coarse if coarse > 0.0 else np.inf
        report.metrics[f"drift_{tag}"] = drift
        ok = ok and np.isfinite(fine) and drift < 0.10
    report.passed = bool(ok)
    return report


def scan_coefficient_bounds(kind, beta_pairs, samples, seed=7) -> ScanReport:
    """Ratios of the two pieces' coefficient norms over a grid of about
    `samples` cuts per beta pair, refined to 4 `samples`.

    Pass: every ratio is finite and the maximum moves by less than 10% when
    the cut grid is refined 4x (uniformity in the cut location). `seed` is
    unused."""
    return _refinement_scan("coefficient_bounds", f"{kind} coefficient-norm ratios", kind,
                            beta_pairs, samples, _coef_ratios, "max_ratio")


# ---------------------------------------------------------------------------
# trace ratios and the quadrant gradient bound
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _constant_complement(d):
    """Orthonormal basis (d, d-1) of the complement of the constant nodal vector."""
    import scipy.linalg
    return scipy.linalg.null_space(np.full((1, d), 1.0 / np.sqrt(d)))


def _trace_ratios(kind, cut_params, beta_pair):
    """Per cut of the unit reference element, max_B max_v ||beta grad(v).n_B||_B
    / (h^{1/2} |K|^{-1/2} ||sqrt(beta) grad v||_K) over the element edges B, at
    h = 1; 0 for a cut whose gradient Gram matrix is degenerate, its trace
    below 1e-28 max(beta) (the matrix scales with beta).

    The maximum over nodal coefficient vectors on the unit sphere is the
    largest generalized eigenvalue of the edge-flux Gram matrix against the
    element gradient Gram matrix, restricted to the complement of the
    constants, where the latter is positive definite. It is computed for all
    cuts and edges at once through the Cholesky factor of the projected
    gradient Gram matrix.
    """
    cuts = build_bases(_reference_cuts(kind, cut_params), *beta_pair)
    bm, bp = cuts.beta
    S, nv = cuts.verts.shape[:2]
    d = cuts.cm.shape[1]

    Dmat = cut_volume_matrices(cuts)
    valid = np.trace(Dmat, axis1=1, axis2=2) >= 1e-28 * max(bm, bp)
    W = _constant_complement(d)
    Dr = W.T @ Dmat @ W
    Dr[~valid] = np.eye(d - 1)
    L = np.linalg.cholesky(Dr)

    # every element edge in two pieces, split where the chord crosses it
    a = cuts.verts
    b = np.roll(a, -1, axis=1)
    pts, w = map_segment(segment_rule(4), np.stack([a, cuts.edge_splits], axis=2),
                          np.stack([cuts.edge_splits, b], axis=2))
    w = w.reshape(S, nv, -1)
    rows = np.arange(S)
    xi, plus = cut_frame(cuts, rows, pts.reshape(S, -1, 2))
    G = cut_gradients(cuts, rows, xi, plus)
    t = b - a
    nB = np.stack([t[..., 1], -t[..., 0]], axis=-1) / np.linalg.norm(t, axis=-1)[..., None]
    flux = np.where(plus, bp, bm).reshape(S, 1, nv, -1) * np.einsum(
        "sdeqa,sea->sdeq", G.reshape(S, d, nv, -1, 2), nB)
    N = np.einsum("seq,sieq,sjeq->seij", w, flux, flux)
    A = W.T @ N @ W
    # C = L^-1 A L^-T has the eigenvalues of the pencil (A, Dr), Dr = L L^T; each
    # solve takes a cut's nv edge blocks side by side, so L is factored once per cut
    Y = np.linalg.solve(L, A.transpose(0, 2, 1, 3).reshape(S, d - 1, -1))
    Y = np.linalg.solve(L, Y.reshape(S, d - 1, nv, -1).transpose(0, 3, 2, 1).reshape(S, d - 1, -1))
    C = Y.reshape(S, d - 1, nv, -1).transpose(0, 2, 1, 3)
    lam = np.linalg.eigvalsh(C)[..., -1]
    areaK = 1.0 if kind == RECT else 0.5
    ratio = np.sqrt(np.maximum(lam, 0.0) * areaK).max(axis=1)
    return np.where(valid, ratio, 0.0)


def quadrant_sigma():
    """The sigma in (9/12, 7/9) equalizing the two quadrant-bound terms."""
    return (1.0 + np.sqrt(163.0)) / 18.0


def quadrant_bound_constant():
    s = quadrant_sigma()
    return min(12.0 - 9.0 / s, 2.0 * (7.0 - 9.0 * s)) / 48.0


def quadrant_gradient_check(h=1.0):
    """The minimum over bilinear v = c1 + c2 x + c3 y + c4 x y of
    int_Q |grad v|^2 / (C h^2 (c2^2 + c3^2 + c4^2 h^2)) on the far quadrant
    Q = [h/2, h]^2, with C = `quadrant_bound_constant()`: the smallest
    eigenvalue of the 3x3 pencil of the gradient Gram matrix over Q in
    (c2, c3, c4), grad v = c2 (1, 0) + c3 (0, 1) + c4 (y, x), against
    C h^2 diag(1, 1, h^2). The bound holds when it is at least 1; the ratio
    does not depend on h."""
    import scipy.linalg
    rule = rect_rule(4)
    half = h / 2
    x, y = (half + half * rule.points).T
    one, zero = np.ones_like(x), np.zeros_like(x)
    grads = np.array([[one, zero], [zero, one], [y, x]])
    gram = np.einsum("q,iaq,jaq->ij", rule.weights * half * half, grads, grads)
    rhs = quadrant_bound_constant() * h * h * np.diag([1.0, 1.0, h * h])
    return float(scipy.linalg.eigh(gram, rhs, eigvals_only=True)[0])


def scan_trace_ratio(kind, beta_pairs, samples, seed=7) -> ScanReport:
    """Trace-inequality ratio of edge flux norms to element gradient norms,
    on the unit reference element (the ratio is invariant under scaling it),
    over a grid of about `samples` cuts per beta pair.

    Pass: the maximal ratio is finite and moves by less than 10% under a 4x
    refinement of the cut grid, and on rectangles the quadrant gradient
    lower bound holds with its explicit constant. `seed` is unused."""
    report = _refinement_scan("trace_ratio", f"{kind} flux trace ratios", kind, beta_pairs,
                              samples, _trace_ratios, "max_R")
    if kind == RECT:
        margin = quadrant_gradient_check()
        report.metrics["quadrant_bound_margin"] = margin
        report.passed = report.passed and margin >= 1.0 - 1e-10
    return report


# ---------------------------------------------------------------------------
# coercivity
# ---------------------------------------------------------------------------

def _lower_bands(A, *terms):
    """The symmetric parts 0.5 (X + X^T) of the CSR matrix A and of the
    `terms`, each (values, positions) on A's pattern, as lower bands
    (1 + len(terms), k + 1, n) in LAPACK's banded storage over the
    pattern's bandwidth k: each entry on or below the diagonal plus the
    mirror of each one on or above it."""
    row = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    d = row - A.indices
    terms = ((A.data, slice(None)),) + terms
    bands = np.zeros((2, len(terms), np.abs(d).max(initial=0) + 1, A.shape[0]))
    for i, (values, at) in enumerate(terms):
        low, up = d[at] >= 0, d[at] <= 0
        bands[0, i, d[at][low], A.indices[at][low]] = values[low]
        bands[1, i, -d[at][up], row[at][up]] = values[up]
    return 0.5 * (bands[0] + bands[1])


def _sym_part_spd(bands, params):
    """Whether the symmetric part of the scheme matrix A_vol + delta M +
    epsilon M^T + sigma0 P_unit (`DirichletSplit.system`) is positive definite. It is
    linear in the terms, sym(A_vol) + (delta + epsilon) sym(M) + sigma0
    sym(P_unit), so it is one combination of their `_lower_bands`, factored by
    a banded Cholesky (LAPACK pbtrf): order times squared bandwidth."""
    import scipy.linalg
    A_vol, M, P = bands
    ab = A_vol + (params.delta + params.epsilon) * M + params.sigma0 * P
    try:
        scipy.linalg.cholesky_banded(ab, lower=True, overwrite_ab=True, check_finite=False)
    except np.linalg.LinAlgError:
        return False
    return True


def _coercivity_bands(Ns, beta_pairs, cell_kind):
    """The `_lower_bands` of the free-node A_vol, M and P_unit (penalty
    exponent 1) and the cut set, per (N, beta pair) of the circle of radius
    DEFAULT_R0; the mesh, cut elements and interface edges once per N."""
    iface = circle(0.0, 0.0, DEFAULT_R0)
    bands = {}
    for N in Ns:
        mesh = build_mesh(DomainSpec(-1, 1, -1, 1, N, cell_kind))
        status, geo = classify_elements(mesh, iface)
        edges = interface_edges(mesh, geo)
        for bm, bp in beta_pairs:
            cuts = build_bases(geo, bm, bp)
            M, P, _ = assemble_edge_terms(mesh, edges, status, cuts, 1.0)
            split = apply_dirichlet(mesh, status, cuts, M, P, np.zeros(mesh.n_nodes),
                                    lambda x, y: np.zeros_like(x))
            bands[(N, (bm, bp))] = _lower_bands(split.A_vol, split.terms[0], split.terms[2]), cuts
    return bands


def scan_coercivity(Ns, beta_pairs, cell_kind, sigma0_override, seed=7) -> ScanReport:
    """Positive definiteness of the symmetric part of the assembled forms, on
    the `cell_kind` meshes of sizes `Ns`, per pair of `beta_pairs`.

    Pass: Cholesky succeeds for the SPP and IPP presets on every (N, beta)
    combination, and for NPP with its unit penalty at N = 20. The penalty at
    which SPP loses definiteness is bracketed within a factor of 2 and
    reported (informational). A `sigma0_override` that is not None replaces
    the presets' penalties (`MethodParams.preset`). `seed` is unused."""
    report = ScanReport("coercivity", f"{cell_kind} symmetric-part definiteness",
                        len(Ns) * len(beta_pairs))
    ok = True
    bands = _coercivity_bands(Ns, beta_pairs, cell_kind)
    N_npp = Ns[min(1, len(Ns) - 1)]
    for N in Ns:
        for pair in beta_pairs:
            band, cuts = bands[(N, pair)]
            for scheme in ("spp", "ipp") + (("npp",) if N == N_npp else ()):
                spd = _sym_part_spd(band, MethodParams.preset(scheme, cuts, sigma0_override))
                report.metrics[f"{scheme}_N{N}_b{pair[0]:g}_{pair[1]:g}"] = float(spd)
                ok = ok and spd
    # empirical SPP penalty threshold (halving scan, factor-2 bracket)
    band, cuts = bands[(N_npp, beta_pairs[0])]
    sig = MethodParams.preset("spp", cuts).sigma0
    s, lo = sig, 0.0
    while s / 2.0 >= 1e-8 * sig:
        if not _sym_part_spd(band, MethodParams(-1.0, -1.0, s / 2.0)):
            lo = s / 2.0
            break
        s /= 2.0
    report.metrics["spp_sigma_preset"] = sig
    report.metrics["spp_sigma_pd_down_to"] = s
    report.metrics["spp_sigma_fails_at"] = lo
    report.passed = bool(ok)
    return report


# ---------------------------------------------------------------------------
# interpolation flux error on interface edges
# ---------------------------------------------------------------------------

def interp_edge_error_study(Ns, beta_pair, cell_kind, seed=7) -> ScanReport:
    """Decay of sum_B ||beta grad(u - I_h u)|_K . n_B||^2 over interface edges,
    on the `cell_kind` meshes of sizes `Ns` with the coefficients `beta_pair`.

    Pass: the log-log slope of the sum against h is at least 1.8 (O(h^2) or
    better); the per-edge maximum and its slope are reported, for the circle
    of radius DEFAULT_R0. `seed` is unused."""
    bm, bp = beta_pair
    sol = radial_interface_solution(bm, bp)
    iface = circle(0.0, 0.0, DEFAULT_R0)
    sums, maxes = [], []
    for N in Ns:
        mesh = build_mesh(DomainSpec(-1, 1, -1, 1, N, cell_kind))
        status, cuts = classify_elements(mesh, iface)
        cuts = build_bases(cuts, bm, bp)
        coeffs = interpolate_nodal(mesh, sol, iface)
        tr = edge_traces(mesh, interface_edges(mesh, cuts), status, cuts)
        x, y = tr.points[..., 0], tr.points[..., 1]
        nB = mesh.edge_normals(tr.edges)[:, None]
        minus = np.asarray(iface.phi(x, y)) < 0
        bpt = np.where(minus, bm, bp)
        gx, gy = sol.grad(x, y, minus)
        # per edge and cut neighbour, in the order of an edge-by-edge walk
        contrib = np.zeros((len(tr.edges), 2))
        for s in (0, 1):
            el = tr.elements[:, s]
            cut = status[el] == INTERFACE
            ce = coeffs[mesh.element_nodes(el[cut])]
            gi = np.einsum("bd,bdqa->bqa", ce, tr.gradients[cut, s])
            fl = bpt[cut] * ((gx[cut] - gi[..., 0]) * nB[cut, :, 0]
                             + (gy[cut] - gi[..., 1]) * nB[cut, :, 1])
            contrib[cut, s] = np.vecdot(tr.weights[cut], fl * fl)
        sums.append(float(np.cumsum(np.concatenate([[0.0], contrib.ravel()]))[-1]))
        maxes.append(float(contrib.max(initial=0.0)))
    hs = np.log([2.0 / N for N in Ns])
    report = ScanReport("interp_edge_error", f"{cell_kind} interface-edge interpolation flux",
                        len(Ns))
    for N, ssum, smax in zip(Ns, sums, maxes):
        report.metrics[f"sum_N{N}"] = ssum
        report.metrics[f"max_N{N}"] = smax
    for key, values in (("slope_sum", sums), ("slope_max", maxes)):
        report.metrics[key] = float(np.polyfit(hs, np.log(values), 1)[0])
    report.passed = bool(report.metrics["slope_sum"] >= 1.8)
    return report
