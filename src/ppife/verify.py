"""Numerical probes of the analytical properties behind the method: local
coefficient bounds, trace-inequality ratios, a gradient lower bound on
quadrant sub-squares, coercivity of the assembled forms, and the decay of
interpolation flux errors on interface edges.

No analytic constants are asserted; every scan checks boundedness,
stability under sample/mesh refinement, or a log-log slope, which is what
can be verified numerically.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assembly import (MethodParams, assemble_edge_terms, assemble_volume, combine_system,
                       edge_traces)
from .errors import DegenerateGradient
from .geometry import (DomainSpec, RECT, SIDE_MINUS, TRI, build_mesh, circle,
                       classify_edges, classify_elements, split_convex_by_chord)
from .local_basis import bilinear_ife_basis, build_bases, linear_ife_basis
from .postprocess import interpolate_nodal, radial_interface_solution
from .quadrature import split_edge_rule, split_polygon_rule

DEFAULT_R0 = np.pi / 6.28


@dataclass
class ScanReport:
    scan_id: str
    description: str
    seed: int
    samples: int
    metrics: dict = field(default_factory=dict)
    details: list = field(default_factory=list)
    passed: bool = False

    def summary_line(self):
        status = "PASS" if self.passed else "FAIL"
        keys = ", ".join(f"{k}={v:.4g}" for k, v in sorted(self.metrics.items())
                         if isinstance(v, float))
        return f"{status} {self.scan_id}: {self.description} [{keys}]"

    def csv_rows(self):
        rows = [f"{self.scan_id},passed,{int(self.passed)}",
                f"{self.scan_id},seed,{self.seed}",
                f"{self.scan_id},samples,{self.samples}"]
        for k in sorted(self.metrics):
            rows.append(f"{self.scan_id},{k},{self.metrics[k]:.12e}")
        return rows


# ---------------------------------------------------------------------------
# random reference cuts
# ---------------------------------------------------------------------------

def _cut_params(rng):
    """Random (d, e) in [0.01, 0.99], weighted toward the endpoints where the
    extremal (thin-sliver) cuts live, so sampled maxima saturate quickly."""
    u = rng.uniform(0.0, 1.0, size=2)
    g = np.where(u < 0.5, 0.5 * (2 * u) ** 3, 1.0 - 0.5 * (2 * (1 - u)) ** 3)
    return 0.01 + 0.98 * g


def _reference_cut(kind, rng, h=1.0):
    """Random cut of the reference element; returns (verts, D, E, normal,
    poly_minus, poly_plus) with the minus side containing the origin vertex."""
    d, e = _cut_params(rng)
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


def _build_ife(kind, cutdata, beta_minus, beta_plus):
    verts, D, E, n, _, _ = cutdata
    if kind == TRI:
        return linear_ife_basis(0, verts, D, E, n, beta_minus, beta_plus)
    return bilinear_ife_basis(0, verts, D, E, n, beta_minus, beta_plus)


# ---------------------------------------------------------------------------
# coefficient bounds
# ---------------------------------------------------------------------------

def _coef_ratio_max(kind, beta_pair, samples, rng):
    worst = 0.0
    for _ in range(samples):
        cut = _reference_cut(kind, rng)
        basis = _build_ife(kind, cut, *beta_pair)
        cm, cp = basis.phys_coefficients()
        for j in range(basis.n_funcs):
            nm = np.linalg.norm(cm[j])
            npn = np.linalg.norm(cp[j])
            if min(nm, npn) == 0.0:
                continue
            worst = max(worst, nm / npn, npn / nm)
    return worst


def scan_coefficient_bounds(kind, beta_pairs, samples=2000, seed=7) -> ScanReport:
    """Ratios of the two pieces' coefficient norms over random cuts.

    Pass: every ratio is finite and the observed maximum moves by less than
    10% when the sample count is refined 4x (uniformity in the cut location).
    """
    report = ScanReport("coefficient_bounds", f"{kind} coefficient-norm ratios",
                        seed, samples)
    ok = True
    for pair in beta_pairs:
        rng = np.random.default_rng(seed)
        base = _coef_ratio_max(kind, pair, samples, rng)
        rng = np.random.default_rng(seed)
        fine = _coef_ratio_max(kind, pair, 4 * samples, rng)
        tag = f"b{pair[0]:g}_{pair[1]:g}"
        report.metrics[f"max_ratio_{tag}"] = base
        report.metrics[f"max_ratio_refined_{tag}"] = fine
        drift = abs(fine - base) / base
        report.metrics[f"drift_{tag}"] = drift
        ok = ok and np.isfinite(fine) and drift < 0.10
    report.passed = bool(ok)
    return report


# ---------------------------------------------------------------------------
# trace ratios and the quadrant gradient bound
# ---------------------------------------------------------------------------

def _element_edges_of(verts):
    nv = len(verts)
    return [(verts[i], verts[(i + 1) % nv]) for i in range(nv)]


def _trace_ratio(kind, cutdata, basis, beta_pair, h):
    """max_B max_v ||beta grad(v).n_B|| / (h^{1/2} |K|^{-1/2} ||sqrt(beta) grad v||).

    The maximum over nodal coefficient vectors on the unit sphere is computed
    exactly as the largest generalized eigenvalue of the edge-flux Gram matrix
    against the element gradient Gram matrix (restricted to the complement of
    the constants, where the denominator is positive definite).
    """
    import scipy.linalg

    verts, D, E, n, poly_minus, poly_plus = cutdata
    bm, bp = beta_pair
    d = basis.n_funcs
    Dmat = np.zeros((d, d))
    for side, poly, b in ((SIDE_MINUS, poly_minus, bm), (1, poly_plus, bp)):
        rule = split_polygon_rule(poly, 4)
        G = basis.gradients_piece(rule.points, side)
        Dmat += b * np.einsum("q,iqa,jqa->ij", rule.weights, G, G)
    if np.trace(Dmat) < 1e-28:
        raise DegenerateGradient("degenerate element gradients")
    # orthonormal complement of the constant nodal vector
    ones = np.full(d, 1.0 / np.sqrt(d))
    W = scipy.linalg.null_space(ones[None, :])
    Dr = W.T @ Dmat @ W
    areaK = h * h if kind == RECT else h * h / 2

    worst = 0.0
    for a, b2 in _element_edges_of(verts):
        nB = b2 - a
        nB = np.array([nB[1], -nB[0]]) / np.linalg.norm(nB)
        rule = split_edge_rule(a, b2, [D, E], 4)
        G = basis.gradients(rule.points)
        bpt = np.where(basis.side_plus_mask(rule.points), bp, bm)
        fl = bpt[None, :] * np.einsum("dqa,a->dq", G, nB)
        Nmat = np.einsum("q,iq,jq->ij", rule.weights, fl, fl)
        lam = scipy.linalg.eigh(W.T @ Nmat @ W, Dr, eigvals_only=True)[-1]
        worst = max(worst, np.sqrt(max(lam, 0.0) * areaK / h))
    return worst


def _trace_max(kind, beta_pair, samples, seed, h):
    rng = np.random.default_rng(seed)
    worst = 0.0
    skipped = 0
    for _ in range(samples):
        cut = _reference_cut(kind, rng, h)
        basis = _build_ife(kind, cut, *beta_pair)
        try:
            worst = max(worst, _trace_ratio(kind, cut, basis, beta_pair, h))
        except DegenerateGradient:
            skipped += 1
    return worst, skipped


def quadrant_sigma():
    """The sigma in (9/12, 7/9) equalizing the two quadrant-bound terms."""
    return (1.0 + np.sqrt(163.0)) / 18.0


def quadrant_bound_constant():
    s = quadrant_sigma()
    return min(12.0 - 9.0 / s, 2.0 * (7.0 - 9.0 * s)) / 48.0


def quadrant_gradient_check(samples, seed, hs=(1.0, 0.5)):
    """Check int_{far quadrant} |grad v|^2 >= C h^2 (c2^2 + c3^2 + c4^2 h^2)
    for random bilinear coefficient vectors, by direct quadrature."""
    rng = np.random.default_rng(seed)
    C = quadrant_bound_constant()
    margin = np.inf
    from .quadrature import map_rect, rect_rule
    rule = rect_rule(4)
    for _ in range(samples):
        c = rng.standard_normal(4)
        h = hs[int(rng.integers(len(hs)))]
        pts, w = map_rect(rule, (h / 2, h / 2), h / 2)
        gx = c[1] + c[3] * pts[:, 1]
        gy = c[2] + c[3] * pts[:, 0]
        lhs = float(np.dot(w, gx * gx + gy * gy))
        rhs = C * h * h * (c[1] ** 2 + c[2] ** 2 + c[3] ** 2 * h * h)
        if rhs > 0:
            margin = min(margin, lhs / rhs)
    return float(margin)


def scan_trace_ratio(kind, beta_pairs, samples=800, seed=7, hs=(1.0, 0.5, 0.25)) -> ScanReport:
    """Trace-inequality ratio of edge flux norms to element gradient norms.

    Pass: the maximal ratio changes by less than 10% under a 4x sample
    refinement and across element sizes h in `hs` (h-independence). For the
    bilinear kind the scan additionally verifies the quadrant gradient lower
    bound with its explicit constant.
    """
    report = ScanReport("trace_ratio", f"{kind} flux trace ratios", seed, samples)
    ok = True
    for pair in beta_pairs:
        tag = f"b{pair[0]:g}_{pair[1]:g}"
        per_h = []
        for h in hs:
            base, _ = _trace_max(kind, pair, samples, seed, h)
            per_h.append(base)
            report.metrics[f"max_R_{tag}_h{h:g}"] = base
        fine, skipped = _trace_max(kind, pair, 4 * samples, seed, hs[0])
        report.metrics[f"max_R_refined_{tag}"] = fine
        drift = abs(fine - per_h[0]) / per_h[0]
        spread = max(per_h) / min(per_h) - 1.0
        report.metrics[f"drift_{tag}"] = drift
        report.metrics[f"h_spread_{tag}"] = spread
        ok = ok and np.isfinite(fine) and drift < 0.10 and spread < 0.10
    if kind == RECT:
        margin = quadrant_gradient_check(1000, seed)
        report.metrics["quadrant_bound_margin"] = margin
        ok = ok and margin >= 1.0 - 1e-10
    report.passed = bool(ok)
    return report


# ---------------------------------------------------------------------------
# coercivity
# ---------------------------------------------------------------------------

def _is_spd(A_dense):
    try:
        np.linalg.cholesky(A_dense)
        return True
    except np.linalg.LinAlgError:
        return False


def _free_matrices(N, beta_pair, cell_kind=RECT, r0=DEFAULT_R0, alpha=1.0):
    bm, bp = beta_pair
    mesh = build_mesh(DomainSpec(-1, 1, -1, 1, N, cell_kind))
    iface = circle(0.0, 0.0, r0)
    status, cuts = classify_elements(mesh, iface)
    labels = classify_edges(mesh, status)
    bases = build_bases(mesh, cuts, bm, bp)
    A_vol = assemble_volume(mesh, status, cuts, bases, bm, bp)
    M, P, _ = assemble_edge_terms(mesh, labels, status, cuts, bases, bm, bp, alpha)
    free = mesh.interior_nodes
    return A_vol[free][:, free], M[free][:, free], P[free][:, free]


def _sym_part_spd(A_vol, M, P, params):
    A = combine_system(A_vol, M, P, params).toarray()
    return _is_spd(0.5 * (A + A.T))


def scan_coercivity(Ns=(10, 20, 40), beta_pairs=((1.0, 10.0), (1.0, 10000.0)),
                    cell_kind=RECT, seed=7, sigma0_override=None) -> ScanReport:
    """Positive definiteness of the symmetric part of the assembled forms.

    Pass: Cholesky succeeds for the SPP and IPP presets on every (N, beta)
    combination, and for NPP with its unit penalty at N = 20. The minimal
    penalty at which SPP loses definiteness is located within a factor of 2
    and reported (informational).
    """
    report = ScanReport("coercivity", f"{cell_kind} symmetric-part definiteness",
                        seed, len(Ns) * len(beta_pairs))
    ok = True
    cache = {}
    for N in Ns:
        for pair in beta_pairs:
            cache[(N, pair)] = _free_matrices(N, pair, cell_kind)
            A_vol, M, P = cache[(N, pair)]
            for scheme in ("spp", "ipp"):
                params = MethodParams.preset(scheme, *pair, sigma0=sigma0_override)
                spd = _sym_part_spd(A_vol, M, P, params)
                report.metrics[f"{scheme}_N{N}_b{pair[0]:g}_{pair[1]:g}"] = float(spd)
                ok = ok and spd
    for pair in beta_pairs:
        key = (Ns[min(1, len(Ns) - 1)], pair)
        A_vol, M, P = cache[key]
        npp = MethodParams.preset("npp", *pair, sigma0=sigma0_override)
        spd = _sym_part_spd(A_vol, M, P, npp)
        report.metrics[f"npp_N{key[0]}_b{pair[0]:g}_{pair[1]:g}"] = float(spd)
        ok = ok and spd

    # empirical SPP penalty threshold (halving scan, factor-2 bracket)
    A_vol, M, P = cache[(Ns[min(1, len(Ns) - 1)], beta_pairs[0])]
    sig = MethodParams.preset("spp", *beta_pairs[0]).sigma0

    def spd_at(sigma):
        return _sym_part_spd(A_vol, M, P, MethodParams("custom", -1.0, -1.0, sigma))

    lo = 0.0
    s = sig
    for _ in range(40):
        s_try = s / 2.0
        if s_try < 1e-8 * sig:
            break
        if spd_at(s_try):
            s = s_try
        else:
            lo = s_try
            break
    report.metrics["spp_sigma_preset"] = sig
    report.metrics["spp_sigma_pd_down_to"] = s
    report.metrics["spp_sigma_fails_at"] = lo if lo > 0 else 0.0
    report.passed = bool(ok)
    return report


# ---------------------------------------------------------------------------
# interpolation flux error on interface edges
# ---------------------------------------------------------------------------

def interp_edge_error_study(Ns=(20, 40, 80, 160), beta_pair=(1.0, 10.0),
                            cell_kind=RECT, r0=DEFAULT_R0, seed=7) -> ScanReport:
    """Decay of sum_B ||beta grad(u - I_h u)|_K . n_B||^2 over interface edges.

    Pass: the log-log slope of the sum against h is at least 1.8 (O(h^2) or
    better). The per-edge maximum and its slope are reported as well.
    """
    bm, bp = beta_pair
    sol = radial_interface_solution(bm, bp, r0=r0)
    iface = circle(0.0, 0.0, r0)
    sums, maxes = [], []
    for N in Ns:
        mesh = build_mesh(DomainSpec(-1, 1, -1, 1, N, cell_kind))
        status, cuts = classify_elements(mesh, iface)
        labels = classify_edges(mesh, status)
        bases = build_bases(mesh, cuts, bm, bp)
        coeffs = interpolate_nodal(mesh, sol, iface)
        total = 0.0
        worst = 0.0
        for trace in edge_traces(mesh, labels, status, cuts, bases, bm, bp, degree=6):
            x, y = trace.points[:, 0], trace.points[:, 1]
            nB = mesh.edge_normals[trace.edge]
            minus = np.asarray(iface.phi(x, y)) < 0
            bpt = np.where(minus, bm, bp)
            gx, gy = sol.grad(x, y, minus)
            for side in trace.sides:
                if side.element not in bases:
                    continue
                gi = np.einsum("d,dqa->qa", coeffs[mesh.elements[side.element]], side.gradients)
                fl = bpt * ((gx - gi[:, 0]) * nB[0] + (gy - gi[:, 1]) * nB[1])
                contrib = float(np.dot(trace.weights, fl * fl))
                total += contrib
                worst = max(worst, contrib)
        sums.append(total)
        maxes.append(worst)
    hs = np.log([2.0 / N for N in Ns])
    slope_sum = float(np.polyfit(hs, np.log(sums), 1)[0])
    slope_max = float(np.polyfit(hs, np.log(maxes), 1)[0])
    report = ScanReport("interp_edge_error", f"{cell_kind} interface-edge interpolation flux",
                        seed, len(Ns))
    for N, ssum, smax in zip(Ns, sums, maxes):
        report.metrics[f"sum_N{N}"] = ssum
        report.metrics[f"max_N{N}"] = smax
    report.metrics["slope_sum"] = slope_sum
    report.metrics["slope_max"] = slope_max
    report.passed = bool(slope_sum >= 1.8)
    return report
