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
from functools import lru_cache

import numpy as np

from .assembly import (MethodParams, assemble_edge_terms, assemble_volume,
                       cut_volume_matrices, edge_traces, restrict)
from .geometry import (INTERFACE, RECT, TRI, CutSet, DomainSpec, build_mesh, circle,
                       classify_elements, interface_edges, ring_chains)
from .local_basis import build_bases, cut_frame, cut_gradients, phys_coefficients
from .postprocess import interpolate_nodal, radial_interface_solution
from .quadrature import map_segment, rect_rule, segment_rule

DEFAULT_R0 = np.pi / 6.28


@dataclass
class ScanReport:
    scan_id: str
    description: str
    seed: int
    samples: int
    metrics: dict = field(default_factory=dict)
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

_REF_VERTS = {TRI: np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
              RECT: np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])}

def _draw_cuts(kind, samples, seed):
    """Parameters of `samples` random reference cuts: (d, e) per sample in
    [0.01, 0.99], weighted toward the endpoints where the extremal
    (thin-sliver) cuts live, so sampled maxima saturate quickly, and, for
    rectangles, whether the chord joins opposite edges. A scan reseeds for
    every run, so a run's cuts are the first ones of a longer run.

    The draws are bit for bit those of a per-sample `rng.uniform(size=2)`
    and, on rectangles, `rng.integers(2)`, decoded from PCG64 words: a double
    is the top 53 bits of a word, a coin the top bit of a 32-bit half, the
    low half first and the buffered high half for the next coin. A pair of
    rectangle samples takes five words, d d i d d."""
    rng = np.random.default_rng(seed)
    if kind == RECT:
        words = rng.bit_generator.random_raw(5 * -(-samples // 2)).reshape(-1, 5)
        u = ((words[:, [0, 1, 3, 4]] >> 11) * 2.0 ** -53).reshape(-1, 2)[:samples]
        coins = words[:, 2:3] >> np.array([31, 63], dtype=np.uint64) & 1
        opposite = coins.ravel()[:samples] != 0
    else:
        u = rng.uniform(size=(samples, 2))
        opposite = np.zeros(samples, dtype=bool)
    g = np.where(u < 0.5, 0.5 * (2 * u) ** 3, 1.0 - 0.5 * (2 * (1 - u)) ** 3)
    return 0.01 + 0.98 * g, opposite


def _reference_cuts(kind, draws) -> CutSet:
    """The drawn cuts on the unit reference element, as a CutSet whose ids
    are the sample indices. The minus side holds the origin vertex; D sits at
    height d on x = 0 (at x = d on y = 1 for opposite-edge cuts) and E at
    x = e on y = 0."""
    params, opposite = draws
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

def _coef_ratios(kind, draws, beta_pair):
    """Per cut, the largest ratio between the two pieces' physical coefficient
    norms over the nodal functions (functions with a zero piece are skipped)."""
    cuts = build_bases(_reference_cuts(kind, draws), *beta_pair)
    norms = []
    for c in (cuts.cm, cuts.cp):
        phys = phys_coefficients(c, cuts.origin, cuts.h)
        norms.append(np.sqrt(np.vecdot(phys, phys)))
    lo, hi = np.minimum(*norms), np.maximum(*norms)
    keep = lo > 0.0
    return np.where(keep, hi / np.where(keep, lo, 1.0), 0.0).max(axis=1)


def _refinement_scan(report, kind, beta_pairs, samples, seed, ratios, prefix):
    """Record, per beta pair, the largest of `ratios(kind, draws, pair)` over
    the first `samples` of 4 * samples drawn cuts (`<prefix>_<tag>`), over all
    of them (`<prefix>_refined_<tag>`) and their relative drift; returns
    whether every maximum is finite and moves by less than 10% under the 4x
    sample refinement."""
    ok = True
    draws = _draw_cuts(kind, 4 * samples, seed)
    for pair in beta_pairs:
        r = ratios(kind, draws, pair)
        base = float(r[:samples].max(initial=0.0))
        fine = float(r.max(initial=0.0))
        tag = f"b{pair[0]:g}_{pair[1]:g}"
        report.metrics[f"{prefix}_{tag}"] = base
        report.metrics[f"{prefix}_refined_{tag}"] = fine
        drift = abs(fine - base) / base
        report.metrics[f"drift_{tag}"] = drift
        ok = ok and np.isfinite(fine) and drift < 0.10
    return ok


def scan_coefficient_bounds(kind, beta_pairs, samples=2000, seed=7) -> ScanReport:
    """Ratios of the two pieces' coefficient norms over random cuts.

    Pass: every ratio is finite and the observed maximum moves by less than
    10% when the sample count is refined 4x (uniformity in the cut location).
    """
    report = ScanReport("coefficient_bounds", f"{kind} coefficient-norm ratios",
                        seed, samples)
    report.passed = bool(_refinement_scan(report, kind, beta_pairs, samples, seed,
                                          _coef_ratios, "max_ratio"))
    return report


# ---------------------------------------------------------------------------
# trace ratios and the quadrant gradient bound
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _constant_complement(d):
    """Orthonormal basis (d, d-1) of the complement of the constant nodal vector."""
    import scipy.linalg
    return scipy.linalg.null_space(np.full((1, d), 1.0 / np.sqrt(d)))


def _trace_ratios(kind, draws, beta_pair):
    """Per cut of the unit reference element, max_B max_v ||beta grad(v).n_B||_B
    / (h^{1/2} |K|^{-1/2} ||sqrt(beta) grad v||_K) over the element edges B, at
    h = 1; 0 for a cut whose gradient Gram matrix is degenerate.

    The maximum over nodal coefficient vectors on the unit sphere is the
    largest generalized eigenvalue of the edge-flux Gram matrix against the
    element gradient Gram matrix, restricted to the complement of the
    constants, where the latter is positive definite. It is computed for all
    cuts and edges at once through the Cholesky factor of the projected
    gradient Gram matrix.
    """
    bm, bp = beta_pair
    cuts = build_bases(_reference_cuts(kind, draws), bm, bp)
    S, nv = cuts.verts.shape[:2]
    d = cuts.cm.shape[1]

    Dmat = cut_volume_matrices(cuts, bm, bp)
    valid = np.trace(Dmat, axis1=1, axis2=2) >= 1e-28
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


def quadrant_gradient_check(samples, seed, hs=(1.0, 0.5)):
    """Check int_{far quadrant} |grad v|^2 >= C h^2 (c2^2 + c3^2 + c4^2 h^2)
    for random bilinear coefficient vectors, by direct quadrature."""
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


def scan_trace_ratio(kind, beta_pairs, samples=800, seed=7) -> ScanReport:
    """Trace-inequality ratio of edge flux norms to element gradient norms,
    on the unit reference element (the ratio is invariant under scaling it).

    Pass: the maximal ratio is finite and changes by less than 10% under a
    4x sample refinement. For the bilinear kind the scan additionally
    verifies the quadrant gradient lower bound with its explicit constant.
    """
    report = ScanReport("trace_ratio", f"{kind} flux trace ratios", seed, samples)
    ok = _refinement_scan(report, kind, beta_pairs, samples, seed, _trace_ratios, "max_R")
    if kind == RECT:
        margin = quadrant_gradient_check(1000, seed)
        report.metrics["quadrant_bound_margin"] = margin
        ok = ok and margin >= 1.0 - 1e-10
    report.passed = bool(ok)
    return report


# ---------------------------------------------------------------------------
# coercivity
# ---------------------------------------------------------------------------

def _lower_bands(*mats):
    """The symmetric parts of the sparse (n, n) matrices `mats` as lower
    bands (len(mats), k + 1, n) in LAPACK's banded storage over the largest
    bandwidth k among them."""
    entries = []
    for X in mats:
        X = (0.5 * (X + X.T)).tocoo()
        low = X.row >= X.col
        entries.append((X.row[low] - X.col[low], X.col[low], X.data[low]))
    bands = np.zeros((len(mats), max(d.max(initial=0) for d, _, _ in entries) + 1,
                      mats[0].shape[0]))
    for band, (d, c, v) in zip(bands, entries):
        band[d, c] = v
    return bands


def _sym_part_spd(bands, params):
    """Whether the symmetric part of the scheme matrix A_vol + delta M +
    epsilon M^T + sigma0 P_unit (`combine_system`) is positive definite. It is
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


def _coercivity_bands(Ns, beta_pairs, cell_kind, r0=DEFAULT_R0, alpha=1.0):
    """The `_lower_bands` of the free-node A_vol, M and P_unit per (N, beta
    pair). The mesh, the cut elements and the interface edges do not depend
    on beta, so they are built once per N."""
    iface = circle(0.0, 0.0, r0)
    bands = {}
    for N in Ns:
        mesh = build_mesh(DomainSpec(-1, 1, -1, 1, N, cell_kind))
        status, geo = classify_elements(mesh, iface)
        edges = interface_edges(mesh, geo)
        for bm, bp in beta_pairs:
            cuts = build_bases(geo, bm, bp)
            A_vol = assemble_volume(mesh, status, cuts, bm, bp)
            M, P, _ = assemble_edge_terms(mesh, edges, status, cuts, bm, bp, alpha)
            bands[(N, (bm, bp))] = _lower_bands(
                *(restrict(X, mesh.interior_nodes) for X in (A_vol, M, P)))
    return bands


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
    bands = _coercivity_bands(Ns, beta_pairs, cell_kind)
    for N in Ns:
        for pair in beta_pairs:
            for scheme in ("spp", "ipp"):
                params = MethodParams.preset(scheme, *pair, sigma0=sigma0_override)
                spd = _sym_part_spd(bands[(N, pair)], params)
                report.metrics[f"{scheme}_N{N}_b{pair[0]:g}_{pair[1]:g}"] = float(spd)
                ok = ok and spd
    N_npp = Ns[min(1, len(Ns) - 1)]
    for pair in beta_pairs:
        npp = MethodParams.preset("npp", *pair, sigma0=sigma0_override)
        spd = _sym_part_spd(bands[(N_npp, pair)], npp)
        report.metrics[f"npp_N{N_npp}_b{pair[0]:g}_{pair[1]:g}"] = float(spd)
        ok = ok and spd

    # empirical SPP penalty threshold (halving scan, factor-2 bracket)
    sig = MethodParams.preset("spp", *beta_pairs[0]).sigma0

    def spd_at(sigma):
        return _sym_part_spd(bands[(N_npp, beta_pairs[0])],
                             MethodParams("custom", -1.0, -1.0, sigma))

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
        cuts = build_bases(cuts, bm, bp)
        coeffs = interpolate_nodal(mesh, sol, iface)
        tr = edge_traces(mesh, interface_edges(mesh, cuts), status, cuts, bm, bp, degree=6,
                         values=False)
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
            gi = np.einsum("bd,bdqa->bqa", coeffs[mesh.elements[el[cut]]], tr.gradients[cut, s])
            fl = bpt[cut] * ((gx[cut] - gi[..., 0]) * nB[cut, :, 0]
                             + (gy[cut] - gi[..., 1]) * nB[cut, :, 1])
            contrib[cut, s] = np.vecdot(tr.weights[cut], fl * fl)
        sums.append(float(np.cumsum(np.concatenate([[0.0], contrib.ravel()]))[-1]))
        maxes.append(float(contrib.max(initial=0.0)))
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
