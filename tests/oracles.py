"""Independent reference implementations that the tests compare against.

None of this runs in the solver: storage checks and naive products for the
sparse kernels, a dense solve for small systems, the closed-form linear IFE
coupling, the per-norm error passes that `postprocess.error_norms` fuses, the
one-segment crossing solve that `geometry.edge_crossings` vectorises, and the
per-element standard basis that the templates replace, and the per-element
immersed-basis solve, reference cuts and lemma-scan ratios that
`local_basis.ife_coefficients` and `verify` stack over elements and samples.
"""
import numpy as np
import scipy.sparse as sp

from ppife.assembly import DATA_DEGREE, DATA_REFINE, EDGE_DEGREE, bulk_rules, cut_data_rules
from ppife.errors import MultipleCrossings, SingularLocalSystem
from ppife.geometry import (EDGE_INTERFACE, RECT, SIDE_MINUS, TRI, edge_split_points,
                            split_convex_by_chord)
from ppife.local_basis import (_TEMPLATES, CHORD_TIE_TOL, LocalBasis, _monomials,
                               template_gradients, template_values)
from ppife.quadrature import split_edge_rule, split_polygon_rule
from ppife.verify import _cut_params

_N_EDGE_SAMPLES = 17


def _compressed_sign_flips(signs):
    nz = signs[signs != 0]
    if len(nz) < 2:
        return 0
    return int(np.count_nonzero(nz[:-1] * nz[1:] < 0))


def edge_intersection(p0, p1, iface, h=None):
    """Interface crossing of the segment p0 -> p1, or None.

    Endpoints with |phi| < snap_tol*h are snapped onto the curve, in which
    case no interior intersection is reported. A sign audit on a 16-interval
    refinement raises MultipleCrossings when the curve cuts the segment more
    than once. The crossing parameter is resolved to 1e-14 by bisection.
    """
    p0 = np.asarray(p0, float)
    p1 = np.asarray(p1, float)
    if h is None:
        h = np.linalg.norm(p1 - p0)
    tol = iface.snap_tol * h

    ts = np.linspace(0.0, 1.0, _N_EDGE_SAMPLES)
    pts = p0 + ts[:, None] * (p1 - p0)
    vals = np.asarray(iface.phi(pts[:, 0], pts[:, 1]), float)
    signs = np.where(np.abs(vals) < tol, 0, np.sign(vals)).astype(int)
    if _compressed_sign_flips(signs) > 1:
        raise MultipleCrossings(
            f"interface crosses segment {p0}->{p1} more than once; refine the mesh")
    if signs[0] == 0 or signs[-1] == 0:
        return None
    if signs[0] * signs[-1] > 0:
        return None

    # bracket between the nearest strictly-signed samples (interior samples may
    # sit inside the snap band around the crossing), then bisect
    s0 = signs[0]
    j = int(np.flatnonzero(signs == -s0)[0])
    k = int(np.flatnonzero(signs[:j] == s0)[-1])
    a, b = ts[k], ts[j]
    fa = float(vals[k])
    for _ in range(60):
        if b - a <= 1e-14:
            break
        m = 0.5 * (a + b)
        pm = p0 + m * (p1 - p0)
        fm = float(iface.phi(pm[0], pm[1]))
        if fm == 0.0:
            a = b = m
            break
        if fa * fm < 0:
            b = m
        else:
            a, fa = m, fm
    t = 0.5 * (a + b)
    return p0 + t * (p1 - p0)


def standard_basis(element_id, verts, kind, variant=None):
    """Standard nodal basis of one element in its own scaled frame; uses the
    fixed templates when the scaled element matches one, otherwise solves the
    small Vandermonde system."""
    verts = np.asarray(verts, float)
    origin = verts.min(axis=0)
    h = max(np.ptp(verts[:, 0]), np.ptp(verts[:, 1]))
    sv = (verts - origin) / h
    if variant is not None:
        C = _TEMPLATES[variant]
    else:
        m = len(verts)
        V = _monomials(sv, m)
        C = np.linalg.inv(V).T
    return LocalBasis(element_id, kind, origin, h, C, C)


def ife_basis(element_id, verts, D, E, chord_normal, beta_minus, beta_plus):
    """Immersed basis of one cut element, its jump-condition system written
    out row by row: P1 on a triangle, Q1 (shared xy coefficient, flux matched
    at the chord midpoint) on a rectangle; the flux row is divided by max(beta)."""
    verts = np.asarray(verts, float)
    nv = len(verts)
    origin = verts.min(axis=0)
    h = max(np.ptp(verts[:, 0]), np.ptp(verts[:, 1]))
    n = np.asarray(chord_normal, float)
    D = np.asarray(D, float)
    E = np.asarray(E, float)
    Ds = (D - origin) / h
    Es = (E - origin) / h
    sv = (verts - origin) / h
    side = ((verts - D) @ n) > CHORD_TIE_TOL * h
    bscale = max(beta_minus, beta_plus)

    size = 7 if nv == 4 else 6
    M = np.zeros((size, size))
    rhs = np.zeros((size, nv))
    for i in range(nv):
        off = 3 if side[i] else 0
        M[i, off:off + 3] = [1.0, sv[i, 0], sv[i, 1]]
        if nv == 4:
            M[i, 6] = sv[i, 0] * sv[i, 1]
        rhs[i, i] = 1.0
    M[nv, :6] = [1.0, Ds[0], Ds[1], -1.0, -Ds[0], -Ds[1]]
    M[nv + 1, :6] = [1.0, Es[0], Es[1], -1.0, -Es[0], -Es[1]]
    M[nv + 2, :6] = [0.0, beta_minus * n[0] / bscale, beta_minus * n[1] / bscale,
                     0.0, -beta_plus * n[0] / bscale, -beta_plus * n[1] / bscale]
    if nv == 4:
        mid = 0.5 * (Ds + Es)
        M[6, 6] = (beta_minus - beta_plus) * (n[0] * mid[1] + n[1] * mid[0]) / bscale

    cond = np.linalg.cond(M)
    if not np.isfinite(cond) or cond > 1e14:
        raise SingularLocalSystem(f"element {element_id}: condition estimate {cond:.3e}")
    X = np.linalg.solve(M, rhs)
    rl = rhs.astype(np.longdouble) - M.astype(np.longdouble) @ X.astype(np.longdouble)
    X = X + np.linalg.solve(M, rl.astype(float))
    resid = np.abs(M.astype(np.longdouble) @ X.astype(np.longdouble) - rhs).max()
    if not np.isfinite(resid) or resid > 1e-12:
        raise SingularLocalSystem(f"element {element_id}: local residual {float(resid):.3e}")
    if nv == 4:
        cm = np.column_stack([X[0], X[1], X[2], X[6]])
        cp = np.column_stack([X[3], X[4], X[5], X[6]])
    else:
        cm, cp = X[:3].T.copy(), X[3:].T.copy()
    return LocalBasis(element_id, "ife_q1" if nv == 4 else "ife_p1", origin, h, cm, cp,
                      D=D, E=E, chord_normal=n)


def reference_cut(kind, rng, h=1.0):
    """One random cut of the reference element, drawn as the scans draw them;
    returns (verts, D, E, normal, poly_minus, poly_plus) with the minus side
    containing the origin vertex."""
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


def coef_ratio_max(kind, beta_pair, samples, rng):
    """Largest ratio between the two pieces' physical coefficient norms over
    `samples` reference cuts drawn from rng and their nodal functions."""
    worst = 0.0
    for _ in range(samples):
        cut = reference_cut(kind, rng)
        cm, cp = ife_basis(0, *cut[:4], *beta_pair).phys_coefficients()
        for j in range(len(cm)):
            nm = np.linalg.norm(cm[j])
            npn = np.linalg.norm(cp[j])
            if min(nm, npn) == 0.0:
                continue
            worst = max(worst, nm / npn, npn / nm)
    return worst


def trace_ratio(kind, cutdata, beta_pair, h):
    """max_B max_v ||beta grad(v).n_B|| / (h^{1/2} |K|^{-1/2} ||sqrt(beta) grad v||)
    on one reference cut, or None when its gradient Gram matrix is degenerate:
    polygon rules per piece, a split rule per element edge and one generalized
    symmetric eigenproblem per edge."""
    import scipy.linalg

    verts, D, E, n, poly_minus, poly_plus = cutdata
    bm, bp = beta_pair
    basis = ife_basis(0, verts, D, E, n, bm, bp)
    d = basis.n_funcs
    Dmat = np.zeros((d, d))
    for side, poly, b in ((SIDE_MINUS, poly_minus, bm), (1, poly_plus, bp)):
        rule = split_polygon_rule(poly, 4)
        G = basis.gradients_piece(rule.points, side)
        Dmat += b * np.einsum("q,iqa,jqa->ij", rule.weights, G, G)
    if np.trace(Dmat) < 1e-28:
        return None
    W = scipy.linalg.null_space(np.full((1, d), 1.0 / np.sqrt(d)))
    Dr = W.T @ Dmat @ W
    areaK = h * h if kind == RECT else h * h / 2

    worst = 0.0
    for i in range(len(verts)):
        a, b = verts[i], verts[(i + 1) % len(verts)]
        t = b - a
        nB = np.array([t[1], -t[0]]) / np.linalg.norm(t)
        # the chord ends that lie strictly inside this edge
        inside = [X for X in (D, E)
                  if abs(t[0] * (X - a)[1] - t[1] * (X - a)[0]) < 1e-12 * h * h
                  and 0.0 < (X - a) @ t < t @ t]
        rule = split_edge_rule(a, b, inside, 4)
        G = basis.gradients(rule.points)
        bpt = np.where(basis.side_plus_mask(rule.points), bp, bm)
        fl = bpt[None, :] * np.einsum("dqa,a->dq", G, nB)
        Nmat = np.einsum("q,iq,jq->ij", rule.weights, fl, fl)
        lam = scipy.linalg.eigh(W.T @ Nmat @ W, Dr, eigvals_only=True)[-1]
        worst = max(worst, np.sqrt(max(lam, 0.0) * areaK / h))
    return worst


def check_csr(A):
    """Validate CSR storage: monotone indptr, strictly increasing columns."""
    A = A.tocsr()
    indptr, indices = A.indptr, A.indices
    if indptr[0] != 0 or indptr[-1] != len(indices):
        raise ValueError("broken indptr")
    if np.any(np.diff(indptr) < 0):
        raise ValueError("indptr not monotone")
    for r in range(A.shape[0]):
        cols = indices[indptr[r]:indptr[r + 1]]
        if len(cols) > 1 and np.any(np.diff(cols) <= 0):
            raise ValueError(f"row {r}: columns not strictly increasing")
    return True


def dense_solve(A, b):
    """Dense LU oracle for small systems (n <= 2000)."""
    if sp.issparse(A):
        n = A.shape[0]
        if n > 2000:
            raise ValueError("dense fallback limited to n <= 2000")
        A = A.toarray()
    return np.linalg.solve(A, b)


def matvec_triplets(rows, cols, data, x, n):
    """Naive triplet-based product, used as an oracle for the CSR product."""
    y = np.zeros(n)
    np.add.at(y, rows, data * x[cols])
    return y


def linear_coupling_matrix(d, e, h, beta_minus, beta_plus):
    """Closed-form map c+ = F c- for a linear immersed function on the
    reference triangle with D = (0, d h), E = (e h, 0) (physical monomials).

    Derived by eliminating the two point-continuity conditions and the flux
    condition; an independent oracle for the local solver.
    """
    rho = beta_minus / beta_plus
    q = d * d + e * e
    g_minus = np.array([[0.0, -d * d * e * h, -d * e * e * h],
                        [0.0, d * d, d * e],
                        [0.0, d * e, e * e]])
    g_plus = np.array([[q, d * d * e * h, d * e * e * h],
                       [0.0, e * e, -d * e],
                       [0.0, -d * e, d * d]])
    return (g_minus * rho + g_plus) / q


def reference_error_norms(mesh, status, cuts, bases, coeffs, sol, iface, edge_labels, params,
                          degree=DATA_DEGREE, refine=DATA_REFINE):
    """One full sweep per norm, summed in the order the fused sweep must keep:
    standard elements chunk by chunk, then the cut-element total, then (energy
    only) the penalty jumps edge by edge. Standard neighbours on the edges are
    evaluated through `standard_basis`."""
    beta = (sol.params["beta_minus"], sol.params["beta_plus"])
    bulk, cut_ids = np.flatnonzero(status != 0), np.flatnonzero(status == 0)
    h = mesh.h

    def bulk_ids(variant):
        return bulk if mesh.cell_kind == RECT else bulk[mesh.element_variant[bulk] == variant]

    def bulk_sum(kind):
        total = 0.0
        for variant, (name, spts, swts) in bulk_rules(mesh, degree).items():
            ids = bulk_ids(variant)
            if len(ids) == 0:
                continue
            w = swts * h * h
            V = template_values(name, spts)
            G = template_gradients(name, spts) / h
            for chunk in np.array_split(ids, max(1, len(ids) // 50000)):
                pts = mesh.element_origins[chunk][:, None, :] + h * spts[None, :, :]
                x, y = pts[..., 0], pts[..., 1]
                minus = np.asarray(iface.phi(x, y)) < 0
                ce = coeffs[mesh.elements[chunk]]
                if kind == "l2":
                    diff = sol.u(x, y, minus) - ce @ V
                    total += float(np.einsum("eq,q->", diff * diff, w))
                    continue
                gx, gy = sol.grad(x, y, minus)
                d2 = (gx - ce @ G[:, :, 0]) ** 2 + (gy - ce @ G[:, :, 1]) ** 2
                if kind == "energy":
                    d2 = np.where(minus, beta[0], beta[1]) * d2
                total += float(np.einsum("eq,q->", d2, w))
        return total

    def cut_sum(kind):
        total = 0.0
        for k in cut_ids:
            basis, ce = bases[k], coeffs[mesh.elements[k]]
            for side, pts, wts in cut_data_rules(cuts[k], degree, refine):
                x, y = pts[:, 0], pts[:, 1]
                if kind == "l2":
                    minus = np.asarray(iface.phi(x, y)) < 0
                    diff = sol.u(x, y, minus) - ce @ basis.values_piece(pts, side)
                    total += float(np.dot(wts, diff * diff))
                    continue
                gh = np.einsum("d,dqa->qa", ce, basis.gradients_piece(pts, side))
                gx, gy = sol.grad(x, y, np.full(len(pts), side == SIDE_MINUS))
                d2 = (gx - gh[:, 0]) ** 2 + (gy - gh[:, 1]) ** 2
                if kind == "energy":
                    d2 = (beta[0] if side == SIDE_MINUS else beta[1]) * d2
                total += float(np.dot(wts, d2))
        return total

    def element_basis(k):
        if k in bases:
            return bases[k]
        kind, variant = (("q1", "rect") if mesh.cell_kind == RECT else
                         ("p1", ("tri_lower", "tri_upper")[mesh.element_variant[k]]))
        return standard_basis(k, mesh.element_vertices(k), kind, variant)

    def jump_square(e):
        t1, t2 = mesh.edge_elements[e]
        a, b = mesh.nodes[mesh.edge_nodes[e]]
        rule = split_edge_rule(a, b, edge_split_points(mesh, e, cuts), EDGE_DEGREE)
        u1 = coeffs[mesh.elements[t1]] @ element_basis(int(t1)).values(rule.points)
        u2 = coeffs[mesh.elements[t2]] @ element_basis(int(t2)).values(rule.points)
        return float(np.dot(rule.weights, (u1 - u2) ** 2))

    s = {kind: bulk_sum(kind) for kind in ("l2", "h1", "energy")}
    for kind in s:
        s[kind] += cut_sum(kind)
    for e in np.flatnonzero(edge_labels == EDGE_INTERFACE):
        if params.sigma0 == 0.0:
            continue
        s["energy"] += params.sigma0 / mesh.edge_lengths[e] ** params.alpha * jump_square(int(e))

    # sampled max error: a 5 x 5 grid per element plus the cut elements' vertices
    t = np.linspace(0.0, 1.0, 5)
    TX, TY = np.meshgrid(t, t, indexing="ij")
    if mesh.cell_kind == RECT:
        sample = {0: ("rect", np.column_stack([TX.ravel(), TY.ravel()]))}
    else:
        sample = {0: ("tri_lower", np.column_stack([TX.ravel(), (TX * TY).ravel()])),
                  1: ("tri_upper", np.column_stack([(TX * TY).ravel(), TX.ravel()]))}
    worst = 0.0
    for variant, (name, spts) in sample.items():
        ids = bulk_ids(variant)
        pts = mesh.element_origins[ids][:, None, :] + h * spts[None, :, :]
        x, y = pts[..., 0], pts[..., 1]
        uh = coeffs[mesh.elements[ids]] @ template_values(name, spts)
        worst = max(worst, float(np.abs(sol.u(x, y, np.asarray(iface.phi(x, y)) < 0)
                                        - uh).max()))
    for k in cut_ids:
        verts = mesh.element_vertices(k)
        lo = verts.min(axis=0)
        span = verts.max(axis=0) - lo
        pts = np.column_stack([(lo[0] + span[0] * TX).ravel(), (lo[1] + span[1] * TY).ravel()])
        if mesh.cell_kind != RECT:
            xi = (pts - lo) / h
            keep = (xi[:, 1] <= xi[:, 0] + 1e-12 if mesh.element_variant[k] == 0
                    else xi[:, 0] <= xi[:, 1] + 1e-12)
            pts = pts[keep]
        pts = np.vstack([pts, verts])
        x, y = pts[:, 0], pts[:, 1]
        uh = coeffs[mesh.elements[k]] @ bases[k].values(pts)
        worst = max(worst, float(np.abs(sol.u(x, y, np.asarray(iface.phi(x, y)) < 0)
                                        - uh).max()))
    return {"l2": float(np.sqrt(s["l2"])), "h1": float(np.sqrt(s["h1"])), "linf": worst,
            "energy": float(np.sqrt(s["energy"]))}
