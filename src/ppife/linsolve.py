"""Sparse iterative solvers for the reduced systems.

Matrices are scipy CSR. Both solvers run on A itself; the Jacobi scale
s = |diag A_vol|^-1/2 (without a hierarchy, A's own) enters as a vector
only: the stopping test reads |s r| / |s b|, and BiCGSTAB weighs its inner
products by s^2, so the iterates are those on D^-1/2 A D^-1/2.

The preconditioner is one V-cycle of a smoothed-aggregation AMG hierarchy
(Vanek, Mandel & Brezina, Computing 56, 1996), whose aggregates the caller
gives, with an exact solve of a block of unknowns around it. One
hierarchy, built on A_vol, serves every scheme of a context: each scheme
matrix smooths level 0, and the block covers the rows where it leaves
A_vol (multiplicative subspace correction; Xu, SIAM Review 34, 1992); a
banded LU solves the block and the coarsest level. `harness.solve_scheme`
chooses the solves that run it; the others use Jacobi alone.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import PpifeError

DEFAULT_TOL = 1e-12
# AMG: coarsening stops at this many dofs or fewer; that level is solved by
# a banded LU
COARSE_SIZE = 400
# AMG: damping over rho(D^-1 A) of the prolongator smoothing (Vanek, Mandel
# & Brezina) and of the Jacobi sweeps of the V-cycle
PROLONGATOR_DAMPING = 4.0 / 3.0
SMOOTHER_DAMPING = 1.5
# AMG: damped-Jacobi sweeps before and after each coarse correction
SMOOTHER_SWEEPS = 2
# fixed seed of the start vectors of the power iteration, and its steps
AMG_SEED = 12345
POWER_STEPS = 15


@dataclass
class SolveResult:
    x: np.ndarray
    iterations: int
    residual: float        # final |b - Ax| / |b| on the original system
    converged: bool
    restarts: int = 0      # BiCGSTAB restarts after a breakdown
    amg_levels: int = 0    # levels of the AMG hierarchy, the coarsest included;
                           # 0 when no V-cycle ran


def _jacobi_scale(A):
    """1 / sqrt|diag A|, with 1 where the diagonal is 0."""
    d = np.abs(A.diagonal())
    d[d == 0.0] = 1.0
    return 1.0 / np.sqrt(d)


def _preconditioned(A, block, hierarchy):
    """s, M and the V-cycle's depth: `hierarchy`'s scale and V-cycle with
    `block`, or for None A's own scale, M r = s^2 r and depth 0."""
    if hierarchy is None:
        s = _jacobi_scale(A)
        return s, lambda r, s2=s * s: s2 * r, 0
    return hierarchy.scale, hierarchy.preconditioner(A, block), len(hierarchy.levels) + 1


def _finish(A, b, bnorm, x, iterations, tol_rel, restarts=0, levels=0):
    res = float(np.linalg.norm(b - A @ x) / bnorm)
    return SolveResult(x, iterations, res, bool(res <= tol_rel), restarts, levels)


def cg(A, b, tol_rel=DEFAULT_TOL, max_iter=None, block=(),
       hierarchy=None, x0=None) -> SolveResult:
    """Conjugate gradients for a symmetric A (a context checks its A_vol and
    P_unit once), preconditioned by the V-cycle of `hierarchy` with the exact
    `block`, or for None by A's own Jacobi diagonal, from `x0` (None: zero);
    the best iterate, converged=False, when the budget runs out."""
    A = A.tocsr()
    n = A.shape[0]
    if max_iter is None:
        max_iter = 20 * n
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return SolveResult(np.zeros(n), 0, 0.0, True)
    s, M, levels = _preconditioned(A, block, hierarchy)
    bsnorm = np.linalg.norm(s * b)

    def applied(r):
        z = M(r)
        return z, float(r @ z)

    def weighted(r):
        # |s r| / |s b|, and for Jacobi (M r, r . M r), as M r = s^2 r makes
        # r . M r = |s r|^2; a V-cycle waits for the test
        zrz = applied(r) if hierarchy is None else None
        return (np.sqrt(zrz[1]) if zrz else np.linalg.norm(s * r)) / bsnorm, zrz

    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    r = b.copy() if x0 is None else b - A @ x
    rn, zrz = weighted(r)
    z, rz = zrz or applied(r)
    p = z.copy()
    best = (rn, x.copy())
    target = tol_rel
    it = 0
    for it in range(1, max_iter + 1):
        Ap = A @ p
        pAp = float(p @ Ap)
        if pAp <= 0 or not np.isfinite(pAp):
            break
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        rn, zrz = weighted(r)
        if rn < best[0]:
            best = (rn, x.copy())
        if rn <= target:
            out = _finish(A, b, bnorm, x, it, tol_rel, levels=levels)
            if out.converged:
                return out
            r, zrz = b - A @ x, None   # recompute to fight drift, then tighten
            target = max(target / 4.0, 1e-2 * np.finfo(float).eps)
        z, rz_new = zrz or applied(r)
        if not np.isfinite(rz_new):
            break
        p = z + (rz_new / rz) * p
        rz = rz_new
    return _finish(A, b, bnorm, best[1], it, tol_rel, levels=levels)


def _spectral_radius(left, right, A, rng):
    """Power-iteration estimate of rho(diag(left) A diag(right)) from a fixed start."""
    x = rng.standard_normal(A.shape[0])
    lam = 1.0
    for _ in range(POWER_STEPS):
        y = left * (A @ (right * x))
        lam = np.linalg.norm(y)
        x = y / lam
    return float(lam)


def _banded_lu(B):
    """Exact solver of B x = v as a function of v, from LAPACK's banded LU
    with partial pivoting of B in reverse Cuthill-McKee order, or None when
    B is singular: the V-cycle's one direct solver, of its block and its
    coarsest level, whose bits, unlike a dense LU's, do not follow the BLAS
    thread count. It stores n (2 kl + ku + 1) floats for the bandwidths kl,
    ku of the reordered B: 0.3 MB for the 648-dof interface block of rect
    N=160, where splu keeps its whole initial fill estimate, 5.1 MB."""
    from scipy.linalg.lapack import dgbtrf, dgbtrs
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    B = sp.csr_matrix(B, copy=True)
    B.eliminate_zeros()             # its order follows the nonzeros alone
    order = reverse_cuthill_mckee(B, symmetric_mode=False)
    B = B[order][:, order].tocoo()
    kl = int(np.max(B.row - B.col, initial=0))
    ku = int(np.max(B.col - B.row, initial=0))
    ab = np.zeros((2 * kl + ku + 1, B.shape[0]))
    ab[kl + ku + B.row - B.col, B.col] = B.data
    lu, piv, info = dgbtrf(ab, kl, ku, overwrite_ab=True)
    if info != 0:
        return None

    def solve(v):
        x = np.empty(len(order))
        x[order] = dgbtrs(lu, kl, ku, v[order], piv)[0]
        return x
    return solve


class SAHierarchy:
    """Smoothed-aggregation AMG levels of A and its Jacobi scale `scale`,
    |diag A|^-1/2; `preconditioner` makes their V-cycle with a matrix of
    A's shape, such as a scheme matrix, at level 0.

    `aggregates` gives one (labels, count) pair per level, as
    `geometry.lattice_aggregates` makes them; the aggregates of a level are
    the unknowns of the next. Each level smooths the tentative prolongator
    T[i, a] = B_i / |B_a| (unknown i in aggregate a, |B_a| the norm of the
    near-null candidate B over it, and those norms the next level's B) once
    by damped Jacobi, P = T - (omega / rho) D^-1 A T, and forms the Galerkin
    product P^T A P. Level 0's B is 1, its norms weighted by |diag A|: its P
    is `scale` times that of the Jacobi-scaled A for B = D^1/2 1, whose
    coarse matrices and rho(D^-1 A) it shares. Coarsening stops at
    COARSE_SIZE dofs or fewer, at a zero diagonal entry, where a level
    merges fewer than half its unknowns, or when the pairs run out. The
    coarsest level, whatever its size, is solved by `_banded_lu`; a singular
    one raises PpifeError. The power iteration starts from a fixed seed, so
    every step is deterministic. Level 0 keeps no matrix. For no aggregates,
    (), there are no levels: the V-cycle is an exact solve of A.
    """

    def __init__(self, A, aggregates):
        rng = np.random.default_rng(AMG_SEED)
        self.levels = []            # (omega / rho, P, next level's matrix) per level
        A = A.tocsr()
        self.scale = s = _jacobi_scale(A)
        B, weights = np.ones(A.shape[0]), (1.0 / s) ** 2
        for agg, n_coarse in aggregates:
            n = A.shape[0]
            if n <= COARSE_SIZE:
                break
            if len(agg) != n:
                raise ValueError(f"{len(agg)} aggregate labels for {n} unknowns")
            diag = A.diagonal()
            if not diag.all() or n_coarse > n // 2:
                break
            norms = np.sqrt(np.bincount(agg, B ** 2 * weights, minlength=n_coarse))
            T = sp.csr_matrix((B / norms[agg], (np.arange(n), agg)), shape=(n, n_coarse))
            dinv = 1.0 / diag
            # rho(D^-1 A); on level 0 that of the Jacobi-scaled A, s A s
            rho = _spectral_radius(*((dinv, 1.0) if self.levels else (s, s)), A, rng)
            dinv /= rho
            P = (T - sp.diags(PROLONGATOR_DAMPING * dinv) @ (A @ T)).tocsr()
            del T                   # freed before the Galerkin product, the peak
            A = (P.T.tocsr() @ A @ P).tocsr()
            self.levels.append((SMOOTHER_DAMPING / rho, P, A))
            B, weights = norms, 1.0
        self.coarse = A             # the coarsest matrix, solved by coarse_solve
        self.coarse_solve = _banded_lu(A)
        if self.coarse_solve is None:
            raise PpifeError(f"the coarsest AMG matrix, {A.shape[0]} unknowns, is singular")

    def preconditioner(self, A, block):
        """One V-cycle, an approximation of A^-1 v as a function of v, with
        A as level 0's smoothing and residual operator.

        `block`, row indices of A, adds an exact solve of A[block, block]
        before and after the V-cycle on the residual left, so a symmetric A
        keeps a symmetric preconditioner. It is meant for the unknowns whose
        error Jacobi sweeps and aggregates both miss: where A leaves the
        matrix the levels were built on, and the nodes of the cut elements
        at high contrast. A banded LU of its nonzeros in reverse
        Cuthill-McKee order solves it; an empty or singular block is ignored.
        """
        # per level: matrix, Jacobi weights omega / (rho diag), P
        levels = [(L, w / L.diagonal(), P) for L, (w, P, _) in
                  zip([A] + [lvl[2] for lvl in self.levels], self.levels)]
        ids = np.asarray(block, dtype=np.int64)
        rows, cols = A[ids], A[:, ids]
        solve = _banded_lu(rows[:, ids]) if len(ids) else None
        if solve is None:
            return lambda b: self._cycle(levels, 0, b)

        def blocked(b):
            # block solve, V-cycle on the rest of the residual, block solve again
            xb = solve(b[ids])
            x = self._cycle(levels, 0, b - cols @ xb)
            x[ids] += xb
            x[ids] += solve(b[ids] - rows @ x)
            return x
        return blocked

    def _cycle(self, levels, k, b):
        if k == len(levels):
            return self.coarse_solve(b)
        A, omega_dinv, P = levels[k]
        x = omega_dinv * b
        for _ in range(SMOOTHER_SWEEPS - 1):
            x += omega_dinv * (b - A @ x)
        # P^T, a CSC view of P, restricts with the bits of its CSR copy
        x += P @ self._cycle(levels, k + 1, P.T @ (b - A @ x))
        for _ in range(SMOOTHER_SWEEPS):
            x += omega_dinv * (b - A @ x)
        return x


def bicgstab(A, b, tol_rel=DEFAULT_TOL, max_iter=None, block=(),
             hierarchy=None, x0=None) -> SolveResult:
    """BiCGSTAB right-preconditioned (the convergence test sees the true
    residual) by the V-cycle of `hierarchy` with the exact `block`, or for
    None by A's own Jacobi diagonal, from the start `x0` (None: zero); at
    most 3 breakdowns restart it with a perturbed shadow vector."""
    A = A.tocsr()
    n = A.shape[0]
    if max_iter is None:
        max_iter = 20 * n
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return SolveResult(np.zeros(n), 0, 0.0, True)
    s, M, levels = _preconditioned(A, block, hierarchy)
    s2 = s * s
    bsnorm = np.linalg.norm(s * b)

    rng = np.random.default_rng(67890)

    def fresh(x):                   # the weighted shadow vector s^2 r
        r = b - A @ x
        rtld = s2 * r
        return r, rtld, r.copy(), float(rtld @ r)

    def perturbed(r):               # a restart with a perturbed shadow vector
        sr = s * r
        rtld = s * (sr + 1e-8 * np.linalg.norm(sr) * rng.standard_normal(n))
        return r, rtld, r.copy(), float(rtld @ r)

    def finish(x):
        return _finish(A, b, bnorm, x, it, tol_rel, restarts, levels)

    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    r, rtld, p, rho = fresh(x)
    restarts = 0
    best = (np.linalg.norm(s * r) / bsnorm, x.copy())
    target = tol_rel
    it = 0
    while it < max_iter:
        it += 1
        ph = M(p)
        v = A @ ph
        denom = float(rtld @ v)
        if not np.isfinite(denom) or abs(denom) < 1e-300 or abs(rho) < 1e-300:
            if restarts >= 3:
                break
            restarts += 1
            r, rtld, p, rho = perturbed(b - A @ x)
            continue
        alpha = rho / denom
        sv = r - alpha * v
        rn = np.linalg.norm(s * sv) / bsnorm
        if not np.isfinite(rn):
            break
        if rn <= target:                # the half step is tested as it is
            x = x + alpha * ph
        else:
            sh = M(sv)
            t = A @ sh
            wt = s2 * t
            tt = float(wt @ t)
            omega = float(wt @ sv) / tt if tt > 0 else 0.0
            x = x + alpha * ph + omega * sh
            r = sv - omega * t
            rn = np.linalg.norm(s * r) / bsnorm
            if not np.isfinite(rn):
                x = best[1].copy()
                if restarts >= 3:
                    break
                restarts += 1
                r, rtld, p, rho = fresh(x)
                continue
            if rn < best[0]:
                best = (rn, x.copy())
        if rn <= target:
            out = finish(x)
            if out.converged:
                return out
            r, rtld, p, rho = fresh(x)
            target = max(target / 4.0, 1e-2 * np.finfo(float).eps)
            continue
        rho_new = float(rtld @ r)
        if not np.isfinite(rho_new) or abs(omega) < 1e-300:
            if restarts >= 3:
                break
            restarts += 1
            r, rtld, p, rho = perturbed(r)
            continue
        beta = (rho_new / rho) * (alpha / omega)
        p = r + beta * (p - omega * v)
        rho = rho_new
    return min(finish(best[1]), finish(x), key=lambda out: out.residual)
