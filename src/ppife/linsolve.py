"""Sparse iterative solvers for the reduced systems.

Matrices are scipy CSR. Both solvers work on a symmetric diagonal scaling
As = D^{-1/2} A D^{-1/2}, which keeps CG's inner product exact and is
markedly more robust than one-sided scaling for the strongly nonsymmetric
systems produced by large coefficient contrasts.

The preconditioner is one V-cycle of a smoothed-aggregation AMG hierarchy
(Vanek, Mandel & Brezina, Computing 56, 1996) with an exact solve of a
block of unknowns around it. The caller gives the aggregates of every
level; this module forms none of its own. One hierarchy, built on the
Jacobi scaling of A_vol, serves every scheme of a context: each scheme
matrix is scaled by the same D and smooths level 0, and the block covers
the rows where it leaves A_vol (multiplicative subspace correction with an
exact local solve; Xu, SIAM Review 34, 1992). BiCGSTAB (the nonsymmetric schemes) is always
right-preconditioned; CG (the symmetric ones) only above AMG_CG_DOFS
unknowns, below which its own Jacobi scaling costs less.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import AsymmetricInput

DEFAULT_TOL = 1e-12
# AMG: coarsening stops at this many dofs or fewer; that level is solved by
# a banded LU
COARSE_SIZE = 400
# CG takes the AMG preconditioner above this many dofs. Against Jacobi-CG,
# an SPP solve with the lattice aggregates of its context (tri at beta+ =
# 10, rect at beta+ = 1e4) takes 3-7 % longer at 9 801 dofs (N=100) and
# 9-11 % less at 14 161 (N=120)
AMG_CG_DOFS = 12_000
# AMG: damping over rho(D^-1 A) of the prolongator smoothing (Vanek, Mandel
# & Brezina) and of the Jacobi sweeps of the V-cycle
PROLONGATOR_DAMPING = 4.0 / 3.0
SMOOTHER_DAMPING = 1.5
# AMG: damped-Jacobi sweeps before and after each coarse correction
SMOOTHER_SWEEPS = 2
# fixed seed of the start vectors of the power iteration
AMG_SEED = 12345


@dataclass
class SolveResult:
    x: np.ndarray
    iterations: int
    residual: float        # final |b - Ax| / |b| on the original system
    converged: bool
    restarts: int = 0      # BiCGSTAB restarts after a breakdown
    amg_levels: int = 0    # levels of the AMG hierarchy, the coarsest included;
                           # 0 when no V-cycle ran


def _is_symmetric(A, rtol=1e-12):
    """Whether max |A - A^T| <= rtol * max |A| over every stored entry."""
    scale = np.abs(A.data).max() if A.nnz else 1.0
    return np.abs((A - A.T).data).max(initial=0.0) <= rtol * scale


def _scaled(A, b, s=None):
    """diags(s) @ A @ diags(s), s * b and s; s is by default 1 / sqrt|diag A|."""
    if s is None:
        d = np.abs(A.diagonal())
        d[d == 0.0] = 1.0
        s = 1.0 / np.sqrt(d)
    # diags(s) @ A @ diags(s): its bits, its order and no stored zeros
    data = np.repeat(s, np.diff(A.indptr)) * A.data * s[A.indices]
    As = sp.csr_matrix((data, A.indices.copy(), A.indptr.copy()), shape=A.shape)
    As.eliminate_zeros()
    return As, s * b, s


def _preconditioned(A, b, block, hierarchy):
    """As, bs, s for `hierarchy()` (default: one of A without levels, an
    exact solve), its V-cycle and depth."""
    H = SAHierarchy(A) if hierarchy is None else hierarchy()
    As, bs, s = _scaled(A, b, H.scale)
    return As, bs, s, H.preconditioner(As, block), len(H.levels) + 1


def _finish(A, b, bnorm, xs, s, iterations, tol_rel, restarts=0, levels=0):
    x = xs * s
    res = float(np.linalg.norm(b - A @ x) / bnorm)
    return SolveResult(x, iterations, res, bool(res <= tol_rel), restarts, levels)


def cg(A, b, tol_rel=DEFAULT_TOL, max_iter=None, block=None,
       hierarchy=None) -> SolveResult:
    """Conjugate gradients for symmetric systems, on a scaled matrix.

    Above AMG_CG_DOFS unknowns, the V-cycle of the SAHierarchy
    `hierarchy()` (default: one of A without levels, an exact solve) with
    the exact `block` preconditions; at or below, A's own Jacobi scaling
    alone. Raises AsymmetricInput when some |A_ij - A_ji|
    exceeds 1e-12 * max|A|. Returns the best iterate with converged=False
    when the budget runs out.
    """
    A = A.tocsr()
    n = A.shape[0]
    if not _is_symmetric(A):
        raise AsymmetricInput("matrix failed the symmetry check")
    if max_iter is None:
        max_iter = 20 * n
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return SolveResult(np.zeros(n), 0, 0.0, True)
    As, bs, s, M, levels = (_preconditioned(A, b, block, hierarchy) if n > AMG_CG_DOFS
                            else (*_scaled(A, b), lambda r: r, 0))
    bsnorm = np.linalg.norm(bs)
    x = np.zeros(n)
    r = bs.copy()
    z = M(r)
    p = z.copy()
    rz = float(r @ z)
    best = (np.linalg.norm(r) / bsnorm, x.copy())
    target = tol_rel
    it = 0
    for it in range(1, max_iter + 1):
        Ap = As @ p
        pAp = float(p @ Ap)
        if pAp <= 0 or not np.isfinite(pAp):
            break
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        rn = np.linalg.norm(r) / bsnorm
        if rn < best[0]:
            best = (rn, x.copy())
        if rn <= target:
            out = _finish(A, b, bnorm, x, s, it, tol_rel, levels=levels)
            if out.converged:
                return out
            r = bs - As @ x          # recompute to fight drift, then tighten
            rn = np.linalg.norm(r) / bsnorm
            target = max(target / 4.0, 1e-2 * np.finfo(float).eps)
        z = M(r)
        rz_new = float(r @ z)
        if not np.isfinite(rz_new):
            break
        p = z + (rz_new / rz) * p
        rz = rz_new
    return _finish(A, b, bnorm, best[1], s, it, tol_rel, levels=levels)


def _spectral_radius(A, dinv, rng, steps=15):
    """Power-iteration estimate of rho(D^-1 A) from a fixed start vector."""
    x = rng.standard_normal(A.shape[0])
    lam = 1.0
    for _ in range(steps):
        y = dinv * (A @ x)
        lam = np.linalg.norm(y)
        x = y / lam
    return float(lam)


def _banded_lu(B):
    """Exact solver of B x = v as a function of v, from LAPACK's banded LU
    with partial pivoting of B in reverse Cuthill-McKee order, or None when
    B is singular. Its storage is n (2 kl + ku + 1) floats for kl, ku the
    lower and upper bandwidths of the reordered B, so it suits matrices that
    this ordering gives a narrow band: mesh-like couplings, or a few hundred
    dofs. (splu would keep its whole initial fill estimate as the factor:
    5.1 MB for the 648-dof interface block of rect N=160, against 0.3 MB
    here.)"""
    from scipy.linalg.lapack import dgbtrf, dgbtrs
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    B = B.tocsr()
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
    """Smoothed-aggregation AMG levels of A, built on its Jacobi scaling
    D^{-1/2} A D^{-1/2} (`scale` = D^{-1/2}); `preconditioner` makes their
    V-cycle for any matrix with the same scaling.

    `aggregates` gives one (labels, count) pair per level, as
    `geometry.lattice_aggregates` makes them: labels[i] in 0..count - 1 is
    the aggregate of unknown i of that level, and the aggregates of a level
    are the unknowns of the next. Each level builds the tentative
    prolongator T from the near-null candidate B, smooths it once by damped
    Jacobi, restricts by the transpose and forms the Galerkin product
    P^T A P. T[i, a] = B_i / |B_a| for unknown i of aggregate a, with |B_a|
    the norm of B over the aggregate, and the vector of those norms is the
    next level's candidate. Level 0's is D^{1/2} 1, the near-null vector of
    the scaled A where A has zero row sums. SMOOTHER_SWEEPS damped-Jacobi
    sweeps smooth before and after the coarse correction. Coarsening stops
    at COARSE_SIZE dofs or fewer, at a zero diagonal entry, where a level
    merges fewer than half its unknowns, or when the pairs run out; without
    `aggregates` there are no levels, and the V-cycle is an exact solve of
    A. A coarsest level of at most COARSE_SIZE dofs is solved by a banded
    LU in reverse Cuthill-McKee order, a larger one by splu. (A dense LU
    would hold about as much, but OpenBLAS factorizes a few hundred dofs by
    another algorithm on several threads than on one, so the last bits of
    every small solve would follow the thread count.) Every step is
    deterministic: the power iteration's start vectors come from a fixed
    seed. Level 0 keeps no matrix of its own.
    """

    def __init__(self, A, aggregates=()):
        # imported here: scipy.sparse.linalg adds about 0.1 s to `import ppife`
        from scipy.sparse.linalg import splu

        rng = np.random.default_rng(AMG_SEED)
        self.levels = []            # (omega / rho, P, next level's matrix) per level
        A, _, self.scale = _scaled(A.tocsr(), 0.0)
        B = 1.0 / self.scale
        for agg, n_coarse in aggregates:
            n = A.shape[0]
            if n <= COARSE_SIZE:
                break
            if len(agg) != n:
                raise ValueError(f"{len(agg)} aggregate labels for {n} unknowns")
            diag = A.diagonal()
            if not diag.all() or n_coarse > n // 2:
                break
            norms = np.sqrt(np.bincount(agg, B ** 2, minlength=n_coarse))
            T = sp.csr_matrix((B / norms[agg], (np.arange(n), agg)), shape=(n, n_coarse))
            dinv = 1.0 / diag
            rho = _spectral_radius(A, dinv, rng)
            dinv /= rho
            P = (T - sp.diags(PROLONGATOR_DAMPING * dinv) @ (A @ T)).tocsr()
            A = (P.T.tocsr() @ A @ P).tocsr()
            self.levels.append((SMOOTHER_DAMPING / rho, P, A))
            B = norms
        self.coarse = A             # the coarsest matrix, solved by coarse_solve
        solve = _banded_lu(A) if A.shape[0] <= COARSE_SIZE else None
        self.coarse_solve = splu(A.tocsc()).solve if solve is None else solve

    def preconditioner(self, A, block=None):
        """One V-cycle, an approximation of A^-1 v as a function of v, with
        A (scaled by `scale`) as level 0's smoothing and residual operator.

        `block`, row indices of A, adds an exact solve of A[block, block]
        around it: the block is solved for its part of the input, the
        V-cycle runs on the residual left, and the block is corrected once
        more, so a symmetric A keeps a symmetric preconditioner. It is meant
        for the unknowns whose error Jacobi sweeps and aggregates both miss:
        where A leaves the matrix the levels were built on, and the nodes of
        the cut elements at high contrast. A banded LU in reverse
        Cuthill-McKee order solves it, and only its rows and columns of A
        are kept. An empty or singular block is ignored.
        """
        # per level: matrix, Jacobi weights omega / (rho diag), P
        levels = [(L, w / L.diagonal(), P) for L, (w, P, _) in
                  zip([A] + [lvl[2] for lvl in self.levels], self.levels)]
        ids = np.asarray(() if block is None else block, dtype=np.int64)
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


def bicgstab(A, b, tol_rel=DEFAULT_TOL, max_iter=None, block=None,
             hierarchy=None) -> SolveResult:
    """BiCGSTAB right-preconditioned by the V-cycle of `hierarchy()` with the
    exact `block`, so the convergence test sees the true residual of the
    scaled system; breakdowns restart with a perturbed shadow vector (at
    most 3 restarts). At COARSE_SIZE unknowns or fewer, `hierarchy` goes
    unused: a hierarchy of A without levels makes the V-cycle an exact
    solve."""
    A = A.tocsr()
    n = A.shape[0]
    if max_iter is None:
        max_iter = 20 * n
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return SolveResult(np.zeros(n), 0, 0.0, True)
    As, bs, s, M, levels = (_preconditioned(A, b, block, hierarchy) if n > COARSE_SIZE
                            else _preconditioned(A, b, None, None))
    bsnorm = np.linalg.norm(bs)

    rng = np.random.default_rng(67890)

    def fresh(x):
        r = bs - As @ x
        return r, r.copy(), r.copy(), float(r @ r)

    def finish(x):
        return _finish(A, b, bnorm, x, s, it, tol_rel, restarts, levels)

    x = np.zeros(n)
    r, rtld, p, rho = fresh(x)
    restarts = 0
    best = (np.linalg.norm(r) / bsnorm, x.copy())
    target = tol_rel
    it = 0
    while it < max_iter:
        it += 1
        ph = M(p)
        v = As @ ph
        denom = float(rtld @ v)
        if not np.isfinite(denom) or abs(denom) < 1e-300 or abs(rho) < 1e-300:
            if restarts >= 3:
                break
            restarts += 1
            r = bs - As @ x
            rtld = r + 1e-8 * np.linalg.norm(r) * rng.standard_normal(n)
            p = r.copy()
            rho = float(rtld @ r)
            continue
        alpha = rho / denom
        sv = r - alpha * v
        shat_norm = np.linalg.norm(sv)
        if not np.isfinite(shat_norm):
            break
        if shat_norm / bsnorm <= target:
            x = x + alpha * ph
            out = finish(x)
            if out.converged:
                return out
            r, rtld, p, rho = fresh(x)
            target = max(target / 4.0, 1e-2 * np.finfo(float).eps)
            continue
        sh = M(sv)
        t = As @ sh
        tt = float(t @ t)
        omega = float(t @ sv) / tt if tt > 0 else 0.0
        x = x + alpha * ph + omega * sh
        r = sv - omega * t
        rn = np.linalg.norm(r) / bsnorm
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
            rtld = r + 1e-8 * np.linalg.norm(r) * rng.standard_normal(n)
            p = r.copy()
            rho = float(rtld @ r)
            continue
        beta = (rho_new / rho) * (alpha / omega)
        p = r + beta * (p - omega * v)
        rho = rho_new
    out = finish(best[1])
    cand = finish(x)
    return cand if cand.residual < out.residual else out
