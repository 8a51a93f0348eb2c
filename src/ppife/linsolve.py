"""Sparse iterative solvers for the reduced systems.

Matrices are scipy CSR. Both solvers work on the symmetric diagonal
scaling As = D^{-1/2} A D^{-1/2}, which keeps CG's inner product exact and
suits the strongly nonsymmetric systems of large coefficient contrasts.

The preconditioner is one V-cycle of a smoothed-aggregation AMG hierarchy
(Vanek, Mandel & Brezina, Computing 56, 1996), whose aggregates the caller
gives, with an exact solve of a block of unknowns around it. One
hierarchy, built on the Jacobi scaling of A_vol, serves every scheme of a
context: each scheme matrix is scaled by the same D and smooths level 0,
and the block covers the rows where it leaves A_vol (multiplicative
subspace correction; Xu, SIAM Review 34, 1992); a banded LU solves the
block and the coarsest level. `harness.solve_scheme` chooses the solves
that run it; the others use Jacobi scaling alone.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import AsymmetricInput, PpifeError

DEFAULT_TOL = 1e-12
# CG's symmetry check: max |A - A^T| against max |A|
SYMMETRY_RTOL = 1e-12
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


def _is_symmetric(A):
    """Whether max |A - A^T| <= SYMMETRY_RTOL max |A| over the stored entries.
    On a symmetric pattern, A's data is compared with itself at the transposed
    positions: the data of A^T's CSR structure built on their positions."""
    scale = np.abs(A.data).max() if A.nnz else 1.0
    T = sp.csc_matrix((np.arange(A.nnz, dtype=A.indices.dtype), A.indices, A.indptr),
                      shape=A.shape[::-1]).tocsr()
    if (A.has_canonical_format and np.array_equal(T.indptr, A.indptr)
            and np.array_equal(T.indices, A.indices)):
        at = T.data
        del T                   # its indices, as long as A's, are read no more
        diff = A.data[at]
        diff -= A.data
    else:
        diff = (A - sp.csr_matrix((A.data[T.data], T.indices, T.indptr), shape=A.shape)).data
    return np.abs(diff, out=diff).max(initial=0.0) <= SYMMETRY_RTOL * scale


def _scaled(A, b, s=None):
    """diags(s) @ A @ diags(s), s * b and s; s is by default 1 / sqrt|diag A|.
    The scaled matrix shares A's index arrays unless it has zeros to drop."""
    if s is None:
        d = np.abs(A.diagonal())
        d[d == 0.0] = 1.0
        s = 1.0 / np.sqrt(d)
    # diags(s) @ A @ diags(s): its bits, its order and no stored zeros; the
    # columns' factors in blocks of n, so no temporary outgrows a vector
    data = np.repeat(s, np.diff(A.indptr))
    data *= A.data
    for k in range(0, A.nnz, len(s)):
        data[k:k + len(s)] *= s[A.indices[k:k + len(s)]]
    As = sp.csr_matrix((data, A.indices, A.indptr), shape=A.shape)
    if not data.all():
        As = sp.csr_matrix((data, A.indices.copy(), A.indptr.copy()), shape=A.shape)
        As.eliminate_zeros()
    return As, s * b, s


def _preconditioned(A, b, block, hierarchy):
    """As, bs, s for `hierarchy`, its V-cycle with `block` and its depth;
    for None, A's own Jacobi scaling, the identity and depth 0."""
    if hierarchy is None:
        return (*_scaled(A, b), lambda r: r, 0)
    As, bs, s = _scaled(A, b, hierarchy.scale)
    return As, bs, s, hierarchy.preconditioner(As, block), len(hierarchy.levels) + 1


def _finish(A, b, bnorm, xs, s, iterations, tol_rel, restarts=0, levels=0):
    x = xs * s
    res = float(np.linalg.norm(b - A @ x) / bnorm)
    return SolveResult(x, iterations, res, bool(res <= tol_rel), restarts, levels)


def cg(A, b, tol_rel=DEFAULT_TOL, max_iter=None, block=(),
       hierarchy=None, x0=None) -> SolveResult:
    """Conjugate gradients for symmetric systems, preconditioned by the
    V-cycle of `hierarchy` with the exact `block`, or for None by A's own
    Jacobi scaling alone, from the start `x0` (None: zero). Raises
    AsymmetricInput when A fails `_is_symmetric`; returns the best iterate,
    converged=False, when the budget runs out."""
    A = A.tocsr()
    n = A.shape[0]
    if not _is_symmetric(A):
        raise AsymmetricInput("matrix failed the symmetry check")
    if max_iter is None:
        max_iter = 20 * n
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return SolveResult(np.zeros(n), 0, 0.0, True)
    As, bs, s, M, levels = _preconditioned(A, b, block, hierarchy)
    bsnorm = np.linalg.norm(bs)
    x = np.zeros(n) if x0 is None else x0 / s
    r = bs.copy() if x0 is None else bs - As @ x
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


def _spectral_radius(A, dinv, rng):
    """Power-iteration estimate of rho(D^-1 A) from a fixed start vector."""
    x = rng.standard_normal(A.shape[0])
    lam = 1.0
    for _ in range(POWER_STEPS):
        y = dinv * (A @ x)
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
    `geometry.lattice_aggregates` makes them; the aggregates of a level are
    the unknowns of the next. Each level smooths the tentative prolongator
    T[i, a] = B_i / |B_a| (unknown i in aggregate a, |B_a| the norm of the
    near-null candidate B over it, and those norms the next level's B) once
    by damped Jacobi and forms the Galerkin product P^T A P. Level 0's B is
    D^{1/2} 1, null for the scaled A where A has zero row sums. Coarsening
    stops at COARSE_SIZE dofs or fewer, at a zero diagonal entry, where a
    level merges fewer than half its unknowns, or when the pairs run out.
    The coarsest level, whatever its size, is solved by `_banded_lu`; a
    singular one raises PpifeError. The power iteration starts from a
    fixed seed, so every step is deterministic. Level 0 keeps no matrix.
    For no aggregates, (), there are no levels: the V-cycle is an exact solve.
    """

    def __init__(self, A, aggregates):
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
        self.coarse_solve = _banded_lu(A)
        if self.coarse_solve is None:
            raise PpifeError(f"the coarsest AMG matrix, {A.shape[0]} unknowns, is singular")

    def preconditioner(self, A, block):
        """One V-cycle, an approximation of A^-1 v as a function of v, with
        A (scaled by `scale`) as level 0's smoothing and residual operator.

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
        inner = rows[:, ids]
        inner.eliminate_zeros()         # its order follows the nonzeros alone
        solve = _banded_lu(inner) if len(ids) else None
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
    scaled residual) by the V-cycle of `hierarchy` with the exact `block`,
    or for None by A's own Jacobi scaling alone, from the start `x0` (None:
    zero); at most 3 breakdowns restart it with a perturbed shadow vector."""
    A = A.tocsr()
    n = A.shape[0]
    if max_iter is None:
        max_iter = 20 * n
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return SolveResult(np.zeros(n), 0, 0.0, True)
    As, bs, s, M, levels = _preconditioned(A, b, block, hierarchy)
    bsnorm = np.linalg.norm(bs)

    rng = np.random.default_rng(67890)

    def fresh(x):
        r = bs - As @ x
        return r, r.copy(), r.copy(), float(r @ r)

    def perturbed(r):               # a restart with a perturbed shadow vector
        rtld = r + 1e-8 * np.linalg.norm(r) * rng.standard_normal(n)
        return r, rtld, r.copy(), float(rtld @ r)

    def finish(x):
        return _finish(A, b, bnorm, x, s, it, tol_rel, restarts, levels)

    x = np.zeros(n) if x0 is None else x0 / s
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
            r, rtld, p, rho = perturbed(bs - As @ x)
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
            r, rtld, p, rho = perturbed(r)
            continue
        beta = (rho_new / rho) * (alpha / omega)
        p = r + beta * (p - omega * v)
        rho = rho_new
    out = finish(best[1])
    cand = finish(x)
    return cand if cand.residual < out.residual else out
