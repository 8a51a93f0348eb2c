"""Sparse iterative solvers for the reduced systems.

Matrices are scipy CSR. Both solvers work on the symmetric Jacobi scaling
As = D^{-1/2} A D^{-1/2}, which keeps CG's inner product exact and is
markedly more robust than one-sided scaling for the strongly nonsymmetric
systems produced by large coefficient contrasts.

The preconditioner is one V-cycle of a smoothed-aggregation AMG hierarchy
built on As (Vanek, Mandel & Brezina, Computing 56, 1996), with an exact
solve of a given block of unknowns (the nodes of the cut elements) around
the V-cycle. Its tentative prolongator carries the near-null vector of As,
D^{1/2} 1, normalized per aggregate. Level 0 may take its aggregates from
the caller, such as the mesh's side-split node boxes, which every scheme
on one mesh shares; the other levels aggregate algebraically. A restarted
BiCGSTAB handles the nonsymmetric schemes, right-preconditioned. CG handles
the symmetric ones: preconditioned above AMG_CG_DOFS unknowns, and with the
Jacobi scaling alone below, where building the hierarchy costs more than
the iterations it saves.
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
# AMG: i and j are strongly coupled when |s_ij| >= theta sqrt(|s_ii s_jj|),
# with S the symmetric part of the level matrix
STRENGTH_THETA = 0.08
# AMG: damping over rho(D^-1 A) of the prolongator smoothing (Vanek, Mandel
# & Brezina) and of the Jacobi sweeps of the V-cycle
PROLONGATOR_DAMPING = 4.0 / 3.0
SMOOTHER_DAMPING = 1.5
# AMG: damped-Jacobi sweeps before and after each coarse correction
SMOOTHER_SWEEPS = 2
# fixed seed of the aggregation priorities and of the power iteration
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
    D = abs(A - A.T)
    return not D.nnz or D.max() <= rtol * scale


def _scaled(A, b):
    d = np.abs(A.diagonal())
    d[d == 0.0] = 1.0
    s = 1.0 / np.sqrt(d)
    # diags(s) @ A @ diags(s): its bits, its order and no stored zeros
    data = np.repeat(s, np.diff(A.indptr)) * A.data * s[A.indices]
    As = sp.csr_matrix((data, A.indices.copy(), A.indptr.copy()), shape=A.shape)
    As.eliminate_zeros()
    return As, s * b, s


def _finish(A, b, bnorm, xs, s, iterations, tol_rel, restarts=0, M=None):
    x = xs * s
    res = float(np.linalg.norm(b - A @ x) / bnorm)
    return SolveResult(x, iterations, res, bool(res <= tol_rel), restarts,
                       0 if M is None else len(M.levels) + 1)


def cg(A, b, tol_rel=DEFAULT_TOL, max_iter=None, block=None,
       aggregates=None) -> SolveResult:
    """Conjugate gradients for symmetric systems, on the Jacobi-scaled matrix.

    Above AMG_CG_DOFS unknowns, each iteration applies one V-cycle of an
    SAHierarchy (with `block` and `aggregates`, see there) to the residual;
    at or below, the scaling alone preconditions. Raises AsymmetricInput
    when some |A_ij - A_ji| exceeds 1e-12 * max|A|. Returns the best iterate
    with converged=False when the budget runs out.
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
    As, bs, s = _scaled(A, b)
    bsnorm = np.linalg.norm(bs)
    M = SAHierarchy(As, block, 1.0 / s, aggregates) if n > AMG_CG_DOFS else None

    def precondition(r):
        return r if M is None else M(r)

    x = np.zeros(n)
    r = bs.copy()
    z = precondition(r)
    p = z.copy()
    rz = float(r @ z)
    best = (np.inf, x.copy(), 0)
    target = tol_rel
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
            best = (rn, x.copy(), it)
        if rn <= target:
            out = _finish(A, b, bnorm, x, s, it, tol_rel, M=M)
            if out.converged:
                return out
            r = bs - As @ x          # recompute to fight drift, then tighten
            rn = np.linalg.norm(r) / bsnorm
            target = max(target / 4.0, 1e-2 * np.finfo(float).eps)
        z = precondition(r)
        rz_new = float(r @ z)
        if not np.isfinite(rz_new):
            break
        p = z + (rz_new / rz) * p
        rz = rz_new
    return _finish(A, b, bnorm, best[1], s, max_iter, tol_rel, M=M)


def _neighbour_table(G):
    """The neighbours of each node of the graph G (CSR, every row holding
    its diagonal) as a column of a (largest row length, n) table, each
    column padded with the node itself."""
    n = G.shape[0]
    counts = np.diff(G.indptr)
    rows = np.repeat(np.arange(n), counts)
    T = np.tile(np.arange(n), (counts.max(initial=1), 1))
    T[np.arange(len(rows)) - G.indptr[rows], rows] = G.indices
    return T


def _neighbour_max(T, v):
    """Per node, the max of v over its neighbours in the `_neighbour_table` T."""
    out = v[T[0]]
    for col in T[1:]:
        np.maximum(out, v[col], out=out)
    return out


def _strength_graph(S, theta):
    """Strong couplings of the symmetric CSR matrix S, whose diagonal is
    nonzero, with the diagonal, as a CSR pattern; also whether each node
    has a strong neighbour."""
    n = S.shape[0]
    rows = np.repeat(np.arange(n), np.diff(S.indptr))
    d = np.sqrt(np.abs(S.diagonal()))
    keep = (rows == S.indices) | (np.abs(S.data) >= theta * d[rows] * d[S.indices])
    counts = np.bincount(rows[keep], minlength=n)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    G = sp.csr_matrix((np.ones(indptr[-1], dtype=np.int8), S.indices[keep],
                       indptr), shape=(n, n))
    return G, counts > 1


def _aggregate(G, coupled, rng):
    """Aggregates of the nodes with a strong neighbour (-1 for the others):
    a distance-2 maximal independent set of roots, chosen by fixed random
    priorities with two max-propagations a round; every other coupled node
    then joins the aggregate of a neighbour, first at distance 1 and then at
    distance 2."""
    n = G.shape[0]
    T = _neighbour_table(G)
    priority = rng.permutation(n).astype(np.int64)
    state = np.where(coupled, 1, 0)          # 2 root, 1 undecided, 0 out
    while (state == 1).any():
        key = state * n + priority
        top = _neighbour_max(T, _neighbour_max(T, key))
        state[(state == 1) & (top == key)] = 2
        key = state * n + priority
        top = _neighbour_max(T, _neighbour_max(T, key))
        state[(state == 1) & (top >= 2 * n)] = 0
    roots = np.flatnonzero(state == 2)
    agg = np.full(n, -1, dtype=np.int64)
    agg[roots] = np.arange(len(roots))
    for _ in range(2):
        near = _neighbour_max(T, agg)
        join = (agg < 0) & (near >= 0)
        agg[join] = near[join]
    return agg, len(roots)


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


def aggregate(A, rng):
    """Aggregates of the strong-coupling graph of the symmetric part of A,
    whose diagonal is nonzero, as SAHierarchy forms them on a level: per
    node its aggregate (-1 for a node with no strong neighbour), and the
    number of aggregates. `rng` draws the priorities. The strength test is
    invariant under a symmetric diagonal scaling, so A need not be
    Jacobi-scaled."""
    S = ((A + A.T) * 0.5).tocsr()
    return _aggregate(*_strength_graph(S, STRENGTH_THETA), rng)


class SAHierarchy:
    """Smoothed-aggregation AMG; calling it applies one V-cycle to a vector,
    an approximation of A^-1 v.

    Each level aggregates the strong-coupling graph of its matrix, builds
    the tentative prolongator T from the near-null candidate B, smooths it
    once by damped Jacobi, restricts by the transpose and forms the Galerkin
    product P^T A P. T[i, a] = B_i / |B_a| for node i of aggregate a, with
    |B_a| the norm of B over the aggregate, and the vector of those norms is
    the next level's candidate. B = 1 when no `candidate` is given; for a
    Jacobi-scaled A = D^{-1/2} K D^{-1/2} whose K has zero row sums, the
    near-null vector is D^{1/2} 1, which is the candidate 1/s that the
    solvers pass. SMOOTHER_SWEEPS damped-Jacobi sweeps smooth before and
    after the coarse correction. The coarsest level has at most COARSE_SIZE
    dofs and is solved by a banded LU in reverse Cuthill-McKee order, unless
    coarsening stops early, at a zero diagonal entry or where aggregation
    merges fewer than half the nodes; a larger coarsest level is solved by
    splu. (A dense LU would hold about as much, but OpenBLAS factorizes a
    few hundred dofs by another algorithm on several threads than on one,
    so the last bits of every small solve would follow the thread count.)
    Every step is deterministic: the random priorities and the power
    iteration's start vector come from a fixed seed.

    `aggregates`, a function of no arguments, gives level 0's aggregates as
    `aggregate` returns them, in place of the level's own (the harness
    passes geometry.lattice_aggregates). It is called only when level 0 is
    coarsened, so that a caller can compute the aggregates lazily and share
    them between matrices on the same unknowns.

    `block`, a set of row indices, adds an exact solve of A[block, block]
    around the fine-level V-cycle: the block is solved for its part of the
    input, the V-cycle runs on the residual left over, and the block is
    corrected once more from the new residual. The two block steps are
    alike, so a symmetric A keeps a symmetric preconditioner. This is meant
    for a small set of unknowns whose error Jacobi sweeps and aggregates
    both miss, such as the nodes of the cut elements at high contrast. The
    block is factorized as a banded LU in reverse Cuthill-McKee order, and
    only its rows and columns of A are kept for the residual updates, so the
    block costs no product with all of A. A block is ignored when it is
    empty or singular, or when A has COARSE_SIZE dofs or fewer.
    """

    def __init__(self, A, block=None, candidate=None, aggregates=None):
        # imported here: scipy.sparse.linalg adds about 0.1 s to `import ppife`
        from scipy.sparse.linalg import splu

        rng = np.random.default_rng(AMG_SEED)
        self.levels = []            # (A, omega / diag, P, P^T) per level
        A = A.tocsr()
        B = np.ones(A.shape[0]) if candidate is None else np.asarray(candidate, float)
        self.block = None           # (ids, solver of A[ids, ids], A[ids, :], A[:, ids])
        if block is not None and len(block) and A.shape[0] > COARSE_SIZE:
            ids = np.asarray(block)
            rows = A[ids]
            solve = _banded_lu(rows[:, ids])
            if solve is not None:
                self.block = (ids, solve, rows, A[:, ids])
        while A.shape[0] > COARSE_SIZE:
            n = A.shape[0]
            diag = A.diagonal()
            if not diag.all():
                break
            dinv = 1.0 / diag
            if aggregates is not None and not self.levels:
                agg, n_coarse = aggregates()
                if len(agg) != n:
                    raise ValueError(f"{len(agg)} aggregate labels for {n} unknowns")
            else:
                agg, n_coarse = aggregate(A, rng)
            if n_coarse == 0 or n_coarse > n // 2:
                break
            keep = np.flatnonzero(agg >= 0)
            norms = np.sqrt(np.bincount(agg[keep], B[keep] ** 2, minlength=n_coarse))
            T = sp.csr_matrix((B[keep] / norms[agg[keep]], (keep, agg[keep])),
                              shape=(n, n_coarse))
            dinv /= _spectral_radius(A, dinv, rng)
            P = (T - sp.diags(PROLONGATOR_DAMPING * dinv) @ (A @ T)).tocsr()
            R = P.T.tocsr()
            self.levels.append((A, SMOOTHER_DAMPING * dinv, P, R))
            A = (R @ A @ P).tocsr()
            B = norms
        self.coarse = A             # the coarsest matrix, solved by coarse_solve
        solve = _banded_lu(A) if A.shape[0] <= COARSE_SIZE else None
        self.coarse_solve = splu(A.tocsc()).solve if solve is None else solve

    def __call__(self, b):
        if self.block is None:
            return self._cycle(0, b)
        # block solve, V-cycle on the rest of the residual, block solve again
        ids, solve, rows, cols = self.block
        xb = solve(b[ids])
        x = self._cycle(0, b - cols @ xb)
        x[ids] += xb
        x[ids] += solve(b[ids] - rows @ x)
        return x

    def _cycle(self, k, b):
        if k == len(self.levels):
            return self.coarse_solve(b)
        A, omega_dinv, P, R = self.levels[k]
        x = omega_dinv * b
        for _ in range(SMOOTHER_SWEEPS - 1):
            x += omega_dinv * (b - A @ x)
        x += P @ self._cycle(k + 1, R @ (b - A @ x))
        for _ in range(SMOOTHER_SWEEPS):
            x += omega_dinv * (b - A @ x)
        return x


def bicgstab(A, b, tol_rel=DEFAULT_TOL, max_iter=None, block=None,
             aggregates=None) -> SolveResult:
    """BiCGSTAB with symmetric Jacobi scaling and one SA-AMG V-cycle as the
    right preconditioner, so the convergence test sees the true residual of
    the scaled system; breakdowns restart with a perturbed shadow vector (at
    most 3 restarts). `block` (row indices of A) is the set of unknowns that
    the preconditioner solves exactly around its V-cycle, and `aggregates`
    gives its level-0 aggregates (see SAHierarchy)."""
    A = A.tocsr()
    n = A.shape[0]
    if max_iter is None:
        max_iter = 20 * n
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return SolveResult(np.zeros(n), 0, 0.0, True)
    As, bs, s = _scaled(A, b)
    bsnorm = np.linalg.norm(bs)
    M = SAHierarchy(As, block, 1.0 / s, aggregates)

    rng = np.random.default_rng(67890)

    def fresh(x):
        r = bs - As @ x
        return r, r.copy(), r.copy(), float(r @ r)

    def finish(x):
        return _finish(A, b, bnorm, x, s, it, tol_rel, restarts, M)

    x = np.zeros(n)
    r, rtld, p, rho = fresh(x)
    restarts = 0
    best = (np.linalg.norm(r) / bsnorm, x.copy(), 0)
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
            best = (rn, x.copy(), it)
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
