"""Sparse iterative solvers for the reduced systems.

Matrices are scipy CSR. CG handles the symmetric schemes and a restarted
BiCGSTAB the nonsymmetric ones. Jacobi preconditioning is applied as the
symmetric scaling D^{-1/2} A D^{-1/2}, which keeps CG's inner product exact
and is markedly more robust than one-sided scaling for the strongly
nonsymmetric systems produced by large coefficient contrasts.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import AsymmetricInput

DEFAULT_TOL = 1e-12


@dataclass
class SolveResult:
    x: np.ndarray
    iterations: int
    residual: float        # final |b - Ax| / |b| on the original system
    converged: bool


def _is_symmetric(A, rtol=1e-12):
    """Whether max |A - A^T| <= rtol * max |A| over every stored entry."""
    scale = np.abs(A.data).max() if A.nnz else 1.0
    D = abs(A - A.T)
    return not D.nnz or D.max() <= rtol * scale


def _scaled(A, b):
    d = np.abs(A.diagonal())
    d[d == 0.0] = 1.0
    s = 1.0 / np.sqrt(d)
    As = sp.diags(s) @ A @ sp.diags(s)
    return As.tocsr(), s * b, s


def _finish(A, b, bnorm, xs, s, iterations, tol_rel):
    x = xs * s
    res = float(np.linalg.norm(b - A @ x) / bnorm)
    return SolveResult(x, iterations, res, bool(res <= tol_rel))


def cg(A, b, tol_rel=DEFAULT_TOL, max_iter=None) -> SolveResult:
    """Conjugate gradients for symmetric systems.

    Raises AsymmetricInput when some |A_ij - A_ji| exceeds 1e-12 * max|A|.
    Returns the best iterate with converged=False when the budget runs out.
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

    x = np.zeros(n)
    r = bs.copy()
    p = r.copy()
    rr = float(r @ r)
    best = (np.inf, x.copy(), 0)
    target = tol_rel
    for it in range(1, max_iter + 1):
        Ap = As @ p
        pAp = float(p @ Ap)
        if pAp <= 0 or not np.isfinite(pAp):
            break
        alpha = rr / pAp
        x += alpha * p
        r -= alpha * Ap
        rn = np.linalg.norm(r) / bsnorm
        if rn < best[0]:
            best = (rn, x.copy(), it)
        if rn <= target:
            out = _finish(A, b, bnorm, x, s, it, tol_rel)
            if out.converged:
                return out
            r = bs - As @ x          # recompute to fight drift, then tighten
            rn = np.linalg.norm(r) / bsnorm
            target = max(target / 4.0, 1e-2 * np.finfo(float).eps)
        rr_new = float(r @ r)
        if not np.isfinite(rr_new):
            break
        p = r + (rr_new / rr) * p
        rr = rr_new
    return _finish(A, b, bnorm, best[1], s, max_iter, tol_rel)


def bicgstab(A, b, tol_rel=DEFAULT_TOL, max_iter=None) -> SolveResult:
    """BiCGSTAB with symmetric Jacobi scaling; breakdowns restart with a
    perturbed shadow vector (at most 3 restarts)."""
    A = A.tocsr()
    n = A.shape[0]
    if max_iter is None:
        max_iter = 20 * n
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return SolveResult(np.zeros(n), 0, 0.0, True)
    As, bs, s = _scaled(A, b)
    bsnorm = np.linalg.norm(bs)

    rng = np.random.default_rng(67890)

    def fresh(x):
        r = bs - As @ x
        return r, r.copy(), r.copy(), float(r @ r)

    x = np.zeros(n)
    r, rtld, p, rho = fresh(x)
    restarts = 0
    best = (np.linalg.norm(r) / bsnorm, x.copy(), 0)
    target = tol_rel
    it = 0
    while it < max_iter:
        it += 1
        v = As @ p
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
            x = x + alpha * p
            out = _finish(A, b, bnorm, x, s, it, tol_rel)
            if out.converged:
                return out
            r, rtld, p, rho = fresh(x)
            target = max(target / 4.0, 1e-2 * np.finfo(float).eps)
            continue
        t = As @ sv
        tt = float(t @ t)
        omega = float(t @ sv) / tt if tt > 0 else 0.0
        x = x + alpha * p + omega * sv
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
            out = _finish(A, b, bnorm, x, s, it, tol_rel)
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
    out = _finish(A, b, bnorm, best[1], s, it, tol_rel)
    cand = _finish(A, b, bnorm, x, s, it, tol_rel)
    return cand if cand.residual < out.residual else out
