"""Nodal bases on mesh elements.

Non-interface elements carry the standard linear (triangle) or bilinear
(rectangle) nodal basis, evaluated from fixed coefficient templates; no
object is built for them. Interface elements carry an immersed basis: one
polynomial per side of the chord D-E, glued by continuity at D and E plus a
flux-matching condition, solved element by element from a small linear
system. Coefficients are stored for scaled monomials in local coordinates
xi = (x - origin)/h so the local systems stay well conditioned on fine
meshes.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import SingularLocalSystem
from .geometry import RECT

CHORD_TIE_TOL = 1e-13  # points this close to the chord evaluate the minus piece

# scaled-monomial coefficient templates for the mesh's standard elements,
# vertex order matching CartesianMesh construction
_C_RECT = np.array([[1.0, -1.0, -1.0, 1.0],
                    [0.0, 1.0, 0.0, -1.0],
                    [0.0, 0.0, 0.0, 1.0],
                    [0.0, 0.0, 1.0, -1.0]])
_C_TRI_LOWER = np.array([[1.0, -1.0, 0.0],
                         [0.0, 1.0, -1.0],
                         [0.0, 0.0, 1.0]])
_C_TRI_UPPER = np.array([[1.0, 0.0, -1.0],
                         [0.0, 1.0, 0.0],
                         [0.0, -1.0, 1.0]])

_TEMPLATES = {"rect": _C_RECT, "tri_lower": _C_TRI_LOWER, "tri_upper": _C_TRI_UPPER}


def _monomials(pts, m):
    pts = np.atleast_2d(np.asarray(pts, float))
    cols = [np.ones(len(pts)), pts[:, 0], pts[:, 1]]
    if m == 4:
        cols.append(pts[:, 0] * pts[:, 1])
    return np.column_stack(cols)


def template_values(variant, pts):
    """Values of the standard nodal basis at scaled points, shape (d, n)."""
    C = _TEMPLATES[variant]
    return C @ _monomials(pts, C.shape[1]).T


def template_gradients(variant, pts):
    """Scaled gradients of the standard nodal basis, shape (d, n, 2)."""
    C = _TEMPLATES[variant]
    pts = np.atleast_2d(np.asarray(pts, float))
    n = len(pts)
    d, m = C.shape
    g = np.empty((d, n, 2))
    g[:, :, 0] = C[:, 1:2]
    g[:, :, 1] = C[:, 2:3]
    if m == 4:
        g[:, :, 0] += np.outer(C[:, 3], pts[:, 1])
        g[:, :, 1] += np.outer(C[:, 3], pts[:, 0])
    return g


def template_name(mesh, k):
    """Template of the standard nodal basis on element k."""
    if mesh.cell_kind == RECT:
        return "rect"
    return "tri_lower" if mesh.element_variant[k] == 0 else "tri_upper"


def _element_scaled(mesh, k, pts):
    pts = np.atleast_2d(np.asarray(pts, float))
    return (pts - mesh.element_origins[k]) / mesh.element_h[k]


def standard_values(mesh, k, pts):
    """Standard nodal basis of element k at physical points, shape (d, n)."""
    return template_values(template_name(mesh, k), _element_scaled(mesh, k, pts))


def standard_gradients(mesh, k, pts):
    """Gradients of the standard nodal basis of element k, shape (d, n, 2)."""
    g = template_gradients(template_name(mesh, k), _element_scaled(mesh, k, pts))
    return g / mesh.element_h[k]


@dataclass(eq=False)
class LocalBasis:
    """Nodal basis on one element, in scaled local monomials.

    For interface elements `coefs_minus`/`coefs_plus` differ and the chord
    data selects the active piece; for standard elements they are the same
    array.
    """

    element_id: int
    kind: str                 # 'p1' | 'q1' | 'ife_p1' | 'ife_q1'
    origin: np.ndarray
    h: float
    coefs_minus: np.ndarray   # (d, m)
    coefs_plus: np.ndarray
    D: Optional[np.ndarray] = None
    E: Optional[np.ndarray] = None
    chord_normal: Optional[np.ndarray] = None

    @property
    def n_funcs(self):
        return self.coefs_minus.shape[0]

    @property
    def is_interface(self):
        return self.kind.startswith("ife")

    def _scaled(self, pts):
        return (np.atleast_2d(np.asarray(pts, float)) - self.origin) / self.h

    def side_plus_mask(self, pts):
        """True where the plus piece is active (chord side test, minus on ties)."""
        pts = np.atleast_2d(np.asarray(pts, float))
        s = (pts - self.D) @ self.chord_normal
        return s > CHORD_TIE_TOL * self.h

    def _values_from(self, coefs, pts):
        return coefs @ _monomials(self._scaled(pts), coefs.shape[1]).T

    def _gradients_from(self, coefs, pts):
        xi = self._scaled(pts)
        d, m = coefs.shape
        g = np.empty((d, len(xi), 2))
        g[:, :, 0] = coefs[:, 1:2]
        g[:, :, 1] = coefs[:, 2:3]
        if m == 4:
            g[:, :, 0] += np.outer(coefs[:, 3], xi[:, 1])
            g[:, :, 1] += np.outer(coefs[:, 3], xi[:, 0])
        return g / self.h

    def values(self, pts):
        """Basis values at physical points, shape (d, n)."""
        if not self.is_interface:
            return self._values_from(self.coefs_minus, pts)
        vm = self._values_from(self.coefs_minus, pts)
        vp = self._values_from(self.coefs_plus, pts)
        mask = self.side_plus_mask(pts)
        return np.where(mask[None, :], vp, vm)

    def gradients(self, pts):
        """Basis gradients at physical points, shape (d, n, 2)."""
        if not self.is_interface:
            return self._gradients_from(self.coefs_minus, pts)
        gm = self._gradients_from(self.coefs_minus, pts)
        gp = self._gradients_from(self.coefs_plus, pts)
        mask = self.side_plus_mask(pts)
        return np.where(mask[None, :, None], gp, gm)

    def values_piece(self, pts, side):
        return self._values_from(self.coefs_plus if side > 0 else self.coefs_minus, pts)

    def gradients_piece(self, pts, side):
        return self._gradients_from(self.coefs_plus if side > 0 else self.coefs_minus, pts)

    def phys_coefficients(self):
        """Physical-monomial coefficients [1, x, y(, xy)] of both pieces."""
        def convert(c):
            d, m = c.shape
            out = np.zeros_like(c)
            ox, oy = self.origin
            h = self.h
            out[:, 0] = c[:, 0] - c[:, 1] * ox / h - c[:, 2] * oy / h
            out[:, 1] = c[:, 1] / h
            out[:, 2] = c[:, 2] / h
            if m == 4:
                out[:, 0] += c[:, 3] * ox * oy / h ** 2
                out[:, 1] -= c[:, 3] * oy / h ** 2
                out[:, 2] -= c[:, 3] * ox / h ** 2
                out[:, 3] = c[:, 3] / h ** 2
            return out
        return convert(self.coefs_minus), convert(self.coefs_plus)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def _refine_solve(M, rhs):
    """Direct solve with one mixed-precision refinement sweep."""
    X = np.linalg.solve(M, rhs)
    Ml = M.astype(np.longdouble)
    rl = rhs.astype(np.longdouble) - Ml @ X.astype(np.longdouble)
    X = X + np.linalg.solve(M, rl.astype(float))
    return X


def _check_local_solve(M, X, rhs, element_id):
    resid = np.abs(np.asarray(M, np.longdouble) @ X.astype(np.longdouble)
                   - rhs.astype(np.longdouble)).max()
    if not np.isfinite(resid) or resid > 1e-12:
        raise SingularLocalSystem(
            f"element {element_id}: local residual {float(resid):.3e}")


def linear_ife_basis(element_id, verts, D, E, chord_normal, beta_minus, beta_plus) -> LocalBasis:
    """Immersed P1 basis on a cut triangle.

    Six unknowns (two linear pieces): three nodal conditions, continuity at D
    and at E, and matching of the normal flux beta * dv/dn across the chord.
    """
    verts = np.asarray(verts, float)
    origin = verts.min(axis=0)
    h = max(np.ptp(verts[:, 0]), np.ptp(verts[:, 1]))
    n = np.asarray(chord_normal, float)
    Ds = (np.asarray(D, float) - origin) / h
    Es = (np.asarray(E, float) - origin) / h
    sv = (verts - origin) / h

    side = ((verts - D) @ n) > CHORD_TIE_TOL * h
    bscale = max(beta_minus, beta_plus)

    M = np.zeros((6, 6))
    rhs = np.zeros((6, 3))
    for i in range(3):
        row = [1.0, sv[i, 0], sv[i, 1]]
        off = 3 if side[i] else 0
        M[i, off:off + 3] = row
        rhs[i, i] = 1.0
    M[3] = [1.0, Ds[0], Ds[1], -1.0, -Ds[0], -Ds[1]]
    M[4] = [1.0, Es[0], Es[1], -1.0, -Es[0], -Es[1]]
    M[5] = [0.0, beta_minus * n[0] / bscale, beta_minus * n[1] / bscale,
            0.0, -beta_plus * n[0] / bscale, -beta_plus * n[1] / bscale]

    cond = np.linalg.cond(M)
    if not np.isfinite(cond) or cond > 1e14:
        raise SingularLocalSystem(f"element {element_id}: condition estimate {cond:.3e}")
    X = _refine_solve(M, rhs)
    _check_local_solve(M, X, rhs, element_id)
    return LocalBasis(element_id, "ife_p1", origin, h, X[:3].T.copy(), X[3:].T.copy(),
                      D=np.asarray(D, float), E=np.asarray(E, float), chord_normal=n)


def bilinear_ife_basis(element_id, verts, D, E, chord_normal, beta_minus, beta_plus) -> LocalBasis:
    """Immersed Q1 basis on a cut rectangle.

    Seven unknowns (the xy coefficient is shared between the pieces): four
    nodal conditions, continuity at D and E, and the flux condition enforced
    in integral form along the chord — the bilinear flux is not constant
    there, and its chord average equals its midpoint value exactly.
    """
    verts = np.asarray(verts, float)
    origin = verts.min(axis=0)
    h = max(np.ptp(verts[:, 0]), np.ptp(verts[:, 1]))
    n = np.asarray(chord_normal, float)
    Ds = (np.asarray(D, float) - origin) / h
    Es = (np.asarray(E, float) - origin) / h
    sv = (verts - origin) / h
    mid = 0.5 * (Ds + Es)

    side = ((verts - D) @ n) > CHORD_TIE_TOL * h
    bscale = max(beta_minus, beta_plus)

    M = np.zeros((7, 7))
    rhs = np.zeros((7, 4))
    for i in range(4):
        off = 3 if side[i] else 0
        M[i, off:off + 3] = [1.0, sv[i, 0], sv[i, 1]]
        M[i, 6] = sv[i, 0] * sv[i, 1]
        rhs[i, i] = 1.0
    M[4] = [1.0, Ds[0], Ds[1], -1.0, -Ds[0], -Ds[1], 0.0]
    M[5] = [1.0, Es[0], Es[1], -1.0, -Es[0], -Es[1], 0.0]
    M[6] = [0.0, beta_minus * n[0] / bscale, beta_minus * n[1] / bscale,
            0.0, -beta_plus * n[0] / bscale, -beta_plus * n[1] / bscale,
            (beta_minus - beta_plus) * (n[0] * mid[1] + n[1] * mid[0]) / bscale]

    cond = np.linalg.cond(M)
    if not np.isfinite(cond) or cond > 1e14:
        raise SingularLocalSystem(f"element {element_id}: condition estimate {cond:.3e}")
    X = _refine_solve(M, rhs)
    _check_local_solve(M, X, rhs, element_id)
    cm = np.column_stack([X[0], X[1], X[2], X[6]])
    cp = np.column_stack([X[3], X[4], X[5], X[6]])
    return LocalBasis(element_id, "ife_q1", origin, h, cm, cp,
                      D=np.asarray(D, float), E=np.asarray(E, float), chord_normal=n)


def build_bases(mesh, cuts, beta_minus, beta_plus):
    """Immersed bases of the interface elements, keyed like `cuts`."""
    build = bilinear_ife_basis if mesh.cell_kind == RECT else linear_ife_basis
    return {k: build(k, mesh.element_vertices(k), cut.D, cut.E, cut.chord_normal,
                     beta_minus, beta_plus)
            for k, cut in cuts.items()}


# ---------------------------------------------------------------------------
# invariant checks
# ---------------------------------------------------------------------------

def basis_residuals(basis, verts, beta_minus, beta_plus):
    """Worst-case residuals of the defining conditions of an immersed basis,
    in long double.

    Returns a dict with keys 'kronecker', 'continuity', 'flux', 'partition'.
    The flux residual is pointwise (|beta- dv-/dn - beta+ dv+/dn|) for linear
    bases and the chord-line integral for bilinear ones.
    """
    verts = np.asarray(verts, float)
    d = basis.n_funcs
    ld = np.longdouble
    cm = basis.coefs_minus.astype(ld)
    cp = basis.coefs_plus.astype(ld)
    origin = basis.origin.astype(ld)
    h = ld(basis.h)

    def mono(p, m):
        xi = (p.astype(ld) - origin) / h
        cols = [np.ones_like(xi[..., 0]), xi[..., 0], xi[..., 1]]
        if m == 4:
            cols.append(xi[..., 0] * xi[..., 1])
        return np.stack(cols, axis=-1)

    def val(c, p):
        return mono(p, c.shape[1]) @ c.T

    def grad(c, p):
        xi = (p.astype(ld) - origin) / h
        gx = c[:, 1].copy()
        gy = c[:, 2].copy()
        if c.shape[1] == 4:
            gx = gx + c[:, 3] * xi[1]
            gy = gy + c[:, 3] * xi[0]
        return np.stack([gx, gy], axis=-1) / h

    out = {}
    side = basis.side_plus_mask(verts)
    vals = np.where(side[:, None], val(cp, verts), val(cm, verts))
    out["kronecker"] = float(np.abs(vals - np.eye(d)).max())

    cont = max(np.abs(val(cm, basis.D) - val(cp, basis.D)).max(),
               np.abs(val(cm, basis.E) - val(cp, basis.E)).max())
    out["continuity"] = float(cont)

    n = basis.chord_normal.astype(ld)
    bm = ld(beta_minus)
    bp = ld(beta_plus)
    if basis.kind == "ife_p1":
        fm = grad(cm, basis.D) @ n
        fp = grad(cp, basis.D) @ n
        out["flux"] = float(np.abs(bm * fm - bp * fp).max())
    else:
        # 2-point Gauss along the chord; exact for an affine integrand and
        # independent of the midpoint rule used in the construction
        t = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)], dtype=ld)
        L = ld(np.linalg.norm(basis.E - basis.D))
        total = np.zeros(d, dtype=ld)
        for tk in t:
            p = basis.D.astype(ld) * (1 - tk) + basis.E.astype(ld) * tk
            total = total + (bm * (grad(cm, p) @ n) - bp * (grad(cp, p) @ n)) * (L / 2)
        out["flux"] = float(np.abs(total).max())

    pm = max(abs(cm[:, 0].sum() - 1), np.abs(cm[:, 1:].sum(axis=0)).max())
    pp = max(abs(cp[:, 0].sum() - 1), np.abs(cp[:, 1:].sum(axis=0)).max())
    out["partition"] = float(max(pm, pp))
    return out
