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
        return piece_gradients(coefs, self._scaled(pts), self.h)

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
        return (phys_coefficients(self.coefs_minus, self.origin, self.h),
                phys_coefficients(self.coefs_plus, self.origin, self.h))


def piece_gradients(coefs, xi, h):
    """Gradients of scaled-monomial pieces at scaled points, in physical units.

    `coefs` is (..., d, m), `xi` (..., n, 2) and `h` scalar or (...), with
    the same leading axes; returns (..., d, n, 2).
    """
    g = np.empty(coefs.shape[:-1] + (xi.shape[-2], 2))
    g[..., 0] = coefs[..., 1:2]
    g[..., 1] = coefs[..., 2:3]
    if coefs.shape[-1] == 4:
        g[..., 0] += coefs[..., 3:4] * xi[..., None, :, 1]
        g[..., 1] += coefs[..., 3:4] * xi[..., None, :, 0]
    return g / np.asarray(h)[..., None, None, None]


def phys_coefficients(c, origin, h):
    """Physical-monomial coefficients [1, x, y(, xy)] of scaled-monomial
    pieces `c` (..., d, m) in frames `origin` (..., 2) and `h` (...)."""
    ox = np.asarray(origin)[..., None, 0]
    oy = np.asarray(origin)[..., None, 1]
    h = np.asarray(h)[..., None]
    out = np.zeros_like(c)
    out[..., 0] = c[..., 0] - c[..., 1] * ox / h - c[..., 2] * oy / h
    out[..., 1] = c[..., 1] / h
    out[..., 2] = c[..., 2] / h
    if c.shape[-1] == 4:
        out[..., 0] += c[..., 3] * ox * oy / h ** 2
        out[..., 1] -= c[..., 3] * oy / h ** 2
        out[..., 2] -= c[..., 3] * ox / h ** 2
        out[..., 3] = c[..., 3] / h ** 2
    return out


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def local_frames(verts):
    """Origin (lower-left corner) and size (larger extent) of the elements
    with vertices `verts` (K, nv, 2): the frames of their scaled monomials."""
    return verts.min(axis=1), np.ptp(verts, axis=1).max(axis=1)


def _refine_solve(M, rhs):
    """Direct solve with one mixed-precision refinement sweep."""
    X = np.linalg.solve(M, rhs)
    Ml = M.astype(np.longdouble)
    rl = rhs.astype(np.longdouble) - Ml @ X.astype(np.longdouble)
    X = X + np.linalg.solve(M, rl.astype(float))
    return X


def ife_coefficients(verts, D, E, chord_normal, beta_minus, beta_plus, element_ids=None):
    """Immersed-basis coefficients of a stack of K cut elements.

    `verts` is a float array (K, 3, 2) for triangles or (K, 4, 2) for
    rectangles; D, E and the unit chord normals are float arrays (K, 2).
    Returns (cm, cp), the scaled-monomial coefficients of the minus and plus
    pieces, each (K, d, m).

    A triangle has six unknowns (two linear pieces): three nodal conditions,
    continuity at D and at E, and matching of the normal flux beta * dv/dn
    across the chord. A rectangle has seven (the xy coefficient is shared
    between the pieces): four nodal conditions, continuity at D and E, and the
    flux condition in integral form along the chord; the bilinear flux is not
    constant there, and its chord average equals its midpoint value exactly.
    The flux row is divided by max(beta).

    All systems are solved at once, with one mixed-precision refinement
    sweep. SingularLocalSystem names the first element (its entry of
    `element_ids`, else its stack index) whose condition estimate exceeds
    1e14 or whose long-double residual exceeds 1e-12.
    """
    n = chord_normal
    K, nv = verts.shape[:2]
    origin, h = local_frames(verts)
    Ds = (D - origin) / h[:, None]
    Es = (E - origin) / h[:, None]
    sv = (verts - origin[:, None]) / h[:, None, None]
    side = ((verts - D[:, None]) @ n[:, :, None])[..., 0] > CHORD_TIE_TOL * h[:, None]
    bscale = max(beta_minus, beta_plus)

    size = 7 if nv == 4 else 6
    ones = np.ones(K)
    M = np.zeros((K, size, size))
    node = np.stack([np.ones((K, nv)), sv[..., 0], sv[..., 1]], axis=-1)
    M[:, :nv, :3] = np.where(side[..., None], 0.0, node)
    M[:, :nv, 3:6] = np.where(side[..., None], node, 0.0)
    for row, X in ((nv, Ds), (nv + 1, Es)):
        M[:, row, :6] = np.column_stack([ones, X[:, 0], X[:, 1], -ones, -X[:, 0], -X[:, 1]])
    flux = M[:, nv + 2]
    flux[:, 1] = beta_minus * n[:, 0] / bscale
    flux[:, 2] = beta_minus * n[:, 1] / bscale
    flux[:, 4] = -beta_plus * n[:, 0] / bscale
    flux[:, 5] = -beta_plus * n[:, 1] / bscale
    if nv == 4:
        M[:, :nv, 6] = sv[..., 0] * sv[..., 1]
        mid = 0.5 * (Ds + Es)
        flux[:, 6] = (beta_minus - beta_plus) * (n[:, 0] * mid[:, 1] + n[:, 1] * mid[:, 0]) / bscale

    cond = np.linalg.cond(M)
    ill = ~np.isfinite(cond) | (cond > 1e14)
    # ill-conditioned systems are replaced by the identity so the stacked
    # solve goes through; they are reported below all the same
    M = np.where(ill[:, None, None], np.eye(size), M)
    rhs = np.broadcast_to(np.eye(size, nv), (K, size, nv))
    X = _refine_solve(M, rhs)
    ld = np.longdouble
    resid = np.abs(M.astype(ld) @ X.astype(ld) - rhs.astype(ld)).max(axis=(1, 2))
    bad = ill | ~np.isfinite(resid) | (resid > 1e-12)
    if bad.any():
        i = int(np.argmax(bad))
        eid = i if element_ids is None else element_ids[i]
        what = (f"condition estimate {cond[i]:.3e}" if ill[i]
                else f"local residual {float(resid[i]):.3e}")
        raise SingularLocalSystem(f"element {eid}: {what}")
    if nv == 4:
        cm, cp = X[:, [0, 1, 2, 6]], X[:, [3, 4, 5, 6]]
    else:
        cm, cp = X[:, :3], X[:, 3:]
    return cm.transpose(0, 2, 1).copy(), cp.transpose(0, 2, 1).copy()


def ife_bases(element_ids, verts, D, E, chord_normal, beta_minus, beta_plus):
    """One immersed LocalBasis per element of a stack (see `ife_coefficients`)."""
    verts = np.asarray(verts, float)
    D, E, n = (np.asarray(a, float) for a in (D, E, chord_normal))
    cm, cp = ife_coefficients(verts, D, E, n, beta_minus, beta_plus, element_ids)
    origin, h = local_frames(verts)
    kind = "ife_q1" if verts.shape[1] == 4 else "ife_p1"
    return [LocalBasis(k, kind, origin[i], h[i], cm[i], cp[i], D=D[i], E=E[i], chord_normal=n[i])
            for i, k in enumerate(element_ids)]


def linear_ife_basis(element_id, verts, D, E, chord_normal, beta_minus, beta_plus) -> LocalBasis:
    """Immersed P1 basis on one cut triangle."""
    return ife_bases([element_id], [verts], [D], [E], [chord_normal], beta_minus, beta_plus)[0]


def bilinear_ife_basis(element_id, verts, D, E, chord_normal, beta_minus, beta_plus) -> LocalBasis:
    """Immersed Q1 basis on one cut rectangle."""
    return ife_bases([element_id], [verts], [D], [E], [chord_normal], beta_minus, beta_plus)[0]


def build_bases(mesh, cuts, beta_minus, beta_plus):
    """Immersed bases of the interface elements, keyed like `cuts`, from one
    stacked solve."""
    if not cuts:
        return {}
    ids = list(cuts)
    records = cuts.values()
    bases = ife_bases(ids, mesh.nodes[mesh.elements[ids]], [c.D for c in records],
                      [c.E for c in records], [c.chord_normal for c in records],
                      beta_minus, beta_plus)
    return dict(zip(ids, bases))


# ---------------------------------------------------------------------------
# invariant checks
# ---------------------------------------------------------------------------

def basis_residuals(basis, verts, beta_minus, beta_plus):
    """Worst-case residuals of the defining conditions of an immersed basis,
    in long double.

    Returns a dict with keys 'kronecker', 'continuity', 'flux', 'partition'.
    The flux residual is pointwise (|beta- dv-/dn - beta+ dv+/dn|) for linear
    bases and the chord-line integral for bilinear ones; like the builders'
    flux row it is divided by max(beta), so all four are unit-free.
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
        flux = np.abs(bm * fm - bp * fp).max()
    else:
        # 2-point Gauss along the chord; exact for an affine integrand and
        # independent of the midpoint rule used in the construction
        t = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)], dtype=ld)
        L = ld(np.linalg.norm(basis.E - basis.D))
        total = np.zeros(d, dtype=ld)
        for tk in t:
            p = basis.D.astype(ld) * (1 - tk) + basis.E.astype(ld) * tk
            total = total + (bm * (grad(cm, p) @ n) - bp * (grad(cp, p) @ n)) * (L / 2)
        flux = np.abs(total).max()
    out["flux"] = float(flux / max(bm, bp))

    pm = max(abs(cm[:, 0].sum() - 1), np.abs(cm[:, 1:].sum(axis=0)).max())
    pp = max(abs(cp[:, 0].sum() - 1), np.abs(cp[:, 1:].sum(axis=0)).max())
    out["partition"] = float(max(pm, pp))
    return out
