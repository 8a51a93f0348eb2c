"""Nodal bases on mesh elements.

Non-interface elements carry the standard linear (triangle) or bilinear
(rectangle) nodal basis, evaluated from coefficient templates derived from
the cell variants' vertices; no object is built for them. Interface
elements carry an immersed basis: one polynomial per side of the chord D-E,
glued by continuity at D and E plus a flux-matching condition, solved for
all cut elements of a CutSet at once.
Coefficients are stored for scaled monomials in local coordinates
xi = (x - origin)/h so the local systems stay well conditioned on fine
meshes.
"""
from __future__ import annotations

import dataclasses

import numpy as np

from .errors import SingularLocalSystem
from .geometry import _CORNERS

CHORD_TIE_TOL = 1e-13  # points this close to the chord evaluate the minus piece


def _monomials(pts, m):
    pts = np.asarray(pts)
    cols = [np.ones_like(pts[..., 0]), pts[..., 0], pts[..., 1]]
    if m == 4:
        cols.append(pts[..., 0] * pts[..., 1])
    return np.stack(cols, axis=-1)


# the standard nodal basis of each cell variant, (nvar, d, m): the
# scaled-monomial coefficients that are 1 at one vertex of the unit cell's
# variant (geometry._CORNERS) and 0 at its others
_TEMPLATES = {kind: np.linalg.inv(_monomials(c, c.shape[1])).swapaxes(-1, -2)
              for kind, c in _CORNERS.items()}


def template_coefs(mesh, ids):
    """Standard-basis coefficient templates of the elements `ids`, (..., d, m)."""
    C = _TEMPLATES[mesh.cell_kind]
    if len(C) == 1:                      # one variant: a view, no copy
        return np.broadcast_to(C[0], np.shape(ids) + C.shape[1:])
    return C[np.asarray(ids) % len(C)]


def piece_values(coefs, xi):
    """Values of scaled-monomial pieces `coefs` (..., d, m) at scaled points
    `xi` (..., n, 2) with the same leading axes: (..., d, n)."""
    return coefs @ _monomials(xi, coefs.shape[-1]).swapaxes(-1, -2)


def piece_gradients(coefs, xi, h):
    """Gradients of scaled-monomial pieces at scaled points, in physical units.

    `coefs` is (..., d, m), `xi` (..., n, 2) and `h` scalar or (...), with
    the same leading axes; returns (..., d, n, 2).
    """
    return _gradients([coefs[..., k:k + 1] for k in range(1, coefs.shape[-1])], xi, h)


def _gradients(c, xi, h):
    """`piece_gradients` from the x, y (and xy) coefficients c[k] (..., d, n or 1)."""
    shape = np.broadcast_shapes(c[0].shape, xi.shape[:-2] + (1, xi.shape[-2]))
    g = np.empty(shape + (2,), dtype=np.result_type(c[0], xi))
    g[..., 0] = c[0]
    g[..., 1] = c[1]
    if len(c) == 3:
        g[..., 0] += c[2] * xi[..., None, :, 1]
        g[..., 1] += c[2] * xi[..., None, :, 0]
    g /= np.asarray(h)[..., None, None, None]
    return g


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


def ife_coefficients(verts, D, E, chord_normal, beta_minus, beta_plus, element_ids):
    """Immersed-basis coefficients of a stack of K cut elements.

    `verts` is a float array (K, 3, 2) for triangles or (K, 4, 2) for
    rectangles; D, E and the unit chord normals are float arrays (K, 2), and
    `element_ids` (K,) names the elements in errors. Returns (cm, cp, origin,
    h): the scaled-monomial coefficients of the minus and plus pieces, each
    (K, d, m), and the frames (`local_frames`) they refer to.

    A triangle has six unknowns (two linear pieces): three nodal conditions,
    continuity at D and at E, and matching of the normal flux beta * dv/dn
    across the chord. A rectangle has seven (the xy coefficient is shared
    between the pieces): four nodal conditions, continuity at D and E, and the
    flux condition in integral form along the chord; the bilinear flux is not
    constant there, and its chord average equals its midpoint value exactly.
    The flux row is divided by max(beta).

    All systems are inverted at once, with one mixed-precision refinement
    sweep. SingularLocalSystem names the first element, by its entry of
    `element_ids`, whose condition estimate, the bound
    ||M||_F ||M^-1||_F >= cond_2 (cond_2 by SVD if a member is exactly
    singular), exceeds 1e14 or whose long-double residual exceeds eps ||M||_F ||X||_F.
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
    flux[:, 1:3] = beta_minus * n / bscale
    flux[:, 4:6] = -beta_plus * n / bscale
    if nv == 4:
        M[:, :nv, 6] = sv[..., 0] * sv[..., 1]
        mid = 0.5 * (Ds + Es)
        flux[:, 6] = (beta_minus - beta_plus) * (n[:, 0] * mid[:, 1] + n[:, 1] * mid[:, 0]) / bscale

    try:
        inv = np.linalg.inv(M)
        cond = np.sqrt(np.einsum("kij,kij->k", M, M) * np.einsum("kij,kij->k", inv, inv))
    except np.linalg.LinAlgError:  # an exactly singular member: the SVD ranks the stack
        inv, cond = None, np.linalg.cond(M)
    ill = ~np.isfinite(cond) | (cond > 1e14)
    if inv is None or ill.any():
        # ill-conditioned members become the identity so the stack inverts; they are reported below
        M = np.where(ill[:, None, None], np.eye(size), M)
        inv = np.linalg.inv(M)
    # inv[..., :nv] is solve(M, eye(size, nv)) bit for bit; inv @ r would round differently
    ld = np.longdouble
    rhs, Ml, X = np.eye(size, nv, dtype=ld), M.astype(ld), inv[:, :, :nv]
    X = X + np.linalg.solve(M, (rhs - Ml @ X.astype(ld)).astype(float))
    resid = np.abs(Ml @ X.astype(ld) - rhs).max(axis=(1, 2))
    frob2 = np.einsum("kij,kij->k", M, M) * np.einsum("kij,kij->k", X, X)
    bad = ill | ~np.isfinite(resid) | (resid > np.finfo(float).eps * np.sqrt(frob2))
    if bad.any():
        i = int(np.argmax(bad))
        what = (f"condition estimate {cond[i]:.3e}" if ill[i]
                else f"local residual {float(resid[i]):.3e}")
        raise SingularLocalSystem(f"element {element_ids[i]}: {what}")
    # the xy coefficient, on rectangles, is both pieces'
    cm, cp = (X[:, cols].transpose(0, 2, 1).copy()
              for cols in (([0, 1, 2, 6], [3, 4, 5, 6]) if nv == 4 else ([0, 1, 2], [3, 4, 5])))
    return cm, cp, origin, h


def build_bases(cuts, beta_minus, beta_plus):
    """The CutSet `cuts` with its immersed coefficients and frames filled in,
    from one stacked solve (`ife_coefficients`), and with `beta`, the pair
    that defines them, which every later stage reads."""
    cm, cp, origin, h = ife_coefficients(cuts.verts, cuts.D, cuts.E, cuts.normal,
                                         beta_minus, beta_plus, cuts.ids)
    return dataclasses.replace(cuts, cm=cm, cp=cp, origin=origin, h=h,
                               beta=(beta_minus, beta_plus))


def cut_frame(cuts, rows, pts):
    """Scaled coordinates of the points `pts` (..., n, 2) in the frames of the
    cut rows `rows` (...), and their chord side: True where the plus piece is
    active, the minus piece winning ties."""
    xi = (pts - cuts.origin[rows][..., None, :]) / cuts.h[rows][..., None, None]
    s = np.vecdot(pts - cuts.D[rows][..., None, :], cuts.normal[rows][..., None, :])
    return xi, s > CHORD_TIE_TOL * cuts.h[rows][..., None]


def cut_values(cuts, rows, xi, plus):
    """Immersed basis values (..., d, n) at the scaled points of `cut_frame`,
    each from the piece its `plus` mask selects."""
    cm = cuts.cm[rows]
    mono = _monomials(xi, cm.shape[-1]).swapaxes(-1, -2)
    return np.where(plus[..., None, :], cuts.cp[rows] @ mono, cm @ mono)


def cut_gradients(cuts, rows, xi, plus):
    """Immersed basis gradients (..., d, n, 2), like `cut_values`: each
    point's piece is selected first, and its gradient formed once."""
    cm, cp, p = cuts.cm[rows], cuts.cp[rows], plus[..., None, :]
    return _gradients([np.where(p, cp[..., k:k + 1], cm[..., k:k + 1])
                       for k in range(1, cm.shape[-1])], xi, cuts.h[rows])
