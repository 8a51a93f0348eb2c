"""Gauss quadrature on segments, rectangles, triangles, and on the chord-split
sub-polygons of cut elements.

Reference regions: segment [0,1], square [0,1]^2, triangle (0,0)-(1,0)-(0,1).
All rules have strictly positive weights; weights sum to the measure of the
region they cover.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import UnsupportedDegree

MIN_DEGREE = 1
MAX_DEGREE = 10


@dataclass(frozen=True)
class QuadratureRule:
    """Point set and positive weights of a reference rule."""

    points: np.ndarray   # (n,) for reference segments, (n, 2) otherwise
    weights: np.ndarray  # (n,)

    @property
    def n_points(self):
        return self.weights.size


def _check_degree(degree):
    degree = int(degree)
    if not MIN_DEGREE <= degree <= MAX_DEGREE:
        raise UnsupportedDegree(
            f"quadrature degree must be in [{MIN_DEGREE}, {MAX_DEGREE}], got {degree}")
    return degree


def _gauss01(n):
    """Gauss-Legendre nodes/weights shifted to [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


@lru_cache(maxsize=None)
def segment_rule(degree):
    """Gauss-Legendre rule on the reference segment [0, 1]."""
    degree = _check_degree(degree)
    x, w = _gauss01(degree // 2 + 1)
    return QuadratureRule(x, w)


@lru_cache(maxsize=None)
def rect_rule(degree):
    """Tensor Gauss-Legendre rule on the reference square [0, 1]^2."""
    degree = _check_degree(degree)
    x, w = _gauss01(degree // 2 + 1)
    X, Y = np.meshgrid(x, x, indexing="ij")
    return QuadratureRule(np.column_stack([X.ravel(), Y.ravel()]), np.outer(w, w).ravel())


@lru_cache(maxsize=None)
def _collapsed_triangle_rule(degree):
    """Conical-product rule on the reference triangle (not symmetric)."""
    degree = _check_degree(degree)
    nu = (degree + 3) // 2   # integrand picks up one extra power of (1-u)
    nv = (degree + 2) // 2
    xu, wu = _gauss01(nu)
    xv, wv = _gauss01(nv)
    U, V = np.meshgrid(xu, xv, indexing="ij")
    X = U
    Y = V * (1.0 - U)
    W = np.outer(wu, wv) * (1.0 - U)
    pts = np.column_stack([X.ravel(), Y.ravel()])
    return QuadratureRule(pts, W.ravel())


# ---------------------------------------------------------------------------
# mapping helpers
# ---------------------------------------------------------------------------

def map_segment(rule, p0, p1):
    """Map a reference [0,1] rule onto the physical segment p0 -> p1, or onto
    a stack of them (..., 2): points (..., n, 2), weights (..., n)."""
    p0 = np.asarray(p0, float)
    d = np.asarray(p1, float) - p0
    pts = p0[..., None, :] + rule.points[:, None] * d[..., None, :]
    # sqrt(vecdot) is bit for bit np.linalg.norm of one vector, on stacks too
    return pts, rule.weights * np.sqrt(np.vecdot(d, d))[..., None]


def map_triangle(rule, tri):
    """Map a reference-triangle rule onto the physical triangle (3, 2), or
    onto a stack of them (..., 3, 2): points (..., n, 2), weights (..., n)."""
    tri = np.asarray(tri, float)
    J = np.stack([tri[..., 1, :] - tri[..., 0, :], tri[..., 2, :] - tri[..., 0, :]], axis=-1)
    det = np.abs(J[..., 0, 0] * J[..., 1, 1] - J[..., 0, 1] * J[..., 1, 0])
    pts = rule.points @ J.swapaxes(-1, -2) + tri[..., None, 0, :]
    return pts, rule.weights * det[..., None]


# ---------------------------------------------------------------------------
# cut-element rules
# ---------------------------------------------------------------------------

def polygon_area(poly):
    """Signed shoelace area (positive for counterclockwise vertex order) of a
    polygon (n, 2) or of each polygon of a stack (..., n, 2)."""
    poly = np.asarray(poly, float)
    x, y = poly[..., 0], poly[..., 1]
    return 0.5 * np.sum(x * np.roll(y, -1, axis=-1) - np.roll(x, -1, axis=-1) * y, axis=-1)


def fan_rule(polys, degree, refine=0):
    """Stacked quadrature over convex CCW polygons `polys` (..., L, 2).

    Each polygon is fan-triangulated from its first vertex, each fan triangle
    is optionally subdivided `refine` times (4 children per level, the
    children of a triangle kept together), and a triangle rule is mapped onto
    every piece. A polygon with fewer vertices is padded to L by repeating
    its last vertex: the padding triangles have zero area and get zero
    weights. Returns points (..., (L-2) 4^refine n, 2) and weights
    (..., (L-2) 4^refine n).
    """
    polys = np.asarray(polys, float)
    tris = np.stack([np.broadcast_to(polys[..., :1, :], polys[..., 1:-1, :].shape),
                     polys[..., 1:-1, :], polys[..., 2:, :]], axis=-2)
    for _ in range(refine):
        a, b, c = tris[..., 0, :], tris[..., 1, :], tris[..., 2, :]
        ab, bc, ca = 0.5 * (a + b), 0.5 * (b + c), 0.5 * (c + a)
        kids = np.stack([np.stack(t, axis=-2) for t in
                         ((a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca))], axis=-3)
        tris = kids.reshape(kids.shape[:-4] + (4 * kids.shape[-4], 3, 2))
    rule = _collapsed_triangle_rule(degree)
    pts, w = map_triangle(rule, tris)
    shape = polys.shape[:-2] + (tris.shape[-3] * rule.n_points,)
    return pts.reshape(shape + (2,)), w.reshape(shape)
