import numpy as np
import pytest

from ppife.errors import UnsupportedDegree
from ppife.quadrature import _collapsed_triangle_rule, map_triangle, rect_rule, segment_rule
from oracles import DegeneratePolygon, split_edge_rule, split_polygon_rule


def test_segment_rule_degree1_is_midpoint():
    rule = segment_rule(1)
    assert rule.n_points == 1
    assert rule.points[0] == pytest.approx(0.5)
    assert rule.weights[0] == pytest.approx(1.0)
    # integrates x exactly
    assert float(rule.weights @ rule.points) == pytest.approx(0.5)


@pytest.mark.parametrize("degree", range(1, 11))
def test_segment_moments(degree):
    rule = segment_rule(degree)
    for p in range(degree + 1):
        exact = 1.0 / (p + 1)
        assert float(rule.weights @ rule.points ** p) == pytest.approx(exact, abs=1e-13)


@pytest.mark.parametrize("degree", range(1, 11))
def test_rect_moments(degree):
    rule = rect_rule(degree)
    assert rule.weights.sum() == pytest.approx(1.0, abs=1e-14)
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            exact = 1.0 / ((a + 1) * (b + 1))
            val = float(rule.weights @ (rule.points[:, 0] ** a * rule.points[:, 1] ** b))
            assert val == pytest.approx(exact, abs=1e-13)


def _tri_moment(a, b):
    # int_T x^a y^b over the reference triangle, via the beta-function identity
    from math import factorial
    return factorial(a) * factorial(b) / factorial(a + b + 2)


@pytest.mark.parametrize("degree", range(1, 11))
def test_triangle_moments(degree):
    rule = _collapsed_triangle_rule(degree)
    assert np.all(rule.weights > 0)
    assert rule.weights.sum() == pytest.approx(0.5, abs=1e-14)
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            val = float(rule.weights @ (rule.points[:, 0] ** a * rule.points[:, 1] ** b))
            assert val == pytest.approx(_tri_moment(a, b), abs=1e-13)


def test_triangle_rule_degree2_x2_moment():
    rule = _collapsed_triangle_rule(2)
    assert float(rule.weights @ rule.points[:, 0] ** 2) == pytest.approx(1.0 / 12, abs=1e-14)


def test_rect_rule_degree3_xy_cubed():
    rule = rect_rule(3)
    val = float(rule.weights @ (rule.points[:, 0] ** 3 * rule.points[:, 1] ** 3))
    assert val == pytest.approx(1.0 / 16, abs=1e-15)


@pytest.mark.parametrize("degree", [0, 11, -3])
def test_unsupported_degree(degree):
    with pytest.raises(UnsupportedDegree):
        segment_rule(degree)
    with pytest.raises(UnsupportedDegree):
        _collapsed_triangle_rule(degree)


def test_split_polygon_triangle_matches_mapped_rule():
    tri = np.array([[0.0, 0.0], [2.0, 0.0], [0.5, 1.5]])
    rule = split_polygon_rule(tri, 4)
    ref_pts, ref_w = map_triangle(_collapsed_triangle_rule(4), tri)
    assert np.allclose(np.sort(rule.weights), np.sort(ref_w))
    f = lambda p: p[:, 0] ** 2 * p[:, 1]
    assert float(rule.weights @ f(rule.points)) == pytest.approx(float(ref_w @ f(ref_pts)), abs=1e-14)


def test_split_polygon_pentagon_area():
    # unit square cut by x + y = 0.5; the pentagon is the large piece
    poly = np.array([[0.5, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.0, 0.5]])
    rule = split_polygon_rule(poly, 3)
    assert rule.weights.sum() == pytest.approx(7.0 / 8.0, abs=1e-13)


def test_split_polygon_additivity_random_cuts():
    rng = np.random.default_rng(3)
    for _ in range(100):
        d, e = rng.uniform(0.05, 0.95, size=2)
        h = rng.uniform(0.2, 2.0)
        pa = np.array([[0.0, 0.0], [e * h, 0.0], [0.0, d * h]])
        pb = np.array([[e * h, 0.0], [h, 0.0], [h, h], [0.0, h], [0.0, d * h]])
        wa = split_polygon_rule(pa, 2).weights.sum()
        wb = split_polygon_rule(pb, 2).weights.sum()
        assert wa + wb == pytest.approx(h * h, abs=1e-13 * h * h)


def test_split_polygon_degenerate_raises():
    sliver = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1e-16]])
    with pytest.raises(DegeneratePolygon):
        split_polygon_rule(sliver, 2)


def test_split_edge_rule_weight_sums():
    p0 = np.array([0.0, 0.0])
    p1 = np.array([1.0, 0.0])
    rule = split_edge_rule(p0, p1, np.array([0.3, 0.0]), 2)
    w = rule.weights
    assert w.sum() == pytest.approx(1.0, abs=1e-14)
    left = rule.points[:, 0] < 0.3
    assert w[left].sum() == pytest.approx(0.3, abs=1e-14)
    assert w[~left].sum() == pytest.approx(0.7, abs=1e-14)


def test_split_edge_rule_piecewise_quadratic():
    # piecewise quadratic with a break at x = 0.3: exact on each part
    p0 = np.array([0.0, 0.0])
    p1 = np.array([1.0, 0.0])
    rule = split_edge_rule(p0, p1, np.array([0.3, 0.0]), 2)

    def f(x):
        return np.where(x < 0.3, x * x, 1.0 + 2.0 * x + 3.0 * x * x)

    exact = 0.3 ** 3 / 3 + (1.0 - 0.3) + (1.0 - 0.09) + (1.0 - 0.3 ** 3)
    val = float(rule.weights @ f(rule.points[:, 0]))
    assert val == pytest.approx(exact, abs=1e-13)


def test_split_edge_rule_no_intersection_is_plain():
    p0 = np.array([1.0, 2.0])
    p1 = np.array([4.0, 6.0])
    rule = split_edge_rule(p0, p1, None, 3)
    assert rule.weights.sum() == pytest.approx(5.0, abs=1e-13)
    assert rule.n_points == segment_rule(3).n_points


def test_split_rules_reproduce_unsplit_for_smooth_integrand():
    p0 = np.array([0.0, 0.0])
    p1 = np.array([1.0, 1.0])
    plain = split_edge_rule(p0, p1, None, 4)
    broken = split_edge_rule(p0, p1, np.array([0.42, 0.42]), 4)
    f = lambda p: (p[:, 0] + 2.0 * p[:, 1]) ** 4 - 3.0 * p[:, 0] ** 2
    a = float(plain.weights @ f(plain.points))
    b = float(broken.weights @ f(broken.points))
    assert a == pytest.approx(b, abs=1e-12)
