import dataclasses

import numpy as np
import pytest
import scipy.linalg

from ppife.errors import SingularLocalSystem
from ppife.local_basis import (build_bases, ife_coefficients, piece_gradients, piece_values,
                               template_coefs)
from ppife.geometry import INTERFACE, DomainSpec, build_mesh, circle, classify_elements
from ppife.verify import _reference_cuts
from oracles import (basis_of, basis_residuals, cut_stack, draw_cuts_loop, full_mesh, ife_basis,
                     ife_stack_basis, linear_coupling_matrix, reference_cut, standard_basis,
                     template_name)

TRI = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
RECT = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def _diag_normal():
    n = np.array([1.0, 1.0])
    return n / np.linalg.norm(n)


def test_standard_tri_first_function():
    h = 0.25
    basis = standard_basis(0, h * TRI, "p1")
    # phi_1 = 1 - x/h - y/h
    pts = np.array([(0.0, 0.0), (0.1, 0.05), (0.05, 0.2)])
    expected = 1 - pts[:, 0] / h - pts[:, 1] / h
    assert np.allclose(basis.values(pts)[0], expected, atol=1e-13)
    g = basis.gradients(np.array([[0.1, 0.1]]))[0, 0]
    assert np.allclose(g, [-1 / h, -1 / h], atol=1e-13)


def test_standard_rect_corner_function():
    h = 0.5
    basis = standard_basis(0, h * RECT, "q1")
    pts = np.array([(0.0, 0.0), (0.2, 0.3), (0.5, 0.5)])
    expected = (1 - pts[:, 0] / h) * (1 - pts[:, 1] / h)
    assert np.allclose(basis.values(pts)[0], expected, atol=1e-13)


@pytest.mark.parametrize("verts,kind", [(TRI, "p1"), (RECT, "q1")])
def test_partition_of_unity(verts, kind):
    basis = standard_basis(0, verts, kind)
    rng = np.random.default_rng(0)
    pts = rng.uniform(0, 1, size=(20, 2))
    vals = basis.values(pts)
    assert np.allclose(vals.sum(axis=0), 1.0, atol=1e-13)


def test_equal_beta_reduces_to_standard():
    D = np.array([0.0, 0.5])
    E = np.array([0.5, 0.0])
    b = ife_stack_basis(TRI, D, E, _diag_normal(), 2.5, 2.5)
    s = standard_basis(0, TRI, "p1")
    assert np.allclose(b.coefs_minus, s.coefs_minus, atol=1e-12)
    assert np.allclose(b.coefs_plus, s.coefs_minus, atol=1e-12)
    b2 = ife_stack_basis(RECT, D, E, _diag_normal(), 2.5, 2.5)
    s2 = standard_basis(0, RECT, "q1")
    assert np.allclose(b2.coefs_minus, s2.coefs_minus, atol=1e-12)
    assert np.allclose(b2.coefs_plus, s2.coefs_minus, atol=1e-12)


def test_linear_reference_case_vs_independent_dense_solve():
    # reference triangle, D=(0,0.5), E=(0.5,0), beta=(1,2): build the 6x6
    # constraint system here and solve it through a different factorization
    D = np.array([0.0, 0.5])
    E = np.array([0.5, 0.0])
    n = _diag_normal()
    bm, bp = 1.0, 2.0
    basis = ife_stack_basis(TRI, D, E, n, bm, bp)

    M = np.zeros((6, 6))
    rhs = np.zeros((6, 3))
    side = ((TRI - D) @ n) > 0
    for i in range(3):
        off = 3 if side[i] else 0
        M[i, off:off + 3] = [1.0, TRI[i, 0], TRI[i, 1]]
        rhs[i, i] = 1.0
    M[3] = [1, D[0], D[1], -1, -D[0], -D[1]]
    M[4] = [1, E[0], E[1], -1, -E[0], -E[1]]
    M[5] = [0, bm * n[0], bm * n[1], 0, -bp * n[0], -bp * n[1]]
    X = scipy.linalg.lu_solve(scipy.linalg.lu_factor(M), rhs)

    assert np.allclose(basis.coefs_minus, X[:3].T, atol=1e-12)
    assert np.allclose(basis.coefs_plus, X[3:].T, atol=1e-12)


def test_linear_coefficients_match_closed_form_coupling():
    # c+ = F c- with the closed-form coupling matrix, for random cuts
    rng = np.random.default_rng(11)
    for _ in range(200):
        d, e = rng.uniform(0.01, 0.99, size=2)
        h = rng.choice([0.5, 1.0, 2.0])
        verts = h * TRI
        D = np.array([0.0, d * h])
        E = np.array([e * h, 0.0])
        n = np.array([d, e]) / np.hypot(d, e)
        bm, bp = 1.0, 10.0
        basis = ife_stack_basis(verts, D, E, n, bm, bp)
        F = linear_coupling_matrix(d, e, h, bm, bp)
        cm, cp = basis.phys_coefficients()
        for j in range(3):
            assert np.allclose(cp[j], F @ cm[j], atol=1e-10)


def test_linear_coefficient_ratio_bounds():
    rng = np.random.default_rng(5)
    grad_ratio_max = 0.0
    for _ in range(1000):
        cut = reference_cut("tri", rng)
        basis = ife_stack_basis(*cut[:4], 1.0, 10.0)
        cm, cp = basis.phys_coefficients()
        for j in range(3):
            r = np.linalg.norm(cm[j]) / np.linalg.norm(cp[j])
            assert 1e-2 < r < 1e2
            gm = np.linalg.norm(cm[j, 1:])
            gp = np.linalg.norm(cp[j, 1:])
            if gp > 1e-14:
                grad_ratio_max = max(grad_ratio_max, gm / gp)
    # gradient part of the minus piece controlled by the plus piece
    assert grad_ratio_max < 1e2


def test_bilinear_type1_constraint_residuals():
    D = np.array([0.0, 0.5])
    E = np.array([0.5, 0.0])
    cuts = cut_stack(RECT, D, E, _diag_normal(), 1.0, 10.0)
    basis = basis_of(cuts, 0)
    res = basis_residuals(cuts, 1.0, 10.0)
    for key, val in res.items():
        assert val.shape == (1,) and val[0] < 1e-12, key
    # independent check of the integral flux condition with a Gauss rule
    from ppife.quadrature import map_segment, segment_rule
    pts, w = map_segment(segment_rule(3), D, E)
    n = basis.chord_normal
    for j in range(4):
        gm = basis.gradients_piece(pts, -1)[j]
        gp = basis.gradients_piece(pts, +1)[j]
        val = float(w @ (1.0 * gm @ n - 10.0 * gp @ n))
        assert abs(val) < 1e-12


@pytest.mark.parametrize("kind", ["tri", "rect"])
def test_random_cut_invariants(kind):
    cuts = build_bases(_reference_cuts(kind, draw_cuts_loop(kind, 300, 42)), 1.0, 100.0)
    res = basis_residuals(cuts, 1.0, 100.0)
    assert max(r.max() for r in res.values()) < 1e-12


def test_consistency_small_jump():
    D = np.array([0.0, 0.35])
    E = np.array([0.65, 0.0])
    n = np.array([0.35, 0.65])
    n = n / np.linalg.norm(n)
    ratio = 1.0 + 1e-8
    b = ife_stack_basis(TRI, D, E, n, 1.0, ratio)
    s = standard_basis(0, TRI, "p1")
    assert np.abs(b.coefs_minus - s.coefs_minus).max() < 1e-6
    b2 = ife_stack_basis(RECT, D, E, n, 1.0, ratio)
    s2 = standard_basis(0, RECT, "q1")
    assert np.abs(b2.coefs_minus - s2.coefs_minus).max() < 1e-6


def test_eval_kronecker_and_gradient_fd():
    D = np.array([0.0, 0.7])
    E = np.array([0.3, 0.0])
    n = np.array([0.7, 0.3])
    n = n / np.linalg.norm(n)
    basis = ife_stack_basis(RECT, D, E, n, 1.0, 10.0)
    assert np.allclose(basis.values(RECT), np.eye(4), atol=1e-12)
    # finite differences away from the chord
    eps = 1e-6
    for p in np.array([(0.05, 0.05), (0.8, 0.8)]):
        g = basis.gradients(p[None, :])[:, 0]
        for a in range(2):
            step = eps * np.eye(2)[a]
            fd = (basis.values((p + step)[None, :]) - basis.values((p - step)[None, :]))[:, 0]
            fd /= 2 * eps
            assert np.all(np.abs(g[:, a] - fd) < 1e-6 * np.maximum(1, np.abs(fd)))


def test_values_agree_on_chord():
    D = np.array([0.0, 0.5])
    E = np.array([0.5, 0.0])
    basis = ife_stack_basis(TRI, D, E, _diag_normal(), 1.0, 10.0)
    pts = np.array([D + t * (E - D) for t in np.linspace(0, 1, 7)])
    vm = basis.values_piece(pts, -1)
    vp = basis.values_piece(pts, +1)
    assert np.abs(vm - vp).max() < 1e-12


def test_degenerate_cut_raises():
    D = np.array([0.0, 0.0])
    E = np.array([0.0, 0.0])
    with pytest.raises(SingularLocalSystem):
        cut_stack(TRI, D, E, np.array([1.0, 0.0]), 1.0, 10.0)


def test_gradient_bounded_by_inverse_h():
    rng = np.random.default_rng(9)
    for h in (1.0, 0.25):
        for _ in range(500):
            cut = reference_cut("rect", rng, h)
            basis = ife_stack_basis(*cut[:4], 1.0, 10.0)
            pts = rng.uniform(0, h, size=(8, 2))
            g = basis.gradients(pts)
            assert np.abs(g).max() < 50.0 / h


def test_build_bases_dispatch():
    # one immersed basis per interface element, none for standard elements
    for kind in ("rect", "tri"):
        mesh = build_mesh(DomainSpec(-1, 1, -1, 1, 8, kind))
        iface = circle(0.0, 0.0, np.pi / 6.28)
        status, cuts = classify_elements(mesh, iface)
        bases = build_bases(cuts, 1.0, 10.0)
        assert bases.ids.tolist() == np.flatnonzero(status == INTERFACE).tolist()
        m = 4 if kind == "rect" else 3
        assert bases.cm.shape == bases.cp.shape == (len(cuts), mesh.n_local, m)
        assert np.array_equal(bases.origin, full_mesh(mesh).element_origins[cuts.ids])
        res = basis_residuals(bases, 1.0, 10.0)
        assert max(r.max() for r in res.values()) < 1e-12


@pytest.mark.parametrize("kind", ["rect", "tri"])
def test_templates_equal_standard_basis_oracle(kind):
    # template evaluation in each element's own frame reproduces the oracle
    # bit for bit, and the oracle's Vandermonde solve to rounding
    mesh = build_mesh(DomainSpec(-1, 1, -1, 1, 6, kind))
    rng = np.random.default_rng(3)
    oracle_kind = "q1" if kind == "rect" else "p1"
    C = template_coefs(mesh, np.arange(mesh.n_elements))
    full = full_mesh(mesh)
    for k in range(mesh.n_elements):
        verts = mesh.node_coords(mesh.element_nodes(k))
        pts = np.vstack([verts, verts.mean(axis=0) + 0.3 * mesh.h * rng.uniform(-1, 1, (5, 2))])
        xi = (pts - full.element_origins[k]) / full.element_h[k]
        values = piece_values(C[k], xi)
        oracle = standard_basis(k, verts, oracle_kind, template_name(mesh, k))
        assert np.array_equal(values, oracle.values(pts))
        assert np.array_equal(piece_gradients(C[k], xi, full.element_h[k]), oracle.gradients(pts))
        solved = standard_basis(k, verts, oracle_kind)
        assert np.allclose(values, solved.values(pts), atol=1e-12)
        assert np.allclose(values[:, :len(verts)], np.eye(len(verts)), atol=1e-13)


@pytest.mark.parametrize("beta_plus", [10.0, 1e4])
@pytest.mark.parametrize("kind", ["rect", "tri"])
def test_build_bases_equals_per_element_oracle(kind, beta_plus):
    # the stacked solve reproduces the one-element solve bit for bit
    for N, (cx, cy, r) in ((40, (0.0, 0.0, np.pi / 6.28)), (64, (0.13, -0.21, 0.47))):
        mesh = build_mesh(DomainSpec(-1, 1, -1, 1, N, kind))
        _, cuts = classify_elements(mesh, circle(cx, cy, r))
        bases = build_bases(cuts, 1.0, beta_plus)
        for i, k in enumerate(cuts.ids):
            oracle = ife_basis(k, mesh.node_coords(mesh.element_nodes(k)), cuts.D[i], cuts.E[i],
                               cuts.normal[i], 1.0, beta_plus)
            basis = basis_of(bases, i)
            assert basis.kind == oracle.kind
            assert np.array_equal(basis.origin, oracle.origin) and basis.h == oracle.h
            assert np.array_equal(basis.coefs_minus, oracle.coefs_minus)
            assert np.array_equal(basis.coefs_plus, oracle.coefs_plus)


@pytest.mark.parametrize("kind", ["rect", "tri"])
def test_singular_system_in_batch_names_its_element(kind):
    mesh = build_mesh(DomainSpec(-1, 1, -1, 1, 16, kind))
    _, cuts = classify_elements(mesh, circle(0.0, 0.0, np.pi / 6.28))
    i = len(cuts) // 2
    bad = int(cuts.ids[i])
    # a chord collapsed to one point leaves the jump conditions singular
    E = cuts.E.copy()
    E[i] = cuts.D[i]
    cuts = dataclasses.replace(cuts, E=E)
    with pytest.raises(SingularLocalSystem, match=rf"^element {bad}: "):
        build_bases(cuts, 1.0, 10.0)
    with pytest.raises(SingularLocalSystem, match=rf"^element {bad}: "):
        ife_basis(bad, mesh.node_coords(mesh.element_nodes(bad)), cuts.D[i], cuts.E[i],
                  cuts.normal[i], 1.0, 10.0)


@pytest.mark.parametrize("bad", [{"zero": 7}, {"tiny": 7}, {"zero": 7, "tiny": 20},
                                 {"tiny": 7, "zero": 20}],
                         ids=["zero", "tiny", "zero_then_tiny", "tiny_then_zero"])
@pytest.mark.parametrize("kind", ["rect", "tri"])
def test_ill_conditioned_members_name_the_first(kind, bad):
    # a zero chord normal zeroes the flux row, so the member is exactly
    # singular and the stacked inverse fails; chord ends 1e-15 h apart leave
    # it invertible, with a condition number far above 1e14. The unit cuts
    # scaled by 0.25: a power of two, so the normals stay as they are
    cuts = _reference_cuts(kind, draw_cuts_loop(kind, 40, 3))
    ids = 100 + 3 * np.arange(len(cuts))
    verts, D, E, n = 0.25 * cuts.verts, 0.25 * cuts.D, 0.25 * cuts.E, cuts.normal.copy()
    ife_coefficients(verts, D, E, n, 1.0, 1e4, ids)
    if "zero" in bad:
        n[bad["zero"]] = 0.0
    if "tiny" in bad:
        i = bad["tiny"]
        E[i] = D[i] + 1e-15 * (E[i] - D[i])
    first = min(bad.values())
    with pytest.raises(SingularLocalSystem,
                       match=rf"^element {ids[first]}: condition estimate ") as err:
        ife_coefficients(verts, D, E, n, 1.0, 1e4, ids)
    cond = float(str(err.value).rsplit(" ", 1)[1])
    assert cond > 1e14
    assert np.isinf(cond) == (bad.get("zero") == first)


@pytest.mark.parametrize("beta_plus", [1e5, 1e6])
@pytest.mark.parametrize("N", [16, 20, 32])
def test_extreme_contrasts_build_on_tri(N, beta_plus):
    # solvable local systems whose residuals exceed an absolute 1e-12 (tri
    # N=20 at 1e5: 2.672e-12 on element 368) but stay within eps ||M||_F
    # ||X||_F, the rounding of the product; the bases meet their conditions
    mesh = build_mesh(DomainSpec(-1, 1, -1, 1, N, "tri"))
    _, cuts = classify_elements(mesh, circle(0.0, 0.0, np.pi / 6.28))
    res = basis_residuals(build_bases(cuts, 1.0, beta_plus), 1.0, beta_plus)
    assert max(r.max() for r in res.values()) < 1e-11
