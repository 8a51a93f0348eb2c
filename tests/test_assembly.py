from dataclasses import fields

import numpy as np
import pytest

from ppife import assembly
from ppife.assembly import (DATA_DEGREE, DATA_REFINE, MethodParams, apply_dirichlet,
                            assemble_edge_terms, assemble_load, cut_data_rules,
                            cut_volume_matrices, dump_matrix, edge_term_matrices, edge_traces)
from ppife.errors import ConfigError
from ppife.geometry import (DomainSpec, build_mesh, circle, classify_elements,
                            interface_edges, line)
from oracles import (basis_of, check_csr, classify_cuts, combine_system, edge_split_points,
                     full_mesh, full_volume, interface_jump_residuals, standard_basis)
from ppife.harness import RunConfig
from ppife.linsolve import cg
from ppife.local_basis import build_bases, cut_frame, cut_values
from ppife.postprocess import radial_interface_solution
from ppife.quadrature import fan_rule

R0 = np.pi / 6.28


def _pipeline(N, kind="rect", betas=(1.0, 10.0), iface=None):
    mesh = build_mesh(DomainSpec(-1, 1, -1, 1, N, kind))
    iface = iface or circle(0.0, 0.0, R0)
    status, cuts = classify_elements(mesh, iface)
    cuts = build_bases(cuts, *betas)
    return mesh, iface, status, cuts, interface_edges(mesh, cuts)


def _element_basis(mesh, cuts, k):
    """The immersed basis of element k, or the standard-basis oracle."""
    if k in cuts.ids:
        return basis_of(cuts, int(np.searchsorted(cuts.ids, k)))
    if mesh.cell_kind == "rect":
        return standard_basis(k, mesh.node_coords(mesh.element_nodes(k)), "q1", "rect")
    variant = ("tri_lower", "tri_upper")[full_mesh(mesh).element_variant[k]]
    return standard_basis(k, mesh.node_coords(mesh.element_nodes(k)), "p1", variant)


def test_method_params_presets():
    # the penalty's beta is the cut set's; sigma0 replaces all but classic's
    low, high = (_pipeline(4, betas=pair)[3] for pair in ((1.0, 10.0), (1.0, 10000.0)))
    assert [f.name for f in fields(MethodParams)] == ["delta", "epsilon", "sigma0"]
    assert MethodParams.preset("spp", low) == MethodParams(-1.0, -1.0, 100.0)
    assert MethodParams.preset("ipp", high) == MethodParams(-1.0, 0.0, 100000.0)
    assert MethodParams.preset("npp", low) == MethodParams(-1.0, 1.0, 1.0)
    assert MethodParams.preset("classic", high) == MethodParams(0.0, 0.0, 0.0)
    for scheme in ("spp", "ipp", "npp"):
        assert MethodParams.preset(scheme, low, 7.0).sigma0 == 7.0
    assert MethodParams.preset("classic", low, 7.0) == MethodParams(0.0, 0.0, 0.0)
    with pytest.raises(ConfigError):
        MethodParams.preset("sip", low)


def test_edge_terms_refuse_alpha_below_one():
    mesh, iface, status, cuts, edges = _pipeline(4)
    with pytest.raises(ConfigError, match="alpha must be >= 1"):
        assemble_edge_terms(mesh, edges, status, cuts, 0.5)
    assert edge_traces(mesh, edges, status, cuts).alpha is None     # recorded by the terms only


def test_q1_interior_stencil_diagonal():
    # beta = 1 on a 2x2 mesh: the centre node accumulates 4 corner entries of 8/3 total
    mesh, iface, status, cuts, edges = _pipeline(2, iface=line(1, 0, -10), betas=(1.0, 1.0))
    A = full_volume(mesh, status, cuts)
    centre = 4  # node (1,1) of the 3x3 grid
    assert A[centre, centre] == pytest.approx(8.0 / 3.0, abs=1e-12)


def test_volume_row_sums_vanish():
    for kind in ("rect", "tri"):
        mesh, iface, status, cuts, edges = _pipeline(6, kind=kind)
        A = full_volume(mesh, status, cuts)
        check_csr(A)
        ones = np.ones(mesh.n_nodes)
        assert np.abs(A @ ones).max() < 1e-12 * np.abs(A.data).max()


def test_cut_element_matrix_vs_dense_grid_oracle():
    mesh, iface, status, cuts, edges = _pipeline(4)
    basis = basis_of(cuts, 0)
    Aloc = cut_volume_matrices(cuts)[0]

    # dense-grid oracle: subdivide each fan triangle of each sub-polygon into
    # m^2 congruent triangles and apply the centroid rule
    def dense(poly, side, beta, m=512):
        total = np.zeros((basis.n_funcs, basis.n_funcs))
        poly = np.asarray(poly)
        I, J = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
        up = (I + J < m)
        down = (I + J < m - 1)
        cents = np.vstack([
            np.column_stack([(I[up] + 1 / 3), (J[up] + 1 / 3)]),
            np.column_stack([(I[down] + 2 / 3), (J[down] + 2 / 3)]),
        ]) / m
        for k in range(1, len(poly) - 1):
            A0, B0, C0 = poly[0], poly[k], poly[k + 1]
            d1, d2 = B0 - A0, C0 - A0
            area = 0.5 * abs(d1[0] * d2[1] - d1[1] * d2[0]) / m ** 2
            pts = A0 + np.outer(cents[:, 0], d1) + np.outer(cents[:, 1], d2)
            G = basis.gradients_piece(pts, side)
            total += beta * area * np.einsum("iqa,jqa->ij", G, G)
        return total

    oracle = (dense(cuts.poly_minus[0, :cuts.n_minus[0]], -1, 1.0)
              + dense(cuts.poly_plus[0, :cuts.n_plus[0]], +1, 10.0))
    assert np.abs(Aloc - oracle).max() < 1e-6 * np.abs(oracle).max()


def test_classic_combine_is_volume_only():
    mesh, iface, status, cuts, edges = _pipeline(8)
    A_vol = full_volume(mesh, status, cuts)
    params = MethodParams.preset("classic", cuts)
    M, P, _ = assemble_edge_terms(mesh, edges, status, cuts, 1.0)
    A = combine_system(A_vol, M, P, params)
    assert (A - A_vol).nnz == 0 or np.abs((A - A_vol).data).max() == 0.0


def test_mislabeled_edge_contributes_nothing():
    # constant beta, no interface: force one interior edge through the edge
    # machinery; continuous traces must produce ~zero contributions
    mesh, iface, status, cuts, edges = _pipeline(4, iface=line(1, 0, -10), betas=(2.0, 2.0))
    e = int(np.flatnonzero(mesh.edge_elements(np.arange(mesh.n_edges))[:, 1] >= 0)[3])
    traces = assemble_edge_terms(mesh, np.array([e]), status, cuts, 1.0)[2]
    assert traces.edges.tolist() == [e]
    dofs, M, P = edge_term_matrices(mesh, traces)
    assert np.abs(M).max() < 1e-12
    assert np.abs(P).max() < 1e-12


@pytest.mark.parametrize("kind", ["rect", "tri"])
def test_penalty_blocks_at_alpha_two_are_unit_blocks_over_length(kind):
    # |B|^-2 = |B|^-1 / |B|: alpha, recorded on the traces, scales P_unit
    # edge by edge and leaves M alone
    mesh, iface, status, cuts, edges = _pipeline(16, kind=kind)
    one = assemble_edge_terms(mesh, edges, status, cuts, 1.0)[2]
    two = assemble_edge_terms(mesh, edges, status, cuts, 2.0)[2]
    assert (one.alpha, two.alpha) == (1.0, 2.0)
    _, M1, P1 = edge_term_matrices(mesh, one)
    _, M2, P2 = edge_term_matrices(mesh, two)
    want = P1 / mesh.edge_lengths(edges)[:, None, None]
    assert np.array_equal(M1, M2)
    assert (np.abs(P2 - want).max(axis=(1, 2)) <= 1e-14 * np.abs(want).max(axis=(1, 2))).all()


def test_edge_terms_vs_composite_simpson_oracle():
    mesh, iface, status, cuts, edges = _pipeline(4)
    e = int(edges[0])
    params = MethodParams.preset("spp", cuts)
    traces = assemble_edge_terms(mesh, edges, status, cuts, 1.0)[2]
    assert traces.edges[0] == e
    dofs, M, P_unit = edge_term_matrices(mesh, traces)
    dofs, M, P = dofs[0].tolist(), M[0], params.sigma0 * P_unit[0]

    t1, t2 = mesh.edge_elements([e])[0]
    a, b = mesh.node_coords(mesh.edge_nodes([e])[0])
    nB = mesh.edge_normals([e])[0]
    L = mesh.edge_lengths([e])[0]
    o_cuts = classify_cuts(mesh, iface)[1]
    breaks = [0.0] + sorted(float(np.dot(x - a, b - a) / L ** 2)
                            for x in edge_split_points(mesh, e, o_cuts)) + [1.0]
    index = {g: i for i, g in enumerate(dofs)}

    def traces(pts):
        jump = np.zeros((len(dofs), len(pts)))
        flux = np.zeros((len(dofs), len(pts)))
        for elem, sign in ((t1, 1.0), (t2, -1.0)):
            basis = _element_basis(mesh, cuts, int(elem))
            loc = [index[int(g)] for g in mesh.element_nodes(elem)]
            vals = basis.values(pts)
            grads = basis.gradients(pts)
            if elem in cuts.ids:
                bpt = np.where(basis.side_plus_mask(pts), 10.0, 1.0)
            else:
                bpt = np.full(len(pts), 1.0 if status[elem] == -1 else 10.0)
            jump[loc] += sign * vals
            flux[loc] += 0.5 * bpt * np.einsum("dqa,a->dq", grads, nB)
        return jump, flux

    n_sub = 256
    M_oracle = np.zeros_like(M)
    P_oracle = np.zeros_like(P)
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        ts = np.linspace(lo, hi, 2 * n_sub + 1)
        pts = a + ts[:, None] * (b - a)
        w = np.ones(len(ts))
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        w *= (hi - lo) * L / (3 * 2 * n_sub)
        jump, flux = traces(pts)
        M_oracle += np.einsum("q,iq,jq->ij", w, jump, flux)
        P_oracle += params.sigma0 / L * np.einsum("q,iq,jq->ij", w, jump, jump)

    scale = max(np.abs(M_oracle).max(), np.abs(P_oracle).max())
    assert np.abs(M - M_oracle).max() < 1e-8 * scale
    assert np.abs(P - P_oracle).max() < 1e-8 * scale


def test_spp_matrix_is_symmetric():
    mesh, iface, status, cuts, edges = _pipeline(10)
    A_vol = full_volume(mesh, status, cuts)
    params = MethodParams.preset("spp", cuts)
    M, P, _ = assemble_edge_terms(mesh, edges, status, cuts, 1.0)
    A = combine_system(A_vol, M, P, params)
    free = full_mesh(mesh).interior_nodes
    A_ff = A[free][:, free]
    diff = np.abs((A_ff - A_ff.T).toarray()).max()
    assert diff < 1e-12 * np.abs(A_ff.data).max()


def test_spp_symmetric_part_positive_definite():
    for betas in ((1.0, 10.0), (1.0, 10000.0)):
        mesh, iface, status, cuts, edges = _pipeline(10, betas=betas)
        A_vol = full_volume(mesh, status, cuts)
        params = MethodParams.preset("spp", cuts)
        M, P, _ = assemble_edge_terms(mesh, edges, status, cuts, 1.0)
        A = combine_system(A_vol, M, P, params)
        free = full_mesh(mesh).interior_nodes
        S = A[free][:, free].toarray()
        np.linalg.cholesky(0.5 * (S + S.T))  # raises if not PD


def test_load_partition_of_unity():
    mesh, iface, status, cuts, edges = _pipeline(2, iface=line(1, 0, -10), betas=(1.0, 1.0))
    one = radial_interface_solution(1.0, 1.0)
    sol = type(one)(u_minus=one.u_minus, u_plus=one.u_plus, grad_minus=one.grad_minus,
                    grad_plus=one.grad_plus, f_minus=lambda x, y: np.ones_like(np.asarray(x, float)),
                    f_plus=lambda x, y: np.ones_like(np.asarray(x, float)))
    rules = cut_data_rules(cuts, iface)
    b = assemble_load(mesh, status, cuts, sol, iface, rules)
    assert b.sum() == pytest.approx(4.0, abs=1e-12)
    zero = type(one)(u_minus=one.u_minus, u_plus=one.u_plus, grad_minus=one.grad_minus,
                     grad_plus=one.grad_plus, f_minus=lambda x, y: np.zeros_like(np.asarray(x, float)),
                     f_plus=lambda x, y: np.zeros_like(np.asarray(x, float)))
    assert np.abs(assemble_load(mesh, status, cuts, zero, iface, rules)).max() == 0.0


def _dense_grid_load(mesh, iface, cuts, sol, m=512):
    gx, gw = np.polynomial.legendre.leggauss(2)
    gx = 0.5 * (gx + 1)
    gw = 0.5 * gw
    t = (np.arange(m)[:, None] + gx[None, :]).ravel() / m
    w1 = np.tile(gw / m, m)
    TX, TY = np.meshgrid(t, t, indexing="ij")
    W = np.outer(w1, w1).ravel()
    oracle = np.zeros(mesh.n_nodes)
    h = mesh.h
    for e in range(mesh.n_elements):
        o = mesh.element_frames(e)[0]
        pts = np.column_stack([(o[0] + h * TX).ravel(), (o[1] + h * TY).ravel()])
        minus = iface.phi(pts[:, 0], pts[:, 1]) < 0
        f = np.where(minus, sol.f_minus(pts[:, 0], pts[:, 1]), sol.f_plus(pts[:, 0], pts[:, 1]))
        vals = _element_basis(mesh, cuts, e).values(pts)
        oracle[mesh.element_nodes(e)] += (vals * (f * W)[None, :]).sum(axis=1) * h * h
    return oracle


def test_load_vs_dense_grid_oracle():
    # stated manufactured data: the r^3 source has a third-derivative kink at
    # the origin (a corner of four cut cells here), which caps the agreement
    # of any fixed-order rule pair around 1e-7; see the polynomial-data test
    # below for a sharp check of the assembly logic itself
    mesh, iface, status, cuts, edges = _pipeline(4)
    sol = radial_interface_solution(1.0, 10.0)
    b = assemble_load(mesh, status, cuts, sol, iface, cut_data_rules(cuts, iface))
    oracle = _dense_grid_load(mesh, iface, cuts, sol)
    assert np.abs(b - oracle).max() < 1e-6 * np.abs(oracle).max()


def test_load_vs_dense_grid_oracle_polynomial_data():
    # alpha = 6 gives the polynomial source -36 r^4, for which the assembly
    # quadrature is exact: away from cut cells the dense grid must agree to
    # near machine precision
    mesh, iface, status, cuts, edges = _pipeline(4)
    sol = radial_interface_solution(1.0, 10.0, alpha_exp=6.0)
    b = assemble_load(mesh, status, cuts, sol, iface, cut_data_rules(cuts, iface))
    oracle = _dense_grid_load(mesh, iface, cuts, sol, m=256)
    touched = np.zeros(mesh.n_nodes, dtype=bool)
    touched[mesh.element_nodes(cuts.ids)] = True
    sel = ~touched
    assert np.abs(b[sel] - oracle[sel]).max() < 1e-12 * np.abs(oracle).max()


def test_cut_element_load_vs_symbolic_oracle():
    # exact symbolic integration of f * phi_j over the chord-split polygons of
    # one cut element (f = -36 r^4 is a polynomial, so this is exact)
    import sympy as sp

    mesh, iface, status, cuts, edges = _pipeline(4)
    sol = radial_interface_solution(1.0, 10.0, alpha_exp=6.0)
    basis = basis_of(cuts, 0)
    rows = np.arange(1)
    mine = np.zeros(4)
    for poly in (cuts.poly_minus[:1], cuts.poly_plus[:1]):
        pts, wts = fan_rule(poly, DATA_DEGREE, DATA_REFINE)
        x, y = pts[..., 0], pts[..., 1]
        minus = iface.phi(x, y) < 0
        f = np.where(minus, sol.f_minus(x, y), sol.f_plus(x, y))
        mine += (cut_values(cuts, rows, *cut_frame(cuts, rows, pts)) @ (f * wts)[..., None])[0, :, 0]

    xs, ys, u, v = sp.symbols("x y u v")
    f_sym = -36 * (xs ** 2 + ys ** 2) ** 2
    cm, cp = basis.phys_coefficients()
    exact = []
    for j in range(4):
        tot = sp.Float(0, 30)
        for poly, c in ((cuts.poly_minus[0, :cuts.n_minus[0]], cm[j]),
                        (cuts.poly_plus[0, :cuts.n_plus[0]], cp[j])):
            phi = c[0] + c[1] * xs + c[2] * ys + c[3] * xs * ys
            P = [sp.Matrix([sp.Float(p[0], 30), sp.Float(p[1], 30)]) for p in poly]
            for k in range(1, len(P) - 1):
                A0, B0, C0 = P[0], P[k], P[k + 1]
                X = A0[0] + u * (B0[0] - A0[0]) + v * (C0[0] - A0[0])
                Y = A0[1] + u * (B0[1] - A0[1]) + v * (C0[1] - A0[1])
                J = sp.Abs((B0[0] - A0[0]) * (C0[1] - A0[1])
                           - (C0[0] - A0[0]) * (B0[1] - A0[1]))
                integ = (f_sym * phi).subs({xs: X, ys: Y}) * J
                tot += sp.integrate(sp.integrate(integ, (v, 0, 1 - u)), (u, 0, 1))
        exact.append(float(tot))
    assert np.abs(mine - np.array(exact)).max() < 1e-13


def test_dirichlet_homogeneous_keeps_free_rhs():
    mesh, iface, status, cuts, edges = _pipeline(4)
    M, P, _ = assemble_edge_terms(mesh, edges, status, cuts, 1.0)
    b = np.arange(mesh.n_nodes, dtype=float)
    sysm = apply_dirichlet(mesh, status, cuts, M, P, b,
                           lambda x, y: np.zeros_like(x)).system(
        MethodParams.preset("spp", cuts))
    A_ff, rhs = sysm.reduced()
    full = full_mesh(mesh)
    assert np.allclose(rhs, b[full.interior_nodes])
    assert np.array_equal(sysm.boundary, full.boundary_nodes)
    assert np.array_equal(sysm.boundary_values, np.zeros(len(full.boundary_nodes)))


@pytest.mark.parametrize("kind", ["rect", "tri"])
def test_patch_test_reproduces_polynomials(kind):
    # global (bi)linear exact solution, constant beta, interface present:
    # the discrete solution reproduces it to solver accuracy at the nodes
    mesh, iface, status, cuts, edges = _pipeline(8, kind=kind, betas=(2.0, 2.0))

    if kind == "rect":
        u = lambda x, y: 1.0 + 2.0 * x - 3.0 * y + 0.5 * x * y
        gu = lambda x, y: (2.0 + 0.5 * y, -3.0 + 0.5 * x)
    else:
        u = lambda x, y: 1.0 + 2.0 * x - 3.0 * y
        gu = lambda x, y: (2.0 * np.ones_like(x), -3.0 * np.ones_like(x))
    from ppife.postprocess import PiecewiseSolution
    zero = lambda x, y: np.zeros_like(np.asarray(x, float))
    sol = PiecewiseSolution(u, u, gu, gu, zero, zero)

    params = MethodParams.preset("spp", cuts)
    M, P, _ = assemble_edge_terms(mesh, edges, status, cuts, 1.0)
    b = assemble_load(mesh, status, cuts, sol, iface, cut_data_rules(cuts, iface))
    sysm = apply_dirichlet(mesh, status, cuts, M, P, b, u).system(params)
    A_ff, rhs = sysm.reduced()
    res = cg(A_ff, rhs, tol_rel=1e-13)
    coeffs = sysm.expand(res.x)
    exact = u(*full_mesh(mesh).nodes.T)
    assert np.abs(coeffs - exact).max() < 1e-10


def test_boundary_values_satisfy_interface_conditions():
    iface = circle(0.0, 0.0, R0)
    for betas in ((1.0, 10.0), (1.0, 10000.0)):
        sol = radial_interface_solution(*betas)
        ju, jf = interface_jump_residuals(sol, RunConfig(interface_params=(0.0, 0.0, R0),
                                                         beta_minus=betas[0], beta_plus=betas[1]))
        assert ju < 1e-10
        assert jf < 1e-10
    # boundary trace comes from the outer branch on this domain
    mesh = build_mesh(DomainSpec(-1, 1, -1, 1, 20, "rect"))
    sol = radial_interface_solution(1.0, 10.0)
    bd = mesh.node_coords(full_mesh(mesh).boundary_nodes)
    g = sol.u_at(bd[:, 0], bd[:, 1], iface)
    r = np.hypot(bd[:, 0], bd[:, 1])
    shift = (1.0 - 1.0 / 10.0) * R0 ** 5
    assert np.allclose(g, r ** 5 / 10.0 + shift, atol=1e-13)


def test_schemes_identical_for_continuous_coefficient():
    # constant beta with the circle still present: standard bases, zero jumps,
    # all schemes produce the same solution
    mesh, iface, status, cuts, edges = _pipeline(8, betas=(3.0, 3.0))
    sol = radial_interface_solution(3.0, 3.0)
    A_vol = full_volume(mesh, status, cuts)
    b = assemble_load(mesh, status, cuts, sol, iface, cut_data_rules(cuts, iface))
    solutions = []
    for scheme in ("classic", "spp", "ipp", "npp"):
        params = MethodParams.preset(scheme, cuts)
        M, P, _ = assemble_edge_terms(mesh, edges, status, cuts, 1.0)
        sysm = apply_dirichlet(mesh, status, cuts, M, P, b,
                               lambda x, y: sol.u_at(x, y, iface)).system(params)
        A_ff, rhs = sysm.reduced()
        from ppife.linsolve import bicgstab
        res = bicgstab(A_ff, rhs, tol_rel=1e-13)
        assert res.converged
        solutions.append(sysm.expand(res.x))
    base = solutions[0]
    d_energy = lambda x: float(np.sqrt((x - base) @ (A_vol @ (x - base))))
    for other in solutions[1:]:
        assert d_energy(other) < 1e-9


def test_energy_norm_identity_against_quadrature():
    # ||v||_h^2 == v' (A_vol + P) v, checked against the postprocess quadrature
    from ppife.postprocess import error_norms, PiecewiseSolution
    mesh, iface, status, cuts, edges = _pipeline(4)
    params = MethodParams.preset("spp", cuts)
    A_vol = full_volume(mesh, status, cuts)
    M, P, traces = assemble_edge_terms(mesh, edges, status, cuts, 1.0)
    rng = np.random.default_rng(2)
    zero = lambda x, y: np.zeros_like(np.asarray(x, float))
    zsol = PiecewiseSolution(zero, zero, lambda x, y: (zero(x, y), zero(x, y)),
                             lambda x, y: (zero(x, y), zero(x, y)), zero, zero)
    rules = cut_data_rules(cuts, iface)
    for _ in range(5):
        v = rng.standard_normal(mesh.n_nodes)
        quad = error_norms(mesh, status, cuts, v, zsol, iface, traces, params.sigma0,
                           rules)["energy"]
        alg = float(np.sqrt(v @ (A_vol @ v) + params.sigma0 * (v @ (P @ v))))
        assert quad == pytest.approx(alg, rel=1e-10)


def test_import_leaves_scipy_io_out():
    # scipy.io, which only the MatrixMarket dump needs, adds about 1.3 MB to
    # the memory of a process that solves; `import ppife` must not load it
    import os
    import subprocess
    import sys
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = "import sys, ppife; print('scipy.io' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


def test_matrix_market_dump(tmp_path):
    mesh, iface, status, cuts, edges = _pipeline(4)
    A = full_volume(mesh, status, cuts)
    path = tmp_path / "A.mtx"
    dump_matrix(path, A)
    import scipy.io
    B = scipy.io.mmread(str(path)).tocsr()
    assert (A - B).nnz == 0


def test_delta_sign_convention():
    # delta = -1 reproduces a hand-assembled fixed-minus consistency term
    mesh, iface, status, cuts, edges = _pipeline(6)
    A_vol = full_volume(mesh, status, cuts)
    params = MethodParams(-1.0, 1.0, 1.0)
    M, P, _ = assemble_edge_terms(mesh, edges, status, cuts, 1.0)
    A = combine_system(A_vol, M, P, params)
    ref = (A_vol - M + M.T + P).tocsr()
    assert np.abs((A - ref).toarray()).max() < 1e-14 * np.abs(A_vol.data).max()


def test_classic_constant_beta_equals_standard_fem_matrix():
    # with a continuous coefficient the immersed stiffness matrix equals the
    # standard FEM stiffness matrix of the same mesh entry for entry
    mesh, iface, status, cuts, edges = _pipeline(10, betas=(3.0, 3.0))
    A_ife = full_volume(mesh, status, cuts)
    far = line(1.0, 0.0, -10.0)
    status2, cuts2 = classify_elements(mesh, far)
    A_fem = full_volume(mesh, status2, build_bases(cuts2, 3.0, 3.0))
    free = full_mesh(mesh).interior_nodes
    diff = (A_ife[free][:, free] - A_fem[free][:, free]).toarray()
    assert np.abs(diff).max() < 1e-12 * np.abs(A_fem.data).max()
