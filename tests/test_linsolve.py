import numpy as np
import pytest
import scipy.sparse as sp

from ppife.errors import AsymmetricInput
from oracles import check_csr, dense_solve, matvec_triplets
from ppife.linsolve import bicgstab, cg


def _tridiag(n):
    return sp.diags([-np.ones(n - 1), 2 * np.ones(n), -np.ones(n - 1)],
                    offsets=(-1, 0, 1)).tocsr()


def test_cg_identity_single_iteration():
    A = sp.eye(12).tocsr()
    b = np.arange(12, dtype=float)
    res = cg(A, b)
    assert res.converged
    assert res.iterations == 1
    assert np.allclose(res.x, b, atol=1e-14)


def test_cg_tridiagonal_vs_dense_oracle():
    A = _tridiag(10)
    b = np.zeros(10)
    b[0] = 1.0
    res = cg(A, b, tol_rel=1e-14)
    assert res.converged
    assert np.allclose(res.x, dense_solve(A, b), atol=1e-12)


def test_cg_rejects_asymmetric():
    A = sp.csr_matrix(np.array([[2.0, 1.0], [0.0, 2.0]]))
    with pytest.raises(AsymmetricInput):
        cg(A, np.ones(2))


def test_cg_rejects_one_asymmetric_entry_in_large_matrix():
    # one off-diagonal pair out of thousands differs; a sampled check misses it
    A = _tridiag(2000).tolil()
    A[10, 11] = -3.0
    with pytest.raises(AsymmetricInput):
        cg(A.tocsr(), np.ones(2000))


def test_cg_zero_rhs():
    res = cg(_tridiag(5), np.zeros(5))
    assert res.converged and res.iterations == 0
    assert np.all(res.x == 0)


def test_cg_not_converged_flag():
    A = _tridiag(50)
    b = np.ones(50)
    res = cg(A, b, tol_rel=1e-14, max_iter=2)
    assert not res.converged
    assert res.residual > 1e-14


def test_bicgstab_agrees_with_cg_on_symmetric():
    A = _tridiag(40)
    rng = np.random.default_rng(1)
    b = rng.standard_normal(40)
    xa = cg(A, b, tol_rel=1e-13).x
    xb = bicgstab(A, b, tol_rel=1e-13).x
    assert np.linalg.norm(xa - xb) / np.linalg.norm(xa) < 1e-10


def test_bicgstab_random_diagonally_dominant():
    rng = np.random.default_rng(7)
    n = 50
    B = rng.standard_normal((n, n))
    A = sp.csr_matrix(B + n * np.eye(n))
    b = rng.standard_normal(n)
    res = bicgstab(A, b, tol_rel=1e-13)
    assert res.converged
    assert np.allclose(res.x, dense_solve(A, b), atol=1e-10)


def test_matvec_matches_triplet_oracle():
    rng = np.random.default_rng(3)
    n = 60
    dense = rng.standard_normal((n, n)) * (rng.uniform(size=(n, n)) < 0.1)
    A = sp.csr_matrix(dense)
    check_csr(A)
    coo = A.tocoo()
    for _ in range(5):
        x = rng.standard_normal(n)
        assert np.allclose(A @ x, matvec_triplets(coo.row, coo.col, coo.data, x, n),
                           atol=1e-14)


def test_dense_solve_size_guard():
    A = sp.eye(2001).tocsr()
    with pytest.raises(ValueError):
        dense_solve(A, np.ones(2001))


def test_check_csr_rejects_unsorted():
    A = sp.csr_matrix((np.array([1.0, 2.0]), np.array([1, 0]), np.array([0, 2])),
                      shape=(1, 2))
    with pytest.raises(ValueError):
        check_csr(sp.csr_matrix((A.data, A.indices, A.indptr), shape=(1, 2)))


def test_solvers_on_assembled_systems():
    # SPP via cg and NPP via bicgstab on a real assembled case
    from ppife.harness import RunConfig, build_context, scheme_params
    from ppife import assembly

    cfg = RunConfig(N=(20,), schemes=("spp",))
    ctx = build_context(cfg, 20)
    for scheme, solver in (("spp", cg), ("npp", bicgstab)):
        params = scheme_params(cfg, scheme)
        A = assembly.combine_system(ctx.A_vol, ctx.M, ctx.P_unit, params)
        system = assembly.apply_dirichlet(A, ctx.b, ctx.mesh,
                                          lambda x, y: ctx.sol.u_at(x, y, ctx.iface))
        A_ff, rhs = system.reduced()
        res = solver(A_ff, rhs, tol_rel=1e-12)
        assert res.converged
        assert res.residual <= 1e-12


def test_cg_bicgstab_energy_agreement():
    from ppife.harness import RunConfig, build_context, scheme_params
    from ppife import assembly

    cfg = RunConfig(N=(10,), schemes=("spp",))
    ctx = build_context(cfg, 10)
    params = scheme_params(cfg, "spp")
    A = assembly.combine_system(ctx.A_vol, ctx.M, ctx.P_unit, params)
    system = assembly.apply_dirichlet(A, ctx.b, ctx.mesh,
                                      lambda x, y: ctx.sol.u_at(x, y, ctx.iface))
    A_ff, rhs = system.reduced()
    xa = cg(A_ff, rhs, tol_rel=1e-13).x
    xb = bicgstab(A_ff, rhs, tol_rel=1e-13).x
    d = xa - xb
    num = float(np.sqrt(d @ (A_ff @ d)))
    den = float(np.sqrt(xa @ (A_ff @ xa)))
    assert num / den < 1e-9
