import functools

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ppife.errors import AsymmetricInput
from oracles import check_csr, dense_solve, matvec_triplets, neighbour_max_reduceat
from ppife.linsolve import (AMG_CG_DOFS, COARSE_SIZE, SAHierarchy, _neighbour_max,
                            _neighbour_table, _scaled, aggregate, bicgstab, cg)


def _tridiag(n):
    return sp.diags([-np.ones(n - 1), 2 * np.ones(n), -np.ones(n - 1)],
                    offsets=(-1, 0, 1)).tocsr()


def test_cg_identity_single_iteration():
    A = sp.eye(12).tocsr()
    b = np.arange(12, dtype=float)
    res = cg(A, b)
    assert res.converged
    assert res.iterations == 1
    assert res.restarts == 0
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

    cfg = RunConfig(N=(20,), schemes=("spp",))
    ctx = build_context(cfg, 20)
    for scheme, solver in (("spp", cg), ("npp", bicgstab)):
        A_ff, rhs = ctx.split.system(scheme_params(cfg, scheme)).reduced()
        res = solver(A_ff, rhs, tol_rel=1e-12)
        assert res.converged
        assert res.residual <= 1e-12


def test_cg_bicgstab_energy_agreement():
    from ppife.harness import RunConfig, build_context, scheme_params

    cfg = RunConfig(N=(10,), schemes=("spp",))
    ctx = build_context(cfg, 10)
    A_ff, rhs = ctx.split.system(scheme_params(cfg, "spp")).reduced()
    xa = cg(A_ff, rhs, tol_rel=1e-13).x
    xb = bicgstab(A_ff, rhs, tol_rel=1e-13).x
    d = xa - xb
    num = float(np.sqrt(d @ (A_ff @ d)))
    den = float(np.sqrt(xa @ (A_ff @ xa)))
    assert num / den < 1e-9


@functools.lru_cache(maxsize=1)
def _context(mesh, N, beta_plus):
    from ppife.harness import RunConfig, build_context

    cfg = RunConfig(mesh=mesh, N=(N,), beta_plus=beta_plus)
    return cfg, build_context(cfg, N)


def _read_only(*arrays):
    for a in arrays:
        a.setflags(write=False)


@functools.cache
def _blocked_system(mesh, N, beta_plus, scheme):
    """Reduced system of a scheme and the positions in it of the free nodes
    of the cut elements; shared by the tests, so every array is read-only."""
    from ppife.harness import interface_block, scheme_params

    cfg, ctx = _context(mesh, N, beta_plus)
    system = ctx.split.system(scheme_params(cfg, scheme))
    A_ff, rhs = system.reduced()
    block = interface_block(ctx, system)
    _read_only(A_ff.data, A_ff.indices, A_ff.indptr, rhs, block)
    return A_ff, rhs, block


def _reduced_system(mesh, N, beta_plus, scheme):
    return _blocked_system(mesh, N, beta_plus, scheme)[:2]


def _poisson(m):
    # 5-point Laplacian on an m x m grid of interior nodes
    T = _tridiag(m)
    return (sp.kron(T, sp.eye(m)) + sp.kron(sp.eye(m), T)).tocsr()


def test_bicgstab_is_deterministic():
    A, b = _reduced_system("rect", 40, 1e4, "npp")
    first, second = bicgstab(A, b), bicgstab(A, b)
    assert first.converged
    assert first.iterations == second.iterations
    assert np.array_equal(first.x, second.x)


@pytest.mark.parametrize("mesh", ["rect", "tri"])
@pytest.mark.parametrize("beta_plus", [10.0, 1e4])
def test_nonsymmetric_schemes_agree_with_direct_solve(mesh, beta_plus):
    for scheme in ("ipp", "npp"):
        A, b = _reduced_system(mesh, 80, beta_plus, scheme)
        res = bicgstab(A, b)
        assert res.converged and res.restarts == 0
        x_direct = spla.splu(A.tocsc()).solve(b)
        assert np.linalg.norm(res.x - x_direct) <= 1e-9 * np.linalg.norm(x_direct)


def test_bicgstab_iterations_grow_slowly_with_N():
    # high contrast on rect, where Jacobi-BiCGSTAB iterations grow about linearly
    for scheme in ("ipp", "npp"):
        coarse, fine = (bicgstab(*_reduced_system("rect", N, 1e4, scheme)) for N in (40, 160))
        assert coarse.converged and fine.converged
        assert fine.iterations <= 1.5 * coarse.iterations, scheme


def test_small_system_is_solved_by_the_coarse_factorization():
    A, b = _reduced_system("rect", 20, 1e4, "npp")
    assert A.shape[0] <= COARSE_SIZE
    assert SAHierarchy(A).levels == []
    res = bicgstab(A, b)
    assert res.converged and res.iterations == 1


def test_sa_hierarchy_coarsens_to_the_coarse_size():
    A = _poisson(60)
    M = SAHierarchy(A)
    sizes = [lvl[0].shape[0] for lvl in M.levels] + [M.coarse.shape[0]]
    assert sizes[0] == 3600 and sizes[-1] <= COARSE_SIZE
    assert all(c < f / 4 for f, c in zip(sizes, sizes[1:]))
    # every prolongator column is used and the V-cycle reduces the error
    for _, _, P, _ in M.levels:
        assert np.all(np.diff(P.tocsc().indptr) > 0)
    e = np.random.default_rng(5).standard_normal(3600)
    e0 = np.linalg.norm(e)
    for _ in range(10):
        e -= M(A @ e)
    assert np.linalg.norm(e) < 1e-3 * e0


def test_interface_block_damps_the_slow_mode():
    # at high contrast the error that Jacobi sweeps and aggregates miss sits
    # on the nodes of the cut elements: without the block the V-cycle
    # contracts it by about 0.9 a step (SPP, IPP) or lets it grow (NPP)
    for scheme in ("spp", "ipp", "npp"):
        A, b, block = _blocked_system("rect", 80, 1e4, scheme)
        As = _scaled(A, b)[0]
        M = SAHierarchy(As, block)
        e = np.random.default_rng(11).standard_normal(As.shape[0])
        e0 = np.linalg.norm(e)
        for _ in range(30):
            e -= M(As @ e)
        assert np.linalg.norm(e) < 1e-3 * e0, scheme


@pytest.mark.parametrize("mesh", ["rect", "tri"])
@pytest.mark.parametrize("beta_plus", [10.0, 1e4])
def test_blocked_bicgstab_iteration_ceiling(mesh, beta_plus):
    for scheme in ("ipp", "npp"):
        A, b, block = _blocked_system(mesh, 160, beta_plus, scheme)
        res = bicgstab(A, b, block=block)
        assert res.converged and res.restarts == 0, scheme
        assert res.iterations <= 30, (scheme, res.iterations)


def test_block_solve_is_exact_and_optional():
    # the block's solver inverts A[ids, ids]; an empty or absent block, or a
    # system at the coarse size, leaves the plain V-cycle
    A, b, block = _blocked_system("rect", 40, 1e4, "npp")
    As = _scaled(A, b)[0]
    M = SAHierarchy(As, block)
    ids, solve, rows, cols = M.block
    assert sorted(ids) == sorted(block)
    v = np.random.default_rng(2).standard_normal(len(ids))
    x = solve(v)
    assert np.allclose(As[ids][:, ids] @ x, v, rtol=0, atol=1e-10 * np.abs(v).max())
    plain = SAHierarchy(As)
    for other in (SAHierarchy(As, np.array([], dtype=int)), SAHierarchy(As, None)):
        assert other.block is None
        assert np.array_equal(other(b), plain(b))
    small, small_b, small_block = _blocked_system("rect", 20, 1e4, "npp")
    assert SAHierarchy(small, small_block).block is None


def _weighted_laplacian(m, seed):
    # graph Laplacian of an m x m grid with random edge weights in [1/e, e]:
    # zero row sums, so K @ 1 = 0, and a diagonal that varies from node to node
    idx = np.arange(m * m).reshape(m, m)
    i = np.concatenate([idx[:, :-1].ravel(), idx[:-1, :].ravel()])
    j = np.concatenate([idx[:, 1:].ravel(), idx[1:, :].ravel()])
    w = np.exp(np.random.default_rng(seed).uniform(-1.0, 1.0, len(i)))
    W = sp.csr_matrix((np.concatenate([w, w]), (np.concatenate([i, j]), np.concatenate([j, i]))),
                      shape=(m * m, m * m))
    return (sp.diags(np.asarray(W.sum(axis=1)).ravel()) - W).tocsr()


def test_candidate_is_carried_to_every_level():
    # As = D^-1/2 K D^-1/2 has the null vector D^1/2 1 = 1/s. When the
    # tentative prolongators carry it, every coarse matrix inherits a null
    # vector; the constant candidate leaves them all clearly nonsingular
    K = _weighted_laplacian(60, 3)
    As, _, s = _scaled(K, np.ones(K.shape[0]))
    for candidate, singular in ((1.0 / s, True), (None, False)):
        M = SAHierarchy(As, candidate=candidate)
        coarse = [lvl[0] for lvl in M.levels[1:]] + [M.coarse]
        assert len(coarse) >= 2
        for C in coarse:
            ev = np.abs(np.linalg.eigvalsh(C.toarray()))
            assert (ev.min() < 1e-12 * ev.max()) == singular, (candidate is None, C.shape)


@pytest.mark.parametrize("seed", range(6))
def test_neighbour_max_equals_reduceat(seed):
    # rows of very uneven length, as on the coarse levels: each node keeps
    # its diagonal and a geometric number of random neighbours, some rows
    # far longer than the rest; values negative too, like unset aggregates
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 400))
    rows = [np.unique(np.append(rng.integers(0, n, rng.geometric(0.2 if i % 17 else 0.02)), i))
            for i in range(n)]
    G = sp.csr_matrix((np.ones(sum(map(len, rows)), dtype=np.int8), np.concatenate(rows),
                       np.cumsum([0] + [len(r) for r in rows])), shape=(n, n))
    T = _neighbour_table(G)
    assert T.shape == (np.diff(G.indptr).max(), n)
    for v in (rng.permutation(n).astype(np.int64), rng.integers(-3, 5, n)):
        assert np.array_equal(_neighbour_max(T, v), neighbour_max_reduceat(G, v))


def test_coarse_level_is_solved_exactly():
    # a banded LU at the coarse size; splu where coarsening stops above it
    # (a diagonal matrix has no strong couplings to aggregate)
    rng = np.random.default_rng(4)
    for A in (_poisson(60), sp.diags(rng.uniform(1.0, 2.0, COARSE_SIZE + 100)).tocsr()):
        M = SAHierarchy(A)
        v = rng.standard_normal(M.coarse.shape[0])
        x = M.coarse_solve(v)
        assert np.linalg.norm(M.coarse @ x - v) <= 1e-12 * np.linalg.norm(v)
    assert M.levels == [] and M.coarse.shape[0] > COARSE_SIZE


def test_given_aggregates_replace_the_first_level_only(monkeypatch):
    # the context's lattice aggregates make level 0; every coarser level
    # aggregates its own Galerkin matrix
    from ppife import linsolve
    A, b, block = _blocked_system("rect", 80, 1e4, "spp")
    As, _, s = _scaled(A, b)
    agg, n_coarse = _context("rect", 80, 1e4)[1].fine_aggregates()
    own = SAHierarchy(As, block, 1.0 / s)
    sizes, calls = [], []
    monkeypatch.setattr(linsolve, "aggregate",
                        lambda L, rng: sizes.append(L.shape[0]) or aggregate(L, rng))
    M = SAHierarchy(As, block, 1.0 / s, lambda: calls.append(1) or (agg, n_coarse))
    assert calls == [1]
    assert M.levels[0][2].shape == (As.shape[0], n_coarse) != own.levels[0][2].shape
    assert len(M.levels) >= 2
    assert sizes == [lvl[0].shape[0] for lvl in M.levels[1:]] and sizes[0] == n_coarse
    with pytest.raises(ValueError):
        SAHierarchy(As, aggregates=lambda: (agg[1:], n_coarse))
    # a system at the coarse size never asks for them
    small, _, _ = _blocked_system("rect", 20, 1e4, "spp")
    SAHierarchy(small, aggregates=lambda: calls.append(2))
    assert calls == [1]


@pytest.mark.parametrize("mesh", ["rect", "tri"])
@pytest.mark.parametrize("beta_plus", [10.0, 1e4])
def test_preconditioned_cg_iteration_ceiling(mesh, beta_plus):
    # Jacobi-CG needs 320-475 iterations on these systems
    for scheme in ("classic", "spp"):
        A, b, block = _blocked_system(mesh, 160, beta_plus, scheme)
        assert A.shape[0] > AMG_CG_DOFS
        res = cg(A, b, block=block)
        assert res.converged and res.amg_levels >= 1, scheme
        assert res.iterations <= 30, (scheme, res.iterations)
        x_direct = spla.splu(A.tocsc()).solve(b)
        assert np.linalg.norm(res.x - x_direct) <= 1e-10 * np.linalg.norm(x_direct), scheme


def test_small_systems_keep_jacobi_cg():
    for mesh in ("rect", "tri"):
        A, b, block = _blocked_system(mesh, 80, 1e4, "spp")
        assert A.shape[0] <= AMG_CG_DOFS
        res = cg(A, b, block=block, aggregates=lambda: pytest.fail("no hierarchy is built"))
        assert res.converged and res.amg_levels == 0
        assert np.array_equal(res.x, cg(A, b).x)
    assert bicgstab(*_reduced_system("rect", 20, 1e4, "npp")).amg_levels == 1


def test_cg_preconditioner_is_symmetric_and_positive():
    A, b, block = _blocked_system("rect", 80, 1e4, "spp")
    As, _, s = _scaled(A, b)
    M = SAHierarchy(As, block, 1.0 / s)
    rng = np.random.default_rng(13)
    for _ in range(5):
        u, v = rng.standard_normal((2, As.shape[0]))
        Mu, Mv = M(u), M(v)
        assert abs(u @ Mv - v @ Mu) <= 1e-12 * np.linalg.norm(u) * np.linalg.norm(Mv)
        assert u @ Mu > 0


def test_preconditioned_cg_iterations_grow_slowly_with_N():
    # Jacobi-CG takes 361 and 730 iterations here
    def solve(N):
        A, b, block = _blocked_system("rect", N, 1e4, "spp")
        return cg(A, b, block=block)

    coarse, fine = solve(160), solve(320)
    assert coarse.converged and fine.converged
    assert fine.iterations <= 1.5 * coarse.iterations, (coarse.iterations, fine.iterations)


# the iteration table of ROADMAP at N=160 (classic, SPP, IPP, NPP), made
# with level-0 aggregates from a random-priority MIS on A_vol; the lattice
# aggregates that replaced them may take at most 2 iterations more
ITERATION_TABLE = {("rect", 10.0): (14, 14, 8, 8), ("rect", 1e4): (17, 18, 11, 9),
                   ("tri", 10.0): (16, 19, 11, 9), ("tri", 1e4): (17, 22, 12, 10)}
ALL_SCHEMES = ("classic", "spp", "ipp", "npp")


@pytest.mark.parametrize("mesh", ["rect", "tri"])
@pytest.mark.parametrize("beta_plus", [10.0, 1e4])
def test_solve_scheme_iterations_within_the_table(mesh, beta_plus):
    # the production path: solve_scheme, its cut-element block and the
    # context's lattice aggregates
    from ppife.harness import solve_scheme

    cfg, ctx = _context(mesh, 160, beta_plus)
    for scheme, table in zip(ALL_SCHEMES, ITERATION_TABLE[mesh, beta_plus]):
        rec, coeffs, system = solve_scheme(ctx, cfg, scheme)
        assert rec.iterations <= table + 2, (scheme, rec.iterations)
        A, b = system.reduced()
        x_direct = spla.splu(A.tocsc()).solve(b)
        x = coeffs[system.free]
        assert np.linalg.norm(x - x_direct) <= 1e-9 * np.linalg.norm(x_direct), scheme


@pytest.mark.parametrize("mesh", ["rect", "tri"])
def test_solve_scheme_iterations_grow_slowly_with_N(mesh):
    from ppife.harness import solve_scheme

    def iterations(N):
        cfg, ctx = _context(mesh, N, 1e4)
        return [solve_scheme(ctx, cfg, scheme)[0].iterations for scheme in ALL_SCHEMES]

    for scheme, coarse, fine in zip(ALL_SCHEMES, iterations(160), iterations(320)):
        assert fine <= 1.5 * coarse, (scheme, coarse, fine)


def _same_csr(X, Y):
    return (X.shape == Y.shape and np.array_equal(X.indptr, Y.indptr)
            and np.array_equal(X.indices, Y.indices)
            and np.array_equal(X.data.view(np.int64), Y.data.view(np.int64)))


@pytest.mark.parametrize("scheme", ["spp", "npp"])
def test_scaled_equals_diagonal_products(scheme):
    # the Jacobi scaling scales the CSR data where it multiplied by two
    # diagonal matrices: the same bits, the same index order (scipy's product
    # reverses each row twice), on read-only reduced systems
    A, b, _ = _blocked_system("rect", 40, 1e4, scheme)
    As, bs, s = _scaled(A, b)
    assert _same_csr(As, (sp.diags(s) @ A @ sp.diags(s)).tocsr())
    assert np.array_equal(bs, s * b)


def test_scaled_drops_zeros_and_keeps_unsorted_rows():
    # rows stored out of column order keep their order; stored zeros, and
    # products that underflow to zero, are dropped as the product drops them,
    # without touching the input's arrays
    rng = np.random.default_rng(5)
    n = 30
    A = sp.random(n, n, density=0.2, random_state=rng, format="csr") + 4 * sp.eye(n)
    A = A.tocsr()
    off = np.flatnonzero(A.indices != np.repeat(np.arange(n), np.diff(A.indptr)))
    A.data[off[::7]] = 0.0
    A.data[off[3]] = 5e-324    # times s_i s_j < 1/2: rounds to zero
    for r in range(n):
        lo, hi = A.indptr[r], A.indptr[r + 1]
        order = lo + rng.permutation(hi - lo)
        A.indices[lo:hi], A.data[lo:hi] = A.indices[order], A.data[order]
    A.has_sorted_indices = False
    before = (A.data.copy(), A.indices.copy(), A.indptr.copy())
    As, _, s = _scaled(A, np.ones(n))
    assert (s * s < 0.5).all()
    want = (sp.diags(s) @ A @ sp.diags(s)).tocsr()
    assert _same_csr(As, want) and not (want.data == 0).any()
    assert all(np.array_equal(x, y) for x, y in zip(before, (A.data, A.indices, A.indptr)))
