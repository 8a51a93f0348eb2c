import ast
import functools
import inspect

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ppife import linsolve
from ppife.errors import AsymmetricInput, PpifeError
from ppife.geometry import DomainSpec, build_mesh, circle, lattice_aggregates
from oracles import check_csr, dense_solve, matvec_triplets
from ppife.linsolve import COARSE_SIZE, SAHierarchy, _is_symmetric, _scaled, bicgstab, cg


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


def test_cg_breakdown_reports_the_iterations_run():
    # indefinite: p.Ap turns negative in the second iteration, which stops CG
    A = sp.diags([1.0, -1.0, 2.0, 3.0]).tocsr()
    res = cg(A, np.ones(4))
    assert not res.converged and res.iterations == 2
    assert cg(A, np.ones(4), max_iter=1).iterations == 1


def test_cg_breakdown_returns_no_iterate_worse_than_the_start():
    # the first iterate has a scaled residual of 3.25, worse than x = 0
    res = cg(sp.diags([1.0, -1.0, 2.0, 3.0]).tocsr(), np.ones(4))
    assert res.residual <= 1.0


def test_symmetry_check_holds_its_margin_exactly():
    # max|A| = 1, so the tolerance is 1e-12 exactly: an asymmetry of 1e-12
    # passes, and one of the next float above it fails
    def with_asymmetry(d):
        return sp.csr_matrix(np.array([[1.0, d, 0.0], [0.0, 1.0, 0.5], [0.0, 0.5, 1.0]]))

    assert _is_symmetric(with_asymmetry(1e-12))
    worse = with_asymmetry(np.nextafter(1e-12, 1.0))
    assert not _is_symmetric(worse)
    with pytest.raises(AsymmetricInput):
        cg(worse, np.ones(3))
    assert _is_symmetric(sp.csr_matrix((3, 3)))


def test_symmetry_check_on_a_symmetric_pattern_holds_its_margin_exactly():
    # every entry stored, so the check compares the data with itself at the
    # transposed positions; the margin is the same as through A - A^T
    def with_asymmetry(d, at):
        A = np.full((4, 4), 0.25)
        np.fill_diagonal(A, 1.0)
        A[at], A[at[::-1]] = d, 0.0          # the zero stays stored
        return sp.csr_matrix((A.ravel(), np.tile(np.arange(4), 4), np.arange(0, 17, 4)))

    for at in ((0, 1), (3, 2), (1, 3)):
        assert _is_symmetric(with_asymmetry(1e-12, at))
        assert not _is_symmetric(with_asymmetry(np.nextafter(1e-12, 1.0), at))
        assert not _is_symmetric(with_asymmetry(-np.nextafter(1e-12, 1.0), at))


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
    from ppife.assembly import MethodParams
    from ppife.harness import RunConfig, build_context

    cfg = RunConfig(N=(20,), schemes=("spp",))
    ctx = build_context(cfg, 20)
    for scheme, solver in (("spp", cg), ("npp", bicgstab)):
        A_ff, rhs = ctx.split.system(MethodParams.preset(scheme, ctx.cuts)).reduced()
        res = solver(A_ff, rhs, tol_rel=1e-12)
        assert res.converged
        assert res.residual <= 1e-12


def test_cg_bicgstab_energy_agreement():
    from ppife.assembly import MethodParams
    from ppife.harness import RunConfig, build_context

    cfg = RunConfig(N=(10,), schemes=("spp",))
    ctx = build_context(cfg, 10)
    A_ff, rhs = ctx.split.system(MethodParams.preset("spp", ctx.cuts)).reduced()
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
    """Reduced system of a scheme and the positions in it of the block that
    solve_scheme passes (CaseContext.interface_block); shared by the tests,
    so every array is read-only."""
    from ppife.assembly import MethodParams

    cfg, ctx = _context(mesh, N, beta_plus)
    A_ff, rhs = ctx.split.system(MethodParams.preset(scheme, ctx.cuts)).reduced()
    block = ctx.interface_block
    _read_only(A_ff.data, A_ff.indices, A_ff.indptr, rhs, block)
    return A_ff, rhs, block


def _reduced_system(mesh, N, beta_plus, scheme):
    return _blocked_system(mesh, N, beta_plus, scheme)[:2]


def _shared_preconditioner(mesh, N, beta_plus, scheme, block=True):
    """A scheme's matrix scaled by D_vol, the Jacobi diagonal of its
    context's A_vol, and the V-cycle of the context's hierarchy with the
    scheme matrix at level 0 and solve_scheme's block, as the solvers form
    them."""
    A, b, ids = _blocked_system(mesh, N, beta_plus, scheme)
    H = _context(mesh, N, beta_plus)[1].hierarchy
    As = _scaled(A, b, H.scale)[0]
    return As, H.preconditioner(As, ids if block else ())


@pytest.mark.parametrize("solver, scheme, amg", [(cg, "spp", False), (cg, "spp", True),
                                                  (bicgstab, "npp", True)])
def test_start_vector_is_unscaled_and_none_is_the_zero_start(solver, scheme, amg):
    # x0 is a free-node solution, not a scaled one: from splu's solution a
    # solve stops after at most one iteration; x0=None and an explicit zero
    # start give the same iterate bit for bit
    A, b, block = _blocked_system("rect", 40, 1e4, scheme)
    H = _context("rect", 40, 1e4)[1].hierarchy if amg else None
    none = solver(A, b, block=block, hierarchy=H, x0=None)
    zero = solver(A, b, block=block, hierarchy=H, x0=np.zeros(len(b)))
    assert none.converged and none.iterations == zero.iterations > 1
    assert np.array_equal(none.x, zero.x)
    warm = solver(A, b, block=block, hierarchy=H, x0=spla.splu(A.tocsc()).solve(b))
    assert warm.converged and warm.iterations <= 1, warm.iterations


def _poisson(m):
    # 5-point Laplacian on an m x m grid of interior nodes
    T = _tridiag(m)
    return (sp.kron(T, sp.eye(m)) + sp.kron(sp.eye(m), T)).tocsr()


def _grid_aggregates(m, kind):
    """The lattice aggregates of the m x m interior nodes of a `kind` mesh of
    [-1, 1]^2 cut by a circle, in the node order of `_poisson(m)`."""
    mesh = build_mesh(DomainSpec(-1, 1, -1, 1, m + 1, kind))
    return lattice_aggregates(mesh, circle(0.1, -0.2, 0.55))


def _lattice_hierarchy(mesh, N, beta_plus, A):
    """A hierarchy of A itself on the lattice aggregates of its context."""
    ctx = _context(mesh, N, beta_plus)[1]
    return SAHierarchy(A, lattice_aggregates(ctx.mesh, ctx.iface))


def _solve_on(solver, H, A, b, block=()):
    """solver(A, b) preconditioned by the V-cycle of H, checked to have run
    all of H, so that no ceiling passes on an exact solve."""
    res = solver(A, b, block=block, hierarchy=H)
    assert H.levels and res.amg_levels == len(H.levels) + 1
    return res


def test_bicgstab_is_deterministic():
    # each solve builds its own hierarchy
    A, b = _reduced_system("rect", 40, 1e4, "npp")
    first, second = (bicgstab(A, b, hierarchy=_lattice_hierarchy("rect", 40, 1e4, A))
                     for _ in range(2))
    depth = len(_lattice_hierarchy("rect", 40, 1e4, A).levels) + 1
    assert first.converged and first.amg_levels == second.amg_levels == depth >= 2
    assert first.iterations == second.iterations
    assert np.array_equal(first.x, second.x)


@pytest.mark.parametrize("mesh", ["rect", "tri"])
@pytest.mark.parametrize("beta_plus", [10.0, 1e4])
def test_nonsymmetric_schemes_agree_with_direct_solve(mesh, beta_plus):
    for scheme in ("ipp", "npp"):
        A, b = _reduced_system(mesh, 80, beta_plus, scheme)
        res = _solve_on(bicgstab, _lattice_hierarchy(mesh, 80, beta_plus, A), A, b)
        assert res.converged and res.restarts == 0
        x_direct = spla.splu(A.tocsc()).solve(b)
        assert np.linalg.norm(res.x - x_direct) <= 1e-9 * np.linalg.norm(x_direct)


def test_bicgstab_iterations_grow_slowly_with_N():
    # high contrast on rect, where Jacobi-BiCGSTAB iterations grow about linearly
    def solve(N, scheme):
        A, b = _reduced_system("rect", N, 1e4, scheme)
        return _solve_on(bicgstab, _lattice_hierarchy("rect", N, 1e4, A), A, b)

    for scheme in ("ipp", "npp"):
        coarse, fine = solve(40, scheme), solve(160, scheme)
        assert coarse.converged and fine.converged
        assert fine.iterations <= 1.5 * coarse.iterations, scheme


def test_small_system_is_solved_by_the_coarse_factorization():
    # a hierarchy of A itself has no levels at the coarse size: its V-cycle
    # is an exact solve; without a hierarchy no V-cycle runs
    A, b = _reduced_system("rect", 20, 1e4, "npp")
    assert A.shape[0] <= COARSE_SIZE
    H = SAHierarchy(A, ())
    assert H.levels == []
    res = bicgstab(A, b, hierarchy=H)
    assert res.converged and res.iterations == 1 and res.amg_levels == 1
    res = bicgstab(A, b)
    assert res.converged and res.amg_levels == 0


def test_sa_hierarchy_coarsens_to_the_coarse_size():
    A = _poisson(60)
    H = SAHierarchy(A, _grid_aggregates(60, "rect"))
    sizes = [P.shape[0] for _, P, _ in H.levels] + [H.coarse.shape[0]]
    assert sizes[0] == 3600 and sizes[-1] <= COARSE_SIZE
    assert all(c < f / 4 for f, c in zip(sizes, sizes[1:]))
    # every prolongator column is used and the V-cycle reduces the error
    for _, P, coarse in H.levels:
        assert np.all(np.diff(P.tocsc().indptr) > 0)
        assert coarse.shape == (P.shape[1],) * 2
    As = _scaled(A, np.zeros(3600), H.scale)[0]
    M = H.preconditioner(As, ())
    e = np.random.default_rng(5).standard_normal(3600)
    e0 = np.linalg.norm(e)
    for _ in range(10):
        e -= M(As @ e)
    assert np.linalg.norm(e) < 1e-3 * e0


def test_interface_block_damps_the_slow_mode():
    # at high contrast the error that Jacobi sweeps and aggregates miss sits
    # on the nodes of the cut elements and where the edge terms part the
    # scheme matrix from A_vol: with the block, the shared V-cycle reduces
    # it a thousandfold in 30 steps; without, it does not
    for scheme in ("spp", "ipp", "npp"):
        for block in (True, False):
            As, M = _shared_preconditioner("rect", 80, 1e4, scheme, block)
            e = np.random.default_rng(11).standard_normal(As.shape[0])
            e0 = np.linalg.norm(e)
            for _ in range(30):
                e -= M(As @ e)
            assert (np.linalg.norm(e) < 1e-3 * e0) == block, (scheme, block)


@pytest.mark.parametrize("mesh", ["rect", "tri"])
@pytest.mark.parametrize("beta_plus", [10.0, 1e4])
def test_blocked_bicgstab_iteration_ceiling(mesh, beta_plus):
    for scheme in ("ipp", "npp"):
        A, b, block = _blocked_system(mesh, 160, beta_plus, scheme)
        res = _solve_on(bicgstab, _lattice_hierarchy(mesh, 160, beta_plus, A), A, b, block)
        assert res.converged and res.restarts == 0, scheme
        assert res.iterations <= 30, (scheme, res.iterations)


def test_block_solve_is_exact_and_optional():
    # the last step solves the block's rows exactly, so they hold for the
    # preconditioned vector; an empty block leaves the plain V-cycle, and at
    # the coarse size a hierarchy of the system itself solves it exactly,
    # with its block or with the solvers' default, none
    A, b, block = _blocked_system("rect", 40, 1e4, "npp")
    H = _context("rect", 40, 1e4)[1].hierarchy
    As, bs, _ = _scaled(A, b, H.scale)
    v = np.random.default_rng(2).standard_normal(len(bs))
    x = H.preconditioner(As, block)(v)
    assert np.allclose((As @ x)[block], v[block], rtol=0, atol=1e-10 * np.abs(v).max())
    assert not np.allclose((As @ x)[1:5], v[1:5])       # far from the block: not
    plain = H.preconditioner(As, ())(v)
    assert np.array_equal(H.preconditioner(As, np.array([], dtype=int))(v), plain)
    small, small_b, small_block = _blocked_system("rect", 20, 1e4, "npp")
    for given in ({"block": small_block}, {}):
        res = bicgstab(small, small_b, hierarchy=SAHierarchy(small, ()), **given)
        assert res.converged and res.iterations == 1 and res.amg_levels == 1
    res = bicgstab(small, small_b, block=small_block)
    assert res.converged and res.amg_levels == 0


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
    # the scaled K, D^-1/2 K D^-1/2, has the null vector D^1/2 1, which is
    # the candidate. When the tentative prolongators carry it, every coarse
    # matrix inherits a null vector. S K S, for S a random diagonal, has the
    # same scaled matrix but the null vector D^1/2 S^-1 1, which its
    # candidate D^1/2 S 1 misses: its coarse matrices stay clearly
    # nonsingular
    K = _weighted_laplacian(60, 3)
    S = sp.diags(np.exp(np.random.default_rng(4).uniform(-1.0, 1.0, K.shape[0])))
    for A, singular in ((K, True), ((S @ K @ S).tocsr(), False)):
        H = SAHierarchy(A, _grid_aggregates(60, "tri"))
        coarse = [lvl[2] for lvl in H.levels]
        assert len(coarse) >= 2 and coarse[-1] is H.coarse
        for C in coarse:
            ev = np.abs(np.linalg.eigvalsh(C.toarray()))
            assert (ev.min() < 1e-12 * ev.max()) == singular, (singular, C.shape)


def test_coarse_level_is_solved_exactly():
    # a banded LU at the coarse size, and also where coarsening stops above
    # it (a hierarchy without aggregates has no levels)
    rng = np.random.default_rng(4)
    for A, aggregates in ((_poisson(60), _grid_aggregates(60, "rect")),
                          (sp.diags(rng.uniform(1.0, 2.0, COARSE_SIZE + 100)).tocsr(), ())):
        M = SAHierarchy(A, aggregates)
        v = rng.standard_normal(M.coarse.shape[0])
        x = M.coarse_solve(v)
        assert np.linalg.norm(M.coarse @ x - v) <= 1e-12 * np.linalg.norm(v)
        assert (M.coarse.shape[0] <= COARSE_SIZE) == bool(M.levels)
    assert M.levels == [] and M.coarse.shape[0] > COARSE_SIZE


def test_singular_coarse_level_is_a_ppife_error():
    # the coarsest matrix's banded LU fails: the error names its size
    with pytest.raises(PpifeError, match=r"\b3 unknowns"):
        SAHierarchy(sp.diags([1.0, 0.0, 2.0]).tocsr(), ())


def test_given_aggregates_define_every_level():
    # level k coarsens to the count of the k-th pair, and its prolongator
    # reaches every unknown from its own aggregate; a pair that does not fit
    # its level is an error, and the pairs past the coarse size go unread
    A = _reduced_system("tri", 80, 1e4, "spp")[0]
    ctx = _context("tri", 80, 1e4)[1]
    aggregates = lattice_aggregates(ctx.mesh, ctx.iface)
    H = SAHierarchy(A, aggregates)
    assert len(H.levels) >= 2 and H.coarse.shape[0] <= COARSE_SIZE
    n = A.shape[0]
    for (agg, n_coarse), (_, P, coarse) in zip(aggregates, H.levels):
        assert P.shape == (len(agg), n_coarse) == (n, coarse.shape[0])
        assert np.asarray(P[np.arange(n), agg]).all()
        n = n_coarse
    assert len(aggregates) > len(H.levels)
    for k in range(len(H.levels)):
        bad = list(aggregates)
        bad[k] = (bad[k][0][1:], bad[k][1])
        with pytest.raises(ValueError):
            SAHierarchy(A, bad)
    small = _reduced_system("tri", 20, 1e4, "spp")[0]
    assert SAHierarchy(small, aggregates).levels == []


@pytest.mark.parametrize("mesh", ["rect", "tri"])
@pytest.mark.parametrize("beta_plus", [10.0, 1e4])
def test_preconditioned_cg_iteration_ceiling(mesh, beta_plus):
    # Jacobi-CG needs 320-475 iterations on these systems
    for scheme in ("classic", "spp"):
        A, b, block = _blocked_system(mesh, 160, beta_plus, scheme)
        res = _solve_on(cg, _lattice_hierarchy(mesh, 160, beta_plus, A), A, b, block)
        assert res.converged, scheme
        assert res.iterations <= 30, (scheme, res.iterations)
        x_direct = spla.splu(A.tocsc()).solve(b)
        assert np.linalg.norm(res.x - x_direct) <= 1e-10 * np.linalg.norm(x_direct), scheme


def test_cg_preconditioner_is_symmetric_and_positive():
    # the shared hierarchy's V-cycle with the SPP matrix at level 0
    As, M = _shared_preconditioner("rect", 80, 1e4, "spp")
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
        return _solve_on(cg, _lattice_hierarchy("rect", N, 1e4, A), A, b, block)

    coarse, fine = solve(160), solve(320)
    assert coarse.converged and fine.converged
    assert fine.iterations <= 1.5 * coarse.iterations, (coarse.iterations, fine.iterations)


# the iteration table of ROADMAP at N=160 (classic, SPP, IPP, NPP), made by
# solve_scheme with the context's hierarchy on lattice aggregates at every
# level, the four schemes in this order on one context: classic starts from
# zero, each later scheme from the solution before it; a solve may take at
# most 2 iterations more
ITERATION_TABLE = {("rect", 10.0): (10, 6, 3, 3), ("rect", 1e4): (17, 11, 6, 6),
                   ("tri", 10.0): (10, 6, 4, 3), ("tri", 1e4): (14, 11, 6, 6)}
ALL_SCHEMES = ("classic", "spp", "ipp", "npp")


@pytest.mark.parametrize("mesh", ["rect", "tri"])
@pytest.mark.parametrize("beta_plus", [10.0, 1e4])
def test_solve_scheme_iterations_within_the_table(mesh, beta_plus):
    # the production path: solve_scheme, its interface block and the
    # context's hierarchy
    from ppife.harness import solve_scheme

    cfg, ctx = _context(mesh, 160, beta_plus)
    ctx.start = None                # the cached context's first scheme starts from zero
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
        ctx.start = None
        return [solve_scheme(ctx, cfg, scheme)[0].iterations for scheme in ALL_SCHEMES]

    for scheme, coarse, fine in zip(ALL_SCHEMES, iterations(160), iterations(320)):
        assert fine <= 1.5 * coarse, (scheme, coarse, fine)


def test_tri_npp_at_n320_takes_at_most_seven_iterations():
    # a case at the edge of the tolerance, where weaker coarse levels under
    # the shared level 0 cost NPP two more iterations (9) than a hierarchy
    # of the NPP matrix itself; lattice boxes on every level take 6
    from ppife.harness import solve_scheme

    cfg, ctx = _context("tri", 320, 10.0)
    rec = solve_scheme(ctx, cfg, "npp")[0]
    assert rec.residual <= cfg.solver_tol and rec.iterations <= 7, rec.iterations


def test_linsolve_imports_nothing_from_geometry():
    # the aggregates come in as arrays: the solvers know no mesh
    names = []
    for node in ast.walk(ast.parse(inspect.getsource(linsolve))):
        if isinstance(node, ast.ImportFrom):
            names.append(node.module or "")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names += [alias.name for alias in node.names]
    assert names and not [name for name in names if "geometry" in name.split(".")]


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
