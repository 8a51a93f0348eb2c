import numpy as np
import pytest

from oracles import (classify_cuts, classify_edges, convergence_rates, interface_jump_residuals,
                     oracle_bases, reference_error_norms)
from ppife.assembly import (DATA_DEGREE, MethodParams, assemble_edge_terms, bulk_rules,
                            cut_data_rules, edge_traces)
from ppife.geometry import (DomainSpec, build_mesh, bulk_sweep, circle, classify_elements,
                            cut_sweep, interface_edges)
from ppife.harness import RunConfig, build_context, solve_scheme
from ppife.local_basis import build_bases
from ppife.postprocess import (PiecewiseSolution, error_norms, interpolate_nodal,
                               markdown_error_table, radial_interface_solution, record_csv_rows,
                               RunRecord)

R0 = np.pi / 6.28


def _setup(N, kind="rect", betas=(1.0, 10.0), alpha=1.0):
    mesh = build_mesh(DomainSpec(-1, 1, -1, 1, N, kind))
    iface = circle(0.0, 0.0, R0)
    status, cuts = classify_elements(mesh, iface)
    cuts = build_bases(cuts, *betas)
    traces = assemble_edge_terms(mesh, interface_edges(mesh, cuts), status, cuts, alpha)[2]
    sol = radial_interface_solution(*betas)
    return mesh, iface, status, cuts, traces, sol


CLASSIC = 0.0       # the classic scheme's sigma0: no penalty jumps


@pytest.mark.parametrize("betas", [(1.0, 10.0), (1.0, 10000.0), (10.0, 1.0)])
def test_manufactured_solution_jump_conditions(betas):
    sol = radial_interface_solution(*betas)
    config = RunConfig(interface_params=(0.0, 0.0, R0), beta_minus=betas[0], beta_plus=betas[1])
    ju, jf = interface_jump_residuals(sol, config, n_samples=360)
    assert ju < 1e-10
    assert jf < 1e-10


def test_manufactured_source_matches_divergence_oracle():
    # f = -div(beta grad u) checked by central differences on both branches
    sol = radial_interface_solution(1.0, 10.0)
    rng = np.random.default_rng(4)
    h = 1e-5
    for _ in range(40):
        x, y = rng.uniform(0.05, 0.9, size=2)
        r = np.hypot(x, y)
        if abs(r - R0) < 0.05 or r < 0.1:
            continue
        beta = 1.0 if r < R0 else 10.0
        u = sol.u_minus if r < R0 else sol.u_plus
        lap = (u(x + h, y) + u(x - h, y) + u(x, y + h) + u(x, y - h) - 4 * u(x, y)) / h ** 2
        f = sol.f_minus(x, y) if r < R0 else sol.f_plus(x, y)
        assert f == pytest.approx(-beta * lap, rel=2e-5, abs=1e-6)


def test_gradient_matches_fd_oracle():
    sol = radial_interface_solution(1.0, 10.0)
    rng = np.random.default_rng(5)
    eps = 1e-7
    for _ in range(20):
        x, y = rng.uniform(0.1, 0.9, size=2)
        for u, g in ((sol.u_minus, sol.grad_minus), (sol.u_plus, sol.grad_plus)):
            gx, gy = g(x, y)
            fx = (u(x + eps, y) - u(x - eps, y)) / (2 * eps)
            fy = (u(x, y + eps) - u(x, y - eps)) / (2 * eps)
            assert gx == pytest.approx(fx, rel=1e-7, abs=1e-9)
            assert gy == pytest.approx(fy, rel=1e-7, abs=1e-9)


@pytest.mark.parametrize("kind", ["rect", "tri"])
def test_norms_vanish_for_reproduced_linear(kind):
    mesh, iface, status, cuts, traces, _ = _setup(6, kind=kind, betas=(2.0, 2.0))
    lin = lambda x, y: 0.5 + 1.5 * np.asarray(x) - 0.25 * np.asarray(y)
    grad = lambda x, y: (1.5 * np.ones_like(np.asarray(x)), -0.25 * np.ones_like(np.asarray(x)))
    zero = lambda x, y: np.zeros_like(np.asarray(x, float))
    sol = PiecewiseSolution(lin, lin, grad, grad, zero, zero)
    coeffs = lin(mesh.nodes[:, 0], mesh.nodes[:, 1])
    err = error_norms(mesh, status, cuts, coeffs, sol, iface, traces, CLASSIC,
                      cut_data_rules(cuts, iface))
    for norm in ("l2", "h1", "linf", "energy"):
        assert err[norm] < 1e-12


def test_norms_are_nonnegative_and_detect_error():
    mesh, iface, status, cuts, traces, sol = _setup(8)
    coeffs = interpolate_nodal(mesh, sol, iface)
    err = error_norms(mesh, status, cuts, coeffs, sol, iface, traces, CLASSIC,
                      cut_data_rules(cuts, iface))
    for norm in ("l2", "h1", "linf", "energy"):
        assert err[norm] > 0


@pytest.mark.parametrize("N", [8, 16, 64])
@pytest.mark.parametrize("beta_plus", [10.0, 1e4])
@pytest.mark.parametrize("kind", ["rect", "tri"])
def test_error_norms_equal_per_norm_reference(kind, beta_plus, N):
    # the fused, stacked sweep keeps the per-norm summation order, block by
    # block over the standard elements and element by element over the cut
    # ones, so equality is exact; the reference walks the per-element
    # classification and bases. At N=64 each cell variant's standard
    # elements span two blocks. Classic exercises the sigma0 = 0 skip of the
    # penalty jumps
    mesh, iface, status, cuts, traces, sol = _setup(N, kind=kind, betas=(1.0, beta_plus))
    tables = bulk_rules(mesh, DATA_DEGREE)
    blocks = sum(1 for _ in bulk_sweep(mesh, status, iface, tables))
    assert blocks == (len(tables) if N < 64 else 2 * len(tables))
    o_cuts = classify_cuts(mesh, iface)[1]
    o_bases = oracle_bases(mesh, o_cuts, 1.0, beta_plus)
    rules = cut_data_rules(cuts, iface)
    rng = np.random.default_rng(N)
    coeffs = interpolate_nodal(mesh, sol, iface) + 1e-3 * rng.standard_normal(mesh.n_nodes)
    for scheme in ("classic", "spp", "npp"):
        sigma0 = MethodParams.preset(scheme, cuts).sigma0
        fused = error_norms(mesh, status, cuts, coeffs, sol, iface, traces, sigma0, rules)
        assert fused == reference_error_norms(mesh, status, o_cuts, o_bases, coeffs, sol, iface,
                                              classify_edges(mesh, status), sigma0, 1.0,
                                              (1.0, beta_plus))


@pytest.mark.parametrize("kind", ["rect", "tri"])
def test_error_norms_at_penalty_exponent_two(kind):
    # the penalty jumps weighted by sigma0 / |B|^2, with alpha read from the
    # traces, against the per-norm reference given alpha = 2 explicitly
    mesh, iface, status, cuts, traces, sol = _setup(16, kind=kind, alpha=2.0)
    assert traces.alpha == 2.0
    o_cuts = classify_cuts(mesh, iface)[1]
    o_bases = oracle_bases(mesh, o_cuts, 1.0, 10.0)
    rules = cut_data_rules(cuts, iface)
    rng = np.random.default_rng(16)
    coeffs = interpolate_nodal(mesh, sol, iface) + 1e-3 * rng.standard_normal(mesh.n_nodes)
    one = _setup(16, kind=kind)[4]
    for scheme in ("spp", "npp"):
        sigma0 = MethodParams.preset(scheme, cuts).sigma0
        fused = error_norms(mesh, status, cuts, coeffs, sol, iface, traces, sigma0, rules)
        assert fused == reference_error_norms(mesh, status, o_cuts, o_bases, coeffs, sol, iface,
                                              classify_edges(mesh, status), sigma0, 2.0,
                                              (1.0, 10.0))
        # edges shorter than 1 weigh their jumps 1 / |B| times more than at alpha = 1
        assert fused["energy"] > error_norms(mesh, status, cuts, coeffs, sol, iface, one, sigma0,
                                             rules)["energy"]


def test_error_norms_read_beta_from_the_cut_set():
    # an exact solution carries no beta: a PiecewiseSolution of the same
    # callables gets the context's norms bit for bit, weighted by the beta
    # pair the bases were built for
    config = RunConfig(N=(8,), beta_plus=10.0, schemes=("spp",))
    ctx = build_context(config, 8)
    rec, coeffs, _ = solve_scheme(ctx, config, "spp")
    s = ctx.sol
    plain = PiecewiseSolution(s.u_minus, s.u_plus, s.grad_minus, s.grad_plus, s.f_minus, s.f_plus)
    err = error_norms(ctx.mesh, ctx.status, ctx.cuts, coeffs, plain, ctx.iface, ctx.traces,
                      MethodParams.preset("spp", ctx.cuts).sigma0, ctx.rules)
    assert (err["l2"], err["h1"], err["linf"], err["energy"]) == (
        rec.e_l2, rec.e_h1, rec.e_linf, rec.e_energy)


def test_interpolation_rates():
    # nodal interpolant: rate 2 in L2 and rate 1 in the broken H1 seminorm
    iface = circle(0.0, 0.0, R0)
    sol = radial_interface_solution(1.0, 10.0)
    l2s, h1s = [], []
    for N in (20, 40, 80, 160, 320):
        mesh = build_mesh(DomainSpec(-1, 1, -1, 1, N, "rect"))
        status, cuts = classify_elements(mesh, iface)
        cuts = build_bases(cuts, 1.0, 10.0)
        traces = edge_traces(mesh, interface_edges(mesh, cuts), status, cuts)
        coeffs = interpolate_nodal(mesh, sol, iface)
        err = error_norms(mesh, status, cuts, coeffs, sol, iface, traces, CLASSIC,
                          cut_data_rules(cuts, iface))
        l2s.append((N, err["l2"]))
        h1s.append((N, err["h1"]))
    for r in convergence_rates(l2s):
        assert 1.8 <= r <= 2.2
    for r in convergence_rates(h1s):
        assert 0.85 <= r <= 1.15


def test_quadrature_depth_self_convergence():
    mesh, iface, status, cuts, traces, sol = _setup(20)
    coeffs = interpolate_nodal(mesh, sol, iface)
    # the context's rules refine each fan triangle once; these twice
    twice = [(side, rows, pts, wts, np.asarray(iface.phi(pts[..., 0], pts[..., 1])) < 0)
             for side, rows, pts, wts in cut_sweep(cuts, DATA_DEGREE, 2)]
    a = error_norms(mesh, status, cuts, coeffs, sol, iface, traces, CLASSIC,
                    cut_data_rules(cuts, iface))
    b = error_norms(mesh, status, cuts, coeffs, sol, iface, traces, CLASSIC, twice)
    for norm in ("l2", "h1"):
        assert abs(a[norm] - b[norm]) / a[norm] < 1e-3  # three significant digits


def test_energy_error_includes_jumps():
    mesh, iface, status, cuts, traces, sol = _setup(8)
    sigma0 = MethodParams.preset("spp", cuts).sigma0
    coeffs = interpolate_nodal(mesh, sol, iface)
    rules = cut_data_rules(cuts, iface)
    e_pen = error_norms(mesh, status, cuts, coeffs, sol, iface, traces, sigma0, rules)["energy"]
    e_nopen = error_norms(mesh, status, cuts, coeffs, sol, iface, traces, CLASSIC,
                          rules)["energy"]
    assert e_pen >= e_nopen > 0


def test_convergence_rates_basic():
    assert convergence_rates([(10, 0.4), (20, 0.2)]) == [pytest.approx(1.0)]
    with pytest.raises(ValueError):
        convergence_rates([(10, 0.4), (30, 0.2)])


def test_convergence_rates_table_arithmetic():
    # rate arithmetic on reference error pairs; the references carry 5
    # significant digits, so rates recomputed from them match the quoted
    # 4-decimal rates only to about one unit in the last place
    r = convergence_rates([(20, 6.4751e-2), (40, 3.2650e-2)])[0]
    assert r == pytest.approx(0.9878, abs=2e-4)
    r = convergence_rates([(40, 1.0626e-3), (80, 2.6440e-4)])[0]
    assert r == pytest.approx(2.0067, abs=2e-4)


def test_record_csv_layout():
    rec = RunRecord("spp", "rect", 20, 0.1, 1.0, 10.0, 1e-3, 1e-2, 1e-3, 1e-1,
                    42, 1e-13, 441, 44)
    text = record_csv_rows([rec])
    lines = text.strip().splitlines()
    assert lines[0].startswith("scheme,mesh,N,h")
    assert lines[1].split(",")[0] == "spp"
    assert len(lines[1].split(",")) == len(lines[0].split(","))
    # deterministic formatting
    assert record_csv_rows([rec]) == text


def test_markdown_table_layout():
    recs = [RunRecord("spp", "rect", N, 2.0 / N, 1.0, 10.0, 1e-3 / (N / 20) ** 2,
                      1e-1 / (N / 20), 1e-3, 1e-1, 1, 1e-13, 0, 0)
            for N in (20, 40, 80)]
    table = markdown_error_table(recs, "l2", ["spp"])
    lines = table.strip().splitlines()
    assert lines[0].startswith("| N |")
    assert len(lines) == 5
    assert "2.0000" in lines[3]  # the rate column


def test_tri_mesh_solution_rates():
    # end-to-end linear elements: optimal orders on the triangular pipeline
    from ppife.harness import build_context, solve_scheme
    cfg = RunConfig(N=(20,), schemes=("spp",), mesh="tri")
    l2s, h1s = [], []
    for N in (20, 40, 80):
        ctx = build_context(cfg, N)
        rec, _, _ = solve_scheme(ctx, cfg, "spp")
        l2s.append((N, rec.e_l2))
        h1s.append((N, rec.e_h1))
    for r in convergence_rates(l2s):
        assert 1.85 <= r <= 2.15
    for r in convergence_rates(h1s):
        assert 0.9 <= r <= 1.1


def test_one_sided_branches_return_fresh_float_arrays():
    # a branch that takes x and y whole may return a scalar or an int; the
    # caller still gets writable float arrays of the points' shape, as the
    # per-side scatter gives them
    sol = PiecewiseSolution(lambda x, y: 2, lambda x, y: x + y,
                            lambda x, y: (0.0, np.asarray(y)), lambda x, y: (x, y),
                            lambda x, y: 1, lambda x, y: 3.0)
    x, y = np.linspace(0.0, 1.0, 6).reshape(2, 3), np.ones((2, 3))
    for minus in (np.ones((2, 3), bool), np.zeros((2, 3), bool), np.eye(2, 3, dtype=bool)):
        u, f, (gx, gy) = sol.u(x, y, minus), sol.f(x, y, minus), sol.grad(x, y, minus)
        for v in (u, f, gx, gy):
            assert v.shape == (2, 3) and v.dtype == np.float64 and v.flags.writeable
        assert np.array_equal(u, np.where(minus, 2.0, x + y))
        assert np.array_equal(f, np.where(minus, 1.0, 3.0))
        assert np.array_equal(gx, np.where(minus, 0.0, x))
        u[0, 0] = -1.0
