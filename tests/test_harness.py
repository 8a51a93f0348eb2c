import dataclasses
import math
import os

import numpy as np
import pytest
import scipy.io
import scipy.sparse.linalg

from oracles import full_mesh, standard_basis, template_name
from ppife import verify
from ppife.cli import build_parser, main
from ppife.errors import ConfigError, NotConverged
from ppife.assembly import MethodParams, assemble_edge_terms
from ppife.geometry import INTERFACE
from ppife.harness import (AMG_CG_DOFS, CONFIG_TYPES, RunConfig, _parse_number, build_context,
                           cmd_convergence, cmd_solve, cmd_verify, evaluate_solution,
                           load_config, pointwise_error_field, solve_scheme)


def test_parse_number_pi_fractions():
    assert _parse_number("0.5") == 0.5
    assert _parse_number("pi/6.28") == math.pi / 6.28
    assert _parse_number("2*pi") == 2 * math.pi
    assert _parse_number("-pi/2") == -math.pi / 2
    for bad in ("two", "pi*2", "pi/0", "pi.__class__", "().__class__.__base__", "9**9**9*pi"):
        with pytest.raises(ConfigError):
            _parse_number(bad)


def test_load_config_file_and_overrides(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "mesh = rect\n"
        "N = 4, 8\n"
        "schemes = spp, npp\n"
        "beta_plus = 100\n"
        "interface_params = 0, 0, pi/6.28\n"
        "solver_tol = 1e-10\n")
    cfg = load_config(str(cfg_file))
    assert cfg.N == (4, 8)
    assert cfg.schemes == ("spp", "npp")
    assert cfg.beta_plus == 100.0
    assert cfg.solver_tol == 1e-10
    assert cfg.interface_params[2] == pytest.approx(math.pi / 6.28)
    cfg2 = load_config(str(cfg_file), overrides={"beta_plus": "10", "seed": "3"})
    assert cfg2.beta_plus == 10.0
    assert cfg2.seed == 3


def test_load_config_rejects_unknown_key(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("meshes = rect\n")
    with pytest.raises(ConfigError):
        load_config(str(bad))
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.cfg"))


def test_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(schemes=()).validate()
    with pytest.raises(ConfigError):
        RunConfig(schemes=("sipg",)).validate()
    with pytest.raises(ConfigError):
        RunConfig(beta_minus=-1.0).validate()
    with pytest.raises(ConfigError):
        RunConfig(N=(4, 12)).validate(doubling=True)
    RunConfig(N=(4, 8, 16)).validate(doubling=True)


def test_verify_refuses_empty_scan_betas(tmp_path):
    # the coercivity scan brackets its penalty on the first beta pair
    with pytest.raises(ConfigError, match="scan_betas"):
        cmd_verify(RunConfig(scan_betas=(), out=str(tmp_path / "v")))
    assert not (tmp_path / "v").exists()


def test_cmd_solve_outputs(tmp_path):
    cfg = RunConfig(N=(8,), schemes=("spp",), out=str(tmp_path), dump_field=True,
                    field_grid=17, dump_matrix=True, dump_mesh=True)
    records = cmd_solve(cfg)
    assert len(records) == 1
    assert (tmp_path / "runs.csv").exists()
    timings = (tmp_path / "timings.csv").read_text().splitlines()
    assert timings[0] == "label,seconds,max_rss_mb"
    assert [row.split(",")[0] for row in timings[1:]] == ["context_N8", "solve_spp_N8"]
    assert (tmp_path / "field_spp_N8.csv").exists()
    assert (tmp_path / "mesh_N8.txt").exists()
    field = (tmp_path / "field_spp_N8.csv").read_text().strip().splitlines()
    assert field[0] == "x,y,abs_error"
    assert len(field) == 1 + 17 * 17
    # the dump is the free-node matrix the solver gets, entry for entry
    dumped = scipy.io.mmread(tmp_path / "system_spp_N8.mtx").tocsr()
    dumped.sort_indices()
    A = solve_scheme(build_context(cfg, 8), cfg, "spp")[2].A
    assert dumped.shape == A.shape == (7 * 7, 7 * 7)
    for got, ref in ((dumped.indptr, A.indptr), (dumped.indices, A.indices),
                     (dumped.data, A.data)):
        assert np.array_equal(got, ref)


def test_cmd_convergence_outputs_and_determinism(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    base = dict(N=(4, 8, 16), schemes=("spp", "classic"), solver_tol=1e-12)
    cmd_convergence(RunConfig(out=str(out1), **base))
    cmd_convergence(RunConfig(out=str(out2), **base))
    runs1 = (out1 / "runs.csv").read_bytes()
    runs2 = (out2 / "runs.csv").read_bytes()
    assert runs1 == runs2  # bit-identical, timings live in the sidecar file
    for norm in ("l2", "h1", "linf", "energy"):
        t1 = (out1 / f"table_{norm}.md").read_bytes()
        t2 = (out2 / f"table_{norm}.md").read_bytes()
        assert t1 == t2
    header = runs1.decode().splitlines()[0]
    assert header.startswith("scheme,mesh,N,h,beta_minus,beta_plus,e_l2")
    assert len(runs1.decode().strip().splitlines()) == 1 + 6


def test_cmd_convergence_requires_three_meshes(tmp_path):
    with pytest.raises(ConfigError):
        cmd_convergence(RunConfig(N=(4, 8), out=str(tmp_path)))


def test_evaluate_solution_reproduces_nodal_field():
    for kind in ("rect", "tri"):
        cfg = RunConfig(N=(8,), schemes=("spp",), mesh=kind)
        ctx = build_context(cfg, 8)
        rng = np.random.default_rng(0)
        coeffs = rng.standard_normal(ctx.mesh.n_nodes)
        vals = evaluate_solution(ctx.mesh, ctx.status, ctx.cuts, coeffs, full_mesh(ctx.mesh).nodes)
        assert np.abs(vals - coeffs).max() < 1e-11


@pytest.mark.parametrize("kind", ["rect", "tri"])
def test_evaluate_solution_matches_standard_basis_off_nodes(kind):
    # random points inside random standard elements, against the per-element
    # standard basis
    ctx = build_context(RunConfig(N=(8,), mesh=kind), 8)
    mesh = ctx.mesh
    rng = np.random.default_rng(3)
    coeffs = rng.standard_normal(mesh.n_nodes)
    ids = rng.choice(np.flatnonzero(ctx.status != INTERFACE), 500)
    local = rng.uniform(0.05, 0.95, size=(len(ids), 2))
    if kind == "tri":
        # fold into the element's half of the cell, off the diagonal
        lo, hi = local.min(axis=1), local.max(axis=1) + 0.01
        upper = full_mesh(mesh).element_variant[ids] == 1
        local = np.column_stack([np.where(upper, lo, hi), np.where(upper, hi, lo)])
    pts = full_mesh(mesh).element_origins[ids] + mesh.h * local
    vals = evaluate_solution(mesh, ctx.status, ctx.cuts, coeffs, pts)
    kind_name = "q1" if kind == "rect" else "p1"
    for k, p, v in zip(ids, pts, vals):
        basis = standard_basis(k, mesh.node_coords(mesh.element_nodes(k)), kind_name,
                               template_name(mesh, k))
        assert abs(v - coeffs[mesh.element_nodes(k)] @ basis.values(p[None])[:, 0]) <= 1e-15


def test_field_dump_matches_direct_evaluation():
    cfg = RunConfig(N=(8,), schemes=("spp",))
    ctx = build_context(cfg, 8)
    rec, coeffs, _ = solve_scheme(ctx, cfg, "spp")
    pts, err = pointwise_error_field(ctx, coeffs, 9)
    assert err.shape == (81,)
    assert err.max() > 0
    # the nodal entries agree with the solved coefficients
    uh = evaluate_solution(ctx.mesh, ctx.status, ctx.cuts, coeffs, pts)
    ue = ctx.sol.u_at(pts[:, 0], pts[:, 1], ctx.iface)
    assert np.allclose(err, np.abs(ue - uh))


@pytest.mark.parametrize("kind", ["rect", "tri"])
def test_node_field_is_nodal_error(kind):
    # the IFE bases are nodal: at a node u_h is that node's coefficient,
    # with no point location or rounding of scaled coordinates
    cfg = RunConfig(mesh=kind, N=(10,), schemes=("npp",))
    ctx = build_context(cfg, 10)
    _, coeffs, _ = solve_scheme(ctx, cfg, "npp")
    pts, err = pointwise_error_field(ctx, coeffs, 0)
    nodes = full_mesh(ctx.mesh).nodes
    order = np.lexsort((nodes[:, 1], nodes[:, 0]))    # x-major, as the field
    assert np.array_equal(pts, nodes[order])
    ue = ctx.sol.u_at(nodes[:, 0], nodes[:, 1], ctx.iface)
    assert np.array_equal(err, np.abs(ue - coeffs)[order])


@pytest.mark.parametrize("argv", [
    ["verify", "--coeff-samples", "0"],
    ["verify", "--trace-samples", "0"],
    ["verify", "--interp-ns", "20"],
    ["verify", "--interp-ns", "20,20"],
    ["solve", "--N", "8", "--solver-tol", "-1"],
    ["solve", "--N", "8", "--solver-maxiter", "0"],
    ["solve", "--N", "8", "--sigma0", "-5"],
    ["verify", "--coercivity-ns", ","],
    ["verify", "--seed", "-1"],
    ["verify", "--scan-betas", "0:10"],
    ["solve", "--N", "8", "--alpha-exp", "-3"],
    ["solve", "--N", "8", "--dump-field", "--field-grid", "-3"],
    # a repeated scheme solves every case twice and writes each runs.csv row
    # and table column twice; a repeated mesh size weighs a scan's slope fit
    ["convergence", "--N", "8,16,32", "--schemes", "spp,spp"],
    ["convergence", "--N", "8,16,32", "--schemes", "spp,npp,SPP"],
    ["verify", "--interp-ns", "8,8,16"],
    ["verify", "--coercivity-ns", "4,4"],
    ["verify", "--scan-betas", "1:10,1:10"],
])
def test_cli_rejects_unusable_settings(tmp_path, argv, capsys):
    assert main([*argv, "--out", str(tmp_path / "bad")]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()


def test_every_config_field_has_a_parser_and_a_flag():
    # a setting is a RunConfig field: its annotation says how its text is
    # read, and every command has a flag of the same name that takes it
    assert list(CONFIG_TYPES) == [f.name for f in dataclasses.fields(RunConfig)]
    parser = build_parser()
    for command in ("solve", "convergence", "verify"):
        for key, hint in CONFIG_TYPES.items():
            flag = "--" + key.replace("_", "-")
            args = parser.parse_args([command, flag] if hint is bool else [command, flag, "1"])
            assert getattr(args, key) is not None, (command, flag)


def test_cmd_verify_small(tmp_path):
    cfg = RunConfig(out=str(tmp_path), coeff_samples=150, trace_samples=80,
                    coercivity_ns=(8, 10), interp_ns=(10, 20, 40),
                    scan_betas=((1.0, 10.0),))
    reports, ok = cmd_verify(cfg)
    assert len(reports) == 4
    assert ok
    scans = (tmp_path / "scans.csv").read_text().splitlines()
    assert scans[0] == "scan,key,value"
    assert any(ln.startswith("coercivity,passed,1") for ln in scans)


def test_cmd_verify_writes_scan_timings(tmp_path):
    cfg = RunConfig(out=str(tmp_path), coeff_samples=20, trace_samples=10,
                    coercivity_ns=(4, 8), interp_ns=(8, 16, 32), scan_betas=((1.0, 10.0),))
    reports, _ = cmd_verify(cfg)
    rows = (tmp_path / "timings.csv").read_text().splitlines()
    assert rows[0] == "label,seconds,max_rss_mb"
    labels = [row.split(",")[0] for row in rows[1:]]
    assert labels == [f"scan_{rep.scan_id}" for rep in reports] == [
        "scan_coefficient_bounds", "scan_trace_ratio", "scan_coercivity",
        "scan_interp_edge_error"]
    assert all(float(row.split(",")[1]) >= 0.0 for row in rows[1:])
    # the peak RSS after each stage never falls
    rss = [float(row.split(",")[2]) for row in rows[1:]]
    assert rss == sorted(rss) and rss[0] > 0.0
    # the timings stay out of the deterministic scan rows
    scans = (tmp_path / "scans.csv").read_text()
    assert "seconds" not in scans and "scan_" not in scans


def test_cli_exit_codes(tmp_path):
    # config error
    assert main(["solve", "--mesh", "hex", "--out", str(tmp_path / "x")]) == 2
    assert main(["solve", "--N", "8", "--penalty-alpha", "0.5",
                 "--out", str(tmp_path / "a")]) == 2
    # numerical failure: starve the solver
    code = main(["solve", "--N", "8", "--solver-maxiter", "2",
                 "--out", str(tmp_path / "y")])
    assert code == 3
    # success
    code = main(["solve", "--N", "6", "--schemes", "spp", "--out", str(tmp_path / "z")])
    assert code == 0


def test_run_record_describes_the_context_it_solved():
    # the mesh and the beta pair of a record are the context's, whatever
    # the config passed with it says
    ctx = build_context(RunConfig(mesh="rect", beta_plus=10.0), 8)
    rec = solve_scheme(ctx, RunConfig(mesh="tri", beta_plus=1e4), "spp")[0]
    assert (rec.mesh, rec.beta_minus, rec.beta_plus) == ("rect", 1.0, 10.0)


@pytest.mark.parametrize("mesh", ["rect", "tri"])
def test_solve_scheme_passes_the_cut_element_block(mesh, monkeypatch):
    # the nonsymmetric schemes get, by keyword, through the module attribute
    # that a tracer may wrap, the free nodes that M or P_unit touch (where
    # the scheme matrices differ from A_vol) united with the free nodes of
    # the cut elements
    from ppife import linsolve
    calls = []
    solver = linsolve.bicgstab
    monkeypatch.setattr(linsolve, "bicgstab",
                        lambda *a, **kw: calls.append(kw.get("block")) or solver(*a, **kw))
    cfg = RunConfig(mesh=mesh, N=(24,), schemes=("spp", "npp"))
    ctx = build_context(cfg, 24)
    _, _, system = solve_scheme(ctx, cfg, "spp")
    assert calls == []
    solve_scheme(ctx, cfg, "npp")
    [block] = calls
    nodes = (set(ctx.mesh.element_nodes(ctx.cuts.ids).ravel().tolist())
             - set(system.boundary.tolist()))
    touched = set()
    M, P, _ = assemble_edge_terms(ctx.mesh, ctx.traces.edges, ctx.status, ctx.cuts,
                                  cfg.penalty_alpha)
    for X in (M, P):
        coo = X.tocoo()
        inner = np.isin(coo.row, system.free) & np.isin(coo.col, system.free)
        touched |= set(coo.row[inner].tolist()) | set(coo.col[inner].tolist())
    assert touched - nodes          # M and P_unit reach past the cut elements
    assert system.free[block].tolist() == sorted(nodes | touched)


def _count_hierarchies(monkeypatch):
    from ppife import linsolve
    built = []
    init = linsolve.SAHierarchy.__init__
    monkeypatch.setattr(linsolve.SAHierarchy, "__init__",
                        lambda self, *a, **kw: built.append(self) or init(self, *a, **kw))
    return built


def test_hierarchy_is_lazy_and_shared(monkeypatch):
    # one hierarchy per context, built on the first solve that runs a
    # V-cycle, from A_vol and the lattice aggregates
    from ppife import geometry
    calls = []
    lattice = geometry.lattice_aggregates
    monkeypatch.setattr(geometry, "lattice_aggregates",
                        lambda mesh, iface: calls.append(mesh.n_cells) or lattice(mesh, iface))
    built = _count_hierarchies(monkeypatch)
    # N=24: Jacobi-CG at 529 free dofs builds none, BiCGSTAB does; level 0
    # takes the first lattice level, and level 1 is the coarsest
    cfg = RunConfig(N=(24,))
    ctx = build_context(cfg, 24)
    solve_scheme(ctx, cfg, "spp")
    assert built == [] and calls == []
    for scheme in ("npp", "ipp"):
        solve_scheme(ctx, cfg, scheme)
    assert len(built) == 1 and calls == [24] and len(built[0].levels) == 1
    # rect N=120 (14 161 free dofs): all four schemes run a V-cycle
    built.clear()
    cfg = RunConfig(N=(120,), beta_plus=1e4)
    ctx = build_context(cfg, 120)
    for scheme in ("classic", "spp", "ipp", "npp"):
        rec = solve_scheme(ctx, cfg, scheme)[0]
        assert rec.residual <= cfg.solver_tol, scheme
    assert len(built) == 1 and calls == [24, 120]
    [H] = built
    assert H is ctx.hierarchy
    assert H.levels[0][1].shape[0] == len(ctx.split.free)      # level 0's P
    counts = [n_coarse for _, n_coarse in lattice(ctx.mesh, ctx.iface)]
    assert [P.shape[1] for _, P, _ in H.levels] == counts[:len(H.levels)]
    A_vol = ctx.split.A_vol
    assert np.array_equal(H.scale, 1.0 / np.sqrt(np.abs(A_vol.diagonal())))


def test_jacobi_cg_context_builds_no_hierarchy(monkeypatch):
    # SPP on tri N=40 (1 521 free dofs) stays on Jacobi-CG
    built = _count_hierarchies(monkeypatch)
    cfg = RunConfig(mesh="tri", N=(40,), schemes=("spp",))
    ctx = build_context(cfg, 40)
    solve_scheme(ctx, cfg, "spp")
    assert built == []


def test_small_systems_keep_jacobi_cg(monkeypatch):
    # SPP at N=80 (6 241 free dofs, at most AMG_CG_DOFS) builds no
    # hierarchy, and solve_scheme's solution is Jacobi-CG's, bit for bit
    from ppife import linsolve
    built = _count_hierarchies(monkeypatch)
    for mesh in ("rect", "tri"):
        cfg = RunConfig(mesh=mesh, N=(80,), beta_plus=1e4, schemes=("spp",))
        ctx = build_context(cfg, 80)
        assert len(ctx.split.free) <= AMG_CG_DOFS
        rec, coeffs, system = solve_scheme(ctx, cfg, "spp")
        res = linsolve.cg(*system.reduced())
        assert res.amg_levels == 0 and rec.iterations == res.iterations
        assert np.array_equal(coeffs[system.free], res.x)
    assert built == []


def _record_solves(monkeypatch):
    """The SolveResult of every cg and bicgstab call, in call order."""
    from ppife import linsolve
    results = []
    for name in ("cg", "bicgstab"):
        solver = getattr(linsolve, name)
        monkeypatch.setattr(linsolve, name, lambda *a, _solver=solver, **kw:
                            results.append(_solver(*a, **kw)) or results[-1])
    return results


def test_amg_levels_report_the_shared_hierarchy(monkeypatch):
    results = _record_solves(monkeypatch)
    cfg = RunConfig(N=(120,), beta_plus=1e4)
    ctx = build_context(cfg, 120)
    for scheme in ("spp", "npp"):
        solve_scheme(ctx, cfg, scheme)
    depth = len(ctx.hierarchy.levels) + 1
    assert depth >= 3
    assert [r.amg_levels for r in results] == [depth, depth]


@pytest.mark.parametrize("mesh", ["rect", "tri"])
def test_nonsymmetric_schemes_below_the_coarse_size_solve_exactly(mesh, monkeypatch):
    # N=16: 225 free dofs, at most COARSE_SIZE; IPP and NPP run the shared
    # hierarchy, which has no levels: an exact solve of A_vol inside the
    # exact block
    from ppife import linsolve
    built = _count_hierarchies(monkeypatch)
    results = _record_solves(monkeypatch)
    cfg = RunConfig(mesh=mesh, N=(16,), beta_plus=1e4)
    ctx = build_context(cfg, 16)
    assert len(ctx.split.free) <= linsolve.COARSE_SIZE
    for scheme in ("ipp", "npp"):
        rec = solve_scheme(ctx, cfg, scheme)[0]
        assert rec.iterations <= 3 and rec.residual <= cfg.solver_tol, scheme
    assert [r.amg_levels for r in results] == [1, 1]
    assert built == [ctx.hierarchy] and ctx.hierarchy.levels == []


@pytest.mark.parametrize("mesh", ["rect", "tri"])
def test_cut_data_rules_are_built_once_per_context(monkeypatch, mesh):
    # the load and every scheme's error norms read the context's rules, and
    # get the bits they would get from rules of their own
    from ppife import assembly, postprocess
    calls = []
    rules = assembly.cut_data_rules
    monkeypatch.setattr(assembly, "cut_data_rules",
                        lambda *a: calls.append(len(a[0])) or rules(*a))
    cfg = RunConfig(N=(24,), mesh=mesh, beta_plus=1e4, schemes=("spp", "npp"))
    ctx = build_context(cfg, 24)
    fresh = assembly.assemble_load(ctx.mesh, ctx.status, ctx.cuts, ctx.sol, ctx.iface,
                                   assembly.cut_data_rules(ctx.cuts, ctx.iface))
    assert np.array_equal(ctx.split.b, fresh[full_mesh(ctx.mesh).interior_nodes])
    for scheme in cfg.schemes:
        rec, coeffs, _ = solve_scheme(ctx, cfg, scheme)
        own = postprocess.error_norms(ctx.mesh, ctx.status, ctx.cuts, coeffs, ctx.sol, ctx.iface,
                                      ctx.traces, MethodParams.preset(scheme, ctx.cuts).sigma0,
                                      assembly.cut_data_rules(ctx.cuts, ctx.iface))
        assert [rec.e_l2, rec.e_h1, rec.e_linf, rec.e_energy] == [
            own["l2"], own["h1"], own["linf"], own["energy"]]
    assert calls == [len(ctx.cuts)] * 4     # the context's, the fresh load's, two norms'


@pytest.mark.parametrize("mesh", ["rect", "tri"])
def test_later_schemes_start_from_the_last_converged_solution(mesh):
    # on one context each scheme after the first starts from the solution
    # before it: at most the iterations of a start from zero, fewer for some,
    # its norms within 5e-8 and its solution within 1e-9 of splu's
    cfg = RunConfig(mesh=mesh, N=(32,), beta_plus=1e4)
    ctx, cold_ctx = build_context(cfg, 32), build_context(cfg, 32)
    fewer = False
    for k, scheme in enumerate(("classic", "spp", "ipp", "npp")):
        rec, coeffs, system = solve_scheme(ctx, cfg, scheme)
        assert np.array_equal(ctx.start, coeffs[system.free])
        cold_ctx.start = None
        cold = solve_scheme(cold_ctx, cfg, scheme)[0]
        assert rec == cold if k == 0 else rec.iterations <= cold.iterations, scheme
        fewer |= rec.iterations < cold.iterations
        for key in ("e_l2", "e_h1", "e_linf", "e_energy"):
            assert abs(getattr(rec, key) - getattr(cold, key)) <= 5e-8 * getattr(cold, key)
        A, b = system.reduced()
        x_direct = scipy.sparse.linalg.splu(A.tocsc()).solve(b)
        assert (np.linalg.norm(coeffs[system.free] - x_direct)
                <= 1e-9 * np.linalg.norm(x_direct)), scheme
    assert fewer


def test_a_scheme_that_does_not_converge_leaves_the_start():
    cfg = RunConfig(N=(32,), beta_plus=1e4)
    ctx, twin = build_context(cfg, 32), build_context(cfg, 32)
    for c in (ctx, twin):
        solve_scheme(c, cfg, "classic")
    start = ctx.start.copy()
    with pytest.raises(NotConverged):
        solve_scheme(ctx, dataclasses.replace(cfg, solver_maxiter=1), "npp")
    assert np.array_equal(ctx.start, start)
    # the next scheme starts from classic's solution, as on a context where
    # nothing failed
    rec = solve_scheme(ctx, cfg, "ipp")[0]
    assert rec.residual <= cfg.solver_tol and rec == solve_scheme(twin, cfg, "ipp")[0]


def test_not_converged_names_iterations_restarts_and_residual():
    cfg = RunConfig(N=(24,), schemes=("npp",), solver_maxiter=1)
    ctx = build_context(cfg, 24)
    with pytest.raises(NotConverged, match=r"npp at N=24: not converged after 1 iterations "
                                           r"and 0 restarts, final residual \d\.\d{3}e"):
        solve_scheme(ctx, cfg, "npp")


@pytest.mark.parametrize("mesh", ["rect", "tri"])
def test_cli_verify_defaults_pass(tmp_path, capsys, mesh):
    # every scan at the CLI's own sample counts, seed, betas and mesh sizes
    assert main(["verify", "--mesh", mesh, "--out", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [ln.split(":")[0] for ln in lines] == [
        "PASS coefficient_bounds", "PASS trace_ratio", "PASS coercivity",
        "PASS interp_edge_error"]
    scans = (tmp_path / "scans.csv").read_text().splitlines()
    assert sorted(ln for ln in scans if ",passed," in ln) == [
        f"{scan},passed,1" for scan in
        ("coefficient_bounds", "coercivity", "interp_edge_error", "trace_ratio")]


def test_cli_verify_exit_code_on_forced_failure(tmp_path):
    # forcing sigma0 = 0 degrades the IPP/SPP definiteness check
    code = main(["verify", "--sigma0", "0", "--coeff-samples", "100",
                 "--trace-samples", "60", "--coercivity-ns", "8,10",
                 "--interp-ns", "10,20,40", "--scan-betas", "1:10",
                 "--out", str(tmp_path / "v")])
    assert code in (0, 4)
    # the scans file reflects the coercivity outcome either way
    text = (tmp_path / "v" / "scans.csv").read_text()
    assert "coercivity" in text


_SMALL_VERIFY = ["--coeff-samples", "40", "--trace-samples", "20", "--coercivity-ns", "4,8",
                 "--interp-ns", "8,16"]


def test_cli_verify_at_tiny_equal_betas(tmp_path, capsys):
    # the trace scan's degeneracy test is relative to beta: at 1e-30 every
    # cut counts and the maxima are sqrt(1e-30) times the unit ones, where
    # an absolute test marked every cut degenerate and the drift divided
    # by a zero maximum
    code = main(["verify", "--mesh", "tri", "--scan-betas", "1e-30:1e-30", *_SMALL_VERIFY,
                 "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    rows = dict(ln.rsplit(",", 1) for ln in (tmp_path / "scans.csv").read_text().splitlines())
    assert rows["trace_ratio,passed"] == "1"
    assert 0.0 < float(rows["trace_ratio,max_R_b1e-30_1e-30"]) < 1e-14


def test_cli_verify_refuses_a_penalty_exponent_it_does_not_scan(tmp_path, capsys):
    # the coercivity scan assembles P_unit at alpha = 1; at any other alpha
    # verify would report the alpha = 1 forms under the wrong name
    code = main(["verify", "--penalty-alpha", "2", *_SMALL_VERIFY, "--out", str(tmp_path / "a2")])
    assert code == 2
    assert "penalty_alpha" in capsys.readouterr().err
    assert not (tmp_path / "a2").exists()
    assert main(["verify", "--penalty-alpha", "1", *_SMALL_VERIFY,
                 "--out", str(tmp_path / "a1")]) == 0
    assert (tmp_path / "a1" / "scans.csv").exists()


@pytest.mark.parametrize("argv", [
    ["--alpha-exp", "3"],
    ["--interface", "line", "--interface-params", "1,0.3,-0.2", "--beta-plus", "1"],
    ["--interface-params", "0.1,0,0.5"],
    ["--xmin", "-2", "--xmax", "2", "--ymin", "-2", "--ymax", "2"],
    ["--dump-field"],
    ["--dump-matrix"],
    ["--dump-mesh"],
    ["--field-grid", "3"],
    ["--schemes", "npp"],
    ["--solver-tol", "1e-3"],
    ["--solver-maxiter", "50"],
    ["--N", "7"],
])
def test_cli_verify_refuses_a_problem_it_does_not_scan(tmp_path, argv, capsys):
    # the scans run the default circle on [-1, 1]^2 at alpha_exp 5 and solve
    # nothing: a report under another problem's or a solve's settings would
    # not describe it
    assert main(["verify", *argv, *_SMALL_VERIFY, "--out", str(tmp_path / "v")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and argv[0][2:].replace("-", "_") in err
    assert not (tmp_path / "v").exists()


def test_cli_verify_takes_the_defaults_spelt_out(tmp_path):
    assert main(["verify", "--alpha-exp", "5", "--interface-params", "0,0,pi/6.28",
                 "--xmin", "-1", *_SMALL_VERIFY, "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("params,message", [("0,0,-1", "circle radius must be positive"),
                                            ("0,0", "takes 3 parameters")])
@pytest.mark.parametrize("command", ["solve", "convergence"])
def test_cli_refuses_an_interface_it_cannot_build(tmp_path, command, params, message, capsys):
    # the interface is built with the other settings, before anything is written
    assert main([command, "--N", "8,16,32", "--interface-params", params,
                 "--out", str(tmp_path / "i")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "i").exists()


@pytest.mark.parametrize("command", ["solve", "convergence", "verify"])
def test_cli_refuses_a_domain_without_square_cells(tmp_path, command, capsys):
    # the domain is checked with the other settings, before anything is written
    assert main([command, "--N", "8,16,32", "--xmin", "-2", "--out", str(tmp_path / "d")]) == 2
    assert "cells must be square" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


def test_cli_verify_zero_maximum_is_a_failed_scan(tmp_path, capsys, monkeypatch):
    def zero(kind, cut_params, pair):
        return np.zeros(len(cut_params[0]))
    monkeypatch.setattr(verify, "_trace_ratios", zero)
    code = main(["verify", "--mesh", "tri", *_SMALL_VERIFY, "--out", str(tmp_path)])
    assert code == 4
    assert "FAIL trace_ratio" in capsys.readouterr().out
    rows = dict(ln.rsplit(",", 1) for ln in (tmp_path / "scans.csv").read_text().splitlines())
    assert rows["trace_ratio,passed"] == "0"
    assert rows["trace_ratio,drift_b1_10"] == "inf"


def _run_l2(tmp_path, name, *flags):
    assert main(["solve", "--N", "20", "--out", str(tmp_path / name), *flags]) == 0
    row = (tmp_path / name / "runs.csv").read_text().splitlines()[1].split(",")
    return float(row[6])


def test_cli_off_centre_circle_uses_its_centre(tmp_path):
    # the manufactured solution follows the circle: moving the centre leaves
    # the error at the size of the centred run (it was 40x larger when the
    # solution stayed at the origin)
    centred = _run_l2(tmp_path, "c", "--interface-params", "0,0,0.5")
    shifted = _run_l2(tmp_path, "s", "--interface-params", "0.2,0,0.5")
    assert shifted < 3 * centred


def test_cli_line_interface_needs_equal_betas(tmp_path):
    # no manufactured solution exists for a line with a coefficient jump
    code = main(["solve", "--N", "8", "--interface", "line", "--interface-params", "1,0,-0.3",
                 "--out", str(tmp_path / "jump")])
    assert code == 2
    assert not (tmp_path / "jump" / "runs.csv").exists()
    # without a jump the radial solution is smooth, so any interface is valid:
    # the line run matches the circle run of the same coefficient
    flat = _run_l2(tmp_path, "flat", "--interface", "line", "--interface-params", "1,0,-0.3",
                   "--beta-plus", "1")
    assert flat == pytest.approx(_run_l2(tmp_path, "circle", "--beta-plus", "1"), rel=1e-6)


def test_cli_sigma0_leaves_classic_unpenalized(tmp_path):
    # classic has no penalty: --sigma0 sets that of spp, ipp and npp only, so
    # the classic row is the one without it, and the npp row moves
    rows = {}
    for name, flags in (("preset", ()), ("override", ("--sigma0", "100"))):
        for scheme in ("classic", "npp"):
            out = tmp_path / f"{name}_{scheme}"
            assert main(["solve", "--N", "16", "--schemes", scheme, *flags,
                         "--out", str(out)]) == 0
            rows[name, scheme] = (out / "runs.csv").read_bytes()
    assert rows["override", "classic"] == rows["preset", "classic"]
    assert rows["override", "npp"] != rows["preset", "npp"]


def test_cli_scheme_alias(tmp_path):
    code = main(["solve", "--N", "6", "--scheme", "npp", "--out", str(tmp_path)])
    assert code == 0
    runs = (tmp_path / "runs.csv").read_text()
    assert "npp" in runs


@pytest.mark.parametrize("argv", [
    ["solve", "--N", "abc"],
    ["solve", "--N", "8", "--seed", "x"],
    ["solve", "--N", "8", "--solver-maxiter", "many"],
    ["verify", "--scan-betas", "1-10"],
    ["verify", "--scan-betas", "1:10:100"],
])
def test_cli_malformed_numbers_are_config_errors(tmp_path, argv, capsys):
    assert main([*argv, "--out", str(tmp_path / "bad")]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()


@pytest.mark.parametrize("argv", [
    ["solve", "--N", "16", "--beta-minus", "inf"],
    ["solve", "--N", "16", "--beta-plus", "nan"],
    ["solve", "--N", "16", "--interface-params", "0,0,inf"],
    ["solve", "--N", "8", "--xmax", "inf"],
    ["solve", "--N", "8", "--ymin=-inf"],
    ["solve", "--N", "8", "--alpha-exp", "nan"],
    ["solve", "--N", "8", "--sigma0", "inf"],
    ["solve", "--N", "8", "--penalty-alpha", "nan"],
    ["solve", "--N", "8", "--solver-tol", "nan"],
    ["verify", "--scan-betas", "1:inf"],
    ["verify", "--scan-betas", "nan:10"],
])
def test_cli_rejects_non_finite_numbers(tmp_path, argv, capsys):
    # NaN passes every sign test and inf every bound; both are refused
    # before anything runs
    assert main([*argv, "--out", str(tmp_path / "bad")]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()


@pytest.mark.parametrize("argv, h, code", [
    (["--xmin", "-pi", "--xmax", "pi", "--ymin", "-pi", "--ymax", "pi"], math.pi / 4, 0),
    (["--interface-params", "-0.1,0,0.5"], 0.25, 0),
    (["--ymin", "-inf"], None, 2),
], ids=["minus-pi-domain", "negative-centre", "minus-inf"])
def test_cli_values_may_start_with_a_minus(tmp_path, argv, h, code, capsys):
    # argparse takes a "-pi" or "-0.1,0,0.5" after a flag for a flag of its
    # own; the value is read, and refused only where it is invalid
    out = tmp_path / "run"
    assert main(["solve", "--N", "8", *argv, "--out", str(out)]) == code
    if code:
        assert "config error" in capsys.readouterr().err
        assert not out.exists()
    else:
        row = (out / "runs.csv").read_text().splitlines()[1].split(",")
        assert float(row[3]) == pytest.approx(h, rel=1e-12)


@pytest.mark.parametrize("word, value", [("on", True), ("Yes", True), ("1", True),
                                         ("off", False), ("FALSE", False), ("0", False)])
def test_config_file_booleans(tmp_path, word, value):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"dump_field = {word}\n")
    assert load_config(str(cfg_file)).dump_field is value


def test_cli_rejects_misspelt_boolean_in_config_file(tmp_path, capsys):
    # a typo must not silently switch the option off
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("N = 8\ndump_field = ture\n")
    assert main(["solve", "--config", str(cfg_file), "--out", str(tmp_path / "bad")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "dump_field" in err and "ture" in err
    assert not (tmp_path / "bad").exists()


def test_build_context_validates_config():
    # a library call gets the same refusal as the CLI: there is no
    # manufactured solution for a line with a coefficient jump
    cfg = RunConfig(N=(8,), interface="line", interface_params=(1.0, 0.0, -0.3),
                    beta_plus=10.0)
    with pytest.raises(ConfigError):
        build_context(cfg, 8)
    build_context(RunConfig(N=(8,), interface="line", interface_params=(1.0, 0.0, -0.3),
                            beta_plus=1.0), 8)
    # the penalty exponent is refused before anything is assembled
    with pytest.raises(ConfigError):
        build_context(RunConfig(N=(8,), penalty_alpha=0.5), 8)
