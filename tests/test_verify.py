import itertools

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, strategies as st

import ppife.assembly
import ppife.verify
from oracles import (coef_ratio_max, combine_system, dense_is_spd, draw_cuts_loop, free_matrices,
                     linear_coupling_matrix, quadrant_ratio_sampled, reference_cut,
                     sparse_is_spd, sparse_scan_coercivity, trace_ratio)
from ppife.assembly import MethodParams
from ppife.geometry import DomainSpec, build_mesh, circle, classify_elements
from ppife.local_basis import build_bases
from oracles import full_mesh, ife_stack_basis
from ppife.quadrature import polygon_area
from ppife.verify import (ScanReport, _coef_ratios, _coercivity_bands, _grid_cuts,
                          _lower_bands, _reference_cuts, _sym_part_spd, _trace_ratios,
                          interp_edge_error_study, quadrant_bound_constant,
                          quadrant_gradient_check, quadrant_sigma, scan_coefficient_bounds,
                          scan_coercivity, scan_trace_ratio)

# frozen regression baseline for the linear trace scan at the CLI's 800
# samples: the supremum over the refined grid
TRACE_BASELINE_TRI_B10 = 3.758911963122e+00


def _grid_side(samples, topologies):
    """The odd number nearest sqrt(4 samples / topologies), the upper one on
    a tie, and at least 3."""
    x = np.sqrt(4 * samples / topologies)
    return max(3, min(range(1, int(x) + 3, 2), key=lambda m: (abs(m - x), -m)))


@pytest.mark.parametrize("kind", ["tri", "rect"])
def test_grid_cut_counts_follow_the_sizing_rule(kind):
    topologies = 2 if kind == "rect" else 1
    for samples in (*range(1, 60), 120, 150, 200, 800, 2000, 2047, 2048, 4096):
        params, opposite, base = _grid_cuts(kind, samples)
        m = _grid_side(samples, topologies)
        assert params.shape == (topologies * m * m, 2), samples
        assert opposite.shape == base.shape == (len(params),)
        assert base.sum() == topologies * ((m + 1) // 2) ** 2, samples
        assert sorted(set(opposite.tolist())) == [False, True][:topologies]
    if kind == "rect":
        # within 6% of four times the samples at the benchmark's sizes
        assert [len(_grid_cuts(kind, s)[0]) for s in (120, 150)] == [450, 578]
        assert [_grid_cuts(kind, s)[2].sum() for s in (120, 150)] == [128, 162]


@pytest.mark.parametrize("samples", [1, 5, 120, 150, 800])
@pytest.mark.parametrize("kind", ["tri", "rect"])
def test_base_grid_is_a_subgrid_of_the_refined_grid(kind, samples):
    # per topology the refined cuts are the m x m grid over [0.01, 0.99]^2 and
    # the base cuts its even-indexed (m + 1) / 2 x (m + 1) / 2 subgrid, which
    # holds the box corners exactly
    params, opposite, base = _grid_cuts(kind, samples)
    m = _grid_side(samples, 2 if kind == "rect" else 1)
    corners = {(0.01, 0.01), (0.01, 0.99), (0.99, 0.01), (0.99, 0.99)}
    for topology in set(opposite.tolist()):
        mine = opposite == topology
        fine = params[mine].reshape(m, m, 2)
        t = np.linspace(0.01, 0.99, m)
        assert np.array_equal(fine[..., 0], np.repeat(t[:, None], m, axis=1))
        assert np.array_equal(fine[..., 1], np.repeat(t[None, :], m, axis=0))
        coarse = params[mine & base]
        assert np.array_equal(coarse, fine[::2, ::2].reshape(-1, 2))
        n = (m + 1) // 2
        assert np.allclose(coarse.reshape(n, n, 2)[:, 0, 0], np.linspace(0.01, 0.99, n),
                           rtol=0.0, atol=1e-15)
        assert corners <= set(map(tuple, coarse.tolist()))


def test_reference_cut_geometry():
    for kind in ("tri", "rect"):
        cuts = _reference_cuts(kind, draw_cuts_loop(kind, 50, 0))
        rng = np.random.default_rng(0)
        for s in range(50):
            verts, D, E, n = cuts.verts[s], cuts.D[s], cuts.E[s], cuts.normal[s]
            pm, pp = cuts.poly_minus[s], cuts.poly_plus[s]
            # minus side contains the origin vertex
            assert any(np.allclose(p, verts[0]) for p in pm)
            assert float((verts[0] - D) @ n) <= 0
            total = polygon_area(pm) + polygon_area(pp)
            assert total == pytest.approx(abs(polygon_area(verts)), rel=1e-12)
            # the same cut as the one-sample draw, with the same sub-polygons
            # once the padding (repeated last vertices) is dropped
            o_verts, o_D, o_E, o_n, o_pm, o_pp = reference_cut(kind, rng)
            assert np.array_equal(verts, o_verts)
            assert np.array_equal(D, o_D) and np.array_equal(E, o_E)
            assert np.array_equal(n, o_n)
            for padded, poly in ((pm, o_pm), (pp, o_pp)):
                assert np.array_equal(padded[:len(poly)], poly)
                assert (padded[len(poly):] == poly[-1]).all()


@pytest.mark.parametrize("h", [1.0, 0.25, 0.3])
@pytest.mark.parametrize("beta_pair", [(1.0, 10.0), (1.0, 1e4)])
@pytest.mark.parametrize("kind", ["tri", "rect"])
def test_trace_ratios_match_scalar_oracle(kind, beta_pair, h):
    # the ratio is scale-invariant: the unit element's equal the oracle's on
    # elements of size h, also where h is not a power of two
    batched = _trace_ratios(kind, draw_cuts_loop(kind, 60, 7), beta_pair)
    rng = np.random.default_rng(7)
    scalar = [trace_ratio(kind, reference_cut(kind, rng, h), beta_pair, h) for _ in range(60)]
    assert np.allclose(batched, scalar, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("beta_pair", [(1.0, 10.0), (1.0, 1e4)])
@pytest.mark.parametrize("kind", ["tri", "rect"])
def test_coefficient_ratios_match_scalar_oracle(kind, beta_pair):
    batched = _coef_ratios(kind, draw_cuts_loop(kind, 60, 7), beta_pair)
    rng = np.random.default_rng(7)
    scalar = [coef_ratio_max(kind, beta_pair, 1, rng) for _ in range(60)]
    assert np.allclose(batched, scalar, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("kind", ["tri", "rect"])
def test_scan_maxima_are_over_the_base_and_refined_grids(kind):
    pair, samples = (1.0, 10.0), 40
    params, opposite, base = _grid_cuts(kind, samples)
    for scan, ratios, prefix in ((scan_trace_ratio, _trace_ratios, "max_R"),
                                 (scan_coefficient_bounds, _coef_ratios, "max_ratio")):
        report = scan(kind, (pair,), samples=samples)
        assert report.samples == base.sum()
        refined = ratios(kind, (params, opposite), pair)
        assert report.metrics[f"{prefix}_b1_10"] == refined[base].max()
        assert report.metrics[f"{prefix}_refined_b1_10"] == refined.max()
        # the base grid on its own gives the same maximum
        alone = ratios(kind, (params[base], opposite[base]), pair)
        assert alone.max() == pytest.approx(refined[base].max(), rel=1e-12)


@pytest.mark.parametrize("beta", [1e-30, 1e30])
def test_trace_ratios_at_extreme_equal_betas_scale_with_sqrt_beta(beta):
    # the degeneracy test is relative to beta: at equal betas the ratio is
    # sqrt(beta) times the unit one, far from the 1e-28 of an absolute test
    cut_params = draw_cuts_loop("tri", 20, 3)
    unit = _trace_ratios("tri", cut_params, (1.0, 1.0))
    assert (unit > 0).all()
    assert np.allclose(_trace_ratios("tri", cut_params, (beta, beta)), np.sqrt(beta) * unit,
                       rtol=1e-10, atol=0.0)


def test_coefficient_scan_equal_beta_has_unit_gradient_ratios():
    rng = np.random.default_rng(1)
    for _ in range(50):
        cut = reference_cut("tri", rng)
        basis = ife_stack_basis(*cut[:4], 5.0, 5.0)
        cm, cp = basis.phys_coefficients()
        assert np.allclose(cm, cp, atol=1e-12)


def test_coefficient_scan_passes_and_is_reproducible():
    a = scan_coefficient_bounds("tri", ((1.0, 10.0),), samples=400, seed=11)
    b = scan_coefficient_bounds("tri", ((1.0, 10.0),), samples=400, seed=11)
    assert a.passed and b.passed
    assert a.metrics == b.metrics
    c = scan_coefficient_bounds("tri", ((1.0, 10.0),), samples=400, seed=12)
    assert c.metrics == a.metrics  # the cuts are a grid: the seed is inert


def test_coefficient_scan_matches_closed_form_max():
    # the closed-form coupling matrix bounds the scanned ratios: the largest
    # scanned ratio cannot exceed the max over a fine (d, e) grid by much
    report = scan_coefficient_bounds("tri", ((1.0, 10.0),), samples=800, seed=3)
    scanned = report.metrics["max_ratio_b1_10"]
    worst = 0.0
    for d in np.linspace(0.01, 0.99, 60):
        for e in np.linspace(0.01, 0.99, 60):
            F = linear_coupling_matrix(d, e, 1.0, 1.0, 10.0)
            s = np.linalg.svd(F, compute_uv=False)
            worst = max(worst, s[0], 1.0 / s[-1])
    assert scanned < 1.05 * worst


def test_bilinear_coefficient_scan_large_jump():
    report = scan_coefficient_bounds("rect", ((1.0, 10000.0),), samples=600, seed=7)
    assert report.passed
    assert np.isfinite(report.metrics["max_ratio_refined_b1_10000"])


def test_trace_scan_regression_baseline():
    report = scan_trace_ratio("tri", ((1.0, 10.0),), samples=800)
    assert report.passed
    assert report.metrics["max_R_refined_b1_10"] == pytest.approx(
        TRACE_BASELINE_TRI_B10, abs=1e-9)


def test_rect_trace_scan_is_seed_free():
    # with sampled cuts, 10 of seeds 0-19 failed the 10% drift rule here
    pairs = ((1.0, 10.0), (1.0, 1e4))
    reports = [scan_trace_ratio("rect", pairs, samples=150, seed=seed) for seed in range(20)]
    assert all(r.passed for r in reports)
    assert all(r.metrics == reports[0].metrics for r in reports)


@pytest.mark.parametrize("scan", [scan_coefficient_bounds, scan_trace_ratio])
@pytest.mark.parametrize("kind", ["tri", "rect"])
def test_scans_build_four_times_the_samples_per_beta_pair(kind, scan, monkeypatch):
    # one build of the refined grid per beta pair, within 6% of 4 * samples
    built = []

    def counted(cuts, *args):
        built.append(len(cuts))
        return build_bases(cuts, *args)
    monkeypatch.setattr(ppife.verify, "build_bases", counted)
    pairs, samples = ((1.0, 10.0), (1.0, 1e4)), 150
    scan(kind, pairs, samples=samples)
    topologies = 2 if kind == "rect" else 1
    cuts = topologies * _grid_side(samples, topologies) ** 2
    assert built == [cuts] * len(pairs)
    assert abs(cuts - 4 * samples) <= 0.06 * 4 * samples


def test_trace_scan_bilinear_quadrant_bound():
    sigma = quadrant_sigma()
    assert 9.0 / 12.0 < sigma < 7.0 / 9.0
    # the exact minimum of the quadrant ratio: the bound holds and is sharp
    margin = quadrant_gradient_check()
    assert 1.0 - 1e-10 <= margin <= 1.0 + 1e-10
    report = scan_trace_ratio("rect", ((1.0, 10.0),), samples=400)
    assert report.passed
    assert report.metrics["quadrant_bound_margin"] == margin


def test_exact_quadrant_minimum_bounds_every_sampled_minimum():
    margin = quadrant_gradient_check()
    sampled = [quadrant_ratio_sampled(1000, seed) for seed in range(20)]
    assert all(margin <= s for s in sampled)


def test_exact_quadrant_minimum_does_not_depend_on_h():
    margin = quadrant_gradient_check(1.0)
    for h in (0.5, 0.3):
        assert quadrant_gradient_check(h) == pytest.approx(margin, rel=1e-12)


def test_quadrant_identity_against_closed_form():
    # the quadrant integral of v_x^2 equals (h^2/48)(12 c2^2 + 18 c2 c4 h + 7 c4^2 h^2)
    from ppife.quadrature import rect_rule
    from oracles import map_rect
    rng = np.random.default_rng(2)
    rule = rect_rule(4)
    for _ in range(50):
        c2, c4 = rng.standard_normal(2)
        h = rng.choice([0.5, 1.0, 2.0])
        pts, w = map_rect(rule, (h / 2, h / 2), h / 2)
        gx = c2 + c4 * pts[:, 1]
        val = float(w @ (gx * gx))
        closed = h * h / 48 * (12 * c2 ** 2 + 18 * c2 * c4 * h + 7 * c4 ** 2 * h * h)
        assert val == pytest.approx(closed, rel=1e-12)


def test_coercivity_scan_small():
    report = scan_coercivity(Ns=(10, 20), beta_pairs=((1.0, 10.0),), cell_kind="rect",
                             sigma0_override=None)
    assert report.passed
    assert report.metrics["spp_N10_b1_10"] == 1.0
    assert report.metrics["npp_N20_b1_10"] == 1.0
    assert report.metrics["spp_sigma_preset"] == pytest.approx(100.0)


@given(st.integers(1, 60), st.integers(0, 12), st.sampled_from([-1e-3, 1e-3]),
       st.integers(0, 2 ** 31))
def test_banded_spd_test_agrees_with_dense_cholesky(n, band, margin, seed):
    # a random symmetric band matrix shifted so that its smallest eigenvalue
    # is +-1e-3 of its spread: positive definite or indefinite, well clear of
    # the round-off of either factorization
    rng = np.random.default_rng(seed)
    band = min(band, n - 1)
    B = sp.diags([rng.standard_normal(n - k) for k in range(band + 1)],
                 [-k for k in range(band + 1)]).toarray()
    S = B + B.T
    lam = np.linalg.eigvalsh(S)
    S += (margin * max(lam[-1] - lam[0], 1.0) - lam[0]) * np.eye(n)
    A = sp.csr_matrix(S)
    # A and two empty terms on its pattern
    empty = (np.zeros(0), np.zeros(0, np.int64))
    bands = _lower_bands(A, empty, empty)
    spd = _sym_part_spd(bands, MethodParams(0.0, 0.0, 0.0))
    assert spd == sparse_is_spd(A) == dense_is_spd(A) == (margin > 0)


@pytest.mark.parametrize("kind", ["rect", "tri"])
def test_banded_spd_test_agrees_on_the_scan_matrices(kind):
    # the scan's own symmetric parts: at the presets, across the penalty
    # halving that locates the SPP threshold, and with consistency terms
    # scaled up until definiteness is lost; the band combination against
    # the assembled scheme matrix's symmetric part
    for pair in ((1.0, 10.0), (1.0, 1e4)):
        A_vol, M, P = free_matrices(10, pair, kind)
        bands, cuts = _coercivity_bands((10,), (pair,), kind)[(10, pair)]
        assert cuts.beta == pair
        presets = [MethodParams.preset(s, cuts) for s in ("spp", "ipp", "npp")]
        sigma = presets[0].sigma0
        halved = [MethodParams(-1.0, -1.0, sigma / 2 ** k) for k in range(1, 12)]
        scaled = [MethodParams(-d, -d, s) for d in (2.0, 4.0, 8.0) for s in (0.0, 1.0)]
        decisions = []
        for params in presets + halved + scaled:
            A = combine_system(A_vol, M, P, params)
            S = 0.5 * (A + A.T)
            decisions.append(_sym_part_spd(bands, params))
            assert decisions[-1] == dense_is_spd(S) == sparse_is_spd(S), params
        assert True in decisions and False in decisions


COERCIVITY_CONFIGS = list(itertools.product(
    ["rect", "tri"], [(10, 20), (10, 20, 40)],
    [((1.0, 10.0), (1.0, 1e4)), ((3.0, 3.0),), ((1.0, 10.0),)]))


@pytest.mark.parametrize("kind,Ns,pairs", COERCIVITY_CONFIGS, ids=[
    f"{kind}-N{'_'.join(map(str, Ns))}-" + "-".join(f"b{a:g}_{b:g}" for a, b in pairs)
    for kind, Ns, pairs in COERCIVITY_CONFIGS])
def test_coercivity_scan_equals_the_sparse_path(kind, Ns, pairs):
    # the band combination against a full scheme matrix per test, at the
    # presets, a forced zero penalty and a unit penalty
    for sigma0 in (None, 0.0, 1.0):
        report = scan_coercivity(Ns, pairs, cell_kind=kind, sigma0_override=sigma0)
        metrics, passed = sparse_scan_coercivity(Ns, pairs, kind, sigma0)
        assert report.metrics == metrics and report.passed == passed, sigma0


def test_coercivity_scan_builds_one_geometry_per_mesh_size(monkeypatch):
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        monkeypatch.setattr(ppife.verify, name, wrapper)

    for name in ("build_mesh", "classify_elements", "interface_edges", "build_bases"):
        counted(name, getattr(ppife.verify, name))

    def refuse(*args, **kwargs):
        raise AssertionError("a scheme matrix was built")
    monkeypatch.setattr(ppife.assembly.DirichletSplit, "system", refuse)
    monkeypatch.setattr(ppife.verify, "combine_system", refuse, raising=False)

    Ns, pairs = (6, 8, 10), ((1.0, 10.0), (1.0, 1e4), (3.0, 3.0))
    scan_coercivity(Ns, pairs, "rect", None)
    for name in ("build_mesh", "classify_elements", "interface_edges"):
        assert calls.count(name) == len(Ns), name
    assert calls.count("build_bases") == len(Ns) * len(pairs)


def test_coercivity_scan_equal_beta():
    # constant coefficient: the penalized matrix is a standard interior-penalty
    # FEM matrix, positive definite at the preset penalty
    report = scan_coercivity(Ns=(10,), beta_pairs=((3.0, 3.0),), cell_kind="rect",
                             sigma0_override=None)
    assert report.passed


def test_coercivity_detects_forced_zero_penalty_for_ipp():
    # sigma0 = 0 removes the stabilization entirely; for epsilon = 0 (IPP) the
    # symmetric part generically loses definiteness
    report = scan_coercivity(Ns=(10, 20), beta_pairs=((1.0, 10.0),), cell_kind="rect",
                             sigma0_override=0.0)
    assert report.metrics["ipp_N20_b1_10"] in (0.0, 1.0)
    # and the report carries the threshold bookkeeping either way
    assert "spp_sigma_pd_down_to" in report.metrics


def test_interp_edge_error_study_slopes():
    report = interp_edge_error_study(Ns=(20, 40, 80), beta_pair=(1.0, 10.0), cell_kind="rect")
    assert report.passed
    assert report.metrics["slope_sum"] >= 1.8
    assert 2.0 <= report.metrics["slope_max"] <= 4.0


def test_interp_edge_error_zero_for_linear_solution():
    # a globally linear solution is reproduced by the interpolant: zero flux error
    from ppife.assembly import edge_traces
    from ppife.geometry import interface_edges
    from ppife.local_basis import build_bases
    mesh = build_mesh(DomainSpec(-1, 1, -1, 1, 10, "rect"))
    iface = circle(0.0, 0.0, np.pi / 6.28)
    status, cuts = classify_elements(mesh, iface)
    cuts = build_bases(cuts, 2.0, 2.0)
    x, y = full_mesh(mesh).nodes.T
    coeffs = 1.0 + 2.0 * x - y
    traces = edge_traces(mesh, interface_edges(mesh, cuts), status, cuts)
    assert len(traces.edges) > 0
    ce = coeffs[mesh.element_nodes(traces.elements)]
    gi = np.einsum("bsd,bsdqa->bsqa", ce, traces.gradients)
    nB = mesh.edge_normals(traces.edges)[:, None, None]
    fl = 2.0 * ((2.0 - gi[..., 0]) * nB[..., 0] + (-1.0 - gi[..., 1]) * nB[..., 1])
    assert np.abs(fl).max() < 1e-12


def test_scan_report_serialization():
    rep = ScanReport("demo", "demo scan", 100, metrics={"a": 1.5}, passed=True)
    line = rep.summary_line()
    assert line.startswith("PASS demo")
    assert rep.csv_rows() == ["demo,passed,1", "demo,samples,100", "demo,a,1.500000000000e+00"]
