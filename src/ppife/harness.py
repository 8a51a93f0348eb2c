"""Run configuration, the end-to-end solve pipeline, convergence studies,
verification runs, and their file outputs (CSV rows, markdown tables,
pointwise-error fields)."""
from __future__ import annotations

import configparser
import math
import os
import re
import resource
import time
import typing
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from . import assembly, geometry, linsolve, verify
from .assembly import MethodParams, SCHEMES
from .errors import ConfigError, NotConverged
from .geometry import DomainSpec, build_mesh, classify_elements, interface_edges
from .local_basis import build_bases, cut_frame, cut_values, piece_values, template_coefs
from .postprocess import (DEFAULT_ALPHA_EXP, DEFAULT_R0, NORMS, RunRecord, error_norms,
                          markdown_error_table, radial_interface_solution, record_csv_rows)

# CG takes the context's hierarchy above this many free dofs. Against
# Jacobi-CG, an SPP solve with it (tri at beta+ = 10, rect at beta+ = 1e4)
# takes 3-7 % longer at 9 801 dofs (N=100) and 9-11 % less at 14 161 (N=120)
AMG_CG_DOFS = 12_000


@dataclass
class RunConfig:
    """Flat run configuration; every field can be set from a config file and
    overridden by the CLI flag of the same name, and its annotation says how
    its text is read (`_parse_as`)."""

    xmin: float = -1.0
    xmax: float = 1.0
    ymin: float = -1.0
    ymax: float = 1.0
    mesh: str = "rect"
    N: tuple[int, ...] = (20, 40, 80)
    interface: str = "circle"
    interface_params: tuple[float, ...] = (0.0, 0.0, DEFAULT_R0)
    beta_minus: float = 1.0
    beta_plus: float = 10.0
    alpha_exp: float = DEFAULT_ALPHA_EXP
    schemes: tuple[str, ...] = ("spp",)
    sigma0: Optional[float] = None
    penalty_alpha: float = 1.0
    solver_tol: float = linsolve.DEFAULT_TOL
    solver_maxiter: Optional[int] = None
    seed: int = 7            # inert: nothing draws from it (the scans use grids)
    out: str = "out"
    dump_field: bool = False
    field_grid: int = 0      # 0: sample at the mesh nodes (N+1 per side)
    dump_matrix: bool = False
    dump_mesh: bool = False
    # verification scan sizes
    coeff_samples: int = 2000
    trace_samples: int = 800
    coercivity_ns: tuple[int, ...] = (10, 20, 40)
    interp_ns: tuple[int, ...] = (20, 40, 80, 160)
    scan_betas: tuple[tuple[float, float], ...] = ((1.0, 10.0), (1.0, 10000.0))

    def validate(self, doubling=False):
        # NaN passes every comparison below, and inf every sign test
        for name, hint in CONFIG_TYPES.items():
            value = getattr(self, name)
            if (_holds_float(hint) and value is not None
                    and not np.isfinite(np.asarray(value, dtype=float)).all()):
                raise ConfigError(f"{name} must be finite, not {value!r}")
        if self.beta_minus <= 0 or self.beta_plus <= 0:
            raise ConfigError("beta values must be positive")
        if self.alpha_exp <= 0:
            raise ConfigError("alpha_exp must be positive (the solution is r**alpha_exp)")
        if self.penalty_alpha < 1.0:
            raise ConfigError("penalty exponent alpha must be >= 1")
        if not self.schemes:
            raise ConfigError("at least one scheme is required")
        for s in self.schemes:
            if s not in SCHEMES:
                raise ConfigError(f"unknown scheme {s!r}")
        geometry.interface_from_name(self.interface, self.interface_params)
        if self.interface != "circle" and self.beta_minus != self.beta_plus:
            raise ConfigError("the manufactured solution needs a circle interface "
                              "when beta_minus != beta_plus")
        if not self.N:
            raise ConfigError("N list is empty")
        for N in self.N:
            DomainSpec(self.xmin, self.xmax, self.ymin, self.ymax, N, self.mesh)
        if self.solver_tol <= 0:
            raise ConfigError("solver_tol must be positive")
        if self.solver_maxiter is not None and self.solver_maxiter < 1:
            raise ConfigError("solver_maxiter must be at least 1")
        if self.sigma0 is not None and self.sigma0 < 0:
            raise ConfigError("sigma0 must be non-negative")
        if self.coeff_samples < 1 or self.trace_samples < 1:
            raise ConfigError("coeff_samples and trace_samples must be at least 1")
        for name in ("schemes", "interp_ns", "coercivity_ns", "scan_betas"):
            if len(set(getattr(self, name))) < len(getattr(self, name)):
                raise ConfigError(f"{name} repeats an entry: {getattr(self, name)!r}")
        if len(self.interp_ns) < 2:
            raise ConfigError("interp_ns needs at least 2 mesh sizes for a slope")
        if not self.coercivity_ns:
            raise ConfigError("coercivity_ns needs at least 1 mesh size")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.field_grid < 0:
            raise ConfigError("field_grid must be 0 (the mesh nodes) or G >= 1 (a G x G grid)")
        if not self.scan_betas:
            raise ConfigError("scan_betas needs at least 1 beta pair")
        if any(b <= 0 for pair in self.scan_betas for b in pair):
            raise ConfigError("scan_betas values must be positive")
        if doubling and len(self.N) > 1:
            for a, b in zip(self.N[:-1], self.N[1:]):
                if b != 2 * a:
                    raise ConfigError("N list must strictly double")
        return self


# each setting's annotation, in field order: how it is read, checked for
# finiteness and given a CLI flag
CONFIG_TYPES = typing.get_type_hints(RunConfig)

_NUM = r"(\d+\.?\d*(?:e[+-]?\d+)?|\.\d+(?:e[+-]?\d+)?)"
_PI_FRACTION = re.compile(rf"([+-]?)(?:{_NUM}\*)?pi(?:/{_NUM})?")


def _parse_number(text):
    """Float parser with support for 'pi' fractions: [num*]pi[/num] with an
    optional sign, like pi/6.28, 2*pi or -pi/2."""
    t = text.strip().lower()
    try:
        return float(t)
    except ValueError:
        pass
    m = _PI_FRACTION.fullmatch(t.replace(" ", ""))
    if m is None:
        raise ConfigError(f"cannot parse number {text!r}")
    sign, num, den = m.groups()
    val = math.pi if num is None else float(num) * math.pi
    if den is not None:
        if float(den) == 0.0:
            raise ConfigError(f"division by zero in {text!r}")
        val = val / float(den)
    return -val if sign == "-" else val


def _parse_int(text):
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"cannot parse integer {text!r}") from None


def _parse_as(hint, raw, name):
    """The text `raw` of setting `name` read as its annotation `hint`: a
    tuple of any length from a comma list (names in it case-blind), one of
    fixed length from a colon list, None from "none" or nothing."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union:                                   # Optional[X]
        return None if raw.lower() in ("none", "") else _parse_as(args[0], raw, name)
    if origin is tuple and args[-1] is Ellipsis:
        items = [x for x in raw.replace(" ", "").split(",") if x]
        return tuple(_parse_as(args[0], x.lower() if args[0] is str else x, name)
                     for x in items)
    if origin is tuple:
        parts = raw.split(":")
        if len(parts) != len(args):
            raise ConfigError(f"beta pair {raw!r} is not of the form minus:plus")
        return tuple(_parse_as(a, x, name) for a, x in zip(args, parts))
    if hint is bool:
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"{name} = {raw!r} is not a boolean (1/true/yes/on or 0/false/no/off)")
    if hint is float:
        return _parse_number(raw)
    if hint is int:
        return _parse_int(raw)
    return raw


def _holds_float(hint):
    return hint is float or any(_holds_float(a) for a in typing.get_args(hint))


def load_config(path=None, overrides=None) -> RunConfig:
    """Read a flat key=value config file (a [run] section is optional) and
    apply CLI overrides on top of it."""
    values = {}
    if path is not None:
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        with open(path) as f:
            text = f.read()
        parser = configparser.ConfigParser()
        parser.optionxform = str  # keys are case sensitive (N vs n)
        try:
            parser.read_string(text if text.lstrip().startswith("[") else "[run]\n" + text)
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse config: {exc}") from exc
        for section in parser.sections():
            values.update(parser.items(section))
    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})
    lowered = {k.lower(): k for k in CONFIG_TYPES}
    settings = {}
    for name, raw in values.items():
        key = lowered.get(name.replace("-", "_").lower())
        if key is None:
            raise ConfigError(f"unknown config key {name!r}")
        settings[key] = (_parse_as(CONFIG_TYPES[key], raw.strip(), key) if isinstance(raw, str)
                         else raw)
    return RunConfig(**settings)


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class CaseContext:
    """Everything that is shared by all schemes on one (mesh, beta) case,
    and the free-node solution of the last scheme that converged on it,
    where the next scheme's Krylov solve starts (None: from zero)."""

    mesh: object
    iface: object
    sol: object
    status: np.ndarray   # per element: SIDE_MINUS, SIDE_PLUS or INTERFACE
    cuts: object         # geometry.CutSet of the interface elements, with their bases
    split: object        # assembly.DirichletSplit: the terms and b on the free nodes
    traces: object       # assembly.EdgeTraces of the interface edges
    rules: list          # assembly.cut_data_rules of the cut elements
    start: Optional[np.ndarray] = None

    @cached_property
    def hierarchy(self):
        """The AMG levels of every V-cycle (linsolve.SAHierarchy), built on
        first use from A_vol and geometry.lattice_aggregates."""
        return linsolve.SAHierarchy(self.split.A_vol,
                                    geometry.lattice_aggregates(self.mesh, self.iface))

    @cached_property
    def interface_block(self) -> np.ndarray:
        """Every scheme's exact V-cycle block: the ascending positions, among
        the free nodes, of those on a cut element or in a term of M or
        P_unit (where scheme matrices leave A_vol)."""
        split = self.split
        block = np.zeros(self.mesh.n_nodes, bool)
        block[self.mesh.element_nodes(self.cuts.ids)] = True
        block[split.free[split.A_vol.indices[np.concatenate([at for _, at in split.terms])]]] = True
        return np.flatnonzero(block[split.free])


def build_context(config: RunConfig, N: int) -> CaseContext:
    config.validate()
    spec = DomainSpec(config.xmin, config.xmax, config.ymin, config.ymax, N, config.mesh)
    mesh = build_mesh(spec)
    iface = geometry.interface_from_name(config.interface, config.interface_params)
    cx, cy, r0 = (config.interface_params if config.interface == "circle"
                  else (0.0, 0.0, DEFAULT_R0))
    sol = radial_interface_solution(config.beta_minus, config.beta_plus,
                                    alpha_exp=config.alpha_exp, r0=r0, center=(cx, cy))
    status, cuts = classify_elements(mesh, iface)
    cuts = build_bases(cuts, config.beta_minus, config.beta_plus)
    M, P_unit, traces = assembly.assemble_edge_terms(mesh, interface_edges(mesh, cuts), status,
                                                     cuts, config.penalty_alpha)
    rules = assembly.cut_data_rules(cuts, iface)
    b = assembly.assemble_load(mesh, status, cuts, sol, iface, rules=rules)
    split = assembly.apply_dirichlet(mesh, status, cuts, M, P_unit, b,
                                     lambda x, y: sol.u_at(x, y, iface))
    return CaseContext(mesh, iface, sol, status, cuts, split, traces, rules)


def solve_scheme(ctx: CaseContext, config: RunConfig, scheme: str):
    """Assemble the scheme system on a prepared context, solve from the
    context's start, keep the solution as the next start, measure errors."""
    params = MethodParams.preset(scheme, ctx.cuts, config.sigma0)
    N = ctx.mesh.n_cells
    # delta == epsilon makes the scheme matrix symmetric; the solver is
    # looked up at call time, so that a tracer may wrap it
    symmetric = params.delta == params.epsilon
    solver = linsolve.cg if symmetric else linsolve.bicgstab
    # set up before the scheme matrix exists: their peaks do not add
    hierarchy = ctx.hierarchy if not symmetric or len(ctx.split.free) > AMG_CG_DOFS else None
    system = ctx.split.system(params)
    A_ff, rhs = system.reduced()
    res = solver(A_ff, rhs, tol_rel=config.solver_tol, max_iter=config.solver_maxiter,
                 block=ctx.interface_block, hierarchy=hierarchy, x0=ctx.start)
    if not res.converged:
        raise NotConverged(f"{scheme} at N={N}: not converged after {res.iterations} "
                           f"iterations and {res.restarts} restarts, final residual "
                           f"{res.residual:.3e}", res)
    ctx.start = res.x
    coeffs = system.expand(res.x)

    err = error_norms(ctx.mesh, ctx.status, ctx.cuts, coeffs, ctx.sol, ctx.iface,
                      ctx.traces, params.sigma0, rules=ctx.rules)
    rec = RunRecord(
        scheme=scheme, mesh=ctx.mesh.cell_kind, N=N, h=ctx.mesh.h,
        beta_minus=ctx.cuts.beta[0], beta_plus=ctx.cuts.beta[1],
        **{f"e_{norm}": e for norm, e in err.items()},
        iterations=res.iterations, residual=res.residual,
        n_dofs=ctx.mesh.n_nodes, n_interface_elements=len(ctx.cuts))
    return rec, coeffs, system


# ---------------------------------------------------------------------------
# pointwise field evaluation
# ---------------------------------------------------------------------------

def evaluate_solution(mesh, status, cuts, coeffs, pts):
    """u_h at arbitrary points of the domain (vectorized on standard cells)."""
    spec, n, h = mesh.spec, mesh.n_cells, mesh.h
    x, y = np.asarray(pts[:, 0], float), np.asarray(pts[:, 1], float)
    ix = np.clip(((x - spec.xmin) / h).astype(int), 0, n - 1)
    iy = np.clip(((y - spec.ymin) / h).astype(int), 0, n - 1)
    cell = iy * n + ix
    xi = (x - (spec.xmin + ix * h)) / h
    eta = (y - (spec.ymin + iy * h)) / h
    elem = cell if mesh.cell_kind == geometry.RECT else 2 * cell + np.where(eta <= xi, 0, 1)

    out = np.empty(len(x))
    std = status[elem] != geometry.INTERFACE
    k = elem[std]
    vals = piece_values(template_coefs(mesh, k), np.stack([xi[std], eta[std]], axis=-1)[:, None])
    out[std] = (coeffs[mesh.element_nodes(k)] * vals[..., 0]).sum(axis=1)
    # points on cut elements, grouped by element; the elements with equal
    # point counts form one stack, so each element's products have the
    # shapes, and so the bits, of evaluating its points on their own
    idx = np.flatnonzero(~std)
    idx = idx[np.argsort(elem[idx], kind="stable")]
    k, first, count = np.unique(elem[idx], return_index=True, return_counts=True)
    for c in np.unique(count):
        g = count == c
        sel = idx[first[g][:, None] + np.arange(c)]
        rows = np.searchsorted(cuts.ids, k[g])
        xi, plus = cut_frame(cuts, rows, np.stack([x[sel], y[sel]], axis=-1))
        ce = coeffs[mesh.element_nodes(k[g])][:, None]
        out[sel] = (ce @ cut_values(cuts, rows, xi, plus))[:, 0]
    return out


def pointwise_error_field(ctx: CaseContext, coeffs, grid):
    """|u - u_h| on a uniform grid; grid=0 samples at the mesh nodes, where the
    penalty's effect on the interface-local error is not masked by ordinary
    in-cell interpolation error."""
    nodes = ctx.mesh.n_cells + 1
    grid = grid if grid > 0 else nodes
    xs = np.linspace(ctx.mesh.spec.xmin, ctx.mesh.spec.xmax, grid)
    ys = np.linspace(ctx.mesh.spec.ymin, ctx.mesh.spec.ymax, grid)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    pts = np.column_stack([X.ravel(), Y.ravel()])
    if grid == nodes:
        # the samples are the mesh nodes, numbered x-major here and y-major in
        # the mesh; the bases are nodal, so u_h there is the coefficient itself
        uh = coeffs.reshape(nodes, nodes).T.ravel()
    else:
        uh = evaluate_solution(ctx.mesh, ctx.status, ctx.cuts, coeffs, pts)
    ue = ctx.sol.u_at(pts[:, 0], pts[:, 1], ctx.iface)
    return pts, np.abs(ue - uh)


def write_field(path, pts, err):
    with open(path, "w") as f:
        f.write("x,y,abs_error\n")
        for (x, y), e in zip(pts, err):
            f.write(f"{x:.12e},{y:.12e},{e:.12e}\n")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _ensure_out(config):
    os.makedirs(config.out, exist_ok=True)
    return config.out


def _stage(timings, label, call):
    """call(), with a timings.csv row appended to `timings`: its label, its
    seconds and the process's peak RSS after it (ru_maxrss, in MB)."""
    t0 = time.perf_counter()
    out = call()
    timings.append((label, time.perf_counter() - t0,
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024))
    return out


def _write_timings(out, rows):
    with open(os.path.join(out, "timings.csv"), "w") as f:
        f.write("label,seconds,max_rss_mb\n")
        for label, sec, rss in rows:
            f.write(f"{label},{sec:.3f},{rss:.1f}\n")


def cmd_solve(config: RunConfig):
    """Single solve: first N and first scheme of the config."""
    config.validate()
    out = _ensure_out(config)
    N, scheme = config.N[0], config.schemes[0]
    timings = []
    ctx = _stage(timings, f"context_N{N}", lambda: build_context(config, N))
    rec, coeffs, system = _stage(timings, f"solve_{scheme}_N{N}",
                                 lambda: solve_scheme(ctx, config, scheme))
    with open(os.path.join(out, "runs.csv"), "w") as f:
        f.write(record_csv_rows([rec]))
    _write_timings(out, timings)
    if config.dump_field:
        pts, err = pointwise_error_field(ctx, coeffs, config.field_grid)
        write_field(os.path.join(out, f"field_{scheme}_N{N}.csv"), pts, err)
    if config.dump_matrix:
        assembly.dump_matrix(os.path.join(out, f"system_{scheme}_N{N}.mtx"), system.A)
    if config.dump_mesh:
        geometry.dump_mesh(ctx.mesh, os.path.join(out, f"mesh_N{N}.txt"))
    norms = " ".join(f"{norm}={getattr(rec, 'e_' + norm):.4e}" for norm in NORMS)
    print(f"{scheme} N={N} h={ctx.mesh.h:.4e} {norms} iters={rec.iterations}")
    return [rec]


def cmd_convergence(config: RunConfig):
    """Convergence study over the config's N list and schemes; writes CSV rows
    and per-norm markdown tables in an error/rate-per-scheme layout."""
    config.validate(doubling=True)
    if len(config.N) < 3:
        raise ConfigError("convergence study needs at least 3 mesh sizes")
    out = _ensure_out(config)
    records, timings = [], []
    for N in config.N:
        ctx = _stage(timings, f"context_N{N}", lambda: build_context(config, N))
        for scheme in config.schemes:
            records.append(_stage(timings, f"solve_{scheme}_N{N}",
                                  lambda: solve_scheme(ctx, config, scheme))[0])
    with open(os.path.join(out, "runs.csv"), "w") as f:
        f.write(record_csv_rows(records))
    for norm in NORMS:
        table = markdown_error_table(records, norm, list(config.schemes))
        with open(os.path.join(out, f"table_{norm}.md"), "w") as f:
            f.write(table)
        print(f"--- {norm} ---")
        print(table, end="")
    _write_timings(out, timings)
    return records


# the settings `cmd_verify` reads (seed is inert, as everywhere)
_VERIFY_SETTINGS = ("mesh", "beta_minus", "beta_plus", "sigma0", "out", "seed",
                    "coeff_samples", "trace_samples", "coercivity_ns", "interp_ns", "scan_betas")


def cmd_verify(config: RunConfig):
    """Run all four verification scans; returns (reports, all_passed). The
    scans read only the _VERIFY_SETTINGS: they take the default interface,
    domain and solution exponent, assemble P_unit at penalty alpha = 1 and
    solve nothing, so any other setting than its default is refused."""
    config.validate()
    default = RunConfig()
    unread = [f"{name} = {getattr(config, name)!r}" for name in CONFIG_TYPES
              if name not in _VERIFY_SETTINGS and getattr(config, name) != getattr(default, name)]
    if unread:
        raise ConfigError("verify does not read " + ", ".join(unread))
    out = _ensure_out(config)
    kind = config.mesh
    scans = {
        "coefficient_bounds": lambda: verify.scan_coefficient_bounds(
            kind, config.scan_betas, samples=config.coeff_samples),
        "trace_ratio": lambda: verify.scan_trace_ratio(kind, config.scan_betas,
                                                       samples=config.trace_samples),
        "coercivity": lambda: verify.scan_coercivity(
            config.coercivity_ns, config.scan_betas, cell_kind=kind, sigma0_override=config.sigma0),
        "interp_edge_error": lambda: verify.interp_edge_error_study(
            config.interp_ns, (config.beta_minus, config.beta_plus), cell_kind=kind),
    }
    timings = []
    reports = [_stage(timings, f"scan_{name}", scan) for name, scan in scans.items()]
    with open(os.path.join(out, "scans.csv"), "w") as f:
        f.write("scan,key,value\n")
        for rep in reports:
            for row in rep.csv_rows():
                f.write(row + "\n")
    _write_timings(out, timings)
    for rep in reports:
        print(rep.summary_line())
    return reports, all(r.passed for r in reports)
