"""The three benchmark workloads and the correctness gate on their outputs.

Each workload is a closed loop in one process: one case after another, as a
researcher's study runs. A pass returns one `Op` per operation, an operation
being one (N, scheme) case or one verification scan.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.sparse.linalg as spla

from ppife import geometry, harness, verify
from ppife.errors import MultipleCrossings
from ppife.harness import RunConfig

DEFAULT_SEED = RunConfig().seed
# radius drawn for other seeds on seeded workloads: a narrow band around the
# canonical circle, well inside [-1, 1]^2. The interface length, and with it
# the number of cut elements, grows with r0; at +-10% the pass time moved by
# about +-6% between seeds, so the band is +-4%.
R0_BAND = (0.48, 0.52)

# Krylov solution against a sparse direct solve of the same reduced system
SOLVE_RTOL = 1e-6
# error norms against the stored values at the canonical inputs
NORM_RTOL = 1e-6
NORMS = ("e_l2", "e_h1", "e_linf", "e_energy")
REFERENCE = Path(__file__).with_name("reference.json")


@dataclass
class Op:
    """One operation of a pass and what the gate needs to check it."""

    case: str
    error: str | None = None     # exception or gate failure class name
    free_dofs: int = 0
    record: object = None
    coeffs: np.ndarray | None = None
    system: object = None
    report: object = None


def _set_case(tracer, case):
    if tracer is not None:
        tracer.case = case


def solve_pass(config: RunConfig, tracer=None):
    """cmd_convergence-style loop: one context per N, every scheme on it."""
    ops = []
    for N in config.N:
        _set_case(tracer, f"N{N}")
        try:
            ctx = harness.build_context(config, N)
        except Exception as exc:  # counted as failed; the other cases still run
            ops += [Op(f"N{N}/{s}", type(exc).__name__) for s in config.schemes]
            continue
        for scheme in config.schemes:
            op = Op(f"N{N}/{scheme}")
            _set_case(tracer, op.case)
            try:
                op.record, op.coeffs, op.system = harness.solve_scheme(ctx, config, scheme)
                op.free_dofs = len(op.system.free)
            except Exception as exc:
                op.error = type(exc).__name__
            ops.append(op)
    return ops


def verify_pass(config: RunConfig, tracer=None):
    """The four scans of cmd_verify, with its arguments, one operation each."""
    kind = config.mesh
    # free dofs of the global systems the coercivity scan assembles
    coercivity_dofs = len(config.scan_betas) * sum((N - 1) ** 2 for N in config.coercivity_ns)
    scans = [
        ("coefficient_bounds", 0, lambda: verify.scan_coefficient_bounds(
            kind, config.scan_betas, samples=config.coeff_samples, seed=config.seed)),
        ("trace_ratio", 0, lambda: verify.scan_trace_ratio(
            kind, config.scan_betas, samples=config.trace_samples, seed=config.seed)),
        ("coercivity", coercivity_dofs, lambda: verify.scan_coercivity(
            config.coercivity_ns, config.scan_betas, cell_kind=kind, seed=config.seed,
            sigma0_override=config.sigma0)),
        ("interp_edge_error", 0, lambda: verify.interp_edge_error_study(
            config.interp_ns, (config.beta_minus, config.beta_plus), cell_kind=kind,
            seed=config.seed)),
    ]
    ops = []
    for case, dofs, scan in scans:
        op = Op(case)
        _set_case(tracer, case)
        try:
            op.report = scan()
            op.free_dofs = dofs
        except Exception as exc:
            op.error = type(exc).__name__
        ops.append(op)
    return ops


@dataclass(frozen=True)
class Workload:
    name: str
    config: RunConfig
    run_pass: Callable
    # whether --seed changes the inputs (see BENCHMARK.json for why not)
    seeded: bool
    toy: dict


WORKLOADS = {w.name: w for w in (
    Workload("solve-rect-hc",
             RunConfig(mesh="rect", N=(160,), beta_plus=1e4, schemes=("spp", "npp")),
             solve_pass, seeded=False, toy={"N": (16,)}),
    Workload("study-tri",
             RunConfig(mesh="tri", N=(20, 40, 80), beta_plus=10.0, schemes=("spp",)),
             solve_pass, seeded=True, toy={"N": (8, 16)}),
    Workload("verify-rect",
             RunConfig(mesh="rect", coeff_samples=120, trace_samples=150,
                       coercivity_ns=(10, 20), interp_ns=(20, 40, 80)),
             verify_pass, seeded=False,
             toy={"coeff_samples": 40, "trace_samples": 5, "coercivity_ns": (4, 8),
                  "interp_ns": (8, 16, 32)}),
)}


def make_config(workload: Workload, seed: int, toy=False) -> RunConfig:
    """The program's input for this seed: the default seed keeps r0 = pi/6.28
    and RunConfig.seed; another seed on a seeded workload draws r0 from
    R0_BAND and becomes the verification RNG seed."""
    config = replace(workload.config, **workload.toy) if toy else workload.config
    if workload.seeded and seed != DEFAULT_SEED:
        config = replace(config, interface_params=(0.0, 0.0, _draw_r0(seed, config)),
                         seed=seed)
    return config


def _draw_r0(seed, config):
    """A radius from R0_BAND, redrawn while the program refuses it on one of
    the workload's meshes. It refuses about 4% of the band on the tri meshes:
    near-tangent diagonal edges that the circle crosses twice raise
    MultipleCrossings."""
    rng = np.random.default_rng(seed)
    while True:
        r0 = float(rng.uniform(*R0_BAND))
        iface = geometry.circle(0.0, 0.0, r0)
        try:
            for N in config.N:
                spec = geometry.DomainSpec(config.xmin, config.xmax, config.ymin,
                                           config.ymax, N, config.mesh)
                geometry.classify_elements(geometry.build_mesh(spec), iface)
        except MultipleCrossings:
            continue
        return r0


def is_canonical(workload: Workload, seed: int, toy=False):
    """Whether the inputs are the ones the stored reference norms belong to."""
    return not toy and (not workload.seeded or seed == DEFAULT_SEED)


def _gate(op, reference):
    if op.report is not None:
        return None if op.report.passed else "ScanFailed"
    A_ff, rhs = op.system.reduced()
    x_direct = spla.splu(A_ff.tocsc()).solve(rhs)
    x = op.coeffs[op.system.free]
    if not np.linalg.norm(x - x_direct) <= SOLVE_RTOL * np.linalg.norm(x_direct):
        return "DirectSolveMismatch"
    if reference is not None:
        ref = reference[op.case]
        for key in NORMS:
            if not abs(getattr(op.record, key) - ref[key]) <= NORM_RTOL * abs(ref[key]):
                return "ReferenceMismatch"
    return None


def load_reference(workload: Workload):
    """Stored error norms and iteration counts per case at the canonical
    inputs, or None for a workload without solves."""
    return json.loads(REFERENCE.read_text()).get(workload.name)


def check(ops, reference=None):
    """Correctness gate, run outside the timed region. Marks each failing
    operation with the class of its failure."""
    for op in ops:
        if op.error is None:
            try:
                op.error = _gate(op, reference)
            except Exception as exc:
                op.error = type(exc).__name__
