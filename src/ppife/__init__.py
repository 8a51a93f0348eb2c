"""Partially penalized immersed finite element methods for 2D elliptic
interface problems on interface-unfitted Cartesian meshes."""

from .assembly import (MethodParams, SCHEMES, SparseSystem, apply_dirichlet,
                       assemble_edge_terms, assemble_load, assemble_volume, edge_traces)
from .geometry import (CartesianMesh, CutSet, DomainSpec, InterfaceGeometry,
                       build_mesh, circle, classify_elements, edge_crossings,
                       interface_edges, line)
from .harness import RunConfig, build_context, cmd_convergence, cmd_solve, cmd_verify, load_config
from .linsolve import SolveResult, bicgstab, cg
from .local_basis import build_bases, ife_coefficients
from .postprocess import (PiecewiseSolution, RunRecord, error_norms, interpolate_nodal,
                          radial_interface_solution)
from .quadrature import QuadratureRule, rect_rule, segment_rule
from .verify import (ScanReport, interp_edge_error_study, scan_coefficient_bounds,
                     scan_coercivity, scan_trace_ratio)

__version__ = "0.1.0"
