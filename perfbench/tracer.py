"""Spans around the calls into each ppife layer, for the traced run only.

`Tracer.install` replaces each name in `WRAPS` with a pass-through wrapper on
the object its caller looks it up on (``harness.build_mesh``,
``assembly.assemble_volume``, ``verify.bilinear_ife_basis``, ...), so the
program itself is unchanged. `uninstall` puts the originals back. A name that
no longer exists is listed in `Tracer.absent` and its metrics read 0.

Spans are kept in memory and written out by `write_spans` at the end.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import json
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    case: str
    start: float = 0.0
    end: float = 0.0
    # time the tracer spent counting inside this span; not program time
    excluded: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start - self.excluded


# ---------------------------------------------------------------------------
# counters: (args, kwargs, result) -> dict of numbers, evaluated after the call
# ---------------------------------------------------------------------------

def _count_cuts(args, kwargs, cuts):
    return {"n_elements": len(cuts), "n_cut": sum(c.is_interface for c in cuts)}


def _count_bases(args, kwargs, bases):
    return {"n_bases": len(bases), "n_ife": sum(b.is_interface for b in bases)}


def _count_interface_edges(args, kwargs, result):
    from ppife.geometry import EDGE_INTERFACE
    labels = args[1] if len(args) > 1 else kwargs["edge_labels"]
    return {"n_interface_edges": int(np.count_nonzero(labels == EDGE_INTERFACE))}


def _count_reduced(args, kwargs, result):
    return {"nnz": int(result[0].nnz)}


def _count_krylov(args, kwargs, result):
    A = args[0]
    return {"iterations": result.iterations, "residual": result.residual,
            "n": A.shape[0],
            "csr_bytes": A.data.nbytes + A.indices.nbytes + A.indptr.nbytes}


# (module, attribute its caller looks up, span name, counter)
WRAPS = [
    ("harness", "build_context", "harness.build_context", None),
    ("harness", "solve_scheme", "harness.solve_scheme", None),
    ("harness", "build_mesh", "geometry.build_mesh", None),
    ("harness", "classify_elements", "geometry.classify_elements", _count_cuts),
    ("harness", "classify_edges", "geometry.classify_edges", None),
    ("harness", "build_bases", "local_basis.build_bases", _count_bases),
    ("harness", "l2_error", "postprocess.l2_error", None),
    ("harness", "h1_semi_error", "postprocess.h1_semi_error", None),
    ("harness", "linf_error", "postprocess.linf_error", None),
    ("harness", "energy_error", "postprocess.energy_error", None),
    ("local_basis", "bilinear_ife_basis", "local_basis.ife_basis", None),
    ("local_basis", "linear_ife_basis", "local_basis.ife_basis", None),
    ("assembly", "assemble_volume", "assembly.assemble_volume", None),
    ("assembly", "assemble_edge_terms", "assembly.assemble_edge_terms",
     _count_interface_edges),
    ("assembly", "assemble_load", "assembly.assemble_load", None),
    ("assembly", "apply_dirichlet", "assembly.apply_dirichlet", None),
    ("assembly", "SparseSystem.reduced", "assembly.reduced", _count_reduced),
    ("linsolve", "cg", "linsolve.cg", _count_krylov),
    ("linsolve", "bicgstab", "linsolve.bicgstab", _count_krylov),
    ("verify", "scan_coefficient_bounds", "verify.scan_coefficient_bounds", None),
    ("verify", "scan_trace_ratio", "verify.scan_trace_ratio", None),
    ("verify", "scan_coercivity", "verify.scan_coercivity", None),
    ("verify", "interp_edge_error_study", "verify.interp_edge_error_study", None),
    ("verify", "bilinear_ife_basis", "local_basis.ife_basis", None),
    ("verify", "linear_ife_basis", "local_basis.ife_basis", None),
    ("verify", "build_mesh", "geometry.build_mesh", None),
    ("verify", "classify_elements", "geometry.classify_elements", _count_cuts),
    ("verify", "classify_edges", "geometry.classify_edges", None),
    ("verify", "build_bases", "local_basis.build_bases", _count_bases),
    ("verify", "assemble_volume", "assembly.assemble_volume", None),
    ("verify", "assemble_edge_terms", "assembly.assemble_edge_terms",
     _count_interface_edges),
]

# schemes whose Krylov iterations and residuals are reported by name
SCHEMES = ("spp", "npp")

# metric -> unit, in the order they are printed
PER_LAYER_UNITS = {
    "geometry.build_mesh_s": "s",
    "geometry.classify_elements_s": "s",
    "geometry.classify_edges_s": "s",
    "geometry.n_elements": "count",
    "geometry.n_cut": "count",
    "geometry.cut_frac": "ratio",
    "local_basis.build_bases_s": "s",
    "local_basis.n_bases": "count",
    "local_basis.ife_frac": "ratio",
    "local_basis.ife_builds": "count",
    "local_basis.ife_build_us": "us",
    "assembly.assemble_volume_s": "s",
    "assembly.assemble_edge_terms_s": "s",
    "assembly.assemble_load_s": "s",
    "assembly.apply_dirichlet_s": "s",
    "assembly.nnz": "count",
    "assembly.n_interface_edges": "count",
    "linsolve.cg_s": "s",
    "linsolve.bicgstab_s": "s",
    **{f"linsolve.iters.{s}": "count" for s in SCHEMES},
    **{f"linsolve.residual.{s}": "ratio" for s in SCHEMES},
    "linsolve.matvecs": "count",
    "linsolve.bytes_computed": "B",
    "postprocess.l2_error_s": "s",
    "postprocess.h1_semi_error_s": "s",
    "postprocess.linf_error_s": "s",
    "postprocess.energy_error_s": "s",
    "verify.scan_coefficient_bounds_s": "s",
    "verify.scan_trace_ratio_s": "s",
    "verify.scan_coercivity_s": "s",
    "verify.interp_edge_error_study_s": "s",
    "harness.build_context_s": "s",
    "harness.solve_scheme_s": "s",
    "harness.self_s": "s",
    "trace.overhead_frac": "ratio",
}

# sparse matrix-vector products per Krylov iteration
_MATVECS_PER_ITER = {"linsolve.cg": 1, "linsolve.bicgstab": 2}


def _resolve(module, path):
    """The object that holds the last name of `path`, that name, and the
    object it names now."""
    owner = importlib.import_module(f"ppife.{module}")
    *parents, leaf = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, leaf, getattr(owner, leaf)


class Tracer:
    """Records a span per wrapped call. `case` labels the spans of the
    operation under way, e.g. ``N320/npp``."""

    def __init__(self):
        self.spans = []
        self.absent = []
        self.case = ""
        self._stack = []
        self._ids = itertools.count()
        self._installed = []

    def install(self):
        for module, path, name, count in WRAPS:
            try:
                owner, leaf, original = _resolve(module, path)
            except (ImportError, AttributeError):
                self.absent.append(f"{module}.{path}")
                continue
            setattr(owner, leaf, self._wrap(original, name, count))
            self._installed.append((owner, leaf, original))

    def uninstall(self):
        while self._installed:
            owner, leaf, original = self._installed.pop()
            setattr(owner, leaf, original)

    def _wrap(self, fn, name, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1].sid if self._stack else None
            span = Span(next(self._ids), name, parent, self.case)
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                self.spans.append(span)
            if count is not None:
                t0 = time.perf_counter()
                try:
                    span.counts = count(args, kwargs, result)
                except Exception:  # a renamed field must not stop the run
                    self.absent.append(f"{name}:counts")
                spent = time.perf_counter() - t0
                for open_span in self._stack:
                    open_span.excluded += spent
            return result
        return wrapper

    def write_spans(self, path):
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps({"id": s.sid, "name": s.name, "parent": s.parent,
                                    "case": s.case, "start": s.start, "end": s.end,
                                    "duration": s.duration, "counts": s.counts}) + "\n")


def layer_metrics(spans):
    """Per-layer metrics of one pass from its spans: times in seconds and
    counts summed over every call of the pass, residuals the worst one."""
    busy = defaultdict(float)
    calls = defaultdict(int)
    total = defaultdict(float)
    child_time = defaultdict(float)
    iters = dict.fromkeys(SCHEMES, 0)
    residual = dict.fromkeys(SCHEMES, 0.0)
    matvecs = 0
    bytes_moved = 0
    for s in spans:
        busy[s.name] += s.duration
        calls[s.name] += 1
        for k, v in s.counts.items():
            total[k] += v
        if s.parent is not None:
            child_time[s.parent] += s.duration
        if s.name in _MATVECS_PER_ITER and s.counts:
            scheme = s.case.rpartition("/")[2]
            if scheme in iters:
                iters[scheme] += s.counts["iterations"]
                residual[scheme] = max(residual[scheme], s.counts["residual"])
            mv = _MATVECS_PER_ITER[s.name] * s.counts["iterations"]
            matvecs += mv
            # CSR arrays read plus one vector read and one written per product
            bytes_moved += mv * (s.counts["csr_bytes"] + 16 * s.counts["n"])

    def ratio(num, den):
        return num / den if den else 0.0

    m = {f"{name}_s": busy[name] for name in (
        "geometry.build_mesh", "geometry.classify_elements", "geometry.classify_edges",
        "local_basis.build_bases", "assembly.assemble_volume",
        "assembly.assemble_edge_terms", "assembly.assemble_load",
        "linsolve.cg", "linsolve.bicgstab",
        "postprocess.l2_error", "postprocess.h1_semi_error",
        "postprocess.linf_error", "postprocess.energy_error",
        "verify.scan_coefficient_bounds", "verify.scan_trace_ratio",
        "verify.scan_coercivity", "verify.interp_edge_error_study",
        "harness.build_context", "harness.solve_scheme")}
    m["assembly.apply_dirichlet_s"] = busy["assembly.apply_dirichlet"] + busy["assembly.reduced"]
    m["geometry.n_elements"] = total["n_elements"]
    m["geometry.n_cut"] = total["n_cut"]
    m["geometry.cut_frac"] = ratio(total["n_cut"], total["n_elements"])
    m["local_basis.n_bases"] = total["n_bases"]
    m["local_basis.ife_frac"] = ratio(total["n_ife"], total["n_bases"])
    m["local_basis.ife_builds"] = calls["local_basis.ife_basis"]
    m["local_basis.ife_build_us"] = 1e6 * ratio(busy["local_basis.ife_basis"],
                                                calls["local_basis.ife_basis"])
    m["assembly.nnz"] = total["nnz"]
    m["assembly.n_interface_edges"] = total["n_interface_edges"]
    for scheme in SCHEMES:
        m[f"linsolve.iters.{scheme}"] = iters[scheme]
        m[f"linsolve.residual.{scheme}"] = residual[scheme]
    m["linsolve.matvecs"] = matvecs
    m["linsolve.bytes_computed"] = bytes_moved
    m["harness.self_s"] = sum(s.duration - child_time[s.sid] for s in spans
                              if s.name.startswith("harness."))
    return m


def median_metrics(per_pass):
    """Median of each metric over the passes."""
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
