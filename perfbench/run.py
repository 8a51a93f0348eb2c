"""ppife benchmark: one workload, its end-to-end metrics or, with --trace 1,
its per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload solve-rect-hc --seed 7 --seconds 30 --trace 0

The program is imported from ``src/`` (it need not be installed). Passes of
the workload run back to back for about --seconds, after one untimed
warm-up pass at toy size; each pass is timed, and the outputs of the last
pass are checked outside the timed region. End-to-end times are scaled to
a reference machine speed (see calibration.py); the raw ones are printed
too. A traced run spends half of --seconds untraced and half traced. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print each
metric by name with its unit and record the environment.
"""
import os

# One BLAS thread, set before numpy is imported here or in a child: Krylov
# iteration counts depend on the order of the reductions.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy
import scipy

from calibration import Calibration
from tracer import PER_LAYER_UNITS, Tracer, layer_metrics, median_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 7
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "free_dofs_per_s": "1/s",
                    "peak_rss_mb": "MB"}


@dataclass
class PassResult:
    seconds: float
    attempted: int
    raised: int
    free_dofs: int
    peak_rss_mb: float           # process high-water mark after this pass
    layers: dict | None = None
    tick: int | None = None      # calibration tick right before this pass


def measure_setup(cal):
    """Median wall time of fresh interpreters importing numpy, scipy and
    ppife, raw and scaled by the calibration ticks around each."""
    raw, scaled = [], []
    tick = cal.tick()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy, scipy, ppife"],
                       check=True, env=os.environ)
        raw.append(time.perf_counter() - t0)
        next_tick = cal.tick()
        scaled.append(raw[-1] * cal.scale(tick))
        tick = next_tick
    return statistics.median(raw), statistics.median(scaled)


def run_passes(workload, config, seconds, tracer=None, cal=None):
    """Passes back to back, with a calibration tick before each and after the
    last if `cal` is given; another pass starts only if it should end within
    `seconds` of the first. Returns the per-pass results and the operations
    of the last pass, which the gate checks."""
    results = []
    ops = None
    start = time.perf_counter()
    while True:
        tick = cal.tick() if cal else None
        ops = None  # free the previous pass before the next one runs
        first_span = len(tracer.spans) if tracer else 0
        t0 = time.perf_counter()
        ops = workload.run_pass(config, tracer)
        elapsed = time.perf_counter() - t0
        ok = [op for op in ops if op.error is None]
        results.append(PassResult(
            elapsed, len(ops), len(ops) - len(ok), sum(op.free_dofs for op in ok),
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            layer_metrics(tracer.spans[first_span:]) if tracer else None, tick))
        if time.perf_counter() - start + elapsed > seconds:
            if cal:
                cal.tick()
            return results, ops


def tail_percentile(samples):
    """Highest whole percentile with at least ten samples above it, or None."""
    n = len(samples)
    if n < 11:
        return None
    p = (100 * (n - 10)) // n
    return p, statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def environment(args, config):
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload, "seed": args.seed, "toy": args.toy,
        "r0": config.interface_params[2], "rng_seed": config.seed,
    }


def report_ops(ops, stored):
    """Print each failure with its class, and each Krylov iteration count
    next to the stored one."""
    for op in ops:
        if op.error is not None:
            print(f"failed {op.case}: {op.error}")
        elif op.record is not None and stored:
            print(f"iterations {op.case}: {op.record.iterations} "
                  f"(stored {stored.get(op.case, {}).get('iterations')})")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="tiny problem sizes, for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "ppife" / "__init__.py").is_file():
        sys.exit(f"perfbench: no ppife sources under {SRC}")
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)

    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    config = workloads.make_config(workload, args.seed, args.toy)
    canonical = workloads.is_canonical(workload, args.seed, args.toy)
    print("env: " + json.dumps(environment(args, config)))
    # lazy imports and first-call set-up, outside every timed pass
    workload.run_pass(workloads.make_config(workload, workloads.DEFAULT_SEED, toy=True))

    if args.trace:
        untraced, _ = run_passes(workload, config, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced, ops = run_passes(workload, config, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        passes = untraced + traced
        metrics = median_metrics([p.layers for p in traced])
        metrics["trace.overhead_frac"] = (
            statistics.median(p.seconds for p in traced)
            / statistics.median(p.seconds for p in untraced) - 1.0)
        units = PER_LAYER_UNITS
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_spans(spans_path)
        print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
        if tracer.absent:
            print("absent: " + ", ".join(tracer.absent))
    else:
        cal = Calibration()
        setup_raw, setup_s = measure_setup(cal)
        passes, ops = run_passes(workload, config, args.seconds, cal=cal)
        wall = [p.seconds * cal.scale(p.tick) for p in passes]
        wall_s = statistics.median(wall)
        print(f"raw: setup_s = {setup_raw:.6g} s, wall_s = "
              f"{statistics.median(p.seconds for p in passes):.6g} s; scale "
              f"{min(map(cal.scale, range(len(cal.ticks) - 1))):.4g} to "
              f"{max(map(cal.scale, range(len(cal.ticks) - 1))):.4g}")
        metrics = {"setup_s": setup_s, "wall_s": wall_s,
                   "free_dofs_per_s": passes[-1].free_dofs / wall_s,
                   # after the first pass, so it does not depend on the pass count
                   "peak_rss_mb": passes[0].peak_rss_mb}
        units = END_TO_END_UNITS
        tail = tail_percentile(wall)
        print(f"wall_s samples: {len(wall)} passes; tail: "
              + (f"p{tail[0]} = {tail[1]:.4f} s" if tail else
                 "none (a percentile needs at least ten samples beyond it)"))

    metrics = {name: metrics[name] for name in units}
    reference = workloads.load_reference(workload) if canonical else None
    workloads.check(ops, reference)
    report_ops(ops, reference)
    attempted = sum(p.attempted for p in passes)
    # failures that raised in any pass, plus those the gate found in the last
    failed = sum(p.raised for p in passes[:-1]) + sum(op.error is not None for op in ops)
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"fail_frac = {failed / attempted:.6g} ratio ({failed} of {attempted} operations)")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


if __name__ == "__main__":
    main()
