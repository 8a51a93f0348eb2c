"""Byte-for-byte golden outputs of `ppife convergence` and `ppife verify`.

`runs.csv` and the four `table_*.md` of small convergence studies on both
meshes, at beta+ = 10 and 1e4 with all four schemes, and the `scans.csv` of
`ppife verify` at the benchmark's scan sizes on both meshes, are compared
with the files under `tests/data/golden/`. Those files record the library's numbers;
a change that moves any byte of them must say so. `tests/data/golden/README.md`
names the numpy and scipy versions they came from.

Regenerate them with

    PYTHONPATH=src python tests/test_golden.py
"""
import os

import numpy as np
import pytest
import scipy

from ppife.harness import cmd_convergence, cmd_verify, load_config

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden")
CASES = [(mesh, bp) for mesh in ("rect", "tri") for bp in ("10", "1e4")]
FILES = ("runs.csv", "table_l2.md", "table_h1.md", "table_linf.md", "table_energy.md")
N_LIST = "16,32,64"
VERIFY_MESHES = ("rect", "tri")
VERIFY_SIZES = {"coeff_samples": "120", "trace_samples": "150", "coercivity_ns": "10,20",
                "interp_ns": "20,40,80"}


def _case_dir(mesh, bp):
    return f"{mesh}_b{bp}"


def _run(mesh, bp, out):
    cfg = load_config(None, {"mesh": mesh, "beta_plus": bp, "N": N_LIST,
                             "schemes": "classic,spp,ipp,npp", "out": str(out)})
    cmd_convergence(cfg)


def _run_verify(mesh, out):
    cmd_verify(load_config(None, {"mesh": mesh, "out": str(out), **VERIFY_SIZES}))


def _assert_same(case, names, out):
    versions = f"numpy {np.__version__}, scipy {scipy.__version__}"
    for name in names:
        with open(os.path.join(GOLDEN, case, name), "rb") as f:
            want = f.read()
        with open(out / name, "rb") as f:
            got = f.read()
        assert got == want, f"{case}/{name} differs from golden ({versions})"


@pytest.mark.parametrize("mesh,bp", CASES)
def test_convergence_outputs_match_golden(mesh, bp, tmp_path, capsys):
    _run(mesh, bp, tmp_path)
    capsys.readouterr()
    _assert_same(_case_dir(mesh, bp), FILES, tmp_path)


@pytest.mark.parametrize("mesh", VERIFY_MESHES)
def test_verify_scans_match_golden(mesh, tmp_path, capsys):
    _run_verify(mesh, tmp_path)
    capsys.readouterr()
    _assert_same(f"verify_{mesh}", ("scans.csv",), tmp_path)


def regenerate():
    for mesh, bp in CASES:
        out = os.path.join(GOLDEN, _case_dir(mesh, bp))
        _run(mesh, bp, out)
        os.remove(os.path.join(out, "timings.csv"))
    for mesh in VERIFY_MESHES:
        out = os.path.join(GOLDEN, f"verify_{mesh}")
        _run_verify(mesh, out)
        timings = os.path.join(out, "timings.csv")
        if os.path.exists(timings):
            os.remove(timings)


if __name__ == "__main__":
    regenerate()
