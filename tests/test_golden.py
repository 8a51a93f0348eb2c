"""Byte-for-byte golden outputs of `ppife convergence`.

`runs.csv` and the four `table_*.md` of small convergence studies on both
meshes, at beta+ = 10 and 1e4 with all four schemes, are compared with the
files under `tests/data/golden/`. Those files record the library's numbers;
a change that moves any byte of them must say so. `tests/data/golden/README.md`
names the numpy and scipy versions they came from.

Regenerate them with

    PYTHONPATH=src python tests/test_golden.py
"""
import os

import numpy as np
import pytest
import scipy

from ppife.harness import cmd_convergence, load_config

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden")
CASES = [(mesh, bp) for mesh in ("rect", "tri") for bp in ("10", "1e4")]
FILES = ("runs.csv", "table_l2.md", "table_h1.md", "table_linf.md", "table_energy.md")
N_LIST = "16,32,64"


def _case_dir(mesh, bp):
    return f"{mesh}_b{bp}"


def _run(mesh, bp, out):
    cfg = load_config(None, {"mesh": mesh, "beta_plus": bp, "N": N_LIST,
                             "schemes": "classic,spp,ipp,npp", "out": str(out)})
    cmd_convergence(cfg)


@pytest.mark.parametrize("mesh,bp", CASES)
def test_convergence_outputs_match_golden(mesh, bp, tmp_path, capsys):
    _run(mesh, bp, tmp_path)
    capsys.readouterr()
    versions = f"numpy {np.__version__}, scipy {scipy.__version__}"
    for name in FILES:
        with open(os.path.join(GOLDEN, _case_dir(mesh, bp), name), "rb") as f:
            want = f.read()
        with open(tmp_path / name, "rb") as f:
            got = f.read()
        assert got == want, f"{_case_dir(mesh, bp)}/{name} differs from golden ({versions})"


def regenerate():
    for mesh, bp in CASES:
        out = os.path.join(GOLDEN, _case_dir(mesh, bp))
        _run(mesh, bp, out)
        os.remove(os.path.join(out, "timings.csv"))


if __name__ == "__main__":
    regenerate()
