"""Byte-for-byte golden outputs of `ppife convergence` and `ppife verify`.

`runs.csv` and the four `table_*.md` of small convergence studies on both
meshes, at beta+ = 10 and 1e4 with all four schemes, and the `scans.csv` of
`ppife verify` at the benchmark's scan sizes on both meshes, are compared
with the files under `tests/data/golden/`. Those files record the library's numbers;
a change that moves any byte of them must say so. `tests/data/golden/README.md`
names the numpy and scipy versions they came from. A mismatch in a CSV file
is reported at its first differing row, by the row's key columns, and
column, with the old and new values.

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
# the columns that name a row of each CSV file, in a mismatch's report
CSV_KEYS = {"runs.csv": ("scheme", "N"), "scans.csv": ("scan", "key")}
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


def _first_difference(name, want, got):
    """Where `got` first leaves `want`: for a CSV file with key columns, the
    row by its keys, the column and the old and new values; otherwise the
    byte index."""
    if name not in CSV_KEYS:
        at = next((i for i, (a, b) in enumerate(zip(want, got)) if a != b),
                  min(len(want), len(got)))
        return f"at byte {at}"
    old, new = ([row.split(",") for row in text.decode().splitlines()] for text in (want, got))
    header = old[0]

    def cell(row, k):
        return row[k] if k < len(row) else "(missing)"
    for i, (a, b) in enumerate(zip(old, new)):
        if a != b:
            k = next((k for k, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
            where = "header" if i == 0 else ", ".join(
                f"{key} {cell(a, header.index(key))}" for key in CSV_KEYS[name])
            return f"at {where}, column {cell(header, k)}: {cell(a, k)} -> {cell(b, k)}"
    return f"in its row count: {len(old)} -> {len(new)}"


def _assert_same(case, names, out):
    versions = f"numpy {np.__version__}, scipy {scipy.__version__}"
    for name in names:
        with open(os.path.join(GOLDEN, case, name), "rb") as f:
            want = f.read()
        with open(out / name, "rb") as f:
            got = f.read()
        assert got == want, (f"{case}/{name} differs from golden "
                             f"{_first_difference(name, want, got)} ({versions})")


def test_a_mismatch_report_names_its_row_and_column():
    want = b"scheme,mesh,N,e_l2\nclassic,rect,16,1.0\nspp,rect,16,2.0\n"
    assert (_first_difference("runs.csv", want, want.replace(b"2.0", b"2.5"))
            == "at scheme spp, N 16, column e_l2: 2.0 -> 2.5")
    assert _first_difference("runs.csv", want, want + b"npp,rect,16,3.0\n") == (
        "in its row count: 3 -> 4")
    assert _first_difference("table_l2.md", b"| 1.0 |", b"| 1.5 |") == "at byte 4"


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
