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

or list every difference from them, writing nothing (exit 1 if any), with

    PYTHONPATH=src python tests/test_golden.py --check

which ends with one line per changed CSV column: its count of changed
cells and its largest relative change, with that cell's row.
"""
import contextlib
import io
import math
import os
import sys
import tempfile

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


def _changed_cells(name, want, got):
    """Every cell of CSV file `name` that differs between `want` and `got`,
    as (its row's keys, or "header", its column, old value, new value)."""
    old, new = ([row.split(",") for row in text.decode().splitlines()] for text in (want, got))
    header = old[0]

    def cell(row, k):
        return row[k] if k < len(row) else "(missing)"
    for i, (a, b) in enumerate(zip(old, new)):
        where = "header" if i == 0 else ", ".join(
            f"{key} {cell(a, header.index(key))}" for key in CSV_KEYS[name])
        for k in range(max(len(a), len(b))):
            if cell(a, k) != cell(b, k):
                yield where, cell(header, k), cell(a, k), cell(b, k)


def _differences(name, want, got):
    """Where `got` leaves `want`: for a CSV file with key columns, every
    differing cell, by its row's keys and its column, with the old and new
    values, then any change of the row count; otherwise the first differing
    byte. Empty when they are equal."""
    if want == got:
        return []
    if name not in CSV_KEYS:
        at = next((i for i, (a, b) in enumerate(zip(want, got)) if a != b),
                  min(len(want), len(got)))
        return [f"at byte {at}"]
    out = [f"at {where}, column {column}: {a} -> {b}"
           for where, column, a, b in _changed_cells(name, want, got)]
    rows = [text.count(b"\n") for text in (want, got)]
    if rows[0] != rows[1]:
        out.append(f"in its row count: {rows[0]} -> {rows[1]}")
    return out


def _relative_change(old, new):
    """|new - old| / |old| of two numeric cells; inf where either is not a
    number or old is 0."""
    try:
        a, b = float(old), float(new)
    except ValueError:
        return math.inf
    return abs(b - a) / abs(a) if a else math.inf


def _largest_changes(changes):
    """One line per column among `changes`, (case/file, row keys, column,
    old, new) in order: its count of changed cells and its largest
    relative change, with that cell's row and values."""
    by_column = {}
    for place, where, column, a, b in changes:
        count, worst = by_column.get(column, (0, None))
        rel = _relative_change(a, b)
        if worst is None or rel > worst[0]:
            worst = (rel, place, where, a, b)
        by_column[column] = (count + 1, worst)
    return [f"column {column}: {count} cells changed, largest relative change {rel:.2e} "
            f"at {place} {where}: {a} -> {b}"
            for column, (count, (rel, place, where, a, b)) in by_column.items()]


def _first_difference(name, want, got):
    """The first of the `_differences` of `got` from `want`."""
    return _differences(name, want, got)[0]


def _golden_and_new(case, name, out):
    """The bytes of golden file `name` of `case` and of the one a run wrote to `out`."""
    with open(os.path.join(GOLDEN, case, name), "rb") as want, \
            open(os.path.join(out, name), "rb") as got:
        return want.read(), got.read()


def _assert_same(case, names, out):
    versions = f"numpy {np.__version__}, scipy {scipy.__version__}"
    for name in names:
        want, got = _golden_and_new(case, name, out)
        assert got == want, (f"{case}/{name} differs from golden "
                             f"{_first_difference(name, want, got)} ({versions})")


def test_a_mismatch_report_names_its_row_and_column():
    want = b"scheme,mesh,N,e_l2\nclassic,rect,16,1.0\nspp,rect,16,2.0\n"
    assert (_first_difference("runs.csv", want, want.replace(b"2.0", b"2.5"))
            == "at scheme spp, N 16, column e_l2: 2.0 -> 2.5")
    assert _first_difference("runs.csv", want, want + b"npp,rect,16,3.0\n") == (
        "in its row count: 3 -> 4")
    assert _first_difference("table_l2.md", b"| 1.0 |", b"| 1.5 |") == "at byte 4"


def test_a_check_reports_every_changed_row():
    want = (b"scan,key,value\ncoercivity,min_N10,1.0\ncoercivity,min_N20,2.0\n"
            b"interp_edge_error,sum_N20,3.0\n")
    got = want.replace(b"1.0", b"1.5").replace(b"3.0", b"3.5")
    assert _differences("scans.csv", want, got) == [
        "at scan coercivity, key min_N10, column value: 1.0 -> 1.5",
        "at scan interp_edge_error, key sum_N20, column value: 3.0 -> 3.5"]
    assert _differences("scans.csv", want, want) == []


def test_a_check_ends_with_the_largest_change_of_each_column():
    want = b"scheme,mesh,N,e_l2,iterations\nspp,rect,16,1.0,5\nnpp,rect,16,2.0,6\n"
    got = b"scheme,mesh,N,e_l2,iterations\nspp,rect,16,1.5,5\nnpp,rect,16,2.2,7\n"
    changes = [("c/runs.csv", *cell) for cell in _changed_cells("runs.csv", want, got)]
    assert _largest_changes(changes) == [
        "column e_l2: 2 cells changed, largest relative change 5.00e-01 "
        "at c/runs.csv scheme spp, N 16: 1.0 -> 1.5",
        "column iterations: 1 cells changed, largest relative change 1.67e-01 "
        "at c/runs.csv scheme npp, N 16: 6 -> 7"]
    assert _relative_change("0", "1e-30") == _relative_change("x", "y") == math.inf


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


def _golden_cases():
    """(directory, compared files, run into a directory) of every golden case."""
    for mesh, bp in CASES:
        yield _case_dir(mesh, bp), FILES, lambda out, mesh=mesh, bp=bp: _run(mesh, bp, out)
    for mesh in VERIFY_MESHES:
        yield f"verify_{mesh}", ("scans.csv",), lambda out, mesh=mesh: _run_verify(mesh, out)


def regenerate():
    for case, _, run in _golden_cases():
        out = os.path.join(GOLDEN, case)
        run(out)
        os.remove(os.path.join(out, "timings.csv"))


def check():
    """Run every golden case into a temporary directory and print each of
    its `_differences` from the golden files, then, per changed CSV column,
    its `_largest_changes` line; 1 if there is any difference, else 0."""
    found, changes = 0, []
    with tempfile.TemporaryDirectory() as tmp:
        for case, names, run in _golden_cases():
            out = os.path.join(tmp, case)
            with contextlib.redirect_stdout(io.StringIO()):
                run(out)
            for name in names:
                want, got = _golden_and_new(case, name, out)
                for line in _differences(name, want, got):
                    print(f"{case}/{name} {line}")
                    found += 1
                if name in CSV_KEYS and want != got:
                    changes += [(f"{case}/{name}", *cell)
                                for cell in _changed_cells(name, want, got)]
    for line in _largest_changes(changes):
        print(line)
    return 1 if found else 0


if __name__ == "__main__":
    if sys.argv[1:] not in ([], ["--check"]):
        sys.exit("usage: python tests/test_golden.py [--check]")
    sys.exit(check() if sys.argv[1:] else regenerate())
