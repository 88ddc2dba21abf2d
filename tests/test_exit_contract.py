"""The CLI's exit contract as one table: each row is an input, its exit code,
what stderr names and whether a report is written.

Exit 0 is a run that wrote its report; 2 a refused input (a parse, argument,
``--config`` or mesh validation failure); 3 an eigensolver failure.  A
refused run writes no ``--out`` directory, and no run prints a traceback or
a warning.  Every row runs in-process through ``main``; the first row of each
exit code also runs as a process, through the ``sys.exit(main())`` that the
console script wraps.  Exits 3, 4 (a relative residual that grew across
levels) and 5 (a violated bound) need a planted defect, so their tests patch
the library and follow the table; exit 3 also runs as a process.
"""

import importlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackError

import hodgebench
from hodgebench import cli
from hodgebench.bounds import SphereCase
from hodgebench.cli import EXIT_NO_CONVERGENCE, EXIT_VIOLATION, main
from hodgebench.meshes import MeshComplex, generate_ball, generate_icosphere, generate_torus, save_tet
from test_meshes import glue_at_vertex
from test_topology_equivalence import _write_off

pytestmark = pytest.mark.filterwarnings("error")


def write_pinched_spheres(path):
    """Two icospheres glued at one vertex: every edge borders two faces, but
    the glued vertex has two fans."""
    sphere = generate_icosphere(1)
    _write_off(path, *glue_at_vertex(sphere, 0, sphere, 0))


def write_spindle_torus(path):
    """The spindle torus (R=1, r=2) as a file: its nearly meeting vertices are
    7.7e-16 apart, not 0, so it passes validation; a flip then closes a face."""
    u, v = np.meshgrid(2 * np.pi * np.arange(3) / 3, 2 * np.pi * np.arange(3) / 3, indexing="ij")
    rho = 1.0 + 2.0 * np.cos(v)
    verts = np.stack([rho * np.cos(u), rho * np.sin(u), 2.0 * np.sin(v)], axis=-1).reshape(-1, 3)
    MeshComplex(verts, generate_torus(3, 3).cells).save_off(path)


def write_ball(path):
    save_tet(generate_ball(1), path)


def write_icosphere(path):
    generate_icosphere(1).save_off(path)


@dataclass(frozen=True)
class Row:
    id: str
    argv: str  # split on spaces; "{tmp}" is the row's directory, and "--out {tmp}/out" is appended
    exit: int
    stderr: str  # found in stderr
    # written into {tmp} before the run: a dict or list as JSON, a str as
    # text, a callable called with the file's path
    files: dict = field(default_factory=dict)
    report: bool = False  # {tmp}/out/<command>.json is written


# flags and --config values alike: a NaN, infinite or non-positive tolerance
# would reach the verdicts and the reports
TOLERANCE_ROWS = [
    *(
        Row(name, f"{argv} {flag} {value}", 2, "must be a finite positive number")
        for name, argv, flag, value in (
            ("cluster-tol-nan", "spectrum --geometry icosphere:1", "--cluster-tol", "nan"),
            ("tol-nan", "bounds --suite spheres", "--tol", "nan"),
            ("tol-negative", "bounds --suite spheres", "--tol", "-1"),
            ("tol-inf", "bounds --suite spheres", "--tol", "inf"),
        )
    ),
    *(
        Row(f"config-{name}", f"--config {{tmp}}/cfg.json {argv}", 2, "must be a finite positive number",
            {"cfg.json": config})
        for name, argv, config in (
            ("cluster-tol-nan", "spectrum --geometry icosphere:1", {"cluster_tol": float("nan")}),
            ("cluster-tol-0", "spectrum --geometry icosphere:1", {"cluster_tol": 0}),
            ("cluster-tol-null", "spectrum --geometry icosphere:1", {"cluster_tol": None}),
            ("tol-nan", "bounds --suite spheres", {"tol": float("nan")}),
            ("tol-negative", "bounds --suite spheres", {"tol": -1}),
            ("tol-list", "bounds --suite spheres", {"tol": [0.1]}),
            ("tol-huge-int", "bounds --suite spheres", {"tol": 10**400}),
        )
    ),
]

# geometry specs; these ended in ZeroDivisionError, OverflowError, NaN
# verdicts, verdicts for a negative radius, or a silently truncated
# subdivision count
GEOMETRY_SPEC_ROWS = [
    Row("subdiv-1e400", "spectrum --geometry icosphere:1e400", 2, "SUBDIV must be int"),
    Row("subdiv-2.7", "spectrum --geometry icosphere:2.7", 2, "SUBDIV must be int"),
    Row("nu-inf", "spectrum --geometry torus:inf,12", 2, "NU must be int"),
    Row("extra-slot", "spectrum --geometry icosphere:1,1,1", 2, "at most 2 parameters"),
    Row("missing-slot", "spectrum --geometry ellipsoid:1,1", 2, "ellipsoid needs C"),
    Row("n-0", "bounds --geometry sphere:0", 2, "dimension must be >= 1"),
    *(
        Row(name, f"bounds --geometry sphere:2,{radius}", 2, "radius must be finite and positive")
        # a square that overflows, or underflows to 0
        for name, radius in (("radius-0", "0"), ("radius-nan", "nan"), ("radius-negative", "-1"),
                             ("radius-square-overflows", "1e200"), ("radius-square-1e-340", "1e-170"),
                             ("radius-square-1e-600", "1e-300"), ("radius-subnormal", "1e-320"))
    ),
]


CONTRACT = [
    # exit 0 --------------------------------------------------------------
    Row("reilly-x2dx1-levels-1,2", "reilly --field x2dx1 --levels 1,2", 0, "", report=True),
    Row("reilly-x2dx1-level-3", "reilly --field x2dx1 --levels 3", 0, "", report=True),
    Row("reilly-linear-x1-level-3", "reilly --field linear-x1 --levels 3", 0, "", report=True),
    Row("spectrum-icosphere:2-p2", "spectrum --geometry icosphere:2 --p 2", 0, "", report=True),
    Row("spectrum-torus:24,12-p1", "spectrum --geometry torus:24,12 --p 1", 0, "", report=True),
    # exit 2: argparse usage errors -----------------------------------------
    Row("spectrum-tol", "spectrum --geometry icosphere:1 --tol 1", 2, "unrecognized arguments: --tol 1"),
    Row("reilly-tol", "reilly --field linear-x1 --levels 1 --tol 1", 2, "unrecognized arguments: --tol 1"),
    Row("reilly-geometry", "reilly --field linear-x1 --levels 1 --geometry icosphere:3", 2,
        "unrecognized arguments: --geometry icosphere:3"),
    Row("bounds-mesh", "bounds --suite spheres --mesh torus.off", 2, "unrecognized arguments: --mesh torus.off"),
    Row("bounds-suite-and-geometry", "bounds --suite spheres --geometry sphere:3", 2,
        "argument --geometry: not allowed with argument --suite"),
    Row("config-missing-file", "--config {tmp}/absent.json bounds --suite spheres", 2, "absent.json"),
    Row("config-not-an-object", "--config {tmp}/cfg.json spectrum --geometry icosphere:1", 2,
        "expected a JSON object", {"cfg.json": ["k", 4]}),
    *(
        Row(f"config-key-{key}", "--config {tmp}/cfg.json spectrum --geometry icosphere:1", 2,
            f"config keys that are not spectrum options: {key}", {"cfg.json": {key: value}})
        for key, value in (("command", "bounds"), ("tol", 1.0), ("suite", "spheres"))
    ),
    # a --config value is refused as the same value on the line; these ended
    # in SystemError, TypeError, AttributeError, TypeError, and an order-2
    # run stamped "order": 7
    Row("config-k-float", "--config {tmp}/cfg.json spectrum --geometry icosphere:1", 2,
        "argument --k: invalid int value: '1.5'", {"cfg.json": {"k": 1.5}}),
    Row("config-k-bool", "--config {tmp}/cfg.json spectrum --geometry icosphere:1", 2,
        "argument --k: expected a number, got true", {"cfg.json": {"k": True}}),
    Row("config-geometry-int", "--config {tmp}/cfg.json spectrum", 2,
        "argument --geometry: expected a string, got 3", {"cfg.json": {"geometry": 3}}),
    Row("config-levels-int", "--config {tmp}/cfg.json reilly", 2,
        "argument --levels: expected a string, got 5", {"cfg.json": {"levels": 5}}),
    Row("config-order-not-a-choice", "--config {tmp}/cfg.json reilly --levels 1", 2,
        "argument --order: invalid choice: 7", {"cfg.json": {"order": 7}}),
    # exit 2: arguments the subcommand refuses ------------------------------
    Row("reilly-unknown-field", "reilly --field nope", 2, "unknown field 'nope'"),
    Row("reilly-empty-level-range", "reilly --levels 3..1", 2, "no refinement levels in '3..1'"),
    # these named no option: "too many values to unpack", "invalid literal for int()"
    *(
        Row(f"reilly-levels-{name}", f"reilly --levels {levels}", 2,
            f"--levels {levels!r}: expected LO..HI or a list L1,L2,... of ints")
        for name, levels in (("two-ranges", "1..2..3"), ("range-of-letters", "a..b"),
                             ("empty-item", "1,,2"), ("comma", ","))
    ),
    # levels refine generated balls; with --mesh they were silently ignored
    Row("reilly-mesh-levels-flag", "reilly --mesh {tmp}/ball.tet --levels 2", 2,
        "--levels refines generated balls", {"ball.tet": write_ball}),
    Row("reilly-mesh-levels-config", "--config {tmp}/cfg.json reilly --mesh {tmp}/ball.tet", 2,
        "--levels refines generated balls", {"ball.tet": write_ball, "cfg.json": {"levels": "2"}}),
    # a suite refuses the settings it does not read
    Row("bounds-spheres-p", "bounds --suite spheres --p 2", 2, "--suite spheres does not read --p"),
    Row("bounds-balls-tol", "bounds --suite balls --tol 0.1", 2, "--suite balls does not read --tol"),
    Row("bounds-balls-theorem", "bounds --suite balls --theorem xia", 2, "--suite balls does not read --theorem"),
    Row("bounds-balls-p0", "bounds --suite balls --p 0", 2, "p=0 out of range"),
    Row("config-suite-with-line-geometry", "--config {tmp}/cfg.json bounds --geometry sphere:3", 2,
        "give --suite or --geometry, not both", {"cfg.json": {"suite": "spheres"}}),
    *TOLERANCE_ROWS,
    # exit 2: geometry specs ------------------------------------------------
    Row("geometry-ball", "spectrum --geometry ball:1", 2, "unknown geometry 'ball'"),
    *GEOMETRY_SPEC_ROWS,
    # a subnormal square, or n**2 beyond a float: sides of Infinity with NaN
    # slack, an inf side called satisfied, or an OverflowError
    *(
        Row(f"sphere-{name}", f"bounds --geometry sphere:{spec}", 2, "n/radius must be at most 1e154")
        for name, spec in (
            ("radius-1e-155", "2,1e-155"),
            ("radius-1e-160", "2,1e-160"),
            ("n-10**200", 10**200),
            ("n-10**400", 10**400),
        )
    ),
    # exit 2: generated meshes; these ended in ZeroDivisionError, a residual
    # failure (exit 3), a singular factorization (exit 3) or numpy warnings,
    # or meet the checks a generator keeps in place of the full validation
    *(
        Row(f"generator-{spec}", f"spectrum --geometry {spec}", 2, message)
        for spec, message in (
            ("torus:3,3,1,2", "0 < r < R"),
            ("torus:24,12,1,2", "0 < r < R"),
            ("ellipsoid:1,1,1e300", "[degenerate_face]"),
            ("icosphere:3,1e-200", "[degenerate_face]"),
            ("ellipsoid:1,1,nan", "[non_finite_vertices]"),
            ("icosphere:3,1e400", "[non_finite_vertices]"),
            ("ellipsoid:1,1,inf", "[non_finite_vertices]"),
            ("ellipsoid:1e200,1e200,1e200", "[degenerate_face]"),
            # face normals whose norm underflows to 0 though the cross product does not
            ("icosphere:1,1e-160", "[degenerate_face]"),
            ("icosphere:2,1e-100", "[degenerate_face]"),
            ("ellipsoid:1e-150,1e-150,1e-150", "[degenerate_face]"),
            ("ellipsoid:1e-200,1,1", "[degenerate_face]"),
        )
    ),
    # exit 2: mesh files ----------------------------------------------------
    Row("off-index-out-of-range", "spectrum --mesh {tmp}/bad.off", 2, "[bad_index] cell index out of range",
        {"bad.off": "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 5\n"}),
    Row("off-open-tet", "spectrum --mesh {tmp}/open.off", 2, "[not_closed]",
        {"open.off": "OFF\n4 3 0\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n3 0 2 1\n3 0 1 3\n3 1 2 3\n"}),
    # at p = 0 this wrote a negative first Betti number; at p = 1, 2 it was a solver error
    *(
        Row(f"off-pinched-p{p}", f"spectrum --mesh {{tmp}}/pinched.off --p {p}", 2, "[non_manifold_vertex]",
            {"pinched.off": write_pinched_spheres})
        for p in (0, 1, 2)
    ),
    Row("off-spindle-torus", "spectrum --mesh {tmp}/spindle.off", 2, "[degenerate_face] flipping edge",
        {"spindle.off": write_spindle_torus}),
    # a mesh of the other kind: spectra are of surfaces, ledgers of solids
    Row("spectrum-tet-file", "spectrum --mesh {tmp}/ball.tet", 2,
        "[bad_kind] DEC assembly requires a surface mesh", {"ball.tet": write_ball}),
    Row("reilly-off-file", "reilly --mesh {tmp}/ico.off", 2,
        "[bad_kind] a Reilly ledger or Stokes check requires a solid mesh", {"ico.off": write_icosphere}),
    # exit 0: spheres far below unit size.  Solved at their own scale, these
    # failed the eigenpair residual check or ARPACK (error -9: the start
    # vector mapped to zero), first in a traceback, then in exit 3 ----------
    *(
        Row(row_id, f"spectrum --geometry {spec} --p {p}", 0, "", report=True)
        for row_id, spec, p in (
            ("arpack-icosphere:2,1e-70-p0", "icosphere:2,1e-70", 0),
            ("arpack-icosphere:2,1e-60-p1", "icosphere:2,1e-60", 1),
            ("icosphere:2,1e-10-p2", "icosphere:2,1e-10", 2),
            ("icosphere:2,1e-30-p0", "icosphere:2,1e-30", 0),
        )
    ),
    # exit 0: a quadric fit far below unit size.  Fit at its own scale, its
    # columns spanned decades and read as rank-deficient, an exit 2
    Row("fit-ellipsoid:1e-80,2e-80,3e-80", "bounds --geometry ellipsoid:1e-80,2e-80,3e-80", 0, "", report=True),
]


def _argv(row, tmp):
    """Write the row's input files into ``tmp``; return its argv."""
    for name, content in row.files.items():
        path = tmp / name
        if callable(content):
            content(path)
        elif isinstance(content, str):
            path.write_text(content)
        else:
            path.write_text(json.dumps(content))  # NaN is written as the bare token json.load reads
    argv = [tok.replace("{tmp}", str(tmp)) for tok in row.argv.split()]
    return [*argv, "--out", str(tmp / "out")]


def _check(row, tmp, code, err):
    assert code == row.exit, err
    assert row.stderr in err
    assert "Traceback" not in err and "Warning" not in err
    command = next(tok for tok in row.argv.split() if tok in ("spectrum", "reilly", "bounds"))
    assert (tmp / "out" / f"{command}.json").exists() == row.report
    if not row.report:
        assert not (tmp / "out").exists()


def run_row(row, tmp, capsys):
    """Run ``row`` in-process through ``main`` and check what it promises."""
    argv = _argv(row, tmp)
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage error
        code = exc.code
    _check(row, tmp, code, capsys.readouterr().err)


# the geometry-spec and tolerance rows run under their own names in test_cli.py
TABLE_ROWS = [row for row in CONTRACT if row not in GEOMETRY_SPEC_ROWS + TOLERANCE_ROWS]


@pytest.mark.parametrize("row", TABLE_ROWS, ids=[row.id for row in TABLE_ROWS])
def test_contract_row(tmp_path, capsys, row):
    run_row(row, tmp_path, capsys)


# the first row of each exit code, in table order
FIRST_OF_EACH_EXIT = [row for i, row in enumerate(CONTRACT) if row.exit not in {r.exit for r in CONTRACT[:i]}]


def run_process(row, tmp, *python_args):
    """Run ``row`` in a child ``python *python_args`` and check what it promises."""
    # the child imports the package this process imported
    src = str(Path(hodgebench.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = _argv(row, tmp)
    proc = subprocess.run(
        [sys.executable, *python_args, *argv], capture_output=True, text=True, env=env, timeout=300
    )
    _check(row, tmp, proc.returncode, proc.stderr)


@pytest.mark.parametrize("row", FIRST_OF_EACH_EXIT, ids=[f"exit-{row.exit}" for row in FIRST_OF_EACH_EXIT])
def test_contract_row_as_a_process(tmp_path, row):
    run_process(row, tmp_path, "-m", "hodgebench.cli")


# ---------------------------------------------------------------------------
# exits 3, 4 and 5, planted

# ARPACK error -9, a start vector that the shift-invert operator maps to zero
ARPACK_ERROR_ROW = Row("planted-arpack-error", "spectrum --geometry icosphere:2", 3,
                       "solver error: Lanczos failed: ARPACK error -9")


def arpack_error(*args, **kwargs):
    raise ArpackError(-9, {-9: "Starting vector is zero."})


def test_planted_arpack_error_exits_3(tmp_path, capsys, monkeypatch):
    # the package's ``spectrum`` attribute is the function, not the module
    monkeypatch.setattr(importlib.import_module("hodgebench.spectrum"), "eigsh", arpack_error)
    run_row(ARPACK_ERROR_ROW, tmp_path, capsys)


def test_planted_arpack_error_exits_3_as_a_process(tmp_path):
    plant = (
        "import importlib, sys\n"
        "from scipy.sparse.linalg import ArpackError\n"
        "from hodgebench.cli import main\n"
        "def eigsh(*args, **kwargs):\n"
        "    raise ArpackError(-9, {-9: 'Starting vector is zero.'})\n"
        "importlib.import_module('hodgebench.spectrum').eigsh = eigsh\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    run_process(ARPACK_ERROR_ROW, tmp_path, "-c", plant)


def test_planted_violation_exits_5(tmp_path, capsys, monkeypatch):
    # doubled curvatures quadruple the right side of the lower bound, which
    # is tight on a sphere
    sigma = SphereCase.sigma
    monkeypatch.setattr(SphereCase, "sigma", lambda self, p: 2 * sigma(self, p))
    out = tmp_path / "out"
    assert main(["bounds", "--geometry", "sphere:3", "--out", str(out)]) == EXIT_VIOLATION
    assert "VIOLATED: p_form_lower_bound on sphere(n=3, r=1)" in capsys.readouterr().err
    verdicts = json.loads((out / "bounds.json").read_text())["verdicts"]
    assert {v["name"]: v["status"] for v in verdicts}["p_form_lower_bound"] == "violated"


def test_rising_residual_exits_4(tmp_path, capsys, monkeypatch):
    # radial-sq's ledgers of levels 1 and 2 (relative residuals 0.042 and
    # 0.010) handed back finest first: the residual rises from one to the next
    run_levels = cli.run_reilly_levels
    monkeypatch.setattr(cli, "run_reilly_levels", lambda *args: run_levels(*args)[::-1])
    out = tmp_path / "out"
    argv = ["reilly", "--field", "radial-sq", "--levels", "1,2", "--out", str(out)]
    assert main(argv) == EXIT_NO_CONVERGENCE
    assert "relative residual increased across levels" in capsys.readouterr().err
    assert (out / "reilly.json").exists()
    assert (out / "reilly_convergence.csv").exists()
