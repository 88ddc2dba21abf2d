import importlib
import json
from pathlib import Path

import pytest

from hodgebench import __version__
from hodgebench.cli import (
    EXIT_OK,
    EXIT_SOLVER,
    _subparsers,
    build_parser,
    main,
    parse_geometry,
)
from hodgebench.bounds import SphereCase
from hodgebench.fields import named_scalar_field
from hodgebench.meshes import generate_ball, generate_torus, load_mesh, save_tet
from hodgebench.reilly import evaluate_classical_reilly
from test_exit_contract import GEOMETRY_SPEC_ROWS, TOLERANCE_ROWS, run_row
from test_spectrum import _cut_dec
from test_topology_equivalence import _relabelled


def test_parse_geometry_specs():
    assert parse_geometry("icosphere:2").n_vertices == 162
    assert parse_geometry("icosphere:1,2.0").vertices.max() > 1.5
    assert parse_geometry("ellipsoid:1,1,1.2").metadata["semi_axes"] == [1.0, 1.0, 1.2]
    assert parse_geometry("torus:12,8").betti_numbers() == (1, 2, 1)
    case = parse_geometry("sphere:3,2.0")
    assert isinstance(case, SphereCase)
    assert case.radius == 2.0
    for spec in ("klein:1", "ball:1"):  # no subcommand takes a solid
        with pytest.raises(ValueError, match="unknown geometry"):
            parse_geometry(spec)


def test_spectrum_command(tmp_path, capsys):
    code = main(["spectrum", "--geometry", "icosphere:2", "--k", "6", "--out", str(tmp_path)])
    assert code == EXIT_OK
    data = json.loads((tmp_path / "spectrum.json").read_text())
    assert data["version"]
    assert data["config"]["command"] == "spectrum"
    assert len(data["eigenvalues"]) == 6
    lam1 = sorted(v for v in data["eigenvalues"] if v > 1e-6)[0]
    assert abs(lam1 - 2.0) < 0.1
    lines = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert lines[0].startswith("# version=")
    assert lines[1] == "value,family,cluster"
    assert len(lines) == 8
    out = capsys.readouterr().out
    assert "first cluster" in out


def test_spectrum_torus_off_harmonics(tmp_path):
    torus = generate_torus(16, 8)
    off = tmp_path / "torus.off"
    torus.save_off(off)
    code = main(
        ["spectrum", "--mesh", str(off), "--p", "1", "--k", "5", "--out", str(tmp_path)]
    )
    assert code == EXIT_OK
    data = json.loads((tmp_path / "spectrum.json").read_text())
    assert data["families"].count("harmonic") == 2


def test_spectrum_harmonic_count_mismatch_exit_code(tmp_path, capsys, monkeypatch):
    # weights zeroed across a cut give two harmonic functions where b0 = 1
    module = importlib.import_module("hodgebench.spectrum")
    monkeypatch.setattr(module, "assemble_dec", _cut_dec)
    code = main(
        ["spectrum", "--geometry", "icosphere:2", "--k", "6", "--out", str(tmp_path)]
    )
    assert code == EXIT_SOLVER
    assert "harmonic" in capsys.readouterr().err
    assert not (tmp_path / "spectrum.json").exists()


@pytest.mark.parametrize("degree", [0, 1, 2])
def test_spectrum_prolate_ellipsoid_exit_ok(tmp_path, degree):
    # 228 negative cotan weights at subdivision 3, all flipped away
    code = main(
        ["spectrum", "--geometry", "ellipsoid:1,1,2", "--p", str(degree), "--out", str(tmp_path)]
    )
    assert code == EXIT_OK
    data = json.loads((tmp_path / "spectrum.json").read_text())
    if degree == 0:
        assert abs(data["eigenvalues"][1] - 0.7291) / 0.7291 < 1e-3


def test_spectrum_solver_failure_exit_code(tmp_path, capsys, monkeypatch):
    # a negative dual area makes the degree-0 mass indefinite, which the
    # dense eigensolve refuses
    module = importlib.import_module("hodgebench.spectrum")
    real = module.assemble_dec

    def negative_dual_area(mesh):
        dec = real(mesh)
        dec.star0 = dec.star0.copy()
        dec.star0[0] = -1.0
        return dec

    monkeypatch.setattr(module, "assemble_dec", negative_dual_area)
    code = main(["spectrum", "--geometry", "icosphere:1", "--k", "42", "--out", str(tmp_path)])
    assert code == EXIT_SOLVER
    assert "solver error" in capsys.readouterr().err
    assert not (tmp_path / "spectrum.json").exists()


@pytest.mark.parametrize("geometry", ["torus:24,12", "torus:48,24"])
def test_spectrum_torus_two_forms_exit_ok(tmp_path, geometry):
    # the zero dual edges of the grid quads' diagonals are merged across
    code = main(["spectrum", "--geometry", geometry, "--p", "2", "--out", str(tmp_path)])
    assert code == EXIT_OK
    data = json.loads((tmp_path / "spectrum.json").read_text())
    assert data["families"].count("harmonic") == 1


def test_reilly_command_classical(tmp_path, capsys):
    code = main(
        ["reilly", "--field", "linear-x1", "--levels", "1..2", "--out", str(tmp_path)]
    )
    assert code == EXIT_OK
    data = json.loads((tmp_path / "reilly.json").read_text())
    assert data["kind"] == "classical"
    lines = (tmp_path / "reilly_convergence.csv").read_text().splitlines()
    assert lines[0].startswith("# version=")
    assert lines[1] == "level,n_vertices,residual,relative_residual"
    assert len(lines) == 4


def test_reilly_command_pform(tmp_path):
    code = main(["reilly", "--field", "x2dx1", "--levels", "2", "--out", str(tmp_path)])
    assert code == EXIT_OK
    data = json.loads((tmp_path / "reilly.json").read_text())
    assert data["kind"] == "p-form"
    assert data["relative_residual"] < 0.05


def test_reilly_zero_field(tmp_path):
    code = main(["reilly", "--field", "zero", "--levels", "1..2", "--out", str(tmp_path)])
    assert code == EXIT_OK
    data = json.loads((tmp_path / "reilly.json").read_text())
    assert data["lhs"] == 0.0


def test_reilly_on_loaded_tet_mesh(tmp_path):
    from hodgebench.meshes import generate_ball, save_tet

    path = tmp_path / "ball.tet"
    save_tet(generate_ball(2), path)
    code = main(["reilly", "--mesh", str(path), "--field", "x2dx1", "--out", str(tmp_path)])
    assert code == EXIT_OK
    data = json.loads((tmp_path / "reilly.json").read_text())
    assert data["meta"]["shape_source"] == "discrete"
    assert data["relative_residual"] < 0.05


def test_bounds_sphere_suite(tmp_path, capsys):
    code = main(["bounds", "--suite", "spheres", "--out", str(tmp_path)])
    assert code == EXIT_OK
    data = json.loads((tmp_path / "bounds.json").read_text())
    assert all(v["status"] != "violated" for v in data["verdicts"])
    # equalities are tight on spheres
    tight = [v for v in data["verdicts"] if v["name"] == "p_form_lower_bound"]
    assert all(v["tightness"] <= 1e-12 for v in tight)
    out = capsys.readouterr().out
    assert "xia_bound" in out


def test_bounds_theorem_filter(tmp_path):
    code = main(
        ["bounds", "--suite", "spheres", "--theorem", "killing", "--out", str(tmp_path)]
    )
    assert code == EXIT_OK
    data = json.loads((tmp_path / "bounds.json").read_text())
    assert data["verdicts"]
    assert all(v["name"] == "special_killing_eigenvalue" for v in data["verdicts"])


def test_bounds_single_geometry(tmp_path):
    code = main(
        ["bounds", "--geometry", "ellipsoid:1,1,1.2,2", "--out", str(tmp_path)]
    )
    assert code == EXIT_OK
    data = json.loads((tmp_path / "bounds.json").read_text())
    names = {v["name"] for v in data["verdicts"]}
    assert "xia_bound" in names


def test_bounds_ball_suite(tmp_path, capsys):
    code = main(["bounds", "--suite", "balls", "--out", str(tmp_path)])
    assert code == EXIT_OK
    data = json.loads((tmp_path / "bounds.json").read_text())
    assert list(data) == ["verdicts", "version", "config", "equality_diagnostics"]
    assert len(data["equality_diagnostics"]) == 2
    assert all(d["satisfied"] for d in data["equality_diagnostics"])


@pytest.mark.parametrize(
    "argv", [["--geometry", "sphere:3"], ["--suite", "ellipsoids"]], ids=["geometry", "ellipsoids"]
)
def test_bounds_p0_lower_bound_is_inapplicable(tmp_path, argv):
    # p = 0 is a degree of its own, not the default degree 1
    assert main(["bounds", *argv, "--p", "0", "--out", str(tmp_path)]) == EXIT_OK
    data = json.loads((tmp_path / "bounds.json").read_text())
    assert data["config"]["p"] == 0
    lower = [v for v in data["verdicts"] if v["name"] == "p_form_lower_bound"]
    assert lower and all(v["status"] == "inapplicable" and v["geometry"]["p"] == 0 for v in lower)


def test_sphere_suite_reads_tol(tmp_path):
    code = main(["bounds", "--suite", "spheres", "--tol", "0.5", "--out", str(tmp_path)])
    assert code == EXIT_OK
    data = json.loads((tmp_path / "bounds.json").read_text())
    # the special-Killing verdicts too, which stamped 1e-12 whatever --tol said
    assert {v["tolerance"] for v in data["verdicts"]} == {0.5}


def test_reilly_loaded_tet_mesh_scalar_field_matches_library(tmp_path):
    path = tmp_path / "ball.tet"
    save_tet(_relabelled(generate_ball(2), 71), path)
    code = main(["reilly", "--mesh", str(path), "--field", "radial-sq", "--out", str(tmp_path)])
    assert code == EXIT_OK
    data = json.loads((tmp_path / "reilly.json").read_text())
    want = evaluate_classical_reilly(load_mesh(path), named_scalar_field("radial-sq"))
    assert data["kind"] == "classical"
    assert data["terms"] == want.terms
    assert data["lhs"] == want.lhs
    assert data["residual"] == want.residual
    assert data["meta"]["level"] == 0
    rows = (tmp_path / "reilly_convergence.csv").read_text().splitlines()[2:]
    assert rows == [f"0,{want.meta['mesh']['n_vertices']},{want.residual:.16g},{want.relative_residual:.16g}"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("row", GEOMETRY_SPEC_ROWS, ids=[row.id for row in GEOMETRY_SPEC_ROWS])
def test_bad_geometry_spec_exit_2(tmp_path, capsys, row):
    run_row(row, tmp_path, capsys)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("row", TOLERANCE_ROWS, ids=[row.id for row in TOLERANCE_ROWS])
def test_tolerance_not_finite_positive_exit_2(tmp_path, capsys, row):
    run_row(row, tmp_path, capsys)


# every option has a reader: a new one must be added here on purpose
SUBCOMMAND_OPTIONS = {
    "spectrum": {"--geometry", "--mesh", "--out", "--p", "--k", "--cluster-tol"},
    "reilly": {"--mesh", "--out", "--field", "--levels", "--order"},
    "bounds": {"--geometry", "--out", "--tol", "--suite", "--theorem", "--p"},
}


def test_subcommand_option_sets():
    got = {
        name: {s for a in sp._actions for s in a.option_strings} - {"-h", "--help"}
        for name, sp in _subparsers(build_parser()).items()
    }
    assert got == SUBCOMMAND_OPTIONS


def test_config_file_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"geometry": "icosphere:1", "k": 4}))
    code = main(["--config", str(cfg), "spectrum", "--out", str(tmp_path)])
    assert code == EXIT_OK
    data = json.loads((tmp_path / "spectrum.json").read_text())
    assert len(data["eigenvalues"]) == 4


def test_config_yields_to_equals_spelled_flag(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"geometry": "icosphere:1", "k": 4}))
    out = tmp_path / "run"
    code = main(["--config", str(cfg), "spectrum", "--k=6", "--out", str(out)])
    assert code == EXIT_OK
    data = json.loads((out / "spectrum.json").read_text())
    assert len(data["eigenvalues"]) == 6
    assert data["config"]["k"] == 6


def test_config_yields_to_abbreviated_flag(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"geometry": "icosphere:2", "k": 4}))
    out = tmp_path / "run"
    code = main(["--config", str(cfg), "spectrum", "--geom", "icosphere:1", "--out", str(out)])
    assert code == EXIT_OK
    data = json.loads((out / "spectrum.json").read_text())
    assert data["mesh"]["n_vertices"] == 42  # icosphere:1, not the config's icosphere:2
    assert data["config"]["geometry"] == "icosphere:1"


def test_deterministic_outputs(tmp_path):
    out = tmp_path / "run"
    args = ["spectrum", "--geometry", "icosphere:2", "--p", "1", "--k", "6",
            "--out", str(out)]
    assert main(args) == EXIT_OK
    first = (out / "spectrum.json").read_bytes()
    assert main(args) == EXIT_OK
    second = (out / "spectrum.json").read_bytes()
    assert first == second


# ---------------------------------------------------------------------------
# report files: the library's to_dict() keys, then the version and config stamp


GOLDEN_BOUNDS = Path(__file__).parent / "data" / "golden_bounds_spheres.json"
GOLDEN_MESH_BOUNDS = json.loads((Path(__file__).parent / "data" / "golden_bounds_meshes.json").read_text())


def _stamp_line(data):
    return f"# version={data['version']} config={json.dumps(data['config'])}"


def test_spectrum_report_keys_and_stamp(tmp_path):
    assert main(["spectrum", "--geometry", "icosphere:1", "--k", "4", "--out", str(tmp_path)]) == EXIT_OK
    data = json.loads((tmp_path / "spectrum.json").read_text())
    assert list(data) == [
        "degree", "eigenvalues", "families", "clusters", "cluster_ids", "mesh", "zero_tol",
        "cluster_tol", "method", "version", "config",
    ]
    assert data["version"] == __version__
    # the command and the spectrum options, in the parser's order
    assert list(data["config"].items()) == [
        ("command", "spectrum"), ("geometry", "icosphere:1"), ("mesh", None), ("out", str(tmp_path)),
        ("p", 0), ("k", 4), ("cluster_tol", 1e-3),
    ]
    lines = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert lines[0] == _stamp_line(data)


def test_reilly_report_keys_and_stamp(tmp_path):
    argv = ["reilly", "--field", "linear-x1", "--levels", "1", "--out", str(tmp_path)]
    assert main(argv) == EXIT_OK
    data = json.loads((tmp_path / "reilly.json").read_text())
    assert list(data) == [
        "kind", "degree", "lhs", "terms", "rhs_terms", "residual", "relative_residual", "meta",
        "version", "config",
    ]
    assert data["version"] == __version__
    assert list(data["config"].items()) == [
        ("command", "reilly"), ("mesh", None), ("out", str(tmp_path)), ("field", "linear-x1"),
        ("levels", "1"), ("order", 2),
    ]
    lines = (tmp_path / "reilly_convergence.csv").read_text().splitlines()
    assert lines[0] == _stamp_line(data)


def test_csv_lines_end_in_newline_alone(tmp_path):
    # the stamp line and the csv rows share one line ending
    assert main(["spectrum", "--geometry", "icosphere:1", "--k", "4", "--out", str(tmp_path)]) == EXIT_OK
    assert main(["reilly", "--field", "linear-x1", "--levels", "1", "--out", str(tmp_path)]) == EXIT_OK
    for name in ("spectrum.csv", "reilly_convergence.csv"):
        data = (tmp_path / name).read_bytes()
        assert b"\r" not in data
        assert data.endswith(b"\n") and data.count(b"\n") >= 3


def test_bounds_sphere_suite_matches_golden(tmp_path):
    """Byte for byte, with ``config.out`` as the placeholder ``<out>``.  Every
    value of the sphere suite is a closed form, so no platform changes a byte."""
    assert main(["bounds", "--suite", "spheres", "--out", str(tmp_path)]) == EXIT_OK
    out = json.dumps(str(tmp_path)).encode()
    written = (tmp_path / "bounds.json").read_bytes()
    assert written.count(out) == 1
    assert written.replace(out, b'"<out>"') == GOLDEN_BOUNDS.read_bytes()


@pytest.mark.parametrize("key", list(GOLDEN_MESH_BOUNDS))
def test_bounds_mesh_reports_match_golden(tmp_path, key):
    """The mesh verdicts (DEC spectrum, quadric fit) and the ball diagnostics,
    byte for byte with ``config.out`` masked as above, and the exit code.  The
    reports are the same at one and two BLAS threads."""
    golden = GOLDEN_MESH_BOUNDS[key]
    assert main([*golden["argv"], "--out", str(tmp_path)]) == golden["exit_code"]
    out = json.dumps(str(tmp_path)).encode()
    written = (tmp_path / "bounds.json").read_bytes()
    assert written.count(out) == 1
    assert written.replace(out, b'"<out>"') == golden["report"].encode()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
