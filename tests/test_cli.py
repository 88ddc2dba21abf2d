import importlib
import json
from pathlib import Path

import numpy as np
import pytest

from hodgebench import __version__
from hodgebench.cli import (
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_SOLVER,
    EXIT_VALIDATION,
    EXIT_VIOLATION,
    _subparsers,
    build_parser,
    main,
    parse_geometry,
)
from hodgebench.bounds import GeometryCase
from hodgebench.fields import named_scalar_field
from hodgebench.meshes import (
    MeshComplex,
    generate_ball,
    generate_icosphere,
    generate_torus,
    load_mesh,
    save_tet,
)
from hodgebench.reilly import evaluate_classical_reilly
from test_spectrum import _cut_dec
from test_meshes import glue_at_vertex
from test_topology_equivalence import _relabelled, _write_off


def test_parse_geometry_specs():
    assert parse_geometry("icosphere:2").n_vertices == 162
    assert parse_geometry("icosphere:1,2.0").vertices.max() > 1.5
    assert parse_geometry("ellipsoid:1,1,1.2").metadata["semi_axes"] == [1.0, 1.0, 1.2]
    assert parse_geometry("torus:12,8").betti_numbers() == (1, 2, 1)
    case = parse_geometry("sphere:3,2.0")
    assert isinstance(case, GeometryCase)
    assert case.radius == 2.0
    for spec in ("klein:1", "ball:1"):  # no subcommand takes a solid
        with pytest.raises(ValueError, match="unknown geometry"):
            parse_geometry(spec)


def test_ball_spec_is_unknown_geometry(tmp_path, capsys):
    code = main(["spectrum", "--geometry", "ball:1", "--out", str(tmp_path)])
    assert code == EXIT_VALIDATION
    assert "unknown geometry 'ball'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("p", [0, 1, 2])
def test_spectrum_pinched_mesh_exit_2(tmp_path, capsys, p):
    # at p = 0 this wrote a negative first Betti number; at p = 1, 2 it was a solver error
    sphere = generate_icosphere(1)
    path = tmp_path / "pinched.off"
    _write_off(path, *glue_at_vertex(sphere, 0, sphere, 0))
    out = tmp_path / "out"
    code = main(["spectrum", "--mesh", str(path), "--p", str(p), "--out", str(out)])
    assert code == EXIT_VALIDATION
    assert "[non_manifold_vertex]" in capsys.readouterr().err
    assert not out.exists()


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


def test_spectrum_invalid_mesh_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.off"
    bad.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 5\n")
    code = main(["spectrum", "--mesh", str(bad), "--out", str(tmp_path)])
    assert code == EXIT_VALIDATION
    assert "error" in capsys.readouterr().err


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


@pytest.mark.parametrize("geometry, p", [("icosphere:2,1e-70", 0), ("icosphere:2,1e-60", 1)])
def test_spectrum_arpack_error_exit_code(tmp_path, capsys, geometry, p):
    # the shift-invert operator of so small a sphere maps the start vector
    # to zero (ARPACK error -9), which ended in a traceback
    code = main(["spectrum", "--geometry", geometry, "--p", str(p), "--out", str(tmp_path)])
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


def test_reilly_unknown_field(tmp_path, capsys):
    code = main(["reilly", "--field", "nope", "--out", str(tmp_path)])
    assert code == EXIT_VALIDATION


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


def test_bounds_ball_suite_p0_exits_2(tmp_path, capsys):
    assert main(["bounds", "--suite", "balls", "--p", "0", "--out", str(tmp_path)]) == EXIT_VALIDATION
    assert "p=0 out of range" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_sphere_suite_reads_tol(tmp_path):
    code = main(["bounds", "--suite", "spheres", "--tol", "0.5", "--out", str(tmp_path)])
    assert code == EXIT_OK
    data = json.loads((tmp_path / "bounds.json").read_text())
    # the special-Killing verdicts too, which stamped 1e-12 whatever --tol said
    assert {v["tolerance"] for v in data["verdicts"]} == {0.5}


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse usage error
        return exc.code


@pytest.mark.parametrize(
    "argv",
    [
        ["--suite", "spheres", "--p", "2"],
        ["--suite", "balls", "--tol", "0.1"],
        ["--suite", "balls", "--theorem", "xia"],
        ["--suite", "spheres", "--geometry", "sphere:3"],
    ],
    ids=["spheres-p", "balls-tol", "balls-theorem", "suite-and-geometry"],
)
def test_bounds_settings_the_run_does_not_read_exit_2(tmp_path, argv):
    assert _exit_code(["bounds", *argv, "--out", str(tmp_path)]) == 2
    assert list(tmp_path.iterdir()) == []


def test_config_suite_with_line_geometry_exits_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suite": "spheres"}))
    out = tmp_path / "out"
    code = main(["--config", str(cfg), "bounds", "--geometry", "sphere:3", "--out", str(out)])
    assert code == EXIT_VALIDATION
    assert not out.exists()


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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bounds", "--geometry", "sphere:2,0"], "radius must be finite and positive"),
        (["bounds", "--geometry", "sphere:2,nan"], "radius must be finite and positive"),
        (["bounds", "--geometry", "sphere:2,-1"], "radius must be finite and positive"),
        (["bounds", "--geometry", "sphere:0"], "dimension must be >= 1"),
        (["spectrum", "--geometry", "icosphere:1e400"], "SUBDIV must be int"),
        (["spectrum", "--geometry", "icosphere:2.7"], "SUBDIV must be int"),
        (["spectrum", "--geometry", "torus:inf,12"], "NU must be int"),
        (["spectrum", "--geometry", "icosphere:1,1,1"], "at most 2 parameters"),
        (["spectrum", "--geometry", "ellipsoid:1,1"], "ellipsoid needs C"),
        (["bounds", "--geometry", "sphere:2,1e200"], "radius must be finite and positive"),
        (["bounds", "--geometry", "sphere:2,1e-170"], "radius must be finite and positive"),
        (["bounds", "--geometry", "sphere:2,1e-300"], "radius must be finite and positive"),
        (["bounds", "--geometry", "sphere:2,1e-320"], "radius must be finite and positive"),
    ],
    ids=["radius-0", "radius-nan", "radius-negative", "n-0", "subdiv-1e400", "subdiv-2.7",
         "nu-inf", "extra-slot", "missing-slot", "radius-square-overflows", "radius-square-1e-340",
         "radius-square-1e-600", "radius-subnormal"],
)
def test_bad_geometry_spec_exit_2(tmp_path, capsys, argv, message):
    # these ended in ZeroDivisionError, OverflowError, NaN verdicts, verdicts
    # for a negative radius, or a silently truncated subdivision count; a
    # radius whose square overflows or vanishes ended in OverflowError or
    # ZeroDivisionError
    code = main([*argv, "--out", str(tmp_path)])
    assert code == EXIT_VALIDATION
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, config",
    [
        (["spectrum", "--geometry", "icosphere:1", "--cluster-tol", "nan"], None),
        (["spectrum", "--geometry", "icosphere:1"], {"cluster_tol": float("nan")}),
        (["spectrum", "--geometry", "icosphere:1"], {"cluster_tol": 0}),
        (["bounds", "--suite", "spheres", "--tol", "nan"], None),
        (["bounds", "--suite", "spheres", "--tol", "-1"], None),
        (["bounds", "--suite", "spheres", "--tol", "inf"], None),
        (["bounds", "--suite", "spheres"], {"tol": float("nan")}),
        (["bounds", "--suite", "spheres"], {"tol": -1}),
        (["bounds", "--suite", "spheres"], {"tol": [0.1]}),
        (["bounds", "--suite", "spheres"], {"tol": 10**400}),
        (["spectrum", "--geometry", "icosphere:1"], {"cluster_tol": None}),
    ],
    ids=["cluster-tol-nan", "config-cluster-tol-nan", "config-cluster-tol-0", "tol-nan",
         "tol-negative", "tol-inf", "config-tol-nan", "config-tol-negative", "config-tol-list", "config-tol-huge-int",
         "config-cluster-tol-null"],
)
def test_tolerance_not_finite_positive_exit_2(tmp_path, capsys, argv, config):
    out = tmp_path / "run"
    prefix = []
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))  # NaN is written as the bare token json.load reads
        prefix = ["--config", str(cfg)]
    code = main([*prefix, *argv, "--out", str(out)])
    assert code == EXIT_VALIDATION
    assert "must be a finite positive number" in capsys.readouterr().err
    assert not out.exists()


def test_reilly_empty_level_range(tmp_path, capsys):
    code = main(["reilly", "--levels", "3..1", "--out", str(tmp_path)])
    assert code == EXIT_VALIDATION
    assert "no refinement levels" in capsys.readouterr().err
    assert not (tmp_path / "reilly.json").exists()


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


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--geometry", "icosphere:1", "--tol", "1"],
        ["reilly", "--field", "linear-x1", "--levels", "1", "--tol", "1"],
        ["reilly", "--field", "linear-x1", "--levels", "1", "--geometry", "icosphere:3"],
        ["bounds", "--suite", "spheres", "--mesh", "torus.off"],
    ],
    ids=["spectrum-tol", "reilly-tol", "reilly-geometry", "bounds-mesh"],
)
def test_option_of_another_subcommand_is_usage_error(tmp_path, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize(
    "values", [{"command": "bounds"}, {"tol": 1.0}, {"suite": "spheres"}, ["k", 4]]
)
def test_config_keys_outside_the_subcommand_are_usage_errors(tmp_path, values):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg), "spectrum", "--geometry", "icosphere:1", "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


def test_missing_config_file_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(tmp_path / "absent.json"), "bounds", "--suite", "spheres",
              "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []


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


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
