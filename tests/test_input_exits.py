"""Inputs that once ended in a traceback, a solver error or a silently wrong
run: --config values, torus radii, overflowing areas, degenerate flips."""

import json

import numpy as np
import pytest

from hodgebench.cli import EXIT_OK, EXIT_VALIDATION, main
from hodgebench.meshes import (
    MeshComplex,
    generate_ball,
    generate_ellipsoid,
    generate_icosphere,
    generate_torus,
    load_mesh,
    save_tet,
)


def _run_with_config(tmp_path, config, argv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    return main(["--config", str(cfg), *argv])


@pytest.mark.parametrize(
    "config, argv",
    [
        ({"k": 1.5}, ["spectrum", "--geometry", "icosphere:1"]),
        ({"k": True}, ["spectrum", "--geometry", "icosphere:1"]),
        ({"geometry": 3}, ["spectrum"]),
        ({"levels": 5}, ["reilly"]),
        ({"order": 7}, ["reilly", "--levels", "1"]),
    ],
    ids=["k-float", "k-bool", "geometry-int", "levels-int", "order-not-a-choice"],
)
def test_config_value_refused_as_on_the_line(tmp_path, config, argv):
    # these ended in SystemError, TypeError, AttributeError, TypeError, and an
    # order-2 run stamped "order": 7
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        _run_with_config(tmp_path, config, [*argv, "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


def test_config_values_convert_like_line_values(tmp_path):
    line, config = tmp_path / "line", tmp_path / "config"
    assert main(["spectrum", "--geometry", "icosphere:1", "--k", "4", "--cluster-tol", "1",
                 "--out", str(line)]) == EXIT_OK
    assert _run_with_config(tmp_path, {"geometry": "icosphere:1", "k": "4", "cluster_tol": 1},
                            ["spectrum", "--out", str(config)]) == EXIT_OK
    got = (config / "spectrum.json").read_text().replace(str(config), "<out>")
    assert got == (line / "spectrum.json").read_text().replace(str(line), "<out>")


@pytest.mark.parametrize(
    "spec, message",
    [
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
    ],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_generator_input_exits_2(tmp_path, capsys, spec, message):
    # the first three ended in ZeroDivisionError, a residual failure (exit 3)
    # and a singular factorization (exit 3); the others meet the checks a
    # generator keeps in place of the full validation
    out = tmp_path / "run"
    assert main(["spectrum", "--geometry", spec, "--out", str(out)]) == EXIT_VALIDATION
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("radii", [(1.0, 2.0), (1.0, 1.0), (2.0, 0.0), (2.0, float("nan")), (float("inf"), 1.0)])
def test_torus_refuses_radii_of_no_embedded_torus(radii):
    with pytest.raises(ValueError, match="0 < r < R"):
        generate_torus(8, 6, *radii)


def test_spindle_torus_file_flips_to_degenerate_face(tmp_path, capsys):
    # the spindle torus (R=1, r=2) read from a file passes validation: its
    # nearly meeting vertices are 7.7e-16 apart, not 0; a flip then closes a face
    u, v = np.meshgrid(2 * np.pi * np.arange(3) / 3, 2 * np.pi * np.arange(3) / 3, indexing="ij")
    rho = 1.0 + 2.0 * np.cos(v)
    verts = np.stack([rho * np.cos(u), rho * np.sin(u), 2.0 * np.sin(v)], axis=-1).reshape(-1, 3)
    path = tmp_path / "spindle.off"
    MeshComplex(verts, generate_torus(3, 3).cells).save_off(path)
    load_mesh(path)
    out = tmp_path / "run"
    assert main(["spectrum", "--mesh", str(path), "--out", str(out)]) == EXIT_VALIDATION
    assert "[degenerate_face] flipping edge" in capsys.readouterr().err
    assert not out.exists()


def _count_validations(monkeypatch):
    validated = []
    check = MeshComplex.validate
    monkeypatch.setattr(MeshComplex, "validate", lambda self: validated.append(check(self)))
    return validated


GENERATED = {
    "icosphere": lambda: generate_icosphere(2),
    "ellipsoid": lambda: generate_ellipsoid(1.0, 1.1, 1.2, 2),
    "torus": lambda: generate_torus(8, 6),
    "ball": lambda: generate_ball(2),
}


@pytest.mark.parametrize("build", list(GENERATED.values()), ids=list(GENERATED))
def test_generator_runs_no_full_validation(monkeypatch, build):
    # valid by construction: tests/test_generators.py runs the full validation
    validated = _count_validations(monkeypatch)
    build()
    assert validated == []


@pytest.mark.parametrize("suffix", ["off", "tet"])
def test_load_mesh_validates_one_mesh(monkeypatch, tmp_path, suffix):
    path = tmp_path / f"mesh.{suffix}"
    if suffix == "off":
        generate_icosphere(1).save_off(path)
    else:
        save_tet(generate_ball(1), path)
    validated = _count_validations(monkeypatch)
    load_mesh(path)
    assert len(validated) == 1


@pytest.mark.parametrize("given", ["flag", "config"])
def test_reilly_mesh_refuses_levels(tmp_path, capsys, given):
    # levels refine generated balls; with --mesh they were silently ignored
    path = tmp_path / "ball.tet"
    save_tet(generate_ball(1), path)
    argv = ["reilly", "--mesh", str(path), "--out", str(tmp_path / "run")]
    assert main(argv) == EXIT_OK
    assert json.loads((tmp_path / "run" / "reilly.json").read_text())["config"]["levels"] == "1..3"
    capsys.readouterr()
    out = tmp_path / "refused"
    argv[-1] = str(out)
    if given == "flag":
        code = main([*argv, "--levels", "2"])
    else:
        code = _run_with_config(tmp_path, {"levels": "2"}, argv)
    assert code == EXIT_VALIDATION
    assert "--levels" in capsys.readouterr().err
    assert not out.exists()
