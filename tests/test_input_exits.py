"""Around inputs that once ended in a traceback, a solver error or a silently
wrong run: what still runs, and the library checks behind the refusals.  The
CLI's exits on those inputs are rows of ``test_exit_contract.py``."""

import json

import pytest

from hodgebench.cli import EXIT_OK, main
from hodgebench.meshes import (
    MeshComplex,
    generate_ball,
    generate_ellipsoid,
    generate_icosphere,
    generate_torus,
    load_mesh,
    save_tet,
)
from test_exit_contract import write_spindle_torus


def test_config_values_convert_like_line_values(tmp_path):
    line, config = tmp_path / "line", tmp_path / "config"
    assert main(["spectrum", "--geometry", "icosphere:1", "--k", "4", "--cluster-tol", "1",
                 "--out", str(line)]) == EXIT_OK
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"geometry": "icosphere:1", "k": "4", "cluster_tol": 1}))
    assert main(["--config", str(cfg), "spectrum", "--out", str(config)]) == EXIT_OK
    got = (config / "spectrum.json").read_text().replace(str(config), "<out>")
    assert got == (line / "spectrum.json").read_text().replace(str(line), "<out>")


@pytest.mark.parametrize("radii", [(1.0, 2.0), (1.0, 1.0), (2.0, 0.0), (2.0, float("nan")), (float("inf"), 1.0)])
def test_torus_refuses_radii_of_no_embedded_torus(radii):
    with pytest.raises(ValueError, match="0 < r < R"):
        generate_torus(8, 6, *radii)


def test_spindle_torus_file_passes_validation(tmp_path):
    # only the intrinsic Delaunay flip finds its degenerate face
    path = tmp_path / "spindle.off"
    write_spindle_torus(path)
    load_mesh(path)


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


def test_reilly_mesh_stamps_default_levels(tmp_path):
    # with --mesh the file is evaluated once; the default levels are stamped
    path = tmp_path / "ball.tet"
    save_tet(generate_ball(1), path)
    assert main(["reilly", "--mesh", str(path), "--out", str(tmp_path / "run")]) == EXIT_OK
    assert json.loads((tmp_path / "run" / "reilly.json").read_text())["config"]["levels"] == "1..3"
