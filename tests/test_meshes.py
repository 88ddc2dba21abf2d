import tracemalloc

import numpy as np
import pytest

import seed_oracle as oracle
from hodgebench.bounds import MeshCase, equality_case_diagnostics
from hodgebench.fields import FormField, named_form_field, named_scalar_field
from hodgebench.meshes import (
    MeshComplex,
    MeshError,
    boundary_surface,
    discrete_shape,
    ellipsoid_principal_curvatures,
    generate_ball,
    generate_ellipsoid,
    generate_icosphere,
    generate_torus,
    load_mesh,
    save_tet,
)
from hodgebench.reilly import check_stokes, evaluate_classical_reilly, evaluate_reilly
from hodgebench.spectrum import assemble_dec, spectrum

OFF_CUBE = """OFF
8 12 0
-1 -1 -1
 1 -1 -1
 1  1 -1
-1  1 -1
-1 -1  1
 1 -1  1
 1  1  1
-1  1  1
3 0 1 2
3 0 2 3
3 4 6 5
3 4 7 6
3 0 4 5
3 0 5 1
3 1 5 6
3 1 6 2
3 2 6 7
3 2 7 3
3 3 7 4
3 3 4 0
"""


# ---------------------------------------------------------------------------
# generators


def test_icosahedron_counts():
    mesh = generate_icosphere(0, 1.0)
    assert mesh.n_vertices == 12
    assert mesh.n_cells == 20
    assert mesh.euler_characteristic() == 2


@pytest.mark.parametrize("s", [0, 1, 2, 3])
def test_icosphere_vertex_count(s):
    mesh = generate_icosphere(s, 1.0)
    assert mesh.n_vertices == 10 * 4**s + 2
    assert mesh.n_cells == 20 * 4**s


def test_icosphere_projection_radius():
    mesh = generate_icosphere(3, 2.0)
    assert np.allclose(np.linalg.norm(mesh.vertices, axis=1), 2.0, atol=1e-12)


def test_icosphere_oriented_outward():
    # enclosed volume positive means consistent outward orientation
    assert generate_icosphere(2, 1.0).volume() > 0


def test_ellipsoid_identity_case():
    sphere = generate_icosphere(2, 1.0)
    ell = generate_ellipsoid(1.0, 1.0, 1.0, 2)
    assert np.allclose(ell.vertices, sphere.vertices)
    assert np.array_equal(ell.cells, sphere.cells)


def test_ball_boundary_matches_icosphere():
    ball = generate_ball(2)
    sphere = generate_icosphere(2, 1.0)
    assert ball.boundary_faces.shape[0] == sphere.n_cells
    surf, used = ball.boundary_mesh()
    assert surf.n_vertices == sphere.n_vertices
    assert np.allclose(ball.vertices[used], sphere.vertices, atol=1e-12)
    # combinatorially the same triangulation
    assert np.array_equal(surf.cells, sphere.cells)


def test_boundary_mesh_is_not_validated_again(monkeypatch):
    # the solid's validation has already checked its boundary faces as a closed surface
    ball = generate_ball(2)
    checked = []
    check = MeshComplex._validate_surface

    def counted(self, faces):
        checked.append(len(faces))
        return check(self, faces)

    monkeypatch.setattr(MeshComplex, "_validate_surface", counted)
    surf, _ = ball.boundary_mesh()
    assert checked == []
    surf.validate()
    assert checked == [surf.n_cells]


def test_boundary_surface_only_for_generated_balls():
    ball = generate_ball(1)
    assert boundary_surface(ball).radius == 1.0
    copy = MeshComplex(ball.vertices, ball.cells, boundary_faces=ball.boundary_faces)
    for mesh in (copy, ball.boundary_mesh()[0], generate_icosphere(1)):
        assert boundary_surface(mesh) is None


def test_ball_volume_converges():
    vol = generate_ball(3).volume()
    assert abs(vol - 4 * np.pi / 3) / (4 * np.pi / 3) < 0.02


def test_ball_validates():
    # generation skips the full validation: positive tets, closed oriented boundary
    ball = generate_ball(1)
    ball.validate()
    assert ball.kind == "solid"
    assert ball.volume() > 0


@pytest.mark.parametrize("layers", [0, -2])
def test_ball_refuses_layers_below_one(layers):
    with pytest.raises(ValueError, match="layers must be >= 1"):
        generate_ball(1, layers)


def test_torus_topology():
    torus = generate_torus(16, 8)
    assert torus.euler_characteristic() == 0
    assert torus.betti_numbers() == (1, 2, 1)  # genus 1


def disjoint_union(a, b):
    """Two surface meshes as one mesh with two components."""
    return MeshComplex(np.vstack([a.vertices, b.vertices]), np.vstack([a.cells, b.cells + a.n_vertices]))


def test_merge_components():
    a = generate_icosphere(1, 1.0)
    b = MeshComplex(a.vertices + np.array([5.0, 0.0, 0.0]), a.cells)
    both = disjoint_union(a, b)
    assert both.betti_numbers() == (2, 0, 2)


def glue_at_vertex(a, i, b, j):
    """Vertices and faces of surfaces a and b with b's vertex j merged into
    a's vertex i (b translated to touch a there): a pinched surface."""
    keep = np.arange(b.n_vertices) != j
    new_id = np.empty(b.n_vertices, dtype=np.int64)
    new_id[keep] = a.n_vertices + np.arange(b.n_vertices - 1)
    new_id[j] = i
    moved = b.vertices - b.vertices[j] + a.vertices[i]
    return np.vstack([a.vertices, moved[keep]]), np.vstack([a.cells, new_id[b.cells]])


def test_pinched_spheres_are_non_manifold_vertex():
    # every edge borders two faces, but vertex 0 has two separate fans
    a = generate_icosphere(1)
    verts, faces = glue_at_vertex(a, 0, a, 0)
    with pytest.raises(MeshError) as err:
        MeshComplex(verts, faces)
    assert str(err.value) == "[non_manifold_vertex] the faces at vertex 0 form 2 fans that share only the vertex"


# ---------------------------------------------------------------------------
# discrete shape operator


def test_sphere_curvature_accuracy():
    mesh = generate_icosphere(4, 1.0)
    shape = discrete_shape(mesh)
    assert abs(shape.principal.mean() - 1.0) < 0.02
    assert np.abs(shape.principal - 1.0).max() < 0.02


def test_sphere_curvature_converges():
    errs = []
    for s in (2, 3, 4):
        shape = discrete_shape(generate_icosphere(s, 1.0))
        errs.append(np.abs(shape.principal - 1.0).max())
    assert errs[1] < 0.7 * errs[0]
    assert errs[2] < 0.7 * errs[1]


def _uv_sphere(bands, longitudes):
    """Unit UV sphere: two poles of valence ``longitudes`` and ``bands - 1``
    latitude circles, outward CCW."""
    theta = np.pi * np.arange(1, bands) / bands
    phi = 2 * np.pi * np.arange(longitudes) / longitudes
    circles = np.stack(
        np.broadcast_arrays(
            np.sin(theta)[:, None] * np.cos(phi), np.sin(theta)[:, None] * np.sin(phi), np.cos(theta)[:, None]
        ),
        axis=-1,
    )
    verts = np.vstack([[0.0, 0.0, 1.0], circles.reshape(-1, 3), [0.0, 0.0, -1.0]])
    j = np.arange(longitudes)
    j1 = (j + 1) % longitudes
    faces = [np.column_stack([np.zeros_like(j), 1 + j, 1 + j1])]
    for k in range(bands - 2):
        a, b = 1 + k * longitudes + j, 1 + k * longitudes + j1
        faces += [np.column_stack([a, a + longitudes, b + longitudes]), np.column_stack([a, b + longitudes, b])]
    last = 1 + (bands - 2) * longitudes
    faces.append(np.column_stack([np.full_like(j, len(verts) - 1), last + j1, last + j]))
    return MeshComplex(verts, np.vstack(faces))


def test_high_valence_pole_is_fit_from_two_rings():
    # the 16 neighbours of a pole lie on one circle, which no quadric through
    # them determines: the fit needs the second ring (with one ring it raises
    # degenerate_ring).  Every other surface of the tests has valence <= 6,
    # so its rings grow to two rings through min_size anyway.
    mesh = _uv_sphere(12, 16)
    shape = discrete_shape(mesh)
    for pole in (0, mesh.n_vertices - 1):
        # 1.0917 for 15-degree latitude bands
        assert np.abs(shape.principal[pole] - 1.0).max() < 0.1


def test_sphere_radius_scaling():
    # the fit is scale-equivariant: doubling the radius halves the curvatures
    s1 = discrete_shape(generate_icosphere(2, 1.0))
    s2 = discrete_shape(generate_icosphere(2, 2.0))
    assert np.allclose(s2.principal, s1.principal / 2.0, atol=1e-10)


def test_ellipsoid_against_closed_form():
    mesh = generate_ellipsoid(1.0, 1.0, 2.0, 3)
    shape = discrete_shape(mesh)
    oracle = ellipsoid_principal_curvatures(mesh.vertices, (1.0, 1.0, 2.0))
    err = np.abs(shape.principal - oracle)
    assert err.max() < 0.15
    assert np.median(err) < 0.05


def test_ellipsoid_closed_form_at_pole():
    # prolate (1,1,2): both curvatures c/a^2 = 2 at the pole (0,0,2)
    kappa = ellipsoid_principal_curvatures(np.array([[0.0, 0.0, 2.0]]), (1.0, 1.0, 2.0))
    assert np.allclose(kappa, 2.0)


def test_flat_patch_zero_curvature():
    # open grid patch: the quadric fit does not read closedness, so it is not validated
    k = 7
    xs, ys = np.meshgrid(np.arange(k), np.arange(k))
    verts = np.stack([xs.ravel(), ys.ravel(), np.zeros(k * k)], axis=1) * 0.3
    faces = []
    for i in range(k - 1):
        for j in range(k - 1):
            a = i * k + j
            faces.append([a, a + 1, a + k])
            faces.append([a + 1, a + k + 1, a + k])
    patch = MeshComplex(verts, np.asarray(faces), validate=False)
    shape = discrete_shape(patch)
    assert np.abs(shape.principal).max() < 1e-8


def test_shape_matrices_symmetric_normals_unit():
    shape = discrete_shape(generate_icosphere(2, 1.0))
    assert np.allclose(shape.shape, shape.shape.transpose(0, 2, 1))
    assert np.allclose(np.linalg.norm(shape.normals, axis=1), 1.0, atol=1e-8)
    # inner normals of a sphere point toward the center
    mesh = generate_icosphere(2, 1.0)
    assert (np.einsum("ij,ij->i", shape.normals, mesh.vertices) < 0).all()


# ---------------------------------------------------------------------------
# validation


def test_flipped_face_detected():
    verts, faces = generate_icosphere(0, 1.0).vertices, generate_icosphere(0, 1.0).cells.copy()
    faces[0] = faces[0][::-1]
    with pytest.raises(MeshError) as err:
        MeshComplex(verts, faces)
    assert err.value.code == "inconsistent_orientation"


def test_unreferenced_vertex_detected():
    mesh = generate_icosphere(0, 1.0)
    verts = np.vstack([mesh.vertices, [[9.0, 9.0, 9.0]]])
    with pytest.raises(MeshError) as err:
        MeshComplex(verts, mesh.cells)
    assert err.value.code == "unreferenced_vertices"


def test_non_manifold_edge_detected():
    mesh = generate_icosphere(0, 1.0)
    faces = np.vstack([mesh.cells, mesh.cells[:1]])
    with pytest.raises(MeshError) as err:
        MeshComplex(mesh.vertices, faces)
    assert err.value.code == "non_manifold_edge"


def test_open_surface_rejected_when_closed_required():
    mesh = generate_icosphere(0, 1.0)
    with pytest.raises(MeshError) as err:
        MeshComplex(mesh.vertices, mesh.cells[:-1])
    assert err.value.code in ("not_closed", "unreferenced_vertices")


# ---------------------------------------------------------------------------
# file IO


def test_off_cube_roundtrip(tmp_path):
    path = tmp_path / "cube.off"
    path.write_text(OFF_CUBE)
    mesh = load_mesh(path)
    assert mesh.n_vertices == 8
    assert mesh.n_cells == 12
    assert mesh.euler_characteristic() == 2

    out = tmp_path / "cube2.off"
    mesh.save_off(out)
    again = load_mesh(out)
    assert np.allclose(again.vertices, mesh.vertices)
    assert np.array_equal(again.cells, mesh.cells)


def _with_extreme_coordinates(mesh):
    v = mesh.vertices.copy()
    v[0] = [-0.0, 1e300, -1e-300]
    v[1] = [1e-300, -0.0, -1e300]
    return MeshComplex(v, mesh.cells, mesh.boundary_faces, validate=False)


WRITTEN = {
    **{f"icosphere{s}": (lambda s=s: generate_icosphere(s)) for s in range(3)},
    "torus": lambda: generate_torus(16, 8),
    "ellipsoid": lambda: generate_ellipsoid(1.0, 2.0, 3.0, 2),
    "icosphere-extreme": lambda: _with_extreme_coordinates(generate_icosphere(1)),
    **{f"ball{s}": (lambda s=s: generate_ball(s)) for s in range(3)},
    "ball-extreme": lambda: _with_extreme_coordinates(generate_ball(1)),
}


@pytest.mark.parametrize("name", sorted(WRITTEN))
def test_writers_match_the_row_writers(tmp_path, name):
    mesh = WRITTEN[name]()
    if mesh.kind == "surface":
        mesh.save_off(tmp_path / "got")
        oracle.save_off(mesh, tmp_path / "want")
    else:
        save_tet(mesh, tmp_path / "got")
        oracle.save_tet(mesh, tmp_path / "want")
    assert (tmp_path / "got").read_bytes() == (tmp_path / "want").read_bytes()


def test_edge_ids_refuse_a_pair_that_is_not_an_edge():
    mesh = generate_icosphere(1)
    e = mesh.edges
    assert np.array_equal(mesh.edge_ids(e[:, 1], e[:, 0]), np.arange(len(e)))
    far = int(np.argmax(np.linalg.norm(mesh.vertices - mesh.vertices[0], axis=1)))  # antipodal to 0
    u, w = e[:6].copy().reshape(2, 3, 2).transpose(2, 0, 1)
    w[1, 1], u[1, 1] = 0, far
    with pytest.raises(MeshError, match=rf"\(0, {far}\) are not joined") as err:
        mesh.edge_ids(u, w)
    assert err.value.code == "not_an_edge"


# every entry point that refuses a mesh of the other kind: the job its
# message names, the kind it requires, and a call on a mesh of the other kind
WRONG_KIND = {
    "tet_determinants": ("tet_determinants", "solid", lambda mesh, tmp: mesh.tet_determinants),
    "euler_characteristic": ("the Euler characteristic", "surface", lambda mesh, tmp: mesh.euler_characteristic()),
    "boundary_mesh": ("boundary_mesh", "solid", lambda mesh, tmp: mesh.boundary_mesh()),
    "save_off": ("OFF export", "surface", lambda mesh, tmp: mesh.save_off(tmp / "mesh.off")),
    "save_tet": ("tet export", "solid", lambda mesh, tmp: save_tet(mesh, tmp / "mesh.tet")),
    "discrete_shape": ("the discrete shape fit", "surface", lambda mesh, tmp: discrete_shape(mesh)),
    "assemble_dec": ("DEC assembly", "surface", lambda mesh, tmp: assemble_dec(mesh)),
    "spectrum": ("DEC assembly", "surface", lambda mesh, tmp: spectrum(mesh, 0, 4)),
    **{
        name: ("a Reilly ledger or Stokes check", "solid", call)
        for name, call in (
            ("evaluate_reilly", lambda mesh, tmp: evaluate_reilly(mesh, named_form_field("x2dx1"))),
            ("evaluate_classical_reilly",
             lambda mesh, tmp: evaluate_classical_reilly(mesh, named_scalar_field("linear-x1"))),
            ("check_stokes",
             lambda mesh, tmp: check_stokes(mesh, named_form_field("x2dx1"), FormField.zero(2))),
        )
    },
    "MeshCase": ("MeshCase", "surface", lambda mesh, tmp: MeshCase(mesh)),
    "equality_case_diagnostics": (
        "equality_case_diagnostics", "solid", lambda mesh, tmp: equality_case_diagnostics(mesh)
    ),
}


@pytest.mark.parametrize("name", WRONG_KIND)
def test_wrong_kind_is_refused_with_one_message_shape(tmp_path, name):
    what, kind, call = WRONG_KIND[name]
    other = generate_icosphere(1) if kind == "solid" else generate_ball(1)
    with pytest.raises(MeshError, match=rf"^\[bad_kind\] {what} requires a {kind} mesh$") as err:
        call(other, tmp_path)
    assert err.value.code == "bad_kind"
    assert not any(tmp_path.iterdir())


def test_off_flipped_face_is_orientation_error(tmp_path):
    lines = OFF_CUBE.strip().splitlines()
    lines[10] = "3 1 0 2"  # reverse the first face
    path = tmp_path / "bad.off"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MeshError) as err:
        load_mesh(path)
    assert err.value.code == "inconsistent_orientation"


def test_off_bad_header(tmp_path):
    path = tmp_path / "bad.off"
    path.write_text("OFFX\n3 1 0\n")
    with pytest.raises(MeshError) as err:
        load_mesh(path)
    assert err.value.code == "parse"
    assert err.value.line == 1


def test_obj_with_texture_coords(tmp_path):
    content = """
v 0 0 0
v 1 0 0
v 0 1 0
v 0 0 1
vt 0.1 0.2
vn 0 0 1
f 1/1/1 3/1/1 2/1/1
f 1/1 2/1 4/1
f 2 3 4
f 1/1/1 4/1/1 3/1/1
"""
    path = tmp_path / "tet.obj"
    path.write_text(content)
    mesh = load_mesh(path)
    assert mesh.n_vertices == 4
    assert mesh.n_cells == 4
    assert mesh.euler_characteristic() == 2


def test_obj_relative_indices(tmp_path):
    # a negative index counts back from the last vertex read so far
    content = """
v 0 0 0
v 1 0 0
v 0 1 0
f -3 -1 -2
v 0 0 1
f 1 -3 -1
f -3 3 -1
f -4 -1 -2
"""
    path = tmp_path / "tet.obj"
    path.write_text(content)
    mesh = load_mesh(path)
    assert mesh.cells.tolist() == [[0, 2, 1], [0, 1, 3], [1, 2, 3], [0, 3, 2]]
    assert mesh.euler_characteristic() == 2


@pytest.mark.parametrize("face, code", [("f 0 2 3", "parse"), ("f -5 2 3", "bad_index")])
def test_obj_index_out_of_range(tmp_path, face, code):
    path = tmp_path / "bad.obj"
    path.write_text(f"v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\n{face}\n")
    with pytest.raises(MeshError) as err:
        load_mesh(path)
    assert err.value.code == code
    if code == "parse":
        assert err.value.line == 5


def test_tet_format_roundtrip(tmp_path):
    ball = generate_ball(1)
    path = tmp_path / "ball.tet"
    save_tet(ball, path)
    again = load_mesh(path)
    assert again.kind == "solid"
    assert again.n_cells == ball.n_cells
    assert np.isclose(again.volume(), ball.volume())
    assert np.array_equal(np.sort(again.boundary_faces, axis=1), np.sort(ball.boundary_faces, axis=1))


def test_tet_load_frees_the_text_before_validation(tmp_path):
    # the file text and its line lists are dropped once the blocks are
    # arrays: a saved ball(3) loads at a 5.3 MiB peak, 8.8 MiB with them kept
    path = tmp_path / "ball3.tet"
    save_tet(generate_ball(3), path)
    tracemalloc.start()
    try:
        load_mesh(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6.5 * 2**20, peak


def test_tet_parse_error_line(tmp_path):
    path = tmp_path / "bad.tet"
    path.write_text("tetmesh\n2 1 1\n0 0 0\n1 0 0\nbad tet line\n0 1 2\n")
    with pytest.raises(MeshError) as err:
        load_mesh(path)
    assert err.value.code == "parse"
    assert err.value.line is not None


@pytest.mark.parametrize(
    "text",
    ["OFF\n-1 2 0\n", "OFF\n99999999999 1 0\n", "OFF\n8 12 0\n0 0 0\n", "tetmesh\n1 -4 0\n0 0 0\n"],
)
def test_counts_checked_before_allocation(tmp_path, text):
    path = tmp_path / ("bad.off" if text.startswith("OFF") else "bad.tet")
    path.write_text(text)
    with pytest.raises(MeshError) as err:
        load_mesh(path)
    assert err.value.code == "parse"
    assert err.value.line == 2


def test_mesh_without_cells_rejected(tmp_path):
    path = tmp_path / "empty.off"
    path.write_text("OFF\n0 0 0\n")
    with pytest.raises(MeshError) as err:
        load_mesh(path)
    assert err.value.code == "bad_format"


@pytest.mark.parametrize("width", [3, 4], ids=["surface", "solid"])
def test_mesh_without_cells_refused_on_construction(width):
    # the solid ended in an IndexError while its boundary was extracted
    with pytest.raises(MeshError) as err:
        MeshComplex(np.zeros((0, 3)), np.zeros((0, width), dtype=np.int64), validate=False)
    assert err.value.code == "bad_format"


def test_report_and_json(tmp_path):
    mesh = generate_icosphere(1, 1.0)
    rep = mesh.report()
    assert rep["kind"] == "surface"
    assert rep["euler_characteristic"] == 2
    import json

    data = json.loads(json.dumps(rep))  # reports go into the ledger JSON
    assert data["n_vertices"] == mesh.n_vertices

    ball = generate_ball(1)
    brep = ball.report()
    assert brep["kind"] == "solid"
    assert brep["volume"] > 0
