"""Parser fuzz: malformed OFF, OBJ and tet texts end in MeshError, never a traceback."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hodgebench.cli import EXIT_VALIDATION, main
from hodgebench.meshes import (
    MeshError,
    _read_rows,
    generate_ball,
    generate_icosphere,
    generate_torus,
    load_mesh,
    save_tet,
)

# a single tet: 4 vertices, 1 tet, 4 outward boundary faces
TET = """tetmesh
4 1 4
0 0 0
1 0 0
0 1 0
0 0 1
0 1 2 3
0 2 1
0 1 3
0 3 2
1 2 3
"""


def _off_text():
    mesh = generate_icosphere(0)
    lines = ["OFF", f"{mesh.n_vertices} {mesh.n_cells} 0"]
    lines += [" ".join(repr(float(c)) for c in v) for v in mesh.vertices]
    lines += ["3 " + " ".join(str(int(i)) for i in f) for f in mesh.cells]
    return "\n".join(lines) + "\n"


def _obj_text():
    mesh = generate_icosphere(0)
    lines = ["v " + " ".join(repr(float(c)) for c in v) for v in mesh.vertices]
    lines += ["f " + " ".join(str(int(i) + 1) for i in f) for f in mesh.cells]
    return "\n".join(lines) + "\n"


VALID = {"off": _off_text(), "obj": _obj_text(), "tet": TET}
BAD_TOKENS = ("nan", "NaN", "inf", "-inf", "Infinity")


@st.composite
def malformed(draw):
    """(format, text, line) of a valid file broken in one way that no reading
    can repair; ``line`` is the one changed line, None for a truncation."""
    fmt = draw(st.sampled_from(sorted(VALID)))
    text = VALID[fmt]
    lines = text.splitlines()
    kind = draw(st.sampled_from(("truncate", "negative", "huge", "token")))
    row = None
    if kind == "truncate":
        # cut anywhere before the last line starts: at least one line is lost
        # (for OBJ: at least one face, so an odd count is left or no face)
        text = text[: draw(st.integers(0, text.rindex("\n", 0, len(text) - 1)))]
    elif kind in ("negative", "huge") and fmt == "obj":
        # OBJ has no counts: a face index of 0, one counting back past the
        # first vertex (all vertex lines come first), or one beyond int64
        row = draw(st.sampled_from([i for i, line in enumerate(lines) if line.startswith("f ")]))
        toks = lines[row].split()
        nv = sum(line.startswith("v ") for line in lines)
        toks[draw(st.integers(1, 3))] = str(
            draw(st.integers(-(10**30), -nv - 1) | st.just(0))
            if kind == "negative"
            else draw(st.integers(2**63, 10**30))
        )
        lines[row] = " ".join(toks)
        text = "\n".join(lines) + "\n"
    elif kind in ("negative", "huge"):
        counts = [int(t) for t in lines[1].split()]
        needed = counts[:2] if fmt == "off" else counts
        slot = draw(st.integers(0, len(needed) - 1))
        left = len(lines) - 2
        counts[slot] = (
            draw(st.integers(-(10**30), -1))
            if kind == "negative"
            else draw(st.integers(left - sum(needed) + needed[slot] + 1, 10**30))
        )
        row = 1
        lines[row] = " ".join(map(str, counts))
        text = "\n".join(lines) + "\n"
    else:
        # nan/inf in a count, a coordinate or an index
        row = draw(st.integers(1, len(lines) - 1))
        toks = lines[row].split()
        toks[draw(st.integers(0, len(toks) - 1))] = draw(st.sampled_from(BAD_TOKENS))
        lines[row] = " ".join(toks)
        text = "\n".join(lines) + "\n"
    return fmt, text, None if row is None else row + 1


def test_fuzz_bases_are_valid(tmp_path):
    for fmt, text in VALID.items():
        path = tmp_path / f"ok.{fmt}"
        path.write_text(text)
        load_mesh(path)


@st.composite
def interleaved_obj(draw):
    """(text, cells) of icosphere(0) as OBJ with every face placed somewhere
    after its last vertex line and each index absolute or relative."""
    mesh = generate_icosphere(0)
    nv = mesh.n_vertices
    placed = []
    for face in mesh.cells.tolist():
        read = draw(st.integers(max(face) + 1, nv))  # vertex lines before the face
        refs = [str(j + 1) if draw(st.booleans()) else str(j - read) for j in face]
        placed.append((read, "f " + " ".join(refs)))
    order = sorted(range(len(placed)), key=lambda t: placed[t][0])
    lines, at = [], 0
    for t in order:
        read, line = placed[t]
        lines += ["v " + " ".join(repr(float(c)) for c in v) for v in mesh.vertices[at:read]]
        lines.append(line)
        at = read
    lines += ["v " + " ".join(repr(float(c)) for c in v) for v in mesh.vertices[at:]]
    return "\n".join(lines) + "\n", mesh.cells[order]


@settings(max_examples=50, deadline=None)
@given(case=interleaved_obj())
def test_relative_obj_indices_resolve_to_the_same_mesh(tmp_path_factory, case):
    text, cells = case
    path = tmp_path_factory.mktemp("obj") / "mesh.obj"
    path.write_text(text)
    mesh = load_mesh(path)
    assert np.array_equal(mesh.cells, cells)
    assert np.array_equal(mesh.vertices, generate_icosphere(0).vertices)


@settings(max_examples=200, deadline=None)
@given(case=malformed())
def test_malformed_text_raises_mesh_error(tmp_path_factory, case):
    fmt, text, line = case
    path = tmp_path_factory.mktemp("fuzz") / f"mesh.{fmt}"
    path.write_text(text)
    with pytest.raises(MeshError) as err:
        load_mesh(path)
    if err.value.code == "parse":
        assert err.value.line is not None
        if line is not None:  # the one changed line is the one to blame
            assert err.value.line == line


@settings(max_examples=25, deadline=None)
@given(case=malformed())
def test_malformed_text_exits_validation(tmp_path_factory, case):
    fmt, text, _ = case
    root = tmp_path_factory.mktemp("fuzz")
    path = root / f"mesh.{fmt}"
    path.write_text(text)
    code = main(["spectrum", "--mesh", str(path), "--out", str(root / "out")])
    assert code == EXIT_VALIDATION


# ---------------------------------------------------------------------------
# what the writers write, the reader reads back bit for bit

GENERATED = {
    **{f"ico{s}": (lambda s=s: generate_icosphere(s)) for s in range(4)},
    "torus": lambda: generate_torus(16, 8),
    **{f"ball{s}": (lambda s=s: generate_ball(s)) for s in range(3)},
}


def _assert_same_arrays(got, want):
    assert np.array_equal(got.vertices.view(np.int64), want.vertices.view(np.int64))
    assert got.cells.dtype == np.int64 and np.array_equal(got.cells, want.cells)
    if want.boundary_faces is None:
        assert got.boundary_faces is None
    else:
        assert np.array_equal(got.boundary_faces, want.boundary_faces)


@pytest.mark.parametrize("name", sorted(GENERATED))
def test_saved_generator_mesh_reads_back_bit_for_bit(tmp_path, name):
    mesh = GENERATED[name]()
    if mesh.kind == "surface":
        path = tmp_path / "mesh.off"
        mesh.save_off(path)
    else:
        path = tmp_path / "mesh.tet"
        save_tet(mesh, path)
    _assert_same_arrays(load_mesh(path), mesh)


# tokens Python's float()/int() and numpy could read differently
TOKENS = ("1_000", "+3", "-0", "3.0", "1e3", "0x10", "nan", "Infinity", "1e400", str(2**63), str(-(2**63) - 1))


@pytest.mark.parametrize("token", TOKENS)
@pytest.mark.parametrize("dtype", [float, np.int64])
def test_block_reader_reads_tokens_as_python_does(token, dtype):
    # the same value, bit for bit, or a parse error where Python refuses the
    # token or its int does not fit in int64
    try:
        want = np.array([(float if dtype is float else int)(token)], dtype=dtype)
    except (ValueError, OverflowError):
        with pytest.raises(MeshError) as err:
            _read_rows([(7, token)], 1, dtype, "test")
        assert err.value.code == "parse" and err.value.line == 7
    else:
        got = _read_rows([(7, token)], 1, dtype, "test")[0]
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
