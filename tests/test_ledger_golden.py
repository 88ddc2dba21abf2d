"""Ledger terms, volumes and tet quadrature pinned to their recorded values.

``data/golden_ledgers.json`` holds every ledger term, the residual and the
mesh volume for ``reilly --field x2dx1 --levels 1,2``, ``reilly --field
linear-x1 --levels 1,2`` and the discrete-shape x2dx1 ledger on ball(1).
The quadrature sums take no BLAS dot product, so the values hold at any
BLAS thread count.  Rewrites of the quadrature and the batched d/delta must
reproduce them exactly, not to a tolerance.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import seed_oracle as oracle
from hodgebench.fields import named_form_field, named_scalar_field
from hodgebench.meshes import generate_ball
from hodgebench.reilly import _TET4_A, _TET4_B, _tet_blocks, evaluate_classical_reilly, evaluate_reilly
from test_topology_equivalence import _relabelled

GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_ledgers.json").read_text())


def _ledger(key):
    if key == "evaluate_reilly ball(1) x2dx1 discrete":
        mesh = generate_ball(1)
        return mesh, evaluate_reilly(mesh, named_form_field("x2dx1"), shape_source="discrete")
    field, level = key.removeprefix("reilly --field ").split(" level ")
    mesh = generate_ball(int(level))
    if field == "linear-x1":
        return mesh, evaluate_classical_reilly(mesh, named_scalar_field(field), order=2)
    return mesh, evaluate_reilly(mesh, named_form_field(field), order=2)


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_ledger_terms_equal_recorded_values(key):
    want = GOLDEN[key]
    mesh, ledger = _ledger(key)
    assert {k: v for k, v in ledger.terms.items() if v is not None} == want["terms"]
    assert ledger.lhs == want["lhs"]
    assert ledger.residual == want["residual"]
    assert ledger.relative_residual == want["relative_residual"]
    assert mesh.volume() == want["volume"]


SOLIDS = [(f"ball{s}", lambda s=s: generate_ball(s)) for s in range(4)] + [
    ("ball2-relabelled", lambda: _relabelled(generate_ball(2), 11)),
]


@pytest.mark.parametrize("name,make", SOLIDS, ids=[name for name, _ in SOLIDS])
def test_volume_and_quadrature_match_determinant_expression(name, make):
    mesh = make()
    dets = oracle.tet_determinants(mesh.vertices, mesh.cells)
    assert np.array_equal(mesh.tet_determinants, dets)
    assert mesh.volume() == float(dets.sum() / 6.0)
    rule4 = np.full((4, 4), _TET4_B)
    np.fill_diagonal(rule4, _TET4_A)
    for order, bary in ((1, np.full((1, 4), 0.25)), (2, rule4)):
        blocks = list(_tet_blocks(mesh, order))
        pts = np.concatenate([pts for pts, _ in blocks])
        wts = np.concatenate([wts for _, wts in blocks])
        want_pts, want_wts = oracle.tet_quadrature(mesh.vertices, mesh.cells, bary)
        assert np.array_equal(wts, want_wts)
        assert np.array_equal(wts, np.repeat(dets / 6.0 / len(bary), len(bary)))
        assert pts.tobytes() == want_pts.tobytes()
