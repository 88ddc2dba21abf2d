"""The two benchmark workloads: seeded inputs, op lists and output checks.

``spectra-bounds`` runs every eigensolve (the surface spectra, then the bounds
suites); ``ledgers-exterior`` runs none (the ball ledgers, then the exterior
identities).

``make_inputs`` runs in the benchmark runner before any timed process
starts.  ``build_ops`` runs inside a worker process after ``hodgebench`` is
imported; each op is a callable that drives the CLI (``hodgebench.cli.main``)
or the public library API, plus a check of its output.  The checks do not
depend on the seed: every seed must pass them.
"""

from __future__ import annotations

import csv
import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("spectra-bounds", "ledgers-exterior")

# correctness tolerances, taken from the acceptance and unit tests
SPECTRUM_REL_TOL = 0.02  # first positive eigenvalue vs sphere_hodge_oracle
WINDOW = (1.96, 2.04)  # eigenvalue window around the first sphere cluster
LEDGER_REL_TOL = 0.05
RESIDUAL_FLOOR = 1e-10  # relative residuals below this count as converged
SWEEP_TOL = 1e-10  # induced-operator and duality sweeps
RESTRICTION_TOL = 1e-8
FD_TOL = 1e-6  # surface finite-difference identity checks
ANALYTIC_TOL = 1e-12
STOKES_REL_TOL = 0.03
PARALLEL_TOL = 1e-3  # interior energies of parallel forms, relative to volume

SPHERE_POINTS = 64
SWEEP_MATRICES = 200
N_ELLIPSOIDS = 4


class CheckFailure(Exception):
    """An op produced output that fails its correctness check."""


@dataclass
class Op:
    """One timed call plus the check of what it produced.

    ``run`` is timed.  ``check`` receives its return value, raises
    ``CheckFailure`` on a wrong result and otherwise returns the accuracy
    values to record next to the timing.
    """

    id: str
    run: Callable[[], object]
    check: Callable[[object], dict]


def require(condition, message):
    if not condition:
        raise CheckFailure(message)


# ---------------------------------------------------------------------------
# seeded inputs (runner side)


def _rotation(rng) -> np.ndarray:
    """Haar-random proper rotation (det = +1), so tet orientation is kept."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def _relabel(rng, vertices, *cell_blocks):
    """Rotate the vertices, then shuffle vertex ids and the rows of each block."""
    perm = rng.permutation(len(vertices))
    new_id = np.empty_like(perm)
    new_id[perm] = np.arange(len(perm))
    verts = vertices[perm] @ _rotation(rng).T
    blocks = [new_id[cells][rng.permutation(len(cells))] for cells in cell_blocks]
    return verts, blocks


def _write_off(path, vertices, faces):
    with open(path, "w") as fh:
        fh.write(f"OFF\n{len(vertices)} {len(faces)} 0\n")
        np.savetxt(fh, vertices, fmt="%.17g")
        np.savetxt(fh, np.column_stack([np.full(len(faces), 3), faces]), fmt="%d")


def _write_tet(path, vertices, tets, boundary):
    with open(path, "w") as fh:
        fh.write(f"tetmesh\n{len(vertices)} {len(tets)} {len(boundary)}\n")
        np.savetxt(fh, vertices, fmt="%.17g")
        np.savetxt(fh, tets, fmt="%d")
        np.savetxt(fh, boundary, fmt="%d")


def _spectra_inputs(rng, directory: Path) -> dict:
    from hodgebench.meshes import generate_icosphere

    sphere = generate_icosphere(4, 1.0)
    verts, (faces,) = _relabel(rng, sphere.vertices, sphere.cells)
    path = directory / "ico4-rotated.off"
    _write_off(path, verts, faces)
    axes = np.round(rng.uniform(0.9, 1.3, size=(N_ELLIPSOIDS, 3)), 6)
    return {"off": str(path), "axes": axes.tolist()}


def _ledger_inputs(rng, directory: Path) -> dict:
    from hodgebench.meshes import generate_ball

    ball = generate_ball(3)
    verts, (tets, bnd) = _relabel(rng, ball.vertices, ball.cells, ball.boundary_faces)
    path = directory / "ball3-rotated.tet"
    _write_tet(path, verts, tets, bnd)
    matrices = []
    for trial in range(SWEEP_MATRICES):
        n = 2 + trial % 7  # cycles n through 2..8
        a = rng.standard_normal((n, n))
        matrices.append(((a + a.T) / 2).tolist())
    q = rng.standard_normal((SPHERE_POINTS, 3))
    points = q / np.linalg.norm(q, axis=1)[:, None]
    return {
        "tet": str(path),
        "matrices": matrices,
        "points": points.tolist(),
        "tangent_seed": int(rng.integers(2**31)),
    }


def make_inputs(workload: str, seed: int, directory: Path) -> dict:
    """Write the workload's seeded input files; return what the ops need."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    directory.mkdir(parents=True, exist_ok=True)
    if workload == "spectra-bounds":
        return _spectra_inputs(rng, directory)
    if workload == "ledgers-exterior":
        return _ledger_inputs(rng, directory)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# CLI ops (worker side)


def _cli_op(op_id, argv, out_root: Path, check):
    from hodgebench import cli

    out = out_root / op_id

    def run():
        return cli.main([*argv, "--out", str(out)])

    def checked(rc):
        require(rc == 0, f"exit code {rc}")
        return check(out)

    return Op(op_id, run, checked)


def _spectrum_check(degree, k, betti, oracle_degree=None):
    """Eigenvalue count, harmonic count = Betti number, sphere oracle."""

    def check(out: Path) -> dict:
        from hodgebench.spectrum import sphere_hodge_oracle

        report = json.loads((out / "spectrum.json").read_text())
        eig = np.asarray(report["eigenvalues"])
        families = report["families"]
        harmonic = families.count("harmonic")
        acc = {"n_eigenvalues": len(eig), "harmonic": harmonic}
        require(report["degree"] == degree, f"degree {report['degree']} != {degree}")
        require(len(eig) == k, f"{len(eig)} eigenvalues, expected {k}")
        require(harmonic == betti, f"harmonic count {harmonic} != Betti number {betti}")
        if oracle_degree is not None:
            want, mult = sphere_hodge_oracle(2, oracle_degree)
            lam1 = next(float(v) for v, f in zip(eig, families) if f != "harmonic")
            in_window = int(((eig >= WINDOW[0]) & (eig <= WINDOW[1])).sum())
            # on S^2 the exact and coexact 1-form families share the first value
            expected = mult * (2 if degree == 1 else 1)
            acc.update(
                lambda1=lam1,
                lambda1_rel_err=abs(lam1 - want) / want,
                window_count=in_window,
            )
            require(
                acc["lambda1_rel_err"] <= SPECTRUM_REL_TOL,
                f"lambda1 {lam1:.6g} vs oracle {want:g}",
            )
            require(in_window == expected, f"{in_window} eigenvalues in {WINDOW}, expected {expected}")
        return acc

    return check


def _ledger_check(levels: int, discrete: bool = False):
    """Relative residual <= 0.05 per level and never increasing."""

    def check(out: Path) -> dict:
        with open(out / "reilly_convergence.csv") as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        rel = [float(r["relative_residual"]) for r in rows]
        acc = {"rel_residual": rel}
        require(len(rel) == levels, f"{len(rel)} levels, expected {levels}")
        require(max(rel) <= LEDGER_REL_TOL, f"relative residuals {rel}")
        require(
            all(cur <= max(prev, RESIDUAL_FLOOR) for prev, cur in zip(rel, rel[1:])),
            f"residual increased across levels: {rel}",
        )
        if discrete:
            source = json.loads((out / "reilly.json").read_text())["meta"]["shape_source"]
            require(source == "discrete", f"shape source {source!r}")
        return acc

    return check


def _bounds_check(n_verdicts: int, n_diagnostics: int = 0):
    """Expected verdict count, none violated, every diagnostic satisfied."""

    def check(out: Path) -> dict:
        report = json.loads((out / "bounds.json").read_text())
        verdicts = report["verdicts"]
        diagnostics = report.get("equality_diagnostics", [])
        violated = [v["name"] for v in verdicts if v["status"] == "violated"]
        acc = {"verdicts": len(verdicts), "violations": len(violated)}
        require(len(verdicts) == n_verdicts, f"{len(verdicts)} verdicts, expected {n_verdicts}")
        require(not violated, f"violated: {violated}")
        require(len(diagnostics) == n_diagnostics, f"{len(diagnostics)} diagnostics")
        require(all(d["satisfied"] for d in diagnostics), "equality diagnostics failed")
        return acc

    return check


# sphere suite: per (n, radius) the lower bounds p <= (n+1)/2, xia, upper-1 and
# upper-p for 2 <= p < n, plus n special-Killing verdicts per n
SPHERE_SUITE_VERDICTS = sum(
    2 * ((n + 1) // 2 + 2 + max(0, n - 2)) + n for n in range(1, 6)
)
ELLIPSOID_SUITE_VERDICTS = 5 * 3


def _surface_spectra(inputs, out):
    return [
        _cli_op("ico4-p0", ["spectrum", "--geometry", "icosphere:4", "--k", "10"], out,
                _spectrum_check(0, 10, betti=1, oracle_degree=1)),
        _cli_op("off-ico4-p1", ["spectrum", "--mesh", inputs["off"], "--p", "1", "--k", "10"], out,
                _spectrum_check(1, 10, betti=0, oracle_degree=1)),
        _cli_op("ico4-p2", ["spectrum", "--geometry", "icosphere:4", "--p", "2", "--k", "10"], out,
                _spectrum_check(2, 10, betti=1, oracle_degree=2)),
        _cli_op("ico5-p2", ["spectrum", "--geometry", "icosphere:5", "--p", "2", "--k", "10"], out,
                _spectrum_check(2, 10, betti=1, oracle_degree=2)),
        _cli_op("torus-p1", ["spectrum", "--geometry", "torus:48,24", "--p", "1", "--k", "10"], out,
                _spectrum_check(1, 10, betti=2)),
    ]


def _ball_ledgers(inputs, out):
    return [
        _cli_op("x2dx1-l234", ["reilly", "--field", "x2dx1", "--levels", "2,3,4"], out,
                _ledger_check(3)),
        _cli_op("linear-x1-l1-3", ["reilly", "--field", "linear-x1", "--levels", "1..3"], out,
                _ledger_check(3)),
        _cli_op("tet-x2dx1", ["reilly", "--mesh", inputs["tet"], "--field", "x2dx1"], out,
                _ledger_check(1, discrete=True)),
    ]


def _bounds_suites(inputs, out):
    ops = [
        _cli_op("spheres", ["bounds", "--suite", "spheres"], out,
                _bounds_check(SPHERE_SUITE_VERDICTS)),
        _cli_op("ellipsoids", ["bounds", "--suite", "ellipsoids"], out,
                _bounds_check(ELLIPSOID_SUITE_VERDICTS)),
        _cli_op("balls", ["bounds", "--suite", "balls"], out, _bounds_check(0, 2)),
    ]
    for i, abc in enumerate(inputs["axes"], start=1):
        spec = "ellipsoid:" + ",".join(f"{x:.6f}" for x in abc) + ",3"
        ops.append(_cli_op(f"ellipsoid-{i}", ["bounds", "--geometry", spec, "--p", "1"], out,
                           _bounds_check(3)))
    return ops


# ---------------------------------------------------------------------------
# library-API ops (worker side)


def _exterior_identities(inputs, out):
    from hodgebench.exterior import (
        AlternatingForm,
        duality_identity_residual,
        induced_endomorphism,
    )
    from hodgebench.fields import named_form_field
    from hodgebench.meshes import generate_ball
    from hodgebench.reilly import (
        SphereSurface,
        check_commutation,
        check_derivative_formulas,
        check_stokes,
        evaluate_reilly,
        restriction_identity_residuals,
    )

    matrices = [np.asarray(m) for m in inputs["matrices"]]
    points = np.asarray(inputs["points"])
    sphere = SphereSurface(1.0)
    state = {}  # the ball shared by the ball3-* ops

    def induced_sweep():
        return [
            [induced_endomorphism(s, p).eigenvalues() for p in range(1, len(s) + 1)]
            for s in matrices
        ]

    def check_induced(spectra):
        err = 0.0
        for s, per_degree in zip(matrices, spectra):
            eta = np.linalg.eigvalsh(s)
            for p, got in enumerate(per_degree, start=1):
                want = np.sort([sum(c) for c in itertools.combinations(eta, p)])
                err = max(err, float(np.abs(np.sort(got) - want).max()))
        require(err <= SWEEP_TOL, f"induced spectra off by {err:.3g}")
        return {"max_abs_err": err}

    def duality_sweep():
        return [duality_identity_residual(s, p) for s in matrices for p in range(len(s) + 1)]

    def check_max(tol, what):
        def check(values):
            worst = float(max(values))
            require(worst <= tol, f"{what} residual {worst:.3g} > {tol:g}")
            return {"max_residual": worst}

        return check

    def sphere_checks(name):
        def run():
            form = named_form_field(name)
            return (
                check_commutation(form, sphere, points, h=1e-4, method="fd"),
                check_commutation(form, sphere, points, method="analytic"),
                check_derivative_formulas(form, sphere, points, h=1e-4, seed=inputs["tangent_seed"]),
            )

        def check(res):
            fd, analytic, derivative = (max(pair) for pair in res)
            require(fd < FD_TOL, f"fd commutation residual {fd:.3g}")
            require(analytic < ANALYTIC_TOL, f"analytic commutation residual {analytic:.3g}")
            require(derivative < FD_TOL, f"derivative-formula residual {derivative:.3g}")
            return {"fd": fd, "analytic": analytic, "derivative": derivative}

        return Op(f"sphere-{name}", run, check)

    def restriction():
        out = []
        for degree in (1, 2):
            for slot in range(3):
                coeffs = np.zeros(3)
                coeffs[slot] = 1.0
                out.extend(restriction_identity_residuals(AlternatingForm(3, degree, coeffs), points=points))
        return out

    def make_ball():
        state["ball"] = generate_ball(3)
        return state["ball"]

    def check_ball(ball):
        vol = ball.volume()
        require(ball.kind == "solid" and ball.n_vertices == 1 + 8 * 642, f"{ball.n_vertices} vertices")
        require(abs(vol - 4 * np.pi / 3) <= 0.05 * 4 * np.pi / 3, f"volume {vol:.6g}")
        return {"volume": vol}

    def ledger(name):
        def run():
            return evaluate_reilly(state["ball"], named_form_field(name), shape_source="discrete")

        def check(led):
            require(led.meta["shape_source"] == "discrete", "shape source")
            require(led.relative_residual <= LEDGER_REL_TOL, f"relative residual {led.relative_residual:.3g}")
            if name.startswith("parallel"):
                # acceptance 5: the identity reduces to its boundary terms
                vol = state["ball"].volume()
                cross = led.terms["normal_cross_term"]
                bnd = led.terms["boundary_shape_term"]
                for term in ("dirichlet_energy", "curvature_energy"):
                    require(led.terms[term] <= PARALLEL_TOL * vol, f"{term} {led.terms[term]:.3g}")
                require(led.lhs <= PARALLEL_TOL * vol, f"lhs {led.lhs:.3g}")
                require(abs(cross + bnd) <= LEDGER_REL_TOL * max(abs(cross), abs(bnd)), "boundary terms do not cancel")
            return {"rel_residual": [led.relative_residual]}

        return Op(f"ball3-{name}", run, check)

    def stokes():
        return check_stokes(
            state["ball"], named_form_field("x2dx1"), named_form_field("parallel-dx12"),
            shape_source="discrete",
        )

    def check_stokes_result(res):
        _, relative = res
        require(relative < STOKES_REL_TOL, f"Stokes relative residual {relative:.3g}")
        return {"rel_residual_stokes": relative}

    return [
        Op("induced-sweep", induced_sweep, check_induced),
        Op("duality-sweep", duality_sweep, check_max(SWEEP_TOL, "duality")),
        sphere_checks("x2dx1"),
        sphere_checks("x1-vol"),
        sphere_checks("parallel-dx12"),
        Op("restriction", restriction, check_max(RESTRICTION_TOL, "restriction")),
        Op("ball3-generate", make_ball, check_ball),
        ledger("x2dx1"),
        ledger("parallel-dx1"),
        ledger("parallel-dx12"),
        ledger("x1-vol"),
        Op("ball3-stokes", stokes, check_stokes_result),
    ]


def _spectra_bounds(inputs, out):
    return _surface_spectra(inputs, out) + _bounds_suites(inputs, out)


def _ledgers_exterior(inputs, out):
    return _ball_ledgers(inputs, out) + _exterior_identities(inputs, out)


_BUILDERS = {
    "spectra-bounds": _spectra_bounds,
    "ledgers-exterior": _ledgers_exterior,
}

# op ids per workload, fixed so the per-layer metric list is fixed
OP_IDS = {
    "spectra-bounds": (
        "ico4-p0", "off-ico4-p1", "ico4-p2", "ico5-p2", "torus-p1",
        "spheres", "ellipsoids", "balls",
    ) + tuple(f"ellipsoid-{i}" for i in range(1, N_ELLIPSOIDS + 1)),
    "ledgers-exterior": (
        "x2dx1-l234", "linear-x1-l1-3", "tet-x2dx1",
        "induced-sweep", "duality-sweep", "sphere-x2dx1", "sphere-x1-vol",
        "sphere-parallel-dx12", "restriction", "ball3-generate", "ball3-x2dx1",
        "ball3-parallel-dx1", "ball3-parallel-dx12", "ball3-x1-vol", "ball3-stokes",
    ),
}


def build_ops(workload: str, inputs: dict, out_root: Path) -> list:
    ops = _BUILDERS[workload](inputs, Path(out_root))
    if tuple(op.id for op in ops) != OP_IDS[workload]:
        raise RuntimeError(f"op list of {workload} does not match OP_IDS")
    return ops
