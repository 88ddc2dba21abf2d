"""Command-line surface: spectra, identity ledgers and bound reports.

Geometry specs are ``name:param,param`` strings::

    icosphere:SUBDIV[,RADIUS]      closed sphere mesh
    ellipsoid:A,B,C[,SUBDIV]       scaled icosphere
    torus:NU,NV[,R,r]              genus-1 surface
    sphere:N[,RADIUS]              analytic round sphere (bounds only)

Exit codes: 0 ok; 2 mesh validation, parse, argument or ``--config``
failure; 3 eigensolver failure, ARPACK errors included; 4 residual fails to
decrease across refinement levels; 5 an applicable bound verdict is violated.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import sys
from pathlib import Path

from . import __version__
from .bounds import (
    GeometryCase,
    equality_case_diagnostics,
    main_lower_bound,
    special_killing_relation,
    upper_bound_degree_one,
    upper_bound_degree_p,
    verdict_table,
    xia_bound,
)
from .fields import (
    FORM_FIELD_NAMES,
    SCALAR_FIELD_NAMES,
    named_form_field,
    named_scalar_field,
)
from .meshes import (
    MeshComplex,
    MeshError,
    generate_ball,
    generate_ellipsoid,
    generate_icosphere,
    generate_torus,
    load_mesh,
)
from .reilly import evaluate_ledger, run_reilly_levels
from .spectrum import SolverError, spectrum

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_NO_CONVERGENCE = 4
EXIT_VIOLATION = 5

RESIDUAL_FLOOR = 1e-10  # relative residuals below this count as converged

# bounds --theorem: the name of the verdicts each choice keeps
_THEOREMS = {
    "lower-p": "p_form_lower_bound",
    "xia": "xia_bound",
    "upper-1": "parallel_upper_bound_degree_one",
    "upper-p": "parallel_upper_bound_degree_p",
    "killing": "special_killing_eigenvalue",
}


# per geometry name: the builder and its slots (name, type, default or None
# when required), in the order of the spec
_GEOMETRIES = {
    "icosphere": (generate_icosphere, (("SUBDIV", int, 3), ("RADIUS", float, 1.0))),
    "ellipsoid": (
        generate_ellipsoid,
        (("A", float, None), ("B", float, None), ("C", float, None), ("SUBDIV", int, 3)),
    ),
    "torus": (
        generate_torus,
        (("NU", int, 24), ("NV", int, 12), ("R", float, 2.0), ("r", float, 0.7)),
    ),
    "sphere": (GeometryCase.sphere, (("N", int, 2), ("RADIUS", float, 1.0))),
}


def parse_geometry(spec: str):
    """Resolve a geometry spec string to a mesh or analytic case.

    Integer slots are read with ``int``, so ``2.7`` or ``1e400`` there is an
    error rather than a truncated or overflowing value.
    """
    name, _, rest = spec.partition(":")
    if name not in _GEOMETRIES:
        raise ValueError(f"unknown geometry {name!r}")
    build, slots = _GEOMETRIES[name]
    tokens = [tok for tok in rest.split(",") if tok] if rest else []
    if len(tokens) > len(slots):
        raise ValueError(f"{name} takes at most {len(slots)} parameters, got {spec!r}")
    params = []
    for (slot, kind, default), tok in itertools.zip_longest(slots, tokens):
        if tok is None:
            if default is None:
                raise ValueError(f"{name} needs {slot}, got {spec!r}")
            params.append(default)
            continue
        try:
            params.append(kind(tok))
        except ValueError:
            raise ValueError(f"{name} {slot} must be {kind.__name__}, got {tok!r}") from None
    return build(*params)


def _resolve_mesh(cfg: argparse.Namespace):
    if cfg.mesh:
        return load_mesh(cfg.mesh)
    if cfg.geometry:
        geo = parse_geometry(cfg.geometry)
        if not isinstance(geo, MeshComplex):
            raise ValueError("this command needs a mesh geometry")
        return geo
    raise ValueError("provide --geometry or --mesh")


def _out_path(cfg: argparse.Namespace, filename: str) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out / filename


def _stamp(cfg: argparse.Namespace) -> dict:
    """The version, and the command with the options of its subcommand."""
    return {"version": __version__, "config": {k: v for k, v in vars(cfg).items() if k != "config"}}


def _write_json(cfg: argparse.Namespace, filename: str, payload: dict, tail: dict | None = None) -> None:
    """Every JSON report: the keys of ``payload``, the stamp, then those of ``tail``."""
    text = json.dumps({**payload, **_stamp(cfg), **(tail or {})}, indent=2)
    _out_path(cfg, filename).write_text(text)


def _write_csv(cfg: argparse.Namespace, filename: str, header: list, rows: list) -> None:
    """Every CSV report: a ``# version=... config=...`` line, the header, the rows."""
    stamp = _stamp(cfg)
    with open(_out_path(cfg, filename), "w", newline="") as fh:
        fh.write(f"# version={stamp['version']} config={json.dumps(stamp['config'])}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# subcommands


def cmd_spectrum(cfg: argparse.Namespace) -> int:
    mesh = _resolve_mesh(cfg)
    report = spectrum(mesh, cfg.p, cfg.k, cluster_tol=cfg.cluster_tol)
    _write_json(cfg, "spectrum.json", report.to_dict())
    rows = [
        [f"{lam:.16g}", fam, int(cid)]
        for lam, fam, cid in zip(report.eigenvalues, report.families, report.cluster_ids)
    ]
    _write_csv(cfg, "spectrum.csv", ["value", "family", "cluster"], rows)
    first = report.clusters[0] if report.clusters else (float("nan"), 0)
    print(
        f"degree-{cfg.p} spectrum of {mesh.metadata.get('generator', 'mesh')}: "
        f"{len(report.eigenvalues)} eigenvalues, "
        f"harmonic x{report.count('harmonic')}, first cluster {first[0]:.6g} (x{first[1]})"
    )
    return EXIT_OK


def cmd_reilly(cfg: argparse.Namespace) -> int:
    if cfg.field in SCALAR_FIELD_NAMES:
        field = named_scalar_field(cfg.field)
    elif cfg.field in FORM_FIELD_NAMES:
        field = named_form_field(cfg.field)
    else:
        raise ValueError(
            f"unknown field {cfg.field!r}; scalars: {SCALAR_FIELD_NAMES}, forms: {FORM_FIELD_NAMES}"
        )
    if cfg.levels is None:
        cfg.levels = "1..3"  # the default, stamped in the report
    elif cfg.mesh:
        raise ValueError("--levels refines generated balls; a --mesh file is evaluated once")
    if cfg.mesh:
        ledger = evaluate_ledger(load_mesh(cfg.mesh), field, cfg.order)
        ledger.meta["level"] = 0
        ledgers = [ledger]
    else:
        if ".." in cfg.levels:
            lo, hi = cfg.levels.split("..")
            levels = list(range(int(lo), int(hi) + 1))
        else:
            levels = [int(tok) for tok in cfg.levels.split(",")]
        if not levels:
            raise ValueError(f"no refinement levels in {cfg.levels!r}")
        ledgers = run_reilly_levels(levels, field, cfg.order)
    rows = []
    for ledger in ledgers:
        level, residual, relative = ledger.meta["level"], ledger.residual, ledger.relative_residual
        rows.append([level, ledger.meta["mesh"]["n_vertices"], f"{residual:.16g}", f"{relative:.16g}"])
        print(f"level {level}: residual {residual:+.6e} (relative {relative:.3e})")
    _write_json(cfg, "reilly.json", ledgers[-1].to_dict())
    _write_csv(
        cfg, "reilly_convergence.csv", ["level", "n_vertices", "residual", "relative_residual"], rows
    )
    rel = [l.relative_residual for l in ledgers]
    for prev, cur in zip(rel, rel[1:]):
        if cur > max(prev, RESIDUAL_FLOOR):
            print(
                f"relative residual increased across levels: {prev:.3e} -> {cur:.3e}",
                file=sys.stderr,
            )
            return EXIT_NO_CONVERGENCE
    return EXIT_OK


def _sphere_suite(tol):
    verdicts = []
    for n in (1, 2, 3, 4, 5):
        for radius in (1.0, 2.0):
            case = GeometryCase.sphere(n, radius)
            for p in range(1, (n + 1) // 2 + 1):
                verdicts.append(main_lower_bound(case, p, tol))
            verdicts.append(xia_bound(case, tol))
            verdicts.append(upper_bound_degree_one(case, tol))
            for p in range(2, n):
                verdicts.append(upper_bound_degree_p(case, p, tol))
        for p in range(0, n):
            _, verdict = special_killing_relation(1.0, p, n, tol)
            verdicts.append(verdict)
    return verdicts


def _surface_verdicts(case, p, tol):
    """The three bounds checked on a boundary surface."""
    return [main_lower_bound(case, p, tol), xia_bound(case, tol), upper_bound_degree_one(case, tol)]


def _ellipsoid_suite(tol, p):
    axes = [
        (1.0, 1.0, 1.1),
        (1.0, 1.1, 1.2),
        (0.9, 1.0, 1.1),
        (1.0, 1.0, 1.3),
        (1.0, 1.2, 1.3),
    ]
    return [v for abc in axes for v in _surface_verdicts(GeometryCase.ellipsoid(*abc), p, tol)]


def cmd_bounds(cfg: argparse.Namespace) -> int:
    if cfg.suite and cfg.geometry:  # argparse sees only the line, not --config values
        raise ValueError("give --suite or --geometry, not both")
    # a suite refuses the settings it does not read
    unread = {
        "spheres": {"--p": cfg.p is not None},
        "balls": {"--tol": cfg.tol is not None, "--theorem": cfg.theorem != "all"},
    }.get(cfg.suite, {})
    given = [flag for flag, is_set in unread.items() if is_set]
    if given:
        raise ValueError(f"--suite {cfg.suite} does not read {', '.join(given)}")
    p = 1 if cfg.p is None else cfg.p
    verdicts = []
    reports = []
    if cfg.suite == "spheres":
        verdicts = _sphere_suite(cfg.tol)
    elif cfg.suite == "ellipsoids":
        verdicts = _ellipsoid_suite(cfg.tol, p)
    elif cfg.suite == "balls":
        reports.append(equality_case_diagnostics(3, p=p, radius=1.0))
        reports.append(equality_case_diagnostics(generate_ball(3), p=p))
    elif cfg.geometry:
        geo = parse_geometry(cfg.geometry)
        case = (
            geo
            if isinstance(geo, GeometryCase)
            else GeometryCase.from_surface_mesh(geo)
        )
        verdicts = _surface_verdicts(case, p, cfg.tol)
    else:
        raise ValueError("provide --suite or --geometry")

    if cfg.theorem != "all":
        verdicts = [v for v in verdicts if v.name == _THEOREMS[cfg.theorem]]

    tail = {"equality_diagnostics": [r.to_dict() for r in reports]} if reports else None
    _write_json(cfg, "bounds.json", {"verdicts": [v.to_dict() for v in verdicts]}, tail)
    if verdicts:
        print(verdict_table(verdicts))
    for rep in reports:
        status = "ok" if rep.satisfied else "FAILED"
        print(f"equality diagnostics {rep.geometry['label']}: {status}")
        for name, got, want, ok in rep.checks:
            print(f"  {name}: {got:.6g} vs {want:.6g} ({'ok' if ok else 'FAIL'})")
    violated = [v for v in verdicts if v.applicable and not v.satisfied]
    if violated or any(not r.satisfied for r in reports):
        for v in violated:
            print(f"VIOLATED: {v.name} on {v.geometry.get('label')}", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hodgebench",
        description="spectral-geometry workbench: spectra, identity ledgers, bound reports",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument(
        "--config", help="JSON file of option values for the subcommand; flags given on the line win"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    out_default = os.environ.get("HODGEBENCH_OUT", ".")

    sp = sub.add_parser("spectrum", help="Hodge-Laplacian eigenvalues of a surface mesh")
    sp.add_argument("--geometry", help="surface geometry spec, e.g. icosphere:4 or torus:24,12")
    sp.add_argument("--mesh", help="path to an OFF/OBJ surface mesh file")
    sp.add_argument("--out", default=out_default)
    sp.add_argument("--p", type=int, default=0, choices=(0, 1, 2), help="form degree")
    sp.add_argument("--k", type=int, default=10, help="number of eigenvalues")
    sp.add_argument("--cluster-tol", type=float, default=1e-3, dest="cluster_tol")

    sp = sub.add_parser("reilly", help="energy-identity ledgers over refinement levels")
    sp.add_argument("--mesh", help="path to a tet mesh file, evaluated once instead of generated balls")
    sp.add_argument("--out", default=out_default)
    sp.add_argument("--field", default="linear-x1",
                    help=f"scalars: {', '.join(SCALAR_FIELD_NAMES)}; forms: {', '.join(FORM_FIELD_NAMES)}")
    sp.add_argument("--levels", help="e.g. 1..3 or 2,3 (default 1..3); not with --mesh")
    sp.add_argument("--order", type=int, default=2, choices=(1, 2), help="quadrature order")

    sp = sub.add_parser("bounds", help="eigenvalue bound verdicts on geometry suites")
    which = sp.add_mutually_exclusive_group()
    which.add_argument("--geometry", help="geometry spec, e.g. sphere:3 or ellipsoid:1,1,1.2")
    which.add_argument("--suite", choices=("spheres", "ellipsoids", "balls"))
    sp.add_argument("--out", default=out_default)
    sp.add_argument("--tol", type=float, default=None, help="relative tolerance of the verdicts")
    sp.add_argument("--theorem", default="all", choices=("all", *_THEOREMS))
    sp.add_argument("--p", type=int, default=None)
    return parser


def _subparsers(parser: argparse.ArgumentParser) -> dict:
    """Subcommand name -> its parser."""
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def _config_value(sp, path, action, value):
    """A --config value, converted and checked as the same value on the line.

    A JSON string, or a number for an option that takes one, goes through
    the option's ``type`` and ``choices``.  Booleans and other types are
    refused, except that a float option (a tolerance) leaves them to
    ``_check_tolerances``."""
    takes_string = action.type is None
    if isinstance(value, str if takes_string else (int, float, str)) and not isinstance(value, bool):
        try:
            return sp._get_values(action, [str(value)])
        except argparse.ArgumentError as exc:
            sp.error(f"--config {path}: {exc}")
    if action.type is float and not isinstance(value, bool):
        return value
    kind = "a string" if takes_string else "a number"
    sp.error(f"--config {path}: argument {action.option_strings[0]}: expected {kind}, got {json.dumps(value)}")


def _check_tolerances(args: argparse.Namespace) -> None:
    # flags and --config values alike: a NaN, infinite or non-positive
    # tolerance would reach the verdicts and the reports
    for dest, flag in (("tol", "--tol"), ("cluster_tol", "--cluster-tol")):
        if dest not in args or (dest == "tol" and args.tol is None):
            continue  # not the subcommand's option; without --tol each verdict has its own default
        value = getattr(args, dest)
        try:
            ok = not isinstance(value, bool) and math.isfinite(value) and value > 0
        except (TypeError, OverflowError):  # not a number, or an int beyond float
            ok = False
        if not ok:
            raise ValueError(f"{flag} must be a finite positive number, got {value!r}")


def main(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    args = parser.parse_args(argv)
    if args.config:
        # config values become the subcommand's defaults, so a flag on the line wins
        try:
            with open(args.config) as fh:
                values = json.load(fh)
        except (OSError, ValueError) as exc:
            parser.error(f"--config {args.config}: {exc}")
        if not isinstance(values, dict):
            parser.error(f"--config {args.config}: expected a JSON object")
        sp = _subparsers(parser)[args.command]
        defaults = {key.replace("-", "_"): value for key, value in values.items()}
        options = {a.dest: a for a in sp._actions if a.option_strings and a.dest != "help"}
        unknown = sorted(set(defaults) - set(options))
        if unknown:
            sp.error(f"config keys that are not {args.command} options: {', '.join(unknown)}")
        sp.set_defaults(
            **{dest: _config_value(sp, args.config, options[dest], value) for dest, value in defaults.items()}
        )
        args = parser.parse_args(argv)
    try:
        _check_tolerances(args)
        if args.command == "spectrum":
            return cmd_spectrum(args)
        if args.command == "reilly":
            return cmd_reilly(args)
        return cmd_bounds(args)
    except MeshError as exc:
        print(f"mesh error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
