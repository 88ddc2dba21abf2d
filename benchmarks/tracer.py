"""Span tracing of hodgebench's public functions, installed from outside.

``Tracer.install`` rebinds the functions named in ``LAYERS`` in every
``hodgebench`` namespace that holds them (the defining module, the package
root and every module that re-imports them, such as ``hodgebench.cli`` or
``hodgebench.bounds``), and wraps the listed methods on their classes.  The
package source is never edited; an untraced process never imports this file.

Each wrapped call appends one span ``[layer, start, end, parent]`` to an
in-memory list.  A layer's self time is the sum of its spans' durations
minus the time covered by their child spans.  The per-form exterior
operations run tens of thousands of times per pass and only get a counter.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# (layer, module, class or None, attribute names).  Class attributes that are
# properties get their getter wrapped.
LAYERS = (
    ("meshes.generate", "hodgebench.meshes", None,
     ("generate_icosphere", "generate_ellipsoid", "generate_ball", "generate_torus")),
    ("meshes.load_mesh", "hodgebench.meshes", None, ("load_mesh",)),
    ("meshes.discrete_shape", "hodgebench.meshes", None, ("discrete_shape",)),
    ("meshes.MeshComplex.edges", "hodgebench.meshes", "MeshComplex", ("edges",)),
    ("meshes.MeshComplex.edge_index", "hodgebench.meshes", "MeshComplex", ("edge_index",)),
    ("meshes.MeshComplex.report", "hodgebench.meshes", "MeshComplex", ("report",)),
    ("meshes.MeshComplex.validate", "hodgebench.meshes", "MeshComplex", ("validate",)),
    ("meshes.MeshComplex.boundary_mesh", "hodgebench.meshes", "MeshComplex", ("boundary_mesh",)),
    ("spectrum.assemble_dec", "hodgebench.spectrum", None, ("assemble_dec",)),
    ("spectrum.spectrum_fn", "hodgebench.spectrum", None,
     ("spectrum_functions", "spectrum_one_forms", "spectrum_two_forms")),
    # scipy's solvers as bound in hodgebench.spectrum: the pencil solve
    ("spectrum.pencil_solve.dense", "hodgebench.spectrum", None, ("eigh",)),
    ("spectrum.pencil_solve.shift_invert", "hodgebench.spectrum", None, ("eigsh",)),
    ("fields.eval", "hodgebench.fields", "FormField", ("value", "jacobian")),
    ("fields.eval", "hodgebench.fields", "ScalarField", ("value", "gradient", "hessian")),
    ("exterior.induced_endomorphism", "hodgebench.exterior", None, ("induced_endomorphism",)),
    ("exterior.duality_identity_residual", "hodgebench.exterior", None, ("duality_identity_residual",)),
    ("curvature", "hodgebench.curvature", None,
     ("p_curvature_list", "lowest_p_curvature", "lowest_p_curvature_global", "is_p_convex",
      "sum_largest_squared_curvatures", "gallot_meyer_bound", "bourguignon_w",
      "write_vertex_curvature_csv")),
    ("reilly.evaluate_reilly", "hodgebench.reilly", None, ("evaluate_reilly",)),
    ("reilly.evaluate_classical_reilly", "hodgebench.reilly", None, ("evaluate_classical_reilly",)),
    ("reilly.check_commutation", "hodgebench.reilly", None, ("check_commutation",)),
    ("reilly.check_derivative_formulas", "hodgebench.reilly", None, ("check_derivative_formulas",)),
    ("reilly.restriction_identity_residuals", "hodgebench.reilly", None,
     ("restriction_identity_residuals",)),
    ("reilly.check_stokes", "hodgebench.reilly", None, ("check_stokes",)),
    ("bounds.verdict", "hodgebench.bounds", None,
     ("main_lower_bound", "xia_bound", "upper_bound_degree_one", "upper_bound_degree_p",
      "special_killing_relation")),
    ("bounds.equality_case_diagnostics", "hodgebench.bounds", None, ("equality_case_diagnostics",)),
    ("report.write", "hodgebench.spectrum", "SpectrumReport", ("to_json", "to_csv")),
    ("report.write", "hodgebench.reilly", "ReillyLedger", ("to_json",)),
    ("report.write", "hodgebench.bounds", None, ("verdicts_to_json",)),
    ("cli", "hodgebench.cli", None,
     ("main", "cmd_spectrum", "cmd_reilly", "cmd_bounds", "parse_geometry", "build_parser")),
)

# counted, not spanned
PER_FORM = ("wedge", "interior_product", "hodge_star", "tangential_part")

# layers whose self time is reported (one metric each, in this order)
SELF_TIME_LAYERS = tuple(dict.fromkeys(layer for layer, *_ in LAYERS))

CALL_COUNTS = ("meshes.MeshComplex.edges", "meshes.discrete_shape", "spectrum.assemble_dec",
               "exterior.induced_endomorphism")


def _count_generate(counts, spans, parent, args, result):
    # nested generators (ellipsoid -> icosphere) would count vertices twice
    if parent < 0 or spans[parent][0] != "meshes.generate":
        counts["meshes.generate.vertices"] += result.n_vertices


def _count_verdicts(counts, spans, parent, args, result):
    verdict = result[1] if isinstance(result, tuple) else result
    counts["bounds.verdicts"] += 1
    counts["bounds.violations"] += int(verdict.applicable and not verdict.satisfied)


# layer -> hook(counts, spans, parent, args, result) run after each call
COUNT_HOOKS = {
    "meshes.generate": _count_generate,
    "meshes.discrete_shape": lambda c, s, p, args, r: c.update(
        {"meshes.discrete_shape.vertices": args[0].n_vertices}),
    "spectrum.assemble_dec": lambda c, s, p, args, r: c.update(
        {"spectrum.clamped_weights": len(r.clamped_star0) + len(r.clamped_star1)}),
    "spectrum.pencil_solve.dense": lambda c, s, p, args, r: c.update(
        {"spectrum.pencil_solve.dense.unknowns": args[0].shape[0]}),
    "spectrum.pencil_solve.shift_invert": lambda c, s, p, args, r: c.update(
        {"spectrum.pencil_solve.shift_invert.unknowns": args[0].shape[0]}),
    "fields.eval": lambda c, s, p, args, r: c.update({"fields.eval.points": len(args[1])}),
    "bounds.verdict": _count_verdicts,
}

COUNTERS = (
    "meshes.generate.vertices",
    "meshes.discrete_shape.vertices",
    "spectrum.clamped_weights",
    "spectrum.pencil_solve.dense.unknowns",
    "spectrum.pencil_solve.shift_invert.unknowns",
    "fields.eval.points",
    "exterior.per_form_calls",
    "bounds.verdicts",
    "bounds.violations",
)


class Tracer:
    """In-memory spans and counters for one worker process."""

    def __init__(self):
        self.spans = []  # [layer, start, end, parent index or -1]
        self.stack = []
        self.counts = Counter()

    # -- wrappers ---------------------------------------------------------
    def _spanned(self, layer, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        hook = COUNT_HOOKS.get(layer)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            record = [layer, clock(), 0.0, parent]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if hook is not None:
                try:
                    hook(counts, spans, parent, args, result)
                except (AttributeError, IndexError, TypeError):
                    counts["hook_errors"] += 1  # the traced API changed shape
            return result

        return wrapper

    def _counted(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts["exterior.per_form_calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -----------------------------------------------------
    def install(self) -> list:
        """Wrap every listed function and method that exists.

        Returns the ``module.name`` entries not found, so a renamed or
        removed function shows as missing instead of stopping the run.
        """
        missing = []
        for layer, module, owner, names in LAYERS:
            mod = sys.modules[module]
            target = mod if owner is None else getattr(mod, owner, None)
            for name in names:
                attr = None if target is None else vars(target).get(name)
                if attr is None:
                    missing.append(f"{module}.{owner + '.' if owner else ''}{name}")
                elif owner is None:
                    # scipy's solvers are spans only where hodgebench.spectrum calls them
                    _rebind(attr, self._spanned(layer, attr), only=mod if name in ("eigh", "eigsh") else None)
                elif isinstance(attr, property):
                    setattr(target, name, property(self._spanned(layer, attr.fget)))
                else:
                    setattr(target, name, self._spanned(layer, attr))
        exterior = sys.modules["hodgebench.exterior"]
        for name in PER_FORM:
            fn = vars(exterior).get(name)
            if fn is None:
                missing.append(f"hodgebench.exterior.{name}")
            else:
                _rebind(fn, self._counted(fn))
        return missing

    # -- results ----------------------------------------------------------
    def summary(self) -> dict:
        """Per-layer self time, call counts and counters of this process."""
        child = [0.0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        calls = Counter()
        root_s = 0.0
        for i, (layer, start, end, parent) in enumerate(self.spans):
            self_s[layer] += end - start - child[i]
            calls[layer] += 1
            if parent < 0:
                root_s += end - start
        out = {f"{layer}.self_s": self_s[layer] for layer in SELF_TIME_LAYERS}
        out.update({f"{layer}.calls": calls[layer] for layer in CALL_COUNTS})
        out.update({name: self.counts[name] for name in COUNTERS})
        out["root_s"] = root_s
        out["hook_errors"] = self.counts["hook_errors"]
        return out


def _rebind(original, wrapper, only=None) -> None:
    """Replace ``original`` by ``wrapper`` in hodgebench namespaces."""
    modules = [only] if only is not None else [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == "hodgebench" or name.startswith("hodgebench."))
    ]
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
