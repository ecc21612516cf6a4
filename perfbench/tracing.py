"""Per-layer tracing from outside the package.

``Tracer.install`` wraps the public functions and methods of each layer of
``q2quartic`` and rebinds every reference the package's modules hold to
them, so calls between layers go through the wrappers; nothing under
``src/`` changes.  Each wrapped call is a span.  Its self time is its
duration minus the time covered by wrapped calls it made.

Spans of the hot layers (residue, rings, predicates) number in the
millions, so they are aggregated in memory per function as calls, total
time and self time, together with the caller's layer where a metric needs
it.  Spans of the coarse entry points (verify, the oracles, the measures,
the CLI) are kept whole, with their parent span and the operation they
belong to, and written out when the run ends.

Density workers forked by ``density_measures`` inherit the wrappers; each
worker task writes its aggregates to a file, which the parent merges, so
per-layer counts of ``density-jobs2`` cover every process.  Self times are
then summed over processes.
"""

from __future__ import annotations

import functools
import glob
import json
import os
from time import perf_counter

# (layer, module, class or None, attribute, kind)
#   kind: plain | caller (also counts calls per caller layer) | span (kept whole)
#         | mul (keyed by ring shape) | worker (density pool task)
_TARGETS = [
    *(("residue", "q2quartic.residue", "ResidueField", a, "plain")
      for a in ("add", "mul", "pow", "inv", "sqrt", "elements", "trace", "artin_schreier_nonzero")),
    ("residue", "q2quartic.residue", None, "quad_root_count", "plain"),
    ("residue", "q2quartic.residue", None, "cubic_image_size", "plain"),
    *(("rings", "q2quartic.padic.rings", cls, a, "mul" if a == "mul" else "plain")
      for cls in ("UnramifiedRing", "EisensteinStep") for a in ("mul", "inv_unit", "shift")),
    *(("field", "q2quartic.padic.field", "LocalField", a, "caller" if a == "is_square" else "plain")
      for a in ("square_reach", "is_square", "hecke_disc", "square_class_reps", "from_digits",
                "norm", "derive_params")),
    ("field", "q2quartic.padic.field", None, "ramified_quadratic", "plain"),
    ("field", "q2quartic.padic.field", None, "field_from_spec", "plain"),
    *(("quartic", "q2quartic.padic.quartic", None, a, "plain")
      for a in ("count_roots_in_stem", "cubic_k_roots", "is_one_aut", "in_Tm", "stem_ring")),
    *(("quartic", "q2quartic.padic.quartic", None, a, "caller")
      for a in ("disc_raw", "disc_valuation", "classify_quartic", "classify_by_invariants",
                "resolvent_cubic", "classify_tower_from_norm")),
    ("density", "q2quartic.oracle.density", None, "density_counts", "span"),
    ("density", "q2quartic.oracle.density", None, "density_measures", "span"),
    ("density", "q2quartic.oracle.density", None, "_worker_run", "worker"),
    ("tower", "q2quartic.oracle.tower", None, "tower_counts", "span"),
    ("tower", "q2quartic.oracle.tower", None, "tower_pair_totals", "span"),
    ("dedup", "q2quartic.oracle.dedup", None, "dedup_counts", "span"),
    *(("measure", "q2quartic.oracle.measure", None, a, "span")
      for a in ("measure_set", "t_m_measure", "one_aut_measure", "cubic_congruence_measure")),
    *(("counts", "q2quartic.counts", None, a, "plain")
      for a in ("count_one_aut", "count_S4", "count_A4", "count_V4", "n_ext", "n_c4",
                "count_C4", "count_tow", "count_D4", "count_quad_ext")),
    *(("masses", "q2quartic.masses", None, a, "plain")
      for a in ("mass_closed_form", "mass_from_counts", "tower_mass_sum", "serre_total")),
    ("params", "q2quartic.params", None, "validate", "plain"),
    ("verify", "q2quartic.oracle.verify", None, "verify", "span"),
    ("cli", "q2quartic.cli", None, "run", "span"),
]

SHAPES = ("u1", "uf", "eis", "eis2")


class Tracer:
    """Aggregates per wrapped function; keeps whole spans for the coarse ones."""

    def __init__(self, out_dir: str):
        # forked workers inherit this path, so it names the pass's own process
        self.worker_dir = os.path.join(out_dir, f"workers-{os.getpid()}")
        self.stats: dict[str, list] = {}  # key -> [calls, total_s, self_s]
        self.layer_of: dict[str, str] = {}
        self.callers: dict[str, dict] = {}  # key -> {caller layer: calls}
        self.spans: list = []  # [id, parent id, name, op, start, end]
        self.op = None
        self.memo = []  # the counts layer's lru caches
        self.classes = 0  # coefficient classes enumerated by measure_set
        self._stack = [[0.0, "bench", None]]  # frames: [child time, layer, span id]
        self._worker_tasks = 0

    def reset(self):
        """Zero every aggregate in place (the wrappers hold references to them)."""
        for entry in self.stats.values():
            entry[:] = [0, 0.0, 0.0]
        for table in self.callers.values():
            table.clear()
        self.spans.clear()
        self.classes = 0
        del self._stack[1:]
        self._stack[0][0] = 0.0

    # -- wrappers -----------------------------------------------------------

    def _entry(self, key, layer):
        self.layer_of[key] = layer
        return self.stats.setdefault(key, [0, 0.0, 0.0])

    def _wrap(self, fn, layer, key, kind):
        stack = self._stack
        if kind == "mul":
            from q2quartic.padic.rings import UnramifiedRing

            by_shape = {s: self._entry(f"rings.mul.{s}", layer) for s in SHAPES}
            if fn.__qualname__.startswith("UnramifiedRing"):
                pick = lambda ring: by_shape["u1"] if ring.f == 1 else by_shape["uf"]
            else:
                pick = lambda ring: by_shape["eis"] if type(ring.base) is UnramifiedRing else by_shape["eis2"]

            @functools.wraps(fn)
            def wrapper(ring, *args):
                frame = [0.0, layer, stack[-1][2]]
                stack.append(frame)
                t0 = perf_counter()
                try:
                    return fn(ring, *args)
                finally:
                    dt = perf_counter() - t0
                    stack.pop()
                    stack[-1][0] += dt
                    entry = pick(ring)
                    entry[0] += 1
                    entry[1] += dt
                    entry[2] += dt - frame[0]

            return wrapper

        entry = self._entry(key, layer)
        if kind == "worker":
            return self._worker_wrapper(fn, layer, entry)
        by_caller = self.callers.setdefault(key, {}) if kind == "caller" else None
        spans = self.spans if kind == "span" else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if by_caller is not None:
                by_caller[parent[1]] = by_caller.get(parent[1], 0) + 1
            span_id = parent[2]
            if spans is not None:
                span_id = len(spans)
                spans.append([span_id, parent[2], key, tracer.op, 0.0, 0.0])
            frame = [0.0, layer, span_id]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                dt = t1 - t0
                stack.pop()
                stack[-1][0] += dt
                entry[0] += 1
                entry[1] += dt
                entry[2] += dt - frame[0]
                if spans is not None:
                    spans[span_id][4:] = [t0, t1]

        return wrapper

    def _worker_wrapper(self, fn, layer, entry):
        """A density pool task: trace it from scratch and leave its aggregates in a file."""

        @functools.wraps(fn)
        def wrapper(*args):
            self.reset()
            frame = [0.0, layer, None]
            self._stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args)
            finally:
                dt = perf_counter() - t0
                self._stack.pop()
                entry[0] += 1
                entry[1] += dt
                entry[2] += dt - frame[0]
                self._worker_tasks += 1
                os.makedirs(self.worker_dir, exist_ok=True)
                path = os.path.join(self.worker_dir, f"{os.getpid()}-{self._worker_tasks}.json")
                with open(path, "w") as fh:
                    json.dump({"stats": self.stats, "callers": self.callers}, fh)

        return wrapper

    def install(self):
        """Wrap every target and rebind each reference the package's modules hold."""
        import importlib
        import sys

        for mod in ("q2quartic.cli", "q2quartic.oracle", "q2quartic.masses"):
            importlib.import_module(mod)
        modules = [m for name, m in sys.modules.items() if name.startswith("q2quartic") and m]
        for layer, modname, clsname, attr, kind in _TARGETS:
            key = f"{layer}.{attr}"
            owner = sys.modules[modname]
            if clsname is not None:
                cls = getattr(owner, clsname)
                setattr(cls, attr, self._wrap(cls.__dict__[attr], layer, key, kind))
                continue
            orig = getattr(owner, attr)
            if hasattr(orig, "cache_info"):
                self.memo.append(orig)
            wrapped = self._wrap(orig, layer, key, kind)
            if key == "measure.measure_set":
                wrapped = self._count_classes(wrapped)
            for mod in modules:
                namespace = vars(mod)
                for name, value in list(namespace.items()):
                    if value is orig:
                        namespace[name] = wrapped
                    elif type(value) is dict:
                        for k, v in value.items():
                            if v is orig:
                                value[k] = wrapped

    def _count_classes(self, inner):
        @functools.wraps(inner)
        def wrapper(field, predicate, c, *args, **kwargs):
            self.classes += (field.q - 1) * field.q ** (4 * c - 5)
            return inner(field, predicate, c, *args, **kwargs)

        return wrapper

    def memo_info(self):
        hits = sum(fn.cache_info().hits for fn in self.memo)
        misses = sum(fn.cache_info().misses for fn in self.memo)
        return hits, misses

    def merge_workers(self):
        """Add the aggregates the density workers left behind, and remove their files."""
        for path in sorted(glob.glob(os.path.join(self.worker_dir, "*.json"))):
            with open(path) as fh:
                blob = json.load(fh)
            os.remove(path)
            for key, (calls, total, own) in blob["stats"].items():
                entry = self.stats[key]
                entry[0] += calls
                entry[1] += total
                entry[2] += own
            for key, table in blob["callers"].items():
                mine = self.callers[key]
                for layer, n in table.items():
                    mine[layer] = mine.get(layer, 0) + n
        if os.path.isdir(self.worker_dir):
            os.rmdir(self.worker_dir)

    # -- reading ------------------------------------------------------------

    def calls(self, key):
        return self.stats[key][0]

    def total(self, key):
        return self.stats[key][1]

    def own(self, key):
        return self.stats[key][2]

    def from_layer(self, key, layer):
        return self.callers[key].get(layer, 0)

    def layer_calls(self, layer):
        return sum(e[0] for k, e in self.stats.items() if self.layer_of[k] == layer)

    def layer_self(self, layer):
        return sum(e[2] for k, e in self.stats.items() if self.layer_of[k] == layer)

    def dump(self, path, extra):
        with open(path, "w") as fh:
            json.dump(
                {
                    **extra,
                    "functions": {
                        k: {"layer": self.layer_of[k], "calls": c, "total_s": t, "self_s": s}
                        for k, (c, t, s) in sorted(self.stats.items())
                    },
                    "callers": self.callers,
                    "spans": [
                        dict(zip(("id", "parent", "name", "op", "start", "end"), s))
                        for s in self.spans
                    ],
                },
                fh,
                indent=1,
            )


def _ratio(n, d):
    return n / d if d > 0 else 0.0


def layer_metrics(tr: Tracer, obs: dict, children_cpu: float, memo: tuple) -> dict:
    """The per-layer metrics of one traced pass, as {name: (value, unit)}."""
    out = {
        "residue.calls": (tr.layer_calls("residue"), "count"),
        "residue.self_s": (tr.layer_self("residue"), "s"),
    }
    for shape in SHAPES:
        key = f"rings.mul.{shape}"
        out[f"rings.mul.calls.{shape}"] = (tr.calls(key), "count")
        out[f"rings.mul.self_s.{shape}"] = (tr.own(key), "s")
        out[f"rings.mul_per_s.{shape}"] = (_ratio(tr.calls(key), tr.own(key)), "1/s")
    for op in ("inv_unit", "shift"):
        out[f"rings.{op}.calls"] = (tr.calls(f"rings.{op}"), "count")
        out[f"rings.{op}.self_s"] = (tr.own(f"rings.{op}"), "s")
    for fn in ("square_reach", "hecke_disc", "from_digits", "ramified_quadratic"):
        out[f"field.{fn}.calls"] = (tr.calls(f"field.{fn}"), "count")
        out[f"field.{fn}.self_s"] = (tr.own(f"field.{fn}"), "s")
    out["field.is_square.calls"] = (tr.calls("field.is_square"), "count")
    out["field.square_class_reps.self_s"] = (tr.own("field.square_class_reps"), "s")
    for fn in ("disc_raw", "classify_quartic", "classify_by_invariants", "count_roots_in_stem",
               "cubic_k_roots", "is_one_aut"):
        out[f"quartic.{fn}.calls"] = (tr.calls(f"quartic.{fn}"), "count")
        out[f"quartic.{fn}.self_s"] = (tr.own(f"quartic.{fn}"), "s")
    out["quartic.stem_ring.calls"] = (tr.calls("quartic.stem_ring"), "count")

    # The enumerator certifies a tower leaf with one or two direct is_square
    # calls and needs the resolvent only when the first says "not square";
    # every other leaf is a Krasner leaf.
    leaves = obs.get("leaves", 0)
    tower_leaves = tr.from_layer("field.is_square", "density") - tr.from_layer(
        "quartic.resolvent_cubic", "density"
    )
    density_wall = tr.total("density.density_counts")
    out.update({
        "density.self_s": (tr.layer_self("density"), "s"),
        "density.leaves": (leaves, "count"),
        "density.pruned": (obs.get("pruned", 0), "count"),
        "density.max_depth": (obs.get("max_depth", 0), "count"),
        "density.cross_checks": (obs.get("cross_checks", 0), "count"),
        "density.leaves_per_s": (_ratio(leaves, density_wall), "1/s"),
        "density.leaves.krasner": (leaves - tower_leaves, "count"),
        "density.leaves.tower": (tower_leaves, "count"),
        "density.children_cpu_s": (children_cpu, "s"),
        "density.busy_workers": (_ratio(children_cpu, density_wall), "count"),
    })
    pairs = tr.from_layer("quartic.classify_tower_from_norm", "tower")
    classes = tr.from_layer("quartic.disc_valuation", "dedup")
    out.update({
        "tower.self_s": (tr.layer_self("tower"), "s"),
        "tower.pairs": (pairs, "count"),
        "tower.pairs_per_s": (_ratio(pairs, tr.total("tower.tower_counts")), "1/s"),
        "dedup.self_s": (tr.layer_self("dedup"), "s"),
        "dedup.classes": (classes, "count"),
        "dedup.classified": (tr.from_layer("quartic.classify_quartic", "dedup"), "count"),
        "dedup.classes_per_s": (_ratio(classes, tr.total("dedup.dedup_counts")), "1/s"),
        "measure.self_s": (tr.layer_self("measure"), "s"),
        "measure.classes": (tr.classes, "count"),
        "counts.cells": (tr.layer_calls("counts"), "count"),
        "counts.self_s": (tr.layer_self("counts"), "s"),
        "counts.count_C4.self_s": (tr.own("counts.count_C4"), "s"),
        "counts.count_C4.total_s": (tr.total("counts.count_C4"), "s"),
        "counts.memo_hits": (memo[0], "count"),
        "counts.memo_misses": (memo[1], "count"),
        "params.validate.calls": (tr.calls("params.validate"), "count"),
        "params.validate.self_s": (tr.own("params.validate"), "s"),
        "masses.calls": (tr.layer_calls("masses"), "count"),
        "masses.self_s": (tr.layer_self("masses"), "s"),
    })
    return out
