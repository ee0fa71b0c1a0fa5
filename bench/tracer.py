"""Spans and counts around the library's public layer functions.

The library is not edited: a ``Tracer`` rebinds every name in every loaded
``octacolor`` module that refers to a traced function, so calls made from
inside the library (``pipeline.run_check`` calling ``cone.extreme_rays``,
the ``families`` completion gate calling ``shapesys.kernel_basis``) are
recorded as well as calls from the benchmark.  ``restore`` puts every
binding back, so untraced passes run the original code.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of
the enclosing span or -1, ``op`` the operation id set by the caller.
Spans and counts stay in memory until the caller writes them out.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter


def _count_constraints(system):
    return {"shapesys.columns": system.n_cols}


def _count_rays(cd):
    return {"cone.rays": len(cd.extreme_rays or ())}


def _count_points(points):
    return {"cone.points": len(points),
            "cone.points_positive": sum(1 for p in points if p.strictly_positive)}


def _count_triangulation(tri):
    return {"geometry.realizations": 1, "geometry.triangles": len(tri.triangles)}


def _count_instance(_g):
    return {"families.instances": 1}


PACKAGE = "octacolor"

# qualified name -> counter extractor applied to the result (or None)
LAYER_FUNCTIONS: dict[str, object] = {
    "families.gen_spiral": _count_instance,
    "emg.parse_emg": None,
    "emg.render_emg": None,
    "emg.validate_plausible": None,
    "labeling.polygon_boundaries": None,
    "labeling.assign_labels": None,
    "shapesys.build_constraints": _count_constraints,
    "shapesys.kernel_basis": None,
    "shapesys.verify_lemmas": None,
    "cone.extreme_rays": _count_rays,
    "cone.lattice_basis": None,
    "cone.enumerate_lattice_points": _count_points,
    "qform.assemble_form": None,
    "qform.restrict_form": None,
    "qform.signature": None,
    "qform.verify_triangle_identity": None,
    "geometry.realize_polygons": None,
    "geometry.develop_surface": None,
    "geometry.build_triangulation": _count_triangulation,
    "geometry.four_color": None,
    "geometry.develop_net": None,
    "svg.render_net": None,
    "pipeline.run_check": None,
    "pipeline.run_survey": None,
}

COUNT_NAMES = ("shapesys.columns", "cone.rays", "cone.points", "cone.points_positive",
               "geometry.realizations", "geometry.triangles", "families.instances")


class Tracer:
    """Spans and counts around ``LAYER_FUNCTIONS``, or only the names in ``only``."""

    def __init__(self, only=None):
        self.functions = {q: c for q, c in LAYER_FUNCTIONS.items() if only is None or q in only}
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Rebind every reference to a traced function in the package."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for qualname, count in self.functions.items():
            module_name, attr = qualname.rsplit(".", 1)
            target = inspect.unwrap(getattr(sys.modules[f"{PACKAGE}.{module_name}"], attr))
            for module in modules:
                for name, value in list(vars(module).items()):
                    if callable(value) and inspect.unwrap(value) is target:
                        self._saved.append((module, name, value))
                        setattr(module, name, self._wrap(qualname, value, count))

    def restore(self) -> None:
        for module, name, value in reversed(self._saved):
            setattr(module, name, value)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _wrap(self, qualname: str, fn, count):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (qualname, start, end, parent, self.op)
            if count is not None:
                self.counts.update(count(result))
            return result

        return traced


def layer_seconds(spans) -> dict[str, float]:
    """Inclusive seconds per span name, counting only the outermost span
    of each name so that a call nested in a same-named call is not
    counted twice."""
    totals: dict[str, float] = {}
    for name, start, end, parent, _op in spans:
        p = parent
        while p != -1 and spans[p][0] != name:
            p = spans[p][3]
        if p == -1:
            totals[name] = totals.get(name, 0.0) + (end - start)
    return totals


def self_seconds(spans, names) -> float:
    """Time inside spans called ``names`` not covered by a child span.

    Children of one span run one after another on one thread, so the
    covered part is the sum of the direct children's durations.
    """
    own = {i: end - start for i, (name, start, end, _p, _op) in enumerate(spans) if name in names}
    for name, start, end, parent, _op in spans:
        if parent in own:
            own[parent] -= end - start
    return sum(own.values())
