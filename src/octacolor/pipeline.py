"""The derivation chain of one instance, check runs and JSON reports.

``Instance`` derives the chain of one combinatorial type once: validation,
polygon boundaries, direction labels, closure system, kernel and lemma
checks, cone and extreme rays, lattice basis, restricted quadratic form,
and the surface frame (what developing a surface needs of the type alone).
Each stage is a cached property computed on first use, so a caller pays
only for the stages it reads; ``develop`` realizes one edge-length vector
and develops it against the frame.  One ``*_json`` function per stage
builds its report fragment: the CLI emits them, and ``run_check``
assembles its report from them.  ``run_survey`` reads the same stages but
reports only a few fields, so it builds no fragment.  Exact quantities
serialize as integer or rational strings.
"""

from __future__ import annotations

import time
from functools import cached_property

from .cone import enumerate_lattice_points, extreme_rays, lattice_basis, restrict_to_kernel
from .emg import EnhancedMultigraph, validate_plausible
from .geometry import (build_triangulation, cone_point_coordinates, four_color,
                       place_surface, realize_polygons, surface_frame, triarea)
from .labeling import HolonomyError, assign_labels, polygon_boundaries
from .qform import assemble_form, restrict_form, verify_triangle_identity
from .shapesys import build_constraints, kernel_basis, verify_lemmas


class Instance:
    """One combinatorial type and its derivation chain.  Stages look the
    stage functions up by their module names at call time, so rebinding
    a name (as a tracer does) reaches every caller."""

    def __init__(self, g: EnhancedMultigraph, seed_flag: tuple[int, int] | None = None):
        self.g = g
        self.seed_flag = seed_flag

    @cached_property
    def validation(self):
        return validate_plausible(self.g)

    @cached_property
    def boundaries(self):
        return polygon_boundaries(self.g)

    @cached_property
    def labels(self):
        return assign_labels(self.g, self.boundaries, self.seed_flag)

    @cached_property
    def system(self):
        return build_constraints(self.g, self.boundaries, self.labels)

    @cached_property
    def kernel(self):
        return kernel_basis(self.system)

    @cached_property
    def lemmas(self):
        return verify_lemmas(self.system, self.kernel)

    @cached_property
    def cone(self):
        return extreme_rays(restrict_to_kernel(self.kernel))

    @cached_property
    def lattice(self):
        return lattice_basis(self.kernel)

    @cached_property
    def form(self):
        return restrict_form(assemble_form(self.g, self.boundaries), self.kernel)

    @cached_property
    def frame(self):
        return surface_frame(self.boundaries)

    def lattice_points(self, max_len: int, budget: int = 10 ** 6):
        return enumerate_lattice_points(self.lattice, max_len, budget=budget)

    def develop(self, vector):
        """Realize the edge-length vector (in kernel column order) and
        develop it against the type's frame, as ``develop_surface`` would."""
        lengths = dict(zip(self.kernel.col_edges, vector))
        charts = realize_polygons(self.g, self.boundaries, self.labels, lengths)
        return place_surface(self.frame, charts)


def _half(n: int) -> str:
    """n/2 in lowest terms, as ``str(Fraction(n, 2))`` writes it."""
    return f"{n}/2" if n % 2 else str(n // 2)


def grid_point_json(p) -> dict:
    """GridPoint (X, Y) as the rationals x = X/2 and ys3 = Y/2 of the
    planar point (x, ys3*sqrt(3))."""
    return {"x": _half(p.X), "ys3": _half(p.Y)}


def vector_json(vec) -> list[str]:
    return [str(x) for x in vec]


def matrix_json(rows) -> list[list[str]]:
    return [vector_json(row) for row in rows]


# ---------------------------------------------------------------------------
# one JSON fragment per stage

def validation_json(rep) -> dict:
    findings = [{"rule": f.rule, "severity": f.severity, "message": f.message} for f in rep.findings]
    return {"plausible": rep.plausible, "counts": rep.counts, "findings": findings}


def labeling_json(inst: Instance) -> dict:
    """The labelling, or its holonomy conflict reported as ``consistent: false``."""
    try:
        labels = inst.labels
    except HolonomyError as exc:
        return {"consistent": False, "error": str(exc)}
    return {"consistent": True, "seed": list(labels.seed),
            "exponents": {str(eid): e for eid, e in labels.exponents}}


def lemmas_json(kernel, lemmas) -> dict:
    checks = [{"name": c.name, "passed": c.passed, "detail": c.detail} for c in lemmas.checks]
    return {"rank": kernel.rank, "dimension": kernel.dimension, "lemmas": checks}


def cone_json(cd) -> dict:
    return {"dimension": cd.dimension, "rays": matrix_json(cd.extreme_rays or ()),
            "lineality": matrix_json(cd.lineality), "has_positive_point": cd.has_positive_point}


def lattice_points_json(points, max_len: int) -> dict:
    return {"max_len": max_len, "count": len(points),
            "strictly_positive": sum(1 for p in points if p.strictly_positive),
            "points": [{"vector": vector_json(p.vector), "strictly_positive": p.strictly_positive}
                       for p in points]}


def form_json(qf) -> dict:
    sig = list(qf.signature)
    return {"global_matrix": matrix_json(qf.global_matrix), "restricted": matrix_json(qf.restricted),
            "signature": sig, "expected_signature": [1, 3, 0],
            "signature_as_expected": sig == [1, 3, 0], "non_degenerate": sig[2] == 0}


def realization_json(vector, surface, tri) -> dict:
    """One realized point: placed polygons, cone points and the colored mesh."""
    return {"point": vector_json(vector),
            "polygons": {str(pid): [grid_point_json(p) for p in ch.chain]
                         for pid, ch in sorted(surface.placed.items())},
            "cone_points": [grid_point_json(c) for c in cone_point_coordinates(surface)],
            "triangulation": {"vertices": len(tri.positions), "edges": len(tri.edges),
                              "triangles": len(tri.triangles),
                              "degree_histogram": _histogram_json(tri),
                              "vertex_colors": list(tri.vertex_colors)}}


def _histogram_json(tri) -> dict:
    return {str(d): c for d, c in sorted(tri.degree_histogram().items())}


# ---------------------------------------------------------------------------
# check and survey runs

class PipelineReport:
    def __init__(self, instance: dict, validation: dict):
        self.instance = instance
        self.validation = validation
        self.labeling: dict = {}
        self.system: dict = {}
        self.cone: dict = {}
        self.lattice: dict = {}
        self.realizations: list = []
        self.form: dict = {}
        self.timings: dict = {}
        self.ok = False

    def to_json_dict(self) -> dict:
        """The report's fields, shared, not copied: each already holds plain
        JSON data."""
        return {"instance": self.instance, "validation": self.validation,
                "labeling": self.labeling, "system": self.system, "cone": self.cone,
                "lattice": self.lattice, "realizations": self.realizations,
                "form": self.form, "timings": self.timings, "ok": self.ok}


class _Laps:
    """Wall time per stage, each lap measured from the end of the last."""

    def __init__(self):
        self.start = self.last = time.perf_counter()
        self.timings: dict[str, float] = {}

    def __call__(self, stage: str) -> None:
        t = time.perf_counter()
        self.timings[stage], self.last = t - self.last, t

    def done(self) -> dict:
        self.timings["total"] = time.perf_counter() - self.start
        return {k: round(v, 6) for k, v in self.timings.items()}


def run_check(g: EnhancedMultigraph, name: str = "instance", max_len: int = 3,
              budget: int = 10 ** 6) -> PipelineReport:
    """Full pipeline on one instance; every verdict is an upstream invariant.

    ``ok`` needs every lemma, a strictly positive cone, the signature
    (1, 3, 0), at least one realized point and the form identity on every
    realized point: a length bound that admits no strictly positive
    lattice point fails.
    """
    lap = _Laps()
    inst = Instance(g)
    rep = inst.validation
    report = PipelineReport(instance={"name": name, "V": rep.counts["V"], "E_b": rep.counts["E_b"],
                                      "E_red": rep.counts["E_red"]},
                            validation=validation_json(rep))

    def done() -> PipelineReport:
        report.timings = lap.done()
        return report

    lap("validate")
    if not rep.plausible:
        return done()
    report.labeling = labeling_json(inst)
    if not report.labeling["consistent"]:
        return done()
    lap("labels")
    report.system = {"rows": inst.system.n_rows, "cols": inst.system.n_cols,
                     **lemmas_json(inst.kernel, inst.lemmas)}
    lap("solve")
    report.cone = {**cone_json(inst.cone), "lattice_basis": matrix_json(inst.lattice.vectors)}
    lap("cone")
    points = inst.lattice_points(max_len, budget)
    report.lattice = lattice_points_json(points, max_len)
    lap("lattice")
    report.form = form_json(inst.form)
    lap("form")
    report.realizations = [_check_realization(inst, p.vector) for p in points if p.strictly_positive]
    lap("realize")
    report.ok = (inst.lemmas.all_passed and bool(inst.cone.has_positive_point)
                 and report.form["signature_as_expected"] and bool(report.realizations)
                 and all(r.get("identity_holds") for r in report.realizations))
    return done()


def _check_realization(inst: Instance, vector) -> dict:
    """Realize one point and check the form identity on its mesh."""
    entry: dict = {"vector": vector_json(vector)}
    try:
        surface = inst.develop(vector)
        tri = four_color(build_triangulation(surface))
        areas = sum(triarea(ch.chain) for ch in surface.placed.values())
        lengths = dict(zip(inst.kernel.col_edges, vector))
        identity = verify_triangle_identity(inst.form, lengths, tri, areas)
    except ValueError as exc:
        entry["error"] = f"{type(exc).__name__}: {exc}"
        return entry
    # four_color raises on a properness or mod-3 failure, so reaching this
    # point certifies both
    return {**entry, "triangles": identity.triangle_count,
            "form_value": str(identity.form_value), "identity_holds": identity.holds,
            "degree_histogram": _histogram_json(tri),
            "four_colored": tri.vertex_colors is not None,
            "mod3_balanced": tri.vertex_colors is not None,
            "cone_points": [grid_point_json(c) for c in cone_point_coordinates(surface)]}


def run_survey(instances: list[tuple[str, EnhancedMultigraph]], max_len: int = 0,
               budget: int = 10 ** 6) -> dict:
    """Pipeline summary per instance: rank, lemma verdict, cone, positivity,
    signature and the lattice point counts at ``max_len``.

    Each row reads the stages ``run_check`` reads, in the same order, from
    one ``Instance``, and serializes only what it reports.  A stage that
    cannot run (an implausible instance, a holonomy conflict) leaves its
    fields and every later one ``None``, with ``n_rays`` 0.
    """
    return {"survey": [_survey_row(name, g, max_len, budget) for name, g in instances]}


def _survey_row(name: str, g: EnhancedMultigraph, max_len: int, budget: int) -> dict:
    lap = _Laps()
    inst = Instance(g)
    row = {"instance": name, "plausible": inst.validation.plausible, "rank": None,
           "dimension": None, "lemmas_ok": None, "has_positive_point": None, "n_rays": 0,
           "signature": None, "signature_as_expected": None, "points": None,
           "strictly_positive": None}

    def done() -> dict:
        row["timings"] = lap.done()
        return row

    lap("validate")
    if not row["plausible"]:
        return done()
    try:
        inst.labels
    except HolonomyError:
        return done()
    lap("labels")
    row["rank"], row["dimension"] = inst.kernel.rank, inst.kernel.dimension
    row["lemmas_ok"] = inst.lemmas.all_passed
    lap("solve")
    row["has_positive_point"] = inst.cone.has_positive_point
    row["n_rays"] = len(inst.cone.extreme_rays)
    lap("cone")
    points = inst.lattice_points(max_len, budget)
    row["points"] = len(points)
    row["strictly_positive"] = sum(p.strictly_positive for p in points)
    lap("lattice")
    row["signature"] = list(inst.form.signature)
    row["signature_as_expected"] = row["signature"] == [1, 3, 0]
    lap("form")
    return done()
