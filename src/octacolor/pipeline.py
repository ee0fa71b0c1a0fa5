"""The derivation chain of one instance, check runs and JSON reports.

``Instance`` is the one place the chain of a combinatorial type is built:
blue faces, validation, polygon boundaries, direction labels, closure
system, kernel and lemma checks, lattice basis, in its coordinates the
cone, its extreme rays and the restricted form Q_tau, and the certificates
every verdict reads; then what realizing a point needs of the type: the
development plan and the surface frame, which developing a point and
gluing its mesh both read, and the map from a point's lattice
coefficients to its cone points, which checks every realized point.
Each stage is a cached property computed on first use; ``develop`` places
a point, ``coefficients`` reads its coordinates in L, ``realize`` verifies
it.  ``derivable`` is the stop rule: ``run_check`` and ``run_survey`` read
the stages in report order, validation always, the labels of a plausible
instance, and every later stage only when it is derivable, lapping each on
one integer clock (``_stopwatch``, in microseconds).
One ``*_json`` function per stage builds its report fragment, for the
CLI and ``run_check``; a survey row builds none.  Exact quantities
serialize as integer or rational strings.  The closure system and the
global form, 2V x E_b and E_b x E_b, serialize as their nonzeros
(``sparse_json``); every other matrix has four rows or four columns and
serializes dense.
"""

from __future__ import annotations

import time
from collections.abc import Iterable
from functools import cached_property
from operator import mul
from types import SimpleNamespace
from typing import TYPE_CHECKING, NamedTuple

from .cone import (ENUMERATION_BUDGET, enumerate_lattice_points, extreme_rays, lattice_basis,
                   lattice_coefficients, positive_point_check, restrict_to_lattice)
from .emg import EnhancedMultigraph, InputError, InvariantError, trace_faces, validate_plausible
from .geometry import (RealizedSurface, cone_point_coordinates, development_plan, place_surface,
                       surface_frame, walk_polygons)
from .labeling import HolonomyError, assign_labels, polygon_boundaries
from .qform import (EXPECTED_SIGNATURE, IdentityReport, assemble_form, restrict_form,
                    signature_check, verify_triangle_identity)
from .shapesys import LemmaCheck, build_constraints, check_lengths, kernel_basis, verify_lemmas

if TYPE_CHECKING:
    from .mesh import ColoredTriangulation


class ConePointError(InvariantError):
    """A realized point's cone points differ from its type's map, or it has none."""


class Realization(NamedTuple):
    """A verified point: its surface, colored mesh and form identity."""
    surface: RealizedSurface
    mesh: ColoredTriangulation
    identity: IdentityReport


class Instance:
    """One combinatorial type and its derivation chain.  Stages look the
    stage functions up by their module names at call time, so rebinding
    a name (as a tracer does) reaches every caller."""

    def __init__(self, g: EnhancedMultigraph, seed_flag: tuple[int, int] | None = None):
        self.g = g
        self.seed_flag = seed_flag

    @cached_property
    def faces(self):
        return trace_faces(self.g)

    @cached_property
    def validation(self):
        return validate_plausible(self.g, self.faces)

    @cached_property
    def boundaries(self):
        return polygon_boundaries(self.g, self.faces)

    @cached_property
    def labels(self):
        return assign_labels(self.g, self.boundaries, self.seed_flag)

    @cached_property
    def conflict(self) -> HolonomyError | None:
        """The labelling's holonomy conflict, or None if it is consistent."""
        try:
            self.labels
        except HolonomyError as exc:
            return exc
        return None

    @property
    def derivable(self) -> bool:
        """The stop rule: the chain goes past the labels of a plausible
        instance with no holonomy conflict, and no further otherwise."""
        return self.validation.plausible and self.conflict is None

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
    def lattice(self):
        return lattice_basis(self.kernel)

    @cached_property
    def cone(self):
        return extreme_rays(restrict_to_lattice(self.lattice))

    @cached_property
    def form(self):
        return restrict_form(assemble_form(self.g, self.boundaries), self.lattice)

    @cached_property
    def certificates(self) -> tuple[LemmaCheck, ...]:
        """The lemmas, a strictly positive cone and the signature, in report
        order; ``ok`` and a survey row's ``lemmas_ok`` need every one."""
        return (*self.lemmas, positive_point_check(self.cone), signature_check(self.form))

    @cached_property
    def frame(self):
        return surface_frame(self.boundaries)

    @cached_property
    def plan(self):
        """The ``development_plan`` of the labels, reading lengths in the
        closure system's column order."""
        return development_plan(self.boundaries, self.labels, self.system.col_edges)

    @cached_property
    def cone_points_map(self) -> tuple[tuple[int, ...], ...] | None:
        """M_tau, the 12 x d integer matrix that takes a point's coefficients
        in the lattice basis b_0 .. b_{d-1} to the doubled coordinates
        X_0, Y_0, .., X_5, Y_5 of its cone points, in ``frame.cone_vertices``
        order.  Development is linear in the lengths on a fixed type, so
        column i is the cone points of b_i, walked and placed with no length
        rule; no mesh is built.  None if the basis fails to develop: a turn,
        angle or holonomy failure of the type."""
        try:
            return tuple(zip(*(_cone_points(self._place(b)) for b in self.lattice.vectors)))
        except InvariantError:
            return None

    def lattice_points(self, max_len: int, budget: int = ENUMERATION_BUDGET):
        return enumerate_lattice_points(self.lattice, max_len, budget=budget)

    def develop(self, vector):
        """Place the edge-length vector (closure system column order) on the
        type's plan and frame, as ``develop_surface`` would.  A vector off the
        domain raises InputError, by ``_entries`` or the closure system."""
        self._entries(vector)
        if not self.system.solves(vector):
            raise InputError("the length vector does not solve the closure system")
        return self._place(vector)

    def coefficients(self, vector) -> list[int]:
        """A point's coefficients in the lattice basis, under ``develop``'s rules;
        L is saturated, so ``lattice_coefficients`` decides the closure rule."""
        self._entries(vector)
        try:
            return lattice_coefficients(self.lattice.vectors, vector)
        except ValueError:
            raise InputError("the length vector does not solve the closure system") from None

    def _entries(self, vector) -> None:  # the domain rules before the closure rule
        check_lengths(vector, self.system.n_cols)
        if odd := [x for x in vector if not isinstance(x, int)]:
            raise InputError(f"a length vector needs integer entries, got {odd[0]!r}")
        if min(vector) < 1:
            raise InputError(f"a length vector needs every entry >= 1, got {min(vector)}")

    def _place(self, vector):
        return place_surface(self.frame, walk_polygons(self.plan, vector))

    def realize(self, vector) -> Realization:
        """Check the point's cone points against the map of its ``coefficients``
        (else ConePointError), build, color and check its mesh and read the form
        identity on it, whose ``holds`` is the verdict.  Only a realizing run imports ``mesh``."""
        from .mesh import build_triangulation, four_color
        coeffs, surface = self.coefficients(vector), self._place(vector)
        if self.cone_points_map is None:
            raise ConePointError("the type has no cone point map")
        if (got := _cone_points(surface)) != (want := _apply(self.cone_points_map, coeffs)):
            raise ConePointError(f"cone points {list(got)} differ from the map's {list(want)}")
        tri = four_color(build_triangulation(surface))
        return Realization(surface, tri, verify_triangle_identity(self.form, vector, tri))


def _stopwatch(timings: dict):
    """A lap function on ``time.perf_counter_ns``: ``lap(stage)`` writes
    the whole microseconds since the previous lap to ``timings[stage]``,
    and ``lap("total")`` those since the stopwatch was made."""
    start = last = time.perf_counter_ns()

    def lap(stage: str) -> None:
        nonlocal last
        t = time.perf_counter_ns()
        timings[stage], last = (t - (start if stage == "total" else last)) // 1000, t

    return lap


def _cone_points(surface) -> tuple[int, ...]:
    """The doubled coordinates X_0, Y_0, .., X_5, Y_5 of the cone points."""
    return tuple(x for p in cone_point_coordinates(surface) for x in p)


def _apply(matrix, vector) -> tuple[int, ...]:
    return tuple(sum(map(mul, row, vector)) for row in matrix)


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


def sparse_json(shape: tuple[int, int], entries) -> dict:
    """An n x m matrix as its ``entries`` (i, j, x), sorted by (i, j),
    with int indices and string values."""
    return {"shape": list(shape), "entries": [[i, j, str(x)] for i, j, x in sorted(entries)]}


# ---------------------------------------------------------------------------
# one JSON fragment per stage

def validation_json(rep) -> dict:
    findings = [{"rule": f.rule, "severity": f.severity, "message": f.message} for f in rep.findings]
    return {"plausible": rep.plausible, "counts": rep.counts, "findings": findings}


def labeling_json(inst: Instance) -> dict:
    """The labelling, or its holonomy conflict reported as ``consistent: false``."""
    if inst.conflict is not None:
        return {"consistent": False, "error": str(inst.conflict)}
    return {"consistent": True, "seed": list(inst.labels.seed),
            "exponents": {str(eid): e for eid, e in inst.labels.exponents.items()}}


def lemmas_json(kernel, lemmas) -> dict:
    return {"rank": kernel.rank, "dimension": kernel.dimension, "lemmas": [c._asdict() for c in lemmas]}


def cone_json(cd) -> dict:
    return {"dimension": cd.dimension, "rays": matrix_json(cd.extreme_rays or ()),
            "lineality": matrix_json(cd.lineality), "has_positive_point": cd.has_positive_point}


def lattice_counts_json(points, max_len: int) -> dict:
    """The enumerated box by its counts, as ``check`` reports it: its
    strictly positive points are listed, in order, under ``realizations``."""
    return {"max_len": max_len, "count": len(points),
            "strictly_positive": sum(1 for p in points if p.strictly_positive)}


def lattice_points_json(points, max_len: int) -> dict:
    """The counts and every point of the box, as ``lattice`` reports it."""
    return {**lattice_counts_json(points, max_len),
            "points": [{"vector": vector_json(p.vector), "strictly_positive": p.strictly_positive}
                       for p in points]}


def system_json(system) -> dict:
    """The closure system: every nonzero of its rows."""
    return {"matrix": sparse_json((system.n_rows, system.n_cols),
                                  ((i, j, x) for i, row in enumerate(system.rows)
                                   for j, x in row.items())),
            "columns": list(system.col_edges)}


def form_json(qf) -> dict:
    """The upper triangle of the symmetric doubled Gram matrix, from the
    terms (c on the diagonal, c/2 off it), and the restricted form."""
    n, sig = len(qf.col_edges), qf.signature
    upper = ((i, j, c if i == j else c // 2) for i, j, c in qf.terms)
    return {"global_matrix": sparse_json((n, n), upper), "restricted": matrix_json(qf.restricted),
            "signature": list(sig), "expected_signature": list(EXPECTED_SIGNATURE),
            "signature_as_expected": sig == EXPECTED_SIGNATURE, "non_degenerate": sig[2] == 0}


def realization_json(vector, surface, tri) -> dict:
    """One realized point: placed polygons, cone points and the colored mesh."""
    return {"point": vector_json(vector),
            "polygons": {str(pid): [grid_point_json(p) for p in ch.chain]
                         for pid, ch in sorted(surface.placed.items())},
            "cone_points": [grid_point_json(c) for c in cone_point_coordinates(surface)],
            "triangulation": {"vertices": len(tri.positions), "edges": len(tri.edges),
                              "triangles": len(tri.triangles),
                              "degree_histogram": {str(d): c for d, c in
                                                   sorted(tri.degree_histogram().items())},
                              "vertex_colors": list(tri.vertex_colors)}}


# ---------------------------------------------------------------------------
# check and survey runs

class PipelineReport(SimpleNamespace):
    def __init__(self):
        super().__init__(instance={}, validation={}, labeling={}, system={}, cone={},
                         lattice={}, realizations=[], form={}, certificates=[], timings={}, ok=False)

    def to_json_dict(self) -> dict:
        """The fields, shared, not copied: each already holds plain JSON data."""
        return dict(vars(self))


def run_check(g: EnhancedMultigraph | Instance, name: str = "instance", max_len: int = 3,
              budget: int = ENUMERATION_BUDGET) -> PipelineReport:
    """Full pipeline on one instance (a graph, or an ``Instance`` whose
    derived stages it reuses); every verdict is an upstream invariant.

    ``ok`` needs every certificate, at least one realized point and the
    form identity on every realized point: a length bound that admits no
    strictly positive lattice point fails.
    """
    inst = g if isinstance(g, Instance) else Instance(g)
    report = PipelineReport()
    lap = _stopwatch(report.timings)
    counts = inst.validation.counts
    report.instance = {"name": name, "V": counts["V"], "E_b": counts["E_b"], "E_red": counts["E_red"]}
    report.validation = validation_json(inst.validation)
    lap("validate")
    if inst.validation.plausible:
        report.labeling = labeling_json(inst)
    if inst.derivable:
        lap("labels")
        report.system = {"rows": inst.system.n_rows, "cols": inst.system.n_cols,
                         "rank": inst.kernel.rank, "dimension": inst.kernel.dimension}
        inst.lemmas  # timed with the system, as in a survey row
        lap("solve")
        cpm = inst.cone_points_map
        report.cone = {**cone_json(inst.cone), "lattice_basis": matrix_json(inst.lattice.vectors),
                       "cone_points_map": None if cpm is None else matrix_json(cpm)}
        lap("cone")
        points = inst.lattice_points(max_len, budget)
        report.lattice = lattice_counts_json(points, max_len)
        lap("lattice")
        report.form = form_json(inst.form)
        report.certificates = [c._asdict() for c in inst.certificates]
        lap("form")
        report.realizations = [_check_realization(inst, p.vector) for p in points if p.strictly_positive]
        report.ok = (all(c.passed for c in inst.certificates) and bool(report.realizations)
                     and all(r.get("identity_holds") for r in report.realizations))
        lap("realize")
    lap("total")
    return report


def _check_realization(inst: Instance, vector) -> dict:
    """One ``realizations`` entry: the identity, or what stopped ``realize``."""
    try:
        identity = inst.realize(vector).identity
    except InvariantError as exc:
        return {"vector": vector_json(vector), "error": f"{type(exc).__name__}: {exc}"}
    return {"vector": vector_json(vector), "triangles": identity.triangle_count,
            "form_value": str(identity.form_value), "identity_holds": identity.holds}


def run_survey(instances: Iterable[tuple[str, EnhancedMultigraph | Instance]], max_len: int = 0,
               budget: int = ENUMERATION_BUDGET) -> dict:
    """Pipeline summary per instance (a graph or an ``Instance``): rank,
    certificate verdict, cone, positivity, signature and the lattice point
    counts at ``max_len``.

    Each row reads the stages ``run_check`` reads, bar realization, and
    serializes only what it reports.  A stage the stop rule skips leaves
    its fields and every later one ``None``, with ``n_rays`` 0.  Rows are
    built as ``instances`` yields its entries, so a generator may derive
    each instance only when its row is due.
    """
    return {"survey": [_survey_row(name, g, max_len, budget) for name, g in instances]}


def _survey_row(name: str, g: EnhancedMultigraph | Instance, max_len: int, budget: int) -> dict:
    inst = g if isinstance(g, Instance) else Instance(g)
    row = {"instance": name, "plausible": None, "rank": None, "dimension": None,
           "lemmas_ok": None, "has_positive_point": None, "n_rays": 0, "signature": None,
           "signature_as_expected": None, "points": None, "strictly_positive": None,
           "timings": {}}
    lap = _stopwatch(row["timings"])
    row["plausible"] = inst.validation.plausible
    lap("validate")
    if inst.derivable:
        lap("labels")
        row.update(rank=inst.kernel.rank, dimension=inst.kernel.dimension)
        inst.lemmas  # timed with the system; lemmas_ok reads them after the form
        lap("solve")
        row.update(has_positive_point=inst.cone.has_positive_point, n_rays=len(inst.cone.extreme_rays))
        lap("cone")
        points = inst.lattice_points(max_len, budget)
        row.update(points=len(points), strictly_positive=sum(p.strictly_positive for p in points))
        lap("lattice")
        row.update(signature=list(inst.form.signature), lemmas_ok=all(c.passed for c in inst.certificates),
                   signature_as_expected=inst.form.signature == EXPECTED_SIGNATURE)
        lap("form")
    lap("total")
    return row
