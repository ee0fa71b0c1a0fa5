"""Exact-arithmetic toolkit for nice colorings of flat cone octahedra.

Pipeline: parse or generate an enhanced multigraph, validate it, label the
edge directions, solve the closure system exactly, describe the cone of
positive solutions and its integer lattice, realize lattice points as unit
triangulated spheres with a proper 4-coloring, and analyze the integral
quadratic form whose value on a lattice point is three times the triangle
count.

Every public name is its owner module's own object, and each module is
imported when one of its names is first read (PEP 562), so importing the
package, or one command of ``octacolor.cli``, loads only what it uses.
"""

# owner module -> the public names it gives the package
_EXPORTS = {
    "cone": ("ConeDescription", "EnumerationBudgetError", "LatticeBasis", "LatticePoint",
             "enumerate_lattice_points", "extreme_rays", "lattice_basis", "restrict_to_lattice"),
    "emg": ("EnhancedMultigraph", "Edge", "EmgError", "Face", "FaceSet", "Finding", "InputError",
            "ValidationReport", "Vertex", "parse_emg", "render_emg", "trace_faces",
            "validate_plausible"),
    "families": ("ConstructionError", "bundled_names", "gen_spiral", "isomorphic",
                 "load_bundled", "spiral_instance"),
    "geometry": ("AngleError", "ClosureError", "EdgeGluing", "GluingError", "PolygonChart",
                 "RealizedSurface", "SideRecord", "cone_point_coordinates", "develop_surface",
                 "realize_polygons"),
    "grid": ("DIRECTIONS", "ORIGIN", "GridPoint", "direction"),
    "labeling": ("BoundaryError", "HolonomyError", "LabelMap", "PolygonBoundary",
                 "assign_labels", "polygon_boundaries"),
    "linalg": (),
    "mesh": ("ColorError", "ColoredTriangulation", "MeshError", "build_triangulation",
             "four_color", "triarea", "unit_triangulate"),
    "net": ("NetLayout", "develop_net"),
    "pipeline": (),
    "qform": ("IdentityReport", "QuadraticForm", "assemble_form", "restrict_form", "signature",
              "slot_value", "verify_triangle_identity"),
    "shapesys": ("KernelBasis", "ShapeSystem", "build_constraints", "kernel_basis", "verify_lemmas"),
}
# each module listed is public too, under its own name
_OWNER = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__version__ = "0.1.0"

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    owner = _OWNER.get(name)
    if owner is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = __import__(f"{__name__}.{owner}", fromlist=[name])
    value = module if name == owner else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
