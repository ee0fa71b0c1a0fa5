"""The package's lazy namespaces: ``octacolor`` and ``octacolor.geometry``
resolve their names on first use, each to its owner module's own object."""

import importlib

import pytest

import octacolor
from octacolor import geometry, mesh, net

# owner module -> the names the package gave from it when it imported
# every module eagerly, and emg's InputError, added since; each module is
# public under its own name too
PUBLIC_NAMES = {
    "cone": ["ConeDescription", "EnumerationBudgetError", "LatticeBasis", "LatticePoint",
             "enumerate_lattice_points", "extreme_rays", "lattice_basis", "restrict_to_lattice"],
    "emg": ["Edge", "EmgError", "EnhancedMultigraph", "Face", "FaceSet", "Finding", "InputError",
            "ValidationReport", "Vertex", "parse_emg", "render_emg", "trace_faces",
            "validate_plausible"],
    "families": ["ConstructionError", "bundled_names", "gen_spiral", "isomorphic", "load_bundled",
                 "spiral_instance"],
    "geometry": ["AngleError", "ClosureError", "EdgeGluing", "GluingError", "PolygonChart",
                 "RealizedSurface", "SideRecord", "cone_point_coordinates", "develop_surface",
                 "realize_polygons"],
    "grid": ["DIRECTIONS", "GridPoint", "ORIGIN", "direction"],
    "labeling": ["BoundaryError", "HolonomyError", "LabelMap", "PolygonBoundary", "assign_labels",
                 "polygon_boundaries"],
    "linalg": [],
    "mesh": ["ColorError", "ColoredTriangulation", "MeshError", "build_triangulation", "four_color",
             "triarea", "unit_triangulate"],
    "net": ["NetLayout", "develop_net"],
    "pipeline": [],
    "qform": ["IdentityReport", "QuadraticForm", "assemble_form", "restrict_form", "signature",
              "slot_value", "verify_triangle_identity"],
    "shapesys": ["KernelBasis", "ShapeSystem", "build_constraints", "kernel_basis", "verify_lemmas"],
}

GEOMETRY_REEXPORTS = {
    mesh: ["ColorError", "ColoredTriangulation", "MeshError", "Triangle", "build_triangulation",
           "four_color", "triarea", "unit_triangulate"],
    net: ["NetLayout", "NetTransform", "develop_net"],
}


def test_all_is_the_eager_packages_list():
    want = sorted(name for module, names in PUBLIC_NAMES.items() for name in (module, *names))
    assert len(want) == 80
    assert octacolor.__all__ == want


@pytest.mark.parametrize("module_name", sorted(PUBLIC_NAMES))
def test_each_public_name_is_its_owners_object(module_name):
    module = importlib.import_module(f"octacolor.{module_name}")
    assert getattr(octacolor, module_name) is module
    for name in PUBLIC_NAMES[module_name]:
        assert getattr(octacolor, name) is getattr(module, name), name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from octacolor import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == octacolor.__all__
    assert all(value is getattr(octacolor, name) for name, value in namespace.items())


def test_dir_lists_every_public_name():
    assert set(octacolor.__all__) <= set(dir(octacolor))


@pytest.mark.parametrize("module", [octacolor, geometry], ids=["octacolor", "geometry"])
def test_unknown_name_raises_attribute_error(module):
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        module.no_such_name


@pytest.mark.parametrize("owner", list(GEOMETRY_REEXPORTS), ids=lambda m: m.__name__)
def test_geometry_reaches_mesh_and_net_names(owner):
    for name in GEOMETRY_REEXPORTS[owner]:
        assert getattr(geometry, name) is getattr(owner, name), name
