"""Exact-arithmetic toolkit for nice colorings of flat cone octahedra.

Pipeline: parse or generate an enhanced multigraph, validate it, label the
edge directions, solve the closure system exactly, describe the cone of
positive solutions and its integer lattice, realize lattice points as unit
triangulated spheres with a proper 4-coloring, and analyze the integral
quadratic form whose value on a lattice point is three times the triangle
count.
"""

from .cone import (ConeDescription, EnumerationBudgetError, LatticeBasis,
                   LatticePoint, enumerate_lattice_points, extreme_rays,
                   lattice_basis, restrict_to_kernel)
from .emg import (EnhancedMultigraph, Edge, EmgError, Face, FaceSet, Finding,
                  ValidationReport, Vertex, parse_emg, render_emg, trace_faces,
                  validate_plausible)
from .families import (ConstructionError, bundled_names, gen_spiral,
                       isomorphic, load_bundled, spiral_instance)
from .geometry import (AngleError, ClosureError, EdgeGluing, GluingError,
                       NetLayout, PolygonChart, RealizedSurface, SideRecord,
                       cone_point_coordinates, develop_net, develop_surface,
                       realize_polygons)
from .grid import DIRECTIONS, ORIGIN, GridPoint, direction
from .labeling import (BoundaryError, HolonomyError, LabelMap,
                       PolygonBoundary, assign_labels, polygon_boundaries)
from .mesh import (ColorError, ColoredTriangulation, MeshError,
                   build_triangulation, four_color, triarea, unit_triangulate)
from .qform import (IdentityReport, QuadraticForm, assemble_form, restrict_form,
                    signature, slot_value, verify_triangle_identity)
from .shapesys import (KernelBasis, LemmaReport, ShapeSystem,
                       build_constraints, kernel_basis, verify_lemmas)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
