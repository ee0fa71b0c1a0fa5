"""Realize a lattice point: exact geometry, triangulation, 4-coloring.

A strictly positive integer point of the cone determines polygons on the
triangular grid.  Developing them through the folding map (orientation
preserving on white, reversing on black) glues them into a flat cone
sphere; cutting every polygon into unit triangles yields a sphere
triangulation with six degree-4 vertices, and lattice residues of the
folded vertex images give a proper 4-coloring.  ``Instance.realize`` does
all of it in one call, as ``octacolor check`` does for each point: it
also checks the cone points against the type's linear map and reads the
form identity Q(v) = 3 * triangles.  Writes net.svg alongside.
"""

import pathlib

from octacolor import cone_point_coordinates, develop_net, spiral_instance
from octacolor.pipeline import grid_point_json
from octacolor.svg import render_net

# the spiral member as the pipeline Instance its validation gate derived:
# each stage (boundaries, labels, kernel, lattice, form) is computed once
inst = spiral_instance(3)
graph = inst.g

points = [p for p in inst.lattice_points(3) if p.strictly_positive]
vector = points[0].vector
print(f"realizing edge lengths {vector}")

# realize the polygons of these lengths, develop them into one plane,
# check the cone points, glue and color the mesh, and read the identity
surface, tri, identity = inst.realize(vector)
print(f"cone vertices (two polygons meet): {surface.frame.cone_vertices}")
print(f"regular vertices (four polygons meet): {surface.frame.regular_vertices}")
print("folded cone point coordinates (x, y*sqrt3):")
for c in map(grid_point_json, cone_point_coordinates(surface)):
    print(f"  ({c['x']}, {c['ys3']})")

print(f"\nglued triangulation: {tri.n_vertices} vertices, {len(tri.edges)} edges, "
      f"{len(tri.triangles)} triangles")
print(f"degree histogram: {tri.degree_histogram()}  (six 4s: the cone points)")
print(f"vertex colors: {tri.vertex_colors}")

print(f"\nquadratic form value {identity.form_value} = 3 * {identity.triangle_count} triangles: "
      f"{identity.holds}")

net = develop_net(surface)
print(f"\nnet layout: tree edges {surface.frame.tree_edges}")
out = pathlib.Path(__file__).with_name("net.svg")
out.write_text(render_net(graph, surface, net, triangles=True, vertex_colors=True, mesh=tri))
print(f"wrote {out}")
