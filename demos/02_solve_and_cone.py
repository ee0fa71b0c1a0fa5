"""The closure system, its kernel, and the cone of realizable lengths.

Each polygon contributes two integer rows saying its boundary closes up in
the plane.  The kernel of that system is four-dimensional for every valid
instance, and the length assignments that realize an actual surface form
the cone where all coordinates are nonnegative.  Integer points of the
cone are exactly the unit-triangulable shapes.
"""

from octacolor import (assign_labels, build_constraints, enumerate_lattice_points,
                       extreme_rays, gen_spiral, kernel_basis, lattice_basis,
                       polygon_boundaries, restrict_to_lattice, verify_lemmas)

graph = gen_spiral(4)
boundaries = polygon_boundaries(graph)
labels = assign_labels(graph, boundaries)

system = build_constraints(graph, boundaries, labels)
print(f"closure system: {system.n_rows} rows x {system.n_cols} columns")
print("first polygon's rows, as column -> nonzero coefficient:")
for row, (pid, part) in zip(system.rows, system.row_origin):
    if pid == system.row_origin[0][0]:
        print(f"  {part}: {row}")

kernel = kernel_basis(system)
print(f"rank {kernel.rank} (columns - 4), kernel dimension {kernel.dimension}")
for check in verify_lemmas(system, kernel):
    print(f"  {check.name}: {'ok' if check.passed else 'FAILED'} ({check.detail})")

lattice = lattice_basis(kernel)
print(f"\ninteger solution lattice basis (edge coordinates):")
for vec in lattice.vectors:
    print(f"  {vec}")

cone = extreme_rays(restrict_to_lattice(lattice))
print(f"\ncone of nonnegative solutions: {len(cone.extreme_rays)} extreme rays, "
      f"lineality {len(cone.lineality)}, "
      f"strictly positive solutions exist: {cone.has_positive_point}")
for ray in cone.extreme_rays:
    print(f"  ray {ray} (lattice coordinates)")

points = enumerate_lattice_points(lattice, bound=2)
positive = [p for p in points if p.strictly_positive]
print(f"\nlattice points with all edge lengths <= 2: {len(points)} "
      f"({len(positive)} strictly positive, i.e. genuine shapes)")
for p in positive:
    print(f"  lengths {p.vector}")
