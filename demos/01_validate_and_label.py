"""From a combinatorial description to direction labels.

An instance is an embedded red/blue multigraph: one vertex per polygon of a
flat cone octahedron coloring, blue edges for shared polygon sides, red
edges marking acute corners of the quadrilateral regions.  This script
loads the smallest bundled instance and a generated spiral member, checks
the axioms, and propagates the sixth-root direction labels.
"""

from octacolor import (assign_labels, gen_spiral, load_bundled,
                       polygon_boundaries, render_emg, trace_faces,
                       validate_plausible)

for name, graph in [("hexagon-pair", load_bundled("hexagon-pair")),
                    ("spiral k=3", gen_spiral(3))]:
    print(f"=== {name} ===")
    report = validate_plausible(graph)
    print(f"plausible: {report.plausible}   counts: {report.counts}")

    faces = trace_faces(graph)
    kinds = [f.kind for f in faces.faces]
    print(f"blue faces: {kinds.count('bigon')} bigons (cone points), "
          f"{kinds.count('quadrilateral')} quadrilaterals (regular vertices)")

    boundaries = polygon_boundaries(graph)
    for b in boundaries:
        print(f"  polygon {b.vertex_id} ({b.color}): {b.n_sides} sides, "
              f"{b.corners.count('acute')} acute corners, slots {b.slots}")

    labels = assign_labels(graph, boundaries)
    print(f"direction exponents (edge -> k meaning angle k*pi/3): {labels.exponents}")
    print()

print("canonical serialization of the spiral instance:")
print(render_emg(gen_spiral(3)))
