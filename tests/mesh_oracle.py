"""Reference implementation of the glued sphere mesh.

These are ``geometry.build_triangulation`` and ``geometry._unit_triangles``
as they were before the mesh was glued by index: a union-find over every
(polygon, point) key, interior points included, one ``sorted`` per
triangle to number it, and black charts triangulated as their mirror image
and conjugated back triangle by triangle.  Tests use them as the oracle
the library must match field for field.
"""

from __future__ import annotations

from octacolor.geometry import (ColoredTriangulation, MeshError, RealizedSurface, Triangle,
                                _chain_points, _chart_sides, _triangulate_ccw, triarea)
from octacolor.grid import DIRECTIONS, GridPoint


def _unit_triangles(start: GridPoint, sides: list[tuple[int, int]]) -> list[Triangle]:
    k = len(sides)
    turns = {(sides[(i + 1) % k][1] - sides[i][1]) % 6 for i in range(k)}
    if turns <= {1, 2}:
        tris = _triangulate_ccw(start, sides)
    elif turns <= {4, 5}:
        mirrored = _triangulate_ccw((start[0], -start[1]), [(l, (-d) % 6) for l, d in sides])
        tris = [tuple(sorted((x, -y) for x, y in t)) for t in mirrored]
    else:
        raise ValueError(f"chain is not convex with sixth-turn corners (turns {sorted(turns)})")
    area = triarea(_chain_points(start, sides))
    if len(tris) != area:
        raise MeshError(f"triangulated {len(tris)} units, area holds {area}")
    return tris


def build_triangulation(surface: RealizedSurface) -> ColoredTriangulation:
    placed = surface.placed
    triangulations = {pid: _unit_triangles(ch.sides[0].start, _chart_sides(ch))
                      for pid, ch in placed.items()}

    parent: dict[tuple[int, GridPoint], tuple[int, GridPoint]] = {}

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    for pid, tris in triangulations.items():
        for t in tris:
            for p in t:
                parent.setdefault((pid, p), (pid, p))

    for eid, gl in surface.gluings.items():
        side = placed[gl.white_polygon].sides[gl.white_side]
        (x, y), (dx, dy) = side.start, DIRECTIONS[side.direction]
        for t in range(side.length + 1):
            pt = (x + t * dx, y + t * dy)
            a = (gl.white_polygon, pt)
            b = (gl.black_polygon, pt)
            if a not in parent or b not in parent:
                raise MeshError(f"edge {eid}: subdivision point {pt} missing from a triangulation")
            union(a, b)

    classes: dict[tuple[int, GridPoint], list[tuple[int, GridPoint]]] = {}
    for key in parent:
        classes.setdefault(find(key), []).append(key)
    roots = sorted(classes, key=lambda k: (k[1], k[0]))
    vid_of: dict[tuple[int, GridPoint], int] = {}
    positions = []
    for vid, root in enumerate(roots):
        members = classes[root]
        pts = {pt for _, pt in members}
        if len(pts) != 1:
            raise MeshError(f"identified vertices with distinct folded images {sorted(pts)[:2]}")
        for m in members:
            vid_of[m] = vid
        positions.append(GridPoint(*root[1]))

    surface_vertex = [-1] * len(positions)
    for b in surface.boundaries:
        chart = placed[b.vertex_id]
        for idx, fid in enumerate(b.corner_faces):
            surface_vertex[vid_of[(b.vertex_id, chart.corner_point(idx))]] = fid

    triangles = []
    colors = []
    for pid in sorted(triangulations):
        col = placed[pid].color
        for t in triangulations[pid]:
            triangles.append(tuple(sorted(vid_of[(pid, p)] for p in t)))
            colors.append(col)

    edge_count: dict[tuple[int, int], int] = {}
    for t in triangles:
        for a, b in ((t[0], t[1]), (t[0], t[2]), (t[1], t[2])):
            edge_count[(a, b)] = edge_count.get((a, b), 0) + 1
    bad = [e for e, c in edge_count.items() if c != 2]
    if bad:
        raise MeshError(f"{len(bad)} edges not shared by exactly two triangles, e.g. {bad[0]}")
    edges = tuple(sorted(edge_count))

    degrees = [0] * len(positions)
    for a, b in edges:
        degrees[a] += 1
        degrees[b] += 1

    tri = ColoredTriangulation(tuple(positions), tuple(triangles), tuple(colors),
                               edges, tuple(degrees), tuple(surface_vertex))
    if tri.euler_characteristic() != 2:
        raise MeshError(f"Euler characteristic {tri.euler_characteristic()}, expected 2")
    hist = tri.degree_histogram()
    if hist.get(4, 0) != 6 or set(hist) - {4, 6}:
        raise MeshError(f"degree histogram {hist}, expected six 4s and the rest 6s")
    return tri
