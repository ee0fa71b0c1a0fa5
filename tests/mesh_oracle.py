"""Reference implementations of the realization and the glued sphere mesh.

``realize_polygons`` and ``place_surface`` are ``geometry``'s as they were
before development ran on plain integer pairs: every step is a GridPoint
method (``__add__``, ``scale``, ``rot``, ``SideRecord.end``) and every
record is built through its constructor.  They must return equal charts and
surfaces and raise the same errors with the same messages.

``build_triangulation`` and ``_unit_triangles`` are the mesh's as they were
before it was glued by index with combinatorial vertex owners and charts
were cut by a row scan: a union-find over every (polygon, point) key,
interior points included, one ``sorted`` per triangle to number it, and
each chart cut by inductive chopping, black charts as their mirror image
conjugated back triangle by triangle.  The chopper numbers triangles in
another order than the library, so tests compare triangles as multisets
(sorted ``(triangle, colour)`` pairs) and every other field exactly.  The
oracle walks its chains and takes their shoelace areas itself, so its
per-chart area check shares no code with the mesh's.

Inductive chopping: a triangle subdivides directly; at an acute corner an
integer equilateral triangle comes off (side = the shorter adjacent
length, smallest such corner first); an all-obtuse hexagon first sheds a
four-sided piece at its shortest side, leaving a pentagon.
"""

from __future__ import annotations

from octacolor.emg import WHITE
from octacolor.geometry import (AngleError, ClosureError, EdgeGluing, GluingError, PolygonChart,
                                RealizedSurface, SideRecord, SurfaceFrame)
from octacolor.grid import DIRECTIONS, ORIGIN, GridPoint, direction
from octacolor.labeling import ACUTE
from octacolor.mesh import ColoredTriangulation, MeshError, Triangle


def realize_polygons(g, boundaries, labels, lengths) -> dict[int, PolygonChart]:
    exp = labels.exponents
    charts: dict[int, PolygonChart] = {}
    for b in boundaries:
        offset = 0 if b.color == WHITE else 3
        turn_sign = 1 if b.color == WHITE else -1
        point = ORIGIN
        sides = []
        for eid in b.sides:
            ell = int(lengths[eid])
            if ell != lengths[eid] or ell <= 0:
                raise ClosureError(f"edge {eid} has length {lengths[eid]}, expected a positive integer")
            d = (exp[eid] + offset) % 6
            sides.append(SideRecord(eid, point, d, ell))
            point = point + direction(d).scale(ell)
        if point != ORIGIN:
            raise ClosureError(f"polygon {b.vertex_id} does not close (gap {point})")
        for i, corner in enumerate(b.corners):
            got = (sides[(i + 1) % len(sides)].direction - sides[i].direction) % 6
            want = (turn_sign * (2 if corner == ACUTE else 1)) % 6
            if got != want:
                raise ClosureError(f"polygon {b.vertex_id}: turn at corner {i} is {got}, expected {want}")
        charts[b.vertex_id] = PolygonChart(b.vertex_id, b.color, tuple(sides))
    return charts


def place_surface(frame: SurfaceFrame, charts: dict[int, PolygonChart]) -> RealizedSurface:
    translations: dict[int, GridPoint] = {frame.root: ORIGIN}
    for pid, gl, other in frame.tree_steps:
        translations[other] = translations[pid] + _gluing_shift(charts, gl, from_polygon=pid)
    for gl in frame.non_tree:
        want = translations[gl.white_polygon] + _gluing_shift(charts, gl, from_polygon=gl.white_polygon)
        if want != translations[gl.black_polygon]:
            raise GluingError(
                f"edge {gl.edge_id}: folded placements disagree by {translations[gl.black_polygon] - want}")
    if frame.angle_error is not None:
        raise AngleError(frame.angle_error)

    _, flag_pid, corner_idx, flag_side, half_turn = frame.flag
    chart = charts[flag_pid]
    delta = (chart.sides[flag_side].direction + half_turn) % 6
    origin = translations[flag_pid] + _corner_point(chart, corner_idx)
    placed: dict[int, PolygonChart] = {}
    for pid, ch in charts.items():
        shift = translations[pid] - origin
        placed[pid] = PolygonChart(pid, ch.color, tuple(
            SideRecord(s.edge_id, (s.start + shift).rot(-delta), (s.direction - delta) % 6, s.length)
            for s in ch.sides))

    folded: dict[int, GridPoint] = {}
    for pid, side, fid, _ in frame.corners:
        pt = placed[pid].sides[side].start
        seen = folded.setdefault(fid, pt)
        if seen != pt:
            raise GluingError(f"vertex {fid} has two folded images {seen} and {pt}")

    return RealizedSurface(frame, placed, folded)


def _corner_point(chart: PolygonChart, corner_index: int) -> GridPoint:
    """Position of the corner after side ``corner_index``."""
    return chart.sides[(corner_index + 1) % len(chart.sides)].start


def _gluing_shift(charts, gl: EdgeGluing, from_polygon: int) -> GridPoint:
    w = charts[gl.white_polygon].sides[gl.white_side]
    b = charts[gl.black_polygon].sides[gl.black_side]
    shift_black = w.start - b.end
    if from_polygon == gl.white_polygon:
        return shift_black
    return -shift_black


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
    area = _area(_chain_points(start, sides))
    if len(tris) != area:
        raise MeshError(f"triangulated {len(tris)} units, area holds {area}")
    return tris


def build_triangulation(surface: RealizedSurface) -> ColoredTriangulation:
    placed = surface.placed
    triangulations = {pid: _unit_triangles(ch.sides[0].start, [(s.length, s.direction) for s in ch.sides])
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

    for eid, gl in surface.frame.gluings.items():
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

    tri = ColoredTriangulation(tuple(positions), tuple(triangles), tuple(colors), edges, tuple(degrees))
    if tri.euler_characteristic() != 2:
        raise MeshError(f"Euler characteristic {tri.euler_characteristic()}, expected 2")
    hist = tri.degree_histogram()
    if hist.get(4, 0) != 6 or set(hist) - {4, 6}:
        raise MeshError(f"degree histogram {hist}, expected six 4s and the rest 6s")
    return tri


def _step(p, d: int, n: int) -> GridPoint:
    return GridPoint(*p) + direction(d).scale(n)


def _chain_points(start, sides) -> list[GridPoint]:
    """The chain's corners, walked side by side from ``start``."""
    points = [GridPoint(*start)]
    for ell, d in sides[:-1]:
        points.append(_step(points[-1], d, ell))
    return points


def _area(points: list[GridPoint]) -> int:
    """Shoelace area in unit triangles: a cross term X_i Y_j of doubled
    coordinates is x_i y_j / (sqrt(3)/4), so the cross sum is twice the
    area counted in unit triangles of area sqrt(3)/4."""
    cross = sum(p.X * q.Y - q.X * p.Y for p, q in zip(points, points[1:] + points[:1]))
    return abs(cross) // 2


def _triangulate_ccw(start: GridPoint, sides: list[tuple[int, int]]) -> list[Triangle]:
    """Chop a counterclockwise chain into unit triangles."""
    tris: list[Triangle] = []
    work = list(sides)
    anchor = start
    while True:
        work, anchor = _normalize_chain(work, anchor)
        k = len(work)
        if k < 3:
            raise ValueError("chain degenerated during chopping")
        if k == 3:
            _subdivide_triangle(tris, anchor, work[0][1], (work[0][1] + 1) % 6, work[0][0])
            return tris
        pts = _chain_points(anchor, work)
        acute = [(min(work[i][0], work[(i + 1) % k][0]), i)
                 for i in range(k)
                 if (work[(i + 1) % k][1] - work[i][1]) % 6 == 2]
        if acute:
            _, i = min(acute)
            j = (i + 1) % k
            a, da = work[i]
            b, db = work[j]
            m = min(a, b)
            corner = pts[j] if j else anchor  # end of side i
            apex = _step(corner, da, -m)
            _subdivide_triangle(tris, apex, da, (da + 1) % 6, m)
            new: list[tuple[int, int]] = []
            for t in range(k):
                if t == i:
                    new.append((a - m, da))
                    new.append((m, (da + 1) % 6))
                elif t == j:
                    new.append((b - m, db))
                else:
                    new.append(work[t])
            if j == 0:
                # side 0 lost its first m units; its start moves forward
                anchor = _step(anchor, db, m)
            work = new
            continue
        # hexagon with all corners obtuse: shed the four-sided piece that
        # fully covers the shortest side i and side i+1, eating the first
        # li units of side i+2
        i = min(range(k), key=lambda t: (work[t][0], t))
        li, di = work[i]
        lj, dj = work[(i + 1) % k]
        lk_, dk_ = work[(i + 2) % k]
        if li > lk_:
            raise MeshError("hexagon chop: chosen side is not minimal")
        piece = [(li, di), (lj, dj), (li, (di + 2) % 6), (li + lj, (di + 4) % 6)]
        tris.extend(_triangulate_ccw(pts[i], piece))
        new = []
        for t in range(k):
            if t == i:
                new.append((li + lj, dj))
            elif t == (i + 1) % k:
                if lk_ > li:
                    new.append((lk_ - li, dk_))
            elif t == (i + 2) % k:
                continue
            else:
                new.append(work[t])
        if i == k - 1:
            # merged side sits at slot i, shortened side wrapped to slot 0
            anchor = _step(pts[i], dj, li + lj)
        elif i == k - 2:
            # old side 0 was eaten from its start; side 1 leads now
            anchor = pts[1]
        work = new


def _normalize_chain(sides, anchor: GridPoint):
    """Drop zero sides and merge consecutive sides with equal direction."""
    out = [(l, d) for l, d in sides if l]
    changed = True
    while changed and len(out) > 1:
        changed = False
        merged: list[tuple[int, int]] = []
        for l, d in out:
            if merged and merged[-1][1] == d:
                merged[-1] = (merged[-1][0] + l, d)
                changed = True
            else:
                merged.append((l, d))
        if len(merged) > 1 and merged[0][1] == merged[-1][1]:
            l, d = merged.pop()
            anchor = _step(anchor, d, -l)
            merged[0] = (merged[0][0] + l, d)
            changed = True
        out = merged
    return out, anchor


def _subdivide_triangle(out: list[Triangle], apex, d_u: int, d_v: int, n: int) -> None:
    """Append the standard subdivision of an equilateral triangle of side n
    into n*n units to ``out``.

    Order is translation invariant, so each unit triangle's sorted vertex
    order is the sorted order of its corner offsets, fixed per call.
    """
    (ux, uy), (vx, vy) = DIRECTIONS[d_u], DIRECTIONS[d_v]
    ax, ay = apex
    (p0, q0), (p1, q1), (p2, q2) = sorted(((0, 0), (ux, uy), (vx, vy)))
    (r0, s0), (r1, s1), (r2, s2) = sorted(((ux, uy), (vx, vy), (ux + vx, uy + vy)))
    append = out.append
    for i in range(n):
        for j in range(n - i):
            x, y = ax + i * ux + j * vx, ay + i * uy + j * vy
            append(((x + p0, y + q0), (x + p1, y + q1), (x + p2, y + q2)))
            if i + j < n - 1:
                append(((x + r0, y + s0), (x + r1, y + s1), (x + r2, y + s2)))
