"""Exact geometric realization of a consistent length assignment.

Given a labelled multigraph and a positive solution of the closure system,
this module lays out every polygon on the rational grid and develops the
whole surface into the plane through the folding map (orientation
preserving on white polygons, reversing on black, so all gluing maps
become translations).  The glued sphere triangulation and its 4-coloring
are ``mesh``'s, and the unfolded net for rendering is ``net``'s; their
names stay reachable from here, each module imported on first use.

What depends on the combinatorial type alone is paid once per type.  A
``development_plan`` holds, per polygon, each side's edge, the index of its
length in the vector and its direction, and the corner-turn verdict.  A
``SurfaceFrame`` holds the gluing table, the spanning tree, the angle
closure verdict, the base flag and the polygon corners, each with the
polygon that owns its mesh vertex: all that developing a point and gluing
its mesh read of the type.  Per point, one development core runs:
``walk_polygons`` walks the sides on plain ints against the plan, and
``place_surface`` translates the walked charts along the tree, checks
holonomy, normalizes by the flag and builds the placed records.  Both
are linear in the lengths and have no length rule, which
``realize_polygons`` (the walk made records) and ``pipeline`` apply.

Every stage runs on one point type, the integer GridPoint in doubled
coordinates (X, Y) = (2x, 2y): side lengths are integers and every corner
is a lattice point, so realization and development are exact integer
arithmetic, turning by the ``grid.SIXTH_TURNS`` table.  Nothing becomes a
rational before JSON or a float before SVG emission, and angle checks are
combinatorial, in units of pi/3.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

from .emg import WHITE, EnhancedMultigraph, InputError, InvariantError
from .grid import DIRECTIONS, SIXTH_TURNS, GridPoint
from .labeling import ACUTE, CORNER_UNITS, LabelMap, PolygonBoundary


_new = tuple.__new__  # builds a record without its named tuple constructor


class ClosureError(InvariantError):
    """A length vector does not satisfy the closure system."""


class GluingError(InvariantError):
    """Folded polygon placements disagree across a shared edge or vertex."""


class AngleError(InvariantError):
    """Interior angles around a vertex fail to close up."""


class SideRecord(NamedTuple):
    edge_id: int
    start: GridPoint
    direction: int  # exponent of the unit direction, 0..5
    length: int

    @property
    def end(self) -> GridPoint:
        dx, dy = DIRECTIONS[self.direction]
        return GridPoint(self.start[0] + self.length * dx, self.start[1] + self.length * dy)


class PolygonChart(NamedTuple):
    vertex_id: int
    color: str
    sides: tuple[SideRecord, ...]

    @property
    def chain(self) -> tuple[GridPoint, ...]:
        return tuple(s.start for s in self.sides)


def realize_polygons(g: EnhancedMultigraph, boundaries: list[PolygonBoundary],
                     labels: LabelMap, lengths) -> dict[int, PolygonChart]:
    """Per-polygon charts anchored at the origin.

    Side i of a polygon runs for its length along the labelled direction
    (plus a half turn on black polygons, whose charts are the mirrored,
    folded image).  Per polygon, raises ClosureError on a length that is
    not a positive integer, then as ``walk_polygons`` on the polygon's
    step of the ``development_plan``.
    """
    charts = {}
    for step in development_plan(boundaries, labels):
        for eid, _, _ in step[2]:
            if int(lengths[eid]) != lengths[eid] or lengths[eid] <= 0:
                raise ClosureError(f"edge {eid} has length {lengths[eid]}, expected a positive integer")
        charts.update(walk_polygons((step,), {eid: int(lengths[eid]) for eid, _, _ in step[2]}))
    return {pid: _new(PolygonChart, (pid, color, tuple(_new(SideRecord, (eid, _new(GridPoint, start), d, ell))
                                                     for eid, start, d, ell in sides)))
            for pid, (_, color, sides) in charts.items()}


def development_plan(boundaries: list[PolygonBoundary], labels: LabelMap, columns=None):
    """What realizing a length vector of this type needs of its labels.

    Per polygon: (id, colour, sides, turn error), each side as (edge id,
    index of its length, direction), the index being the edge's position
    in ``columns`` or, without them, the edge id.  The corner turns follow
    from the directions alone, so the turn error (why a corner turns
    against its kind, or None) is decided here and raised per point.
    """
    exp = labels.exponents
    index = {eid: j for j, eid in enumerate(columns)} if columns is not None else None
    plan = []
    for b in boundaries:
        offset, turn_sign = (0, 1) if b.color == WHITE else (3, -1)
        dirs = [(exp[eid] + offset) % 6 for eid in b.sides]
        error = None
        for i, corner in enumerate(b.corners):
            got = (dirs[(i + 1) % len(dirs)] - dirs[i]) % 6
            want = (turn_sign * (2 if corner == ACUTE else 1)) % 6
            if got != want:
                error = f"polygon {b.vertex_id}: turn at corner {i} is {got}, expected {want}"
                break
        plan.append((b.vertex_id, b.color, tuple((eid, eid if index is None else index[eid], d)
                                                 for eid, d in zip(b.sides, dirs)), error))
    return tuple(plan)


def walk_polygons(plan, lengths) -> dict[int, tuple]:
    """Walk integer ``lengths`` along a ``development_plan``: per polygon
    id, its chart (id, colour, sides), each side (edge id, start (x, y),
    direction, length) and the first starting at the origin, as
    ``PolygonChart`` and ``SideRecord`` hold them.  Linear, with no length
    rule; raises ClosureError per polygon, on the closure and the turns."""
    charts = {}
    for pid, color, plan_sides, turn_error in plan:
        x = y = 0
        sides = []
        for eid, j, d in plan_sides:
            ell = lengths[j]
            sides.append((eid, (x, y), d, ell))
            dx, dy = DIRECTIONS[d]
            x, y = x + ell * dx, y + ell * dy
        if x or y:
            raise ClosureError(f"polygon {pid} does not close (gap {GridPoint(x, y)})")
        if turn_error is not None:
            raise ClosureError(turn_error)
        charts[pid] = (pid, color, sides)
    return charts


class EdgeGluing(NamedTuple):
    edge_id: int
    white_polygon: int
    white_side: int
    black_polygon: int
    black_side: int


class SurfaceFrame(NamedTuple):
    """What developing a surface and gluing its mesh need of its
    combinatorial type alone.

    Built once from the boundaries (and an optional base flag and spanning
    tree); ``place_surface`` then develops any length realization of the
    type against it, and ``mesh.build_triangulation`` glues its mesh.  The
    angle closure is combinatorial, so its verdict is decided here, but a
    failure is raised by ``place_surface``, after the holonomy check, as a
    per-point ``AngleError``.  A corner's owner is the smallest polygon
    with a corner at its face: the polygon that owns the face's mesh vertex.
    """
    gluings: dict[int, EdgeGluing]
    root: int                                          # polygon placed first
    tree_steps: tuple[tuple[int, EdgeGluing, int], ...]  # (placed polygon, gluing, reached polygon)
    non_tree: tuple[EdgeGluing, ...]                   # holonomy checks, in edge id order
    tree_edges: tuple[int, ...]
    cone_vertices: tuple[int, ...]
    regular_vertices: tuple[int, ...]
    angle_error: str | None                            # why the angles fail to close, or None
    flag: tuple[int, int, int, int, int] | None        # (cone vertex, polygon, corner, side, half turn)
    corners: tuple[tuple[int, int, int, int], ...]     # (polygon, side leaving the corner, face, owner)


class RealizedSurface(NamedTuple):
    """One length realization of a type: the type's ``frame`` and the
    point's own placements."""
    frame: SurfaceFrame
    placed: dict[int, PolygonChart]               # charts in global folded coordinates
    folded_vertex_image: dict[int, GridPoint]     # blue face id -> folding map image


def develop_surface(g: EnhancedMultigraph, boundaries: list[PolygonBoundary],
                    charts: dict[int, PolygonChart],
                    base_flag: tuple[int, int] | None = None,
                    tree: set[int] | None = None) -> RealizedSurface:
    """Develop all polygons into one plane through the folding map.

    Charts carry the correct reflection parity already, so every gluing map
    is a translation; placements propagate over a spanning tree of the dual
    graph and every non-tree edge is checked for exact coincidence, which is
    the geometric holonomy test.  The base flag (cone vertex, polygon) is
    normalized to put the cone vertex at the origin, its boundary edge on
    the positive real axis, and the flag polygon in the upper half plane.

    This is ``place_surface`` on the ``surface_frame`` of ``boundaries``;
    a caller developing many points of one type builds the frame once.
    """
    return place_surface(surface_frame(boundaries, base_flag, tree), charts)


def surface_frame(boundaries: list[PolygonBoundary], base_flag: tuple[int, int] | None = None,
                  tree: set[int] | None = None) -> SurfaceFrame:
    """The length-independent part of developing a surface of this type.

    The vertices come from ``boundaries``: a blue face owns one polygon
    corner per side, so a face with two corners is a bigon (a cone vertex)
    and one with four a quadrilateral (a regular vertex).  Raises
    GluingError when an edge does not join one white and one black side or
    the spanning tree misses a polygon, and InputError on a base flag that
    is not a (cone vertex, polygon) pair.
    """
    by_vertex = {b.vertex_id: b for b in boundaries}
    corners_at: dict[int, list[tuple[int, int]]] = {}
    for b in boundaries:
        for idx, fid in enumerate(b.corner_faces):
            corners_at.setdefault(fid, []).append((b.vertex_id, idx))
    bigons = sorted(fid for fid, at in corners_at.items() if len(at) == 2)
    quads = sorted(fid for fid, at in corners_at.items() if len(at) == 4)

    gluings = _edge_gluings(boundaries)
    root, steps = _spanning_tree(by_vertex, gluings, tree)
    if len(steps) + 1 != len(by_vertex):
        raise GluingError("spanning tree does not reach every polygon")
    tree_set = {eid for _, eid, _ in steps}
    non_tree = tuple(gl for eid, gl in sorted(gluings.items()) if eid not in tree_set)

    angle_error = _angle_closure_error(boundaries, bigons, quads)

    # normalization: cone vertex at 0, flag edge on the positive axis,
    # flag polygon in the upper half plane
    flag = None
    if angle_error is None:
        if base_flag is None:
            cv = bigons[0]
            flag_pid = min(pid for pid, _ in corners_at[cv] if by_vertex[pid].color == WHITE)
        else:
            cv, flag_pid = base_flag
            if cv not in bigons:
                raise InputError(f"base flag vertex {cv} is not a cone vertex")
            if flag_pid not in {pid for pid, _ in corners_at[cv]}:
                raise InputError(f"polygon {flag_pid} does not touch cone vertex {cv}")
        corner_idx = next(idx for pid, idx in corners_at[cv] if pid == flag_pid)
        if by_vertex[flag_pid].color == WHITE:
            flag = (cv, flag_pid, corner_idx, (corner_idx + 1) % len(by_vertex[flag_pid].sides), 0)
        else:
            flag = (cv, flag_pid, corner_idx, corner_idx, 3)

    corners = tuple((b.vertex_id, (idx + 1) % len(b.sides), fid, min(pid for pid, _ in corners_at[fid]))
                    for b in boundaries for idx, fid in enumerate(b.corner_faces))
    return SurfaceFrame(gluings, root, tuple((pid, gluings[eid], other) for pid, eid, other in steps),
                        non_tree, tuple(sorted(tree_set)), tuple(bigons), tuple(quads), angle_error, flag,
                        corners)


def _angle_closure_error(boundaries, bigons, quads) -> str | None:
    """Why the corner angles fail to close at some vertex, or None."""
    corner_units: dict[int, dict[str, int]] = {}
    for b in boundaries:
        for idx, fid in enumerate(b.corner_faces):
            slot = corner_units.setdefault(fid, {"white": 0, "black": 0})
            slot[b.color] += CORNER_UNITS[b.corners[idx]]
    for fid in bigons:
        units = corner_units[fid]
        if units["white"] != 2 or units["black"] != 2:
            return f"cone vertex {fid} has angle units {units}, expected white 2 and black 2"
    for fid in quads:
        units = corner_units[fid]
        if units["white"] != units["black"]:
            return f"vertex {fid} has unbalanced folded angles {units}"
    return None


def place_surface(frame: SurfaceFrame, charts: dict[int, PolygonChart]) -> RealizedSurface:
    """Develop the charts of one length realization against ``frame``.

    ``charts`` are ``PolygonChart`` records or the plain tuples of the same
    shape that ``walk_polygons`` returns.  Translates each chart along the
    frame's spanning tree, checks holonomy on every non-tree edge
    (GluingError), raises the frame's angle closure failure (AngleError),
    normalizes by the base flag and checks that every blue face gets one
    folded image (GluingError).
    """
    translations: dict[int, tuple[int, int]] = {frame.root: (0, 0)}
    for pid, gl, other in frame.tree_steps:
        sx, sy = _gluing_shift(charts, gl)
        tx, ty = translations[pid]
        translations[other] = (tx + sx, ty + sy) if pid == gl.white_polygon else (tx - sx, ty - sy)
    for gl in frame.non_tree:
        sx, sy = _gluing_shift(charts, gl)
        wx, wy = translations[gl.white_polygon]
        bx, by = translations[gl.black_polygon]
        if (wx + sx, wy + sy) != (bx, by):
            raise GluingError(
                f"edge {gl.edge_id}: folded placements disagree by {GridPoint(bx - wx - sx, by - wy - sy)}")
    if frame.angle_error is not None:
        raise AngleError(frame.angle_error)

    _, flag_pid, corner_idx, flag_side, half_turn = frame.flag
    _, _, flag_sides = charts[flag_pid]
    delta = (flag_sides[flag_side][2] + half_turn) % 6
    a, b, c, d = SIXTH_TURNS[-delta % 6]
    (fx, fy), (cx, cy) = translations[flag_pid], flag_sides[(corner_idx + 1) % len(flag_sides)][1]
    placed: dict[int, PolygonChart] = {}
    for pid, (_, color, chart_sides) in charts.items():
        tx, ty = translations[pid]
        sx, sy = tx - fx - cx, ty - fy - cy
        sides = []
        for eid, (x, y), k, ell in chart_sides:
            x, y = x + sx, y + sy
            if (x - y) % 2:  # a bug: walked charts start at 0 and step along the lattice
                raise ValueError(f"{GridPoint(x, y)} is not a lattice point")
            start = _new(GridPoint, ((a * x + b * y) // 2, (c * x + d * y) // 2))
            sides.append(_new(SideRecord, (eid, start, (k - delta) % 6, ell)))
        placed[pid] = _new(PolygonChart, (pid, color, tuple(sides)))

    folded: dict[int, GridPoint] = {}
    for pid, side, fid, _ in frame.corners:
        pt = placed[pid].sides[side].start
        seen = folded.setdefault(fid, pt)
        if seen != pt:
            raise GluingError(f"vertex {fid} has two folded images {seen} and {pt}")

    return RealizedSurface(frame, placed, folded)


def _spanning_tree(polygons, gluings: dict[int, EdgeGluing], tree: set[int] | None = None):
    """Breadth-first spanning tree of the dual graph, over the edges in
    ``tree`` if given: the root (smallest polygon id) and the steps
    (polygon, edge, reached polygon) in visiting order, each polygon's
    neighbours taken by ascending (edge id, polygon id)."""
    adjacency: dict[int, list[tuple[int, int]]] = {pid: [] for pid in polygons}
    for eid, gl in gluings.items():
        adjacency[gl.white_polygon].append((eid, gl.black_polygon))
        adjacency[gl.black_polygon].append((eid, gl.white_polygon))
    for lst in adjacency.values():
        lst.sort()
    root = min(adjacency)
    seen = {root}
    steps: list[tuple[int, int, int]] = []
    queue = deque([root])
    while queue:
        pid = queue.popleft()
        for eid, other in adjacency[pid]:
            if other in seen or (tree is not None and eid not in tree):
                continue
            seen.add(other)
            steps.append((pid, eid, other))
            queue.append(other)
    return root, steps


def _edge_gluings(boundaries) -> dict[int, EdgeGluing]:
    sides_of_edge: dict[int, list[tuple[str, int, int]]] = {}
    for b in boundaries:
        for i, eid in enumerate(b.sides):
            sides_of_edge.setdefault(eid, []).append((b.color, b.vertex_id, i))
    gluings = {}
    for eid, recs in sides_of_edge.items():
        if len(recs) != 2:
            raise GluingError(f"edge {eid} bounds {len(recs)} polygon sides, expected 2")
        whites = [(pid, i) for color, pid, i in recs if color == WHITE]
        blacks = [(pid, i) for color, pid, i in recs if color != WHITE]
        if len(whites) != 1 or len(blacks) != 1:
            raise GluingError(f"edge {eid} does not join a white and a black polygon")
        gluings[eid] = EdgeGluing(eid, whites[0][0], whites[0][1], blacks[0][0], blacks[0][1])
    return gluings


def _gluing_shift(charts, gl: EdgeGluing) -> tuple[int, int]:
    """Translation carrying the black polygon's chart onto the white one's;
    its negative carries the white chart onto the black one.

    The white side traverses the edge A -> B and the black side B -> A with
    opposite chart directions, so chart starts pair with chart ends.
    """
    _, white, white_side, black, black_side = gl
    # a chart is (id, colour, sides), a side (edge id, start, direction, length)
    _, (wx, wy), _, _ = charts[white][2][white_side]
    _, (bx, by), d, ell = charts[black][2][black_side]
    dx, dy = DIRECTIONS[d]
    return wx - bx - ell * dx, wy - by - ell * dy


def cone_point_coordinates(surface: RealizedSurface) -> tuple[GridPoint, ...]:
    """Folded coordinates of the six cone vertices, in face id order.

    The base flag's cone vertex sits at the origin.  For a fixed
    combinatorial type and flag these coordinates are linear in the edge
    length vector.
    """
    return tuple(surface.folded_vertex_image[f] for f in surface.frame.cone_vertices)


# the mesh's and the net's public names, still reachable as geometry.*
_LAZY_OWNER = {**dict.fromkeys(("ColorError", "ColoredTriangulation", "MeshError", "Triangle",
                                "build_triangulation", "four_color", "triarea", "unit_triangulate"),
                               "mesh"),
               **dict.fromkeys(("NetLayout", "NetTransform", "develop_net"), "net")}


def __getattr__(name: str):
    """A mesh or net name, read from its module on every access, so that
    ``geometry.X is mesh.X`` holds even after ``mesh.X`` is rebound; the
    module is imported on first use."""
    owner = _LAZY_OWNER.get(name)
    if owner is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(__import__(f"{__package__}.{owner}", fromlist=[name]), name)
