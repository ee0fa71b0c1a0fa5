"""Exact geometric realization of a consistent length assignment.

Given a labelled multigraph and a positive solution of the closure system,
this module lays out every polygon on the rational grid, develops the whole
surface into the plane through the folding map (orientation preserving on
white polygons, reversing on black, so all gluing maps become translations),
cuts each integer-sided polygon into unit triangles by one scan over its
lattice rows, assembles the glued sphere triangulation with its proper
4-coloring, and lays out an unfolded net with proper isometries for
rendering.

What depends on the combinatorial type alone is paid once per type: a
``SurfaceFrame`` holds the gluing table, the spanning tree, the angle
closure verdict, the base flag, the polygon corners and, for each blue
face, the polygon that owns its mesh vertex.  Per point, ``place_surface``
computes the translations and checks holonomy, and the ``RealizedSurface``
it returns holds the frame beside the placed charts.
``build_triangulation`` numbers the mesh by the frame's combinatorial
owners and corners, with no search over glued points, and ``develop_net``
lays the net out along the frame's spanning tree.

Every stage runs on one point type, the integer GridPoint in doubled
coordinates (X, Y) = (2x, 2y): side lengths are integers and every corner
is a lattice point, so realization, development, the mesh and the net are
exact integer arithmetic.  The mesh's inner loops keep plain (X, Y) tuples,
which compare and hash equal to GridPoints.  Nothing becomes a rational
before JSON or a float before SVG emission, and angle checks are
combinatorial, in units of pi/3.
"""

from __future__ import annotations

from collections import Counter, deque
from itertools import chain, repeat
from typing import NamedTuple

from .emg import WHITE, EnhancedMultigraph
from .grid import DIRECTIONS, ORIGIN, GridPoint, direction, signed_triarea
from .labeling import ACUTE, CORNER_UNITS, LabelMap, PolygonBoundary


class ClosureError(ValueError):
    """A length vector does not satisfy the closure system."""


class GluingError(ValueError):
    """Folded polygon placements disagree across a shared edge or vertex."""


class AngleError(ValueError):
    """Interior angles around a vertex fail to close up."""


class MeshError(ValueError):
    """Glued unit triangulations do not form a closed sphere."""


class ColorError(ValueError):
    """A folded vertex image is not a lattice point."""


class SideRecord(NamedTuple):
    edge_id: int
    start: GridPoint
    direction: int  # exponent of the unit direction, 0..5
    length: int

    @property
    def end(self) -> GridPoint:
        return GridPoint(*_step(self.start, self.direction, self.length))


class PolygonChart(NamedTuple):
    vertex_id: int
    color: str
    sides: tuple[SideRecord, ...]

    @property
    def chain(self) -> tuple[GridPoint, ...]:
        return tuple(s.start for s in self.sides)

    def corner_point(self, corner_index: int) -> GridPoint:
        """Position of the corner after side ``corner_index``."""
        return self.sides[(corner_index + 1) % len(self.sides)].start


def realize_polygons(g: EnhancedMultigraph, boundaries: list[PolygonBoundary],
                     labels: LabelMap, lengths) -> dict[int, PolygonChart]:
    """Per-polygon charts anchored at the origin.

    Side i of a polygon runs for its length along the labelled direction
    (plus a half turn on black polygons, whose charts are the mirrored,
    folded image).  Raises ClosureError on a length that is not a positive
    integer and when a chain fails to close, which means ``lengths`` is not
    a solution of the closure system.
    """
    exp = labels.exponent_map()
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


class EdgeGluing(NamedTuple):
    edge_id: int
    white_polygon: int
    white_side: int
    black_polygon: int
    black_side: int


class SurfaceFrame(NamedTuple):
    """What developing a surface needs of its combinatorial type alone.

    Built once from the boundaries (and an optional base flag and spanning
    tree); ``place_surface`` then develops any length realization of the
    type against it.  The angle closure is combinatorial, so its verdict is
    decided here, but a failure is raised by ``place_surface``, after the
    holonomy check, as a per-point ``AngleError``.
    """
    boundaries: tuple[PolygonBoundary, ...]
    gluings: dict[int, EdgeGluing]
    root: int                                          # polygon placed first
    tree_steps: tuple[tuple[int, EdgeGluing, int], ...]  # (placed polygon, gluing, reached polygon)
    non_tree: tuple[EdgeGluing, ...]                   # holonomy checks, in edge id order
    tree_edges: tuple[int, ...]
    cone_vertices: tuple[int, ...]
    regular_vertices: tuple[int, ...]
    angle_error: str | None                            # why the angles fail to close, or None
    flag: tuple[int, int, int, int, int] | None        # (cone vertex, polygon, corner, side, half turn)
    corners: tuple[tuple[int, int, int], ...]          # (polygon, side leaving the corner, face)
    face_owner: dict[int, int]                         # blue face id -> smallest polygon with a corner there


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
    the spanning tree misses a polygon, and ValueError on a base flag that
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
                raise ValueError(f"base flag vertex {cv} is not a cone vertex")
            if flag_pid not in {pid for pid, _ in corners_at[cv]}:
                raise ValueError(f"polygon {flag_pid} does not touch cone vertex {cv}")
        corner_idx = next(idx for pid, idx in corners_at[cv] if pid == flag_pid)
        if by_vertex[flag_pid].color == WHITE:
            flag = (cv, flag_pid, corner_idx, (corner_idx + 1) % len(by_vertex[flag_pid].sides), 0)
        else:
            flag = (cv, flag_pid, corner_idx, corner_idx, 3)

    corners = tuple((b.vertex_id, (idx + 1) % len(b.sides), fid)
                    for b in boundaries for idx, fid in enumerate(b.corner_faces))
    face_owner = {fid: min(pid for pid, _ in at) for fid, at in corners_at.items()}
    return SurfaceFrame(tuple(boundaries), gluings, root,
                        tuple((pid, gluings[eid], other) for pid, eid, other in steps), non_tree,
                        tuple(sorted(tree_set)), tuple(bigons), tuple(quads), angle_error, flag,
                        corners, face_owner)


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

    Translates each chart along the frame's spanning tree, checks holonomy
    on every non-tree edge (GluingError), raises the frame's angle closure
    failure (AngleError), normalizes by the base flag and checks that every
    blue face gets one folded image (GluingError).
    """
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
    origin = translations[flag_pid] + chart.corner_point(corner_idx)
    placed: dict[int, PolygonChart] = {}
    for pid, ch in charts.items():
        shift = translations[pid] - origin
        placed[pid] = PolygonChart(pid, ch.color, tuple(
            SideRecord(s.edge_id, (s.start + shift).rot(-delta), (s.direction - delta) % 6, s.length)
            for s in ch.sides))

    folded: dict[int, GridPoint] = {}
    for pid, side, fid in frame.corners:
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


def _gluing_shift(charts, gl: EdgeGluing, from_polygon: int) -> GridPoint:
    """Translation carrying the other polygon's chart onto ``from_polygon``'s.

    The white side traverses the edge A -> B and the black side B -> A with
    opposite chart directions, so chart starts pair with chart ends.
    """
    w = charts[gl.white_polygon].sides[gl.white_side]
    b = charts[gl.black_polygon].sides[gl.black_side]
    shift_black = w.start - b.end
    if from_polygon == gl.white_polygon:
        return shift_black
    return -shift_black


# ---------------------------------------------------------------------------
# unit triangulation of integer-sided polygons
#
# The inner loops build plain (X, Y) tuples: they sort, hash and compare
# exactly as GridPoints do, so vertices, triangles and edges are numbered
# in GridPoint order.

Triangle = tuple[GridPoint, GridPoint, GridPoint]


def _step(p: GridPoint, d: int, n: int) -> tuple[int, int]:
    dx, dy = DIRECTIONS[d]
    return p[0] + n * dx, p[1] + n * dy


def triarea(points) -> int:
    """Area of a closed chain in units of one unit equilateral triangle."""
    return abs(signed_triarea(list(points)))


def unit_triangulate(chart_or_start, sides=None) -> list[Triangle]:
    """Cut an integer-sided convex chain into unit triangles.

    Row scan: every side runs along a lattice row or climbs one row per
    unit, so the chain's lattice points in each row Y form the span
    between its lowest and highest boundary X.  Each strip between rows
    Y and Y + 1 is a trapezoid filled by alternating up and down unit
    triangles.  Returns exactly area / (sqrt(3)/4) triangles, each a
    sorted triple of grid points at mutual distance one.
    """
    if sides is None:
        start, int_sides = chart_or_start.sides[0].start, _chart_sides(chart_or_start)
    else:
        start, int_sides = chart_or_start, _integer_sides(sides)
    return [tuple(GridPoint(*p) for p in t) for t in _unit_triangles(start, int_sides)[1]]


def _integer_sides(sides) -> list[tuple[int, int]]:
    out = []
    for ell, d in sides:
        n = int(ell)
        if n != ell or n <= 0:
            raise MeshError(f"side lengths must be positive integers, got {ell}")
        out.append((n, d % 6))
    return out


def _chart_sides(chart: PolygonChart) -> list[tuple[int, int]]:
    return [(s.length, s.direction) for s in chart.sides]


def _unit_triangles(start: GridPoint, sides: list[tuple[int, int]]
                    ) -> tuple[dict[int, list[int]], list[Triangle]]:
    """Row extents and unit triangles of a convex sixth-turn chain.

    Walks the chain one unit at a time and records each row's lowest and
    highest boundary X, which serves clockwise (black) and counterclockwise
    (white) charts alike; by convexity the chain's lattice points in row Y
    are every second X from ``rows[Y][0]`` to ``rows[Y][1]``.  In the
    strip between rows y and y + 1, with extents [l0, r0] below and
    [l1, r1] above, an up triangle (x, y), (x + 1, y + 1), (x + 2, y) fits
    for every x of the row's parity with l0 <= x, x + 2 <= r0 and
    l1 <= x + 1 <= r1, and a down triangle (x - 1, y + 1), (x, y),
    (x + 1, y + 1) for l0 <= x <= r0 and l1 <= x - 1, x + 1 <= r1; both
    triples are sorted as written.  Raises ValueError on a chain that is
    not convex with sixth-turn corners and MeshError when the count
    differs from the chain's area.
    """
    k = len(sides)
    turns = {(sides[(i + 1) % k][1] - sides[i][1]) % 6 for i in range(k)}
    if not (turns <= {1, 2} or turns <= {4, 5}):
        raise ValueError(f"chain is not convex with sixth-turn corners (turns {sorted(turns)})")
    rows: dict[int, list[int]] = {}
    x, y = start
    for ell, d in sides:
        dx, dy = DIRECTIONS[d]
        for _ in range(ell):
            x += dx
            y += dy
            ext = rows.get(y)
            if ext is None:
                rows[y] = [x, x]
            elif x < ext[0]:
                ext[0] = x
            elif x > ext[1]:
                ext[1] = x
    tris: list[Triangle] = []
    append = tris.append
    bottom, top = min(rows), max(rows)
    l0, r0 = rows[bottom]
    for y in range(bottom, top):
        y1 = y + 1
        l1, r1 = rows[y1]
        for x in range(max(l0, l1 - 1), min(r0, r1 + 1) - 1, 2):
            append(((x, y), (x + 1, y1), (x + 2, y)))
        for x in range(max(l1 + 1, l0), min(r1 - 1, r0) + 1, 2):
            append(((x - 1, y1), (x, y), (x + 1, y1)))
        l0, r0 = l1, r1
    area = triarea(_chain_points(start, sides))
    if len(tris) != area:
        raise MeshError(f"triangulated {len(tris)} units, area holds {area}")
    return rows, tris


def _chain_points(start: GridPoint, sides) -> list[tuple[int, int]]:
    pts = [start]
    for ell, d in sides[:-1]:
        pts.append(_step(pts[-1], d, ell))
    return pts


# ---------------------------------------------------------------------------
# glued triangulation and 4-coloring

class ColoredTriangulation(NamedTuple):
    positions: tuple[GridPoint, ...]                  # folded image per vertex
    triangles: tuple[tuple[int, int, int], ...]
    triangle_colors: tuple[str, ...]                  # polygon colour per triangle
    edges: tuple[tuple[int, int], ...]
    degrees: tuple[int, ...]
    surface_vertex: tuple[int, ...]                   # blue face id, or -1 for subdivision vertices
    vertex_colors: tuple[int, ...] | None = None

    @property
    def n_vertices(self) -> int:
        return len(self.positions)

    def degree_histogram(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for d in self.degrees:
            out[d] = out.get(d, 0) + 1
        return out

    def euler_characteristic(self) -> int:
        return self.n_vertices - len(self.edges) + len(self.triangles)


def build_triangulation(surface: RealizedSurface) -> ColoredTriangulation:
    """Glue per-polygon unit triangulations into one closed sphere.

    Subdivision points along a shared edge coincide exactly in the folded
    plane, so identification happens along each glued edge, and only there
    (the folding map is far from injective globally).  A vertex is a chart
    point keyed by (point, owner), and the boundaries alone fix the owner:
    the chart itself for an interior point, the smaller of the two glued
    polygons for a point inside a glued side, and the smallest polygon with
    a corner at the face (``frame.face_owner``) for a corner.  Vertex ids
    follow (point, owner) order.  Within one chart the points are distinct,
    so ids follow point order there and every sorted point triple maps to a
    sorted id triple.  Verifies that each glued white side runs from its
    black side's end to its start, closedness, the Euler characteristic,
    and the degree sequence of six 4s with all remaining degrees 6.
    """
    frame, placed = surface.frame, surface.placed
    triangulations = {}
    # each chart's points, mapped to the polygon that owns their vertex
    owner: dict[int, dict[tuple[int, int], int]] = {}
    for pid, ch in placed.items():
        rows, triangulations[pid] = _unit_triangles(ch.sides[0].start, _chart_sides(ch))
        owner[pid] = {(x, y): pid for y, (lo, hi) in rows.items() for x in range(lo, hi + 1, 2)}

    for eid, gl in frame.gluings.items():
        side = placed[gl.white_polygon].sides[gl.white_side]
        other = placed[gl.black_polygon].sides[gl.black_side]
        if side.start != other.end or side.end != other.start:
            pt = side.start if side.start != other.end else side.end
            raise MeshError(f"edge {eid}: subdivision point {pt} missing from a triangulation")
        white, black = owner[gl.white_polygon], owner[gl.black_polygon]
        o = min(gl.white_polygon, gl.black_polygon)
        (x, y), (dx, dy) = side.start, DIRECTIONS[side.direction]
        for t in range(1, side.length):
            white[x + t * dx, y + t * dy] = black[x + t * dx, y + t * dy] = o
    for pid, side, fid in frame.corners:
        owner[pid][placed[pid].sides[side].start] = frame.face_owner[fid]

    vertices = sorted(set(chain.from_iterable(pts.items() for pts in owner.values())))
    vid = {v: i for i, v in enumerate(vertices)}
    positions = [GridPoint(*pt) for pt, _ in vertices]
    index = {pid: {pt: vid[pt, o] for pt, o in pts.items()} for pid, pts in owner.items()}

    surface_vertex = [-1] * len(positions)
    for pid, side, fid in frame.corners:
        surface_vertex[index[pid][placed[pid].sides[side].start]] = fid

    triangles = []
    colors = []
    for pid in sorted(triangulations):
        m = index[pid]
        tris = triangulations[pid]
        triangles.extend([(m[p], m[q], m[r]) for p, q, r in tris])
        colors.extend([placed[pid].color] * len(tris))

    edges = _closed_mesh_edges(triangles, len(positions))

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


def _closed_mesh_edges(triangles, n: int) -> tuple[tuple[int, int], ...]:
    """The sorted edges of a closed mesh on vertex ids 0..n-1, each of whose
    triangles is a sorted id triple; MeshError unless every edge lies in
    exactly two triangles.

    Edge (a, b) is the integer key a * n + b, so one sort of the 3T keys
    lines up the copies of each edge: every edge has exactly two copies
    when the even and odd positions agree and the even ones hold no
    repeat."""
    keys = sorted(chain.from_iterable((a * n + b, a * n + c, b * n + c) for a, b, c in triangles))
    first = keys[0::2]
    if first != keys[1::2] or len(set(first)) != len(first):
        bad = [key for key, count in Counter(keys).items() if count != 2]
        raise MeshError(f"{len(bad)} edges not shared by exactly two triangles, "
                        f"e.g. {divmod(bad[0], n)}")
    return tuple(map(divmod, first, repeat(n)))


def four_color(tri: ColoredTriangulation) -> ColoredTriangulation:
    """Proper 4-coloring by lattice residues of folded vertex images.

    Adjacent vertices differ by a unit direction, which is never in twice
    the lattice, so residue classes color properly; this is re-verified by
    a brute-force scan over all edges, as is the mod-3 balance of black and
    white triangles around every vertex.
    """
    colors = []
    for pt in tri.positions:
        # lattice coordinates (a, b) = ((X - Y)/2, Y); the class is
        # 2*(a & 1) + (b & 1), as GridPoint.color_class computes it
        diff = pt[0] - pt[1]
        if diff & 1:
            raise ColorError(f"folded vertex image {pt} is not a lattice point")
        colors.append((diff & 2) | (pt[1] & 1))
    for a, b in tri.edges:
        if colors[a] == colors[b]:
            raise ColorError(f"adjacent vertices {a}, {b} share color {colors[a]}")
    white = [0] * len(colors)
    black = [0] * len(colors)
    for t, col in zip(tri.triangles, tri.triangle_colors):
        counts = white if col == WHITE else black
        for v in t:
            counts[v] += 1
    for v, (w, b) in enumerate(zip(white, black)):
        if (w - b) % 3 != 0:
            raise ColorError(f"vertex {v}: {w} white vs {b} black triangles")
    return tri._replace(vertex_colors=tuple(colors))


def cone_point_coordinates(surface: RealizedSurface) -> tuple[GridPoint, ...]:
    """Folded coordinates of the six cone vertices, in face id order.

    The base flag's cone vertex sits at the origin.  For a fixed
    combinatorial type and flag these coordinates are linear in the edge
    length vector.
    """
    return tuple(surface.folded_vertex_image[f] for f in surface.frame.cone_vertices)


# ---------------------------------------------------------------------------
# net development (proper isometries, for rendering)

class NetTransform(NamedTuple):
    rotation: int          # sixth turns
    shift: GridPoint
    mirrored: bool         # black charts are conjugated before placing

    def apply(self, pt: GridPoint) -> GridPoint:
        if self.mirrored:
            pt = pt.conj()
        return pt.rot(self.rotation) + self.shift


class NetLayout(NamedTuple):
    transforms: dict[int, NetTransform]
    points: dict[int, tuple[GridPoint, ...]]      # placed boundary chains
    tree_edges: tuple[int, ...]
    overlaps: tuple[tuple[int, int], ...]         # non-adjacent polygons with overlapping interiors


def develop_net(surface: RealizedSurface) -> NetLayout:
    """Lay the polygons out edge-to-edge with orientation-preserving maps.

    Black charts are mirrored once, restoring their unfolded shape, and
    every gluing along the frame's spanning tree becomes a rotation by
    sixth turns plus a translation; shared tree edges coincide exactly.
    Overlaps between polygons not glued in the tree are detected and
    reported, not repaired.
    """
    frame, placed = surface.frame, surface.placed

    def proper_side(pid: int, side_idx: int) -> SideRecord:
        s = placed[pid].sides[side_idx]
        if placed[pid].color == WHITE:
            return s
        return SideRecord(s.edge_id, s.start.conj(), (-s.direction) % 6, s.length)

    root = frame.root
    transforms: dict[int, NetTransform] = {root: NetTransform(0, ORIGIN, placed[root].color != WHITE)}
    for pid, gl, other in frame.tree_steps:
        here = gl.white_side if pid == gl.white_polygon else gl.black_side
        there = gl.black_side if pid == gl.white_polygon else gl.white_side
        s_here = proper_side(pid, here)
        s_there = proper_side(other, there)
        t_here = transforms[pid]
        # the two polygons traverse the shared edge in opposite directions
        rot = (t_here.rotation + s_here.direction + 3 - s_there.direction) % 6
        mirrored = placed[other].color != WHITE
        target = s_here.start.rot(t_here.rotation) + t_here.shift + \
            direction((s_here.direction + t_here.rotation) % 6).scale(s_here.length)
        shift = target - s_there.start.rot(rot)
        transforms[other] = NetTransform(rot, shift, mirrored)

    points: dict[int, tuple[GridPoint, ...]] = {}
    for pid, ch in placed.items():
        chain = ch.chain if ch.color == WHITE else tuple(p.conj() for p in ch.chain)
        t = transforms[pid]
        points[pid] = tuple(p.rot(t.rotation) + t.shift for p in chain)

    for _, gl, _ in frame.tree_steps:
        sw = proper_side(gl.white_polygon, gl.white_side)
        sb = proper_side(gl.black_polygon, gl.black_side)
        tw, tb = transforms[gl.white_polygon], transforms[gl.black_polygon]
        a1 = sw.start.rot(tw.rotation) + tw.shift
        b1 = a1 + direction((sw.direction + tw.rotation) % 6).scale(sw.length)
        b2 = sb.start.rot(tb.rotation) + tb.shift
        a2 = b2 + direction((sb.direction + tb.rotation) % 6).scale(sb.length)
        if (a1, b1) != (a2, b2):
            raise GluingError(f"net tree edge {gl.edge_id} fails to coincide")

    glued_pairs = {frozenset((gl.white_polygon, gl.black_polygon)) for _, gl, _ in frame.tree_steps}
    overlaps = []
    pids = sorted(points)
    for i, p in enumerate(pids):
        for q in pids[i + 1:]:
            if frozenset((p, q)) in glued_pairs:
                continue
            if _interiors_overlap(points[p], points[q]):
                overlaps.append((p, q))
    return NetLayout(transforms, points, frame.tree_edges, tuple(overlaps))


def _interiors_overlap(pts_a, pts_b) -> bool:
    """Exact separating-axis test for convex polygons; touching is allowed."""
    def axes(pts):
        n = len(pts)
        for i in range(n):
            yield pts[(i + 1) % n] - pts[i]

    for dx, dy in list(axes(pts_a)) + list(axes(pts_b)):
        # projection onto the normal of direction (dx, dy*sqrt3), scaled
        proj_a = [dx * y - dy * x for x, y in pts_a]
        proj_b = [dx * y - dy * x for x, y in pts_b]
        if max(proj_a) <= min(proj_b) or max(proj_b) <= min(proj_a):
            return False
    return True
