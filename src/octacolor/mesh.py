"""Unit triangulation of integer-sided polygons, the glued sphere mesh and
its 4-coloring.

``unit_triangulate`` cuts one convex sixth-turn chain into unit triangles
by a scan over its lattice rows.  ``build_triangulation`` glues the placed
charts of a ``geometry.RealizedSurface`` into one closed sphere and checks
it, ``chart_triangles`` reads each chart's triangles back out of it, and
``four_color`` colors its vertices by lattice residues.

The mesh numbers its vertices before it cuts a triangle.  A point (X, Y) in
doubled coordinates is the integer key X * w + (Y - y0), with y0 the lowest
row and w above the mesh's height, so point keys sort as points do, and a
vertex is the key point * p + owner, with p one above the largest polygon
id, so vertex keys sort as (point, owner) pairs do.  One sort of ints
gives the vertex ids, and one pass over each chart's strips emits its
triangles as id triples with the integer keys of their edges.  GridPoints
are built only for the positions the mesh returns.

What the gluing needs of the combinatorial type alone, the mesh reads from
the surface's ``geometry.SurfaceFrame``, built once per type: the gluings,
a point inside a glued side belonging to the smaller of its two polygons,
and the corners, each with the owner of its face.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, islice, repeat
from typing import TYPE_CHECKING, NamedTuple

from .emg import WHITE, InvariantError
from .grid import DIRECTIONS, GridPoint, signed_triarea

if TYPE_CHECKING:
    from .geometry import RealizedSurface


class MeshError(InvariantError):
    """Glued unit triangulations do not form a closed sphere."""


class ColorError(InvariantError):
    """A folded vertex image is not a lattice point."""


Triangle = tuple[GridPoint, GridPoint, GridPoint]


def _step(p: GridPoint, d: int, n: int) -> tuple[int, int]:
    dx, dy = DIRECTIONS[d]
    return p[0] + n * dx, p[1] + n * dy


def triarea(points) -> int:
    """Area of a closed chain in units of one unit equilateral triangle."""
    return abs(signed_triarea(list(points)))


def unit_triangulate(start: GridPoint, sides) -> list[Triangle]:
    """Cut the integer-sided convex chain that leaves ``start`` along
    ``sides``, (length, direction) pairs, into unit triangles.

    Row scan: every side runs along a lattice row or climbs one row per
    unit, so the chain's lattice points in each row Y form the span
    between its lowest and highest boundary X.  Each strip between rows
    Y and Y + 1 is a trapezoid filled by alternating up and down unit
    triangles.  Returns exactly area / (sqrt(3)/4) triangles, each a
    sorted triple of grid points at mutual distance one.
    """
    rows, strips = _row_scan(start, _integer_sides(sides))
    y0 = min(rows)
    w = max(rows) - y0 + 1
    tris: list[tuple[int, int, int]] = []
    # point keys increase with the points, so they serve as ids here
    _emit_triangles(strips, _row_keys(rows, y0, w, 1, 0), 0, tris, [])
    return [tuple(tuple.__new__(GridPoint, (k // w, k % w + y0)) for k in t) for t in tris]


def _integer_sides(sides) -> list[tuple[int, int]]:
    out = []
    for ell, d in sides:
        n = int(ell)
        if n != ell or n <= 0:
            raise MeshError(f"side lengths must be positive integers, got {ell}")
        out.append((n, d % 6))
    return out


def _row_scan(start: GridPoint, sides: list[tuple[int, int]]):
    """Row extents and strips of a convex sixth-turn chain.

    Walks the chain one unit at a time and records each row's lowest and
    highest boundary X, which serves clockwise (black) and counterclockwise
    (white) charts alike; by convexity the chain's lattice points in row Y
    are every second X from ``rows[Y][0]`` to ``rows[Y][1]``, point i at
    X = ``rows[Y][0]`` + 2i.  In the strip between rows y and y + 1, with
    extents [l0, r0] below and [l1, r1] above, an up triangle (x, y),
    (x + 1, y + 1), (x + 2, y) fits for every x of the row's parity with
    l0 <= x, x + 2 <= r0 and l1 <= x + 1 <= r1, and a down triangle
    (x - 1, y + 1), (x, y), (x + 1, y + 1) for l0 <= x <= r0 and
    l1 <= x - 1, x + 1 <= r1; both triples are sorted as written.  A strip
    is (y, up, down, s): with s = (l0 + 1 - l1) / 2, point x + 1 of row
    y + 1 has index i + s when x has index i in row y, and ``up`` and
    ``down`` are the ranges of i.  Raises MeshError when the count differs
    from the chain's shoelace area, and ValueError (a bug: ``walk_polygons``
    raises ClosureError first) on a chain not convex with sixth-turn corners.
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
    strips = []
    count = 0
    bottom, top = min(rows), max(rows)
    l0, r0 = rows[bottom]
    for y in range(bottom, top):
        l1, r1 = rows[y + 1]
        s = (l0 + 1 - l1) // 2
        # conditionals, not min and max calls: this runs for every row of
        # every chart
        up = range(-s if s < 0 else 0, ((r0 if r0 <= r1 else r1 + 1) - l0) // 2)
        down = range(1 - s if s < 1 else 0, ((r0 if r0 < r1 else r1 - 1) - l0) // 2 + 1)
        strips.append((y, up, down, s))
        count += len(up) + len(down)
        l0, r0 = l1, r1
    area = triarea(_chain_points(start, sides))
    if count != area:
        raise MeshError(f"triangulated {count} units, area holds {area}")
    return rows, strips


def _row_keys(rows, y0: int, w: int, p: int, owner: int) -> dict[int, list[int]]:
    """Each row's vertex keys (X * w + Y - y0) * p + owner, point by point."""
    return {y: list(range((lo * w + y - y0) * p + owner, (hi * w + y - y0) * p + owner + 1, 2 * w * p))
            for y, (lo, hi) in rows.items()}


def _emit_triangles(strips, ids: dict[int, list[int]], n: int,
                    triangles: list[tuple[int, int, int]], edge_keys: list[int]) -> None:
    """Append the unit triangles of ``_row_scan``'s strips to ``triangles``
    as id triples, ``ids[y]`` holding row y's point ids, and the key
    a * n + b of each of their edges (a, b) to ``edge_keys``.  Ids that
    increase with the points make every triple sorted."""
    append, extend = triangles.append, edge_keys.extend
    for y, up, down, s in strips:
        below, above = ids[y], ids[y + 1]
        for i in up:
            a, b, c = below[i], above[i + s], below[i + 1]
            append((a, b, c))
            an = a * n
            extend((an + b, an + c, b * n + c))
        for i in down:
            a, b, c = above[i + s - 1], below[i], above[i + s]
            append((a, b, c))
            an = a * n
            extend((an + b, an + c, b * n + c))


def _chain_points(start: GridPoint, sides) -> list[tuple[int, int]]:
    pts = [start]
    for ell, d in sides[:-1]:
        pts.append(_step(pts[-1], d, ell))
    return pts


class ColoredTriangulation(NamedTuple):
    positions: tuple[GridPoint, ...]                  # folded image per vertex
    triangles: tuple[tuple[int, int, int], ...]
    triangle_colors: tuple[str, ...]                  # polygon colour per triangle
    edges: tuple[tuple[int, int], ...]
    degrees: tuple[int, ...]
    vertex_colors: tuple[int, ...] | None = None

    @property
    def n_vertices(self) -> int:
        return len(self.positions)

    def degree_histogram(self) -> dict[int, int]:
        return dict(Counter(self.degrees))

    def euler_characteristic(self) -> int:
        return self.n_vertices - len(self.edges) + len(self.triangles)


def build_triangulation(surface: RealizedSurface) -> ColoredTriangulation:
    """Glue per-polygon unit triangulations into one closed sphere.

    Subdivision points along a shared edge coincide exactly in the folded
    plane, so identification happens along each glued edge, and only there
    (the folding map is far from injective globally).  A vertex is a chart
    point keyed by (point, owner), and the type alone fixes the owner: the
    chart itself for an interior point, the smaller of the two polygons for
    a point inside a glued side, and the corner's owner in the surface's
    frame for a corner.

    The vertices are numbered before any triangle is cut, by one sort of
    their packed keys (see the module docstring).  Within one chart the
    points are distinct, so ids follow point order there, and each chart's
    strips give sorted id triples directly.  Verifies each chart's count
    against its shoelace area, that each glued white side runs from its
    black side's end to its start, that every edge lies in two triangles,
    the Euler characteristic, and the degree sequence of six 4s with all
    remaining degrees 6.
    """
    placed, frame = surface.placed, surface.frame
    p = 1 + max(placed)
    scans = {pid: _row_scan(ch.sides[0].start, [(ell, d) for _, _, d, ell in ch.sides])
             for pid, ch in sorted(placed.items())}
    rows = {pid: r for pid, (r, _) in scans.items()}
    y0 = min(min(r) for r in rows.values())
    w = max(max(r) for r in rows.values()) - y0 + 1
    keys = {pid: _row_keys(r, y0, w, p, pid) for pid, r in rows.items()}

    for eid, white, white_side, black, black_side in frame.gluings.values():
        o = min(white, black)
        side, other = placed[white].sides[white_side], placed[black].sides[black_side]
        _, (x, y), d, length = side
        dx, dy = DIRECTIONS[d]
        if _step(other.start, other.direction, other.length) != (x, y) or \
                other.start != (x + length * dx, y + length * dy):
            pt = side.start if side.start != other.end else side.end
            raise MeshError(f"edge {eid}: subdivision point {pt} missing from a triangulation")
        white_rows, black_rows, white_keys, black_keys = rows[white], rows[black], keys[white], keys[black]
        for t in range(1, length):
            px, py = x + t * dx, y + t * dy
            white_keys[py][(px - white_rows[py][0]) // 2] = black_keys[py][(px - black_rows[py][0]) // 2] = \
                (px * w + py - y0) * p + o
    for pid, side, _, o in frame.corners:
        x, y = placed[pid].sides[side].start
        keys[pid][y][(x - rows[pid][y][0]) // 2] = (x * w + y - y0) * p + o

    vertex_keys = sorted(set(chain.from_iterable(chain.from_iterable(r.values() for r in keys.values()))))
    vid = dict(zip(vertex_keys, range(len(vertex_keys)))).__getitem__
    ids = {pid: {y: list(map(vid, ks)) for y, ks in r.items()} for pid, r in keys.items()}
    n, pw = len(vertex_keys), p * w
    positions = tuple([tuple.__new__(GridPoint, (k // pw, k // p % w + y0)) for k in vertex_keys])

    triangles: list[tuple[int, int, int]] = []
    colors: list[str] = []
    edge_keys: list[int] = []
    for pid, (_, strips) in scans.items():
        before = len(triangles)
        _emit_triangles(strips, ids[pid], n, triangles, edge_keys)
        colors.extend(repeat(placed[pid].color, len(triangles) - before))

    edges = _closed_mesh_edges(edge_keys, n)

    degrees = [0] * n
    for a, b in edges:
        degrees[a] += 1
        degrees[b] += 1

    tri = ColoredTriangulation(positions, tuple(triangles), tuple(colors), edges, tuple(degrees))
    if tri.euler_characteristic() != 2:
        raise MeshError(f"Euler characteristic {tri.euler_characteristic()}, expected 2")
    fours = degrees.count(4)
    if fours != 6 or fours + degrees.count(6) != n:
        raise MeshError(f"degree histogram {tri.degree_histogram()}, expected six 4s and the rest 6s")
    return tri


def chart_triangles(surface: RealizedSurface, tri: ColoredTriangulation) -> dict[int, tuple]:
    """Each chart's triangles in ``tri``, glued of ``surface``, as ``build_triangulation`` emits
    them: charts in id order, each its shoelace count and its ``unit_triangulate``."""
    rest = iter(tri.triangles)
    return {pid: tuple(islice(rest, triarea(surface.placed[pid].chain))) for pid in sorted(surface.placed)}


def _closed_mesh_edges(edge_keys: list[int], n: int) -> tuple[tuple[int, int], ...]:
    """The sorted edges of a closed mesh on vertex ids 0..n-1, given the key
    a * n + b of every edge (a, b), a < b, of every triangle; MeshError
    unless every edge lies in exactly two triangles.

    One sort of the 3T keys (in place) lines up the copies of each edge:
    every edge has exactly two copies when the even and odd positions
    agree and the even ones hold no repeat."""
    edge_keys.sort()
    first = edge_keys[0::2]
    if first != edge_keys[1::2] or len(set(first)) != len(first):
        bad = [key for key, count in Counter(edge_keys).items() if count != 2]
        raise MeshError(f"{len(bad)} edges not shared by exactly two triangles, "
                        f"e.g. {divmod(bad[0], n)}")
    return tuple(map(divmod, first, repeat(n)))


def four_color(tri: ColoredTriangulation) -> ColoredTriangulation:
    """Proper 4-coloring by lattice residues of folded vertex images.

    Adjacent vertices differ by a unit direction, which is never in twice
    the lattice, so residue classes color properly; this is re-verified by
    a brute-force scan over all edges, as is the mod-3 balance of black and
    white triangles around every vertex, by one signed count per vertex
    (+1 per white triangle, -1 per black one).
    """
    off = next((pt for pt in tri.positions if (pt[0] - pt[1]) & 1), None)
    if off is not None:
        raise ColorError(f"folded vertex image {off} is not a lattice point")
    # lattice coordinates (a, b) = ((X - Y)/2, Y); the class is
    # 2*(a & 1) + (b & 1), as GridPoint.color_class computes it
    colors = [(x - y) & 2 | y & 1 for x, y in tri.positions]
    for a, b in tri.edges:
        if colors[a] == colors[b]:
            raise ColorError(f"adjacent vertices {a}, {b} share color {colors[a]}")
    signed = [0] * len(colors)
    for (a, b, c), col in zip(tri.triangles, tri.triangle_colors):
        s = 1 if col == WHITE else -1
        signed[a] += s
        signed[b] += s
        signed[c] += s
    if any(s % 3 for s in signed):
        v = next(v for v, s in enumerate(signed) if s % 3)
        around = [col for t, col in zip(tri.triangles, tri.triangle_colors) if v in t]
        raise ColorError(f"vertex {v}: {around.count(WHITE)} white vs "
                         f"{len(around) - around.count(WHITE)} black triangles")
    return tri._replace(vertex_colors=tuple(colors))
