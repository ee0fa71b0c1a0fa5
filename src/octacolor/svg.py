"""Deterministic SVG emission for nets, triangulations, and colorings.

Exact points convert to floats only here, at the last moment.  A point is
a pair in doubled coordinates: a GridPoint, or for the dual overlay's
centroids and side midpoints a pair of Fractions, interpolated exactly
between lattice points already placed in the net.  Output bytes are a pure
function of the scene: fixed float formatting, fixed element order,
viewport computed from the exact bounding box with five percent padding.
"""

from __future__ import annotations

from fractions import Fraction

from .emg import WHITE, EnhancedMultigraph
from .geometry import NetLayout, RealizedSurface, Triangle, unit_triangulate
from .grid import GridPoint

SQRT3 = 3 ** 0.5

FILL_WHITE = "#FFFFFF"
FILL_BLACK = "#202020"
EDGE_STROKE = "#303030"
TRIANGLE_STROKE = "#9A9A9A"
BLUE_EDGE = "#1565C0"
RED_EDGE = "#C62828"
VERTEX_PALETTE = ("#E63946", "#2A9D8F", "#E9C46A", "#6D3FC0")


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _xy(p) -> tuple[float, float]:
    # halving is exact in floating point; SVG y grows downward, so flip it
    # to render the upper half plane upward
    return float(p[0]) / 2, -float(p[1]) / 2 * SQRT3


class SvgScene:
    def __init__(self):
        self.elements: list[str] = []
        self.min_x: float | None = None
        self.min_y: float | None = None
        self.max_x: float | None = None
        self.max_y: float | None = None

    def _grow(self, x: float, y: float) -> None:
        self.min_x = x if self.min_x is None else min(self.min_x, x)
        self.max_x = x if self.max_x is None else max(self.max_x, x)
        self.min_y = y if self.min_y is None else min(self.min_y, y)
        self.max_y = y if self.max_y is None else max(self.max_y, y)

    def polygon(self, points, fill: str, stroke: str = EDGE_STROKE, width: float = 0.03) -> None:
        coords = []
        for p in points:
            x, y = _xy(p)
            self._grow(x, y)
            coords.append(f"{_fmt(x)},{_fmt(y)}")
        self.elements.append(
            f'<polygon points="{" ".join(coords)}" fill="{fill}" '
            f'stroke="{stroke}" stroke-width="{_fmt(width)}"/>')

    def polyline(self, points, stroke: str, width: float = 0.05) -> None:
        coords = []
        for p in points:
            x, y = _xy(p)
            self._grow(x, y)
            coords.append(f"{_fmt(x)},{_fmt(y)}")
        self.elements.append(
            f'<polyline points="{" ".join(coords)}" fill="none" '
            f'stroke="{stroke}" stroke-width="{_fmt(width)}" stroke-linecap="round"/>')

    def circle(self, center, radius: float, fill: str) -> None:
        x, y = _xy(center)
        self._grow(x - radius, y - radius)
        self._grow(x + radius, y + radius)
        self.elements.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(radius)}" fill="{fill}"/>')

    def render(self) -> str:
        if self.min_x is None:
            self.min_x = self.min_y = 0.0
            self.max_x = self.max_y = 1.0
        w = self.max_x - self.min_x or 1.0
        h = self.max_y - self.min_y or 1.0
        pad = 0.05 * max(w, h)
        view = (f"{_fmt(self.min_x - pad)} {_fmt(self.min_y - pad)} "
                f"{_fmt(w + 2 * pad)} {_fmt(h + 2 * pad)}")
        header = (f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{view}" '
                  f'width="{_fmt(100 * (w + 2 * pad))}" height="{_fmt(100 * (h + 2 * pad))}">')
        return "\n".join([header, *self.elements, "</svg>"]) + "\n"


def _centroid(points) -> tuple[Fraction, Fraction]:
    n = len(points)
    return Fraction(sum(p[0] for p in points), n), Fraction(sum(p[1] for p in points), n)


def _between(a, b, t: Fraction) -> tuple[Fraction, Fraction]:
    return a[0] + (b[0] - a[0]) * t, a[1] + (b[1] - a[1]) * t


def render_net(g: EnhancedMultigraph, surface: RealizedSurface, net: NetLayout,
               triangles: bool = False, vertex_colors: bool = False,
               overlay_dual: bool = False) -> str:
    """SVG of the net layout with optional unit-triangle grid, 4-coloring
    dots, and a red/blue overlay of the underlying multigraph."""
    scene = SvgScene()
    placed = surface.placed
    for pid in sorted(net.points):
        fill = FILL_WHITE if placed[pid].color == WHITE else FILL_BLACK
        scene.polygon(net.points[pid], fill)
    # one triangulation per chart serves both the grid and the dots
    triangulations = ({pid: unit_triangulate(placed[pid]) for pid in net.points}
                      if triangles or vertex_colors else {})
    if triangles:
        for pid in sorted(net.points):
            t = net.transforms[pid]
            for tri in triangulations[pid]:
                scene.polygon([t.apply(p) for p in tri], "none", TRIANGLE_STROKE, 0.012)
    if overlay_dual:
        _overlay_dual(scene, g, surface, net)
    if vertex_colors:
        _vertex_dots(scene, triangulations, net)
    return scene.render()


def _overlay_dual(scene: SvgScene, g: EnhancedMultigraph, surface: RealizedSurface,
                  net: NetLayout) -> None:
    """Blue arcs run from each polygon center across the middle of the side
    they cross; the two halves coincide exactly on tree-glued edges.  Red
    arcs hug the blue edge they run parallel to, offset into the polygon.
    The net map is affine, so side ends are placed first and midpoints
    taken in the net."""
    placed, gluings = surface.placed, surface.frame.gluings
    centers = {pid: _centroid(net.points[pid]) for pid in net.points}
    side_of: dict[tuple[int, int], int] = {}
    for pid, ch in placed.items():
        for idx, s in enumerate(ch.sides):
            side_of[(pid, s.edge_id)] = idx

    def net_mid(pid: int, eid: int, pull: Fraction):
        s = placed[pid].sides[side_of[(pid, eid)]]
        t = net.transforms[pid]
        mid = _between(t.apply(s.start), t.apply(s.end), Fraction(1, 2))
        return _between(mid, centers[pid], pull)

    for e in sorted(g.blue_edges(), key=lambda e: e.id):
        for pid in (gluings[e.id].white_polygon, gluings[e.id].black_polygon):
            scene.polyline([centers[pid], net_mid(pid, e.id, Fraction(0))], BLUE_EDGE, 0.04)
    for e in sorted(g.red_edges(), key=lambda e: e.id):
        partners = [b for b in g.blue_edges() if {b.a, b.b} == {e.a, e.b}]
        if not partners:
            continue
        eid = partners[0].id
        for pid in (gluings[eid].white_polygon, gluings[eid].black_polygon):
            scene.polyline([centers[pid], net_mid(pid, eid, Fraction(1, 5))], RED_EDGE, 0.03)


def _vertex_dots(scene: SvgScene, triangulations: dict[int, list[Triangle]], net: NetLayout) -> None:
    """One dot per triangulation vertex instance, colored by lattice residue
    of its folded image (shared vertices repeat with the same color).
    ``triangulations`` maps each polygon to its unit triangles."""
    for pid in sorted(net.points):
        t = net.transforms[pid]
        seen: set[GridPoint] = set()
        for tri in triangulations[pid]:
            for p in tri:
                if p in seen or not p.is_lattice_point():
                    continue
                seen.add(p)
                scene.circle(t.apply(p), 0.09, VERTEX_PALETTE[p.color_class()])
