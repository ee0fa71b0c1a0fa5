"""Deterministic SVG emission for nets, triangulations, and colorings.

Exact points convert to floats only here, at the last moment.  A point is
a pair in doubled coordinates: a GridPoint, or for the dual overlay's
centroids and side midpoints a pair of Fractions, interpolated exactly
between lattice points already placed in the net.  The triangle grid and
the coloring dots are the realized mesh, read chart by chart.  Output bytes
are a pure function of the scene: fixed float formatting, fixed element
order, viewport computed from the exact bounding box with 5% padding.
"""

from __future__ import annotations

from itertools import chain
from typing import TYPE_CHECKING

from .emg import WHITE, trace_faces

if TYPE_CHECKING:
    from fractions import Fraction

    from .emg import EnhancedMultigraph
    from .geometry import RealizedSurface
    from .mesh import ColoredTriangulation
    from .net import NetLayout

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

    def _coords(self, points) -> str:
        """The points as space-separated ``x,y`` pairs, each grown into the
        bounding box."""
        coords = []
        for p in points:
            x, y = _xy(p)
            self._grow(x, y)
            coords.append(f"{_fmt(x)},{_fmt(y)}")
        return " ".join(coords)

    def polygon(self, points, fill: str, stroke: str = EDGE_STROKE, width: float = 0.03) -> None:
        self.elements.append(
            f'<polygon points="{self._coords(points)}" fill="{fill}" '
            f'stroke="{stroke}" stroke-width="{_fmt(width)}"/>')

    def polyline(self, points, stroke: str, width: float = 0.05) -> None:
        self.elements.append(
            f'<polyline points="{self._coords(points)}" fill="none" '
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
    from fractions import Fraction
    n = len(points)
    return Fraction(sum(p[0] for p in points), n), Fraction(sum(p[1] for p in points), n)


def _between(a, b, t: Fraction) -> tuple[Fraction, Fraction]:
    return a[0] + (b[0] - a[0]) * t, a[1] + (b[1] - a[1]) * t


def render_net(g: EnhancedMultigraph, surface: RealizedSurface, net: NetLayout,
               triangles: bool = False, vertex_colors: bool = False,
               overlay_dual: bool = False, mesh: ColoredTriangulation | None = None) -> str:
    """SVG of the net layout with optional unit-triangle grid and 4-coloring
    dots, both drawn from ``mesh``, the colored mesh ``Instance.realize``
    built of ``surface``, and a red/blue overlay of the multigraph."""
    scene = SvgScene()
    for pid in sorted(net.points):
        scene.polygon(net.points[pid], FILL_WHITE if surface.placed[pid].color == WHITE else FILL_BLACK)
    if triangles or vertex_colors:
        if mesh is None:
            raise ValueError("the grid and the dots draw the realized mesh; pass it as mesh")
        from .mesh import chart_triangles
        charts = chart_triangles(surface, mesh)
    if triangles:
        for pid in sorted(net.points):
            t = net.transforms[pid]
            for tri in charts[pid]:
                scene.polygon([t.apply(mesh.positions[v]) for v in tri], "none", TRIANGLE_STROKE, 0.012)
    if overlay_dual:
        _overlay_dual(scene, g, surface, net)
    if vertex_colors:
        for pid in sorted(net.points):
            t = net.transforms[pid]
            # each vertex once per chart, in the order the chart's triangles reach it
            for v in dict.fromkeys(chain.from_iterable(charts[pid])):
                scene.circle(t.apply(mesh.positions[v]), 0.09, VERTEX_PALETTE[mesh.vertex_colors[v]])
    return scene.render()


def _overlay_dual(scene: SvgScene, g: EnhancedMultigraph, surface: RealizedSurface,
                  net: NetLayout) -> None:
    """Blue arcs run from each polygon center across the middle of the side
    they cross; the two halves coincide exactly on tree-glued edges.  Red
    arcs hug the side of their own quadrilateral face that they run
    parallel to, offset into the polygon.  The net map is affine, so side
    ends are placed first and midpoints taken in the net."""
    from fractions import Fraction
    placed, gluings = surface.placed, surface.frame.gluings
    centers = {pid: _centroid(net.points[pid]) for pid in net.points}

    def arcs(eid: int, pull: Fraction):
        # per polygon glued along eid: its center, and its side's middle moved toward it by pull
        gl = gluings[eid]
        for pid, idx in ((gl.white_polygon, gl.white_side), (gl.black_polygon, gl.black_side)):
            s, t = placed[pid].sides[idx], net.transforms[pid]
            mid = _between(t.apply(s.start), t.apply(s.end), Fraction(1, 2))
            yield [centers[pid], _between(mid, centers[pid], pull)]

    for e in sorted(g.blue_edges(), key=lambda e: e.id):
        for arc in arcs(e.id, Fraction(0)):
            scene.polyline(arc, BLUE_EDGE, 0.04)
    # a parallel double outside the red edge's face joins the same ends,
    # so the partner is looked up among the face's own sides
    emap, faces = g.edge_map(), trace_faces(g)
    partner = {rid: next((eid for eid in faces.faces[fid].edge_ids()
                          if {emap[eid].a, emap[eid].b} == {emap[rid].a, emap[rid].b}), None)
               for fid, reds in faces.contained_reds.items() for rid in reds}
    for rid, eid in sorted(partner.items()):
        if eid is None:
            continue
        for arc in arcs(eid, Fraction(1, 5)):
            scene.polyline(arc, RED_EDGE, 0.03)

