"""The unfolded net of a realized surface, laid out for rendering.

Black charts are mirrored once, restoring their unfolded shape, and the
polygons are placed edge to edge along the frame's spanning tree by
proper isometries: rotations by sixth turns plus translations, all on the
integer grid.  ``geometry`` develops the folded surface the net starts
from, and its ``develop_net`` is this module's.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .emg import WHITE
from .geometry import GluingError, SideRecord
from .grid import ORIGIN, GridPoint, direction

if TYPE_CHECKING:
    from .geometry import RealizedSurface


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


def develop_net(surface: RealizedSurface) -> NetLayout:
    """Lay the polygons out edge-to-edge with orientation-preserving maps.

    Black charts are mirrored once, restoring their unfolded shape, and
    every gluing along the frame's spanning tree becomes a rotation by
    sixth turns plus a translation; shared tree edges coincide exactly.
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

    points = {pid: tuple(map(transforms[pid].apply, ch.chain)) for pid, ch in placed.items()}
    return NetLayout(transforms, points)
