"""Polygon boundaries and direction labels.

Each vertex of the multigraph stands for a convex polygon with interior
angles of one or two sixth turns.  This module recovers the boundary
structure (side order, acute/obtuse corners, embedding into the six slots
of a hexagon frame) and then assigns every blue edge a direction exponent
e, meaning the unit direction at angle e*pi/3, by propagating turning
constraints around polygons and across shared edges.

Orientation convention, fixed once: in the folded plane, white polygons are
traversed with their interior on the left (counterclockwise) and black
polygons with their interior on the right.  The stored exponent of an edge
is its direction as traversed by its white-side polygon; the black side
traverses the same edge in the opposite direction (exponent + 3).
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

from .emg import WHITE, EnhancedMultigraph, FaceSet, InputError, InvariantError, trace_faces

ACUTE = "acute"
OBTUSE = "obtuse"

# interior angle in units of pi/3
CORNER_UNITS = {ACUTE: 1, OBTUSE: 2}


class BoundaryError(InvariantError):
    """Polygon boundary structure inconsistent with a nice polygon."""


class HolonomyError(InvariantError):
    """Label propagation assigned two different exponents to one edge."""


class PolygonBoundary(NamedTuple):
    vertex_id: int
    color: str
    sides: tuple[int, ...]        # blue edge ids in boundary (rotation) order
    corners: tuple[str, ...]      # corner after side i: "acute" | "obtuse"
    corner_faces: tuple[int, ...]  # blue face id owning the corner after side i
    slots: tuple[int, ...]        # hexagon-frame slot of side i

    @property
    def n_sides(self) -> int:
        return len(self.sides)


def polygon_boundaries(g: EnhancedMultigraph, faces: FaceSet | None = None) -> list[PolygonBoundary]:
    """Boundary structure of every polygon, sorted by vertex id; ``faces``
    is ``trace_faces(g)``, traced here when not given.  The sides are the
    blue darts, read as the keys of ``faces.corner_owner``.

    The corner between consecutive blue darts is acute exactly when one red
    dart lies between them in the rotation, as ``faces.red_corners``
    records it; two or more is a structural error.  The one counting rule is k + n_acute == 6 for k sides: it is
    the interior angle sum of a convex k-gon in sixth turns (2k - n_acute
    == 3(k - 2)), and it makes the slot walk fill the six slots.  Slots walk
    the corner sequence, skipping one empty slot at each acute corner,
    anchored for determinism at a side flanked by two acute corners when
    one exists, else at the smallest edge id.
    """
    if faces is None:
        faces = trace_faces(g)
    corner_of = faces.corner_owner
    red_corners = faces.red_corners
    vmap = g.vertex_map()
    out = []
    for vid, rot in sorted(g.rotations):
        darts = [d for d in rot if d in corner_of]  # the blue darts
        if not darts:
            raise BoundaryError(f"vertex {vid} has no blue sides")
        k = len(darts)
        corners = []
        for d in darts:
            n_red = len(red_corners[d]) - 2 if d in red_corners else 0
            if n_red == 0:
                corners.append(OBTUSE)
            elif n_red == 1:
                corners.append(ACUTE)
            else:
                raise BoundaryError(f"vertex {vid}: corner after side {d} holds {n_red} red darts")
        n_acute = corners.count(ACUTE)
        if k + n_acute != 6:
            raise BoundaryError(f"vertex {vid}: {k} sides and {n_acute} acute corners do not fill 6 slots")

        side_edges = [d[0] for d in darts]
        start = _anchor_index(side_edges, corners)
        darts = darts[start:] + darts[:start]
        side_edges = side_edges[start:] + side_edges[:start]
        corners = corners[start:] + corners[:start]

        slots = []
        slot = 0
        for j in range(k):
            slots.append(slot)
            slot += 2 if corners[j] == ACUTE else 1

        out.append(PolygonBoundary(vid, vmap[vid].color, tuple(side_edges),
                                   tuple(corners), tuple(corner_of[d] for d in darts),
                                   tuple(slots)))
    return out


def _anchor_index(side_edges: list[int], corners: list[str]) -> int:
    k = len(side_edges)
    flanked = [j for j in range(k) if corners[j - 1] == ACUTE and corners[j % k] == ACUTE]
    candidates = flanked if flanked else range(k)
    return min(candidates, key=lambda j: side_edges[j])


class LabelMap(NamedTuple):
    """Direction exponents mod 6 by blue edge id, in ascending id order,
    and the (vertex id, edge id) flag anchored at exponent 0."""
    exponents: dict[int, int]
    seed: tuple[int, int]


def assign_labels(g: EnhancedMultigraph, boundaries: list[PolygonBoundary],
                  seed_flag: tuple[int, int] | None = None) -> LabelMap:
    """Propagate direction exponents to every blue edge.

    Within a polygon the exponent of the side at slot j is c + j for white
    polygons and c - j for black ones (mod 6, for a per-polygon constant c);
    consecutive sides then differ by exactly the exterior turn at the corner
    between them, and the two polygons of an edge traverse it in opposite
    directions.  Breadth-first propagation from the seed flag; a conflict
    raises HolonomyError, and a seed flag that is not an incident
    (vertex, edge) pair InputError.
    """
    by_vertex = {b.vertex_id: b for b in boundaries}
    if seed_flag is None:
        whites = sorted(b.vertex_id for b in boundaries if b.color == WHITE)
        anchor = whites[0] if whites else boundaries[0].vertex_id
        seed_flag = (anchor, min(by_vertex[anchor].sides))
    seed_vid, seed_eid = seed_flag
    if seed_vid not in by_vertex or seed_eid not in by_vertex[seed_vid].sides:
        raise InputError(f"seed flag {seed_flag} is not an incident (vertex, edge) pair")

    # map each edge to its two incident (vertex, slot, sign) records
    incidences: dict[int, list[tuple[int, int, int]]] = {}
    for b in boundaries:
        sign = 1 if b.color == WHITE else -1
        for eid, slot in zip(b.sides, b.slots):
            incidences.setdefault(eid, []).append((b.vertex_id, slot, sign))

    constants: dict[int, int] = {}
    exponents: dict[int, int] = {}
    b0 = by_vertex[seed_vid]
    sign0 = 1 if b0.color == WHITE else -1
    constants[seed_vid] = (-sign0 * b0.slots[b0.sides.index(seed_eid)]) % 6
    queue = deque([seed_vid])
    while queue:
        vid = queue.popleft()
        b = by_vertex[vid]
        sign = 1 if b.color == WHITE else -1
        # each side at its own slot, so an edge the polygon lists twice meets the edge check
        for eid, slot in zip(b.sides, b.slots):
            exp = (constants[vid] + sign * slot) % 6
            if eid in exponents:
                if exponents[eid] != exp:
                    raise HolonomyError(
                        f"edge {eid} receives exponents {exponents[eid]} and {exp}")
            else:
                exponents[eid] = exp
            for (ovid, oslot, osign) in incidences[eid]:
                if ovid == vid:
                    continue
                c = (exp - osign * oslot) % 6
                if ovid in constants:
                    if constants[ovid] != c:
                        raise HolonomyError(
                            f"polygon {ovid} receives frame constants {constants[ovid]} and {c}")
                else:
                    constants[ovid] = c
                    queue.append(ovid)

    missing = [b.vertex_id for b in boundaries if b.vertex_id not in constants]
    if missing:
        raise HolonomyError(f"label propagation never reached polygons {missing}")
    return LabelMap(dict(sorted(exponents.items())), seed_flag)
