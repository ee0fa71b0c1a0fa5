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

from typing import NamedTuple

from .emg import BLUE, WHITE, EnhancedMultigraph, trace_faces

ACUTE = "acute"
OBTUSE = "obtuse"

# interior angle in units of pi/3
CORNER_UNITS = {ACUTE: 1, OBTUSE: 2}


class BoundaryError(ValueError):
    """Polygon boundary structure inconsistent with a nice polygon."""


class HolonomyError(ValueError):
    """Label propagation assigned two different exponents to one edge."""


class PolygonBoundary(NamedTuple):
    vertex_id: int
    color: str
    sides: tuple[int, ...]        # blue edge ids in boundary (rotation) order
    side_darts: tuple[tuple[int, int], ...]
    corners: tuple[str, ...]      # corner after side i: "acute" | "obtuse"
    corner_faces: tuple[int, ...]  # blue face id owning the corner after side i
    slots: tuple[int, ...]        # hexagon-frame slot of side i

    @property
    def n_sides(self) -> int:
        return len(self.sides)

    def slot_of(self, edge_id: int) -> int:
        return self.slots[self.sides.index(edge_id)]


def polygon_boundaries(g: EnhancedMultigraph) -> list[PolygonBoundary]:
    """Boundary structure of every polygon, sorted by vertex id.

    The corner between consecutive blue darts is acute exactly when one red
    dart lies between them in the rotation; two or more is a structural
    error.  Slots walk the corner sequence, skipping one empty slot at each
    acute corner, anchored for determinism at a side flanked by two acute
    corners when one exists, else at the smallest edge id.
    """
    corner_of = trace_faces(g).face_of_corner()
    emap = g.edge_map()
    vmap = g.vertex_map()
    out = []
    for vid, rot in sorted(g.rotations):
        blue_pos = [i for i, d in enumerate(rot) if emap[d[0]].color == BLUE]
        if not blue_pos:
            raise BoundaryError(f"vertex {vid} has no blue sides")
        n = len(rot)
        k = len(blue_pos)
        corners = []
        for j in range(k):
            lo, hi = blue_pos[j], blue_pos[(j + 1) % k]
            gap = (hi - lo) % n if k > 1 else n
            n_red = gap - 1 if k > 1 else n - 1
            if n_red == 0:
                corners.append(OBTUSE)
            elif n_red == 1:
                corners.append(ACUTE)
            else:
                raise BoundaryError(f"vertex {vid}: corner after side {rot[lo]} holds {n_red} red darts")
        n_acute = corners.count(ACUTE)
        if k + n_acute != 6:
            raise BoundaryError(f"vertex {vid}: {k} sides and {n_acute} acute corners do not fill 6 slots")
        # interior angle sum of a convex k-gon, in units of pi/3
        if n_acute * 1 + (k - n_acute) * 2 != 3 * (k - 2):
            raise BoundaryError(f"vertex {vid}: interior angles inconsistent with a convex {k}-gon")

        darts = [rot[i] for i in blue_pos]
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
        if slot != 6:
            raise BoundaryError(f"vertex {vid}: slot walk advances {slot} slots, expected 6")

        faces = tuple(corner_of[d] for d in darts)
        out.append(PolygonBoundary(vid, vmap[vid].color, tuple(side_edges),
                                   tuple(darts), tuple(corners), faces, tuple(slots)))
    return out


def _anchor_index(side_edges: list[int], corners: list[str]) -> int:
    k = len(side_edges)
    flanked = [j for j in range(k) if corners[j - 1] == ACUTE and corners[j % k] == ACUTE]
    candidates = flanked if flanked else range(k)
    return min(candidates, key=lambda j: side_edges[j])


class LabelMap(NamedTuple):
    exponents: tuple[tuple[int, int], ...]  # blue edge id -> direction exponent mod 6
    seed: tuple[int, int]                    # (vertex id, edge id) used as the zero anchor

    def exponent_map(self) -> dict[int, int]:
        return dict(self.exponents)


def assign_labels(g: EnhancedMultigraph, boundaries: list[PolygonBoundary],
                  seed_flag: tuple[int, int] | None = None) -> LabelMap:
    """Propagate direction exponents to every blue edge.

    Within a polygon the exponent of the side at slot j is c + j for white
    polygons and c - j for black ones (mod 6, for a per-polygon constant c);
    consecutive sides then differ by exactly the exterior turn at the corner
    between them, and the two polygons of an edge traverse it in opposite
    directions.  Breadth-first propagation from the seed flag; a conflict
    raises HolonomyError.
    """
    by_vertex = {b.vertex_id: b for b in boundaries}
    if seed_flag is None:
        whites = sorted(b.vertex_id for b in boundaries if b.color == WHITE)
        anchor = whites[0] if whites else boundaries[0].vertex_id
        seed_flag = (anchor, min(by_vertex[anchor].sides))
    seed_vid, seed_eid = seed_flag
    if seed_vid not in by_vertex or seed_eid not in by_vertex[seed_vid].sides:
        raise ValueError(f"seed flag {seed_flag} is not an incident (vertex, edge) pair")

    # map each edge to its two incident (vertex, slot, sign) records
    incidences: dict[int, list[tuple[int, int, int]]] = {}
    for b in boundaries:
        sign = 1 if b.color == WHITE else -1
        for eid, slot in zip(b.sides, b.slots):
            incidences.setdefault(eid, []).append((b.vertex_id, slot, sign))

    constants: dict[int, int] = {}
    exponents: dict[int, int] = {}

    def polygon_exponent(vid: int, eid: int) -> int:
        b = by_vertex[vid]
        sign = 1 if b.color == WHITE else -1
        return (constants[vid] + sign * b.slot_of(eid)) % 6

    b0 = by_vertex[seed_vid]
    sign0 = 1 if b0.color == WHITE else -1
    constants[seed_vid] = (-sign0 * b0.slot_of(seed_eid)) % 6
    queue = [seed_vid]
    while queue:
        vid = queue.pop(0)
        b = by_vertex[vid]
        for eid in b.sides:
            exp = polygon_exponent(vid, eid)
            if eid in exponents:
                if exponents[eid] != exp:
                    raise HolonomyError(
                        f"edge {eid} receives exponents {exponents[eid]} and {exp}")
            else:
                exponents[eid] = exp
            for (ovid, slot, sign) in incidences[eid]:
                if ovid == vid:
                    continue
                c = (exp - sign * slot) % 6
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
    return LabelMap(tuple(sorted(exponents.items())), seed_flag)
