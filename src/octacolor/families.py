"""Procedural families of enhanced multigraphs, plus bundled instances.

The spiral family starts from a cell division of the sphere into
quadrilaterals built by wrapping squares around a seed square, one corner
at a time.  The wrap order gives a clean combinatorial description: on
vertices 0..2k-1 the blue skeleton consists of the path edges (v, v+1) and
the chord edges (v, v-3).  Every completion to a full instance adds six
parallel blue edges (each creating one bigon, the six cone points) and one
red edge per quadrilateral, marking its acute corners.

The completion is built in closed form.  For k >= 5 it is periodic in k:
fixed red edges and doubles near the seed square and near the last wrap
step, and the chord (2j+3, 2j) as red edge of both quadrilaterals of each
step in between.  k = 3 and k = 4 are too short for that pattern and are
given as literal tables.  Every result still passes the full validation
gate (plausibility, a consistent direction labelling, kernel dimension
four, and a strictly positive solution); a completion that fails it
raises ConstructionError rather than returning an unvalidated variant.
The closed form reproduces, byte for byte, the first completion in
canonical order of the backtracking search it replaced; that search is
kept in tests/spiral_search.py as the oracle tests compare against.
"""

from __future__ import annotations

import os
from functools import lru_cache

from .emg import (BLACK, BLUE, RED, WHITE, Dart, Edge, EnhancedMultigraph,
                  Vertex, check_well_formed, opposite, parse_emg, trace_faces)
from .pipeline import Instance


class ConstructionError(RuntimeError):
    """No validated completion exists for the requested family member."""


# ---------------------------------------------------------------------------
# spiral quadrangulation

def _spiral_cell(k: int) -> EnhancedMultigraph:
    """Blue skeleton of the spiral cell division on 2k vertices.

    Square 0-1-2-3, then wrap step s (s = 0..2k-5) walls vertex s in behind
    a new quadrilateral (s+1, s, s+3, s+4), adding vertex s+4 and the edges
    (s+3, s+4), (s+4, s+1).  Rotations are maintained so the result is the
    oriented sphere embedding.
    """
    n = 2 * k
    edges: list[Edge] = [Edge(0, 0, 1, BLUE), Edge(1, 1, 2, BLUE), Edge(2, 2, 3, BLUE), Edge(3, 3, 0, BLUE)]
    edge_at: dict[frozenset, int] = {frozenset((0, 1)): 0, frozenset((1, 2)): 1,
                                     frozenset((2, 3)): 2, frozenset((3, 0)): 3}

    def dart_from(v: int, w: int) -> Dart:
        e = edges[edge_at[frozenset((v, w))]]
        return (e.id, 0 if e.a == v else 1)

    rot: dict[int, list[Dart]] = {
        0: [dart_from(0, 1), dart_from(0, 3)],
        1: [dart_from(1, 2), dart_from(1, 0)],
        2: [dart_from(2, 3), dart_from(2, 1)],
        3: [dart_from(3, 0), dart_from(3, 2)],
    }
    for s in range(2 * k - 4):
        x, p, q, new = s, s + 3, s + 1, s + 4
        e_pn = Edge(len(edges), p, new, BLUE)
        edges.append(e_pn)
        edge_at[frozenset((p, new))] = e_pn.id
        e_nq = Edge(len(edges), new, q, BLUE)
        edges.append(e_nq)
        edge_at[frozenset((new, q))] = e_nq.id

        at_p = rot[p].index(dart_from(p, x))
        rot[p].insert(at_p + 1, dart_from(p, new))
        at_q = rot[q].index(dart_from(q, x))
        rot[q].insert(at_q, dart_from(q, new))
        rot[new] = [dart_from(new, q), dart_from(new, p)]

    vertices = tuple(Vertex(v, WHITE if v % 2 == 0 else BLACK) for v in range(n))
    g = EnhancedMultigraph(vertices, tuple(edges),
                           tuple((v, tuple(rot[v])) for v in range(n)))
    check_well_formed(g)
    return g


# ---------------------------------------------------------------------------
# completion and its validation gate

def _is_nice(g: EnhancedMultigraph) -> bool:
    inst = Instance(g)
    if not inst.validation.plausible:
        return False
    try:
        inst.labels
    except ValueError:  # BoundaryError or HolonomyError
        return False
    if inst.kernel.dimension != 4 or inst.kernel.rank != inst.system.n_cols - 4:
        return False
    return bool(inst.cone.has_positive_point)


# k = 3 and k = 4 are too short for the periodic pattern of _spiral_completion.
_SMALL_COMPLETIONS = {
    3: ([(0, 1), (0, 1), (1, 2), (2, 3)],
        [((3, 0), 0)] * 2 + [((4, 5), 2)] * 3 + [((5, 2), 2)]),
    4: ([(0, 1), (0, 1), (1, 2), (5, 2), (6, 7), (4, 5)],
        [((3, 0), 0)] * 2 + [((5, 2), 2)] + [((6, 7), 4)] * 2 + [((7, 4), 4)]),
}


def _spiral_completion(k: int):
    """Closed-form completion of the spiral cell on n = 2k vertices.

    Returns the red edge of each face, in face order, and the (edge, face
    side) of each of the six parallel doubles; edges are given by their
    endpoints and faces by their index in the blue face trace of the cell.
    Fixed edges near the seed square and near the last wrap step frame
    the middle, where faces 2j and 2j+1 both take the chord (2j+3, 2j).
    """
    if k in _SMALL_COMPLETIONS:
        return _SMALL_COMPLETIONS[k]
    n = 2 * k
    middle = [(2 * (f // 2) + 3, 2 * (f // 2)) for f in range(4, n - 6)]
    reds = [(0, 1), (0, 1), (1, 2), (5, 2), *middle,
            (n - 4, n - 3), (n - 3, n - 6), (n - 2, n - 1), (n - 2, n - 1)]
    doubles = [((3, 0), 0), ((3, 0), 0), ((5, 2), 2), ((n - 3, n - 6), n - 6),
               ((n - 2, n - 1), n - 4), ((n - 1, n - 4), n - 4)]
    return reds, doubles


def _apply_completion(cell: EnhancedMultigraph, faces, red_choice: dict[int, int],
                      doubles: list[tuple[int, int]]) -> EnhancedMultigraph:
    """Insert parallel blue doubles and per-face red edges into the cell.

    A double of edge e on the side of face F slips in next to e, making a
    bigon; the red edge of F attaches beyond the outermost copy on F's
    side, so its darts stay adjacent to the blue edge bounding the final
    quadrilateral.
    """
    emap = cell.edge_map()
    corner_owner = faces.face_of_corner()
    out_face: dict[Dart, int] = {}
    for f in faces.faces:
        for d in f.darts:
            out_face[d] = f.id

    after: dict[Dart, list[Dart]] = {}
    before: dict[Dart, list[Dart]] = {}
    new_edges: list[Edge] = []
    next_id = max(emap) + 1

    def attach(eid: int, fid: int, new_dart_maker):
        e = emap[eid]
        for end, vid in ((0, e.a), (1, e.b)):
            d = (eid, end)
            new_dart = new_dart_maker(end)
            if corner_owner[d] == fid:
                after.setdefault(d, []).append(new_dart)
            elif out_face[d] == fid:
                before.setdefault(d, []).insert(0, new_dart)
            else:
                raise ConstructionError(f"face {fid} is not a side of edge {eid}")

    for eid, fid in sorted(doubles):
        copy = Edge(next_id, emap[eid].a, emap[eid].b, BLUE)
        next_id += 1
        new_edges.append(copy)
        attach(eid, fid, lambda end, cid=copy.id: (cid, end))
    for fid in sorted(red_choice):
        eid = red_choice[fid]
        red = Edge(next_id, emap[eid].a, emap[eid].b, RED)
        next_id += 1
        new_edges.append(red)
        attach(eid, fid, lambda end, rid=red.id: (rid, end))

    rotations = []
    for vid, rot in cell.rotations:
        new_rot: list[Dart] = []
        for d in rot:
            new_rot.extend(before.get(d, []))
            new_rot.append(d)
            new_rot.extend(after.get(d, []))
        rotations.append((vid, tuple(new_rot)))

    g = EnhancedMultigraph(cell.vertices, cell.edges + tuple(new_edges), tuple(rotations))
    check_well_formed(g)
    return g


@lru_cache(maxsize=None)
def gen_spiral(k: int) -> EnhancedMultigraph:
    """Spiral family member on 2k polygons; deterministic for each k.

    Completes the spiral cell with the closed-form red edges and doubles
    of _spiral_completion, then runs the full validation gate; raises
    ConstructionError when the completion fails it, rather than inventing
    a variant.
    """
    if k < 3:
        raise ValueError("spiral parameter must be at least 3")
    cell = _spiral_cell(k)
    faces = trace_faces(cell)  # face ids are trace order
    edge_at = {frozenset(e.endpoints): e.id for e in cell.edges}
    reds, doubles = _spiral_completion(k)
    g = _apply_completion(cell, faces,
                          {f: edge_at[frozenset(pair)] for f, pair in enumerate(reds)},
                          [(edge_at[frozenset(pair)], f) for pair, f in doubles])
    if not _is_nice(g):
        raise ConstructionError(f"spiral k={k} completion fails the validation gate")
    return g


# ---------------------------------------------------------------------------
# bundled instances

_BUNDLED = {
    "hexagon-pair": "hexagon-pair.emg",
    "spiral-6": "spiral-6.emg",
    "spiral-8": "spiral-8.emg",
    "spiral-10": "spiral-10.emg",
}


def bundled_names() -> list[str]:
    return sorted(_BUNDLED)


def load_bundled(name: str) -> EnhancedMultigraph:
    """Parse one of the instances shipped with the package."""
    if name not in _BUNDLED:
        raise KeyError(f"unknown bundled instance {name!r}; known: {bundled_names()}")
    path = os.path.join(os.path.dirname(__file__), "data", _BUNDLED[name])
    with open(path, encoding="utf-8") as fh:
        return parse_emg(fh.read())


# ---------------------------------------------------------------------------
# orientation-preserving isomorphism (for registry checks)

def isomorphic(g1: EnhancedMultigraph, g2: EnhancedMultigraph) -> bool:
    """Color- and orientation-preserving isomorphism of embedded multigraphs."""
    if len(g1.edges) != len(g2.edges) or len(g1.vertices) != len(g2.vertices):
        return False
    return _canonical_certificate(g1) == _canonical_certificate(g2)


def _canonical_certificate(g: EnhancedMultigraph):
    return min(_certificate(g, (e.id, end)) for e in g.edges for end in (0, 1))


def _certificate(g: EnhancedMultigraph, start: Dart):
    emap = g.edge_map()
    vmap = g.vertex_map()
    succ: dict[Dart, Dart] = {}
    for vid, rot in g.rotations:
        for i, d in enumerate(rot):
            succ[d] = rot[(i + 1) % len(rot)]
    index: dict[Dart, int] = {start: 0}
    order = [start]
    pos = 0
    while pos < len(order):
        d = order[pos]
        for nxt in (succ[d], opposite(d)):
            if nxt not in index:
                index[nxt] = len(order)
                order.append(nxt)
        pos += 1
    cert = []
    for d in order:
        e = emap[d[0]]
        cert.append((index[succ[d]], index[opposite(d)], e.color, vmap[e.endpoint(d[1])].color))
    return tuple(cert)
