"""Enhanced multigraphs: data model, file format, face tracing, validation.

An enhanced multigraph is an embedded planar red/blue multigraph given by a
rotation system: at every vertex, the counterclockwise cyclic order of edge
ends (darts) in the oriented sphere.  Vertices carry the black/white colour
of the polygon they stand for; blue edges are polygon sides, red edges mark
the acute corners of quadrilateral regions.

File format (UTF-8, line based, ``#`` comments)::

    vertex <id> <B|W>
    edge <id> <vidA> <vidB> <blue|red>
    rot <vid> (<eid>:<0|1>)+

The rotation line lists every dart at the vertex in counterclockwise order.
The canonical serializer emits vertices, edges and rotations in ascending id
order, one record per line.
"""

from __future__ import annotations

from typing import NamedTuple

Dart = tuple[int, int]  # (edge id, end index 0|1)

BLACK = "black"
WHITE = "white"
BLUE = "blue"
RED = "red"


class EmgError(ValueError):
    """Structural or syntax error in an enhanced multigraph."""


class Vertex(NamedTuple):
    id: int
    color: str  # "black" | "white"


class Edge(NamedTuple):
    id: int
    a: int
    b: int
    color: str  # "blue" | "red"

    def endpoint(self, end: int) -> int:
        return self.a if end == 0 else self.b

    @property
    def endpoints(self) -> tuple[int, int]:
        return (self.a, self.b)


class EnhancedMultigraph(NamedTuple):
    vertices: tuple[Vertex, ...]
    edges: tuple[Edge, ...]
    rotations: tuple[tuple[int, tuple[Dart, ...]], ...]

    def vertex_map(self) -> dict[int, Vertex]:
        return {v.id: v for v in self.vertices}

    def edge_map(self) -> dict[int, Edge]:
        return {e.id: e for e in self.edges}

    def rotation_map(self) -> dict[int, tuple[Dart, ...]]:
        return {vid: rot for vid, rot in self.rotations}

    def blue_edges(self) -> list[Edge]:
        return [e for e in self.edges if e.color == BLUE]

    def red_edges(self) -> list[Edge]:
        return [e for e in self.edges if e.color == RED]


def opposite(dart: Dart) -> Dart:
    return (dart[0], 1 - dart[1])


def check_well_formed(g: EnhancedMultigraph) -> None:
    """Raise EmgError unless ids resolve and every dart sits in exactly one
    rotation, at the vertex matching its endpoint."""
    vmap = g.vertex_map()
    emap = g.edge_map()
    if len(vmap) != len(g.vertices):
        raise EmgError("duplicate vertex id")
    if len(emap) != len(g.edges):
        raise EmgError("duplicate edge id")
    for e in g.edges:
        for vid in (e.a, e.b):
            if vid not in vmap:
                raise EmgError(f"edge {e.id} references unknown vertex {vid}")
        if e.color not in (BLUE, RED):
            raise EmgError(f"edge {e.id} has unknown color {e.color!r}")
    for v in g.vertices:
        if v.color not in (BLACK, WHITE):
            raise EmgError(f"vertex {v.id} has unknown color {v.color!r}")
    rot_of = g.rotation_map()
    if len(rot_of) != len(g.rotations):
        raise EmgError("duplicate rotation vertex id")
    if set(rot_of) != set(vmap):
        missing = set(vmap) - set(rot_of)
        extra = set(rot_of) - set(vmap)
        raise EmgError(f"rotations do not match vertices (missing {sorted(missing)}, extra {sorted(extra)})")
    seen: set[Dart] = set()
    for vid, rot in g.rotations:
        for dart in rot:
            eid, end = dart
            if eid not in emap or end not in (0, 1):
                raise EmgError(f"rotation at vertex {vid} names unknown dart {dart}")
            if emap[eid].endpoint(end) != vid:
                raise EmgError(f"dart {dart} listed at vertex {vid} but belongs to vertex {emap[eid].endpoint(end)}")
            if dart in seen:
                raise EmgError(f"dart {dart} appears in more than one rotation slot")
            seen.add(dart)
    expected = {(e.id, end) for e in g.edges for end in (0, 1)}
    if seen != expected:
        missing = expected - seen
        raise EmgError(f"darts missing from rotations: {sorted(missing)}")


# ---------------------------------------------------------------------------
# text format

_VERTEX_TOKEN = {"B": BLACK, "W": WHITE}
_VERTEX_CHAR = {BLACK: "B", WHITE: "W"}


def parse_emg(text: str) -> EnhancedMultigraph:
    """Parse the EMG text format; raises EmgError with line/column info."""
    vertices: list[Vertex] = []
    edges: list[Edge] = []
    rotations: list[tuple[int, tuple[Dart, ...]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        kind = fields[0]
        try:
            if kind == "vertex":
                if len(fields) != 3 or fields[2] not in _VERTEX_TOKEN:
                    raise EmgError(f"line {lineno}: expected 'vertex <id> <B|W>'")
                vertices.append(Vertex(int(fields[1]), _VERTEX_TOKEN[fields[2]]))
            elif kind == "edge":
                if len(fields) != 5 or fields[4] not in (BLUE, RED):
                    raise EmgError(f"line {lineno}: expected 'edge <id> <vidA> <vidB> <blue|red>'")
                edges.append(Edge(int(fields[1]), int(fields[2]), int(fields[3]), fields[4]))
            elif kind == "rot":
                if len(fields) < 3:
                    raise EmgError(f"line {lineno}: expected 'rot <vid> <eid>:<end>...'")
                vid = int(fields[1])
                darts = []
                for col, tok in enumerate(fields[2:], start=3):
                    if ":" not in tok:
                        raise EmgError(f"line {lineno}, field {col}: dart must be '<eid>:<end>'")
                    eid_s, end_s = tok.split(":", 1)
                    eid, end = int(eid_s), int(end_s)
                    if end not in (0, 1):
                        raise EmgError(f"line {lineno}, field {col}: dart end must be 0 or 1")
                    darts.append((eid, end))
                rotations.append((vid, tuple(darts)))
            else:
                raise EmgError(f"line {lineno}: unknown record {kind!r}")
        except ValueError as exc:
            if isinstance(exc, EmgError):
                raise
            raise EmgError(f"line {lineno}: bad integer in {line!r}") from None
    ids = [v.id for v in vertices]
    if any(i < 0 for i in ids) or any(e.id < 0 for e in edges):
        raise EmgError("ids must be nonnegative")
    g = EnhancedMultigraph(tuple(vertices), tuple(edges), tuple(rotations))
    check_well_formed(g)
    return g


def render_emg(g: EnhancedMultigraph) -> str:
    """Canonical serializer: ascending ids, one record per line."""
    lines = []
    for v in sorted(g.vertices, key=lambda v: v.id):
        lines.append(f"vertex {v.id} {_VERTEX_CHAR[v.color]}")
    for e in sorted(g.edges, key=lambda e: e.id):
        lines.append(f"edge {e.id} {e.a} {e.b} {e.color}")
    for vid, rot in sorted(g.rotations):
        darts = " ".join(f"{eid}:{end}" for eid, end in rot)
        lines.append(f"rot {vid} {darts}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# face tracing

class Face(NamedTuple):
    id: int
    darts: tuple[Dart, ...]  # outgoing darts along the facial walk

    @property
    def kind(self) -> str:
        if len(self.darts) == 2:
            return "bigon"
        if len(self.darts) == 4:
            return "quadrilateral"
        return "other"

    def edge_ids(self) -> tuple[int, ...]:
        return tuple(d[0] for d in self.darts)


class FaceSet(NamedTuple):
    faces: tuple[Face, ...]
    corner_owner: tuple[tuple[Dart, int], ...]  # dart -> face owning the corner ccw-after it
    euler_characteristic: int
    contained_reds: tuple[tuple[int, tuple[int, ...]], ...]  # face id -> red edge ids inside

    def face_of_corner(self) -> dict[Dart, int]:
        return dict(self.corner_owner)

    def reds_in_face(self) -> dict[int, tuple[int, ...]]:
        return dict(self.contained_reds)

    def by_kind(self, kind: str) -> list[Face]:
        return [f for f in self.faces if f.kind == kind]


def trace_faces(g: EnhancedMultigraph) -> FaceSet:
    """Faces of the embedding restricted to its blue edges.

    The facial walk leaves a vertex by a dart, crosses to the dart's other
    end, and turns to the next blue dart counterclockwise.  Orbits of this
    rule partition the blue darts; each orbit is one face.  A red edge lies
    in a face when the blue darts clockwise-before both its ends open
    corners of that face.
    """
    emap = g.edge_map()
    keep = {eid for eid, e in emap.items() if e.color == BLUE}
    succ: dict[Dart, Dart] = {}
    for vid, rot in g.rotations:
        filtered = [d for d in rot if d[0] in keep]
        for i, d in enumerate(filtered):
            succ[d] = filtered[(i + 1) % len(filtered)]

    def next_dart(d: Dart) -> Dart:
        return succ[opposite(d)]

    faces: list[Face] = []
    owner: dict[Dart, int] = {}
    visited: set[Dart] = set()
    for start in sorted(succ):
        if start in visited:
            continue
        cycle = []
        d = start
        while True:
            cycle.append(d)
            visited.add(d)
            d = next_dart(d)
            if d == start:
                break
        fid = len(faces)
        faces.append(Face(fid, tuple(cycle)))
        for out in cycle:
            # the walk arrives at the far vertex via opposite(out) and uses
            # the corner counterclockwise-after that arrival dart
            owner[opposite(out)] = fid

    active_vertices = {emap[eid].endpoint(end) for eid, end in succ}
    euler = len(active_vertices) - len(keep) + len(faces)

    rot_of = g.rotation_map()
    per_face: dict[int, list[int]] = {f.id: [] for f in faces}
    for e in g.red_edges():
        owners = []
        for end in (0, 1):
            dart = (e.id, end)
            vid = emap[e.id].endpoint(end)
            rot = rot_of[vid]
            pos = rot.index(dart)
            prev_blue = None
            for step in range(1, len(rot) + 1):
                cand = rot[(pos - step) % len(rot)]
                if cand[0] in keep:
                    prev_blue = cand
                    break
            if prev_blue is None:
                owners = []
                break
            owners.append(owner[prev_blue])
        if len(owners) == 2 and owners[0] == owners[1]:
            per_face[owners[0]].append(e.id)
    contained = tuple((fid, tuple(sorted(eids))) for fid, eids in sorted(per_face.items()) if eids)

    return FaceSet(tuple(faces), tuple(sorted(owner.items())), euler, contained)


# ---------------------------------------------------------------------------
# validation

class Finding(NamedTuple):
    rule: str
    severity: str  # "error" | "info"
    message: str


class ValidationReport(NamedTuple):
    plausible: bool
    findings: tuple[Finding, ...]
    counts: dict

    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == "error"]


RULE_DEGREE = "degree-six"
RULE_BLUE_FACES = "blue-faces"
RULE_RED_PLACEMENT = "red-placement"
RULE_EULER = "euler"
RULE_BIPARTITE = "bipartite"
RULE_RED_COUNT = "red-count"


def validate_plausible(g: EnhancedMultigraph) -> ValidationReport:
    """Check the axioms for a plausible multigraph, plus derived identities.

    Failures are reported as findings, never raised; the report is complete
    rather than first-failure.
    """
    findings: list[Finding] = []
    emap = g.edge_map()
    vmap = g.vertex_map()
    rot_of = g.rotation_map()

    blue = g.blue_edges()
    red = g.red_edges()
    n_v = len(g.vertices)
    n_blue = len(blue)
    n_red = len(red)

    # (a) total degree six at every vertex
    for vid in sorted(rot_of):
        deg = len(rot_of[vid])
        if deg != 6:
            findings.append(Finding(RULE_DEGREE, "error", f"vertex {vid} has degree {deg}, expected 6"))

    # (b) blue faces: exactly 6 bigons, all other faces quadrilaterals
    blue_faces = trace_faces(g)
    bigons = blue_faces.by_kind("bigon")
    quads = blue_faces.by_kind("quadrilateral")
    others = blue_faces.by_kind("other")
    if len(bigons) != 6:
        findings.append(Finding(RULE_BLUE_FACES, "error", f"blue trace has {len(bigons)} bigons, expected 6"))
    for f in others:
        findings.append(Finding(RULE_BLUE_FACES, "error", f"blue face {f.id} has {len(f.darts)} sides, expected 2 or 4"))
    if blue_faces.euler_characteristic != 2 and n_blue:
        findings.append(Finding(RULE_BLUE_FACES, "error",
                                f"blue trace has Euler characteristic {blue_faces.euler_characteristic}, expected 2"))

    # (c) one red edge per quadrilateral, parallel to a boundary blue edge,
    #     with its darts tucked against that edge inside the quadrilateral
    reds_in = blue_faces.reds_in_face()
    placed_reds: set[int] = set()
    for f in quads:
        inside = reds_in.get(f.id, ())
        placed_reds.update(inside)
        if len(inside) != 1:
            findings.append(Finding(RULE_RED_PLACEMENT, "error",
                                    f"quad face {f.id} contains {len(inside)} red edges, expected 1"))
            continue
        red_edge = emap[inside[0]]
        boundary = [emap[eid] for eid in f.edge_ids()]
        parallels = [b for b in boundary if {b.a, b.b} == {red_edge.a, red_edge.b}]
        if not parallels:
            findings.append(Finding(RULE_RED_PLACEMENT, "error",
                                    f"red edge {red_edge.id} in face {f.id} is parallel to none of its blue edges"))
            continue
        if not _red_adjacent_to_parallel(g, rot_of, red_edge, parallels):
            findings.append(Finding(RULE_RED_PLACEMENT, "error",
                                    f"red edge {red_edge.id} is not adjacent to its parallel blue edge in the rotation"))
    for e in red:
        if e.id not in placed_reds:
            findings.append(Finding(RULE_RED_PLACEMENT, "error",
                                    f"red edge {e.id} lies in no quadrilateral face"))
    for fid, inside in reds_in.items():
        face = blue_faces.faces[fid]
        if face.kind == "bigon" and inside:
            findings.append(Finding(RULE_RED_PLACEMENT, "error",
                                    f"bigon face {fid} contains red edges {list(inside)}"))

    # (d) Euler identity for the blue subgraph
    if n_blue - 2 * n_v != 2:
        findings.append(Finding(RULE_EULER, "error",
                                f"E_b - 2V = {n_blue - 2 * n_v}, expected 2 (E_b={n_blue}, V={n_v})"))

    # (e) blue edges join black to white
    for e in blue:
        if vmap[e.a].color == vmap[e.b].color:
            findings.append(Finding(RULE_BIPARTITE, "error",
                                    f"blue edge {e.id} joins two {vmap[e.a].color} vertices"))

    # (f) blue degree k forces exactly 6 - k red edge ends
    for vid in sorted(rot_of):
        k = sum(1 for d in rot_of[vid] if emap[d[0]].color == BLUE)
        r = len(rot_of[vid]) - k
        if r != 6 - k:
            findings.append(Finding(RULE_RED_COUNT, "error",
                                    f"vertex {vid} has blue degree {k} but {r} red ends, expected {6 - k}"))

    counts = {
        "V": n_v,
        "E_b": n_blue,
        "E_red": n_red,
        "bigons": len(bigons),
        "quads": len(quads),
    }
    plausible = not any(f.severity == "error" for f in findings)
    return ValidationReport(plausible, tuple(findings), counts)


def _red_adjacent_to_parallel(g, rot_of, red_edge, parallels) -> bool:
    """The red edge's darts must sit immediately next to the darts of one
    parallel blue edge in the rotations at both shared endpoints."""
    for blue_edge in parallels:
        ok = True
        for vid in {red_edge.a, red_edge.b}:
            rot = rot_of[vid]
            red_positions = [i for i, d in enumerate(rot) if d[0] == red_edge.id]
            blue_positions = [i for i, d in enumerate(rot) if d[0] == blue_edge.id]
            n = len(rot)
            if not any((rp - bp) % n in (1, n - 1) for rp in red_positions for bp in blue_positions):
                ok = False
                break
        if ok:
            return True
    return False
