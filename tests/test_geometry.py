import hashlib
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import mesh_oracle
from octacolor.cone import enumerate_lattice_points, lattice_basis
from octacolor.families import gen_spiral, load_bundled
from octacolor.geometry import (AngleError, ClosureError, ColorError, GluingError, MeshError,
                                _closed_mesh_edges, build_triangulation, cone_point_coordinates,
                                develop_net, develop_surface, four_color,
                                realize_polygons, triarea, unit_triangulate)
from octacolor.grid import DIRECTIONS, ORIGIN, GridPoint, direction, signed_triarea
from octacolor.labeling import ACUTE, assign_labels, polygon_boundaries
from octacolor.shapesys import build_constraints, kernel_basis


def replace(record, **changes):
    """A copy of a library record with some fields changed."""
    return record._replace(**changes)


def _context(g):
    bnds = polygon_boundaries(g)
    labels = assign_labels(g, bnds)
    kb = kernel_basis(build_constraints(g, bnds, labels))
    return bnds, labels, kb


def _positive_points(g, bound=3):
    bnds, labels, kb = _context(g)
    lb = lattice_basis(kb)
    pts = [p for p in enumerate_lattice_points(lb, bound) if p.strictly_positive]
    return bnds, labels, kb, pts


def _lengths(kb, vector):
    return dict(zip(kb.col_edges, vector))


def _random_tree(g, gluings, seed):
    rng = random.Random(seed)
    order = sorted(gluings)
    rng.shuffle(order)
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent.setdefault(parent[x], parent[x])
            x = parent[x]
        return x

    tree = set()
    for eid in order:
        a, b = gluings[eid].white_polygon, gluings[eid].black_polygon
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            tree.add(eid)
    return tree


# --- realization -----------------------------------------------------------

def test_realize_unit_hexagons(hexpair):
    bnds, labels, kb = _context(hexpair)
    charts = realize_polygons(hexpair, bnds, labels, {e: 1 for e in range(6)})
    for chart in charts.values():
        assert chart.sides[0].start == ORIGIN
        assert triarea(chart.chain) == 6
        assert all(p.is_lattice_point() for p in chart.chain)


def test_realize_rejects_broken_closure(hexpair):
    bnds, labels, kb = _context(hexpair)
    lengths = {e: 1 for e in range(6)}
    lengths[0] = 2
    with pytest.raises(ClosureError):
        realize_polygons(hexpair, bnds, labels, lengths)


def test_realize_rejects_nonpositive(hexpair):
    bnds, labels, kb = _context(hexpair)
    lengths = {e: 1 for e in range(6)}
    lengths[3] = 0
    with pytest.raises(ClosureError):
        realize_polygons(hexpair, bnds, labels, lengths)


def test_trapezoid_chain_closes(spiral3):
    bnds, labels, kb, pts = _positive_points(spiral3)
    charts = realize_polygons(spiral3, bnds, labels, _lengths(kb, pts[0].vector))
    trap = next(b for b in bnds if b.slots == (0, 2, 3, 4))
    chart = charts[trap.vertex_id]
    turns = [(chart.sides[(i + 1) % 4].direction - chart.sides[i].direction) % 6
             for i in range(4)]
    assert sorted(turns) in ([1, 1, 2, 2], [4, 4, 5, 5])


# --- unit triangulation ----------------------------------------------------

def test_unit_triangle():
    tris = unit_triangulate(ORIGIN, [(1, 0), (1, 2), (1, 4)])
    assert len(tris) == 1


def test_parallelogram_two_by_one():
    tris = unit_triangulate(ORIGIN, [(2, 0), (1, 2), (2, 3), (1, 5)])
    assert len(tris) == 4


def test_trapezoid_2111():
    tris = unit_triangulate(ORIGIN, [(2, 0), (1, 2), (1, 3), (1, 4)])
    assert len(tris) == 3


def test_unit_hexagon_triangulation():
    sides = [(1, k) for k in range(6)]
    tris = unit_triangulate(ORIGIN, sides)
    assert len(tris) == 6
    verts = {p for t in tris for p in t}
    assert all(p.is_lattice_point() for p in verts)


def test_big_triangle_subdivision_counts():
    for n in (1, 2, 3, 5):
        tris = unit_triangulate(ORIGIN, [(n, 0), (n, 2), (n, 4)])
        assert len(tris) == n * n


def test_clockwise_chain_triangulates():
    tris = unit_triangulate(ORIGIN, [(1, 0), (1, 4), (1, 2)])
    assert len(tris) == 1


def test_triangle_count_always_matches_area(spiral3):
    bnds, labels, kb, pts = _positive_points(spiral3, bound=3)
    for p in pts[:4]:
        charts = realize_polygons(spiral3, bnds, labels, _lengths(kb, p.vector))
        for chart in charts.values():
            assert len(unit_triangulate(chart)) == triarea(chart.chain)


def test_triarea_values():
    hexagon = [ORIGIN]
    for k in range(5):
        hexagon.append(hexagon[-1] + direction(k))
    assert triarea(hexagon) == 6
    assert triarea([ORIGIN, direction(0), direction(1)]) == 1
    para = [ORIGIN, direction(0).scale(2), direction(0).scale(2) + direction(1),
            direction(1)]
    assert triarea(para) == 4


@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
@settings(max_examples=60, deadline=None)
def test_triangulation_of_centrally_symmetric_hexagons(a, b, c):
    # side vector (a, b, c, a, b, c) always closes; its area in unit
    # triangles is 2(ab + bc + ca), an independent algebraic oracle
    if sum(1 for x in (a, b, c) if x) < 2:
        return
    sides = [(l, d) for d, l in enumerate((a, b, c, a, b, c)) if l]
    tris = unit_triangulate(ORIGIN, sides)
    assert len(tris) == 2 * (a * b + b * c + c * a)


@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_triangulation_of_general_nice_hexagons(a, b, c, e):
    # closure forces d = a + b - e and f = b + c - e; keep them positive
    d, f = a + b - e, b + c - e
    if d <= 0 or f <= 0:
        return
    sides = list(zip((a, b, c, d, e, f), range(6)))
    tris = unit_triangulate(ORIGIN, sides)
    pts = [ORIGIN]
    for l, k in sides[:-1]:
        pts.append(pts[-1] + direction(k).scale(l))
    assert len(tris) == triarea(pts)
    vertices = {p for t in tris for p in t}
    assert all(p.is_lattice_point() for p in vertices)


def _lattice_points_in(chain):
    """Lattice points of the closed convex polygon, counterclockwise or
    clockwise, by brute force over the half-integer points of its bounding
    box with orientation tests.  The lattice is the one through the chain's
    first point, so a start off the Eisenstein lattice shifts it along."""
    xs = [p.X for p in chain]
    ys = [p.Y for p in chain]
    sign = 1 if signed_triarea(chain) > 0 else -1
    parity = (chain[0].X - chain[0].Y) % 2
    inside = set()
    for y in range(min(ys), max(ys) + 1):
        for x in range(min(xs), max(xs) + 1):
            q = GridPoint(x, y)
            if (x - y) % 2 == parity and all(sign * signed_triarea([p, r, q]) >= 0
                                             for p, r in zip(chain, chain[1:] + chain[:1])):
                inside.add(q)
    return inside


@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_nice_hexagon_triangles_match_brute_force_lattice(a, b, c, e):
    # an oracle that shares nothing with the chopping: unit edges, no
    # repeated triangle, and the vertex set is every lattice point of the
    # closed polygon
    d, f = a + b - e, b + c - e
    if d <= 0 or f <= 0:
        return
    sides = list(zip((a, b, c, d, e, f), range(6)))
    tris = unit_triangulate(ORIGIN, sides)
    units = set(DIRECTIONS)
    for t in tris:
        assert all(p - q in units or q - p in units for p, q in ((t[0], t[1]), (t[0], t[2]), (t[1], t[2])))
    assert len({frozenset(t) for t in tris}) == len(tris)
    chain = [ORIGIN]
    for ell, k in sides[:-1]:
        chain.append(chain[-1] + direction(k).scale(ell))
    assert {p for t in tris for p in t} == _lattice_points_in(chain)


@st.composite
def convex_chains(draw):
    """A convex sixth-turn chain with sides 1..6, counterclockwise or
    clockwise, from any start and any first side."""
    # hexagon side vector (a, b, c, d, e, f) along directions 0..5; closure
    # forces d = a + b - e and f = b + c - e, and a zero side may not
    # follow another (that would be a half turn)
    a, b, c, e = (draw(st.integers(0, 6)) for _ in range(4))
    lengths = (a, b, c, a + b - e, e, b + c - e)
    assume(all(0 <= ell <= 6 for ell in lengths))
    assume(all(lengths[i] or lengths[(i + 1) % 6] for i in range(6)))
    turn = draw(st.integers(0, 5))
    sides = [(ell, (d + turn) % 6) for d, ell in enumerate(lengths) if ell]
    first = draw(st.integers(0, len(sides) - 1))
    sides = sides[first:] + sides[:first]
    if draw(st.booleans()):
        # the same polygon traversed clockwise from the same start
        sides = [(ell, (d + 3) % 6) for ell, d in reversed(sides)]
    start = GridPoint(draw(st.integers(-6, 6)), draw(st.integers(-6, 6)))
    return start, sides


@given(convex_chains())
@settings(max_examples=200, deadline=None)
def test_unit_triangles_match_oracle_on_both_orientations(chain):
    # the row scan and the chopper number triangles in different orders
    start, sides = chain
    tris = unit_triangulate(start, sides)
    assert sorted(tris) == sorted(mesh_oracle._unit_triangles(start, sides))


@given(convex_chains())
@settings(max_examples=200, deadline=None)
def test_unit_triangles_tile_the_closed_polygon(chain):
    # an oracle that shares nothing with the row scan: the vertices are
    # every lattice point of the closed polygon, triangles are distinct,
    # sorted and unit-sided, interior edges are shared by two triangles
    # and boundary edges by one, and the count is the shoelace area
    start, sides = chain
    tris = unit_triangulate(start, sides)
    pts = [start]
    for ell, d in sides[:-1]:
        pts.append(pts[-1] + direction(d).scale(ell))
    assert {p for t in tris for p in t} == _lattice_points_in(pts)
    assert len(set(tris)) == len(tris)
    units = set(DIRECTIONS)
    edge_count = Counter()
    for t in tris:
        assert list(t) == sorted(t)
        for p, q in ((t[0], t[1]), (t[0], t[2]), (t[1], t[2])):
            assert q - p in units or p - q in units
            edge_count[p, q] += 1
    boundary = set()
    for p, (ell, d) in zip(pts, sides):
        walk = [p + direction(d).scale(i) for i in range(ell + 1)]
        boundary.update(tuple(sorted(e)) for e in zip(walk, walk[1:]))
    assert boundary <= set(edge_count)
    for e, n in edge_count.items():
        assert n == (1 if e in boundary else 2), e
    assert len(tris) == abs(signed_triarea(pts)) == triarea(pts)


# --- development and folding -----------------------------------------------

def test_develop_surface_cone_count(spiral3):
    bnds, labels, kb, pts = _positive_points(spiral3)
    charts = realize_polygons(spiral3, bnds, labels, _lengths(kb, pts[0].vector))
    surf = develop_surface(spiral3, bnds, charts)
    assert len(surf.frame.cone_vertices) == 6
    assert surf.folded_vertex_image[surf.frame.flag[0]] == ORIGIN


def test_folded_images_independent_of_tree(spiral3):
    bnds, labels, kb, pts = _positive_points(spiral3)
    charts = realize_polygons(spiral3, bnds, labels, _lengths(kb, pts[0].vector))
    base = develop_surface(spiral3, bnds, charts)
    for seed in range(5):
        tree = _random_tree(spiral3, base.frame.gluings, seed)
        surf = develop_surface(spiral3, bnds, charts, tree=tree)
        assert surf.folded_vertex_image == base.folded_vertex_image


def test_folded_images_scale_linearly(spiral3):
    bnds, labels, kb, pts = _positive_points(spiral3)
    v = pts[0].vector
    charts1 = realize_polygons(spiral3, bnds, labels, _lengths(kb, v))
    charts2 = realize_polygons(spiral3, bnds, labels, _lengths(kb, tuple(2 * x for x in v)))
    s1 = develop_surface(spiral3, bnds, charts1)
    s2 = develop_surface(spiral3, bnds, charts2)
    for fid, p in s1.folded_vertex_image.items():
        assert s2.folded_vertex_image[fid] == p.scale(2)


def test_cone_point_coordinates_linearity(spiral3):
    bnds, labels, kb, pts = _positive_points(spiral3)
    v1, v2 = pts[0].vector, pts[1].vector
    vs = tuple(a + b for a, b in zip(v1, v2))

    def coords(vec):
        charts = realize_polygons(spiral3, bnds, labels, _lengths(kb, vec))
        return cone_point_coordinates(develop_surface(spiral3, bnds, charts))

    c1, c2, cs = coords(v1), coords(v2), coords(vs)
    assert all(cs[i] == c1[i] + c2[i] for i in range(6))


def test_base_flag_override_white_and_black(spiral3):
    # any (cone vertex, polygon) flag normalizes with the vertex at the
    # origin and the flag polygon inside the closed upper half plane
    bnds, labels, kb, pts = _positive_points(spiral3)
    charts = realize_polygons(spiral3, bnds, labels, _lengths(kb, pts[0].vector))
    base = develop_surface(spiral3, bnds, charts)
    corners_at = {}
    for b in bnds:
        for idx, fid in enumerate(b.corner_faces):
            corners_at.setdefault(fid, []).append(b.vertex_id)
    for cv in base.frame.cone_vertices:
        for pid in corners_at[cv]:
            surf = develop_surface(spiral3, bnds, charts, base_flag=(cv, pid))
            assert surf.folded_vertex_image[cv] == ORIGIN
            chain = surf.placed[pid].chain
            assert all(p.Y >= 0 for p in chain)
            assert any(p.Y > 0 for p in chain)
            flag_side = surf.placed[pid].sides[surf.frame.flag[3]]
            ends = {flag_side.start, flag_side.end}
            assert all(p.Y == 0 and p.X >= 0 for p in ends)


def test_base_flag_rejects_regular_vertex(spiral3):
    bnds, labels, kb, pts = _positive_points(spiral3)
    charts = realize_polygons(spiral3, bnds, labels, _lengths(kb, pts[0].vector))
    base = develop_surface(spiral3, bnds, charts)
    quad_vertex = base.frame.regular_vertices[0]
    with pytest.raises(ValueError):
        develop_surface(spiral3, bnds, charts, base_flag=(quad_vertex, 0))


def test_develop_surface_rejects_holonomy_mismatch(hexpair):
    # the two unit hexagons at different scales: the spanning tree fits
    # polygon 1 to polygon 0 along one edge, and the other five disagree
    bnds, labels, kb = _context(hexpair)
    ones = realize_polygons(hexpair, bnds, labels, {e: 1 for e in range(6)})
    twos = realize_polygons(hexpair, bnds, labels, {e: 2 for e in range(6)})
    develop_surface(hexpair, bnds, ones)
    with pytest.raises(GluingError, match="folded placements disagree"):
        develop_surface(hexpair, bnds, {0: ones[0], 1: twos[1]})


def test_develop_surface_rejects_open_angles(hexpair):
    # one corner relabelled acute leaves its cone vertex a white angle of
    # one unit; the charts still glue, so only the angle closure fails
    bnds, labels, kb = _context(hexpair)
    charts = realize_polygons(hexpair, bnds, labels, {e: 1 for e in range(6)})
    b = next(b for b in bnds if b.color == "white")
    tampered = [replace(b, corners=(ACUTE,) + b.corners[1:]) if x is b else x for x in bnds]
    with pytest.raises(AngleError, match=f"cone vertex {b.corner_faces[0]} has angle units"):
        develop_surface(hexpair, tampered, charts)


# --- glued triangulation and coloring ---------------------------------------

def test_build_triangulation_hexpair(hexpair):
    bnds, labels, kb = _context(hexpair)
    charts = realize_polygons(hexpair, bnds, labels, {e: 1 for e in range(6)})
    surf = develop_surface(hexpair, bnds, charts)
    tri = build_triangulation(surf)
    assert tri.euler_characteristic() == 2
    assert tri.degree_histogram() == {4: 6, 6: 2}
    assert len(tri.triangles) == 12


def test_four_color_proper_and_balanced(spiral3):
    bnds, labels, kb, pts = _positive_points(spiral3)
    charts = realize_polygons(spiral3, bnds, labels, _lengths(kb, pts[0].vector))
    surf = develop_surface(spiral3, bnds, charts)
    tri = four_color(build_triangulation(surf))
    colors = tri.vertex_colors
    assert colors == tuple(p.color_class() for p in tri.positions)
    assert set(colors) <= {0, 1, 2, 3}
    for a, b in tri.edges:
        assert colors[a] != colors[b]


def test_four_color_survives_doubling(spiral3):
    bnds, labels, kb, pts = _positive_points(spiral3)
    doubled = tuple(2 * x for x in pts[0].vector)
    charts = realize_polygons(spiral3, bnds, labels, _lengths(kb, doubled))
    surf = develop_surface(spiral3, bnds, charts)
    tri = four_color(build_triangulation(surf))
    assert tri.vertex_colors is not None


def test_triangle_count_equals_area_sum(spiral3):
    bnds, labels, kb, pts = _positive_points(spiral3)
    charts = realize_polygons(spiral3, bnds, labels, _lengths(kb, pts[0].vector))
    surf = develop_surface(spiral3, bnds, charts)
    tri = build_triangulation(surf)
    assert len(tri.triangles) == sum(triarea(ch.chain) for ch in surf.placed.values())


# --- net development ---------------------------------------------------------

def test_net_hexpair_is_mirror_pair(hexpair):
    bnds, labels, kb = _context(hexpair)
    charts = realize_polygons(hexpair, bnds, labels, {e: 1 for e in range(6)})
    surf = develop_surface(hexpair, bnds, charts)
    net = develop_net(surf)
    assert net.overlaps == ()
    assert len(net.tree_edges) == 1
    # the two placed hexagons share exactly the glued edge
    shared = set(net.points[0]) & set(net.points[1])
    assert len(shared) == 2


def test_net_deterministic(spiral3):
    bnds, labels, kb, pts = _positive_points(spiral3)
    charts = realize_polygons(spiral3, bnds, labels, _lengths(kb, pts[0].vector))
    surf = develop_surface(spiral3, bnds, charts)
    n1 = develop_net(surf)
    n2 = develop_net(surf)
    assert n1.points == n2.points
    assert n1.tree_edges == n2.tree_edges


def test_net_tree_edges_coincide(spiral3):
    # develop_net raises GluingError internally if a tree edge mismatches,
    # so a successful call certifies exact coincidence; check one manually
    bnds, labels, kb, pts = _positive_points(spiral3)
    charts = realize_polygons(spiral3, bnds, labels, _lengths(kb, pts[0].vector))
    surf = develop_surface(spiral3, bnds, charts)
    net = develop_net(surf)
    eid = net.tree_edges[0]
    gl = surf.frame.gluings[eid]
    w = surf.placed[gl.white_polygon].sides[gl.white_side]
    tw = net.transforms[gl.white_polygon]
    a = tw.apply(w.start)
    b = tw.apply(w.end)
    chain_b = net.points[gl.black_polygon]
    assert a in chain_b or b in chain_b


def test_net_follows_a_random_tree(spiral3):
    # the net is laid out along the frame's tree, whichever tree it holds
    bnds, labels, kb, pts = _positive_points(spiral3)
    charts = realize_polygons(spiral3, bnds, labels, _lengths(kb, pts[0].vector))
    base = develop_surface(spiral3, bnds, charts)
    for seed in range(5):
        tree = _random_tree(spiral3, base.frame.gluings, seed)
        surf = develop_surface(spiral3, bnds, charts, tree=tree)
        net = develop_net(surf)
        assert net.tree_edges == surf.frame.tree_edges == tuple(sorted(tree))
        assert set(net.points) == set(surf.placed)


# --- golden meshes and error paths --------------------------------------------

def _mesh_digest(tri):
    # positions hash as plain doubled (X, Y) = (2x, 2y) pairs
    key = (tuple(map(tuple, tri.positions)), tri.triangles, tri.triangle_colors, tri.edges,
           tri.degrees, tri.surface_vertex, tri.vertex_colors)
    return hashlib.sha256(repr(key).encode()).hexdigest()


def _first_positive_surface(g, bound):
    bnds, labels, kb, pts = _positive_points(g, bound=bound)
    charts = realize_polygons(g, bnds, labels, _lengths(kb, pts[0].vector))
    return develop_surface(g, bnds, charts)


def test_golden_mesh_hexagon_pair():
    g = load_bundled("hexagon-pair")
    bnds, labels, kb = _context(g)
    surf = develop_surface(g, bnds, realize_polygons(g, bnds, labels, {e: 1 for e in kb.col_edges}))
    tri = four_color(build_triangulation(surf))
    assert len(tri.triangles) == 12
    assert _mesh_digest(tri) == "856bbdac931dd5a610e2027dcc65f1603d03452d862d2721f6cbb7f0c730bfc0"


def test_golden_mesh_spiral6():
    tri = four_color(build_triangulation(_first_positive_surface(load_bundled("spiral-6"), bound=5)))
    assert len(tri.triangles) == 54
    assert _mesh_digest(tri) == "c93a976e592818e3b0dcf6962d7ca5fbdfe1bbcea37b737b0f1c457bef1f6875"


def test_build_triangulation_rejects_half_lengths(spiral3):
    # a halved solution still closes, but its sides are not integers: the
    # realization refuses it, and so does the triangulation of one chain
    bnds, labels, kb, pts = _positive_points(spiral3)
    vector = pts[0].vector
    assert any(x % 2 for x in vector)
    halved = {e: Fraction(x, 2) for e, x in zip(kb.col_edges, vector)}
    with pytest.raises(ClosureError, match="positive integer"):
        realize_polygons(spiral3, bnds, labels, halved)
    with pytest.raises(MeshError, match="positive integers"):
        unit_triangulate(ORIGIN, [(Fraction(1, 2), 0), (Fraction(1, 2), 2), (Fraction(1, 2), 4)])


# (1/2, 0) and (0, 1/2): half-integer points off the lattice
@pytest.mark.parametrize("shift", [GridPoint(1, 0), GridPoint(0, 1)])
def test_four_color_rejects_off_lattice_position(spiral3, shift):
    tri = build_triangulation(_first_positive_surface(spiral3, bound=3))
    moved = replace(tri, positions=(tri.positions[0] + shift,) + tri.positions[1:])
    four_color(tri)
    with pytest.raises(ColorError):
        four_color(moved)


def test_unit_triangulate_rejects_nonconvex_chain():
    # closed pentagon with one reflex corner (a right turn between sides 3 and 4)
    sides = [(2, 0), (1, 1), (1, 3), (1, 2), (2, 4)]
    assert sum((direction(d).scale(ell) for ell, d in sides), ORIGIN) == ORIGIN
    with pytest.raises(ValueError, match="not convex"):
        unit_triangulate(ORIGIN, sides)


def test_unit_triangulate_rejects_start_off_half_integer_grid():
    # every GridPoint is on the half-integer grid; a half-integer start that
    # is not a lattice point triangulates like any other
    tris = unit_triangulate(GridPoint(1, 0), [(1, 0), (1, 2), (1, 4)])
    assert tris == [(GridPoint(1, 0), GridPoint(2, 1), GridPoint(3, 0))]


BUNDLED = ("hexagon-pair", "spiral-6", "spiral-8", "spiral-10")


@pytest.mark.parametrize("g", [load_bundled(name) for name in BUNDLED] + [gen_spiral(k) for k in (3, 4, 5)],
                         ids=[*BUNDLED, "gen-spiral-3", "gen-spiral-4", "gen-spiral-5"])
def test_build_triangulation_matches_oracle(g):
    bnds, labels, kb, pts = _positive_points(g, bound=4)
    for p in pts:
        surf = develop_surface(g, bnds, realize_polygons(g, bnds, labels, _lengths(kb, p.vector)))
        got, want = build_triangulation(surf), mesh_oracle.build_triangulation(surf)
        assert sorted(zip(got.triangles, got.triangle_colors)) == \
            sorted(zip(want.triangles, want.triangle_colors))
        blank = dict(triangles=(), triangle_colors=())
        assert replace(got, **blank) == replace(want, **blank)


def test_build_triangulation_rejects_translated_chart(spiral3):
    surf = _first_positive_surface(spiral3, bound=3)
    chart = surf.placed[0]
    moved = replace(chart, sides=tuple(replace(s, start=s.start + DIRECTIONS[0]) for s in chart.sides))
    with pytest.raises(MeshError, match="missing from a triangulation"):
        build_triangulation(replace(surf, placed={**surf.placed, 0: moved}))


def test_build_triangulation_rejects_dropped_gluing(spiral3):
    surf = _first_positive_surface(spiral3, bound=3)
    gluings = dict(surf.frame.gluings)
    del gluings[min(gluings)]
    with pytest.raises(MeshError, match="not shared by exactly two triangles"):
        build_triangulation(replace(surf, frame=replace(surf.frame, gluings=gluings)))


TETRAHEDRON = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]


def test_closed_mesh_edges_of_a_tetrahedron():
    assert _closed_mesh_edges(TETRAHEDRON, 4) == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def test_closed_mesh_edges_rejects_a_doubly_covered_tetrahedron():
    # every edge lies in four triangles: the sorted keys pair up evenly, so
    # only the repeats among the pairs reveal it
    with pytest.raises(MeshError, match=r"^6 edges not shared by exactly two triangles, e\.g\. \(0, 1\)$"):
        _closed_mesh_edges(TETRAHEDRON + TETRAHEDRON, 4)


def test_closed_mesh_edges_rejects_an_open_tetrahedron():
    with pytest.raises(MeshError, match=r"^3 edges not shared by exactly two triangles, e\.g\. \(1, 2\)$"):
        _closed_mesh_edges(TETRAHEDRON[:3], 4)


def _doubled_hexagon_pair(length):
    """Two copies of the hexagon pair's sphere over the same folded image,
    glued only within each copy: the copies share no vertex.  Returns the
    surface and the copies' edge id and face id offsets."""
    g = load_bundled("hexagon-pair")
    bnds, labels, kb = _context(g)
    surf = develop_surface(g, bnds, realize_polygons(g, bnds, labels, {e: length for e in kb.col_edges}))
    frame = surf.frame
    n, m, f = 1 + max(surf.placed), 1 + max(frame.gluings), 1 + max(frame.face_owner)
    placed = {**surf.placed, **{pid + n: ch for pid, ch in surf.placed.items()}}
    copies = {eid + m: replace(gl, edge_id=eid + m, white_polygon=gl.white_polygon + n,
                               black_polygon=gl.black_polygon + n)
              for eid, gl in frame.gluings.items()}
    corners = frame.corners + tuple((pid + n, side, fid + f) for pid, side, fid in frame.corners)
    face_owner = {**frame.face_owner, **{fid + f: pid + n for fid, pid in frame.face_owner.items()}}
    frame = replace(frame, gluings={**frame.gluings, **copies}, corners=corners, face_owner=face_owner)
    return replace(surf, frame=frame, placed=placed), m, f


def test_build_triangulation_rejects_two_spheres():
    surf, _, _ = _doubled_hexagon_pair(2)
    with pytest.raises(MeshError, match="Euler characteristic 4"):
        build_triangulation(surf)


def test_build_triangulation_rejects_swapped_gluing():
    # swapping the black polygons of one edge and its copy cuts both spheres
    # open along that side and glues them crosswise: a connected sum, so a
    # closed sphere, whose two slit ends each gather both copies' degrees
    surf, m, f = _doubled_hexagon_pair(2)
    frame = surf.frame
    a, b = frame.gluings[0], frame.gluings[m]
    gluings = {**frame.gluings, 0: replace(a, black_polygon=b.black_polygon),
               m: replace(b, black_polygon=a.black_polygon)}
    # each slit end's corners now form one vertex, owned as the original's
    faces = frame.boundaries[0].corner_faces
    side = frame.boundaries[0].sides.index(0)
    ends = (faces[side - 1], faces[side])
    face_owner = {**frame.face_owner, **{fid + f: frame.face_owner[fid] for fid in ends}}
    with pytest.raises(MeshError, match="degree histogram"):
        build_triangulation(replace(surf, frame=replace(frame, gluings=gluings, face_owner=face_owner)))
