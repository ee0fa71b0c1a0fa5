import hashlib
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import mesh_oracle
from octacolor import geometry, mesh
from octacolor.emg import InputError
from octacolor.families import gen_spiral, load_bundled
from octacolor.geometry import (AngleError, ClosureError, GluingError, cone_point_coordinates,
                                develop_surface, place_surface, realize_polygons)
from octacolor.grid import DIRECTIONS, ORIGIN, GridPoint, direction, signed_triarea
from octacolor.labeling import ACUTE
from octacolor.mesh import (ColorError, MeshError, _closed_mesh_edges, build_triangulation,
                            four_color, triarea, unit_triangulate)
from octacolor.net import develop_net
from octacolor.pipeline import Instance


def replace(record, **changes):
    """A copy of a library record with some fields changed."""
    return record._replace(**changes)


def _positive(inst, bound=3):
    """The vectors of the strictly positive lattice points with lengths <= bound."""
    return [p.vector for p in inst.lattice_points(bound) if p.strictly_positive]


def _charts(inst, vector):
    return realize_polygons(inst.g, inst.boundaries, inst.labels, dict(zip(inst.kernel.col_edges, vector)))


def _first_positive_surface(g, bound=3):
    inst = Instance(g)
    return inst.develop(_positive(inst, bound)[0])


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
    charts = _charts(Instance(hexpair), [1] * 6)
    for chart in charts.values():
        assert chart.sides[0].start == ORIGIN
        assert triarea(chart.chain) == 6
        assert all(p.is_lattice_point() for p in chart.chain)


def test_realize_rejects_broken_closure(hexpair):
    with pytest.raises(ClosureError):
        _charts(Instance(hexpair), [2, 1, 1, 1, 1, 1])


def test_realize_rejects_nonpositive(hexpair):
    with pytest.raises(ClosureError):
        _charts(Instance(hexpair), [1, 1, 1, 0, 1, 1])


def test_trapezoid_chain_closes(spiral3):
    inst = Instance(spiral3)
    charts = _charts(inst, _positive(inst)[0])
    trap = next(b for b in inst.boundaries if b.slots == (0, 2, 3, 4))
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
    inst = Instance(spiral3)
    for vector in _positive(inst)[:4]:
        for chart in _charts(inst, vector).values():
            sides = [(s.length, s.direction) for s in chart.sides]
            assert len(unit_triangulate(chart.sides[0].start, sides)) == triarea(chart.chain)


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
    inst = Instance(spiral3)
    surf = develop_surface(spiral3, inst.boundaries, _charts(inst, _positive(inst)[0]))
    assert len(surf.frame.cone_vertices) == 6
    assert surf.folded_vertex_image[surf.frame.flag[0]] == ORIGIN


def test_folded_images_independent_of_tree(spiral3):
    inst = Instance(spiral3)
    charts = _charts(inst, _positive(inst)[0])
    base = develop_surface(spiral3, inst.boundaries, charts)
    for seed in range(5):
        tree = _random_tree(spiral3, base.frame.gluings, seed)
        surf = develop_surface(spiral3, inst.boundaries, charts, tree=tree)
        assert surf.folded_vertex_image == base.folded_vertex_image


def test_folded_images_scale_linearly(spiral3):
    inst = Instance(spiral3)
    v = _positive(inst)[0]
    s1, s2 = inst.develop(v), inst.develop([2 * x for x in v])
    for fid, p in s1.folded_vertex_image.items():
        assert s2.folded_vertex_image[fid] == p.scale(2)


def test_cone_point_coordinates_linearity(spiral3):
    inst = Instance(spiral3)
    v1, v2 = _positive(inst)[:2]
    vs = tuple(a + b for a, b in zip(v1, v2))
    c1, c2, cs = (cone_point_coordinates(inst.develop(v)) for v in (v1, v2, vs))
    assert all(cs[i] == c1[i] + c2[i] for i in range(6))


def test_base_flag_override_white_and_black(spiral3):
    # any (cone vertex, polygon) flag normalizes with the vertex at the
    # origin and the flag polygon inside the closed upper half plane
    inst = Instance(spiral3)
    charts = _charts(inst, _positive(inst)[0])
    base = develop_surface(spiral3, inst.boundaries, charts)
    corners_at = {}
    for b in inst.boundaries:
        for idx, fid in enumerate(b.corner_faces):
            corners_at.setdefault(fid, []).append(b.vertex_id)
    for cv in base.frame.cone_vertices:
        for pid in corners_at[cv]:
            surf = develop_surface(spiral3, inst.boundaries, charts, base_flag=(cv, pid))
            assert surf.folded_vertex_image[cv] == ORIGIN
            chain = surf.placed[pid].chain
            assert all(p.Y >= 0 for p in chain)
            assert any(p.Y > 0 for p in chain)
            flag_side = surf.placed[pid].sides[surf.frame.flag[3]]
            ends = {flag_side.start, flag_side.end}
            assert all(p.Y == 0 and p.X >= 0 for p in ends)


def test_base_flag_rejects_regular_vertex(spiral3):
    inst = Instance(spiral3)
    quad_vertex = inst.frame.regular_vertices[0]
    with pytest.raises(ValueError):
        develop_surface(spiral3, inst.boundaries, _charts(inst, _positive(inst)[0]),
                        base_flag=(quad_vertex, 0))


def test_develop_surface_rejects_holonomy_mismatch(hexpair):
    # the two unit hexagons at different scales: the spanning tree fits
    # polygon 1 to polygon 0 along one edge, and the other five disagree
    inst = Instance(hexpair)
    ones, twos = _charts(inst, [1] * 6), _charts(inst, [2] * 6)
    develop_surface(hexpair, inst.boundaries, ones)
    with pytest.raises(GluingError, match="folded placements disagree"):
        develop_surface(hexpair, inst.boundaries, {0: ones[0], 1: twos[1]})


def test_develop_surface_rejects_open_angles(hexpair):
    # one corner relabelled acute leaves its cone vertex a white angle of
    # one unit; the charts still glue, so only the angle closure fails
    inst = Instance(hexpair)
    charts = _charts(inst, [1] * 6)
    b = next(b for b in inst.boundaries if b.color == "white")
    tampered = [replace(b, corners=(ACUTE,) + b.corners[1:]) if x is b else x for x in inst.boundaries]
    with pytest.raises(AngleError, match=f"cone vertex {b.corner_faces[0]} has angle units"):
        develop_surface(hexpair, tampered, charts)


# --- glued triangulation and coloring ---------------------------------------

def test_build_triangulation_hexpair(hexpair):
    tri = build_triangulation(Instance(hexpair).develop([1] * 6))
    assert tri.euler_characteristic() == 2
    assert tri.degree_histogram() == {4: 6, 6: 2}
    assert len(tri.triangles) == 12


def test_four_color_proper_and_balanced(spiral3):
    tri = four_color(build_triangulation(_first_positive_surface(spiral3)))
    colors = tri.vertex_colors
    assert colors == tuple(p.color_class() for p in tri.positions)
    assert set(colors) <= {0, 1, 2, 3}
    for a, b in tri.edges:
        assert colors[a] != colors[b]


def test_four_color_survives_doubling(spiral3):
    inst = Instance(spiral3)
    tri = four_color(build_triangulation(inst.develop([2 * x for x in _positive(inst)[0]])))
    assert tri.vertex_colors is not None


def test_four_color_reports_a_mod3_imbalance(spiral3):
    # one triangle's colour flipped moves its vertices' signed counts by 2;
    # the first of them is reported with its white and black counts
    tri = build_triangulation(_first_positive_surface(spiral3))
    t = 5
    colors = list(tri.triangle_colors)
    colors[t] = "black" if colors[t] == "white" else "white"
    v = tri.triangles[t][0]
    around = Counter(col for tr, col in zip(tri.triangles, colors) if v in tr)
    with pytest.raises(ColorError, match=f"^vertex {v}: {around['white']} white vs {around['black']} black triangles$"):
        four_color(replace(tri, triangle_colors=tuple(colors)))


def test_triangle_count_equals_area_sum(spiral3):
    surf = _first_positive_surface(spiral3)
    tri = build_triangulation(surf)
    assert len(tri.triangles) == sum(triarea(ch.chain) for ch in surf.placed.values())


# --- net development ---------------------------------------------------------

def test_net_hexpair_is_mirror_pair(hexpair):
    surf = Instance(hexpair).develop([1] * 6)
    net = develop_net(surf)
    assert len(surf.frame.tree_edges) == 1
    # the two placed hexagons share exactly the glued edge
    shared = set(net.points[0]) & set(net.points[1])
    assert len(shared) == 2


def test_net_deterministic(spiral3):
    surf = _first_positive_surface(spiral3)
    n1 = develop_net(surf)
    n2 = develop_net(surf)
    assert n1 == n2


def test_net_tree_edges_coincide(spiral3):
    # develop_net raises GluingError internally if a tree edge mismatches,
    # so a successful call certifies exact coincidence; check one manually
    surf = _first_positive_surface(spiral3)
    net = develop_net(surf)
    eid = surf.frame.tree_edges[0]
    gl = surf.frame.gluings[eid]
    w = surf.placed[gl.white_polygon].sides[gl.white_side]
    tw = net.transforms[gl.white_polygon]
    a = tw.apply(w.start)
    b = tw.apply(w.end)
    chain_b = net.points[gl.black_polygon]
    assert a in chain_b or b in chain_b


def test_net_tree_edge_that_fails_to_coincide_raises(hexpair):
    # one glued tree side made longer than its partner: the net places the
    # partner at the longer side's end, so the edge cannot close
    surf = Instance(hexpair).develop([1] * 6)
    (eid,) = surf.frame.tree_edges
    gl = surf.frame.gluings[eid]
    chart = surf.placed[gl.white_polygon]
    sides = list(chart.sides)
    sides[gl.white_side] = replace(sides[gl.white_side], length=2)
    placed = {**surf.placed, gl.white_polygon: replace(chart, sides=tuple(sides))}
    with pytest.raises(GluingError, match=f"net tree edge {eid} fails to coincide"):
        develop_net(replace(surf, placed=placed))


def test_net_follows_a_random_tree(spiral3):
    # the net is laid out along the frame's tree, whichever tree it holds
    inst = Instance(spiral3)
    charts = _charts(inst, _positive(inst)[0])
    for seed in range(5):
        tree = _random_tree(spiral3, inst.frame.gluings, seed)
        surf = develop_surface(spiral3, inst.boundaries, charts, tree=tree)
        net = develop_net(surf)
        assert surf.frame.tree_edges == tuple(sorted(tree))
        assert set(net.points) == set(surf.placed)


# --- golden meshes and error paths --------------------------------------------

def _mesh_digest(tri):
    # positions hash as plain doubled (X, Y) = (2x, 2y) pairs
    key = (tuple(map(tuple, tri.positions)), tri.triangles, tri.triangle_colors, tri.edges,
           tri.degrees, tri.vertex_colors)
    return hashlib.sha256(repr(key).encode()).hexdigest()


def test_golden_mesh_hexagon_pair():
    tri = four_color(build_triangulation(Instance(load_bundled("hexagon-pair")).develop([1] * 6)))
    assert len(tri.triangles) == 12
    assert _mesh_digest(tri) == "b54b904f5a88998dbd3e39f3975de10f51e73b51f083ac11beb9123b7b304531"


def test_golden_mesh_spiral6():
    tri = four_color(build_triangulation(_first_positive_surface(load_bundled("spiral-6"), bound=5)))
    assert len(tri.triangles) == 54
    assert _mesh_digest(tri) == "2abc150dd827f4b5426923fff954407b987d9064ec4620d774b4c8574609466a"


def test_build_triangulation_rejects_half_lengths(spiral3):
    # a halved solution still closes, but its sides are not integers: the
    # realization refuses it, and so does the triangulation of one chain
    inst = Instance(spiral3)
    vector = _positive(inst)[0]
    assert any(x % 2 for x in vector)
    with pytest.raises(ClosureError, match="positive integer"):
        _charts(inst, [Fraction(x, 2) for x in vector])
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
    inst = Instance(g)
    for vector in _positive(inst, bound=4):
        surf = inst.develop(vector)
        got, want = build_triangulation(surf), mesh_oracle.build_triangulation(surf)
        assert sorted(zip(got.triangles, got.triangle_colors)) == \
            sorted(zip(want.triangles, want.triangle_colors))
        blank = dict(triangles=(), triangle_colors=())
        assert replace(got, **blank) == replace(want, **blank)


def _ray_sum(inst):
    """The edge vector of the sum of the extreme rays: a strictly positive
    lattice point of every instance with a positive point."""
    coords = [sum(column) for column in zip(*inst.cone.extreme_rays)]
    return [sum(c * b[j] for c, b in zip(coords, inst.lattice.vectors)) for j in range(len(inst.lattice.col_edges))]


@pytest.mark.parametrize("g", [load_bundled(name) for name in BUNDLED] + [gen_spiral(k) for k in (3, 4, 5)],
                         ids=[*BUNDLED, "gen-spiral-3", "gen-spiral-4", "gen-spiral-5"])
def test_chart_triangles_are_each_charts_unit_triangulation(g):
    # the SVG's grid and dots read the realized mesh chart by chart; the ray
    # sum gives spiral k = 4 a point, since it has none within bound 4
    inst = Instance(g)
    for vector in [*_positive(inst, bound=4), _ray_sum(inst)]:
        surf, tri, _ = inst.realize(vector)
        charts = mesh.chart_triangles(surf, tri)
        assert list(charts) == sorted(surf.placed)
        assert sum(map(len, charts.values())) == len(tri.triangles)
        for pid, chart in surf.placed.items():
            want = unit_triangulate(chart.sides[0].start, [(s.length, s.direction) for s in chart.sides])
            assert [tuple(tri.positions[v] for v in t) for t in charts[pid]] == want
        assert tri.vertex_colors == tuple(p.color_class() for p in tri.positions)


@pytest.mark.parametrize("g", [load_bundled(name) for name in BUNDLED] + [gen_spiral(k) for k in (3, 4, 5)],
                         ids=[*BUNDLED, "gen-spiral-3", "gen-spiral-4", "gen-spiral-5"])
def test_develop_matches_oracle(g):
    # spiral-8 and spiral k = 4 have no strictly positive point at bound 4,
    # so the sum of the extreme rays keeps every case from passing vacuously
    inst = Instance(g)
    vectors = _positive(inst, bound=4) + [_ray_sum(inst)]
    assert min(vectors[-1]) > 0
    for vector in vectors:
        lengths = dict(zip(inst.kernel.col_edges, vector))
        charts = realize_polygons(g, inst.boundaries, inst.labels, lengths)
        assert charts == mesh_oracle.realize_polygons(g, inst.boundaries, inst.labels, lengths)
        surface = place_surface(inst.frame, charts)
        assert surface == mesh_oracle.place_surface(inst.frame, charts)
        # the same core, from the vector on plain ints with no chart record
        assert inst.develop(vector) == surface


def _develop_error_cases():
    """(error, function name, arguments) per case, for the library and the oracle alike."""
    hexpair, spiral6 = Instance(load_bundled("hexagon-pair")), Instance(load_bundled("spiral-6"))

    def realize(inst, vector, boundaries=None):
        return "realize_polygons", (inst.g, boundaries or inst.boundaries, inst.labels,
                                    dict(zip(inst.kernel.col_edges, vector)))

    def place(shift, holonomy=True):
        # polygon 1's second side moved off the side it is glued to
        charts = _charts(hexpair, [1] * 6)
        sides = list(charts[1].sides)
        sides[1] = replace(sides[1], start=sides[1].start + shift)
        frame = hexpair.frame if holonomy else replace(hexpair.frame, non_tree=())
        return "place_surface", (frame, {**charts, 1: replace(charts[1], sides=tuple(sides))})

    # spiral-6's point with its first polygon's first side one unit longer
    # and an edge off that polygon made 0: the first polygon's closure
    # fails before a later polygon's length
    first = spiral6.boundaries[0].sides
    mixed = [x + (eid == first[0]) for x, eid in zip(_positive(spiral6, 5)[0], spiral6.kernel.col_edges)]
    mixed[next(j for j, eid in enumerate(spiral6.kernel.col_edges) if eid not in first)] = 0
    return {
        "non-closing-vector": (ClosureError, *realize(hexpair, [2, 1, 1, 1, 1, 1])),
        "zero-length-vector": (ClosureError, *realize(hexpair, [1, 1, 1, 0, 1, 1])),
        "non-closing-before-zero-length": (ClosureError, *realize(spiral6, mixed)),
        "half-integer-vector": (ClosureError, *realize(spiral6, [Fraction(x, 2) for x in _positive(spiral6, 5)[0]])),
        "corner-turn-mismatch": (ClosureError, *realize(hexpair, [1] * 6, _acute_first_corner(hexpair))),
        "chart-off-its-gluing": (GluingError, *place(DIRECTIONS[0])),
        # with the holonomy checks dropped, a side moved half a unit off the
        # lattice reaches the normalizing rotation, and one moved a whole
        # unit reaches the folded images
        "off-lattice-side": (ValueError, *place(GridPoint(1, 0), holonomy=False)),
        "two-folded-images": (GluingError, *place(GridPoint(2, 0), holonomy=False)),
    }


def _acute_first_corner(inst):
    """The boundaries with the white polygon's first corner relabelled
    acute: its unit hexagon turns one sixth there, not the two it asks."""
    b = next(b for b in inst.boundaries if b.color == "white")
    return [replace(b, corners=(ACUTE,) + b.corners[1:]) if x is b else x for x in inst.boundaries]


DEVELOP_ERROR_CASES = _develop_error_cases()


@pytest.mark.parametrize("error, name, args", DEVELOP_ERROR_CASES.values(), ids=DEVELOP_ERROR_CASES)
def test_develop_errors_match_oracle(error, name, args):
    raised = []
    for module in (geometry, mesh_oracle):
        with pytest.raises(ValueError) as info:
            getattr(module, name)(*args)
        raised.append((type(info.value), str(info.value)))
    assert raised[0] == raised[1]
    assert raised[0][0] is error


# a point of the domain that the type cannot realize: the verdict is the
# walk's, as the oracle's realization gives it
INSTANCE_DEVELOP_ERROR_CASES = {
    "corner-turn-mismatch": ("hexagon-pair", [1] * 6, True),
}


@pytest.mark.parametrize("name, vector, tamper", INSTANCE_DEVELOP_ERROR_CASES.values(),
                         ids=INSTANCE_DEVELOP_ERROR_CASES)
def test_instance_develop_errors_match_oracle(name, vector, tamper):
    # Instance.develop raises what the oracle's realization raises, type and
    # message, at the same place in the walk
    inst = Instance(load_bundled(name))
    if tamper:
        inst.boundaries = _acute_first_corner(inst)
    lengths = dict(zip(inst.kernel.col_edges, vector))
    raised = []
    for develop in (inst.develop,
                    lambda v: mesh_oracle.place_surface(
                        inst.frame, mesh_oracle.realize_polygons(inst.g, inst.boundaries, inst.labels, lengths))):
        with pytest.raises(ValueError) as info:
            develop(vector)
        raised.append((type(info.value), str(info.value)))
    assert raised[0] == raised[1]
    assert raised[0][0] is ClosureError


@pytest.mark.parametrize("name, vector, pattern", [
    ("hexagon-pair", [2, 1, 1, 1, 1, 1], r"the length vector does not solve the closure system"),
    ("hexagon-pair", [1, 1, 1, 0, 1, 1], r"a length vector needs every entry >= 1, got 0"),
    ("spiral-6", None, r"a length vector needs integer entries, got Fraction\(\d+, \d+\)"),
], ids=["non-closing-vector", "nonpositive-vector", "half-integer-vector"])
def test_instance_develop_rejects_points_outside_the_domain(name, vector, pattern):
    # a vector that is no point of the domain is the caller's error, not a
    # verdict on the type; realize_polygons, which takes any lengths, still
    # gives the walk's ClosureError on the first and third
    inst = Instance(load_bundled(name))
    if vector is None:
        vector = [Fraction(x, 2) for x in _positive(inst, 5)[0]]
    with pytest.raises(InputError, match=f"^{pattern}$"):
        inst.develop(vector)


def test_build_triangulation_checks_counts_against_chart_areas(spiral3, monkeypatch):
    # the mesh's own shoelace area of its first chart, made one too large
    surf = _first_positive_surface(spiral3, bound=3)
    area = triarea(surf.placed[min(surf.placed)].chain)
    calls = []

    def one_too_large_first(points):
        calls.append(points)
        return triarea(points) + (len(calls) == 1)

    monkeypatch.setattr(mesh, "triarea", one_too_large_first)
    with pytest.raises(MeshError, match=f"^triangulated {area} units, area holds {area + 1}$"):
        build_triangulation(surf)


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


def _edge_keys(triangles, n):
    """The key a * n + b of every edge (a, b) of every sorted id triple."""
    return [key for a, b, c in triangles for key in (a * n + b, a * n + c, b * n + c)]


def test_closed_mesh_edges_of_a_tetrahedron():
    assert _closed_mesh_edges(_edge_keys(TETRAHEDRON, 4), 4) == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def test_closed_mesh_edges_rejects_a_doubly_covered_tetrahedron():
    # every edge lies in four triangles: the sorted keys pair up evenly, so
    # only the repeats among the pairs reveal it
    with pytest.raises(MeshError, match=r"^6 edges not shared by exactly two triangles, e\.g\. \(0, 1\)$"):
        _closed_mesh_edges(_edge_keys(TETRAHEDRON + TETRAHEDRON, 4), 4)


def test_closed_mesh_edges_rejects_an_open_tetrahedron():
    with pytest.raises(MeshError, match=r"^3 edges not shared by exactly two triangles, e\.g\. \(1, 2\)$"):
        _closed_mesh_edges(_edge_keys(TETRAHEDRON[:3], 4), 4)


def _doubled_hexagon_pair(length):
    """Two copies of the hexagon pair's sphere over the same folded image,
    glued only within each copy: the copies share no vertex.  Returns the
    surface and the copies' edge id and face id offsets."""
    surf = Instance(load_bundled("hexagon-pair")).develop([length] * 6)
    frame = surf.frame
    n, m, f = 1 + max(surf.placed), 1 + max(frame.gluings), 1 + max(fid for _, _, fid, _ in frame.corners)
    placed = {**surf.placed, **{pid + n: ch for pid, ch in surf.placed.items()}}
    copies = {eid + m: replace(gl, edge_id=eid + m, white_polygon=gl.white_polygon + n,
                               black_polygon=gl.black_polygon + n)
              for eid, gl in frame.gluings.items()}
    corners = frame.corners + tuple((pid + n, side, fid + f, o + n) for pid, side, fid, o in frame.corners)
    frame = replace(frame, gluings={**frame.gluings, **copies}, corners=corners)
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
    first = Instance(load_bundled("hexagon-pair")).boundaries[0]
    side = first.sides.index(0)
    ends = (first.corner_faces[side - 1], first.corner_faces[side])
    owner = {fid: o for _, _, fid, o in frame.corners}
    corners = tuple((pid, s, fid, owner[fid - f] if fid - f in ends else o) for pid, s, fid, o in frame.corners)
    with pytest.raises(MeshError, match=r"^degree histogram \{4: 8, 6: 40, 8: 2\}, expected six 4s and the rest 6s$"):
        build_triangulation(replace(surf, frame=replace(frame, gluings=gluings, corners=corners)))


@pytest.mark.parametrize("name", ["hexagon-pair", "spiral-6"])
def test_build_triangulation_rejects_a_split_corner_owner(name):
    # one corner owned by another polygon at its face splits the face's
    # vertex in two, so the edges around it are each in one triangle
    inst = Instance(load_bundled(name))
    surf = inst.develop(_positive(inst)[0])
    corners = surf.frame.corners
    i, other = next((i, q) for i, (_, _, fid, o) in enumerate(corners)
                    for q, _, g, _ in corners if g == fid and q != o)
    pid, side, fid, _ = corners[i]
    split = corners[:i] + ((pid, side, fid, other),) + corners[i + 1:]
    build_triangulation(surf)
    with pytest.raises(MeshError, match=r"^4 edges not shared by exactly two triangles"):
        build_triangulation(replace(surf, frame=replace(surf.frame, corners=split)))
