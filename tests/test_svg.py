from fractions import Fraction

from octacolor import mesh, svg
from octacolor.emg import trace_faces
from octacolor.families import load_bundled
from octacolor.mesh import unit_triangulate
from octacolor.net import develop_net
from octacolor.pipeline import Instance
from octacolor.svg import render_net


def _realized(g, bound=3):
    """The instance, its first strictly positive point within ``bound`` and
    that point's surface."""
    inst = Instance(g)
    vector = next(p.vector for p in inst.lattice_points(bound) if p.strictly_positive)
    return inst, vector, inst.develop(vector)


def test_triangle_grid_count_matches_form_value(spiral3):
    # cross-module identity: triangle outlines drawn = Q(V, V) / 3
    inst, vector, surface = _realized(spiral3)
    net = develop_net(surface)
    text = render_net(spiral3, surface, net, triangles=True)
    outlines = text.count('fill="none"')
    assert outlines * 3 == inst.form.value(vector)


def test_overlay_draws_two_arcs_per_blue_edge(spiral3):
    *_, surface = _realized(spiral3)
    net = develop_net(surface)
    text = render_net(spiral3, surface, net, overlay_dual=True)
    blue_arcs = text.count("#1565C0")
    assert blue_arcs == 2 * len(spiral3.blue_edges())
    assert text.count("#C62828") == 2 * len(spiral3.red_edges())


def test_red_arc_hugs_the_parallel_side_of_its_own_face():
    # spiral-8's red edge 122 joins the ends of blue 110 and of its parallel
    # double 116; only 116 bounds the quadrilateral holding the red edge
    g = load_bundled("spiral-8")
    faces = trace_faces(g)
    (face,) = [faces.faces[fid] for fid, reds in faces.contained_reds.items() if 122 in reds]
    assert 116 in face.edge_ids() and 110 not in face.edge_ids()
    *_, surface = _realized(g, bound=5)
    net = develop_net(surface)
    text = render_net(g, surface, net, overlay_dual=True)
    red_ends = {line.split('"')[1].split()[1] for line in text.splitlines() if svg.RED_EDGE in line}

    def arc_end(pid, eid):
        side = next(s for s in surface.placed[pid].sides if s.edge_id == eid)
        t = net.transforms[pid]
        mid = svg._between(t.apply(side.start), t.apply(side.end), Fraction(1, 2))
        x, y = svg._xy(svg._between(mid, svg._centroid(net.points[pid]), Fraction(1, 5)))
        return f"{svg._fmt(x)},{svg._fmt(y)}"

    for eid, drawn in ((116, True), (110, False)):
        gluing = surface.frame.gluings[eid]
        for pid in (gluing.white_polygon, gluing.black_polygon):
            assert (arc_end(pid, eid) in red_ends) is drawn, (eid, pid)


def test_polygon_fills_match_colors(spiral3):
    *_, surface = _realized(spiral3)
    net = develop_net(surface)
    text = render_net(spiral3, surface, net)
    whites = sum(1 for v in spiral3.vertices if v.color == "white")
    assert text.count('fill="#FFFFFF"') == whites
    assert text.count('fill="#202020"') == len(spiral3.vertices) - whites


def test_svg_viewbox_padding_is_deterministic(hexpair):
    *_, surface = _realized(hexpair, bound=1)
    net = develop_net(surface)
    a = render_net(hexpair, surface, net, triangles=True, vertex_colors=True)
    b = render_net(hexpair, surface, net, triangles=True, vertex_colors=True)
    assert a == b
    assert a.startswith("<svg ")
    assert a.rstrip().endswith("</svg>")


def test_render_net_triangulates_each_chart_once(spiral3, monkeypatch):
    *_, surface = _realized(spiral3)
    net = develop_net(surface)
    want = render_net(spiral3, surface, net, triangles=True, vertex_colors=True)
    calls = []

    def counting(start, sides):
        calls.append(start)
        return unit_triangulate(start, sides)

    # render_net looks the function up in mesh when it is called
    monkeypatch.setattr(mesh, "unit_triangulate", counting)
    assert render_net(spiral3, surface, net, triangles=True, vertex_colors=True) == want
    assert len(calls) == len(net.points)
