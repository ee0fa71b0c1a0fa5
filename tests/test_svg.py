from fractions import Fraction

import pytest

from octacolor import mesh, svg
from octacolor.cli import main
from octacolor.emg import trace_faces
from octacolor.families import load_bundled
from octacolor.grid import GridPoint
from octacolor.net import develop_net
from octacolor.pipeline import Instance
from octacolor.svg import render_net


def _realized(g, bound=3):
    """The instance, its first strictly positive point within ``bound``,
    that point's surface and its colored mesh."""
    inst = Instance(g)
    vector = next(p.vector for p in inst.lattice_points(bound) if p.strictly_positive)
    surface, tri, _ = inst.realize(vector)
    return inst, vector, surface, tri


def test_triangle_grid_count_matches_form_value(spiral3):
    # cross-module identity: triangle outlines drawn = Q(V, V) / 3
    inst, vector, surface, tri = _realized(spiral3)
    net = develop_net(surface)
    text = render_net(spiral3, surface, net, triangles=True, mesh=tri)
    outlines = text.count('fill="none"')
    assert outlines * 3 == inst.form.value(vector)


def test_overlay_draws_two_arcs_per_blue_edge(spiral3):
    _, _, surface, _ = _realized(spiral3)
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
    _, _, surface, _ = _realized(g, bound=5)
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
    _, _, surface, _ = _realized(spiral3)
    net = develop_net(surface)
    text = render_net(spiral3, surface, net)
    whites = sum(1 for v in spiral3.vertices if v.color == "white")
    assert text.count('fill="#FFFFFF"') == whites
    assert text.count('fill="#202020"') == len(spiral3.vertices) - whites


def test_svg_viewbox_padding_is_deterministic(hexpair):
    _, _, surface, tri = _realized(hexpair, bound=1)
    net = develop_net(surface)
    a = render_net(hexpair, surface, net, triangles=True, vertex_colors=True, mesh=tri)
    b = render_net(hexpair, surface, net, triangles=True, vertex_colors=True, mesh=tri)
    assert a == b
    assert a.startswith("<svg ")
    assert a.rstrip().endswith("</svg>")


def test_render_builds_and_colors_one_mesh(capsys, monkeypatch):
    # the grid and the dots are the realization's mesh: one build, one
    # coloring, no chart cut again and no dot colored a second way
    argv = ["render", "--family", "spiral", "--k", "3", "--max-len", "3", "--point", "0",
            "--triangles", "--vertex-colors"]
    assert main(argv) == 0
    want = capsys.readouterr().out
    calls = []

    def counting(name):
        real = getattr(mesh, name)
        monkeypatch.setattr(mesh, name, lambda *a: calls.append(name) or real(*a))

    for name in ("build_triangulation", "four_color", "unit_triangulate"):
        counting(name)
    color_class = GridPoint.color_class
    monkeypatch.setattr(GridPoint, "color_class", lambda p: calls.append("color_class") or color_class(p))
    assert main(argv) == 0
    assert capsys.readouterr().out == want
    assert calls == ["build_triangulation", "four_color"]


@pytest.mark.parametrize("flags", [{"triangles": True}, {"vertex_colors": True}])
def test_the_grid_and_the_dots_need_the_mesh(hexpair, flags):
    _, _, surface, _ = _realized(hexpair, bound=1)
    with pytest.raises(ValueError, match="pass it as mesh"):
        render_net(hexpair, surface, develop_net(surface), **flags)
