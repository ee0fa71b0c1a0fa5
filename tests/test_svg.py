from octacolor import svg
from octacolor.geometry import develop_net, unit_triangulate
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
    assert outlines * 3 == inst.form.value(dict(zip(inst.kernel.col_edges, vector)))


def test_overlay_draws_two_arcs_per_blue_edge(spiral3):
    *_, surface = _realized(spiral3)
    net = develop_net(surface)
    text = render_net(spiral3, surface, net, overlay_dual=True)
    blue_arcs = text.count("#1565C0")
    assert blue_arcs == 2 * len(spiral3.blue_edges())
    assert text.count("#C62828") == 2 * len(spiral3.red_edges())


def test_polygon_fills_match_colors(spiral3):
    *_, surface = _realized(spiral3)
    net = develop_net(surface)
    text = render_net(spiral3, surface, net)
    whites = sum(1 for b in surface.frame.boundaries if b.color == "white")
    assert text.count('fill="#FFFFFF"') == whites
    assert text.count('fill="#202020"') == len(surface.frame.boundaries) - whites


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

    def counting(chart):
        calls.append(chart)
        return unit_triangulate(chart)

    monkeypatch.setattr(svg, "unit_triangulate", counting)
    assert render_net(spiral3, surface, net, triangles=True, vertex_colors=True) == want
    assert len(calls) == len(net.points)
