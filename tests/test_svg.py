from octacolor import svg
from octacolor.cone import enumerate_lattice_points, lattice_basis
from octacolor.geometry import develop_net, develop_surface, realize_polygons, unit_triangulate
from octacolor.labeling import assign_labels, polygon_boundaries
from octacolor.qform import assemble_form, restrict_form
from octacolor.shapesys import build_constraints, kernel_basis
from octacolor.svg import render_net


def _realized(g, bound=3):
    bnds = polygon_boundaries(g)
    labels = assign_labels(g, bnds)
    kernel = kernel_basis(build_constraints(g, bnds, labels))
    lb = lattice_basis(kernel)
    point = next(p for p in enumerate_lattice_points(lb, bound) if p.strictly_positive)
    lengths = dict(zip(kernel.col_edges, point.vector))
    charts = realize_polygons(g, bnds, labels, lengths)
    surface = develop_surface(g, bnds, charts)
    form = restrict_form(assemble_form(g, bnds), kernel)
    return bnds, lengths, surface, form


def test_triangle_grid_count_matches_form_value(spiral3):
    # cross-module identity: triangle outlines drawn = Q(V, V) / 3
    _, lengths, surface, form = _realized(spiral3)
    net = develop_net(surface)
    text = render_net(spiral3, surface, net, triangles=True)
    outlines = text.count('fill="none"')
    assert outlines * 3 == form.value(lengths)


def test_overlay_draws_two_arcs_per_blue_edge(spiral3):
    _, _, surface, _ = _realized(spiral3)
    net = develop_net(surface)
    text = render_net(spiral3, surface, net, overlay_dual=True)
    blue_arcs = text.count("#1565C0")
    assert blue_arcs == 2 * len(spiral3.blue_edges())
    assert text.count("#C62828") == 2 * len(spiral3.red_edges())


def test_polygon_fills_match_colors(spiral3):
    _, _, surface, _ = _realized(spiral3)
    net = develop_net(surface)
    text = render_net(spiral3, surface, net)
    whites = sum(1 for b in surface.frame.boundaries if b.color == "white")
    assert text.count('fill="#FFFFFF"') == whites
    assert text.count('fill="#202020"') == len(surface.frame.boundaries) - whites


def test_svg_viewbox_padding_is_deterministic(hexpair):
    _, _, surface, _ = _realized(hexpair, bound=1)
    net = develop_net(surface)
    a = render_net(hexpair, surface, net, triangles=True, vertex_colors=True)
    b = render_net(hexpair, surface, net, triangles=True, vertex_colors=True)
    assert a == b
    assert a.startswith("<svg ")
    assert a.rstrip().endswith("</svg>")


def test_render_net_triangulates_each_chart_once(spiral3, monkeypatch):
    _, _, surface, _ = _realized(spiral3)
    net = develop_net(surface)
    want = render_net(spiral3, surface, net, triangles=True, vertex_colors=True)
    calls = []

    def counting(chart):
        calls.append(chart)
        return unit_triangulate(chart)

    monkeypatch.setattr(svg, "unit_triangulate", counting)
    assert render_net(spiral3, surface, net, triangles=True, vertex_colors=True) == want
    assert len(calls) == len(net.points)
