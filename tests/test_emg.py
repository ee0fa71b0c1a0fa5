import contextlib
import io
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from octacolor.cli import main
from octacolor.emg import (BLUE, RED, WHITE, BLACK, EmgError, EnhancedMultigraph,
                           Edge, Vertex, check_well_formed, parse_emg, render_emg,
                           trace_faces, validate_plausible)
from octacolor.families import bundled_names, load_bundled
from octacolor.labeling import BoundaryError, polygon_boundaries

MINIMAL = """
# smallest well-formed input
vertex 0 W
vertex 1 B
edge 0 0 1 blue
rot 0 0:0
rot 1 0:1
"""


def test_parse_minimal():
    g = parse_emg(MINIMAL)
    assert len(g.vertices) == 2
    assert len(g.edges) == 1
    assert g.vertices[0].color == WHITE


def test_parse_unknown_vertex():
    bad = MINIMAL.replace("edge 0 0 1 blue", "edge 0 0 99 blue")
    with pytest.raises(EmgError, match="unknown vertex 99"):
        parse_emg(bad)


def test_parse_sparse_ids():
    text = (
        "vertex 5 W\nvertex 17 B\n"
        "edge 9 5 17 blue\n"
        "rot 5 9:0\nrot 17 9:1\n")
    g = parse_emg(text)
    assert {v.id for v in g.vertices} == {5, 17}
    assert g.edges[0].id == 9
    assert parse_emg(render_emg(g)) == g


def test_parse_reports_line_numbers():
    with pytest.raises(EmgError, match="line 2"):
        parse_emg("vertex 0 W\nvertex 1 Q\n")


def test_parse_rejects_duplicate_dart():
    bad = MINIMAL.replace("rot 1 0:1", "rot 1 0:0")
    with pytest.raises(EmgError):
        parse_emg(bad)


def test_parse_rejects_rotation_split_over_two_records(hexpair):
    # every dart still sits in exactly one slot, but vertex 0 has two rotations
    text = render_emg(hexpair).replace("rot 0 0:0 1:0 2:0 3:0 4:0 5:0",
                                              "rot 0 0:0 1:0 2:0\nrot 0 3:0 4:0 5:0")
    with pytest.raises(EmgError, match="duplicate rotation"):
        parse_emg(text)


def test_roundtrip_spiral(spiral3):
    assert parse_emg(render_emg(spiral3)) == EnhancedMultigraph(
        tuple(sorted(spiral3.vertices, key=lambda v: v.id)),
        tuple(sorted(spiral3.edges, key=lambda e: e.id)),
        tuple(sorted(spiral3.rotations)))


def test_roundtrip_minimal():
    g = parse_emg(MINIMAL)
    assert parse_emg(render_emg(g)) == g


def test_single_loop_two_faces():
    g = EnhancedMultigraph(
        (Vertex(0, WHITE),),
        (Edge(0, 0, 0, BLUE),),
        ((0, ((0, 0), (0, 1))),))
    check_well_formed(g)
    faces = trace_faces(g)
    assert len(faces.faces) == 2
    assert faces.euler_characteristic == 2


def test_blue_trace_spiral(spiral3):
    faces = trace_faces(spiral3)
    kinds = sorted(f.kind for f in faces.faces)
    assert kinds.count("bigon") == 6
    assert kinds.count("quadrilateral") == 4
    assert faces.euler_characteristic == 2


@given(st.integers(0, 10 ** 6))
@settings(max_examples=25, deadline=None)
def test_face_multiset_invariant_under_rotation_shift(seed):
    from octacolor.families import gen_spiral
    g = gen_spiral(3)
    import random
    rng = random.Random(seed)
    rotations = tuple(
        (vid, rot[(s := rng.randrange(len(rot))):] + rot[:s])
        for vid, rot in g.rotations)
    shifted = EnhancedMultigraph(g.vertices, g.edges, rotations)
    check_well_formed(shifted)
    orig = sorted(sorted(f.edge_ids()) for f in trace_faces(g).faces)
    new = sorted(sorted(f.edge_ids()) for f in trace_faces(shifted).faces)
    assert orig == new


@st.composite
def swapped_or_edge_recolored_bundled(draw):
    """A bundled instance with a few rotation entries swapped within their
    vertex or a few edges recoloured between blue and red."""
    g = load_bundled(draw(st.sampled_from(bundled_names())))
    edges = list(g.edges)
    rots = [list(rot) for _, rot in g.rotations]
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            rot = draw(st.sampled_from(rots))
            i, j = draw(st.lists(st.integers(0, len(rot) - 1), min_size=2, max_size=2, unique=True))
            rot[i], rot[j] = rot[j], rot[i]
        else:
            i = draw(st.integers(0, len(edges) - 1))
            edges[i] = edges[i]._replace(color=RED if edges[i].color == BLUE else BLUE)
    rotations = tuple((vid, tuple(rot)) for (vid, _), rot in zip(g.rotations, rots))
    return g._replace(edges=tuple(edges), rotations=rotations)


def _walked_red_corners(g):
    """Each blue dart's corner found by stepping counterclockwise from it
    to the next blue dart, kept when it holds a red dart."""
    blue = {e.id for e in g.blue_edges()}
    out = {}
    for _, rot in g.rotations:
        n = len(rot)
        for i, dart in enumerate(rot):
            if dart[0] not in blue:
                continue
            corner = [dart]
            step = 1
            while rot[(i + step) % n][0] not in blue:
                corner.append(rot[(i + step) % n])
                step += 1
            corner.append(rot[(i + step) % n])
            if len(corner) > 2:
                out[dart] = tuple(corner)
    return out


@settings(max_examples=150, deadline=None)
@given(swapped_or_edge_recolored_bundled())
def test_red_corners_match_a_walk_of_each_rotation(g):
    red_corners = trace_faces(g).red_corners
    assert red_corners == _walked_red_corners(g)
    held = Counter(d for corner in red_corners.values() for d in corner[1:-1])
    blue = {e.id for e in g.blue_edges()}
    for _, rot in g.rotations:
        if any(d[0] in blue for d in rot):
            assert all(held[d] == 1 for d in rot if d[0] not in blue)


def _spiral6_with_red(eids):
    g = load_bundled("spiral-6")
    return g._replace(edges=tuple(e._replace(color=RED) if e.id in eids else e for e in g.edges))


def test_a_corner_with_two_red_darts():
    g = _spiral6_with_red({102})
    faces = trace_faces(g)
    assert faces.red_corners[(104, 0)] == ((104, 0), (117, 1), (102, 1), (109, 0))
    with pytest.raises(BoundaryError, match=r"^vertex 0: corner after side \(104, 0\) holds 2 red darts$"):
        polygon_boundaries(g, faces)
    assert [f.message for f in validate_plausible(g, faces).findings[:3]] == [
        "blue face 0 has 6 sides, expected 2 or 4",
        "red edge 102 lies in no quadrilateral face",
        "red edge 114 lies in no quadrilateral face"]


def test_a_vertex_with_no_blue_dart():
    g = _spiral6_with_red({e.id for e in load_bundled("spiral-6").blue_edges() if 0 in e.endpoints})
    faces = trace_faces(g)
    assert not any(d in faces.red_corners for d in dict(g.rotations)[0])
    assert faces.contained_reds == {0: (114, 115), 1: (116,)}
    with pytest.raises(BoundaryError, match="^vertex 0 has no blue sides$"):
        polygon_boundaries(g, faces)
    assert len(validate_plausible(g, faces).findings) == 11


def test_validate_spiral3(spiral3):
    rep = validate_plausible(spiral3)
    assert rep.plausible
    assert rep.counts == {"V": 6, "E_b": 14, "E_red": 4, "bigons": 6, "quads": 4}


def test_validate_hexpair(hexpair):
    rep = validate_plausible(hexpair)
    assert rep.plausible
    assert rep.counts == {"V": 2, "E_b": 6, "E_red": 0, "bigons": 6, "quads": 0}


def test_blue_face_count_identity(spiral3, hexpair):
    # 2 F_b = E_b + 6 on every plausible instance
    from octacolor.families import bundled_names, load_bundled
    graphs = [spiral3, hexpair] + [load_bundled(n) for n in bundled_names()]
    for g in graphs:
        faces = trace_faces(g)
        assert 2 * len(faces.faces) == len(g.blue_edges()) + 6


def test_validate_detects_missing_red(spiral3):
    red = spiral3.red_edges()[0]
    edges = tuple(e for e in spiral3.edges if e.id != red.id)
    rotations = tuple((vid, tuple(d for d in rot if d[0] != red.id))
                      for vid, rot in spiral3.rotations)
    g = EnhancedMultigraph(spiral3.vertices, edges, rotations)
    check_well_formed(g)
    rep = validate_plausible(g)
    assert not rep.plausible
    rules = {f.rule for f in rep.findings}
    assert "degree-six" in rules
    assert "red-placement" in rules


def test_degree_seven_vertex_yields_one_finding():
    # a second red edge beside an existing one: each endpoint has degree 7,
    # which the degree rule reports once, with its blue/red split
    g = load_bundled("spiral-6")
    red = g.red_edges()[0]
    extra = Edge(max(e.id for e in g.edges) + 1, red.a, red.b, red.color)

    def twinned(rot):
        for d in rot:
            yield d
            if d[0] == red.id:
                yield extra.id, d[1]

    g = EnhancedMultigraph(g.vertices, g.edges + (extra,),
                           tuple((vid, tuple(twinned(rot))) for vid, rot in g.rotations))
    check_well_formed(g)
    rep = validate_plausible(g)
    assert not rep.plausible and {red.a, red.b} == {3, 4}
    for vid, split in ((3, "4 blue, 3 red"), (4, "3 blue, 4 red")):
        at = [f for f in rep.findings if f.message.startswith(f"vertex {vid} ")]
        assert at == [("degree-six", "error", f"vertex {vid} has degree 7 ({split}), expected 6")]


def test_validate_detects_monochrome_blue_edge(spiral3):
    # recolor one endpoint so some blue edge joins two same-colored polygons
    v0 = spiral3.vertices[0]
    flipped = Vertex(v0.id, BLACK if v0.color == WHITE else WHITE)
    g = EnhancedMultigraph((flipped,) + spiral3.vertices[1:], spiral3.edges, spiral3.rotations)
    rep = validate_plausible(g)
    assert not rep.plausible
    assert "bipartite" in {f.rule for f in rep.findings}


def test_validation_reports_are_complete_not_first_failure(spiral3):
    red = spiral3.red_edges()[0]
    edges = tuple(e for e in spiral3.edges if e.id != red.id)
    rotations = tuple((vid, tuple(d for d in rot if d[0] != red.id))
                      for vid, rot in spiral3.rotations)
    rep = validate_plausible(EnhancedMultigraph(spiral3.vertices, edges, rotations))
    # degree failures at both endpoints plus the red placement failures
    assert len(rep.errors()) >= 3


def _parses_or_emg_error(text: str) -> bool:
    """Whether ``text`` parses; any exception other than EmgError escapes."""
    try:
        parse_emg(text)
    except EmgError:
        return False
    return True


def _validate_exit(text: str, path) -> int:
    """Exit status of ``validate --input`` on ``text``; a traceback escapes.
    A lone surrogate is written as its UTF-8 pattern, which no UTF-8
    decoder accepts, so the file holds bytes that are not UTF-8."""
    path.write_bytes(text.encode("utf-8", "surrogatepass"))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(["validate", "--input", str(path)])


@pytest.fixture(scope="module")
def emg_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.emg"


@settings(max_examples=150, deadline=None)
@given(st.text(alphabet=st.sampled_from(list("vertexdgrobluB W0123456789:#-\n\t")) | st.characters(),
               max_size=200))
@example("\ud800")
@example("# \udfff\n")
def test_parse_raw_text_raises_only_emg_error(emg_path, text):
    parsed = _parses_or_emg_error(text)
    utf8 = not any("\ud800" <= c <= "\udfff" for c in text)
    assert _validate_exit(text, emg_path) in ((0, 1) if parsed and utf8 else (2,))


_TOKENS = ["-1", "0", "1", "2", "5", "99", "x", "", ":", "0:2", "1:0:1", "0:-1", "B", "W",
           "red", "blue", "vertex", "edge", "rot", "#"]


@st.composite
def mutated_bundled_emg(draw):
    """A bundled instance with a few lines dropped, duplicated, swapped, or
    with one token replaced or two tokens exchanged."""
    lines = render_emg(load_bundled(draw(st.sampled_from(bundled_names())))).splitlines()
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(lines) - 1))
        fields = lines[i].split()
        op = draw(st.sampled_from(["drop", "dup", "swap-lines", "token", "swap-tokens"]))
        if op == "drop" and len(lines) > 1:
            del lines[i]
        elif op == "dup":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        elif op == "swap-lines":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "token":
            j = draw(st.integers(0, len(fields) - 1))
            fields[j] = draw(st.sampled_from(_TOKENS) | st.text(max_size=3))
            lines[i] = " ".join(fields)
        elif op == "swap-tokens":
            j, k = draw(st.integers(0, len(fields) - 1)), draw(st.integers(0, len(fields) - 1))
            fields[j], fields[k] = fields[k], fields[j]
            lines[i] = " ".join(fields)
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None)
@given(mutated_bundled_emg())
def test_parse_mutated_bundled_raises_only_emg_error(emg_path, text):
    parsed = _parses_or_emg_error(text)
    assert _validate_exit(text, emg_path) in ((0, 1) if parsed else (2,))
