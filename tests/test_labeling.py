import pytest

from octacolor.emg import BLACK, WHITE, EnhancedMultigraph, check_well_formed, validate_plausible
from octacolor.labeling import (ACUTE, OBTUSE, BoundaryError, HolonomyError,
                                assign_labels, polygon_boundaries)


def test_hexagon_boundary(hexpair):
    white = polygon_boundaries(hexpair)[0]
    assert white.n_sides == 6
    assert set(white.corners) == {OBTUSE}
    assert white.slots == (0, 1, 2, 3, 4, 5)


def test_spiral_boundaries_cover_all_shapes(spiral3):
    bnds = {b.vertex_id: b for b in polygon_boundaries(spiral3)}
    by_sides = sorted(b.n_sides for b in bnds.values())
    # two quadrilaterals, one triangle, one pentagon, two hexagons
    assert by_sides == [3, 4, 4, 5, 6, 6]
    for b in bnds.values():
        assert b.n_sides + b.corners.count(ACUTE) == 6
        assert len(set(b.slots)) == b.n_sides


def test_triangle_slots(spiral3):
    tri = next(b for b in polygon_boundaries(spiral3) if b.n_sides == 3)
    assert tri.corners == (ACUTE, ACUTE, ACUTE)
    assert tri.slots == (0, 2, 4)


def test_trapezoid_slots(spiral3):
    # a four-sided polygon whose long side is flanked by the two acute corners
    quads = [b for b in polygon_boundaries(spiral3) if b.n_sides == 4]
    trapezoids = [b for b in quads if b.corners.count(ACUTE) == 2
                  and b.corners[-1] == ACUTE and b.corners[0] == ACUTE]
    assert any(b.slots == (0, 2, 3, 4) for b in trapezoids)


def test_hexagon_labels_run_zero_to_five(hexpair):
    bnds = polygon_boundaries(hexpair)
    labels = assign_labels(hexpair, bnds, seed_flag=(0, 0))
    exp = labels.exponents
    white = bnds[0]
    assert [exp[eid] for eid in white.sides] == [0, 1, 2, 3, 4, 5]


def test_spiral_labels_consistent(spiral3):
    bnds = polygon_boundaries(spiral3)
    labels = assign_labels(spiral3, bnds)
    exp = labels.exponents
    assert set(exp) == {e.id for e in spiral3.blue_edges()}
    # every polygon closes directionally: slot walk matches label increments
    for b in bnds:
        sign = 1 if b.color == WHITE else -1
        base = (exp[b.sides[0]] - sign * b.slots[0]) % 6
        for eid, slot in zip(b.sides, b.slots):
            assert exp[eid] == (base + sign * slot) % 6


def test_reseeding_is_global_rotation(spiral3):
    bnds = polygon_boundaries(spiral3)
    base = assign_labels(spiral3, bnds).exponents
    for b in bnds[:3]:
        for eid in b.sides[:2]:
            other = assign_labels(spiral3, bnds, seed_flag=(b.vertex_id, eid)).exponents
            diffs = {(other[e] - base[e]) % 6 for e in base}
            assert len(diffs) == 1
            assert other[eid] == 0


def test_edge_listed_twice_in_one_boundary_is_a_conflict(hexpair):
    # a loop edge bounds one polygon twice, at two slots, and no other
    # polygon; each side reads its own slot, so the edge gets two exponents
    white, black = polygon_boundaries(hexpair)
    assert white.slots == (0, 1, 2, 3, 4, 5)
    looped = white._replace(sides=white.sides[:4] + (99, 99))
    with pytest.raises(HolonomyError, match="edge 99 receives exponents 4 and 5"):
        assign_labels(hexpair, [looped, black], seed_flag=(white.vertex_id, white.sides[0]))


def test_seed_flag_must_be_incident(spiral3):
    bnds = polygon_boundaries(spiral3)
    with pytest.raises(ValueError):
        assign_labels(spiral3, bnds, seed_flag=(0, 10 ** 9))


def _move_red_dart(g, red_id, end, shift):
    emap = g.edge_map()
    vid = emap[red_id].endpoint(end)
    rots = dict(g.rotations)
    rot = list(rots[vid])
    i = rot.index((red_id, end))
    dart = rot.pop(i)
    rot.insert((i + shift) % (len(rot) + 1), dart)
    rots[vid] = tuple(rot)
    return EnhancedMultigraph(g.vertices, g.edges, tuple(sorted(rots.items())))


def test_moved_red_dart_breaks_labeling(spiral3):
    # sliding one red dart to another corner wrecks the direction structure:
    # validation rejects it, and label propagation sees the contradiction
    hit_holonomy = False
    for red in spiral3.red_edges():
        for end in (0, 1):
            for shift in (1, 2, 3):
                mutant = _move_red_dart(spiral3, red.id, end, shift)
                check_well_formed(mutant)
                if validate_plausible(mutant).plausible:
                    continue
                try:
                    bnds = polygon_boundaries(mutant)
                except BoundaryError:
                    continue
                try:
                    assign_labels(mutant, bnds)
                except HolonomyError:
                    hit_holonomy = True
    assert hit_holonomy


def test_every_edge_sees_opposite_traversals(spiral3):
    # each blue edge bounds one white and one black polygon, so the stored
    # exponent is the white direction and the black side runs opposite
    bnds = polygon_boundaries(spiral3)
    colors = {}
    for b in bnds:
        for eid in b.sides:
            colors.setdefault(eid, []).append(b.color)
    assert all(sorted(v) == [BLACK, WHITE] for v in colors.values())
