import hashlib

import pytest

from octacolor.grid import ORIGIN, GridPoint, direction, signed_triarea


def test_directions_are_sixth_roots():
    for k in range(6):
        assert direction(k).rot(1) == direction(k + 1)
        assert direction(k).rot(3) == -direction(k)
    assert direction(0) == GridPoint(2, 0)


def test_rotation_closure_and_inverse():
    p = GridPoint(3, -5)
    for k in range(6):
        assert p.rot(k).rot(6 - k) == p
    assert p.rot(6) == p


def test_rotation_matches_values_recorded_with_rational_coordinates():
    # (X, Y, k, rotated X, rotated Y) over every lattice point with
    # |X|, |Y| <= 4 and k = -6..6, hashed when points held Fraction (x, y)
    rows = [(X, Y, k, *GridPoint(X, Y).rot(k))
            for X in range(-4, 5) for Y in range(-4, 5) if (X - Y) % 2 == 0
            for k in range(-6, 7)]
    assert len(rows) == 533
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == \
        "279938c191e2d3f735f786008ebd4c7e781fc748edc8be89afcd95e2678d85ed"


@pytest.mark.parametrize("k", [0, 1, 5])
def test_rotation_rejects_off_lattice(k):
    # a sixth turn of (1/2, 0) leaves the half-integer grid; never floor it
    with pytest.raises(ValueError, match="not a lattice point"):
        GridPoint(1, 0).rot(k)


def test_conjugation_reflects():
    p = GridPoint(1, 1)
    assert p.conj() == GridPoint(1, -1)
    assert p.conj().conj() == p


def test_lattice_predicate():
    assert ORIGIN.is_lattice_point()
    assert GridPoint(2, 0).is_lattice_point()
    assert GridPoint(1, 1).is_lattice_point()
    assert not GridPoint(1, 0).is_lattice_point()
    assert not GridPoint(0, -3).is_lattice_point()


def test_grid_point_is_its_doubled_pair():
    # the mesh keys plain (X, Y) tuples; GridPoints must find them
    assert GridPoint(3, -1) == (3, -1)
    assert hash(GridPoint(3, -1)) == hash((3, -1))
    assert sorted([GridPoint(1, 1), GridPoint(-2, 0), GridPoint(1, -1)]) == [(-2, 0), (1, -1), (1, 1)]


def test_lattice_coords_roundtrip():
    for a in range(-3, 4):
        for b in range(-3, 4):
            p = direction(0).scale(a) + direction(1).scale(b)
            assert p.lattice_coords() == (a, b)


def test_color_classes_distinguish_unit_neighbors():
    for a in range(-2, 3):
        for b in range(-2, 3):
            p = direction(0).scale(a) + direction(1).scale(b)
            for k in range(6):
                q = p + direction(k)
                assert p.color_class() != q.color_class()


def test_lattice_coords_rejects_off_lattice():
    with pytest.raises(ValueError):
        GridPoint(1, 0).lattice_coords()


def test_signed_triarea_unit_triangle():
    pts = [ORIGIN, direction(0), direction(1)]
    assert signed_triarea(pts) == 1
    assert signed_triarea(list(reversed(pts))) == -1


def test_signed_triarea_hexagon():
    pts = [ORIGIN]
    for k in range(5):
        pts.append(pts[-1] + direction(k))
    assert signed_triarea(pts) == 6


def test_signed_triarea_rejects_half_triangle():
    # (0, 0), (1/2, 0), (0, sqrt3/2) encloses half a unit triangle
    with pytest.raises(ValueError, match="whole number"):
        signed_triarea([ORIGIN, GridPoint(1, 0), GridPoint(0, 1)])
