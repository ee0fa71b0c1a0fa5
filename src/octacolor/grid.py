"""Exact planar points on the sixth-root-of-unity grid, in integers.

A :class:`GridPoint` ``(X, Y)`` holds doubled coordinates: it represents the
planar point ``(X/2, (Y/2)*sqrt(3))``.  The unit directions are then the
integer pairs (2, 0), (1, 1), (-1, 1), (-2, 0), (-1, -1) and (1, -1), and the
unit triangular (Eisenstein) lattice is the set of pairs with X = Y mod 2.
Every polygon corner, folded image and net point of an integer-sided
realization is a lattice point, so all of the geometry stays in integers:
rationals appear only in JSON and floats only in SVG.

GridPoint is a named pair, so it sorts as ``(x, y)`` does and compares and
hashes equal to the plain tuple ``(X, Y)``.
"""

from __future__ import annotations

from typing import NamedTuple


class GridPoint(NamedTuple):
    X: int
    Y: int

    def __add__(self, other) -> "GridPoint":
        return GridPoint(self[0] + other[0], self[1] + other[1])

    def __sub__(self, other) -> "GridPoint":
        return GridPoint(self[0] - other[0], self[1] - other[1])

    def __neg__(self) -> "GridPoint":
        return GridPoint(-self[0], -self[1])

    def scale(self, n: int) -> "GridPoint":
        return GridPoint(self[0] * n, self[1] * n)

    def rot(self, k: int) -> "GridPoint":
        """Rotate a lattice point by k sixth turns (multiplication by the
        k-th unit direction), as ``SIXTH_TURNS[k % 6]`` maps it; any point
        off the lattice raises ValueError."""
        X, Y = self
        if (X - Y) % 2:
            raise ValueError(f"{self} is not a lattice point")
        a, b, c, d = SIXTH_TURNS[k % 6]
        return GridPoint((a * X + b * Y) // 2, (c * X + d * Y) // 2)

    def conj(self) -> "GridPoint":
        """Reflect across the real axis."""
        return GridPoint(self[0], -self[1])

    def is_lattice_point(self) -> bool:
        """Whether this is a point of the unit triangular (Eisenstein) lattice."""
        return (self[0] - self[1]) % 2 == 0

    def lattice_coords(self) -> tuple[int, int]:
        """Integer coordinates (a, b) with point = a*u0 + b*u1.

        u0 is the unit direction along the real axis and u1 the direction
        one sixth turn on.  Raises ValueError off the lattice.
        """
        if not self.is_lattice_point():
            raise ValueError(f"{self} is not a lattice point")
        return (self[0] - self[1]) // 2, self[1]

    def color_class(self) -> int:
        """Residue class in (lattice / 2*lattice), encoded 0..3."""
        a, b = self.lattice_coords()
        return 2 * (a & 1) + (b & 1)


ORIGIN = GridPoint(0, 0)

# Unit directions at angles k*pi/3, k = 0..5, in doubled coordinates.
DIRECTIONS: tuple[GridPoint, ...] = (
    GridPoint(2, 0), GridPoint(1, 1), GridPoint(-1, 1),
    GridPoint(-2, 0), GridPoint(-1, -1), GridPoint(1, -1),
)


# k sixth turns map a lattice point (X, Y) to ((aX + bY)/2, (cX + dY)/2), with
# (a, b, c, d) = SIXTH_TURNS[k]: one turn is ((X - 3Y)/2, (X + Y)/2).
SIXTH_TURNS: tuple[tuple[int, int, int, int], ...] = (
    (2, 0, 0, 2), (1, -3, 1, 1), (-1, -3, 1, -1),
    (-2, 0, 0, -2), (-1, 3, -1, -1), (1, 3, -1, 1),
)


def direction(k: int) -> GridPoint:
    return DIRECTIONS[k % 6]


def signed_triarea(points) -> int:
    """Signed area of a closed chain in units of one unit equilateral triangle.

    Positive for counterclockwise chains.  The shoelace sum in doubled
    coordinates is twice that area; a chain whose area is not a whole
    number of unit triangles raises ValueError.
    """
    n = len(points)
    total = 0
    for i in range(n):
        p, q = points[i], points[(i + 1) % n]
        total += p[0] * q[1] - q[0] * p[1]
    half, odd = divmod(total, 2)
    if odd:
        raise ValueError(f"chain area {total}/2 is not a whole number of unit triangles")
    return half
