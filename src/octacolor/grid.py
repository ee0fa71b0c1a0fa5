"""Exact planar points on the sixth-root-of-unity grid.

A :class:`GridPoint` with coordinates ``(x, y)`` represents the planar point
``(x, y*sqrt(3))``.  In this chart every sixth root of unity has rational
coordinates, so all the geometry of unit-direction polygons stays in exact
rational arithmetic; floats appear only when rendering.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True, order=True)
class GridPoint:
    x: Fraction
    y: Fraction

    def __add__(self, other: "GridPoint") -> "GridPoint":
        return GridPoint(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "GridPoint") -> "GridPoint":
        return GridPoint(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "GridPoint":
        return GridPoint(-self.x, -self.y)

    def scale(self, r) -> "GridPoint":
        r = Fraction(r)
        return GridPoint(self.x * r, self.y * r)

    def rot(self, k: int) -> "GridPoint":
        """Rotate by k sixth turns (multiplication by the k-th unit direction)."""
        d = DIRECTIONS[k % 6]
        c, s = d.x, d.y
        # (x + y*sqrt3*i) * (c + s*sqrt3*i) in the (x, y*sqrt3) chart
        return GridPoint(self.x * c - 3 * self.y * s, self.x * s + self.y * c)

    def conj(self) -> "GridPoint":
        """Reflect across the real axis."""
        return GridPoint(self.x, -self.y)

    def is_lattice_point(self) -> bool:
        """Whether this is a point of the unit triangular (Eisenstein) lattice.

        Holds exactly when x + y and x - y are both integers, i.e. x and y
        are both integers or both half-integers.
        """
        return (self.x + self.y).denominator == 1 and (self.x - self.y).denominator == 1

    def lattice_coords(self) -> tuple[int, int]:
        """Integer coordinates (a, b) with point = a*u0 + b*u1.

        u0 is the unit direction along the real axis and u1 the direction
        one sixth turn on.  Raises ValueError off the lattice.
        """
        if not self.is_lattice_point():
            raise ValueError(f"{self} is not a lattice point")
        return int(self.x - self.y), int(2 * self.y)

    def color_class(self) -> int:
        """Residue class in (lattice / 2*lattice), encoded 0..3."""
        a, b = self.lattice_coords()
        return 2 * (a & 1) + (b & 1)


ORIGIN = GridPoint(Fraction(0), Fraction(0))

# Unit directions at angles k*pi/3, k = 0..5, in the (x, y*sqrt3) chart.
DIRECTIONS: tuple[GridPoint, ...] = (
    GridPoint(Fraction(1), Fraction(0)),
    GridPoint(Fraction(1, 2), Fraction(1, 2)),
    GridPoint(Fraction(-1, 2), Fraction(1, 2)),
    GridPoint(Fraction(-1), Fraction(0)),
    GridPoint(Fraction(-1, 2), Fraction(-1, 2)),
    GridPoint(Fraction(1, 2), Fraction(-1, 2)),
)


def direction(k: int) -> GridPoint:
    return DIRECTIONS[k % 6]


def signed_triarea(points) -> Fraction:
    """Signed area of a closed chain in units of one unit equilateral triangle.

    Positive for counterclockwise chains.  Twice the shoelace sum in grid
    coordinates equals area / (sqrt(3)/4) exactly.
    """
    total = Fraction(0)
    n = len(points)
    for i in range(n):
        p, q = points[i], points[(i + 1) % n]
        total += p.x * q.y - q.x * p.y
    return 2 * total
