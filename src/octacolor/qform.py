"""The integral quadratic form on the cone of length assignments.

Each polygon contributes a six-slot form whose value on slot lengths is
2*sum(l_i*l_{i+1}) + sum(l_i*l_{i+2}) (indices cyclic); on a unit hexagon
that is 18, three times its six unit triangles, and the same three-to-one
area identity holds for every closed slot vector.  ``SLOT_MATRIX`` is its
doubled Gram matrix, keeping every entry an integer (adjacent slots 2,
distance-two slots 1, diagonal and antipodal 0).

Summing the per-polygon forms pushed to edge variables gives the global
form, held as its nonzero terms only: a term (i, j, c) with i <= j is the
coefficient c of v_i*v_j in v^T M v, where M is the doubled Gram matrix on
edge variables.  Form values halve that sum of terms, which is even on
integer vectors because M is symmetric with an even diagonal.  The dense
matrix is built only where JSON emits it.  Restricting to the kernel of the
closure system reads the same terms, and diagonalizing by exact rational
congruence yields its signature.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

from . import linalg
from .emg import EnhancedMultigraph
from .geometry import ColoredTriangulation
from .labeling import PolygonBoundary
from .shapesys import KernelBasis

# doubled Gram matrix of the six-slot form
SLOT_MATRIX: tuple[tuple[int, ...], ...] = tuple(
    tuple(2 if (i - j) % 6 in (1, 5) else 1 if (i - j) % 6 in (2, 4) else 0 for j in range(6))
    for i in range(6)
)


def _form_value(matrix, vec):
    """Half of vec^T matrix vec for a doubled Gram matrix, exactly: an int
    when integral (always, on integer vectors), else a Fraction."""
    v = [Fraction(x) for x in vec]
    d = math.lcm(*(x.denominator for x in v))
    w = [x.numerator * (d // x.denominator) for x in v]  # d * v, in integers
    n = len(w)
    half = Fraction(sum(matrix[i][j] * w[i] * w[j] for i in range(n) for j in range(n)), 2 * d * d)
    return int(half) if half.denominator == 1 else half


def slot_value(slot_lengths):
    """Value of the six-slot form on a length-6 vector."""
    return _form_value(SLOT_MATRIX, slot_lengths)


class QuadraticForm(NamedTuple):
    terms: tuple[tuple[int, int, int], ...]  # nonzero (i, j, c) with i <= j
    col_edges: tuple[int, ...]
    restricted: tuple[tuple[int, ...], ...] | None = None
    signature: tuple[int, int, int] | None = None

    @property
    def global_matrix(self) -> tuple[tuple[int, ...], ...]:
        """The symmetric doubled Gram matrix, E_b x E_b, built from the
        terms: c on the diagonal, c/2 at (i, j) and (j, i) off it."""
        n = len(self.col_edges)
        m = [[0] * n for _ in range(n)]
        for i, j, c in self.terms:
            if i == j:
                m[i][i] = c
            else:
                m[i][j] = m[j][i] = c // 2
        return tuple(map(tuple, m))

    def value(self, lengths):
        """Form value at an edge length vector (by edge id), exactly as
        ``_form_value`` computes it, from the nonzero terms alone."""
        v = [lengths[eid] for eid in self.col_edges]
        half = Fraction(sum(c * v[i] * v[j] for i, j, c in self.terms)) / 2
        return int(half) if half.denominator == 1 else half


def assemble_form(g: EnhancedMultigraph, boundaries: list[PolygonBoundary]) -> QuadraticForm:
    """Exact integer sum of the per-polygon forms, each polygon's slot
    pairs added straight into the terms; one polygon's form is
    ``assemble_form(g, [boundary])``.

    The six-slot form has a zero diagonal, so only pairs of distinct sides
    contribute, each twice its slot entry.  A polygon meeting the same edge
    twice adds that pair to the edge's diagonal term.
    """
    col_edges = tuple(sorted(e.id for e in g.blue_edges()))
    col_of = {eid: i for i, eid in enumerate(col_edges)}
    total: dict[tuple[int, int], int] = {}
    for b in boundaries:
        incident = sorted(zip(map(col_of.__getitem__, b.sides), b.slots))
        for (i, s1), (j, s2) in combinations(incident, 2):
            c = SLOT_MATRIX[s1][s2]
            if c:
                total[i, j] = total.get((i, j), 0) + 2 * c
    return QuadraticForm(tuple((i, j, c) for (i, j), c in total.items()), col_edges)


def restrict_form(q: QuadraticForm, kernel: KernelBasis) -> QuadraticForm:
    """Exact congruence restriction K M K^T to the kernel basis K, in
    integers, from the terms: one pass over them per kernel vector k gives
    the image 2 M k, and each restricted entry is half a dot product."""
    if kernel.dimension < 1:
        raise ValueError("kernel dimension must be at least 1")
    images = []
    for k in kernel.basis:
        image = [0] * len(q.col_edges)
        for i, j, c in q.terms:
            image[i] += c * k[j]
            image[j] += c * k[i]
        images.append(image)
    restricted = tuple(tuple(linalg.dot(row, image) // 2 for image in images) for row in kernel.basis)
    return QuadraticForm(q.terms, q.col_edges, restricted, signature(restricted))


def signature(matrix) -> tuple[int, int, int]:
    """Inertia (positives, negatives, zeros) of a symmetric rational matrix.

    Simultaneous row and column elimination with symmetric pivoting; when
    every remaining diagonal entry vanishes but some off-diagonal entry
    does not, a symmetric row/column addition creates a pivot (the rank-two
    hyperbolic step).  Sylvester's law makes the count independent of the
    pivot choices.  No eigenvalue numerics anywhere.
    """
    a = [[Fraction(x) for x in row] for row in matrix]
    n = len(a)
    for i in range(n):
        if len(a[i]) != n:
            raise ValueError("matrix must be square")
        for j in range(i + 1, n):
            if a[i][j] != a[j][i]:
                raise ValueError("matrix must be symmetric")
    active = list(range(n))
    pos = neg = zero = 0
    while active:
        pivot = next((i for i in active if a[i][i] != 0), None)
        if pivot is None:
            pair = next(((i, j) for i in active for j in active if i != j and a[i][j] != 0), None)
            if pair is None:
                zero += len(active)
                break
            i, j = pair
            # symmetric addition makes a[i][i] = 2*a[i][j] != 0
            for k in range(n):
                a[i][k] += a[j][k]
            for k in range(n):
                a[k][i] += a[k][j]
            pivot = i
        d = a[pivot][pivot]
        if d > 0:
            pos += 1
        else:
            neg += 1
        active.remove(pivot)
        for i in active:
            if a[i][pivot] != 0:
                f = a[i][pivot] / d
                for k in range(n):
                    a[i][k] -= f * a[pivot][k]
                for k in range(n):
                    a[k][i] -= f * a[k][pivot]
    return pos, neg, zero


class IdentityReport(NamedTuple):
    form_value: int
    triangle_count: int
    triarea_total: int
    holds: bool


def verify_triangle_identity(q: QuadraticForm, lengths,
                             tri: ColoredTriangulation,
                             triarea_total: int) -> IdentityReport:
    """Check form value = 3 * triangle count = 3 * summed triangle-area.

    The triangle count comes from the glued mesh and the area total from
    the shoelace oracle, so the two right-hand sides are independent.
    """
    value = q.value(lengths)
    count = len(tri.triangles)
    holds = value == 3 * count == 3 * triarea_total
    return IdentityReport(value, count, triarea_total, holds)
