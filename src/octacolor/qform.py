"""The integral quadratic form on the cone of length assignments.

Each polygon contributes a six-slot form whose value on slot lengths is
2*sum(l_i*l_{i+1}) + sum(l_i*l_{i+2}) (indices cyclic); on a unit hexagon
that is 18, three times its six unit triangles, and the same three-to-one
area identity holds for every closed slot vector.  The stored matrices are
the doubled Gram matrices, keeping every entry an integer (adjacent slots
2, distance-two slots 1, diagonal and antipodal 0); form values halve the
matrix product, which is always integral because the diagonal is even.

Summing the per-polygon forms pushed to edge variables gives the global
form; restricting to the kernel of the closure system and diagonalizing by
exact rational congruence yields its signature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

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


@dataclass(frozen=True)
class PolygonForm:
    vertex_id: int
    matrix: tuple[tuple[int, ...], ...]  # doubled Gram matrix on edge variables
    col_edges: tuple[int, ...]

    def value(self, lengths):
        """Form value at an edge length vector (by edge id)."""
        return _form_value(self.matrix, [lengths[eid] for eid in self.col_edges])


@dataclass(frozen=True)
class QuadraticForm:
    global_matrix: tuple[tuple[int, ...], ...]   # doubled Gram matrix, E_b x E_b
    col_edges: tuple[int, ...]
    restricted: tuple[tuple[int, ...], ...] | None = None
    signature: tuple[int, int, int] | None = None

    @cached_property
    def _terms(self) -> tuple[tuple[int, int, int], ...]:
        """Nonzero terms (i, j, m_ij + m_ji) for i < j and (i, i, m_ii)."""
        m = self.global_matrix
        terms = []
        for i, row in enumerate(m):
            for j in range(i, len(row)):
                c = row[j] + m[j][i] if j > i else row[i]
                if c:
                    terms.append((i, j, c))
        return tuple(terms)

    def value(self, lengths):
        """Form value at an edge length vector (by edge id), exactly as
        ``_form_value`` computes it, from the nonzero entries alone."""
        v = [lengths[eid] for eid in self.col_edges]
        half = Fraction(sum(c * v[i] * v[j] for i, j, c in self._terms)) / 2
        return int(half) if half.denominator == 1 else half


def polygon_form(boundary: PolygonBoundary, col_edges) -> PolygonForm:
    """Six-slot form conjugated by the slot embedding, on edge variables.

    Zero slots drop out; a polygon meeting the same edge twice accumulates
    both contributions.
    """
    col_of = {eid: i for i, eid in enumerate(col_edges)}
    n = len(col_edges)
    m = [[0] * n for _ in range(n)]
    _add_slot_terms(m, boundary, col_of)
    return PolygonForm(boundary.vertex_id, tuple(tuple(r) for r in m), tuple(col_edges))


def _add_slot_terms(m, boundary: PolygonBoundary, col_of) -> None:
    """Add the polygon's slot-pair terms into ``m``, touching only the
    entries of its own edges."""
    incident = [(col_of[eid], s) for eid, s in zip(boundary.sides, boundary.slots)]
    for i, s1 in incident:
        row, slot_row = m[i], SLOT_MATRIX[s1]
        for j, s2 in incident:
            row[j] += slot_row[s2]


def assemble_form(g: EnhancedMultigraph, boundaries: list[PolygonBoundary]) -> QuadraticForm:
    """Exact integer sum of the per-polygon forms, each polygon's terms
    added straight into the total."""
    col_edges = tuple(sorted(e.id for e in g.blue_edges()))
    col_of = {eid: i for i, eid in enumerate(col_edges)}
    n = len(col_edges)
    total = [[0] * n for _ in range(n)]
    for b in boundaries:
        _add_slot_terms(total, b, col_of)
    return QuadraticForm(tuple(tuple(r) for r in total), col_edges)


def restrict_form(q: QuadraticForm, kernel: KernelBasis) -> QuadraticForm:
    """Exact congruence restriction to the kernel basis, in integers."""
    if kernel.dimension < 1:
        raise ValueError("kernel dimension must be at least 1")
    gk = linalg.mat_mul(q.global_matrix, linalg.transpose(kernel.basis))
    restricted = linalg.mat_mul(kernel.basis, gk)
    restricted_t = tuple(tuple(row) for row in restricted)
    return QuadraticForm(q.global_matrix, q.col_edges, restricted_t, signature(restricted_t))


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


@dataclass(frozen=True)
class IdentityReport:
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
