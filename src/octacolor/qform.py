"""The integral quadratic form on the cone of length assignments.

Each polygon contributes a six-slot form whose value on slot lengths is
2*sum(l_i*l_{i+1}) + sum(l_i*l_{i+2}) (indices cyclic); on a unit hexagon
that is 18, three times its six unit triangles, and the same three-to-one
area identity holds for every closed slot vector.  ``SLOT_MATRIX`` is its
doubled Gram matrix, keeping every entry an integer (adjacent slots 2,
distance-two slots 1, diagonal and antipodal 0).  ``slot_value`` reads it
as a form on six slot variables, held as terms like any other.

Summing the per-polygon forms pushed to edge variables gives the global
form, held as its nonzero terms only: a term (i, j, c) with i <= j is the
coefficient c of v_i*v_j in v^T M v, where M is the doubled Gram matrix on
edge variables.  Form values halve that sum of terms, which is even on
integer vectors because M is symmetric with an even diagonal.  Restricting
to the basis of the lattice of integer solutions reads the same terms, and
diagonalizing Q_tau by exact congruence, with no division, gives its signature.
"""

from __future__ import annotations

from itertools import combinations
from typing import TYPE_CHECKING, NamedTuple

from . import linalg
from .shapesys import LemmaCheck, check_lengths

if TYPE_CHECKING:
    from .cone import LatticeBasis
    from .emg import EnhancedMultigraph
    from .labeling import PolygonBoundary
    from .mesh import ColoredTriangulation

# doubled Gram matrix of the six-slot form
SLOT_MATRIX: tuple[tuple[int, ...], ...] = tuple(
    tuple(2 if (i - j) % 6 in (1, 5) else 1 if (i - j) % 6 in (2, 4) else 0 for j in range(6))
    for i in range(6)
)

EXPECTED_SIGNATURE = (1, 3, 0)  # (positives, negatives, zeros) of Q_tau on every valid type


class QuadraticForm(NamedTuple):
    terms: tuple[tuple[int, int, int], ...]  # nonzero (i, j, c) with i <= j
    col_edges: tuple[int, ...]
    restricted: tuple[tuple[int, ...], ...] | None = None
    signature: tuple[int, int, int] | None = None

    def value(self, vector):
        """Form value at a length vector in the column order ``col_edges``,
        from the nonzero terms alone: an int when integral (always, on
        integer lengths), else a Fraction."""
        check_lengths(vector, len(self.col_edges))
        total = sum(c * vector[i] * vector[j] for i, j, c in self.terms)
        if total % 2 == 0:
            return total // 2
        from fractions import Fraction
        return Fraction(total, 2)


# the six-slot form on slot variables 0..5; its diagonal is zero
_SLOT_FORM = QuadraticForm(tuple((i, j, 2 * SLOT_MATRIX[i][j])
                                 for i, j in combinations(range(6), 2) if SLOT_MATRIX[i][j]),
                           tuple(range(6)))


def slot_value(slot_lengths):
    """Value of the six-slot form on a length-6 vector, integer or rational."""
    return _SLOT_FORM.value(slot_lengths)


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


def restrict_form(q: QuadraticForm, lattice: LatticeBasis) -> QuadraticForm:
    """Q_tau, the exact congruence restriction L M L^T to the lattice basis
    L, in integers, from the terms: one pass over them per basis vector v
    gives the image 2 M v, and each restricted entry is half a dot product.
    The form and the lattice must read the same columns, in one order."""
    if q.col_edges != lattice.col_edges:
        raise ValueError("the form and the lattice read different columns")
    if lattice.dimension < 1:
        raise ValueError("lattice dimension must be at least 1")
    images = []
    for v in lattice.vectors:
        image = [0] * len(q.col_edges)
        for i, j, c in q.terms:
            image[i] += c * v[j]
            image[j] += c * v[i]
        images.append(image)
    restricted = tuple(tuple(linalg.dot(row, image) // 2 for image in images) for row in lattice.vectors)
    return QuadraticForm(q.terms, q.col_edges, restricted, signature(restricted))


def signature_check(q: QuadraticForm) -> LemmaCheck:
    """The certificate that Q_tau has ``EXPECTED_SIGNATURE``."""
    return LemmaCheck("signature", q.signature == EXPECTED_SIGNATURE,
                      f"signature {list(q.signature)}, expected {list(EXPECTED_SIGNATURE)}")


def signature(matrix) -> tuple[int, int, int]:
    """Inertia (positives, negatives, zeros) of a symmetric rational matrix.

    Simultaneous row and column elimination with symmetric pivoting, in
    the entries' own arithmetic and without division: with d the pivot
    and f = a_ip, row i becomes d*row_i - f*row_p and then column i
    becomes d*col_i - f*col_p, a congruence by a matrix of determinant
    d != 0.  When every remaining diagonal entry vanishes but some
    off-diagonal entry does not, a symmetric row/column addition creates
    a pivot (the rank-two hyperbolic step).  Sylvester's law makes the
    count independent of the pivot choices and of the congruences.  No
    eigenvalue numerics anywhere.
    """
    a = [list(row) for row in matrix]
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
        row_p = a[pivot]
        for i in active:
            f = a[i][pivot]
            if f != 0:
                a[i] = [d * x - f * y for x, y in zip(a[i], row_p)]
                for row in a:
                    row[i] = d * row[i] - f * row[pivot]
    return pos, neg, zero


class IdentityReport(NamedTuple):
    form_value: int
    triangle_count: int
    holds: bool


def verify_triangle_identity(q: QuadraticForm, vector, tri: ColoredTriangulation) -> IdentityReport:
    """Check form value = 3 * triangle count, the form read at the length
    ``vector`` in its column order.

    The count comes from the glued mesh, whose charts
    ``build_triangulation`` checks against their shoelace areas.
    """
    value = q.value(vector)
    count = len(tri.triangles)
    return IdentityReport(value, count, value == 3 * count)
