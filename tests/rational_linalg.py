"""Reference implementation of the kernel and a solver: rational Gauss-Jordan.

This is the ``Fraction`` reduced row echelon form that ``linalg.nullspace``
and the rank ran on before they moved to the integer echelon form.  Tests
use it as the oracle the kernel and the echelon pivots must match exactly,
its ``rank`` wherever a test needs one, and its ``solve`` to express points
in a lattice basis.  It clears rationals itself and uses nothing from
``octacolor.linalg``, so the oracle stays independent.  The dense
``transpose`` and ``mat_mul`` serve the dense form restriction in
``form_oracle``, ``mat_vec`` checks that vectors solve a dense system, and
``dense`` builds the dense matrix of sparse rows, such as the 2V x E_b
closure system, which the library holds only as its nonzeros.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Row = list[Fraction]
Matrix = list[Row]


def dense(rows, width: int) -> list[list[int]]:
    """The dense matrix of sparse rows (column -> entry) of ``width`` columns."""
    return [[row.get(j, 0) for j in range(width)] for row in rows]


def transpose(m):
    return [list(col) for col in zip(*m)] if m else []


def mat_vec(m, v):
    return [sum(x * y for x, y in zip(row, v)) for row in m]


def mat_mul(a, b):
    bt = transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def frac_matrix(rows) -> Matrix:
    return [[Fraction(x) for x in row] for row in rows]


def rref(rows) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (matrix, pivot column indices)."""
    m = frac_matrix(rows)
    if not m:
        return m, []
    nrows, ncols = len(m), len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def rank(rows) -> int:
    return len(rref(rows)[1])


def nullspace(rows) -> list[list[int]]:
    """Canonical basis of the rational null space, as primitive integer vectors.

    One vector per free column of the RREF, ordered by free column index;
    the entry at the free column is positive.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        basis.append(_primitive(v))
    return basis


def _primitive(vec: Row) -> list[int]:
    """The primitive integer vector with the direction of a rational one."""
    den = lcm(*(x.denominator for x in vec))
    ints = [int(x * den) for x in vec]
    g = gcd(*ints)
    return [x // g for x in ints]


def solve(a_rows, b) -> Row | None:
    """One exact solution of A x = b, or None if inconsistent."""
    if not a_rows:
        return None
    ncols = len(a_rows[0])
    aug = [list(map(Fraction, row)) + [Fraction(bi)] for row, bi in zip(a_rows, b)]
    red, pivots = rref(aug)
    for row in red:
        if all(x == 0 for x in row[:-1]) and row[-1] != 0:
            return None
    if pivots and pivots[-1] == ncols:
        return None
    x = [Fraction(0)] * ncols
    for r, p in enumerate(pivots):
        x[p] = red[r][-1]
    return x
