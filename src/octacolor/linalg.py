"""Exact linear algebra over the rationals and the integers.

Matrices are plain lists of lists holding ``int`` or ``fractions.Fraction``
entries.  Problem sizes here are desk scale (a few hundred columns at most),
so the implementations favour clarity and exactness over asymptotics.
Nothing in this module ever touches floating point.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

Row = list[Fraction]
Matrix = list[Row]


def frac_matrix(rows) -> Matrix:
    return [[Fraction(x) for x in row] for row in rows]


def transpose(m):
    return [list(col) for col in zip(*m)] if m else []


def mat_vec(m, v):
    return [sum(a * b for a, b in zip(row, v)) for row in m]


def mat_mul(a, b):
    bt = transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


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


def rank_fraction_free(rows) -> int:
    """Rank by Bareiss fraction-free elimination on integer data.

    Independent of :func:`rank`; the two are cross-checked in the test
    suite.  Rational input is cleared to integers row by row.
    """
    m = []
    for row in rows:
        fr = [Fraction(x) for x in row]
        den = 1
        for x in fr:
            den = den * x.denominator // gcd(den, x.denominator)
        m.append([int(x * den) for x in fr])
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    prev = 1
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        for i in range(r + 1, nrows):
            for j in range(c + 1, ncols):
                m[i][j] = (m[i][j] * m[r][c] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        r += 1
        if r == nrows:
            break
    return r


def primitive_vector(vec) -> list[int]:
    """Scale a rational vector to a primitive integer vector.

    The first nonzero entry keeps its sign.  Raises on the zero vector.
    """
    fr = [Fraction(x) for x in vec]
    den = 1
    for x in fr:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in fr]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return [x // g for x in ints]


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
        basis.append(primitive_vector(v))
    return basis


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


def _int_row_echelon_with_transform(rows: list[list[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """Integer row echelon form of ``rows`` via unimodular row operations.

    Returns (echelon, transform) with transform @ rows == echelon and
    transform unimodular.  Uses Euclidean elimination column by column.
    """
    m = [list(map(int, r)) for r in rows]
    n = len(m)
    t = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    if n == 0:
        return m, t
    ncols = len(m[0])
    r = 0
    for c in range(ncols):
        # euclidean gcd sweep within column c, rows r..n-1
        while True:
            nz = [i for i in range(r, n) if m[i][c] != 0]
            if not nz:
                break
            piv = min(nz, key=lambda i: (abs(m[i][c]), i))
            if piv != r:
                m[r], m[piv] = m[piv], m[r]
                t[r], t[piv] = t[piv], t[r]
            done = True
            for i in range(r + 1, n):
                if m[i][c] != 0:
                    q = m[i][c] // m[r][c]
                    if q:
                        m[i] = [a - q * b for a, b in zip(m[i], m[r])]
                        t[i] = [a - q * b for a, b in zip(t[i], t[r])]
                    if m[i][c] != 0:
                        done = False
            if done:
                break
        if m[r][c] != 0:
            if m[r][c] < 0:
                m[r] = [-a for a in m[r]]
                t[r] = [-a for a in t[r]]
            r += 1
            if r == n:
                break
    return m, t


def integer_kernel(rows) -> list[list[int]]:
    """Basis of {x integer : rows @ x == 0}; always a saturated lattice basis.

    Works by reducing the transpose to integer row echelon form with a
    unimodular transform; transform rows matching zero echelon rows span
    the kernel over the integers.
    """
    m = [list(map(int, r)) for r in rows]
    if not m:
        return []
    at = [list(col) for col in zip(*m)]
    ech, t = _int_row_echelon_with_transform(at)
    out = [t[i] for i in range(len(ech)) if all(x == 0 for x in ech[i])]
    return hermite_normal_form(out)


def hermite_normal_form(rows: list[list[int]]) -> list[list[int]]:
    """Row-style Hermite normal form of a full-row-rank integer matrix.

    Pivots positive, entries above each pivot reduced to [0, pivot).
    Canonical: equal lattices map to equal output.
    """
    m = [list(map(int, r)) for r in rows]
    if not m:
        return []
    ech, _ = _int_row_echelon_with_transform(m)
    ech = [row for row in ech if any(x != 0 for x in row)]
    ncols = len(m[0])
    pivots = []
    for row in ech:
        c = next(j for j in range(ncols) if row[j] != 0)
        pivots.append(c)
    for ri in range(len(ech) - 1, -1, -1):
        c = pivots[ri]
        for up in range(ri):
            q = ech[up][c] // ech[ri][c]
            if q:
                ech[up] = [a - q * b for a, b in zip(ech[up], ech[ri])]
    return ech
