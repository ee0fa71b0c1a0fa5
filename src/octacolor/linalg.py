"""Exact linear algebra over the integers.

Matrices are plain lists of lists of ``int``.  One elimination engine, the
unimodular integer row echelon form, serves :func:`rank`,
:func:`nullspace`, :func:`saturate` and :func:`hermite_normal_form`.
Two eliminations stay apart from it so that ``verify_lemmas`` can certify
the echelon rank independently: :func:`rank_mod_p`, a sparse elimination
over the integers modulo a prime, and :func:`rank_fraction_free`, the
Bareiss elimination the certificate falls back on when every prime it
tries gives a short rank.  Every input and result is an integer: nothing
in this module uses rationals or floating point.
"""

from __future__ import annotations

from itertools import compress, count
from math import gcd
from operator import index, mul


def mat_vec(m, v):
    return [sum(a * b for a, b in zip(row, v)) for row in m]


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def rank_mod_p(rows, p: int) -> int:
    """Rank of an integer matrix over the integers modulo the prime ``p``.

    Sparse row elimination: each row becomes a dict of its nonzero residues
    and is reduced, lowest column first, by the pivot rows found so far,
    each scaled to a leading 1.  A closure system has few nonzeros per row,
    so rows stay short.  The result never exceeds the rank over the
    rationals, and equals it unless ``p`` divides every maximal nonzero
    minor.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        r = {j: y for j, x in zip(compress(count(), row), filter(None, row)) if (y := x % p)}
        while r:
            c = min(r)
            pivot = pivots.get(c)
            if pivot is None:
                inv = pow(r[c], -1, p)
                pivots[c] = {j: x * inv % p for j, x in r.items()}
                break
            f = r[c]
            for j, x in pivot.items():
                y = (r.get(j, 0) - f * x) % p
                if y:
                    r[j] = y
                else:  # f * x is nonzero mod p, so a zero means j was in r
                    del r[j]
    return len(pivots)


def rank_fraction_free(rows) -> int:
    """Rank of an integer matrix by Bareiss fraction-free elimination.

    Exact but cubic in the matrix size: ``verify_lemmas`` calls it only
    when :func:`rank_mod_p` falls short for every prime it tries.
    """
    m = [list(row) for row in rows]
    if not m:
        return 0
    nrows, width = len(m), len(m[0])
    prev = 1
    r = 0
    for c in range(width):
        pr = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        for i in range(r + 1, nrows):
            for j in range(c + 1, width):
                m[i][j] = (m[i][j] * m[r][c] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        r += 1
        if r == nrows:
            break
    return r


def primitive_vector(vec) -> list[int]:
    """Divide an integer vector by the gcd of its entries, a positive factor,
    so every sign is kept.  Raises on the zero vector."""
    g = gcd(*vec)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return [x // g for x in vec]


def _int_row_echelon(rows) -> list[list[int]]:
    """Integer row echelon form of ``rows`` via unimodular row operations.

    Euclidean elimination column by column.  Every pivot is positive.
    """
    m = [list(map(index, r)) for r in rows]
    n = len(m)
    if n == 0:
        return m
    r = 0
    for c in range(len(m[0])):
        # euclidean gcd sweep within column c, rows r..n-1
        while True:
            nz = [i for i in range(r, n) if m[i][c] != 0]
            if not nz:
                break
            piv = min(nz, key=lambda i: (abs(m[i][c]), i))
            if piv != r:
                m[r], m[piv] = m[piv], m[r]
            done = True
            for i in range(r + 1, n):
                if m[i][c] != 0:
                    q = m[i][c] // m[r][c]
                    if q:
                        m[i] = [a - q * b for a, b in zip(m[i], m[r])]
                    if m[i][c] != 0:
                        done = False
            if done:
                break
        if m[r][c] != 0:
            if m[r][c] < 0:
                m[r] = [-a for a in m[r]]
            r += 1
            if r == n:
                break
    return m


def _echelon(rows) -> tuple[list[list[int]], list[int]]:
    """Nonzero rows of the integer echelon form of ``rows`` and the pivot
    (leading) column of each, in increasing order."""
    ech = [row for row in _int_row_echelon(rows) if any(row)]
    return ech, [next(j for j, x in enumerate(row) if x) for row in ech]


def _null_vector(ech, pivots, f: int, width: int) -> list[int]:
    """The primitive null vector of the echelon rows that is positive at the
    free column ``f`` and zero at every other free column.

    Integer back-substitution from the last row up; whenever a pivot does
    not divide its row's sum, the whole vector is scaled so that it does.
    """
    x = [0] * width
    x[f] = 1
    for row, p in zip(reversed(ech), reversed(pivots)):
        if p > f:
            continue  # x is zero right of f, so x[p] stays 0
        s = sum(map(mul, row, x))  # x[p] is still 0
        d = row[p]
        if s % d:
            scale = d // gcd(s, d)
            x = [scale * v for v in x]
            s *= scale
        x[p] = -s // d
    return primitive_vector(x)


def rank(rows) -> int:
    return len(_echelon(rows)[1])


def nullspace(rows) -> list[list[int]]:
    """Canonical basis of the rational null space, as primitive integer vectors.

    One vector per free column, ordered by free column index; the entry at
    its free column is positive and every other free entry is zero.  Such a
    vector is unique up to scale, so this is the basis the reduced row
    echelon form gives.
    """
    if not rows:
        return []
    width = len(rows[0])
    ech, pivots = _echelon(rows)
    pivot_set = set(pivots)
    return [_null_vector(ech, pivots, f, width) for f in range(width) if f not in pivot_set]


def saturate(rows) -> list[list[int]]:
    """Basis of every integer point of the rational span of the linearly
    independent integer ``rows``, in Hermite normal form.

    With K the d × n matrix of ``rows``, unimodular row operations bring the
    n × d transpose to echelon form, U·Kᵀ = E, so Kᵀ = W·R, with W the
    first d columns of U⁻¹ and R the d × d upper triangular top of E.  W is
    part of a unimodular matrix, so the rows of Wᵀ = (Rᵀ)⁻¹·K span exactly
    the integer points of the span of K; forward substitution finds them,
    and every division is exact (Cohen, A Course in Computational Algebraic
    Number Theory, §2.4).
    """
    k = [list(map(index, r)) for r in rows]
    d = len(k)
    if d == 0:
        return []
    r = _int_row_echelon(zip(*k))[:d]
    if len(r) < d or not all(r[i][i] for i in range(d)):
        raise ValueError("rows are not linearly independent")
    w: list[list[int]] = []
    for i, row in enumerate(k):
        # row i of K is the sum of R[j][i] · (row j of Wᵀ) over j <= i
        for j in range(i):
            f = r[j][i]
            if f:
                row = [a - f * b for a, b in zip(row, w[j])]
        w.append([a // r[i][i] for a in row])
    return hermite_normal_form(w)


def hermite_normal_form(rows: list[list[int]]) -> list[list[int]]:
    """Row-style Hermite normal form of a full-row-rank integer matrix.

    Pivots positive, entries above each pivot reduced to [0, pivot).
    Canonical: equal lattices map to equal output.
    """
    if not rows:
        return []
    ech, pivots = _echelon(rows)
    # left to right: reducing by row ri changes only columns from its pivot
    # on, so it leaves the columns of earlier pivots reduced
    for ri in range(len(ech)):
        c = pivots[ri]
        for up in range(ri):
            q = ech[up][c] // ech[ri][c]
            if q:
                ech[up] = [a - q * b for a, b in zip(ech[up], ech[ri])]
    return ech
