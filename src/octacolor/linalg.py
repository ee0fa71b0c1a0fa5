"""Exact linear algebra over the integers.

A row is a dict from column to nonzero ``int`` coefficient, so a closure
row costs its few nonzeros and not its full width; :func:`nonzeros` reads a
dense row into one.  Every elimination takes its rows in that form.  One
engine, a sparse integer row echelon form by unimodular row operations,
serves :func:`nullspace`, :func:`saturate` and :func:`hermite_normal_form`;
the last two take and return the few dense vectors of a lattice basis and
read them into sparse rows for it.  Two eliminations stay apart from it so
that ``verify_lemmas`` can certify the echelon rank independently:
:func:`rank_mod_p`, the same sparse loop over the integers modulo a prime,
and :func:`rank_fraction_free`, the Bareiss elimination the certificate
falls back on when every prime it tries gives a short rank, which makes
its rows dense inside.  Every input and result is an integer: nothing in
this module uses rationals or floating point.
"""

from __future__ import annotations

from math import gcd
from operator import index, mul


def dot(u, v):
    return sum(map(mul, u, v))


def nonzeros(row) -> dict[int, int]:
    """The sparse form of a dense integer row: column -> nonzero entry."""
    return {j: index(x) for j, x in enumerate(row) if x}


def rank_mod_p(rows, p: int) -> int:
    """Rank of sparse integer ``rows`` over the integers modulo the prime ``p``.

    Each row is reduced to its nonzero residues and then, lowest column
    first, by the pivot rows found so far, each scaled to a leading 1.  A
    closure system has few nonzeros per row, so rows stay short.  The
    result never exceeds the rank over the rationals, and equals it unless
    ``p`` divides every maximal nonzero minor.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        r = {j: y for j, x in row.items() if (y := x % p)}
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


def rank_fraction_free(rows, width: int) -> int:
    """Rank of sparse integer ``rows`` of ``width`` columns by Bareiss
    fraction-free elimination, on a dense copy of them.

    Exact but cubic in the matrix size: ``verify_lemmas`` calls it only
    when :func:`rank_mod_p` falls short for every prime it tries.
    """
    m = [[row.get(j, 0) for j in range(width)] for row in rows]
    if not m:
        return 0
    nrows = len(m)
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


def _subtract(r: dict[int, int], q: int, p: dict[int, int]) -> None:
    """r -= q·p in place for a nonzero q, dropping the entries that cancel."""
    for j, x in p.items():
        y = r.get(j, 0) - q * x
        if y:
            r[j] = y
        else:  # q * x is nonzero, so a zero means j was in r
            del r[j]


def _echelon(rows) -> dict[int, dict[int, int]]:
    """Integer row echelon form of the sparse ``rows`` by unimodular row
    operations: each pivot column maps to the echelon row that leads there,
    with a positive pivot.  Zero rows vanish.

    Each row is reduced, lowest column first, by r -= (r[c] // p[c])·p
    with p the pivot row at c.  A remainder 0 < r[c] < p[c] makes r the
    pivot and p the row to reduce: one Euclidean step.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        r = dict(row)
        while r:
            c = min(r)
            pivot = pivots.get(c)
            if pivot is None:
                pivots[c] = r if r[c] > 0 else {j: -x for j, x in r.items()}
                break
            q = r[c] // pivot[c]
            if q:
                _subtract(r, q, pivot)
            if c in r:
                pivots[c], r = r, pivot
    return pivots


def nullspace(rows, width: int) -> list[list[int]]:
    """Canonical basis of the rational null space of the sparse ``rows`` of
    ``width`` columns, as primitive integer vectors.

    One vector per free column, ordered by free column index; the entry at
    its free column is positive and every other free entry is zero.  Such a
    vector is unique up to scale, so this is the basis the reduced row
    echelon form gives.  Integer back-substitution from the last pivot up;
    whenever a pivot does not divide its row's sum, the whole vector is
    scaled so that it does.
    """
    pivots = _echelon(rows)
    order = sorted(pivots, reverse=True)
    basis = []
    for f in range(width):
        if f in pivots:
            continue
        x = [0] * width
        x[f] = 1
        for p in order:
            if p > f:
                continue  # x is zero right of f, so x[p] stays 0
            row = pivots[p]
            s = sum(map(mul, row.values(), map(x.__getitem__, row)))  # x[p] is still 0
            d = row[p]
            if s % d:
                scale = d // gcd(s, d)
                x = [scale * v for v in x]
                s *= scale
            x[p] = -s // d
        basis.append(primitive_vector(x))
    return basis


def saturate(rows) -> list[list[int]]:
    """Basis of every integer point of the rational span of the linearly
    independent dense integer ``rows``, in Hermite normal form.

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
    r = _echelon(map(nonzeros, zip(*k)))
    if len(r) < d:
        raise ValueError("rows are not linearly independent")
    w: list[list[int]] = []
    for i, row in enumerate(k):
        # row i of K is the sum of R[j][i] · (row j of Wᵀ) over j <= i
        for j in range(i):
            f = r[j].get(i)
            if f:
                row = [a - f * b for a, b in zip(row, w[j])]
        w.append([a // r[i][i] for a in row])
    return hermite_normal_form(w)


def hermite_normal_form(rows: list[list[int]]) -> list[list[int]]:
    """Row-style Hermite normal form of a full-row-rank dense integer matrix.

    Pivots positive, entries above each pivot reduced to [0, pivot).
    Canonical: equal lattices map to equal output.
    """
    if not rows:
        return []
    width = len(rows[0])
    pivots = _echelon(map(nonzeros, rows))
    ech = [pivots[c] for c in sorted(pivots)]
    # left to right: reducing by row ri changes only columns from its pivot
    # on, so it leaves the columns of earlier pivots reduced
    for ri, row in enumerate(ech):
        c = min(row)
        for up in ech[:ri]:
            q = up.get(c, 0) // row[c]
            if q:
                _subtract(up, q, row)
    return [[row.get(j, 0) for j in range(width)] for row in ech]
