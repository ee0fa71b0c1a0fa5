"""Reference for the quadratic form held as its nonzero terms.

``dense_restriction`` is the dense product B M B^T that
``qform.restrict_form`` computed before the form kept only its terms, and
``form_terms`` reads the terms (i, j, m_ij + m_ji) for i < j and
(i, i, m_ii) off any square integer matrix, symmetric or not, so that tests
can build a ``QuadraticForm`` from a dense matrix.  ``global_matrix`` goes
the other way, from the terms to the dense symmetric E_b x E_b matrix,
which the library no longer builds, and ``form_value`` is the dense
evaluation that ``QuadraticForm.value`` must agree with.  ``signature`` is
the rational elimination that ``qform.signature`` ran before it eliminated
without division: each step subtracts f/d times the pivot row and column.
"""

from __future__ import annotations

import math
from fractions import Fraction

from rational_linalg import mat_mul, transpose


def dense_restriction(matrix, basis) -> tuple[tuple[int, ...], ...]:
    """B M B^T for the basis vectors B (as rows) and the dense matrix M."""
    return tuple(map(tuple, mat_mul(basis, mat_mul(matrix, transpose(basis)))))


def form_terms(matrix) -> tuple[tuple[int, int, int], ...]:
    terms = []
    for i, row in enumerate(matrix):
        for j in range(i, len(row)):
            c = row[j] + matrix[j][i] if j > i else row[i]
            if c:
                terms.append((i, j, c))
    return tuple(terms)


def global_matrix(qf) -> tuple[tuple[int, ...], ...]:
    """The symmetric doubled Gram matrix, E_b x E_b, built from the terms
    of ``qf``: c on the diagonal, c/2 at (i, j) and (j, i) off it."""
    n = len(qf.col_edges)
    m = [[0] * n for _ in range(n)]
    for i, j, c in qf.terms:
        if i == j:
            m[i][i] = c
        else:
            m[i][j] = m[j][i] = c // 2
    return tuple(map(tuple, m))


def form_value(matrix, vec):
    """Half of vec^T matrix vec for a doubled Gram matrix, exactly: an int
    when integral (always, on integer vectors), else a Fraction."""
    v = [Fraction(x) for x in vec]
    d = math.lcm(*(x.denominator for x in v))
    w = [x.numerator * (d // x.denominator) for x in v]  # d * v, in integers
    n = len(w)
    half = Fraction(sum(matrix[i][j] * w[i] * w[j] for i in range(n) for j in range(n)), 2 * d * d)
    return int(half) if half.denominator == 1 else half


def signature(matrix) -> tuple[int, int, int]:
    """Inertia (positives, negatives, zeros) of a symmetric rational matrix
    by rational congruence, with the hyperbolic step for a zero diagonal."""
    a = [[Fraction(x) for x in row] for row in matrix]
    n = len(a)
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
