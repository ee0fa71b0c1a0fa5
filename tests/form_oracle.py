"""Reference for the quadratic form held as its nonzero terms.

``dense_restriction`` is the dense product K M K^T that
``qform.restrict_form`` computed before the form kept only its terms, and
``form_terms`` reads the terms (i, j, m_ij + m_ji) for i < j and
(i, i, m_ii) off any square integer matrix, symmetric or not, so that tests
can build a ``QuadraticForm`` from a dense matrix.
"""

from __future__ import annotations

from rational_linalg import mat_mul, transpose


def dense_restriction(matrix, basis) -> tuple[tuple[int, ...], ...]:
    """K M K^T for the kernel vectors K (as rows) and the dense matrix M."""
    return tuple(map(tuple, mat_mul(basis, mat_mul(matrix, transpose(basis)))))


def form_terms(matrix) -> tuple[tuple[int, int, int], ...]:
    terms = []
    for i, row in enumerate(matrix):
        for j in range(i, len(row)):
            c = row[j] + matrix[j][i] if j > i else row[i]
            if c:
                terms.append((i, j, c))
    return tuple(terms)
