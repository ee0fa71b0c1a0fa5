"""Reference for the saturated lattice basis.

``lattice_basis`` is the integer kernel of the integer kernel of the kernel
basis, the construction ``cone.lattice_basis`` used before
``linalg.saturate`` replaced it.  ``integer_kernel`` brings the transpose of
its matrix, with an identity block appended, to integer echelon form by
unimodular row operations: the block then holds the transform, and its rows
beside zero echelon rows span the kernel over the integers.  Its two
echelons are n × (width + n), so this is quadratic in n where
``saturate`` is linear.  ``int_row_echelon`` is the dense echelon that
``linalg`` ran on before its sparse one replaced it.
"""

from __future__ import annotations

from operator import index

from octacolor.linalg import hermite_normal_form


def int_row_echelon(rows) -> list[list[int]]:
    """Integer row echelon form of dense ``rows`` via unimodular row
    operations.

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


def integer_kernel(rows) -> list[list[int]]:
    """Basis of {x integer : rows @ x == 0}: a saturated lattice basis, in
    Hermite normal form."""
    m = [list(map(int, r)) for r in rows]
    if not m:
        return []
    n, width = len(m[0]), len(m)
    aug = [[*col, *(int(i == j) for j in range(n))] for i, col in enumerate(zip(*m))]
    # rows past the echelon of the first width columns are zero there; the
    # elimination continuing into the block mixes only them, unimodularly
    kernel = [row[width:] for row in int_row_echelon(aug) if not any(row[:width])]
    return hermite_normal_form(kernel)


def lattice_basis(kernel) -> tuple[tuple[int, ...], ...]:
    """The vectors ``cone.lattice_basis`` must return for ``kernel``."""
    if not kernel.basis:
        return ()
    complement = integer_kernel(kernel.basis)
    if not complement:
        # the kernel is the whole space
        n = len(kernel.col_edges)
        return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    return tuple(map(tuple, integer_kernel(complement)))
