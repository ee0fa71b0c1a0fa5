"""Reference for the saturated lattice basis.

``lattice_basis`` is the integer kernel of the integer kernel of the kernel
basis, the construction ``cone.lattice_basis`` used before
``linalg.saturate`` replaced it.  ``integer_kernel`` brings the transpose of
its matrix, with an identity block appended, to integer echelon form by
unimodular row operations: the block then holds the transform, and its rows
beside zero echelon rows span the kernel over the integers.  Its two
echelons are n × (width + n), so this is quadratic in n where
``saturate`` is linear.
"""

from __future__ import annotations

from octacolor.linalg import _int_row_echelon, hermite_normal_form


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
    kernel = [row[width:] for row in _int_row_echelon(aug) if not any(row[:width])]
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
