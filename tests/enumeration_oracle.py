"""Reference implementation of the lattice point enumeration.

This is ``cone.enumerate_lattice_points`` as it was before the partial
vector was carried down the levels: the integer range of every level,
the last included, is read from its Fourier-Motzkin system for each
prefix, and every point is rebuilt from its coefficients by ``point``
(once ``LatticeBasis.point``).  Each point keeps its coefficients, which
the library's points do not hold, so tests can group the points into runs
by prefix.  Tests use it as the oracle the library must match point for
point, in order, and budget for budget.
"""

from __future__ import annotations

from typing import NamedTuple

from octacolor.cone import EnumerationBudgetError, LatticeBasis, _fourier_motzkin_levels, _integer_range


class OraclePoint(NamedTuple):
    vector: tuple[int, ...]       # edge coordinates
    coeffs: tuple[int, ...]       # coordinates in the lattice basis
    strictly_positive: bool


def point(lb: LatticeBasis, coeffs) -> tuple[int, ...]:
    n = len(lb.col_edges)
    out = [0] * n
    for c, vec in zip(coeffs, lb.vectors):
        for i in range(n):
            out[i] += c * vec[i]
    return tuple(out)


def enumerate_lattice_points(lb: LatticeBasis, bound: int,
                             budget: int = 10 ** 6) -> list[OraclePoint]:
    if bound < 0:
        raise ValueError("bound must be >= 0")
    d = lb.dimension
    n = len(lb.col_edges)
    if d == 0:
        return [OraclePoint(tuple([0] * n), (), False)]

    # constraints as (coeff vector, constant): coeff . c + const >= 0
    constraints = []
    for i in range(n):
        li = [vec[i] for vec in lb.vectors]
        constraints.append((li, 0))
        constraints.append(([-x for x in li], bound))
    systems = _fourier_motzkin_levels(constraints, d)

    points: list[OraclePoint] = []
    visited = 0

    def recurse(level: int, prefix: list[int]):
        nonlocal visited
        lo, hi = _integer_range(systems[level], prefix)
        if lo is None:
            return
        if level + 1 < d:
            for val in range(lo, hi + 1):
                recurse(level + 1, prefix + [val])
            return
        visited += hi - lo + 1
        if visited > budget:
            raise EnumerationBudgetError(budget)
        for val in range(lo, hi + 1):
            values = prefix + [val]
            vec = point(lb, values)
            points.append(OraclePoint(vec, tuple(values), all(x >= 1 for x in vec)))

    recurse(0, [])
    points.sort(key=lambda p: p.vector)
    return points
