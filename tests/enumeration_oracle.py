"""Reference implementation of the lattice point enumeration.

This is ``cone.enumerate_lattice_points`` as it was before the partial
vector was carried down the levels and before the library walked the
Hermite normal form's triangular box: integer Fourier-Motzkin elimination
projects the box rows of every edge, the integer range of every level,
the last included, is read from its projected system for each prefix,
every point is rebuilt from its coefficients by ``point`` (once
``LatticeBasis.point``), and the points are sorted by vector at the end.
The elimination (``_fourier_motzkin_levels``, ``_prune`` and
``_integer_range``, once the library's own) lives here alone, so the
oracle shares no enumeration code with what it checks, and it takes any
full-rank basis, echelon or not.  Each point keeps its coefficients, which
the library's points do not hold, so tests can group the points into runs
by prefix.  Tests use it as the oracle the library must match point for
point, in order, and budget for budget.
"""

from __future__ import annotations

import math
from operator import mul
from typing import NamedTuple

from octacolor.cone import EnumerationBudgetError, LatticeBasis


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


def _fourier_motzkin_levels(constraints, d):
    """systems[j] holds integer constraints in variables c_0..c_j only."""
    systems = [None] * d
    current = _prune(constraints)
    for level in range(d - 1, 0, -1):
        systems[level] = current
        pos = [(c, k) for c, k in current if c[level] > 0]
        neg = [(c, k) for c, k in current if c[level] < 0]
        nxt = [(c[:level], k) for c, k in current if c[level] == 0]
        for cp, kp in pos:
            for cn, kn in neg:
                ap, an = cp[level], -cn[level]
                nxt.append(([an * x + ap * y for x, y in zip(cp[:level], cn[:level])],
                            an * kp + ap * kn))
        current = _prune(nxt)
    systems[0] = current
    return systems


def _prune(constraints):
    """Keep, per primitive direction h/g (g = gcd(h)), the row with the least
    k/g, compared by cross-multiplication.  Kept rows are divided by the gcd
    of all their entries, a positive rescaling, so the rational region and
    every integer range read from it are unchanged."""
    best: dict[tuple[int, ...], tuple[int, int]] = {}
    absolute = None
    for coeffs, const in constraints:
        g = math.gcd(*coeffs)
        if g == 0:
            # 0 >= -const: either trivial or infeasible; keep the tightest
            if absolute is None or const < absolute[1]:
                absolute = (list(coeffs), const)
            continue
        head = tuple(x // g for x in coeffs)
        if head not in best or const * best[head][1] < best[head][0] * g:
            best[head] = (const, g)
    out = []
    for head, (const, g) in best.items():
        h = math.gcd(g, const)
        out.append(([x * (g // h) for x in head], const // h))
    if absolute is not None:
        out.append(absolute)
    return out


def _integer_range(constraints, prefix):
    """Integer interval for the next variable given fixed earlier values."""
    level = len(prefix)
    lo, hi = None, None
    for coeffs, const in constraints:
        a = coeffs[level]
        rest = const + sum(map(mul, coeffs, prefix))
        # a * x + rest >= 0
        if a > 0:
            bound = -(rest // a)      # ceil(-rest / a)
            lo = bound if lo is None else max(lo, bound)
        elif a < 0:
            bound = rest // -a        # floor(rest / -a)
            hi = bound if hi is None else min(hi, bound)
        elif rest < 0:
            return None, None
    if lo is None or hi is None:
        raise ValueError("enumeration region is unbounded; lattice basis must be full rank")
    if lo > hi:
        return None, None
    return lo, hi
