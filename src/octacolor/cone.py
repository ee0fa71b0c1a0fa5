"""The cone C_tau of consistent nonnegative length assignments.

C_tau is the closure kernel intersected with the nonnegative orthant.  In
kernel coordinates the nonnegativity of every edge length becomes an integer
inequality system B x >= 0 with one row per blue edge, and this module
computes the extreme rays of that cone by the double description method.
The integer points of C_tau are enumerated in edge coordinates instead: an
integer basis of the lattice of integer kernel points (saturated, so it
spans every integer solution) turns the points with every length in
[0, bound] into the integer points of a box, found by Fourier-Motzkin
elimination.  The enumeration carries the partial vector of the fixed
coefficients down the levels, and reads the last coefficient's range and
the sub-range of strictly positive points straight from it and the box
rows of the edges the last basis vector moves; each point then costs a
step on those edges and one tuple copy.
Everything runs in exact integer arithmetic: every constraint is kept as an
integer row, and rescaled only by positive factors.
"""

from __future__ import annotations

import math
from operator import add, mul
from typing import NamedTuple

from . import linalg
from .shapesys import KernelBasis


class EnumerationBudgetError(RuntimeError):
    def __init__(self, budget: int):
        super().__init__(f"lattice enumeration exceeded the budget of {budget} candidates")
        self.budget = budget


class ConeDescription(NamedTuple):
    inequalities: tuple[tuple[int, ...], ...]  # rows: edge coordinates in the kernel basis, primitive
    dimension: int                             # ambient (kernel) dimension
    extreme_rays: tuple[tuple[int, ...], ...] | None = None
    lineality: tuple[tuple[int, ...], ...] = ()
    has_positive_point: bool | None = None


def restrict_to_kernel(kernel: KernelBasis) -> ConeDescription:
    """Inequality description of the cone in kernel coordinates.

    Row i lists the i-th edge coordinate of the kernel basis vectors, so
    B x >= 0 says every edge length of the point with kernel coordinates x
    is nonnegative.  Rows are cleared to primitive integer vectors, which
    rescales each inequality by a positive factor only.
    """
    if kernel.dimension < 1:
        raise ValueError("kernel dimension must be at least 1")
    rows = []
    for i in range(len(kernel.col_edges)):
        row = [b[i] for b in kernel.basis]
        rows.append(tuple(linalg.primitive_vector(row)) if any(row) else tuple([0] * kernel.dimension))
    return ConeDescription(tuple(rows), kernel.dimension)


# ---------------------------------------------------------------------------
# double description

def extreme_rays(cd: ConeDescription) -> ConeDescription:
    """Fill in extreme rays (and lineality, if any) of {x : B x >= 0}.

    Rows are inserted sorted by (number of nonzeros, lexicographic), which is
    deterministic and usually cheap; the result does not depend on the order.
    Rays come back as primitive integer vectors in lexicographic order.  A
    cone that is not pointed is reported through a nonempty lineality basis,
    with the rays describing the pointed quotient.
    """
    rows = [row for row in cd.inequalities if any(row)]
    rows = sorted(set(rows), key=lambda r: (sum(1 for x in r if x), r))
    rays, lin = _double_description(rows, cd.dimension)
    total = [sum(r[i] for r in rays) for i in range(cd.dimension)] if rays else [0] * cd.dimension
    positive = bool(rays) and all(linalg.dot(row, total) > 0 for row in cd.inequalities)
    return ConeDescription(cd.inequalities, cd.dimension, tuple(rays), tuple(lin), positive)


def _double_description(rows, dim):
    """Fukuda-Prodon style incremental double description.

    State: a lineality basis L and a ray list R with
    cone-so-far = span(L) + cone(R).  A new inequality that is nonzero on
    some lineality direction consumes it; otherwise the classic split and
    adjacent-combination step runs on the rays.
    """
    lineality = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
    rays: list[list[int]] = []
    processed: list[tuple[int, ...]] = []

    for row in rows:
        vals_lin = [linalg.dot(row, l) for l in lineality]
        hit = next((i for i, v in enumerate(vals_lin) if v != 0), None)
        if hit is not None:
            l0 = lineality.pop(hit)
            v0 = vals_lin[hit]
            if v0 < 0:
                l0 = [-x for x in l0]
                v0 = -v0

            def project(v):
                # onto the hyperplane of row, along l0; v0 > 0 times the
                # rational projection, so the direction is kept
                t = linalg.dot(row, v)
                return linalg.primitive_vector([v0 * a - t * b for a, b in zip(v, l0)])

            lineality = [project(l) for l in lineality]
            rays = [project(r) for r in rays] + [l0]
            processed.append(row)
            continue

        vals = [linalg.dot(row, r) for r in rays]
        plus = [i for i, v in enumerate(vals) if v > 0]
        zero = [i for i, v in enumerate(vals) if v == 0]
        minus = [i for i, v in enumerate(vals) if v < 0]
        if not minus:
            processed.append(row)
            continue

        tight = {i: frozenset(j for j, a in enumerate(processed) if linalg.dot(a, rays[i]) == 0)
                 for i in range(len(rays))}
        new_rays = [rays[i] for i in plus + zero]
        for ip in plus:
            for im in minus:
                common = tight[ip] & tight[im]
                adjacent = not any(k not in (ip, im) and common <= tight[k]
                                   for k in range(len(rays)))
                if adjacent:
                    new_rays.append([vals[ip] * b - vals[im] * a
                                     for a, b in zip(rays[ip], rays[im])])
        # drop zero and repeated directions, keeping the first of each
        rays = [list(r) for r in dict.fromkeys(tuple(linalg.primitive_vector(r))
                                               for r in new_rays if any(r))]
        processed.append(row)

    # every ray and lineality vector is primitive already
    return sorted({tuple(r) for r in rays if any(r)}), [tuple(l) for l in lineality]


# ---------------------------------------------------------------------------
# lattice of integer solutions

class LatticeBasis(NamedTuple):
    vectors: tuple[tuple[int, ...], ...]  # basis of the integer kernel points, in edge coordinates
    col_edges: tuple[int, ...]

    @property
    def dimension(self) -> int:
        return len(self.vectors)


def lattice_basis(kernel: KernelBasis) -> LatticeBasis:
    """Integer basis of all integer points of the kernel (saturated).

    The cleared kernel basis spans the right rational subspace; taking the
    integer kernel of its integer orthogonal complement yields a basis whose
    integer span is the full set of integer kernel points, in Hermite normal
    form for reproducibility.  That form is canonical for the lattice, so
    the complement is left unnormalized: only the lattice it spans matters.
    """
    cleared = [list(v) for v in kernel.basis]
    complement = linalg._integer_kernel_rows(cleared)
    if not complement:
        # kernel is the whole space
        n = len(kernel.col_edges)
        vectors = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    else:
        vectors = linalg.integer_kernel(complement)
    return LatticeBasis(tuple(tuple(v) for v in vectors), kernel.col_edges)


# ---------------------------------------------------------------------------
# lattice point enumeration

class LatticePoint(NamedTuple):
    vector: tuple[int, ...]       # edge coordinates
    coeffs: tuple[int, ...]       # coordinates in the lattice basis
    strictly_positive: bool


def enumerate_lattice_points(lb: LatticeBasis, bound: int,
                             budget: int = 10 ** 6) -> list[LatticePoint]:
    """The integer points of C_tau with every length <= bound, sorted by vector.

    C_tau is the kernel intersected with the nonnegative orthant, and ``lb``
    spans every integer kernel point, so these are the points
    c_0 v_0 + ... + c_{d-1} v_{d-1} of the lattice inside the box
    0 <= L c <= bound, one per coefficient vector c.  Fourier-Motzkin
    elimination projects the box rows, and the integer ranges of c_0 ..
    c_{d-2} are read level by level from the projected systems, carrying
    the partial vector w = c_0 v_0 + ... down the levels.  Each prefix
    leaves one run of points w + c v_{d-1}, read in one pass over the
    moving edges j, those with v_j != 0 (the box rows of the still edges,
    v_j = 0, hold by the level above): 0 <= w_j + c v_j <= bound gives the
    run's range of c, and w_j + c v_j >= 1 the interval of c on which the
    point is strictly positive (every edge length >= 1), empty unless
    w_j >= 1 on every still edge.  The run's points are copies of one
    working vector stepped by v_{d-1} on the moving edges only, so a point
    costs work in the nonzeros of v_{d-1}, and nothing is filtered
    afterwards.  More than ``budget`` candidates raise
    EnumerationBudgetError.
    """
    if bound < 0:
        raise ValueError("bound must be >= 0")
    d = lb.dimension
    n = len(lb.col_edges)
    if d == 0:
        return [LatticePoint(tuple([0] * n), (), False)]

    # constraints as (coeff vector, constant): coeff . c + const >= 0
    constraints = []
    for i in range(n):
        li = [vec[i] for vec in lb.vectors]
        constraints.append((li, 0))
        constraints.append(([-x for x in li], bound))
    systems = _fourier_motzkin_levels(constraints, d)
    last = lb.vectors[-1]
    moving = [(j, a) for j, a in enumerate(last) if a]
    if not moving:
        raise ValueError("enumeration region is unbounded; lattice basis must be full rank")
    still = [j for j, a in enumerate(last) if not a]

    points: list[LatticePoint] = []
    append = points.append
    # builds a LatticePoint without the Python-level __new__ of a NamedTuple
    new = tuple.__new__
    visited = 0

    def run(prefix: tuple[int, ...], w: list[int]):
        nonlocal visited
        # every moving edge bounds c on both sides, so lo and hi end as
        # integers; plo (phi) stays infinite without a rising (falling) edge
        lo = plo = -math.inf
        hi = phi = math.inf
        for j, a in moving:
            x = w[j]
            if a > 0:
                # 0 <= x + c a <= bound, and x + c a >= 1
                lo = max(lo, -(x // a))
                hi = min(hi, (bound - x) // a)
                plo = max(plo, -((x - 1) // a))
            else:
                # 0 <= x - c |a| <= bound, and x - c |a| >= 1
                lo = max(lo, -((bound - x) // -a))
                hi = min(hi, x // -a)
                phi = min(phi, (x - 1) // -a)
        if lo > hi:
            return
        visited += hi - lo + 1
        if visited > budget:
            raise EnumerationBudgetError(budget)
        if min(map(w.__getitem__, still), default=1) < 1:
            plo, phi = 1, 0
        vec = w.copy()
        for j, a in moving:
            vec[j] += lo * a
        for c in range(lo, hi + 1):
            append(new(LatticePoint, (tuple(vec), prefix + (c,), plo <= c <= phi)))
            for j, a in moving:
                vec[j] += a

    def recurse(prefix: tuple[int, ...], w: list[int]):
        level = len(prefix)
        lo, hi = _integer_range(systems[level], prefix)
        if lo is None:
            return
        v = lb.vectors[level]
        descend = run if level + 2 == d else recurse
        w = [x + lo * y for x, y in zip(w, v)]
        for val in range(lo, hi + 1):
            descend(prefix + (val,), w)
            w = list(map(add, w, v))

    (run if d == 1 else recurse)((), [0] * n)
    # distinct coefficients give distinct vectors: this orders by vector
    points.sort()
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
