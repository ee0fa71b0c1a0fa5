"""The cone C_tau of consistent nonnegative length assignments.

C_tau is the closure kernel intersected with the nonnegative orthant, and
every description of it here is in coefficients of one integer basis of
the lattice of integer kernel points (saturated, so it spans every integer
solution; ``linalg.saturate`` finds it from one echelon of the n × 4
transposed kernel basis).  There the nonnegativity of every edge length is
an integer inequality system B c >= 0 with one row per blue edge, whose
extreme rays, primitive in the lattice, the double description method
computes on its distinct rows, each ray carrying an integer bitmask of the
rows it is tight on, so adjacency is a test on ints (the masks are the
ray-row incidences the face lattice of C_tau would read).  The points with
every length in [0, bound] are the integer points of a box, found by
Fourier-Motzkin elimination.  Edges whose rows in the basis are equal have
equal lengths at every point, so the box rows, and every bound read from
them, come from one edge per distinct row.  The enumeration carries the
partial vector of the fixed coefficients down the levels, and reads the
last coefficient's range and the sub-range of strictly positive points
straight from it and the distinct rows the last basis vector moves; each
point then costs a step on the moving edges and one tuple copy.
Everything runs in exact integer arithmetic: every constraint is kept as
an integer row, and rescaled only by positive factors.
"""

from __future__ import annotations

import math
from operator import add, mul
from typing import NamedTuple

from . import linalg
from .emg import InputError
from .shapesys import KernelBasis, LemmaCheck


ENUMERATION_BUDGET = 10 ** 6  # the default candidate budget of every enumeration


class EnumerationBudgetError(RuntimeError):
    def __init__(self, budget: int):
        super().__init__(f"lattice enumeration exceeded the budget of {budget} candidates")
        self.budget = budget


class ConeDescription(NamedTuple):
    inequalities: tuple[tuple[int, ...], ...]  # rows: edge coordinates in the lattice basis, primitive
    dimension: int                             # ambient (lattice) dimension
    extreme_rays: tuple[tuple[int, ...], ...] | None = None
    lineality: tuple[tuple[int, ...], ...] = ()
    has_positive_point: bool | None = None


# ---------------------------------------------------------------------------
# lattice of integer solutions

class LatticeBasis(NamedTuple):
    vectors: tuple[tuple[int, ...], ...]  # basis of the integer kernel points, in edge coordinates
    col_edges: tuple[int, ...]

    @property
    def dimension(self) -> int:
        return len(self.vectors)


def lattice_basis(kernel: KernelBasis) -> LatticeBasis:
    """Integer basis of all integer points of the kernel (saturated), in
    Hermite normal form for reproducibility: that form is canonical for the
    lattice.  A zero-dimensional kernel gives the empty basis, whose only
    point is zero."""
    return LatticeBasis(tuple(map(tuple, linalg.saturate(kernel.basis))), kernel.col_edges)


def lattice_coefficients(vectors, point) -> list[int]:
    """The c with point = sum c_i vectors[i], for ``vectors`` in row Hermite
    normal form, by substitution along the pivots: row i is the last with a
    nonzero at its pivot, so c_i follows from the c of the rows above it.
    With every pivot 1 (and so every entry above one 0), c is the point's
    entries at the pivots.  A point that c does not recombine to is off the
    lattice and raises ValueError."""
    coeffs: list[int] = []
    for row in vectors:
        p = next(j for j, x in enumerate(row) if x)
        coeffs.append((point[p] - sum(a * v[p] for a, v in zip(coeffs, vectors))) // row[p])
    # each column ends in the point's entry
    if any(sum(map(mul, coeffs, col)) != col[-1] for col in zip(*vectors, point)):
        raise ValueError(f"{list(point)} is not a point of the lattice")
    return coeffs


def restrict_to_lattice(lattice: LatticeBasis) -> ConeDescription:
    """Inequality description of the cone in lattice coordinates: row i
    holds edge i's coordinates in the basis vectors, cleared to a primitive
    integer vector (a positive rescaling), so B c >= 0 says every edge
    length of the lattice point with coefficients c is nonnegative.  Each
    distinct column is cleared once."""
    if lattice.dimension < 1:
        raise ValueError("lattice dimension must be at least 1")
    cols = list(zip(*lattice.vectors))
    cleared = {col: tuple(linalg.primitive_vector(col)) if any(col) else col for col in set(cols)}
    return ConeDescription(tuple(map(cleared.__getitem__, cols)), lattice.dimension)


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
    distinct = set(cd.inequalities)
    rows = sorted(filter(any, distinct), key=lambda r: (len(r) - r.count(0), r))
    rays, lin = _double_description(rows, cd.dimension)
    total = [sum(col) for col in zip(*rays)]
    positive = bool(rays) and all(sum(map(mul, row, total)) > 0 for row in distinct)
    return ConeDescription(cd.inequalities, cd.dimension, tuple(rays), tuple(lin), positive)


def positive_point_check(cd: ConeDescription) -> LemmaCheck:
    """The certificate that the sum of the extreme rays is strictly positive."""
    verdict = "is" if cd.has_positive_point else "is not"
    return LemmaCheck("positive-point", bool(cd.has_positive_point),
                      f"the sum of the {len(cd.extreme_rays)} extreme rays {verdict} strictly positive")


def _double_description(rows, dim):
    """Fukuda-Prodon style incremental double description.

    State: a lineality basis L and a ray list R with
    cone-so-far = span(L) + cone(R), and per ray an integer bitmask of the
    processed rows it is tight on (bit j for rows[j]).  A new inequality
    that is nonzero on some lineality direction consumes it; otherwise the
    classic split and adjacent-combination step runs on the rays.  Every
    ray is >= 0 on every processed row, so the masks stay exact with no
    dot product on a processed row: a ray the new row sees as 0 gains its
    bit, and a positive combination of rays p and m gets mask[p] & mask[m]
    and the bit.  p and m are adjacent when no third ray's mask contains
    their common rows.  The masks are the cone's ray-row incidences.
    """
    lineality = [(0,) * i + (1,) + (0,) * (dim - 1 - i) for i in range(dim)]
    rays: list[tuple[int, ...]] = []
    masks: list[int] = []

    for j, row in enumerate(rows):
        bit = 1 << j
        hit = next((i for i, l in enumerate(lineality) if sum(map(mul, row, l))), None)
        if hit is not None:
            l0 = lineality.pop(hit)
            v0 = sum(map(mul, row, l0))
            if v0 < 0:
                l0, v0 = tuple(-x for x in l0), -v0

            def project(v):
                # onto the hyperplane of row, along l0; v0 > 0 times the
                # rational projection, so the direction is kept.  A vector
                # the row does not see stays, primitive already.
                t = sum(map(mul, row, v))
                if not t:
                    return v
                w = [v0 * a - t * b for a, b in zip(v, l0)]
                g = math.gcd(*w)
                return tuple(x // g for x in w)

            lineality = [project(l) for l in lineality]
            # every projection is tight on the row; l0, a lineality
            # direction until now, is tight on every row before it
            rays = [project(r) for r in rays] + [l0]
            masks = [m | bit for m in masks] + [bit - 1]
            continue

        vals = [sum(map(mul, row, r)) for r in rays]
        if min(vals, default=0) >= 0:
            masks = [m if v else m | bit for m, v in zip(masks, vals)]
            continue
        # the rays the row keeps, a repeated direction once, then the
        # combination of each adjacent pair it separates
        kept: dict[tuple[int, ...], int] = {}
        plus, minus = [], []
        for r, m, v in zip(rays, masks, vals):
            if v > 0:
                kept[r] = m
                plus.append((r, m, v))
            elif v:
                minus.append((r, m, v))
            else:
                kept[r] = m | bit
        for rp, mp, vp in plus:
            for rm, mm, vm in minus:
                common = mp & mm
                # adjacent: no mask but p's and m's contains their common rows
                if [common & m for m in masks].count(common) == 2:
                    w = [vp * b - vm * a for a, b in zip(rp, rm)]
                    g = math.gcd(*w)
                    if g:
                        kept.setdefault(tuple(x // g for x in w), common | bit)
        rays, masks = list(kept), list(kept.values())

    # every ray and lineality vector is primitive already
    return sorted(set(rays)), lineality


# ---------------------------------------------------------------------------
# lattice point enumeration

class LatticePoint(NamedTuple):
    vector: tuple[int, ...]       # edge coordinates
    strictly_positive: bool


def enumerate_lattice_points(lb: LatticeBasis, bound: int,
                             budget: int = ENUMERATION_BUDGET) -> list[LatticePoint]:
    """The integer points of C_tau with every length <= bound, sorted by vector.

    C_tau is the kernel intersected with the nonnegative orthant, and ``lb``
    spans every integer kernel point, so these are the points
    c_0 v_0 + ... + c_{d-1} v_{d-1} of the lattice inside the box
    0 <= L c <= bound, one per coefficient vector c.  Edges with equal
    rows of L have equal lengths at every c, so one edge stands for each
    distinct row, in first-occurrence order.  Fourier-Motzkin elimination
    projects the box rows of the distinct rows, and the integer ranges of
    c_0 .. c_{d-2} are read level by level from the projected systems,
    carrying the partial vector w = c_0 v_0 + ... down the levels.  Each
    prefix leaves one run of points w + c v_{d-1}, read in one pass over
    one edge j per distinct moving row, v_j != 0 (the box rows of the still
    edges, v_j = 0, hold by the level above): 0 <= w_j + c v_j <= bound
    gives the run's range of c, and w_j + c v_j >= 1 the interval of c on
    which the point is strictly positive (every edge length >= 1), empty
    unless w_j >= 1 on one edge per distinct still row.  The run's points
    are copies of one working vector stepped by v_{d-1} on every moving
    edge, so a point costs work in the nonzeros of v_{d-1}, and nothing is
    filtered afterwards.  More than ``budget`` candidates raise
    EnumerationBudgetError, and a negative bound or budget InputError.
    """
    if bound < 0:
        raise InputError(f"bound must be >= 0, got {bound}")
    if budget < 0:
        raise InputError(f"budget must be >= 0, got {budget}")
    d = lb.dimension
    n = len(lb.col_edges)
    if d == 0:
        return [LatticePoint(tuple([0] * n), False)]

    # the first edge of each distinct row of L, in first-occurrence order
    first: dict[tuple[int, ...], int] = {}
    for j, row in enumerate(zip(*lb.vectors)):
        first.setdefault(row, j)
    # constraints as (coeff vector, constant): coeff . c + const >= 0
    constraints = []
    for row in first:
        constraints.append((list(row), 0))
        constraints.append(([-x for x in row], bound))
    systems = _fourier_motzkin_levels(constraints, d)
    # a run's bounds read one edge per distinct row, its points every edge
    bounding = [(j, row[-1]) for row, j in first.items() if row[-1]]
    if not bounding:
        raise ValueError("enumeration region is unbounded; lattice basis must be full rank")
    still = [j for row, j in first.items() if not row[-1]]
    moving = [(j, a) for j, a in enumerate(lb.vectors[-1]) if a]

    points: list[LatticePoint] = []
    append = points.append
    # builds a LatticePoint without the Python-level __new__ of a NamedTuple
    new = tuple.__new__
    visited = 0

    def run(w: list[int]):
        nonlocal visited
        # every moving edge bounds c on both sides, and the strictly
        # positive interval [plo, phi] lies in the run's range [lo, hi]:
        # all four start from the first edge's range, which holds both
        j, a = bounding[0]
        x = w[j]
        lo = plo = -(x // a) if a > 0 else -((bound - x) // -a)
        hi = phi = (bound - x) // a if a > 0 else x // -a
        for j, a in bounding:
            x = w[j]
            if a > 0:
                # 0 <= x + c a <= bound, and x + c a >= 1
                t = -(x // a)
                if t > lo:
                    lo = t
                t = (bound - x) // a
                if t < hi:
                    hi = t
                t = -((x - 1) // a)
                if t > plo:
                    plo = t
            else:
                # 0 <= x - c |a| <= bound, and x - c |a| >= 1
                t = -((bound - x) // -a)
                if t > lo:
                    lo = t
                t = x // -a
                if t < hi:
                    hi = t
                t = (x - 1) // -a
                if t < phi:
                    phi = t
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
            append(new(LatticePoint, (tuple(vec), plo <= c <= phi)))
            for j, a in moving:
                vec[j] += a

    def recurse(prefix: tuple[int, ...], w: list[int]):
        level = len(prefix)
        if level == d - 1:
            return run(w)
        lo, hi = _integer_range(systems[level], prefix)
        if lo is None:
            return
        v = lb.vectors[level]
        w = [x + lo * y for x, y in zip(w, v)]
        for val in range(lo, hi + 1):
            recurse(prefix + (val,), w)
            w = list(map(add, w, v))

    recurse((), [0] * n)
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
