"""Reference implementation of the cone's inequality rows and double description.

``restrict_to_lattice``, ``extreme_rays`` and ``_double_description`` are
``cone``'s as they were before each ray carried a bitmask of the rows it is
tight on: every insertion rebuilt the tight sets of every ray from scratch as
``frozenset``s, one dot product per ray and processed row, and every
projection and combination went through ``linalg``.  Tests use it as the
oracle the library must match exactly: inequality rows, rays, lineality
and the positive-point verdict.
"""

from __future__ import annotations

from octacolor import linalg
from octacolor.cone import ConeDescription, LatticeBasis


def restrict_to_lattice(lattice: LatticeBasis) -> ConeDescription:
    if lattice.dimension < 1:
        raise ValueError("lattice dimension must be at least 1")
    return ConeDescription(tuple(tuple(linalg.primitive_vector(col)) if any(col) else col
                                 for col in zip(*lattice.vectors)), lattice.dimension)


def extreme_rays(cd: ConeDescription) -> ConeDescription:
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
