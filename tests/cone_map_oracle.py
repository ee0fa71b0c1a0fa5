"""Reference construction of the cone point map M_tau by finite differences.

``cone_points_map`` is ``pipeline.Instance.cone_points_map`` as it was
before the map was read off one walk of the lattice basis.  s is the sum
of the extreme rays and N = 1 + max |entry of a basis vector b_i|, so
every point it develops, N s and each N s + b_i, is strictly positive and
passes ``Instance.develop``'s domain rules.  Column i is
cp(N s + b_i) - cp(N s), where cp develops a point and reads its cone
points; M c(N s) = cp(N s), with c(N s) N times the rays' sum, shows the
map has no offset.  None if the cone has no strictly positive point, a
point fails to develop, or the map has an offset.  Tests use it as the
oracle the library's map must equal.
"""

from __future__ import annotations

from octacolor.emg import InvariantError
from octacolor.geometry import cone_point_coordinates


def cone_points_map(inst):
    if not inst.cone.has_positive_point:
        return None
    vectors = inst.lattice.vectors
    n = 1 + max(abs(x) for v in vectors for x in v)
    coeffs = [n * sum(col) for col in zip(*inst.cone.extreme_rays)]
    base = [sum(c * x for c, x in zip(coeffs, col)) for col in zip(*vectors)]
    try:
        at = [_cone_points(inst.develop(v))
              for v in (base, *([x + y for x, y in zip(base, b)] for b in vectors))]
    except InvariantError:
        return None
    matrix = tuple(zip(*([x - y for x, y in zip(p, at[0])] for p in at[1:])))
    offset_free = [sum(m * c for m, c in zip(row, coeffs)) for row in matrix] == list(at[0])
    return matrix if offset_free else None


def _cone_points(surface) -> tuple[int, ...]:
    return tuple(x for p in cone_point_coordinates(surface) for x in p)
