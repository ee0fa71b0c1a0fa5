"""The closure system on blue edge lengths and its exact kernel.

Every polygon must close up in the plane: the sum of its side lengths times
their unit directions vanishes.  Splitting that complex equation into two
integer-valued real equations per polygon gives a 2V x E_b integer matrix
whose kernel is the space of consistent length assignments.  A polygon
touches only its own sides, so each row is held as its nonzeros, a dict
from column to coefficient.

Row scaling: with Re and Im the real and imaginary parts of the unit
direction at angle e*pi/3, the two rows use the integer combinations
Re + Im/sqrt(3) and 2*Im/sqrt(3).  For a hexagon with exponents 0..5 these
are exactly (1,1,0,-1,-1,0) and (0,1,1,0,-1,-1); degenerate polygons arise
by zero-substitution into that pattern.  Any other integer scaling spans
the same row space and leaves the kernel unchanged.
"""

from __future__ import annotations

from collections import Counter
from operator import mul
from typing import NamedTuple

from . import linalg
from .emg import WHITE, EnhancedMultigraph, InputError
from .labeling import LabelMap, PolygonBoundary

# row coefficient patterns per direction exponent 0..5
_ROW_RE = (1, 1, 0, -1, -1, 0)
_ROW_IM = (0, 1, 1, 0, -1, -1)

# sign convention: white polygons contribute +rows, black polygons -rows,
# so every edge appears once with each sign and the rows sum to zero
WHITE_SIGN = 1
BLACK_SIGN = -1

# primes for the rank certificate of verify_lemmas, tried in this order
RANK_PRIMES = (2 ** 61 - 1, 2 ** 89 - 1, 2 ** 127 - 1)


def check_lengths(vector, n: int) -> None:
    """Raise InputError unless ``vector`` holds ``n`` edge lengths, one per column."""
    if len(vector) != n:
        raise InputError(f"a length vector needs {n} entries, got {len(vector)}")


class ShapeSystem(NamedTuple):
    rows: tuple[dict[int, int], ...]             # 2V rows: column -> nonzero coefficient
    row_origin: tuple[tuple[int, str], ...]      # row -> (polygon vertex id, "re"|"im")
    col_edges: tuple[int, ...]                   # column -> blue edge id, ascending

    def solves(self, vec) -> bool:
        """Whether the vector of E_b edge lengths closes every polygon."""
        check_lengths(vec, len(self.col_edges))
        return not any(sum(map(mul, row.values(), map(vec.__getitem__, row))) for row in self.rows)

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_cols(self) -> int:
        return len(self.col_edges)


class KernelBasis(NamedTuple):
    basis: tuple[tuple[int, ...], ...]  # primitive integer vectors, RREF-canonical
    rank: int
    dimension: int
    col_edges: tuple[int, ...]


def build_constraints(g: EnhancedMultigraph, boundaries: list[PolygonBoundary],
                      labels: LabelMap) -> ShapeSystem:
    """Two integer rows per polygon; +1 sign for white polygons, -1 for black.

    An edge's coefficient accumulates over occurrences, so a side bounding
    the same polygon twice contributes twice.  A row stores no zero: a side
    whose direction has coefficient 0 in it is left out.
    """
    exp = labels.exponents
    col_edges = tuple(sorted(e.id for e in g.blue_edges()))
    col_of = {eid: i for i, eid in enumerate(col_edges)}
    rows: list[dict[int, int]] = []
    origin: list[tuple[int, str]] = []
    for b in sorted(boundaries, key=lambda b: b.vertex_id):
        sign = WHITE_SIGN if b.color == WHITE else BLACK_SIGN
        for part, pattern in (("re", _ROW_RE), ("im", _ROW_IM)):
            row = Counter()
            for eid in b.sides:
                row[col_of[eid]] += sign * pattern[exp[eid]]
            rows.append({c: x for c, x in row.items() if x})
            origin.append((b.vertex_id, part))
    return ShapeSystem(tuple(rows), tuple(origin), col_edges)


def kernel_basis(system: ShapeSystem) -> KernelBasis:
    """Exact null space basis, canonicalized.

    Sparse integer row echelon form and back-substitution; one primitive
    integer vector per free column, ordered by free column index, the basis
    the reduced row echelon form gives.  No tolerances anywhere.
    """
    basis = linalg.nullspace(system.rows, system.n_cols)
    rk = system.n_cols - len(basis)
    return KernelBasis(tuple(tuple(v) for v in basis), rk, len(basis), system.col_edges)


class LemmaCheck(NamedTuple):
    name: str
    passed: bool
    detail: str


def verify_lemmas(system: ShapeSystem, kernel: KernelBasis) -> tuple[LemmaCheck, ...]:
    """Diagnostics, in order: zero row sum, rank E_b - 4, kernel dimension 4,
    and a certificate that the echelon rank is the rank over the rationals.

    The certificate, ``rank-methods-agree``, uses no echelon form.  With
    A the closure system and K the kernel basis, A*K = 0 and rank_p(K) =
    dimension bound rank_Q(A) by E_b - dimension from above, and rank_p(A)
    bounds it from below, since a rank modulo a prime never exceeds the
    rank over the rationals.  A short rank modulo p proves nothing, so the
    next of ``RANK_PRIMES`` is tried, and after the last one the Bareiss
    elimination decides.  The check's detail names the method that did.

    Failures are reported, not raised, as the first ``Instance.certificates``;
    they flag inputs outside the family these identities are proved for.
    """
    checks = []
    col_sums = Counter()
    for row in system.rows:
        col_sums.update(row)
    nonzero = sorted(c for c, s in col_sums.items() if s)
    checks.append(LemmaCheck("row-sum-zero", not nonzero,
                             f"nonzero column sums at {nonzero}" if nonzero
                             else "sum of all constraint rows is the zero vector"))
    expected_rank = system.n_cols - 4
    checks.append(LemmaCheck("rank", kernel.rank == expected_rank,
                             f"rank {kernel.rank}, expected E_b - 4 = {expected_rank}"))
    checks.append(LemmaCheck("dimension", kernel.dimension == 4,
                             f"kernel dimension {kernel.dimension}, expected 4"))
    checks.append(_rank_certificate(system, kernel))
    return tuple(checks)


def _rank_certificate(system: ShapeSystem, kernel: KernelBasis) -> LemmaCheck:
    def verdict(passed: bool, detail: str) -> LemmaCheck:
        return LemmaCheck("rank-methods-agree", passed, detail)

    rank, dim = kernel.rank, kernel.dimension
    if rank + dim != system.n_cols:
        return verdict(False, f"rank {rank} + dimension {dim} is not E_b = {system.n_cols}")
    for i, v in enumerate(kernel.basis):
        if not system.solves(v):
            return verdict(False, f"A*K != 0: kernel vector {i} does not solve the system")
    kernel_rows = [linalg.nonzeros(v) for v in kernel.basis]
    for p in RANK_PRIMES:
        rank_a = linalg.rank_mod_p(system.rows, p)
        rank_k = linalg.rank_mod_p(kernel_rows, p)
        if rank_a > rank or rank_k > dim:
            return verdict(False, f"mod-p certificate, p = {p}: rank_p(A) = {rank_a} and "
                                  f"rank_p(K) = {rank_k}, one above echelon rank {rank} "
                                  f"or dimension {dim}")
        if (rank_a, rank_k) == (rank, dim):
            return verdict(True, f"mod-p certificate, p = {p}: A*K = 0, rank_p(K) = {rank_k}, "
                                 f"rank_p(A) = {rank_a} = echelon rank {rank}")
    ff_a = linalg.rank_fraction_free(system.rows, system.n_cols)
    ff_k = linalg.rank_fraction_free(kernel_rows, system.n_cols)
    return verdict((ff_a, ff_k) == (rank, dim),
                   f"fraction-free fallback, the rank modulo every listed prime fell short: "
                   f"A*K = 0, rank(K) = {ff_k}, rank(A) = {ff_a}; echelon rank {rank}, dimension {dim}")
