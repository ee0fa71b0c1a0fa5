"""The closure system on blue edge lengths and its exact kernel.

Every polygon must close up in the plane: the sum of its side lengths times
their unit directions vanishes.  Splitting that complex equation into two
integer-valued real equations per polygon gives a 2V x E_b integer matrix
whose kernel is the space of consistent length assignments.

Row scaling: with Re and Im the real and imaginary parts of the unit
direction at angle e*pi/3, the two rows use the integer combinations
Re + Im/sqrt(3) and 2*Im/sqrt(3).  For a hexagon with exponents 0..5 these
are exactly (1,1,0,-1,-1,0) and (0,1,1,0,-1,-1); degenerate polygons arise
by zero-substitution into that pattern.  Any other integer scaling spans
the same row space and leaves the kernel unchanged.
"""

from __future__ import annotations

from itertools import compress, count
from operator import mul
from typing import NamedTuple

from . import linalg
from .emg import WHITE, EnhancedMultigraph
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


class ShapeSystem(NamedTuple):
    matrix: tuple[tuple[int, ...], ...]          # 2V rows, E_b columns
    row_origin: tuple[tuple[int, str], ...]      # row -> (polygon vertex id, "re"|"im")
    col_edges: tuple[int, ...]                   # column -> blue edge id, ascending

    @property
    def n_rows(self) -> int:
        return len(self.matrix)

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
    the same polygon twice contributes twice.
    """
    exp = labels.exponent_map()
    col_edges = tuple(sorted(e.id for e in g.blue_edges()))
    col_of = {eid: i for i, eid in enumerate(col_edges)}
    rows: list[tuple[int, ...]] = []
    origin: list[tuple[int, str]] = []
    for b in sorted(boundaries, key=lambda b: b.vertex_id):
        sign = WHITE_SIGN if b.color == WHITE else BLACK_SIGN
        row_re = [0] * len(col_edges)
        row_im = [0] * len(col_edges)
        for eid in b.sides:
            d = exp[eid]
            row_re[col_of[eid]] += sign * _ROW_RE[d]
            row_im[col_of[eid]] += sign * _ROW_IM[d]
        rows.append(tuple(row_re))
        origin.append((b.vertex_id, "re"))
        rows.append(tuple(row_im))
        origin.append((b.vertex_id, "im"))
    return ShapeSystem(tuple(rows), tuple(origin), col_edges)


def kernel_basis(system: ShapeSystem) -> KernelBasis:
    """Exact null space basis, canonicalized.

    Integer row echelon form and back-substitution; one primitive integer
    vector per free column, ordered by free column index, the basis the
    reduced row echelon form gives.  No tolerances anywhere.
    """
    rows = [list(r) for r in system.matrix]
    basis = linalg.nullspace(rows)
    rk = system.n_cols - len(basis)
    return KernelBasis(tuple(tuple(v) for v in basis), rk, len(basis), system.col_edges)


class LemmaCheck(NamedTuple):
    name: str
    passed: bool
    detail: str


class LemmaReport(NamedTuple):
    checks: tuple[LemmaCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def verify_lemmas(system: ShapeSystem, kernel: KernelBasis) -> LemmaReport:
    """Diagnostics: zero row sum, rank E_b - 4, kernel dimension 4, and a
    certificate that the echelon rank is the rank over the rationals.

    The certificate, ``rank-methods-agree``, uses no echelon form.  With
    A the closure system and K the kernel basis, A*K = 0 and rank_p(K) =
    dimension bound rank_Q(A) by E_b - dimension from above, and rank_p(A)
    bounds it from below, since a rank modulo a prime never exceeds the
    rank over the rationals.  A short rank modulo p proves nothing, so the
    next of ``RANK_PRIMES`` is tried, and after the last one the Bareiss
    elimination decides.  The check's detail names the method that did.

    Failures are reported, not raised; they flag inputs outside the family
    these identities are proved for.
    """
    checks = []
    col_sums = list(map(sum, zip(*system.matrix)))
    zero_sum = all(s == 0 for s in col_sums)
    checks.append(LemmaCheck("row-sum-zero", zero_sum,
                             "sum of all constraint rows is the zero vector" if zero_sum
                             else f"nonzero column sums at {[c for c, s in enumerate(col_sums) if s]}"))
    expected_rank = system.n_cols - 4
    checks.append(LemmaCheck("rank", kernel.rank == expected_rank,
                             f"rank {kernel.rank}, expected E_b - 4 = {expected_rank}"))
    checks.append(LemmaCheck("dimension", kernel.dimension == 4,
                             f"kernel dimension {kernel.dimension}, expected 4"))
    checks.append(_rank_certificate(system, kernel))
    return LemmaReport(tuple(checks))


def _rank_certificate(system: ShapeSystem, kernel: KernelBasis) -> LemmaCheck:
    def verdict(passed: bool, detail: str) -> LemmaCheck:
        return LemmaCheck("rank-methods-agree", passed, detail)

    rank, dim = kernel.rank, kernel.dimension
    if rank + dim != system.n_cols:
        return verdict(False, f"rank {rank} + dimension {dim} is not E_b = {system.n_cols}")
    # A is sparse, at most four nonzeros per column: multiply by its nonzeros only
    sparse_rows = [(tuple(compress(count(), row)), tuple(filter(None, row)))
                   for row in system.matrix]
    for i, v in enumerate(kernel.basis):
        if any(sum(map(mul, vals, map(v.__getitem__, cols))) for cols, vals in sparse_rows):
            return verdict(False, f"A*K != 0: kernel vector {i} does not solve the system")
    for p in RANK_PRIMES:
        rank_a = linalg.rank_mod_p(system.matrix, p)
        rank_k = linalg.rank_mod_p(kernel.basis, p)
        if rank_a > rank or rank_k > dim:
            return verdict(False, f"mod-p certificate, p = {p}: rank_p(A) = {rank_a} and "
                                  f"rank_p(K) = {rank_k}, one above echelon rank {rank} "
                                  f"or dimension {dim}")
        if (rank_a, rank_k) == (rank, dim):
            return verdict(True, f"mod-p certificate, p = {p}: A*K = 0, rank_p(K) = {rank_k}, "
                                 f"rank_p(A) = {rank_a} = echelon rank {rank}")
    ff_a = linalg.rank_fraction_free(system.matrix)
    ff_k = linalg.rank_fraction_free(kernel.basis)
    return verdict((ff_a, ff_k) == (rank, dim),
                   f"fraction-free fallback, the rank modulo every listed prime fell short: "
                   f"A*K = 0, rank(K) = {ff_k}, rank(A) = {ff_a}; echelon rank {rank}, dimension {dim}")
