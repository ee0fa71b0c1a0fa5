import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octacolor import linalg
from octacolor.families import bundled_names, gen_spiral, load_bundled
from octacolor.labeling import assign_labels, polygon_boundaries
from octacolor.shapesys import (RANK_PRIMES, ShapeSystem, build_constraints,
                                kernel_basis, verify_lemmas)
import rational_linalg

V1 = (1, 1, 0, -1, -1, 0)
V2 = (0, 1, 1, 0, -1, -1)


def _system(g):
    bnds = polygon_boundaries(g)
    labels = assign_labels(g, bnds)
    return build_constraints(g, bnds, labels)


def _dense(system):
    return rational_linalg.dense(system.rows, system.n_cols)


def test_hexagon_rows_are_the_closure_vectors(hexpair):
    system = _system(hexpair)
    white_rows = [row for row, (pid, part) in zip(_dense(system), system.row_origin) if pid == 0]
    assert system.rows[:2] == tuple({c: x for c, x in enumerate(v) if x} for v in (V1, V2))
    assert tuple(white_rows[0]) == V1
    assert tuple(white_rows[1]) == V2


def test_trapezoid_rows_reduce_to_zero_substitution(spiral3):
    # a trapezoid occupying slots 0,2,3,4 satisfies l2 = l4 and l0 = l3 + l4,
    # which is the hexagon system with the two zero slots removed
    bnds = polygon_boundaries(spiral3)
    trap = next(b for b in bnds if b.n_sides == 4 and b.slots == (0, 2, 3, 4))
    system = _system(spiral3)
    rows = [list(row) for row, (pid, _) in zip(_dense(system), system.row_origin)
            if pid == trap.vertex_id]
    col = {eid: i for i, eid in enumerate(system.col_edges)}
    e0, e2, e3, e4 = trap.sides
    expected_a = [0] * system.n_cols
    expected_b = [0] * system.n_cols
    # substitute slots (0, 2, 3, 4) into the hexagon vectors V1, V2
    for eid, slot in zip(trap.sides, trap.slots):
        expected_a[col[eid]] += V1[slot]
        expected_b[col[eid]] += V2[slot]
    # the polygon frame rotation rescales the complex closure functional,
    # so the solution sets agree even when the rows differ
    span_expected = rational_linalg.nullspace([expected_a, expected_b])
    span_got = rational_linalg.nullspace(rows)
    assert span_expected == span_got
    # and the expected relations l2 = l4, l0 = l3 + l4 hold on that span
    for v in span_got:
        assert v[col[e2]] == v[col[e4]]
        assert v[col[e0]] == v[col[e3]] + v[col[e4]]


def test_row_sum_is_zero(spiral3, hexpair):
    for g in (spiral3, hexpair):
        matrix = _dense(_system(g))
        for c in range(len(matrix[0])):
            assert sum(row[c] for row in matrix) == 0


def test_entries_are_small_integers(spiral3):
    system = _system(spiral3)
    entries = {x for row in _dense(system) for x in row}
    assert entries <= {-2, -1, 0, 1, 2}
    assert {x for row in system.rows for x in row.values()} <= {-2, -1, 1, 2}


def test_rows_store_no_zero_coefficient(hexpair):
    # a hexagon has a side at every exponent, so each of its rows meets two
    # sides whose pattern coefficient is 0; a side listed twice doubles its
    # coefficient.  Neither leaves a zero entry, which would be a zero pivot
    bnds = polygon_boundaries(hexpair)
    labels = assign_labels(hexpair, bnds)
    white = next(b for b in bnds if b.vertex_id == 0)
    plain = build_constraints(hexpair, [white], labels)
    twice = build_constraints(hexpair, [white._replace(sides=(*white.sides, *white.sides[:2]))],
                              labels)
    for system in (plain, twice):
        assert [len(row) for row in system.rows] == [4, 4]
        assert all(all(row.values()) for row in system.rows)
    cols = {plain.col_edges.index(eid) for eid in white.sides[:2]}
    assert twice.rows == tuple({c: x * (2 if c in cols else 1) for c, x in row.items()}
                               for row in plain.rows)


def test_rank_law_spiral3(spiral3):
    system = _system(spiral3)
    kb = kernel_basis(system)
    assert system.n_cols == 14
    assert kb.rank == 10
    assert kb.dimension == 4


def test_rank_law_spiral4(spiral4):
    system = _system(spiral4)
    kb = kernel_basis(system)
    assert system.n_cols == 18
    assert kb.rank == 14
    assert kb.dimension == 4


def test_kernel_of_zero_matrix():
    system = ShapeSystem(({},), ((0, "re"),), (0, 1, 2))
    kb = kernel_basis(system)
    assert kb.rank == 0
    assert kb.dimension == 3


def test_kernel_of_full_rank_block():
    rows = tuple({i: 1} for i in range(4))
    system = ShapeSystem(rows, tuple((i, "re") for i in range(4)), (0, 1, 2, 3))
    kb = kernel_basis(system)
    assert kb.rank == 4
    assert kb.dimension == 0


def test_kernel_vectors_satisfy_system_exactly(spiral3):
    system = _system(spiral3)
    kb = kernel_basis(system)
    rng = random.Random(12)
    for _ in range(20):
        coeffs = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 7)) for _ in kb.basis]
        v = [sum(c * b[i] for c, b in zip(coeffs, kb.basis)) for i in range(system.n_cols)]
        assert not any(rational_linalg.mat_vec(_dense(system), v))
        assert system.solves(v)


def test_verify_lemmas_spiral(spiral3):
    system = _system(spiral3)
    kb = kernel_basis(system)
    rep = verify_lemmas(system, kb)
    assert all(c.passed for c in rep)
    names = [c.name for c in rep]
    assert names == ["row-sum-zero", "rank", "dimension", "rank-methods-agree"]


def test_verify_lemmas_flags_short_kernel():
    rows = tuple({i: 1} for i in range(4))
    system = ShapeSystem(rows, tuple((i, "re") for i in range(4)), tuple(range(6)))
    kb = kernel_basis(system)
    rep = verify_lemmas(system, kb)
    assert not all(c.passed for c in rep)  # rank is not E_b - 4 and the row sum is not zero


def _rank_check(system, kb):
    (check,) = [c for c in verify_lemmas(system, kb) if c.name == "rank-methods-agree"]
    return check


def _forbidden(name):
    def call(*args, **kwargs):
        raise AssertionError(f"{name} should not be called")
    return call


def test_rank_certificate_uses_neither_echelon_nor_bareiss(monkeypatch, spiral3):
    system = _system(spiral3)
    kb = kernel_basis(system)
    for name in ("_echelon", "rank_fraction_free"):
        monkeypatch.setattr(linalg, name, _forbidden(name))
    check = _rank_check(system, kb)
    assert check.passed
    assert check.detail.startswith(f"mod-p certificate, p = {RANK_PRIMES[0]}:")


def test_rank_certificate_falls_back_to_bareiss(monkeypatch, spiral3):
    # rank 1 over the rationals, rank 0 modulo every listed prime
    system = ShapeSystem(({0: math.prod(RANK_PRIMES)},), ((0, "re"),), (0,))
    kb = kernel_basis(system)
    assert (kb.rank, kb.dimension) == (1, 0)
    assert [linalg.rank_mod_p(system.rows, p) for p in RANK_PRIMES] == [0] * len(RANK_PRIMES)
    check = _rank_check(system, kb)
    assert check.passed
    assert check.detail.startswith("fraction-free fallback")
    # every prime forced short on a closure system: Bareiss decides from its sparse rows
    monkeypatch.setattr(linalg, "rank_mod_p", lambda rows, p: 0)
    system = _system(spiral3)
    check = _rank_check(system, kernel_basis(system))
    assert check.passed
    assert check.detail.startswith("fraction-free fallback") and "rank(K) = 4, rank(A) = 10" in check.detail


def _tampered(kb, kind):
    basis = [list(v) for v in kb.basis]
    if kind == "vector-off-kernel":
        basis[0][0] += 1
    elif kind == "vector-repeated":  # still in the kernel, but spans one dimension less
        basis[0] = basis[1]
    elif kind == "vector-dropped":  # consistent with itself, but not the whole kernel
        return kb._replace(basis=kb.basis[1:], dimension=kb.dimension - 1)
    else:
        return kb._replace(**kind)
    return kb._replace(basis=tuple(map(tuple, basis)))


@pytest.mark.parametrize("kind", [
    "vector-off-kernel", "vector-repeated", "vector-dropped", {"rank": 11}, {"rank": 9},
    {"rank": 11, "dimension": 3}, {"rank": 9, "dimension": 5}],
    ids=["vector-off-kernel", "vector-repeated", "vector-dropped", "rank-up", "rank-down",
         "rank-up-dimension-down", "rank-down-dimension-up"])
def test_rank_certificate_rejects_a_tampered_kernel(spiral3, kind):
    system = _system(spiral3)
    kb = kernel_basis(system)
    assert (kb.rank, kb.dimension) == (10, 4) and _rank_check(system, kb).passed
    check = _rank_check(system, _tampered(kb, kind))
    assert not check.passed
    if kind == "vector-off-kernel":
        assert check.detail.startswith("A*K != 0")


@pytest.mark.parametrize("instance", bundled_names() + list(range(3, 41)))
def test_rank_certificate_matches_bareiss_oracle(instance):
    """Bundled instances by name, spiral instances by k."""
    g = load_bundled(instance) if isinstance(instance, str) else gen_spiral(instance)
    system = _system(g)
    kb = kernel_basis(system)
    check = _rank_check(system, kb)
    assert check.passed == (linalg.rank_fraction_free(system.rows, system.n_cols) == kb.rank)
    assert check.passed and check.detail.startswith("mod-p certificate")


@given(st.integers(0, 10 ** 6))
@settings(max_examples=30, deadline=None)
def test_kernel_basis_is_canonical_under_row_shuffle(seed):
    from octacolor.families import gen_spiral
    system = _system(gen_spiral(3))
    rng = random.Random(seed)
    order = list(range(system.n_rows))
    rng.shuffle(order)
    shuffled = ShapeSystem(tuple(system.rows[i] for i in order),
                           tuple(system.row_origin[i] for i in order),
                           system.col_edges)
    assert kernel_basis(shuffled).basis == kernel_basis(system).basis


@pytest.mark.parametrize("instance", bundled_names() + list(range(3, 41)))
def test_kernel_basis_matches_rational_oracle(instance):
    """Bundled instances by name, spiral instances by k."""
    g = load_bundled(instance) if isinstance(instance, str) else gen_spiral(instance)
    system = _system(g)
    kb = kernel_basis(system)
    assert [list(v) for v in kb.basis] == rational_linalg.nullspace(_dense(system))
