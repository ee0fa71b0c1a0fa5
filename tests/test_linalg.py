import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from octacolor import linalg
from octacolor.shapesys import RANK_PRIMES
import lattice_oracle
import rational_linalg


def sparse(m):
    return [linalg.nonzeros(row) for row in m]


def small_int_matrix(max_dim=5, lo=-4, hi=4):
    return st.integers(1, max_dim).flatmap(
        lambda rows: st.integers(1, max_dim).flatmap(
            lambda cols: st.lists(
                st.lists(st.integers(lo, hi), min_size=cols, max_size=cols),
                min_size=rows, max_size=rows)))


@given(small_int_matrix())
@settings(max_examples=150, deadline=None)
def test_rank_methods_agree(m):
    assert rational_linalg.rank(m) == linalg.rank_fraction_free(sparse(m), len(m[0]))


@given(small_int_matrix())
@settings(max_examples=100, deadline=None)
def test_nullspace_vectors_annihilate(m):
    basis = linalg.nullspace(sparse(m), len(m[0]))
    assert len(basis) == len(m[0]) - rational_linalg.rank(m)
    for v in basis:
        assert not any(rational_linalg.mat_vec(m, v))


def test_nonzeros_keeps_only_integer_nonzeros():
    assert linalg.nonzeros([0, -2, 0, 5]) == {1: -2, 3: 5}
    with pytest.raises(TypeError):
        linalg.nonzeros([1, 0.5])


def test_echelon_swaps_on_a_zero_quotient():
    # 2 // 3 == 0: the second row becomes the pivot at column 0 and the
    # first is reduced by it; neither touches a column the other lacks
    pivots = linalg._echelon(sparse([[3, 0, 1], [2, 1, 0]]))
    assert pivots == {0: {0: 1, 1: -1, 2: 1}, 1: {1: 3, 2: -2}}
    assert linalg.nullspace(sparse([[3, 0, 1], [2, 1, 0]]), 3) == [[-1, 2, 3]]


def test_echelon_leaves_its_input_rows_alone():
    rows = sparse([[2, 4], [-3, 1], [0, 0]])
    linalg._echelon(rows)
    assert rows == [{0: 2, 1: 4}, {0: -3, 1: 1}, {}]


def test_nullspace_of_no_rows_is_the_identity():
    assert linalg.nullspace([], 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_rref_identity():
    red, pivots = rational_linalg.rref([[1, 0], [0, 1]])
    assert pivots == [0, 1]
    assert red == [[1, 0], [0, 1]]


@st.composite
def integer_matrices(draw):
    """A random integer matrix, its zero matrix, or it with a dependent row."""
    m = draw(small_int_matrix(max_dim=6, lo=-6, hi=6))
    kind = draw(st.sampled_from(["random", "zero", "dependent"]))
    if kind == "zero":
        m = [[0] * len(m[0]) for _ in m]
    elif kind == "dependent":
        a, c = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        m = m + [[a * x + c * y for x, y in zip(m[0], m[-1])]]
    return m


@given(integer_matrices())
@settings(max_examples=300, deadline=None)
def test_echelon_engine_matches_rational_oracle(m):
    pivots = linalg._echelon(sparse(m))
    assert sorted(pivots) == rational_linalg.rref(m)[1]
    assert all(min(row) == c and row[c] > 0 and all(row.values()) for c, row in pivots.items())
    assert linalg.nullspace(sparse(m), len(m[0])) == rational_linalg.nullspace(m)


@given(integer_matrices())
@settings(max_examples=300, deadline=None)
def test_rank_mod_p_matches_rational_oracle(m):
    # every minor of these matrices is far smaller than the primes, so no
    # prime divides a nonzero one
    for p in RANK_PRIMES:
        assert linalg.rank_mod_p(sparse(m), p) == rational_linalg.rank(m)


@given(integer_matrices(), st.sampled_from([2, 3, 5, 7]))
@settings(max_examples=200, deadline=None)
def test_rank_mod_small_prime_never_exceeds_rational_rank(m, p):
    assert linalg.rank_mod_p(sparse(m), p) <= rational_linalg.rank(m)


def test_rank_mod_p_drops_where_p_divides_the_minors():
    assert linalg.rank_mod_p(sparse([[2, 4], [1, 3]]), 2) == 1
    assert [linalg.rank_mod_p([{0: 6}], p) for p in (2, 3, 5)] == [0, 0, 1]
    assert linalg.rank_mod_p([], 5) == 0


def test_primitive_vector():
    assert linalg.primitive_vector([2, 2]) == [1, 1]
    assert linalg.primitive_vector([-4, 6]) == [-2, 3]
    assert linalg.primitive_vector([0, -3, 0]) == [0, -1, 0]
    assert linalg.primitive_vector([5]) == [1]
    with pytest.raises(ValueError):
        linalg.primitive_vector([0, 0])


def test_integer_kernel_saturates_half_integer_span():
    # rational span of (1, 1): the integer points are generated by (1, 1)
    assert lattice_oracle.integer_kernel([[1, -1]]) == [[1, 1]]


def test_integer_kernel_matches_hand_reduction():
    # span of (1,0,1) and (0,1,0): complement is (1,0,-1)
    basis = lattice_oracle.integer_kernel([[1, 0, -1]])
    assert basis == [[1, 0, 1], [0, 1, 0]]


def test_integer_kernel_is_saturated():
    # the scaled row (2, 2) must not trap the kernel in an index-2 sublattice
    assert lattice_oracle.integer_kernel([[2, -2]]) == [[1, 1]]


@given(small_int_matrix(max_dim=4, lo=-3, hi=3))
@settings(max_examples=60, deadline=None)
def test_integer_kernel_membership_and_rank(m):
    basis = lattice_oracle.integer_kernel(m)
    for v in basis:
        assert not any(rational_linalg.mat_vec(m, v))
    assert len(basis) == len(m[0]) - rational_linalg.rank(m)


def test_hnf_is_canonical_under_row_mixing():
    a = [[2, 4, 4], [-6, 6, 12]]
    b = [[2, 4, 4], [-4, 10, 16]]  # row2 + row1
    assert linalg.hermite_normal_form(a) == linalg.hermite_normal_form(b)
    # one lattice; reducing by the pivots right to left left row 0 as
    # [1, 0, -5, 4] for the first and [1, 0, 30, -10] for the second
    a = [[1, 2, 1, 2], [1, -1, 2, 1], [0, -1, 2, -1]]
    b = [[1, -10, 0, 0], [0, 2, 1, 0], [0, 5, 0, 1]]
    assert linalg.hermite_normal_form(a) == linalg.hermite_normal_form(b)
    assert linalg.hermite_normal_form(a)[0] == [1, 0, 0, 2]


@st.composite
def lattice_and_unimodular_image(draw):
    """A full-row-rank integer matrix B and U·B for a random unimodular U,
    a product of row swaps, row negations and additions of a multiple of
    one row to another."""
    n = draw(st.integers(1, 5))
    d = draw(st.integers(1, n))
    b = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                      min_size=d, max_size=d))
    assume(rational_linalg.rank(b) == d)
    ub = [row[:] for row in b]
    steps = st.tuples(st.integers(0, d - 1), st.integers(0, d - 1), st.integers(-3, 3))
    for i, j, q in draw(st.lists(steps, max_size=10)):
        if i == j:
            ub[i] = [-x for x in ub[i]]
        elif q == 0:
            ub[i], ub[j] = ub[j], ub[i]
        else:
            ub[i] = [x + q * y for x, y in zip(ub[i], ub[j])]
    return b, ub


@given(lattice_and_unimodular_image())
@settings(max_examples=300, deadline=None)
def test_hnf_is_canonical_under_unimodular_maps(pair):
    b, ub = pair
    h = linalg.hermite_normal_form(b)
    assert linalg.hermite_normal_form(ub) == h
    for ri, row in enumerate(h):
        c = next(j for j, x in enumerate(row) if x)
        assert row[c] > 0
        assert all(0 <= h[up][c] < row[c] for up in range(ri))


def test_saturate_rejects_dependent_rows():
    with pytest.raises(ValueError):
        linalg.saturate([[1, 2, 3], [2, 4, 6]])
    with pytest.raises(ValueError):
        linalg.saturate([[1], [2]])
