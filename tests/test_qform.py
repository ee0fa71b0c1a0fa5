import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import form_oracle
from form_oracle import dense_restriction, form_terms, form_value, global_matrix
from rational_linalg import mat_mul, transpose
from octacolor.cone import LatticeBasis
from octacolor.families import bundled_names, gen_spiral, load_bundled
from octacolor.geometry import realize_polygons
from octacolor.labeling import polygon_boundaries
from octacolor.mesh import triarea
from octacolor.pipeline import Instance
from octacolor.qform import (SLOT_MATRIX, QuadraticForm, assemble_form, restrict_form,
                             signature, slot_value)


def test_slot_matrix_structure():
    for i in range(6):
        assert SLOT_MATRIX[i][i] == 0
        assert SLOT_MATRIX[i][(i + 3) % 6] == 0
        assert SLOT_MATRIX[i][(i + 1) % 6] == 2
        assert SLOT_MATRIX[i][(i + 2) % 6] == 1


def test_unit_hexagon_value_is_18():
    assert slot_value((1, 1, 1, 1, 1, 1)) == 18


def test_triangle_slots_give_three_s_squared():
    for s in range(1, 11):
        assert slot_value((s, 0, s, 0, s, 0)) == 3 * s * s


def test_parallelogram_slots_give_six_ab():
    for a in range(1, 5):
        for b in range(1, 5):
            assert slot_value((a, 0, b, a, 0, b)) == 6 * a * b


def test_slot_value_invariant_under_rotation_and_reflection():
    ell = (1, 2, 3, 4, 5, 6)
    base = slot_value(ell)
    for r in range(6):
        rotated = tuple(ell[(i + r) % 6] for i in range(6))
        assert slot_value(rotated) == base
    assert slot_value(tuple(reversed(ell))) == base


def test_polygon_form_accumulates_per_polygon(hexpair):
    bnds = polygon_boundaries(hexpair)
    white = assemble_form(hexpair, [bnds[0]])
    assert white.col_edges == tuple(range(6))
    assert white.value([1] * 6) == 18


def test_assemble_doubles_shared_hexagon(hexpair):
    # both polygons use every edge, so the global form is twice one hexagon
    bnds = polygon_boundaries(hexpair)
    qf = assemble_form(hexpair, bnds)
    ones = [1] * 6
    assert qf.value(ones) == 36
    white = assemble_form(hexpair, [bnds[0]])
    black = assemble_form(hexpair, [bnds[1]])
    assert qf.value(ones) == white.value(ones) + black.value(ones)


def test_global_matrix_is_symmetric_integer(spiral3):
    bnds = polygon_boundaries(spiral3)
    qf = assemble_form(spiral3, bnds)
    # off the diagonal a term is twice its entry, so halving it is exact
    assert all(i < j and c % 2 == 0 for i, j, c in qf.terms if i != j)
    m = global_matrix(qf)
    assert len(m) == 14
    for i in range(14):
        for j in range(14):
            assert m[i][j] == m[j][i]
            assert isinstance(m[i][j], int)


def test_per_polygon_value_is_three_triareas(spiral3):
    # slot-form value = 3 * area in unit triangles, per polygon, exactly
    inst = Instance(spiral3)
    bnds, lb = inst.boundaries, inst.lattice
    rng = random.Random(5)
    rays = [list(r) for r in inst.cone.extreme_rays]
    basis = [list(b) for b in lb.vectors]
    for _ in range(10):
        coeffs = [rng.randrange(1, 5) for _ in rays]
        lvec = [sum(c * r[i] for c, r in zip(coeffs, rays)) for i in range(lb.dimension)]
        edge_vec = [sum(k * b[i] for k, b in zip(lvec, basis)) for i in range(14)]
        if any(x <= 0 for x in edge_vec):
            continue
        lengths = dict(zip(lb.col_edges, edge_vec))
        charts = realize_polygons(spiral3, bnds, inst.labels, lengths)
        for b in bnds:
            pf = assemble_form(spiral3, [b])
            assert pf.value(edge_vec) == 3 * triarea(charts[b.vertex_id].chain)


def test_slot_value_is_three_areas_for_rational_sides():
    # the 3-to-1 area identity holds for rational side lengths too: both
    # sides are quadratic, so scale the chain by the common denominator L
    from math import lcm

    from octacolor.grid import ORIGIN, direction
    for a, b, c in [(Fraction(1, 2), Fraction(3, 2), Fraction(2, 3)),
                    (Fraction(5, 4), Fraction(1, 4), Fraction(7, 3))]:
        ell = (a, b, c, a, b, c)
        big = lcm(*(x.denominator for x in ell))
        pts = [ORIGIN]
        for k in range(5):
            pts.append(pts[-1] + direction(k).scale(int(big * ell[k])))
        assert slot_value(ell) * big ** 2 == 3 * triarea(pts)


def test_restrict_full_space_is_identity_transform():
    m = ((0, 2), (2, 0))
    lb = LatticeBasis(((1, 0), (0, 1)), (0, 1))
    qf = restrict_form(QuadraticForm(form_terms(m), (0, 1)), lb)
    assert qf.restricted == ((Fraction(0), Fraction(2)), (Fraction(2), Fraction(0)))


def test_restrict_one_dimensional():
    m = ((2, 0), (0, 4))
    lb = LatticeBasis(((1, 2),), (0, 1))
    qf = restrict_form(QuadraticForm(form_terms(m), (0, 1)), lb)
    assert qf.restricted == ((Fraction(18),),)
    assert qf.signature == (1, 0, 0)


def test_signature_diagonal_cases():
    assert signature([[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]) == (1, 3, 0)
    assert signature([[0, 0], [0, 0]]) == (0, 0, 2)


def test_signature_hyperbolic_plane():
    assert signature([[0, 1], [1, 0]]) == (1, 1, 0)


def test_signature_spiral_restriction(spiral3):
    inst = Instance(spiral3)
    qf = restrict_form(assemble_form(spiral3, inst.boundaries), inst.lattice)
    assert qf.signature == (1, 3, 0)


def test_signature_invariant_under_kernel_basis_change(spiral3):
    inst = Instance(spiral3)
    kb, lb = inst.kernel, inst.lattice
    qf = assemble_form(spiral3, inst.boundaries)
    sig1 = restrict_form(qf, lb).signature
    # a second canonical basis: the rational kernel basis, in reduced row
    # echelon form
    sig2 = restrict_form(qf, LatticeBasis(kb.basis, kb.col_edges)).signature
    assert sig1 == sig2 == (1, 3, 0)


def test_restrict_form_rejects_permuted_columns(spiral3):
    inst = Instance(spiral3)
    qf, lb = assemble_form(spiral3, inst.boundaries), inst.lattice
    n = len(lb.col_edges)
    perm = [*range(1, n), 0]  # new column c reads old column perm[c]
    cols = tuple(lb.col_edges[i] for i in perm)
    moved = LatticeBasis(tuple(tuple(v[i] for i in perm) for v in lb.vectors), cols)
    with pytest.raises(ValueError, match="columns"):
        restrict_form(qf, moved)
    # permuting the form's columns the same way restricts to the same matrix
    new = {old: c for c, old in enumerate(perm)}
    terms = tuple((min(new[i], new[j]), max(new[i], new[j]), c) for i, j, c in qf.terms)
    assert restrict_form(QuadraticForm(terms, cols), moved).restricted == \
        restrict_form(qf, lb).restricted


@given(st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_signature_invariant_under_congruence(seed):
    rng = random.Random(seed)
    n = rng.randrange(2, 5)
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = rng.randrange(-4, 5)
    base = signature(m)
    # random unimodular congruence: shears and swaps
    t = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(6):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            c = rng.randrange(-2, 3)
            for k in range(n):
                t[i][k] += c * t[j][k]
    tm = mat_mul([list(map(Fraction, r)) for r in t], [list(map(Fraction, r)) for r in m])
    tmt = mat_mul(tm, transpose([list(map(Fraction, r)) for r in t]))
    assert signature(tmt) == base


@st.composite
def symmetric_matrices(draw):
    """Small symmetric matrices with integer or rational entries, often
    singular (a repeated row and column) or with an all-zero diagonal."""
    n = draw(st.integers(1, 6))
    entry = (st.integers(-5, 5) if draw(st.booleans())
             else st.fractions(min_value=-4, max_value=4, max_denominator=6))
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = draw(entry)
    if n > 1 and draw(st.booleans()):
        # repeat row and column i as row and column j: rank drops
        i, j = draw(st.permutations(range(n)))[:2]
        for k in range(n):
            m[j][k] = m[i][k]
        for k in range(n):
            m[k][j] = m[k][i]
    if draw(st.booleans()):
        for i in range(n):
            m[i][i] = 0
    return m


@given(symmetric_matrices())
@settings(max_examples=300, deadline=None)
def test_signature_matches_rational_elimination(m):
    got = signature(m)
    assert got == form_oracle.signature(m)
    assert sum(got) == len(m)


def test_homogeneity_of_identity(spiral3):
    inst = Instance(spiral3)
    qf = inst.form
    v = next(p.vector for p in inst.lattice_points(2) if p.strictly_positive)
    doubled = [2 * x for x in v]
    assert qf.value(doubled) == 4 * qf.value(v)
    assert inst.realize(doubled).identity.holds


_entries = st.integers(-3, 3)
_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.lists(st.lists(_entries, min_size=n, max_size=n), min_size=n, max_size=n),
    st.lists(st.integers(-20, 20) | _rationals, min_size=n, max_size=n))))
@settings(max_examples=300, deadline=None)
def test_form_value_from_nonzero_terms_matches_dense(case):
    # any integer matrix, symmetric or not, odd diagonal included, on
    # integer and rational vectors: the same exact value and type
    matrix, vec = case
    cols = tuple(range(10, 10 + len(vec)))
    got = QuadraticForm(form_terms(matrix), cols).value(vec)
    want = form_value(matrix, vec)
    assert got == want and type(got) is type(want)


@given(st.lists(st.integers(-20, 20) | _rationals, min_size=6, max_size=6))
@settings(max_examples=200, deadline=None)
def test_slot_value_matches_dense_oracle(vec):
    got, want = slot_value(vec), form_value(SLOT_MATRIX, vec)
    assert got == want and type(got) is type(want)


def test_form_value_matches_dense_on_spiral_forms():
    rng = random.Random(7)
    for k in (3, 6):
        g = gen_spiral(k)
        qf = assemble_form(g, polygon_boundaries(g))
        # the terms and the dense matrix built from them describe one form
        matrix = global_matrix(qf)
        assert sorted(qf.terms) == list(form_terms(matrix))
        for _ in range(20):
            vec = [rng.randrange(-9, 10) for _ in qf.col_edges]
            if rng.random() < 0.5:
                vec = [Fraction(x, rng.randrange(1, 5)) for x in vec]
            assert qf.value(vec) == form_value(matrix, vec)


def _assert_restriction_matches_dense(qf, matrix, lattice):
    got = restrict_form(qf, lattice)
    assert got.restricted == dense_restriction(matrix, lattice.vectors)
    assert all(type(x) is int for row in got.restricted for x in row)


def test_restrict_form_matches_dense_oracle_on_bundled_and_spiral():
    cases = [load_bundled(name) for name in bundled_names()] + [gen_spiral(k) for k in range(3, 13)]
    for g in cases:
        inst = Instance(g)
        qf = assemble_form(g, inst.boundaries)
        _assert_restriction_matches_dense(qf, global_matrix(qf), inst.lattice)


@given(st.integers(1, 7).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n),
    st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n), min_size=1, max_size=4))))
@settings(max_examples=300, deadline=None)
def test_restrict_form_matches_dense_oracle_on_random_symmetric(case):
    # any symmetric integer matrix, odd diagonal included, against any
    # integer basis of 1..4 vectors, dependent or zero ones included
    square, basis = case
    n = len(square)
    m = [[square[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    cols = tuple(range(n))
    lb = LatticeBasis(tuple(map(tuple, basis)), cols)
    _assert_restriction_matches_dense(QuadraticForm(form_terms(m), cols), m, lb)
