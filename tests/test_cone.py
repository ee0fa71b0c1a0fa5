import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dd_oracle
import enumeration_oracle
import lattice_oracle
import rational_linalg
from octacolor import linalg
from octacolor.cone import (ConeDescription, EnumerationBudgetError,
                            LatticeBasis, enumerate_lattice_points, extreme_rays,
                            lattice_basis, restrict_to_lattice)
from octacolor.families import bundled_names, gen_spiral, load_bundled
from octacolor.pipeline import Instance, lattice_coefficients
from octacolor.qform import assemble_form, restrict_form
from octacolor.shapesys import KernelBasis


def _cone(rows, dim):
    return ConeDescription(tuple(tuple(r) for r in rows), dim)


def _free_basis(n):
    vecs = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    return KernelBasis(vecs, 0, n, tuple(range(n)))


def brute_force_rays(rows, dim):
    """Oracle: candidate rays from all active subsets of rank dim-1."""
    rows = [list(r) for r in rows]
    rays = set()
    for subset in itertools.combinations(range(len(rows)), dim - 1):
        sub = [rows[i] for i in subset]
        if rational_linalg.rank(sub) != dim - 1:
            continue
        kernel = rational_linalg.nullspace(sub)
        if len(kernel) != 1:
            continue
        for cand in (kernel[0], [-x for x in kernel[0]]):
            if all(linalg.dot(r, cand) >= 0 for r in rows):
                active = [r for r in rows if linalg.dot(r, cand) == 0]
                if rational_linalg.rank(active) == dim - 1:
                    rays.add(tuple(linalg.primitive_vector(cand)))
    return sorted(rays)


def test_restrict_unit_kernel():
    cd = restrict_to_lattice(lattice_basis(_free_basis(3)))
    assert cd.inequalities == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_restrict_spiral_shape(spiral3):
    cd = restrict_to_lattice(Instance(spiral3).lattice)
    assert len(cd.inequalities) == 14
    assert cd.dimension == 4


def test_restrict_positive_line():
    cd = restrict_to_lattice(LatticeBasis(((2, 3, 1),), (0, 1, 2)))
    assert cd.inequalities == ((1,), (1,), (1,))


def test_rays_first_quadrant():
    cd = extreme_rays(_cone([(1, 0), (0, 1)], 2))
    assert cd.extreme_rays == ((0, 1), (1, 0))
    assert cd.lineality == ()
    assert cd.has_positive_point


def test_rays_three_constraints():
    cd = extreme_rays(_cone([(1, 0), (0, 1), (-1, 1)], 2))
    assert cd.extreme_rays == ((0, 1), (1, 1))


def test_rays_halfplane_reports_lineality():
    cd = extreme_rays(_cone([(1, 0)], 2))
    assert cd.lineality == ((0, 1),)
    assert cd.extreme_rays == ((1, 0),)


def test_rays_degenerate_to_line():
    # x >= 0 and -x >= 0 pins a line: one lineality direction, no rays
    cd = extreme_rays(_cone([(1, 0), (-1, 0), (0, 1)], 2))
    assert cd.lineality == ()
    assert cd.extreme_rays == ((0, 1),)
    assert not cd.has_positive_point


def test_rays_match_brute_force_on_random_systems():
    rng = random.Random(2024)
    for _ in range(40):
        dim = rng.randrange(2, 5)
        nrows = rng.randrange(dim, 10)
        rows = [[rng.randrange(-3, 4) for _ in range(dim)] for _ in range(nrows)]
        rows = [r for r in rows if any(r)]
        if not rows or rational_linalg.nullspace(rows):
            continue  # oracle assumes a pointed cone
        got = extreme_rays(_cone(rows, dim))
        assert list(got.extreme_rays) == [tuple(r) for r in brute_force_rays(rows, dim)]


def test_lattice_basis_clears_halves():
    kb = KernelBasis(((1, 1),), 1, 1, (0, 1))
    lb = lattice_basis(kb)
    assert lb.vectors == ((1, 1),)


def test_lattice_basis_hand_reduction():
    kb = KernelBasis(((1, 0, 1), (0, 1, 0)), 1, 2, (0, 1, 2))
    lb = lattice_basis(kb)
    assert lb.vectors == ((1, 0, 1), (0, 1, 0))


def test_lattice_basis_spiral_members_satisfy_system(spiral3):
    inst = Instance(spiral3)
    lb = lattice_basis(inst.kernel)
    assert len(lb.vectors) == 4
    rows = rational_linalg.dense(inst.system.rows, inst.system.n_cols)
    for v in lb.vectors:
        assert all(x == 0 for x in rational_linalg.mat_vec(rows, list(v)))


def test_lattice_basis_spans_all_integer_points(spiral3):
    lb = lattice_basis(Instance(spiral3).kernel)
    for p in enumerate_lattice_points(lb, 2):
        coords = rational_linalg.solve(rational_linalg.transpose([list(v) for v in lb.vectors]), list(p.vector))
        assert coords is not None
        assert all(c.denominator == 1 for c in coords)


def _det(m):
    n = len(m)
    return sum((-1) ** sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n))
               * math.prod(m[i][p[i]] for i in range(n)) for p in itertools.permutations(range(n)))


def test_kernel_basis_index_in_the_lattice():
    # past the lattice basis, only the rank certificate of verify_lemmas
    # (and solve's report) reads the kernel basis; it spans the lattice L on
    # three bundled instances and a sublattice of index 2 on spiral-8 (k = 4)
    assert set(bundled_names()) == {"hexagon-pair", "spiral-6", "spiral-8", "spiral-10"}
    for name in bundled_names():
        inst = Instance(load_bundled(name))
        coeffs = [lattice_coefficients(inst.lattice.vectors, k) for k in inst.kernel.basis]
        assert abs(_det(coeffs)) == (2 if name == "spiral-8" else 1), name


def test_enumerate_first_quadrant():
    pts = enumerate_lattice_points(lattice_basis(_free_basis(2)), 2)
    assert len(pts) == 9
    assert sum(1 for p in pts if p.strictly_positive) == 4


def test_enumerate_bound_zero():
    pts = enumerate_lattice_points(lattice_basis(_free_basis(3)), 0)
    assert [p.vector for p in pts] == [(0, 0, 0)]


def test_enumerate_budget():
    with pytest.raises(EnumerationBudgetError):
        enumerate_lattice_points(lattice_basis(_free_basis(3)), 9, budget=10)


def random_kernel_bases(rng, count):
    """Full-rank integer bases of random subspaces, non-saturated ones
    included: the integer span of ((2,0,1),(0,2,1)) misses (1,1,1)."""
    bases = [((2, 0, 1), (0, 2, 1)), ((2, 2),), ((1, -1),), ((1, 0), (0, 1))]
    while len(bases) < count:
        n = rng.randrange(2, 5)
        d = rng.randrange(1, n)
        basis = tuple(tuple(rng.randrange(-1, 3) for _ in range(n)) for _ in range(d))
        if rational_linalg.rank(basis) == d:
            bases.append(basis)
    return bases


def box_scan(basis, bound):
    """Oracle: the integer points of the span of ``basis`` in [0, bound]^n,
    by rational rank, in sorted order."""
    d = len(basis)
    return [v for v in itertools.product(range(bound + 1), repeat=len(basis[0]))
            if rational_linalg.rank([*basis, v]) == d]


def test_enumerate_matches_box_scan():
    rng = random.Random(99)
    for basis in random_kernel_bases(rng, 40):
        lb = lattice_basis(KernelBasis(basis, 0, len(basis), tuple(range(len(basis[0])))))
        bound = rng.randrange(0, 5)
        got = enumerate_lattice_points(lb, bound)
        assert [p.vector for p in got] == box_scan(basis, bound)
        assert all(p.strictly_positive == all(p.vector) for p in got)


def test_positive_point_iff_positive_enumerated(spiral3, hexpair):
    # the ray-sum positivity flag agrees with exhaustive bounded enumeration
    for inst in (Instance(spiral3), Instance(hexpair)):
        pts = inst.lattice_points(3)
        assert inst.cone.has_positive_point == any(p.strictly_positive for p in pts)


def _edge_vector(basis, coords):
    return [sum(c * b[j] for c, b in zip(coords, basis)) for j in range(len(basis[0]))]


def test_extreme_rays_are_lattice_points():
    # each ray is the lattice coefficients of a nonnegative edge vector,
    # primitive in L: the rational solve of that vector gives the ray back
    assert set(bundled_names()) == {"hexagon-pair", "spiral-6", "spiral-8", "spiral-10"}
    for name in bundled_names():
        inst = Instance(load_bundled(name))
        vectors = [list(v) for v in inst.lattice.vectors]
        for ray in inst.cone.extreme_rays:
            edge_vec = _edge_vector(vectors, ray)
            assert min(edge_vec) >= 0 and any(edge_vec), (name, ray)
            assert math.gcd(*ray) == 1, (name, ray)
            assert rational_linalg.solve(rational_linalg.transpose(vectors), edge_vec) == list(ray)


def test_restricted_form_is_the_form_on_the_lattice_basis():
    # by polarization: entry (i, j) of the doubled Gram matrix Q_tau is
    # value(b_i + b_j) - value(b_i) - value(b_j) on the lattice basis b
    for name in bundled_names():
        inst = Instance(load_bundled(name))
        form, basis = inst.form, inst.lattice.vectors
        assert form.restricted == tuple(
            tuple(form.value([x + y for x, y in zip(a, b)]) - form.value(a) - form.value(b)
                  for b in basis) for a in basis), name


def _kernel_cone(kernel):
    """The reference cone, in coordinates of the rational kernel basis:
    one primitive row per edge, read from ``kernel.basis``."""
    rows = tuple(tuple(linalg.primitive_vector(col)) if any(col) else col
                 for col in zip(*kernel.basis))
    return extreme_rays(ConeDescription(rows, kernel.dimension))


def _directions(basis, rays):
    return sorted(tuple(linalg.primitive_vector(_edge_vector(basis, r))) for r in rays)


def test_lattice_rays_match_the_kernel_basis_reference():
    # the same cone in either basis, on the bundled instances and spiral
    # k = 3..12: the rays' edge vectors point the same ways, the positivity
    # verdict agrees, and so does the form's signature
    for g in _instances():
        inst = Instance(g)
        kernel, lattice = inst.kernel, inst.lattice
        reference = _kernel_cone(kernel)
        assert _directions(lattice.vectors, inst.cone.extreme_rays) == \
            _directions(kernel.basis, reference.extreme_rays)
        assert inst.cone.lineality == reference.lineality == ()
        assert inst.cone.has_positive_point == reference.has_positive_point
        on_kernel = restrict_form(assemble_form(g, inst.boundaries),
                                  LatticeBasis(kernel.basis, kernel.col_edges))
        assert inst.form.signature == on_kernel.signature == (1, 3, 0)


def test_enumerate_budget_boundary_is_exact(spiral3):
    # every candidate the search visits is a point: 165 points, 165 candidates
    inst = Instance(spiral3)
    pts = enumerate_lattice_points(inst.lattice, 4)
    assert (len(pts), sum(p.strictly_positive for p in pts)) == (165, 42)
    assert enumerate_lattice_points(inst.lattice, 4, budget=len(pts)) == pts
    with pytest.raises(EnumerationBudgetError):
        enumerate_lattice_points(inst.lattice, 4, budget=len(pts) - 1)


def test_rays_lineality_pivot_above_one():
    cd = extreme_rays(_cone([(2, 1)], 2))
    assert (cd.extreme_rays, cd.lineality) == (((1, 0),), ((-1, 2),))
    cd = extreme_rays(_cone([(2, 1, 0), (0, 3, 1)], 3))
    assert (cd.extreme_rays, cd.lineality) == (((-1, 2, 0), (1, 0, 0)), ((1, -2, 6),))
    assert cd.has_positive_point


def test_rays_of_non_pointed_systems():
    rng = random.Random(31)
    seen = 0
    while seen < 40:
        dim = rng.randrange(2, 6)
        rows = [[rng.randrange(-4, 5) for _ in range(dim)] for _ in range(rng.randrange(1, 6))]
        rows = [r for r in rows if any(r)]
        if not rows or not rational_linalg.nullspace(rows):
            continue
        seen += 1
        cd = extreme_rays(_cone(rows, dim))
        assert all(linalg.dot(r, l) == 0 for r in rows for l in cd.lineality)
        assert all(linalg.dot(r, ray) >= 0 for r in rows for ray in cd.extreme_rays)
        assert len(cd.lineality) == dim - rational_linalg.rank(rows)


def _bundled():
    return [load_bundled(name) for name in bundled_names()]


def _instances():
    return _bundled() + [gen_spiral(k) for k in range(3, 13)]


def test_extreme_rays_match_the_oracle_on_random_systems():
    # zero and repeated rows included; the oracle reports lineality for
    # the non-pointed systems, and both kinds must occur
    rng = random.Random(39)
    kinds = {True: 0, False: 0}
    for _ in range(2000):
        dim = rng.randrange(1, 6)
        rows = [[rng.randrange(-4, 5) for _ in range(dim)] for _ in range(rng.randrange(1, 13))]
        cd = _cone(rows, dim)
        want = dd_oracle.extreme_rays(cd)
        assert extreme_rays(cd) == want, rows
        kinds[want.lineality == ()] += 1
    assert min(kinds.values()) >= 250, kinds


def test_cone_matches_the_oracle_on_instances():
    # inequality rows, rays, lineality and the positive-point verdict
    for g in _instances():
        lattice = Instance(g).lattice
        cd = restrict_to_lattice(lattice)
        assert cd == dd_oracle.restrict_to_lattice(lattice)
        assert extreme_rays(cd) == dd_oracle.extreme_rays(cd)


def test_the_spiral_cone_is_one_cone_from_k_6():
    # the gate hands the double description the same 9 distinct rows at
    # every k >= 6, and they cut out the same 6 rays
    def cone(k):
        cd = Instance(gen_spiral(k)).cone
        return sorted(set(cd.inequalities)), cd.extreme_rays, cd.lineality

    six = cone(6)
    assert (len(six[0]), len(six[1]), six[2]) == (9, 6, ())
    for k in [*range(7, 21), 40]:
        assert cone(k) == six, k
    assert cone(5) != six


def _pairs(points):
    return [(p.vector, p.strictly_positive) for p in points]


def _assert_matches_oracle(lb, bound):
    want = enumeration_oracle.enumerate_lattice_points(lb, bound)
    assert _pairs(enumerate_lattice_points(lb, bound)) == _pairs(want)
    return want


def _assert_same_budget(lb, bound, want):
    """Every candidate is a point, so both raise exactly below the count."""
    assert _pairs(enumerate_lattice_points(lb, bound, budget=len(want))) == _pairs(want)
    for enumerate_points in (enumerate_lattice_points, enumeration_oracle.enumerate_lattice_points):
        with pytest.raises(EnumerationBudgetError):
            enumerate_points(lb, bound, budget=len(want) - 1)


def test_enumerate_matches_oracle_on_instances():
    for g in _instances():
        lb = Instance(g).lattice
        for bound in range(9):
            want = _assert_matches_oracle(lb, bound)
        _assert_same_budget(lb, 8, want)


@pytest.mark.parametrize("k, points, positive", [(3, 18513, 12840), (4, 2565, 840), (10, 5805, 2408)])
def test_enumerate_matches_oracle_on_long_runs(k, points, positive):
    """Runs of up to 17 points, on which the strictly positive interval
    opens and closes inside the run."""
    lb = Instance(gen_spiral(k)).lattice
    want = _assert_matches_oracle(lb, 16)
    assert (len(want), sum(p.strictly_positive for p in want)) == (points, positive)
    runs: dict[tuple[int, ...], list[bool]] = {}
    for p in sorted(want, key=lambda p: p.coeffs):
        runs.setdefault(p.coeffs[:-1], []).append(p.strictly_positive)
    assert any(not flags[0] and True in flags and not flags[-1] for flags in runs.values())
    _assert_same_budget(lb, 16, want)


@st.composite
def full_rank_bases(draw):
    """Integer bases of random rational subspaces: mostly not saturated, and
    with zero entries, so some box rows vanish on the last basis vector."""
    n = draw(st.integers(1, 5))
    d = draw(st.integers(1, n))
    basis = draw(st.lists(st.lists(st.integers(-2, 3), min_size=n, max_size=n),
                          min_size=d, max_size=d))
    if draw(st.booleans()):
        basis[-1][draw(st.integers(0, n - 1))] = 0
    basis = tuple(map(tuple, basis))
    if rational_linalg.rank(basis) != d:
        basis = tuple(tuple(int(i == j) for j in range(n)) for i in range(d))
    return LatticeBasis(basis, tuple(range(n)))


@settings(max_examples=200, deadline=None)
@given(full_rank_bases(), st.integers(0, 4))
def test_enumerate_matches_oracle_on_random_lattices(lb, bound):
    _assert_same_budget(lb, bound, _assert_matches_oracle(lb, bound))


@st.composite
def bases_with_repeated_rows(draw):
    """Random full-rank bases with edge columns repeated and zero columns
    added, in a drawn order, so several edges share one row of the basis."""
    lb = draw(full_rank_bases())
    columns = list(zip(*lb.vectors))
    zero = tuple([0] * lb.dimension)
    columns += draw(st.lists(st.sampled_from(columns + [zero]), min_size=1, max_size=6))
    columns = draw(st.permutations(columns))
    return LatticeBasis(tuple(zip(*columns)), tuple(range(len(columns))))


@settings(max_examples=200, deadline=None)
@given(bases_with_repeated_rows(), st.integers(0, 4))
def test_enumerate_matches_oracle_with_repeated_rows(lb, bound):
    _assert_same_budget(lb, bound, _assert_matches_oracle(lb, bound))


@settings(max_examples=100, deadline=None)
@given(full_rank_bases(), st.integers(0, 4))
def test_duplicating_every_column_duplicates_every_length(lb, bound):
    doubled = LatticeBasis(tuple(tuple(x for x in v for _ in range(2)) for v in lb.vectors),
                           tuple(range(2 * len(lb.col_edges))))
    want = enumerate_lattice_points(lb, bound)
    got = enumerate_lattice_points(doubled, bound)
    assert [p.vector for p in got] == [tuple(x for x in p.vector for _ in range(2)) for p in want]
    assert [p.strictly_positive for p in got] == [p.strictly_positive for p in want]
    assert enumerate_lattice_points(doubled, bound, budget=len(want)) == got
    with pytest.raises(EnumerationBudgetError):
        enumerate_lattice_points(doubled, bound, budget=len(want) - 1)


def test_lattice_basis_matches_oracle():
    spirals = [gen_spiral(k) for k in [*range(3, 41), 80]]
    kernels = [Instance(g).kernel for g in _bundled() + spirals]
    rng = random.Random(7)
    kernels += [KernelBasis(basis, 0, len(basis), tuple(range(len(basis[0]))))
                for basis in random_kernel_bases(rng, 400)]
    for kernel in kernels:
        assert lattice_basis(kernel).vectors == lattice_oracle.lattice_basis(kernel)


def test_lattice_basis_of_a_zero_dimensional_kernel():
    lb = lattice_basis(KernelBasis((), 3, 0, (0, 1, 2)))
    assert lb.vectors == ()
    assert [p.vector for p in enumerate_lattice_points(lb, 1)] == [(0, 0, 0)]
