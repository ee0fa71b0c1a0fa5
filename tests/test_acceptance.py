"""Acceptance suite: one test per exit criterion, one printed verdict each.

Every check is exact (integer or rational equality, zero tolerance); the
stated wall-clock budgets are asserted with the criteria.
"""

import itertools
import random
import time

import pytest

from octacolor.cone import ConeDescription, enumerate_lattice_points, extreme_rays, lattice_basis
from octacolor.families import bundled_names, load_bundled, spiral_instance
from octacolor.geometry import cone_point_coordinates, develop_surface, realize_polygons
from octacolor.labeling import polygon_boundaries
from octacolor.mesh import triarea
from octacolor.pipeline import Instance
from octacolor.qform import assemble_form, restrict_form, slot_value
from octacolor.shapesys import KernelBasis
import rational_linalg
from test_cone import box_scan, brute_force_rays, random_kernel_bases

SPIRAL_RANGE = range(3, 9)


@pytest.fixture(scope="module")
def spiral_instances():
    """k -> (the gated instance, whose gate derived its kernel and cone;
    the seconds that took)."""
    out = {}
    for k in SPIRAL_RANGE:
        t0 = time.perf_counter()
        inst = spiral_instance(k)
        out[k] = (inst, time.perf_counter() - t0)
    return out


@pytest.fixture(scope="module")
def realized_sample():
    """Criterion 5's exhaustive sample: all strictly positive lattice points
    of the k=3 spiral instance with every edge length at most 3."""
    inst = spiral_instance(3)
    realized = []
    for p in inst.lattice_points(3):
        if p.strictly_positive:
            r = inst.realize(p.vector)
            realized.append((p.vector, dict(zip(inst.kernel.col_edges, p.vector)), r.surface, r.mesh))
    return inst, realized


def test_criterion_1_unit_hexagon_form_value():
    hexagon = (1, 1, 1, 1, 1, 1)
    t0 = time.perf_counter()
    value = slot_value(hexagon)
    elapsed = time.perf_counter() - t0
    assert value == 18
    assert elapsed < 0.001
    # the same value through a hexagonal polygon's edge-variable form
    g = load_bundled("hexagon-pair")
    boundary = polygon_boundaries(g)[0]
    pf = assemble_form(g, [boundary])
    assert pf.col_edges == tuple(range(6))
    t0 = time.perf_counter()
    value = pf.value([1] * 6)
    elapsed = time.perf_counter() - t0
    assert value == 18
    assert elapsed < 0.001
    for s in range(1, 11):
        t0 = time.perf_counter()
        value = slot_value((s, 0, s, 0, s, 0))
        elapsed = time.perf_counter() - t0
        assert value == 3 * s * s
        assert elapsed < 0.001
    print("PASS criterion-1: unit hexagon form value 18; triangle slots 3*s^2 for s=1..10; each < 1 ms")


def test_criterion_2_rank_law(spiral_instances):
    for k, (inst, elapsed) in spiral_instances.items():
        assert inst.kernel.rank == inst.system.n_cols - 4, f"k={k}"
        assert inst.kernel.dimension == 4, f"k={k}"
        assert elapsed < 10.0, f"k={k} pipeline took {elapsed:.2f}s"
    print("PASS criterion-2: rank = E_b - 4 and kernel dimension 4 for spiral k=3..8, each pipeline < 10 s")


def test_criterion_3_dependency_law(spiral_instances):
    instances = [inst for inst, _ in spiral_instances.values()]
    instances += [Instance(load_bundled(name)) for name in bundled_names()]
    for system in (inst.system for inst in instances):
        matrix = rational_linalg.dense(system.rows, system.n_cols)
        for c in range(system.n_cols):
            assert sum(row[c] for row in matrix) == 0
    print("PASS criterion-3: constraint rows sum to the zero vector on all bundled and generated instances")


def test_criterion_4_euler_law(spiral_instances):
    instances = [inst for inst, _ in spiral_instances.values()]
    instances += [Instance(load_bundled(name)) for name in bundled_names()]
    for rep in (inst.validation for inst in instances):
        assert rep.plausible
        assert rep.counts["E_b"] - 2 * rep.counts["V"] == 2
    print("PASS criterion-4: E_b - 2V = 2 on every plausible instance")


def test_criterion_5_triangle_count_identity(realized_sample):
    inst, realized = realized_sample
    t0 = time.perf_counter()
    assert realized, "no strictly positive lattice points found"
    for vector, _, surface, tri in realized:
        value = inst.form.value(vector)
        count = len(tri.triangles)
        areas = sum(triarea(ch.chain) for ch in surface.placed.values())
        assert value == 3 * count, vector
        assert value == 3 * areas, vector
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"PASS criterion-5: Q(V,V) = 3 * triangles = 3 * area sum on all "
          f"{len(realized)} strictly positive points with lengths <= 3 (suite < 60 s)")


def test_criterion_6_degree_sequence(realized_sample):
    _, realized = realized_sample
    for vector, _, _, tri in realized:
        hist = tri.degree_histogram()
        assert hist.get(4, 0) == 6, vector
        assert set(hist) <= {4, 6}, vector
    print(f"PASS criterion-6: every realized triangulation has exactly six degree-4 vertices, rest degree 6")


def test_criterion_7_four_coloring(realized_sample):
    _, realized = realized_sample
    for vector, _, _, tri in realized:
        colors = tri.vertex_colors
        assert colors is not None and set(colors) <= {0, 1, 2, 3}, vector
        # independent brute-force properness scan
        for a, b in tri.edges:
            assert colors[a] != colors[b], vector
        # mod-3 balance of black and white triangles at every vertex
        balance = {}
        for t, col in zip(tri.triangles, tri.triangle_colors):
            for v in t:
                balance.setdefault(v, [0, 0])[0 if col == "white" else 1] += 1
        for v, (w, b) in balance.items():
            assert (w - b) % 3 == 0, (vector, v)
    print("PASS criterion-7: proper residue 4-coloring, re-verified by edge scan, with mod-3 balance everywhere")


def test_criterion_8_signature_survey(spiral_instances):
    verdicts = {}
    findings = []
    for k, (inst, _) in spiral_instances.items():
        qf = assemble_form(inst.g, inst.boundaries)
        t0 = time.perf_counter()
        restricted = restrict_form(qf, inst.lattice)
        elapsed = time.perf_counter() - t0
        sig = restricted.signature
        assert sum(sig) == inst.kernel.dimension
        assert elapsed < 1.0, f"k={k} signature took {elapsed:.3f}s"
        verdicts[k] = sig
        if sig != (1, 3, 0):
            findings.append(f"k={k} has signature {sig}, not (1,3,0)")
    line = ", ".join(f"k={k}: {v}" for k, v in verdicts.items())
    if findings:
        print(f"PASS criterion-8 (with findings): {line}; FINDINGS: {'; '.join(findings)}")
    else:
        print(f"PASS criterion-8: exact signatures all (1, 3, 0) for spiral k=3..8, each < 1 s -- {line}")


def test_criterion_9_cone_engine_oracle():
    t0 = time.perf_counter()
    rng = random.Random(1729)
    systems = []
    while len(systems) < 100:
        dim = rng.randrange(2, 5)
        nrows = rng.randrange(dim, 13)
        rows = [[rng.randrange(-3, 4) for _ in range(dim)] for _ in range(nrows)]
        rows = [r for r in rows if any(r)]
        if not rows or rational_linalg.nullspace(rows):
            continue  # keep the cones pointed so the active-set oracle applies
        systems.append((dim, rows))
    for dim, rows in systems:
        got = extreme_rays(ConeDescription(tuple(tuple(r) for r in rows), dim))
        assert list(got.extreme_rays) == brute_force_rays(rows, dim)
    # exhaustive box agreement for the enumeration engine on random lattices
    for basis in random_kernel_bases(rng, 40):
        bound = rng.randrange(0, 5)
        kb = KernelBasis(basis, 0, len(basis), tuple(range(len(basis[0]))))
        got = [p.vector for p in enumerate_lattice_points(lattice_basis(kb), bound)]
        assert got == box_scan(basis, bound)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"PASS criterion-9: double description matches the active-set oracle on 100 random systems "
          f"and enumeration matches box scans on 40 random lattices ({elapsed:.1f} s < 120 s)")


def test_criterion_10_folding_map_well_defined(realized_sample):
    inst, realized = realized_sample
    rng = random.Random(42)
    for vector, lengths, surface, _ in realized:
        charts = realize_polygons(inst.g, inst.boundaries, inst.labels, lengths)
        for _ in range(5):
            order = sorted(surface.frame.gluings)
            rng.shuffle(order)
            parent = {}

            def find(x):
                parent.setdefault(x, x)
                while parent[x] != x:
                    parent[x] = parent.setdefault(parent[x], parent[x])
                    x = parent[x]
                return x

            tree = set()
            for eid in order:
                gl = surface.frame.gluings[eid]
                ra, rb = find(gl.white_polygon), find(gl.black_polygon)
                if ra != rb:
                    parent[ra] = rb
                    tree.add(eid)
            alt = develop_surface(inst.g, inst.boundaries, charts, tree=tree)
            assert alt.folded_vertex_image == surface.folded_vertex_image, vector
    print("PASS criterion-10: folded vertex images identical across 5 random spanning trees per realized point")


def test_criterion_11_coordinate_map_linearity(realized_sample):
    inst, realized = realized_sample
    vectors = [r[0] for r in realized]
    pairs = list(itertools.combinations(vectors[:5], 2))
    for v1, v2 in pairs:
        vs = tuple(a + b for a, b in zip(v1, v2))
        c1, c2, cs = (cone_point_coordinates(inst.develop(v)) for v in (v1, v2, vs))
        assert all(cs[i] == c1[i] + c2[i] for i in range(6))
    print(f"PASS criterion-11: cone point coordinates additive on {len(pairs)} lattice point pairs")
