import json
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import cone_map_oracle
import lattice_oracle
import rational_linalg
from octacolor import emg, geometry, labeling, mesh, pipeline
from octacolor.cli import main
from octacolor.emg import EnhancedMultigraph
from octacolor.families import bundled_names, gen_spiral, load_bundled
from octacolor.geometry import cone_point_coordinates
from octacolor.grid import GridPoint
from octacolor.pipeline import (Instance, grid_point_json, lattice_coefficients, lemmas_json,
                                run_check, run_survey, vector_json)
from octacolor.shapesys import ShapeSystem, verify_lemmas


def test_check_report_spiral3(spiral3):
    report = run_check(spiral3, name="spiral-k3", max_len=2)
    assert report.ok
    assert report.system["rank"] == 10
    assert report.form["signature"] == [1, 3, 0]
    assert all(r["identity_holds"] for r in report.realizations)
    # serializes without floats in exact fields
    data = json.dumps(report.to_json_dict())
    assert "signature" in data


def _implausible(g):
    """``g`` without its first red edge: no longer a plausible type."""
    red = g.red_edges()[0]
    edges = tuple(e for e in g.edges if e.id != red.id)
    rotations = tuple((vid, tuple(d for d in rot if d[0] != red.id))
                      for vid, rot in g.rotations)
    return EnhancedMultigraph(g.vertices, edges, rotations)


def test_check_report_stops_on_implausible(spiral3):
    report = run_check(_implausible(spiral3), name="broken")
    assert not report.ok
    assert not report.validation["plausible"]
    assert report.realizations == []


def test_check_exact_values_are_strings(hexpair):
    inst = Instance(hexpair)
    report = run_check(inst, name="hexagon-pair", max_len=1)
    assert report.form["global_matrix"]["shape"] == [6, 6]
    assert all(type(i) is int and type(j) is int and type(x) is str
               for i, j, x in report.form["global_matrix"]["entries"])
    assert all(isinstance(x, str) for row in report.form["restricted"] for x in row)
    assert report.realizations
    for entry in report.realizations:
        assert all(isinstance(x, str) for x in entry["vector"])
    cone_map = report.cone["cone_points_map"]
    assert len(cone_map) == 12 and all(len(row) == 4 for row in cone_map)
    assert all(isinstance(x, str) for row in cone_map for x in row)
    listed = pipeline.lattice_points_json(inst.lattice_points(1), 1)["points"]
    assert listed and all(isinstance(x, str) for point in listed for x in point["vector"])


@pytest.mark.parametrize("argv", [["--bundled", "hexagon-pair"],
                                  ["--family", "spiral", "--k", "3"]], ids=["hexagon-pair", "spiral-k3"])
def test_check_reports_the_box_by_its_counts(capsys, argv):
    # check lists no lattice point; its realizations are the strictly
    # positive points lattice prints, in order, so realizations[i] is
    # realize --point i
    def cli(*args):
        assert main([*args, *argv, "--max-len", "3"]) == 0
        return json.loads(capsys.readouterr().out)

    report, box = cli("check"), cli("lattice")
    assert set(report["lattice"]) == {"max_len", "count", "strictly_positive"}
    assert report["lattice"] == {key: box[key] for key in report["lattice"]}
    vectors = [r["vector"] for r in report["realizations"]]
    assert vectors == [p["vector"] for p in box["points"] if p["strictly_positive"]] and vectors
    last = len(vectors) - 1
    assert cli("realize", "--point", str(last))["point"] == vectors[last]


CONE_MAP_INSTANCES = ([(name, ["--bundled", name], load_bundled(name)) for name in bundled_names()]
                      + [(f"spiral-k{k}", ["--family", "spiral", "--k", str(k)], gen_spiral(k))
                         for k in range(3, 9)])


@pytest.mark.parametrize("argv,g", [case[1:] for case in CONE_MAP_INSTANCES],
                         ids=[case[0] for case in CONE_MAP_INSTANCES])
def test_cone_points_map_gives_each_points_cone_points(capsys, argv, g):
    # at max-len 5 every instance here has a strictly positive point; the
    # coefficients come from the rational solver, not the map's own solve
    inst = Instance(g)
    cone_map = inst.cone_points_map
    vectors = [p.vector for p in inst.lattice_points(5) if p.strictly_positive]
    assert cone_map is not None and len(cone_map) == 12 and vectors
    basis_t = rational_linalg.transpose(inst.lattice.vectors)
    mapped = []
    for v in vectors:
        coeffs = rational_linalg.solve(basis_t, v)
        assert all(c.denominator == 1 for c in coeffs)
        flat = rational_linalg.mat_vec(cone_map, coeffs)
        assert flat == [x for p in cone_point_coordinates(inst.develop(v)) for x in p]
        mapped.append([grid_point_json(GridPoint(X, Y)) for X, Y in zip(flat[::2], flat[1::2])])
    for i in (0, len(vectors) - 1):
        assert main(["realize", *argv, "--max-len", "5", "--point", str(i)]) == 0
        assert json.loads(capsys.readouterr().out)["cone_points"] == mapped[i]


@pytest.mark.parametrize("row,col", [(2, 0), (11, 3)])
def test_a_perturbed_cone_points_map_fails_the_points_it_moves(hexpair, row, col):
    inst = Instance(hexpair)
    cone_map = [list(r) for r in inst.cone_points_map]
    cone_map[row][col] += 2
    inst.cone_points_map = tuple(map(tuple, cone_map))
    report = run_check(inst, max_len=3)
    assert report.cone["cone_points_map"][row][col] == str(cone_map[row][col])
    moved = [lattice_coefficients(inst.lattice.vectors, [int(x) for x in r["vector"]])[col] != 0
             for r in report.realizations]
    assert any(moved) and not report.ok
    for entry, failed in zip(report.realizations, moved):
        assert ("error" in entry) == failed
        assert not failed or entry["error"].startswith("ConePointError: cone points ")


def test_a_planted_offset_fails_every_realized_point(monkeypatch):
    # the map reads the offset once per basis vector, so a point whose
    # coefficients sum to n is n - 1 offsets off its map; no strictly
    # positive point here has a coefficient sum of 1
    real = pipeline.cone_point_coordinates
    monkeypatch.setattr(pipeline, "cone_point_coordinates",
                        lambda surface: tuple(p + GridPoint(2, 0) for p in real(surface)))
    for name, max_len in (("hexagon-pair", 2), ("spiral-6", 4)):
        report = run_check(load_bundled(name), name=name, max_len=max_len)
        assert report.cone["cone_points_map"] is not None
        assert report.realizations and not report.ok
        assert all(entry["error"].startswith("ConePointError: cone points ") for entry in report.realizations)


@pytest.mark.parametrize("name", [case[0] for case in CONE_MAP_INSTANCES] + ["spiral-k12", "spiral-k200"])
def test_cone_points_map_equals_the_finite_difference_oracle(name):
    inst = Instance(gen_spiral(int(name[len("spiral-k"):])) if name.startswith("spiral-k") else load_bundled(name))
    assert inst.cone_points_map == cone_map_oracle.cone_points_map(inst)


@pytest.mark.parametrize("name", bundled_names())
def test_realize_agrees_with_checks_realizations(name):
    # check on one instance, realize on another: realizations[i] is the
    # verdict of realizing the i-th strictly positive point on its own
    report = run_check(load_bundled(name), name=name, max_len=3)
    inst = Instance(load_bundled(name))
    points = [p.vector for p in inst.lattice_points(3) if p.strictly_positive]
    assert [r["vector"] for r in report.realizations] == [vector_json(v) for v in points]
    assert points or name in ("spiral-8", "spiral-10")  # no spiral k >= 4 has one at max-len 3
    for entry, vector in zip(report.realizations, points):
        identity = inst.realize(vector).identity
        assert (entry["triangles"], entry["form_value"], entry["identity_holds"]) == (
            identity.triangle_count, str(identity.form_value), identity.holds)


def test_realize_tests_lattice_membership_once(monkeypatch):
    # L is saturated, so the recombination of the coefficients realize reads
    # is the closure rule: the system is never asked as well
    inst = Instance(load_bundled("spiral-6"))
    vectors = [p.vector for p in inst.lattice_points(3) if p.strictly_positive]
    assert vectors and inst.cone_points_map  # the map walks the lattice basis first
    calls = []
    solves, coefficients = ShapeSystem.solves, pipeline.lattice_coefficients
    monkeypatch.setattr(ShapeSystem, "solves", lambda self, v: calls.append("solves") or solves(self, v))
    monkeypatch.setattr(pipeline, "lattice_coefficients",
                        lambda vs, p: calls.append("lattice_coefficients") or coefficients(vs, p))
    for vector in vectors:
        calls.clear()
        assert inst.realize(vector).identity.holds
        assert calls == ["lattice_coefficients"]
        c = inst.coefficients(vector)
        assert [sum(a * b[j] for a, b in zip(c, inst.lattice.vectors)) for j in range(len(vector))] == list(vector)


def test_lattice_coefficients_with_a_pivot_of_two():
    # row Hermite normal form: pivots 2 and 3, the entry above 3 reduced
    vectors = ((2, 1, 0, 5), (0, 3, 1, -1))
    for c in ((1, -2), (0, 0), (-3, 7)):
        point = [c[0] * x + c[1] * y for x, y in zip(*vectors)]
        assert lattice_coefficients(vectors, point) == list(c)
    # (2, 1, 0, 6) divides exactly at both pivots but is off the lattice
    for point in ((1, 0, 0, 0), (2, 2, 0, 5), (2, 1, 0, 6)):
        with pytest.raises(ValueError, match="is not a point of the lattice"):
            lattice_coefficients(vectors, point)
    # every pivot of hexagon-pair's basis is 1: the pivot entries alone
    # would read [1, 0, 0, 0], which recombines to [1, 0, 0, 0, 1, -1]
    with pytest.raises(ValueError, match=r"^\[1, 0, 0, 0, 0, 0\] is not a point of the lattice$"):
        lattice_coefficients(Instance(load_bundled("hexagon-pair")).lattice.vectors, [1, 0, 0, 0, 0, 0])


@given(st.lists(st.lists(st.integers(-3, 3), min_size=5, max_size=5), min_size=1, max_size=4),
       st.lists(st.integers(-6, 6), min_size=5, max_size=5))
@example([[1, -2, 0, 0, 0], [0, 0, 1, 1, 1]], [1, -1, 0, 0, 0])
def test_lattice_coefficients_on_random_saturated_lattices(rows, coeffs):
    vectors = lattice_oracle.integer_kernel(rows)
    coeffs = coeffs[:len(vectors)]
    point = [sum(c * v[j] for c, v in zip(coeffs, vectors)) for j in range(5)]
    assert lattice_coefficients(vectors, point) == coeffs


def test_survey_rows():
    out = run_survey([("hexagon-pair", load_bundled("hexagon-pair"))])
    row = out["survey"][0]
    assert row["plausible"] and row["lemmas_ok"] and row["signature"] == [1, 3, 0]
    assert (row["points"], row["strictly_positive"]) == (1, 0)


def test_survey_rows_match_check_reports():
    instances = ([(name, load_bundled(name)) for name in bundled_names()]
                 + [(f"spiral-k{k}", gen_spiral(k)) for k in range(3, 13)]
                 + [("broken", _implausible(gen_spiral(3)))])
    max_len = 3
    rows = run_survey(instances, max_len=max_len)["survey"]
    assert len(rows) == len(instances)
    for (name, g), row in zip(instances, rows):
        rep = run_check(g, name=name, max_len=max_len)
        assert row == {
            "instance": name, "plausible": rep.validation["plausible"],
            "rank": rep.system.get("rank"), "dimension": rep.system.get("dimension"),
            "lemmas_ok": all(c["passed"] for c in rep.certificates) if rep.certificates else None,
            "has_positive_point": rep.cone.get("has_positive_point"),
            "n_rays": len(rep.cone.get("rays", [])), "signature": rep.form.get("signature"),
            "signature_as_expected": rep.form.get("signature_as_expected"),
            "points": rep.lattice.get("count"),
            "strictly_positive": rep.lattice.get("strictly_positive"),
            "timings": row["timings"]}
    assert not rows[-1]["plausible"] and rows[-1]["points"] is rows[-1]["lemmas_ok"] is None
    assert all(row["lemmas_ok"] for row in rows[:-1])


def test_survey_builds_no_report_fragment(monkeypatch):
    for name in ("lattice_counts_json", "lattice_points_json", "matrix_json", "sparse_json",
                 "vector_json", "cone_json", "system_json", "form_json"):
        monkeypatch.setattr(pipeline, name, _forbidden(name))
    (row,) = run_survey([("spiral-k3", gen_spiral(3))], max_len=2)["survey"]
    assert row["points"] > row["strictly_positive"] > 0


SURVEY_STAGES = {"validate", "labels", "solve", "cone", "lattice", "form", "total"}


def _no_float(text):
    raise AssertionError(f"float {text} in the JSON")


def _assert_microseconds(timings, keys):
    assert set(timings) == keys
    assert all(type(t) is int and t >= 0 for t in timings.values()), timings


def test_timings_are_integer_microseconds(capsys):
    # every stage lapped for a derivable instance, and validate alone for
    # an implausible one; each lap a nonnegative int, in the library and
    # on the CLI's stdout alike
    spiral3, broken = gen_spiral(3), _implausible(gen_spiral(3))
    _assert_microseconds(run_check(spiral3, max_len=2).timings, SURVEY_STAGES | {"realize"})
    _assert_microseconds(run_check(broken, max_len=2).timings, {"validate", "total"})
    rows = run_survey([("spiral-k3", spiral3), ("broken", broken)], max_len=2)["survey"]
    _assert_microseconds(rows[0]["timings"], SURVEY_STAGES)
    _assert_microseconds(rows[1]["timings"], {"validate", "total"})
    assert main(["check", "--family", "spiral", "--k", "3", "--max-len", "2"]) == 0
    data = json.loads(capsys.readouterr().out, parse_float=_no_float)
    _assert_microseconds(data["timings"], SURVEY_STAGES | {"realize"})
    assert main(["survey", "--family", "spiral", "--k-range", "3..4", "--max-len", "2"]) == 0
    for row in json.loads(capsys.readouterr().out, parse_float=_no_float)["survey"]:
        _assert_microseconds(row["timings"], SURVEY_STAGES)


def test_vector_json():
    assert vector_json([Fraction(3, 6), 7]) == ["1/2", "7"]


@pytest.mark.parametrize("name,max_len", [("spiral-8", 3), ("spiral-10", 3), ("spiral-6", 1)])
def test_check_without_realization_is_not_ok(name, max_len):
    report = run_check(load_bundled(name), name=name, max_len=max_len)
    assert report.realizations == []
    assert report.form["signature_as_expected"] and report.cone["has_positive_point"]
    assert not report.ok


def test_check_requires_the_expected_signature(monkeypatch, capsys):
    real = pipeline.restrict_form
    monkeypatch.setattr(pipeline, "restrict_form",
                        lambda form, lattice: real(form, lattice)._replace(signature=(2, 2, 0)))
    assert main(["check", "--family", "spiral", "--k", "3", "--max-len", "2"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["form"]["signature"] == [2, 2, 0] and not data["ok"]
    # every other verdict held, so the signature alone decided
    assert all(c["passed"] for c in data["certificates"] if c["name"] != "signature")
    assert data["cone"]["has_positive_point"]
    assert data["realizations"] and all(r["identity_holds"] for r in data["realizations"])
    (sig,) = [c for c in data["certificates"] if c["name"] == "signature"]
    assert sig == {"name": "signature", "passed": False,
                   "detail": "signature [2, 2, 0], expected [1, 3, 0]"}


def test_a_wrong_signature_fails_the_survey_row(monkeypatch):
    real = pipeline.restrict_form
    monkeypatch.setattr(pipeline, "restrict_form",
                        lambda form, lattice: real(form, lattice)._replace(signature=(2, 2, 0)))
    (row,) = run_survey([("spiral-k3", gen_spiral(3))], max_len=2)["survey"]
    assert row["signature"] == [2, 2, 0] and row["lemmas_ok"] is False


def test_a_cone_without_a_positive_point_fails_check_and_survey(monkeypatch):
    # the map walks the lattice basis, not a positive point of the cone
    cone_map = pipeline.matrix_json(Instance(gen_spiral(3)).cone_points_map)
    real = pipeline.extreme_rays
    monkeypatch.setattr(pipeline, "extreme_rays", lambda cd: real(cd)._replace(has_positive_point=False))
    report = run_check(gen_spiral(3), name="spiral-k3", max_len=2)
    assert [c for c in report.certificates if not c["passed"]] == [
        {"name": "positive-point", "passed": False,
         "detail": "the sum of the 7 extreme rays is not strictly positive"}]
    assert not report.ok and report.cone["cone_points_map"] == cone_map
    (row,) = run_survey([("spiral-k3", gen_spiral(3))], max_len=2)["survey"]
    assert row["has_positive_point"] is False and row["lemmas_ok"] is False


CERTIFICATE_NAMES = ["row-sum-zero", "rank", "dimension", "rank-methods-agree", "positive-point",
                     "signature"]


@pytest.mark.parametrize("name", [*bundled_names(), *(f"spiral-k{k}" for k in range(3, 9))])
def test_certificates_open_with_the_lemmas(name):
    g = gen_spiral(int(name[len("spiral-k"):])) if name.startswith("spiral-k") else load_bundled(name)
    inst = Instance(g)
    assert inst.certificates[:4] == verify_lemmas(inst.system, inst.kernel)
    assert [c.name for c in inst.certificates] == CERTIFICATE_NAMES
    assert all(c.passed for c in inst.certificates)
    # check's list opens with what solve prints as its lemmas, entry for entry
    report = run_check(g, name=name, max_len=1)
    assert report.certificates[:4] == lemmas_json(inst.kernel, inst.lemmas)["lemmas"]
    assert [c["name"] for c in report.certificates] == CERTIFICATE_NAMES


def _forbidden(name):
    def call(*args, **kwargs):
        raise AssertionError(f"{name} should not be computed")
    return call


def test_spiral_gate_computes_only_its_stages(monkeypatch):
    # the gate's cone reads the lattice basis, and nothing past the cone
    for name in ("verify_lemmas", "assemble_form", "enumerate_lattice_points"):
        monkeypatch.setattr(pipeline, name, _forbidden(name))
    gen_spiral.cache_clear()
    try:
        assert gen_spiral(5).vertices
    finally:
        gen_spiral.cache_clear()


def test_point_vector_skips_the_enumeration(monkeypatch, capsys):
    # realize and render check the vector's cone points against the map,
    # which walks the lattice basis: they derive the lattice, but neither
    # the cone nor any enumerated point
    for name in ("enumerate_lattice_points", "extreme_rays"):
        monkeypatch.setattr(pipeline, name, _forbidden(name))
    assert main(["realize", "--bundled", "hexagon-pair", "--point", "1,1,1,1,1,1"]) == 0
    assert json.loads(capsys.readouterr().out)["point"] == ["1"] * 6
    assert main(["render", "--bundled", "hexagon-pair", "--point", "1,1,1,1,1,1"]) == 0
    assert capsys.readouterr().out.startswith("<svg")


def test_lattice_points_skip_the_double_description(monkeypatch, capsys):
    monkeypatch.setattr(pipeline, "extreme_rays", _forbidden("extreme_rays"))
    assert main(["lattice", "--bundled", "hexagon-pair", "--max-len", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] > 0


def test_instance_computes_each_stage_once(monkeypatch, spiral3):
    calls = []
    real = pipeline.kernel_basis
    monkeypatch.setattr(pipeline, "kernel_basis", lambda system: calls.append(1) or real(system))
    inst = Instance(spiral3)
    assert inst.cone.has_positive_point and inst.form.signature == (1, 3, 0)
    assert inst.lattice.dimension == inst.kernel.dimension == 4
    assert len(calls) == 1


def test_instance_builds_its_frame_once(monkeypatch, spiral3):
    calls = []
    real = pipeline.surface_frame
    monkeypatch.setattr(pipeline, "surface_frame", lambda boundaries: calls.append(1) or real(boundaries))
    report = run_check(spiral3, max_len=2)
    assert report.ok and len(report.realizations) > 1
    assert len(calls) == 1


def test_instance_builds_its_plan_once(monkeypatch, spiral3):
    calls = []
    real = pipeline.development_plan
    monkeypatch.setattr(pipeline, "development_plan", lambda *args: calls.append(1) or real(*args))
    report = run_check(spiral3, max_len=2)
    assert report.ok and len(report.realizations) > 1
    assert len(calls) == 1


def test_instance_traces_its_faces_once(monkeypatch, spiral3):
    # validation and the polygon boundaries share the instance's faces
    calls = []
    real = emg.trace_faces
    patched = [name for name, module in list(sys.modules.items())
               if name.split(".")[0] == "octacolor" and getattr(module, "trace_faces", None) is real]
    for name in patched:
        monkeypatch.setattr(sys.modules[name], "trace_faces", lambda g: calls.append(1) or real(g))
    assert {"octacolor.emg", "octacolor.labeling"} <= set(patched)
    inst = Instance(spiral3)
    report = run_check(inst, max_len=2)
    assert report.ok and set(report.timings) >= {"validate", "labels", "form", "realize"}
    assert len(calls) == 1


def test_check_records_a_holonomy_failure_per_point(monkeypatch, hexpair):
    # polygon 1 realized at twice the lengths of polygon 0: the tree edge
    # fits by construction, every other edge disagrees
    real = pipeline.walk_polygons

    def mismatched(plan, lengths):
        return {**real(plan, lengths), 1: real(plan, [2 * x for x in lengths])[1]}

    monkeypatch.setattr(pipeline, "walk_polygons", mismatched)
    report = run_check(hexpair, max_len=2)
    assert report.realizations and not report.ok
    for entry in report.realizations:
        assert entry["error"].startswith("GluingError: edge ")
        assert "folded placements disagree" in entry["error"]


@given(st.integers(), st.integers())
@example(0, 0)
@example(-1, 1)
@example(-2, 3)
@example(2 ** 70 + 1, -(2 ** 70))
def test_grid_point_json_halves_like_fraction(x, y):
    assert grid_point_json(GridPoint(x, y)) == {"x": str(Fraction(x, 2)), "ys3": str(Fraction(y, 2))}


def test_every_invariant_failure_is_an_invariant_error():
    classes = (labeling.BoundaryError, labeling.HolonomyError, geometry.ClosureError,
               geometry.GluingError, geometry.AngleError, mesh.MeshError, mesh.ColorError,
               pipeline.ConePointError)
    assert all(issubclass(cls, emg.InvariantError) for cls in classes)
    assert issubclass(emg.InvariantError, ValueError)


def _planted(error):
    def fail(*args):
        raise error("planted")
    return fail


@pytest.mark.parametrize("error", [mesh.MeshError, ValueError], ids=["MeshError", "ValueError"])
def test_only_an_invariant_failure_in_the_mesh_is_a_verdict(monkeypatch, hexpair, error):
    monkeypatch.setattr(mesh, "build_triangulation", _planted(error))
    if error is ValueError:  # a bug escapes check
        with pytest.raises(ValueError, match="^planted$"):
            run_check(hexpair, max_len=2)
        return
    report = run_check(hexpair, max_len=2)
    assert report.realizations and not report.ok
    assert all(entry["error"] == "MeshError: planted" for entry in report.realizations)


@pytest.mark.parametrize("error", [geometry.GluingError, ValueError],
                         ids=["GluingError", "ValueError"])
def test_only_an_invariant_failure_leaves_no_cone_points_map(monkeypatch, error):
    # planted in the walk of the lattice basis the map places
    monkeypatch.setattr(pipeline, "place_surface", _planted(error))
    inst = Instance(load_bundled("spiral-6"))
    if error is ValueError:  # a bug escapes the map
        with pytest.raises(ValueError, match="^planted$"):
            inst.cone_points_map
        return
    assert inst.cone_points_map is None
    # check still reports the type per point: each point's own walk fails
    report = run_check(inst, max_len=3)
    assert report.cone["cone_points_map"] is None and report.realizations and not report.ok
    assert all(entry["error"] == "GluingError: planted" for entry in report.realizations)


def test_a_point_that_develops_on_a_type_with_no_map_is_a_cone_point_failure(monkeypatch, hexpair):
    # a walk fails only on a length below 1: hexagon-pair's lattice basis
    # has such entries, and no realized point does
    real = pipeline.walk_polygons

    def positive_only(plan, lengths):
        if min(lengths) < 1:
            raise geometry.GluingError("planted")
        return real(plan, lengths)

    monkeypatch.setattr(pipeline, "walk_polygons", positive_only)
    report = run_check(hexpair, max_len=2)
    assert report.cone["cone_points_map"] is None and report.realizations and not report.ok
    assert all(entry == {"vector": entry["vector"], "error": "ConePointError: the type has no cone point map"}
               for entry in report.realizations)
