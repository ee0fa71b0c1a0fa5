import json
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from octacolor import pipeline
from octacolor.cli import main
from octacolor.emg import EnhancedMultigraph
from octacolor.families import bundled_names, gen_spiral, load_bundled
from octacolor.grid import GridPoint
from octacolor.pipeline import Instance, grid_point_json, run_check, run_survey, vector_json


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
    report = run_check(hexpair, name="hexagon-pair", max_len=1)
    for row in report.form["global_matrix"]:
        assert all(isinstance(x, str) for x in row)
    for point in report.lattice["points"]:
        assert all(isinstance(x, str) for x in point["vector"])
    for entry in report.realizations:
        for c in entry["cone_points"]:
            assert set(c) == {"x", "ys3"}


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
        lemmas = rep.system.get("lemmas")
        assert row == {
            "instance": name, "plausible": rep.validation["plausible"],
            "rank": rep.system.get("rank"), "dimension": rep.system.get("dimension"),
            "lemmas_ok": None if lemmas is None else all(c["passed"] for c in lemmas),
            "has_positive_point": rep.cone.get("has_positive_point"),
            "n_rays": len(rep.cone.get("rays", [])), "signature": rep.form.get("signature"),
            "signature_as_expected": rep.form.get("signature_as_expected"),
            "points": rep.lattice.get("count"),
            "strictly_positive": rep.lattice.get("strictly_positive"),
            "timings": row["timings"]}
    assert not rows[-1]["plausible"] and rows[-1]["points"] is rows[-1]["lemmas_ok"] is None
    assert all(row["lemmas_ok"] for row in rows[:-1])


def test_survey_builds_no_report_fragment(monkeypatch):
    for name in ("lattice_points_json", "matrix_json", "vector_json", "cone_json", "form_json"):
        monkeypatch.setattr(pipeline, name, _forbidden(name))
    (row,) = run_survey([("spiral-k3", gen_spiral(3))], max_len=2)["survey"]
    assert row["points"] > row["strictly_positive"] > 0


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
                        lambda form, kernel: real(form, kernel)._replace(signature=(2, 2, 0)))
    assert main(["check", "--family", "spiral", "--k", "3", "--max-len", "2"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["form"]["signature"] == [2, 2, 0] and not data["ok"]
    # every other verdict held, so the signature alone decided
    assert all(c["passed"] for c in data["system"]["lemmas"]) and data["cone"]["has_positive_point"]
    assert data["realizations"] and all(r["identity_holds"] for r in data["realizations"])


def _forbidden(name):
    def call(*args, **kwargs):
        raise AssertionError(f"{name} should not be computed")
    return call


def test_spiral_gate_computes_only_its_stages(monkeypatch):
    for name in ("lattice_basis", "verify_lemmas", "assemble_form", "enumerate_lattice_points"):
        monkeypatch.setattr(pipeline, name, _forbidden(name))
    gen_spiral.cache_clear()
    try:
        assert gen_spiral(5).vertices
    finally:
        gen_spiral.cache_clear()


def test_point_vector_skips_cone_and_lattice(monkeypatch, capsys):
    for name in ("extreme_rays", "lattice_basis", "enumerate_lattice_points"):
        monkeypatch.setattr(pipeline, name, _forbidden(name))
    assert main(["realize", "--bundled", "hexagon-pair", "--point", "1,1,1,1,1,1"]) == 0
    assert json.loads(capsys.readouterr().out)["point"] == ["1"] * 6


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


def test_check_records_a_holonomy_failure_per_point(monkeypatch, hexpair):
    # polygon 1 realized at twice the lengths of polygon 0: the tree edge
    # fits by construction, every other edge disagrees
    real = pipeline.realize_polygons

    def mismatched(g, boundaries, labels, lengths):
        doubled = real(g, boundaries, labels, {e: 2 * x for e, x in lengths.items()})
        return {**real(g, boundaries, labels, lengths), 1: doubled[1]}

    monkeypatch.setattr(pipeline, "realize_polygons", mismatched)
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
