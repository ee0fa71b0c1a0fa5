import pytest

from octacolor import families, pipeline
from octacolor.cli import main
from octacolor.emg import render_emg, validate_plausible
from octacolor.families import (ConstructionError, bundled_names, gen_spiral,
                                isomorphic, load_bundled, _spiral_cell)
from octacolor.labeling import BoundaryError
from octacolor.pipeline import Instance, run_survey
from spiral_search import complete_cell


def test_spiral_cell_structure():
    cell = _spiral_cell(3)
    assert len(cell.vertices) == 6
    assert len(cell.edges) == 8
    from octacolor.emg import trace_faces
    faces = trace_faces(cell)
    assert all(f.kind == "quadrilateral" for f in faces.faces)
    assert len(faces.faces) == 4


def test_spiral3_counts(spiral3):
    rep = validate_plausible(spiral3)
    assert rep.plausible
    assert rep.counts["V"] == 6
    assert rep.counts["E_b"] == 14
    assert rep.counts["E_red"] == 4


def test_spiral4_counts(spiral4):
    rep = validate_plausible(spiral4)
    assert rep.plausible
    assert rep.counts["V"] == 8
    assert rep.counts["E_b"] == 18


def test_spiral_generation_deterministic():
    gen_spiral.cache_clear()
    a = render_emg(gen_spiral(3))
    gen_spiral.cache_clear()
    b = render_emg(gen_spiral(3))
    assert a == b


def test_spiral_rejects_small_k():
    with pytest.raises(ValueError):
        gen_spiral(2)




def test_spiral_small_range_fully_nice():
    for k in (3, 4, 5):
        inst = Instance(gen_spiral(k))
        assert inst.validation.plausible and inst.derivable
        kb = inst.kernel
        assert kb.dimension == 4
        assert kb.rank == len(kb.col_edges) - 4


def test_bundled_registry():
    assert "spiral-6" in bundled_names()
    with pytest.raises(KeyError):
        load_bundled("no-such-instance")


def test_bundled_all_plausible():
    for name in bundled_names():
        g = load_bundled(name)
        assert validate_plausible(g).plausible, name


def test_bundled_spiral6_matches_generator():
    for k, name in ((3, "spiral-6"), (4, "spiral-8"), (5, "spiral-10")):
        g = load_bundled(name)
        assert g != gen_spiral(k), name  # different labels on disk
        assert isomorphic(g, gen_spiral(k)), name


@pytest.mark.parametrize("k", range(3, 8))
def test_spiral_matches_search_oracle(k):
    expected = complete_cell(_spiral_cell(k))
    assert expected is not None
    assert render_emg(gen_spiral(k)) == render_emg(expected)


def test_spiral_gate_failure_raises(monkeypatch, capsys):
    # only k = 6 (12 polygons) fails: survey 5..6 has built row 5 when it stops
    monkeypatch.setattr(families, "_is_nice", lambda inst: len(inst.g.vertices) != 12)
    gen_spiral.cache_clear()
    try:
        with pytest.raises(ConstructionError):
            gen_spiral(6)
        for argv in (["gen", "--k", "6"], ["check", "--k", "6"], ["survey", "--k-range", "5..6"]):
            assert main([argv[0], "--family", "spiral", *argv[1:]]) == 2
            out, err = capsys.readouterr()
            assert out == "" and "validation gate" in err
    finally:
        gen_spiral.cache_clear()


def test_a_plain_value_error_escapes_the_gate(monkeypatch):
    # a bug in a stage the gate reads is not a completion that fails it
    def fail(*args):
        raise ValueError("planted")
    monkeypatch.setattr(pipeline, "polygon_boundaries", fail)
    with pytest.raises(ValueError, match="^planted$"):
        families.spiral_instance(5)


def test_a_boundary_error_fails_the_gate(monkeypatch):
    def fail(*args):
        raise BoundaryError("planted")
    monkeypatch.setattr(pipeline, "polygon_boundaries", fail)
    with pytest.raises(ConstructionError, match="spiral k=5 completion fails the validation gate"):
        families.spiral_instance(5)


@pytest.mark.parametrize("k", (12, 16, 20))
def test_spiral_rank_law_large_k(k):
    g = gen_spiral(k)
    [row] = run_survey([(f"spiral-k{k}", g)], max_len=0)["survey"]
    assert row["rank"] == validate_plausible(g).counts["E_b"] - 4
    assert row["dimension"] == 4
    assert row["has_positive_point"] is True
    assert row["signature"] == [1, 3, 0]
    assert row["n_rays"] == 6


def test_isomorphism_distinguishes(hexpair, spiral3):
    assert isomorphic(hexpair, hexpair)
    assert not isomorphic(hexpair, spiral3)
