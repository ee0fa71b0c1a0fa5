import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from form_oracle import global_matrix
from octacolor import cone, mesh, pipeline
from octacolor.cli import main
from octacolor.emg import parse_emg, render_emg, validate_plausible
from octacolor.families import bundled_names, gen_spiral, load_bundled
from octacolor.pipeline import Instance
from octacolor.qform import assemble_form
from rational_linalg import dense


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_bundled_ok(capsys):
    code, out, _ = run(capsys, "validate", "--bundled", "spiral-6")
    assert code == 0
    data = json.loads(out)
    assert data["plausible"] is True
    assert data["counts"]["E_b"] == 14


def test_validate_mutated_file_fails(tmp_path, capsys):
    g = gen_spiral(3)
    red = g.red_edges()[0]
    text = render_emg(g)
    lines = [l for l in text.splitlines() if not l.startswith(f"edge {red.id} ")]
    lines = [l if not l.startswith("rot") else
             " ".join(t for t in l.split() if not t.startswith(f"{red.id}:"))
             for l in lines]
    path = tmp_path / "mutated.emg"
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "validate", "--input", str(path))
    assert code == 1
    data = json.loads(out)
    assert data["plausible"] is False
    assert data["findings"]


def test_validate_missing_input_is_input_error(capsys):
    code, _, err = run(capsys, "validate", "--input", "/nonexistent/file.emg")
    assert code == 2
    assert "cannot read" in err


def test_labels_json(capsys):
    code, out, _ = run(capsys, "labels", "--family", "spiral", "--k", "3")
    assert code == 0
    data = json.loads(out)
    assert data["consistent"] is True
    assert len(data["exponents"]) == 14
    assert all(0 <= v <= 5 for v in data["exponents"].values())


def test_labels_seed_flag_on_a_generated_spiral(tmp_path, capsys):
    # the generated instance is rebuilt with the flag, as a file of it is read
    path = tmp_path / "spiral-k3.emg"
    assert main(["gen", "--family", "spiral", "--k", "3", "--out", str(path)]) == 0
    spiral, flag = ["--family", "spiral", "--k", "3"], ["--seed-flag", "1:1"]
    outs = []
    for argv in (spiral + flag, ["--input", str(path)] + flag, spiral):
        code, out, _ = run(capsys, "labels", *argv)
        assert code == 0
        outs.append({k: v for k, v in json.loads(out).items() if k != "instance"})
    assert outs[0] == outs[1] != outs[2]
    assert outs[0]["seed"] == [1, 1]


@pytest.mark.parametrize("argv,calls", [
    (["solve", "--k", "3"], 1), (["check", "--k", "3"], 1), (["survey", "--k-range", "3..5"], 3),
], ids=["solve", "check", "survey"])
def test_spiral_commands_derive_each_kernel_once(monkeypatch, capsys, argv, calls):
    # the spiral gate's Instance is the one the command reads
    seen = []
    real = pipeline.kernel_basis
    monkeypatch.setattr(pipeline, "kernel_basis", lambda system: seen.append(1) or real(system))
    gen_spiral.cache_clear()
    assert main([argv[0], "--family", "spiral", *argv[1:]]) == 0
    assert len(seen) == calls


def test_labels_seed_flag(capsys):
    code, out, _ = run(capsys, "labels", "--bundled", "hexagon-pair", "--seed-flag", "0:2")
    assert code == 0
    data = json.loads(out)
    assert data["exponents"]["2"] == 0


def test_solve_json(capsys):
    code, out, _ = run(capsys, "solve", "--family", "spiral", "--k", "3")
    assert code == 0
    data = json.loads(out)
    assert data["rank"] == 10
    assert data["dimension"] == 4
    assert data["matrix"]["shape"] == [12, 14]
    assert all(type(i) is int and type(j) is int and type(x) is str
               for i, j, x in data["matrix"]["entries"])
    assert all(isinstance(x, str) for row in data["kernel_basis"] for x in row)


def test_rays_json(capsys):
    code, out, _ = run(capsys, "rays", "--bundled", "hexagon-pair")
    assert code == 0
    data = json.loads(out)
    assert data["has_positive_point"] is True
    assert data["lineality"] == []


def test_lattice_json(capsys):
    code, out, _ = run(capsys, "lattice", "--bundled", "hexagon-pair", "--max-len", "1")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 10
    assert data["strictly_positive"] == 1


def test_lattice_budget_exceeded(capsys):
    code, out, _ = run(capsys, "lattice", "--family", "spiral", "--k", "3",
                       "--max-len", "3", "--budget", "4")
    assert code == 1
    assert "budget" in json.loads(out)


@pytest.mark.parametrize("argv", [
    ["check", "--family", "spiral", "--k", "3", "--budget", "1"],
    ["survey", "--family", "spiral", "--k-range", "3..3", "--max-len", "2", "--budget", "1"],
], ids=["check", "survey"])
def test_budget_exceeded_writes_no_report(capsys, argv):
    # unlike `lattice`, these subcommands report the overrun on stderr only
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "budget of 1" in err


def test_realize_json(capsys):
    code, out, _ = run(capsys, "realize", "--family", "spiral", "--k", "3", "--point", "0")
    assert code == 0
    data = json.loads(out)
    assert data["triangulation"]["degree_histogram"]["4"] == 6
    assert set(data["triangulation"]["vertex_colors"]) <= {0, 1, 2, 3}


def test_qform_json(capsys):
    code, out, _ = run(capsys, "qform", "--family", "spiral", "--k", "3")
    assert code == 0
    data = json.loads(out)
    assert data["signature"] == [1, 3, 0]
    assert data["non_degenerate"] is True


def test_check_green(capsys):
    code, out, _ = run(capsys, "check", "--family", "spiral", "--k", "3", "--max-len", "2")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert data["form"]["signature_as_expected"] is True


def test_gen_roundtrip(tmp_path, capsys):
    path = tmp_path / "spiral.emg"
    code, _, _ = run(capsys, "gen", "--family", "spiral", "--k", "4", "--out", str(path))
    assert code == 0
    g = parse_emg(path.read_text())
    assert validate_plausible(g).plausible


def test_out_that_cannot_be_written_is_an_input_error(tmp_path, capsys):
    # into a missing directory, and onto an existing one: exit 2, no
    # report, and no temporary file left next to the target
    (tmp_path / "dir").mkdir()
    for target in (tmp_path / "missing" / "x.json", tmp_path / "dir"):
        code, out, err = run(capsys, "validate", "--bundled", "spiral-8", "--out", str(target))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {target}: ")
    assert [p.name for p in tmp_path.rglob("*")] == ["dir"]


def test_out_file_has_the_mode_of_a_plain_open(tmp_path, capsys):
    out = tmp_path / "x.json"
    assert main(["validate", "--bundled", "spiral-8", "--out", str(out)]) == 0
    with open(tmp_path / "plain.json", "w"):
        pass
    assert out.stat().st_mode == (tmp_path / "plain.json").stat().st_mode


def test_survey_range(capsys):
    code, out, _ = run(capsys, "survey", "--family", "spiral", "--k-range", "3..4")
    assert code == 0
    rows = json.loads(out)["survey"]
    assert [r["instance"] for r in rows] == ["spiral-k3", "spiral-k4"]
    assert all(r["signature"] == [1, 3, 0] for r in rows)


def test_render_deterministic(tmp_path, capsys):
    a = tmp_path / "a.svg"
    b = tmp_path / "b.svg"
    for path in (a, b):
        code, _, _ = run(capsys, "render", "--family", "spiral", "--k", "3",
                         "--point", "0", "--triangles", "--vertex-colors",
                         "--overlay-dual", "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().startswith("<svg")


def test_render_two_triangle_net(tmp_path, capsys):
    # hexagon-pair renders one white and one black hexagon
    path = tmp_path / "pair.svg"
    code, _, _ = run(capsys, "render", "--bundled", "hexagon-pair",
                     "--max-len", "1", "--out", str(path))
    assert code == 0
    text = path.read_text()
    assert text.count("#FFFFFF") == 1
    assert text.count("#202020") == 1


def test_unknown_family(capsys):
    code, _, err = run(capsys, "gen", "--family", "spiral", "--k", "2")
    assert code == 2
    assert "error" in err


# sha256 of stdout per (instance, subcommand); `check` is hashed with its
# `timings` removed.  Recorded before the CLI was rebuilt on
# `pipeline.Instance`, so they pin its output byte for byte; `solve` and
# `check` were re-pinned when the `rank-methods-agree` detail came to name
# the rank certificate, the only field that changed; `render` was re-pinned
# when charts came to be cut into unit triangles by a row scan, which
# reorders the triangle outlines and leaves the multiset of SVG lines as it
# was.  `solve`, `qform` and `check` were re-pinned on both instances when
# the closure system (`matrix`) and the global form (`global_matrix`) came
# to be written as their sorted nonzeros under `shape` and `entries`: every
# other field decoded equal, and the new fields rebuilt the old dense
# matrices exactly (test_sparse_fields_rebuild_the_dense_oracles).  `check`
# was re-pinned on both instances when each realization dropped
# `four_colored` and `mod3_balanced`, which read true on every entry that
# has no `error`; every other field decoded equal.  `check` was re-pinned
# on both instances when its `lattice` came to report the box by its
# counts (`max_len`, `count`, `strictly_positive`) and no longer list its
# `points`, which `lattice` prints; with `lattice.points` deleted, the
# old stdout decoded equal to the new.  `check` was re-pinned on both
# instances when each realization dropped `degree_histogram`, which the mesh
# forces, and `cone_points`, which `cone.cone_points_map` now gives for
# every point and checks; with those two fields and the map deleted, the
# old stdout decoded equal to the new.  `rays` on both instances and
# `qform` and `check` on spiral k = 3 were re-pinned when the cone and the
# restricted form came to read the lattice basis instead of the kernel
# basis: only `rays`, `inequalities` and `restricted` changed (hexagon-pair's
# rays and form are the same in either basis, its inequalities reordered).
# `check` was re-pinned on both instances when `system.lemmas` gave way to a
# top-level `certificates`, the same four entries followed by
# `positive-point` and `signature`; with `certificates` deleted and
# `system.lemmas` deleted from the old stdout, the two decoded equal.
GOLDEN_COMMANDS = {
    "validate": [], "labels": [], "solve": [], "rays": [],
    "lattice": ["--max-len", "3"], "realize": ["--point", "0"], "qform": [],
    "render": ["--point", "0", "--triangles", "--vertex-colors", "--overlay-dual"],
    "check": ["--max-len", "2"],
}
GOLDEN_SHA256 = {
    "hexagon-pair": {
        "validate": "a59c3aa5b5e5aee4fc5cbcf24da3d353e2f452a4d58b3ea0132c67e1ee469218",
        "labels": "094650888f1427da3678027ec5cea73f9b06ace28679dd7fb72db86b2b5bdb79",
        "solve": "31d896208a9889734ff36562c1bdc342cea496c65e7cdda96c49f7ce1ff51ae3",
        "rays": "e2aaebabe1301a9c9c0b58795f32a9b2f6be4cf8ba384061511403901b093874",
        "lattice": "47f93ac5f59ea3199ece27b70b581bf91c5695c3ae30362fb23120c951c0527b",
        "realize": "1cb535e54e7a0ca817e31108ba6f28ba23c16c571c1f5b67d07c4027bfa80c36",
        "qform": "20eee57e5d02291553ff9f020c41715a1b4fa0b5a6dafb263b6ed8e2015eeb1e",
        "render": "79d665e694a9096f0ee7c343a9bc3956bf8f5ee92da8f5a1ddacd3f570cdaefc",
        "check": "bb817201036dc33e8b13279c0f5ed34625e90ad5acacbc6654a88fdb673d6070",
    },
    "spiral-k3": {
        "validate": "c635bf0723a15dc47e05aa564171b3d86cda2892bec5dc469c8a947fdf2ccfe7",
        "labels": "a298aca95e37e9fb8d48cc7a471ba07643354226871619d9d9d91c3354123027",
        "solve": "6b1a1fb818db16d29b7ad09650d3167209baf7c6f4d9c33b7b12bb936272e821",
        "rays": "878e064ba9a992bc00e680607e3bbe0ecb903a323d2b12ea3d8ac37dda8c5fc0",
        "lattice": "982efa712f7d744a4088e5e09a6dab50ee180102b22d36f9a1b16325b434f03d",
        "realize": "0a2d3865a0f4512cdbafd9bf99cb57ee497372e883fa22e7408f7f62fc624d70",
        "qform": "a66e7a3d633eeebf3a5f6699335e5936718ec3bff9eaa8b0d9f945d9af1e8102",
        "render": "dc22efa5766c7af43ceff77a209aeddf9dc17a8f66cda5c7c428ff74f490b593",
        "check": "2f705efb7f70ac4c2065c0fa63ba5130b28c092022bd66a358ffa757cf2d29c6",
    },
}
GOLDEN_INSTANCES = {"hexagon-pair": ["--bundled", "hexagon-pair"],
                    "spiral-k3": ["--family", "spiral", "--k", "3"]}


@pytest.mark.parametrize("instance", sorted(GOLDEN_SHA256))
@pytest.mark.parametrize("command", list(GOLDEN_COMMANDS))
def test_golden_stdout(capsys, instance, command):
    code, out, err = run(capsys, command, *GOLDEN_INSTANCES[instance], *GOLDEN_COMMANDS[command])
    assert (code, err) == (0, "")
    if command == "check":
        data = json.loads(out)
        del data["timings"]
        out = json.dumps(data, indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SHA256[instance][command]


def _dense_from_json(field, symmetric=False):
    """The dense int matrix of a sparse JSON field; ``symmetric`` mirrors
    an upper triangle.  Entries must be sorted nonzeros, i <= j if
    ``symmetric``."""
    (n, m), entries = field["shape"], field["entries"]
    keys = [(i, j) for i, j, _ in entries]
    assert keys == sorted(set(keys))
    assert all(type(i) is int and type(j) is int and type(x) is str for i, j, x in entries)
    dense = [[0] * m for _ in range(n)]
    for i, j, x in entries:
        assert int(x) and (i <= j or not symmetric)
        dense[i][j] = int(x)
        if symmetric:
            dense[j][i] = int(x)
    return dense


def _oracle_global_matrix(inst):
    return [list(row) for row in global_matrix(assemble_form(inst.g, inst.boundaries))]


def test_sparse_fields_rebuild_the_dense_oracles(capsys):
    graphs = {"hexagon-pair": load_bundled("hexagon-pair"), "spiral-k3": gen_spiral(3)}
    for name, argv in GOLDEN_INSTANCES.items():
        inst = Instance(graphs[name])
        solved = json.loads(run(capsys, "solve", *argv)[1])
        assert _dense_from_json(solved["matrix"]) == dense(inst.system.rows, inst.system.n_cols)
        form = json.loads(run(capsys, "qform", *argv)[1])
        assert _dense_from_json(form["global_matrix"], symmetric=True) == _oracle_global_matrix(inst)
    for k in range(3, 13):
        inst = Instance(gen_spiral(k))
        report = pipeline.run_check(inst, name=f"spiral-k{k}", max_len=0)
        assert _dense_from_json(report.form["global_matrix"], symmetric=True) == \
            _oracle_global_matrix(inst)


def _overlay_render_digest(capsys, name, point):
    code, out, err = run(capsys, "render", "--bundled", name, "--max-len", "5", "--point", point,
                         "--triangles", "--vertex-colors", "--overlay-dual")
    assert (code, err) == (0, "")
    return hashlib.sha256(out.encode()).hexdigest()


def test_golden_render_spiral6_overlay(capsys):
    # the dual overlay's centroids and side midpoints are the only
    # non-lattice points drawn; recorded when GridPoint held Fractions and
    # re-pinned for the row scan's triangle order (same multiset of lines)
    assert _overlay_render_digest(capsys, "spiral-6", "3") == \
        "4daee3f37339179f9a202328a094bc5479401c33de1a35a49564086da89aa2be"


@pytest.mark.parametrize("name,digest", [
    ("spiral-8", "f3767775408b2cc8138e9ce56d8a545d83deabc7b965afd50b8dda66a6cc6b48"),
    ("spiral-10", "2ecfc6b4b15c00729ff5ccbe98435a0ccdecff6c4507aa971ddd7973455dc49f"),
], ids=["spiral-8", "spiral-10"])
def test_golden_render_overlay_larger_spirals(capsys, name, digest):
    # recorded before the realized surface came to hold its frame; re-pinned
    # when each red arc came to hug the parallel side of its own face: one
    # red edge per instance (spiral-8 red 122, spiral-10 red 128) had hugged
    # a parallel double outside its face, and only its two arcs moved
    assert _overlay_render_digest(capsys, name, "0") == digest


def test_golden_render_large_spiral(capsys):
    # a net of k = 200, laid out in linear time; recorded while develop_net
    # still ran a pairwise overlap scan, whose result no output read
    code, out, err = run(capsys, "render", "--family", "spiral", "--k", "200", "--max-len", "8",
                         "--point", "0")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "c27afe671f262ee24b52c27ae33ef68a5acef0fb26aac71321bbb64ab9517680"


def test_golden_render_large_spiral_grid_and_dots(capsys):
    # the same net with every chart's unit triangles and coloring dots, read
    # from the realized mesh chart by chart; recorded while render_net still
    # cut each of the 400 charts again with unit_triangulate
    code, out, err = run(capsys, "render", "--family", "spiral", "--k", "200", "--max-len", "8",
                         "--point", "0", "--triangles", "--vertex-colors")
    assert (code, err, len(out)) == (0, "", 1065912)
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "eca709705dde558da7c0236785b825282c6b28b266a4dddb091333f974365364"


@pytest.mark.parametrize("argv", [
    ["realize", "--bundled", "hexagon-pair", "--point", "1,x"],
    ["realize", "--bundled", "hexagon-pair", "--point", "abc"],
    ["lattice", "--bundled", "hexagon-pair", "--max-len", "-1"],
    ["labels", "--bundled", "hexagon-pair", "--seed-flag", "0:99"],
    ["realize", "--bundled", "hexagon-pair", "--point", "1,1,1,1,1,-1"],  # not positive
    ["render", "--bundled", "hexagon-pair", "--point", "1,1,1,1,1,0"],   # not positive
    ["realize", "--bundled", "hexagon-pair", "--point", "1,1,1,1,1,2"],  # not a solution
    ["lattice", "--family", "spiral", "--k", "3", "--budget", "-1"],
    ["check", "--bundled", "hexagon-pair", "--budget", "-1"],
    ["survey", "--family", "spiral", "--k-range", "3..3", "--max-len", "2", "--budget", "-1"],
    ["survey", "--family", "spiral", "--k-range", "5..3"],
    ["check", "--family", "spiral", "--k", "2"],
    ["survey", "--family", "spiral", "--k-range", "2..3"],
    ["realize", "--bundled", "hexagon-pair", "--point", "1,1,1,1,1,1,1"],  # E_b = 6
    # conflicting instance sources: none may silently win
    ["validate", "--bundled", "spiral-8", "--input", "missing.emg"],
    ["validate", "--family", "spiral", "--k", "3", "--bundled", "spiral-8"],
    ["validate", "--bundled", "spiral-8", "--k", "3"],
    # an empty EMG file, given to every stage subcommand
    *([command, "--input", os.devnull] for command in GOLDEN_COMMANDS),
], ids=["point-vector-garbage", "point-index-garbage", "negative-max-len", "seed-flag-not-incident",
        "point-negative", "point-zero", "point-not-in-kernel", "negative-budget-lattice",
        "negative-budget-check", "negative-budget-survey", "empty-k-range",
        "check-spiral-k2", "survey-spiral-k2", "point-vector-too-long",
        "input-and-bundled", "family-and-bundled", "k-without-family",
        *(f"empty-file-{command}" for command in GOLDEN_COMMANDS)])
def test_malformed_input_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["gen", "--family", "spiral", "--k", "2"],
    ["check", "--family", "spiral", "--k", "2"],
    ["survey", "--family", "spiral", "--k-range", "2..3"],
], ids=["gen", "check", "survey"])
def test_spiral_k_below_three_names_k(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "error: spiral parameter must be at least 3, got k=2\n")


def test_seed_flag_not_incident_names_the_flag(capsys):
    code, out, err = run(capsys, "labels", "--bundled", "hexagon-pair", "--seed-flag", "0:99")
    assert (code, out, err) == (2, "", "error: seed flag (0, 99) is not an incident (vertex, edge) pair\n")


def test_unknown_bundled_name_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--bundled", "nope"])
    assert exc.value.code == 2
    assert "argument --bundled: invalid choice: 'nope'" in capsys.readouterr().err


def test_split_rotation_record_exits_2(tmp_path, capsys):
    path = tmp_path / "split.emg"
    path.write_text(render_emg(load_bundled("hexagon-pair")).replace("rot 0 0:0 1:0 2:0 3:0 4:0 5:0",
                                                       "rot 0 0:0 1:0 2:0\nrot 0 3:0 4:0 5:0"))
    code, out, err = run(capsys, "labels", "--input", str(path))
    assert (code, out) == (2, "")
    assert "duplicate rotation" in err


def test_point_vector_in_kernel_realizes(capsys):
    code, out, _ = run(capsys, "realize", "--bundled", "hexagon-pair", "--point", "2,2,2,2,2,2")
    assert code == 0
    assert json.loads(out)["triangulation"]["triangles"] == 48


def test_check_without_realization_is_not_ok(capsys):
    # k = 4 has no strictly positive point with all lengths <= 3
    code, out, _ = run(capsys, "check", "--family", "spiral", "--k", "4")
    data = json.loads(out)
    assert data["lattice"]["strictly_positive"] == 0 and data["realizations"] == []
    assert (code, data["ok"]) == (1, False)


@st.composite
def rotated_or_recolored_bundled_emg(draw):
    """A bundled instance with a few rotation entries swapped within their
    vertex or a few polygon colours flipped: it still parses, but usually
    breaks an axiom or a later stage."""
    lines = render_emg(load_bundled(draw(st.sampled_from(bundled_names())))).splitlines()
    rots = [i for i, line in enumerate(lines) if line.startswith("rot ")]
    verts = [i for i, line in enumerate(lines) if line.startswith("vertex ")]
    for _ in range(draw(st.integers(1, 3))):
        swap = draw(st.booleans())
        i = draw(st.sampled_from(rots if swap else verts))
        fields = lines[i].split()
        if swap:  # fields 2.. are the half-edges around the vertex
            j, k = draw(st.lists(st.integers(2, len(fields) - 1), min_size=2, max_size=2,
                                 unique=True))
            fields[j], fields[k] = fields[k], fields[j]
        else:
            fields[2] = {"W": "B", "B": "W"}[fields[2]]
        lines[i] = " ".join(fields)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def emg_path(tmp_path_factory):
    return tmp_path_factory.mktemp("mutations") / "input.emg"


@settings(max_examples=100, deadline=None)
@given(rotated_or_recolored_bundled_emg())
def test_check_on_mutated_bundled_reports_every_failure(emg_path, text):
    # a traceback escapes main and fails the test
    emg_path.write_text(text, encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["check", "--input", str(emg_path), "--max-len", "2"]) in (0, 1, 2)


# every stage subcommand but check, with --max-len where it takes one
FUZZED_COMMANDS = {"validate": [], "labels": [], "solve": [], "rays": [],
                   "lattice": ["--max-len", "2"], "realize": ["--max-len", "2"], "qform": [],
                   "render": ["--max-len", "2"]}


@pytest.mark.parametrize("command", list(FUZZED_COMMANDS))
@settings(max_examples=25, deadline=None)
@given(text=rotated_or_recolored_bundled_emg())
def test_stage_commands_on_mutated_bundled_report_every_failure(emg_path, command, text):
    # a traceback escapes main and fails the test
    emg_path.write_text(text, encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main([command, "--input", str(emg_path), *FUZZED_COMMANDS[command]]) in (0, 1, 2)


def _json_without_timings(out: str) -> dict:
    data = json.loads(out)
    data.pop("timings", None)
    return data


@pytest.mark.parametrize("name", bundled_names())
def test_byte_order_mark_is_ignored(tmp_path, capsys, name):
    # one basename in two directories, so both runs name the instance alike
    text = render_emg(load_bundled(name))
    paths = []
    for folder, prefix in (("plain", ""), ("marked", "\ufeff")):
        path = tmp_path / folder / f"{name}.emg"
        path.parent.mkdir()
        path.write_text(prefix + text, encoding="utf-8")
        paths.append(str(path))
    assert open(paths[1], "rb").read(3) == b"\xef\xbb\xbf"
    for command in ("validate", "check"):
        (code, out, err), (code_bom, out_bom, err_bom) = (run(capsys, command, "--input", path)
                                                          for path in paths)
        assert (code_bom, err_bom) == (code, err) and err == ""
        assert _json_without_timings(out_bom) == _json_without_timings(out)


@pytest.fixture(scope="module")
def recolored_spiral6(tmp_path_factory):
    """spiral-6 with vertex 0 recoloured from black to white: implausible,
    and its labels meet a holonomy conflict."""
    lines = render_emg(load_bundled("spiral-6")).splitlines(keepends=True)
    lines[lines.index("vertex 0 B\n")] = "vertex 0 W\n"
    path = tmp_path_factory.mktemp("recolored") / "spiral-6.emg"
    path.write_text("".join(lines), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("command", list(GOLDEN_COMMANDS))
def test_invariant_failure_end_to_end(capsys, recolored_spiral6, command):
    code, out, err = run(capsys, command, "--input", recolored_spiral6, *GOLDEN_COMMANDS[command])
    assert code == 1
    if command not in ("validate", "labels", "check"):
        assert (out, err) == ("", "invariant failure: HolonomyError: "
                                  "polygon 3 receives frame constants 3 and 5\n")
        return
    data = json.loads(out)
    assert err == ""
    if command == "validate":
        assert (data["instance"], data["plausible"]) == ("spiral-6.emg", False)
    elif command == "labels":
        assert data == {"instance": "spiral-6.emg", "consistent": False,
                        "error": "polygon 3 receives frame constants 3 and 5"}
    else:  # an implausible instance stops before its labels
        assert data["instance"]["name"] == "spiral-6.emg"
        assert (data["ok"], data["validation"]["plausible"], data["labeling"]) == (False, False, {})


@pytest.mark.parametrize("module, name, argv", [
    (pipeline, "polygon_boundaries", ["gen", "--family", "spiral", "--k", "5"]),
    (mesh, "build_triangulation", ["check", "--bundled", "hexagon-pair", "--max-len", "2"]),
    (mesh, "build_triangulation", ["realize", "--bundled", "hexagon-pair", "--point", "0"]),
    (pipeline, "assign_labels", ["labels", "--bundled", "hexagon-pair"]),
    # inside cone.enumerate_lattice_points, a plain ValueError like its own
    # unbounded-region check
    (cone, "_fourier_motzkin_levels", ["lattice", "--bundled", "hexagon-pair", "--max-len", "2"]),
], ids=["gen", "check", "realize", "labels", "lattice"])
def test_a_plain_value_error_escapes_main(monkeypatch, module, name, argv):
    # a bug, not a verdict on the input: no exit code may stand for it
    def fail(*args):
        raise ValueError("planted bug")
    monkeypatch.setattr(module, name, fail)
    with pytest.raises(ValueError, match="^planted bug$"):
        main(argv)


SLOW_IMPORTS = ("dataclasses", "inspect", "importlib.resources", "tempfile")


def test_cold_import_skips_slow_modules():
    # -S keeps site-packages .pth files from importing any of them first
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    probe = f"import octacolor.cli, sys; print(*[m for m in {SLOW_IMPORTS!r} if m in sys.modules])"
    done = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert done.stdout.split() == []


# the realization layers and the rational arithmetic only `realize` and
# `render` use; no other command may load them
LAZY_MODULES = ("octacolor.mesh", "octacolor.net", "octacolor.svg", "fractions")


def _cold_main(*argv):
    """Exit code, stdout sha256 and the loaded ``LAZY_MODULES`` of one
    ``main(argv)`` in a fresh interpreter with no bytecode cache."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    probe = ("import contextlib, hashlib, io, sys\n"
             "from octacolor.cli import main\n"
             "out = io.StringIO()\n"
             "with contextlib.redirect_stdout(out):\n"
             "    code = main(sys.argv[1:])\n"
             "print(code, hashlib.sha256(out.getvalue().encode()).hexdigest(),\n"
             f"      *[m for m in {LAZY_MODULES!r} if m in sys.modules])\n")
    done = subprocess.run([sys.executable, "-S", "-c", probe, *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
                          check=True)
    code, digest, *loaded = done.stdout.split()
    return int(code), digest, loaded


@pytest.mark.parametrize("argv", [
    ["gen", "--family", "spiral", "--k", "3"],
    ["survey", "--family", "spiral", "--k-range", "3..4", "--max-len", "2"],
], ids=["gen", "survey"])
def test_commands_without_realization_load_no_realization_layer(argv):
    code, _, loaded = _cold_main(*argv)
    assert (code, loaded) == (0, [])


def test_cold_render_loads_its_layers_and_matches_its_golden():
    code, digest, loaded = _cold_main("render", *GOLDEN_INSTANCES["hexagon-pair"],
                                      *GOLDEN_COMMANDS["render"])
    assert (code, digest) == (0, GOLDEN_SHA256["hexagon-pair"]["render"])
    assert loaded == list(LAZY_MODULES)


@pytest.mark.parametrize("name, error", [("build_triangulation", "MeshError"),
                                         ("four_color", "ColorError")])
def test_realize_mesh_failure_is_an_invariant_failure(monkeypatch, capsys, name, error):
    def fail(*args):
        raise getattr(mesh, error)("planted")
    monkeypatch.setattr(mesh, name, fail)
    code, out, err = run(capsys, "realize", "--bundled", "hexagon-pair", "--point", "0")
    assert (code, out, err) == (1, "", f"invariant failure: {error}: planted\n")


def test_a_broken_identity_is_a_verdict_of_realize_and_check(monkeypatch, capsys):
    # a planted identity that fails on every point: realize and render still
    # write their golden bytes and exit 1, the verdict of check's entry for
    # that point
    real = pipeline.verify_triangle_identity
    monkeypatch.setattr(pipeline, "verify_triangle_identity",
                        lambda *args: real(*args)._replace(holds=False))
    argv = GOLDEN_INSTANCES["hexagon-pair"]
    for command in ("realize", "render"):
        code, out, err = run(capsys, command, *argv, *GOLDEN_COMMANDS[command])
        assert (code, err) == (1, ""), command
        assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SHA256["hexagon-pair"][command]
    code, out, err = run(capsys, "check", *argv, *GOLDEN_COMMANDS["check"])
    data = json.loads(out)
    assert (code, err, data["ok"]) == (1, "", False)
    assert data["realizations"] and all(r["identity_holds"] is False for r in data["realizations"])


def test_a_cone_point_mismatch_is_an_invariant_failure_of_realize(monkeypatch, capsys):
    # one entry of the map moved: every strictly positive point of
    # hexagon-pair has a nonzero first coefficient, so point 0 no longer
    # matches its developed cone points, and render draws no point that
    # realize rejects
    real = Instance.cone_points_map.func

    def moved(self):
        cone_map = [list(row) for row in real(self)]
        cone_map[0][0] += 2
        return tuple(map(tuple, cone_map))

    monkeypatch.setattr(Instance, "cone_points_map", property(moved))
    for command in ("realize", "render"):
        code, out, err = run(capsys, command, *GOLDEN_INSTANCES["hexagon-pair"], "--point", "0")
        assert (code, out) == (1, ""), command
        assert err.startswith("invariant failure: ConePointError: cone points [") and err.endswith("]\n")
