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

from octacolor.cli import main
from octacolor.emg import parse_emg, render_emg, validate_plausible
from octacolor.families import bundled_names, gen_spiral, load_bundled


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
    assert all(isinstance(x, str) for row in data["matrix"] for x in row)


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
# was.
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
        "solve": "13e05178835ea8c37c712a388ac833985ca047e201fee2389b0b9c14e9b6aa79",
        "rays": "2e32d5922836bf3ee24aded85dadaccd75b82248f4fd49ad0b65458874fd228b",
        "lattice": "47f93ac5f59ea3199ece27b70b581bf91c5695c3ae30362fb23120c951c0527b",
        "realize": "1cb535e54e7a0ca817e31108ba6f28ba23c16c571c1f5b67d07c4027bfa80c36",
        "qform": "9f4074664b374db84917e3143ae3e10ccba3226dc62f7705075b3df43a49929a",
        "render": "79d665e694a9096f0ee7c343a9bc3956bf8f5ee92da8f5a1ddacd3f570cdaefc",
        "check": "a7f5f28a9c4d68592a62db4efd3e1ac3a2978c06e7ca9cd5894b396865d03073",
    },
    "spiral-k3": {
        "validate": "c635bf0723a15dc47e05aa564171b3d86cda2892bec5dc469c8a947fdf2ccfe7",
        "labels": "a298aca95e37e9fb8d48cc7a471ba07643354226871619d9d9d91c3354123027",
        "solve": "de12ee6fb4517236520fbc4485cfb16dd2a794601f113655047fa1dab873a046",
        "rays": "62457f632f5d0e3d65739fff840ddd10a03d0507791d735c4067c87d1dc03894",
        "lattice": "982efa712f7d744a4088e5e09a6dab50ee180102b22d36f9a1b16325b434f03d",
        "realize": "0a2d3865a0f4512cdbafd9bf99cb57ee497372e883fa22e7408f7f62fc624d70",
        "qform": "2d1e975a539aabceeea5b638198d39e7ab4f67dd349062a6e18b7626154abf7d",
        "render": "dc22efa5766c7af43ceff77a209aeddf9dc17a8f66cda5c7c428ff74f490b593",
        "check": "96607b13e701a6f8b2b645192558c5573268e2fbb3792a105edc8208c79d3ddd",
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
    ("spiral-8", "6bff2ff3badc8e448fd42511e5fe0180d0f9e12f4e1ce788481a15d73aa8873f"),
    ("spiral-10", "dbe267c3dae757d2463e538c5fb60f5ec5bb5923050ce6b78fcb6dbc9d5a5afc"),
])
def test_golden_render_overlay_larger_spirals(capsys, name, digest):
    # recorded before the realized surface came to hold its frame
    assert _overlay_render_digest(capsys, name, "0") == digest


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
], ids=["point-vector-garbage", "point-index-garbage", "negative-max-len", "seed-flag-not-incident",
        "point-negative", "point-zero", "point-not-in-kernel", "negative-budget-lattice",
        "negative-budget-check", "negative-budget-survey", "empty-k-range"])
def test_malformed_input_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


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


SLOW_IMPORTS = ("dataclasses", "inspect", "importlib.resources", "tempfile")


def test_cold_import_skips_slow_modules():
    # -S keeps site-packages .pth files from importing any of them first
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    probe = f"import octacolor.cli, sys; print(*[m for m in {SLOW_IMPORTS!r} if m in sys.modules])"
    done = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert done.stdout.split() == []
