"""Tests of the benchmark itself (not part of the library's test suite).

    python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[0:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from octacolor import pipeline  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    done = _run_bench("--workload", workload, "--seed", "3", "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_gen_pass_never_hits_the_search_cache():
    gen = workloads.Gen()
    gen.load()
    workloads.GEN_SPIRAL(3)  # a warm cache must not leak into the timed pass
    p = run.run_pass(gen, ["spiral-k3", "spiral-k4", "spiral-k3"])
    assert p.failed == 0, p.errors
    assert workloads.GEN_SPIRAL.cache_info().hits == 0


def test_fixtures_are_the_bundled_spirals():
    gen = workloads.Gen()
    gen.load()
    assert gen.prepare() == []


def test_operation_order_does_not_change_results():
    original = pipeline.enumerate_lattice_points
    survey = workloads.Survey()
    survey.load()
    a = run.run_pass(survey, ["spiral-k3", "spiral-k4"])
    b = run.run_pass(survey, ["spiral-k4", "spiral-k3"])
    assert a.failed == b.failed == 0, a.errors + b.errors
    assert a.counts == b.counts
    assert pipeline.enumerate_lattice_points is original


def test_reference_mismatch_fails_the_run(monkeypatch):
    monkeypatch.setitem(workloads.Check.REFERENCE, "spiral-8", (70, 2, 219, "0" * 64))
    rec = run.measure("check", seed=1, deadline=0.0, trace=False, smoke=True)
    assert not rec["result"]["correct"]
    assert rec["result"]["failed"] == 1
    assert any("219" in e for e in rec["errors"])


def test_tracer_records_nested_spans_and_restores_bindings():
    original = pipeline.run_check
    g = workloads.families.load_bundled("spiral-8")
    with tracer.Tracer() as t:
        t.op = "x"
        assert pipeline.run_check is not original
        report = pipeline.run_check(g, max_len=2)
    assert pipeline.run_check is original
    names = [s[0] for s in t.spans]
    assert names[0] == "pipeline.run_check" and t.spans[0][3] == -1
    assert all(s[3] == 0 for s in t.spans if s[0] == "cone.extreme_rays")
    assert all(s[4] == "x" for s in t.spans)
    assert t.counts["cone.points"] == report.lattice["count"]


def test_layer_and_self_seconds():
    spans = [("a", 0.0, 10.0, -1, None), ("b", 1.0, 3.0, 0, None),
             ("a", 4.0, 6.0, 0, None), ("b", 4.5, 5.0, 2, None)]
    assert tracer.layer_seconds(spans) == {"a": 10.0, "b": 2.5}
    assert tracer.self_seconds(spans, {"a"}) == pytest.approx(10.0 - 2.0 - 2.0 + 2.0 - 0.5)


def test_without_the_library_the_run_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run_bench("--workload", "gen", "--seed", "1", "--seconds", str(SPEC["run_seconds"]),
                      "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout


class _Busy:
    """A workload whose one operation spins for a fixed wall time."""

    SECONDS = 1.0

    def run(self, op):
        end = time.perf_counter() + self.SECONDS
        while time.perf_counter() < end:
            pass
        return op

    def verify(self, op, out):
        return [], {}


def test_speed_probes_during_an_operation_are_not_timed():
    handler = signal.getsignal(signal.SIGALRM)
    p = run.run_pass(_Busy(), ["x"])
    first, end = p.op_probes["x"]
    assert end - first >= run.MIN_OP_PROBES
    # the operation ends at a fixed wall time, so its time plus the probes
    # taken inside it is that time
    assert p.times["x"] + sum(p.speed[first:end]) == pytest.approx(_Busy.SECONDS, abs=0.05)
    assert p.rescaled_times()["x"] == pytest.approx(
        p.times["x"] * speed.REF_S / (sum(p.speed[first:end]) / (end - first)))
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_traced_pass_takes_no_probe_inside_operations():
    p = run.run_pass(_Busy(), ["x"], tracer=tracer.Tracer())
    assert p.op_probes["x"][0] == p.op_probes["x"][1]
    assert len(p.speed) == 1
