"""Layered benchmark for octacolor: the ``gen``, ``check`` and ``survey`` workloads.

Each workload is a closed loop: one client in one process and thread runs
one operation at a time through the library's public entry point and
checks every output exactly.  A run loads the inputs, then repeats rounds
until ``--seconds`` after it started: an untraced round times several cold
set-ups in fresh interpreters and one pass over the workload's operations,
in an order shuffled by ``--seed``.  End-to-end metrics are medians over
those rounds, every time rescaled to a reference machine speed that the
run probes as it goes (see ``speed.py``).  With ``--trace 1`` a round is an untraced pass followed by
a traced one, and the traced passes give the per-layer metrics (spans
recorded around every public layer function, see ``tracer.py``).

    python3 bench/run.py --workload check --seed 3 --trace 0
    python3 bench/run.py --workload check --trace 1 --smoke   # one operation, seconds

``--workload``, ``--seed``, ``--seconds`` and ``--trace`` are the calling
convention that ``BENCHMARK.json`` describes; ``--seconds`` defaults to its
``run_seconds``.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; a full
record with every sample and span goes to ``bench/out/``.  The exit code is
1 when any output is wrong.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import speed
from tracer import COUNT_NAMES, LAYER_FUNCTIONS, Tracer, layer_seconds, self_seconds

STARTED = time.perf_counter()
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOAD_NAMES = ("gen", "check", "survey")
PROBE_TIMEOUT_S = 60
# cold set-ups per untraced round; a speed probe comes before and after each
SETUP_PROBES_PER_ROUND = 4
PIPELINE_SPANS = {"pipeline.run_check", "pipeline.run_survey"}
# fewest speed probes during an operation for it to be rescaled by its own
MIN_OP_PROBES = 3


def import_library():
    """Import the library from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import octacolor
    except ImportError as exc:
        raise SystemExit(f"error: cannot import octacolor from {SRC}: {exc}")
    if Path(octacolor.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"error: octacolor was imported from {octacolor.__file__}, not from {SRC}")


@dataclass
class Pass:
    times: dict[str, float] = field(default_factory=dict)
    speed: list[float] = field(default_factory=list)  # speed.probe() seconds during the pass
    op_probes: dict[str, tuple[int, int]] = field(default_factory=dict)  # op -> slice of speed
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    spans: list = field(default_factory=list)
    traced_counts: Counter = field(default_factory=Counter)

    @property
    def wall_s(self) -> float:
        return sum(self.times.values())

    def rescaled_times(self) -> dict[str, float]:
        """Operation times at the reference speed: each operation is rescaled
        by the probes taken while it ran, or, when it was too short for
        ``MIN_OP_PROBES`` of them, by all the probes of the pass."""
        pass_scale = speed.REF_S / statistics.fmean(self.speed)
        out = {}
        for op, t in self.times.items():
            first, end = self.op_probes[op]
            probes = self.speed[first:end]
            out[op] = t * (speed.REF_S / statistics.fmean(probes) if len(probes) >= MIN_OP_PROBES
                           else pass_scale)
        return out


def run_pass(workload, order, tracer=None) -> Pass:
    """Time ``order`` once.  An untraced pass probes the machine's speed
    while it runs (see ``speed.py``); a traced one probes it once, before."""
    p = Pass()
    gc.collect()  # start every operation from the same heap, whatever the order
    p.speed.append(speed.probe())
    with speed.Sampler(p.speed, active=tracer is None) as sampler:
        for op in order:
            if tracer is not None:
                tracer.op = op
            start, spent, first = time.perf_counter(), sampler.spent, len(p.speed)
            try:
                out = workload.run(op)
            except Exception as exc:  # a raised error is a failed operation, not a crash
                errors = [f"{op}: {type(exc).__name__}: {exc}"]
            else:
                errors = None
            p.times[op] = time.perf_counter() - start - (sampler.spent - spent)
            p.op_probes[op] = (first, len(p.speed))
            if errors is None:
                errors, counts = workload.verify(op, out)
                p.counts.update(counts)
            p.failed += bool(errors)
            p.errors.extend(errors)
            gc.collect()
    return p


def probe_setup(name: str) -> float:
    done = subprocess.run([sys.executable, str(BENCH / "setup_probe.py"), name], cwd=ROOT,
                          capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def rescaled(s: dict, scale: float) -> dict:
    return {k: v * scale if k != "n" else v for k, v in s.items()}


def summary(values) -> dict:
    values = list(values)
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model or platform.processor(),
            "python": platform.python_version()}


def measure(name: str, seed: int, deadline: float, trace: bool, smoke: bool) -> dict:
    """Run rounds until the next one would end after ``deadline`` (a
    ``time.perf_counter`` value), or one round when ``smoke``."""
    from workloads import WORKLOADS  # imports the library, so only after import_library

    workload = WORKLOADS[name]()
    setup_tracer = Tracer()
    if trace:
        with setup_tracer:
            workload.load()
    else:
        workload.load()
    errors = workload.prepare()

    ops = [workload.smoke_op] if smoke else workload.ops()
    setups = 1 if smoke else SETUP_PROBES_PER_ROUND
    rng = random.Random(seed)
    setup: list[tuple[float, float]] = []  # (seconds, mean probe before and after)
    plain: list[Pass] = []
    traced: list[Pass] = []
    while True:
        round_start = time.perf_counter()
        if not trace:
            before = speed.probe()
            for _ in range(setups):
                seconds = probe_setup(name)
                after = speed.probe()
                setup.append((seconds, (before + after) / 2))
                before = after
        plain.append(run_pass(workload, rng.sample(ops, len(ops))))
        if trace:
            tracer = Tracer()
            with tracer:
                p = run_pass(workload, rng.sample(ops, len(ops)), tracer)
            p.spans, p.traced_counts = tracer.spans, tracer.counts
            traced.append(p)
        now = time.perf_counter()
        if smoke or now + (now - round_start) > deadline:
            break

    passes = plain + traced
    attempted = sum(len(p.times) for p in passes)
    failed = sum(p.failed for p in passes)
    for p in passes:
        errors.extend(p.errors)
    for p in passes[1:]:
        if p.counts != passes[0].counts:
            errors.append(f"pass counts differ: {dict(p.counts)} vs {dict(passes[0].counts)}")
    for p in traced:
        for key, value in p.counts.items():
            if p.traced_counts[key] != value:
                errors.append(f"traced {key} = {p.traced_counts[key]}, outputs give {value}")

    # untraced operations are rescaled by the probes taken during them (see
    # Pass.rescaled_times), a set-up by the mean of the probes just before
    # and just after it, traced passes by the mean probe of the untraced ones
    run_scale = speed.REF_S / statistics.fmean(t for p in plain for t in p.speed)
    raw = {"wall_s": summary(p.wall_s for p in plain),
           "max_op_s": summary(max(p.times.values()) for p in plain)}
    times = [p.rescaled_times() for p in plain]
    stats = {"wall_s": (summary(sum(t.values()) for t in times), "s"),
             "max_op_s": (summary(max(t.values()) for t in times), "s")}
    if setup:  # probed in untraced runs only
        raw["setup_s"] = summary(t for t, _ in setup)
        stats["setup_s"] = (summary(t * speed.REF_S / probe for t, probe in setup), "s")
    wall = stats["wall_s"][0]
    stats["peak_rss_mb"] = (summary([resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]), "MB")
    metrics = {k: {"value": s["median"], "unit": unit} for k, (s, unit) in stats.items()}
    layers = {}
    if trace:
        setup_parse = layer_seconds(setup_tracer.spans).get("emg.parse_emg", 0.0)
        per_pass = []
        for p in traced:
            seconds_by_name = layer_seconds(p.spans)
            # no operation parses; the inputs are parsed once, at set-up
            seconds_by_name["emg.parse_emg"] = seconds_by_name.get("emg.parse_emg", 0.0) + setup_parse
            seconds_by_name["pipeline.self"] = self_seconds(p.spans, PIPELINE_SPANS)
            per_pass.append(seconds_by_name)
        for layer in [q for q in LAYER_FUNCTIONS if not q.startswith("pipeline.")] + ["pipeline.self"]:
            layers[f"{layer}_s"] = (rescaled(summary(t.get(layer, 0.0) for t in per_pass), run_scale), "s")
        traced_wall = rescaled(summary(p.wall_s for p in traced), run_scale)
        layers["trace.overhead_s"] = (summary([traced_wall["median"] - wall["median"]]), "s")
        for metric in COUNT_NAMES:
            values = {p.traced_counts[metric] for p in traced}
            if len(values) > 1:
                errors.append(f"{metric} differs between traced passes: {sorted(values)}")
            layers[metric] = (summary([min(values)]), "count")
        metrics = {k: {"value": s["median"], "unit": unit} for k, (s, unit) in layers.items()}

    return {
        "workload": name, "seed": seed, "trace": int(trace), "smoke": smoke,
        "machine": machine(), "ops_per_pass": len(ops),
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "end_to_end": {k: dict(s, unit=unit) for k, (s, unit) in stats.items()},
        "end_to_end_unscaled": raw,
        "speed_scale": run_scale,
        "setup_seconds_and_probes": setup,
        "fail_frac": failed / attempted,
        "per_layer": {k: dict(s, unit=unit) for k, (s, unit) in layers.items()},
        "op_seconds": [p.times for p in plain],
        "pass_speed_probes": [p.speed for p in plain],
        "op_probe_slices": [p.op_probes for p in plain],
        "errors": errors,
        "spans": [[list(s) for s in p.spans] for p in traced],
        "result": {"correct": failed == 0 and not errors, "attempted": attempted,
                   "failed": failed, "metrics": metrics},
    }


def print_record(rec: dict) -> None:
    res = rec["result"]
    print(f"workload {rec['workload']}  seed {rec['seed']}  trace {rec['trace']}  "
          f"passes {rec['passes']['untraced']}+{rec['passes']['traced']} traced  "
          f"ops/pass {rec['ops_per_pass']}")
    for section in ("end_to_end", "per_layer"):
        for name, s in rec[section].items():
            print(f"  {name:36s} {s['median']:14.6f} {s['unit']:5s} "
                  f"q1 {s['q1']:.6f}  q3 {s['q3']:.6f}  n={s['n']}")
    for name, s in rec["end_to_end_unscaled"].items():
        print(f"  {'unscaled ' + name:36s} {s['median']:14.6f} {'s':5s} "
              f"q1 {s['q1']:.6f}  q3 {s['q3']:.6f}  n={s['n']}")
    print(f"  {'fail_frac':36s} {rec['fail_frac']:14.6f} {'':5s} "
          f"({res['failed']} of {res['attempted']} operations failed)")
    for err in rec["errors"][:20]:
        print(f"  MISMATCH {err}")


def run_one(args) -> int:
    import_library()
    rec = measure(args.workload, args.seed, STARTED + args.seconds, bool(args.trace), args.smoke)
    rec["seconds"] = args.seconds
    OUT.mkdir(exist_ok=True)
    suffix = "_smoke" if args.smoke else ""
    path = OUT / f"BENCH_{args.workload}_trace{args.trace}_seed{args.seed}{suffix}.json"
    path.write_text(json.dumps(rec, indent=1) + "\n")
    print_record(rec)
    print(json.dumps(rec["result"]))
    return 0 if rec["result"]["correct"] else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Layered benchmark for octacolor.")
    ap.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    ap.add_argument("--seed", type=int, default=1, help="shuffles the operation order only")
    ap.add_argument("--seconds", type=float, default=None,
                    help="length of the run, set-up included (default: run_seconds in BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: report per-layer metrics from traced passes")
    ap.add_argument("--smoke", action="store_true", help="one round of one operation")
    args = ap.parse_args(argv)
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
