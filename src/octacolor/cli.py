"""Command-line interface: one subcommand per pipeline stage.

Each command loads one ``pipeline.Instance`` per instance (a spiral
member is the one its validation gate derived), so it derives each stage
once.  A stage subcommand emits ``{"instance": name, **fragment}`` from
its stage's ``pipeline.*_json`` function; ``check`` and ``survey`` emit
``run_check``'s report and ``run_survey``'s rows.  ``Instance.realize``,
which ``check``, ``realize`` and ``render`` call, imports the mesh layer
and ``render`` the net and SVG layers, so no other command loads them.

Exit status, by the library's three outcomes: 2 on an input error (an
``emg.InputError``, the CLI's own parse errors included); 1 on a verdict
(an ``emg.InvariantError``, a ``check`` that realized no point or a
``realize`` or ``render`` whose form identity fails; both still write
their output) or an exceeded budget (``lattice``
still writes its report; ``check`` and ``survey`` print only the error);
any other exception, a plain ``ValueError`` included, is a bug and
escapes ``main``.  All JSON output encodes exact values as integer or
rational strings.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .cone import ENUMERATION_BUDGET, EnumerationBudgetError
from .emg import EmgError, InputError, InvariantError, parse_emg, render_emg
from .families import bundled_names, load_bundled, spiral_instance
from .pipeline import (Instance, cone_json, form_json, labeling_json,
                       lattice_points_json, lemmas_json, matrix_json,
                       realization_json, run_check, run_survey,
                       system_json, validation_json)


def _load_instance(args) -> tuple[str, Instance]:
    """The named instance; a spiral member is its gate's, rebuilt for --seed-flag."""
    given = [f"--{opt}" for opt in ("input", "family", "bundled") if getattr(args, opt, None)]
    if len(given) > 1:
        raise InputError(f"give one instance source, got {' and '.join(given)}")
    if getattr(args, "k", None) is not None and not getattr(args, "family", None):
        raise InputError("--k requires --family spiral")
    seed_flag = _seed_flag(getattr(args, "seed_flag", None))
    if getattr(args, "family", None):
        if args.k is None:
            raise InputError("--family spiral requires --k")
        inst = spiral_instance(args.k)
        return f"spiral-k{args.k}", inst if seed_flag is None else Instance(inst.g, seed_flag)
    if getattr(args, "bundled", None):  # argparse admits only bundled names
        return args.bundled, Instance(load_bundled(args.bundled), seed_flag)
    if getattr(args, "input", None):
        try:
            with open(args.input, encoding="utf-8-sig") as fh:
                g = parse_emg(fh.read())
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError(f"cannot read {args.input}: {exc}") from exc
        except EmgError as exc:
            raise InputError(f"{args.input}: {exc}") from exc
        return os.path.basename(args.input), Instance(g, seed_flag)
    raise InputError("no instance given; use --input, --family, or --bundled")


def _seed_flag(text: str | None) -> tuple[int, int] | None:
    if not text:
        return None
    try:
        v, e = text.split(":")
        return int(v), int(e)
    except ValueError as exc:
        raise InputError(f"--seed-flag must be 'vertex:edge', got {text!r}") from exc


def _emit(args, payload: str) -> None:
    """Write ``payload`` to stdout, or replace ``--out`` with it whole: a
    temporary file in the target's directory, given the mode a plain
    ``open(path, "w")`` would give, renamed over the target.  A failure
    removes the temporary file, and an OSError is an input error."""
    if not getattr(args, "out", None):
        sys.stdout.write(payload)
        return
    import tempfile  # only --out needs it; a cold start skips the import
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(args.out)), prefix=".octacolor-")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(payload)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, args.out)
        tmp = None
    except OSError as exc:
        raise InputError(f"cannot write {args.out}: {exc}") from exc
    finally:
        if tmp is not None:
            os.unlink(tmp)


def _emit_json(args, data: dict) -> None:
    _emit(args, json.dumps(data, indent=2, sort_keys=True) + "\n")


def _cmd_validate(args) -> int:
    name, inst = _load_instance(args)
    _emit_json(args, {"instance": name, **validation_json(inst.validation)})
    return 0 if inst.validation.plausible else 1


def _cmd_labels(args) -> int:
    name, inst = _load_instance(args)
    labeling = labeling_json(inst)
    _emit_json(args, {"instance": name, **labeling})
    return 0 if labeling["consistent"] else 1


def _cmd_solve(args) -> int:
    name, inst = _load_instance(args)
    _emit_json(args, {"instance": name, **system_json(inst.system),
                      "kernel_basis": matrix_json(inst.kernel.basis),
                      **lemmas_json(inst.kernel, inst.lemmas)})
    return 0 if all(c.passed for c in inst.lemmas) else 1


def _cmd_rays(args) -> int:
    name, inst = _load_instance(args)
    _emit_json(args, {"instance": name, **cone_json(inst.cone),
                      "inequalities": matrix_json(inst.cone.inequalities)})
    return 0


def _cmd_lattice(args) -> int:
    name, inst = _load_instance(args)
    try:
        points = inst.lattice_points(args.max_len, args.budget)
    except EnumerationBudgetError as exc:
        _emit_json(args, {"instance": name, "error": str(exc), "budget": exc.budget})
        return 1
    _emit_json(args, {"instance": name, **lattice_points_json(points, args.max_len),
                      "columns": list(inst.lattice.col_edges),
                      "lattice_basis": matrix_json(inst.lattice.vectors)})
    return 0


def _select_point(args, inst: Instance) -> tuple[int, ...]:
    """The point ``--point`` names: a comma vector of edge lengths, or an
    index into the strictly positive lattice points within ``--max-len``."""
    text = args.point or "0"
    try:
        vec = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise InputError(f"--point must be an index or a comma vector, got {text!r}") from None
    if "," in text:  # Instance.coefficients decides whether it is a point
        return vec
    (idx,) = vec
    points = [p for p in inst.lattice_points(args.max_len, args.budget) if p.strictly_positive]
    if not points:
        raise InputError(f"no strictly positive lattice point with lengths <= {args.max_len}")
    if not 0 <= idx < len(points):
        raise InputError(f"--point index {idx} out of range (have {len(points)})")
    return points[idx].vector


def _cmd_realize(args) -> int:
    name, inst = _load_instance(args)
    vec = _select_point(args, inst)
    r = inst.realize(vec)
    _emit_json(args, {"instance": name, **realization_json(vec, r.surface, r.mesh)})
    return 0 if r.identity.holds else 1


def _cmd_qform(args) -> int:
    name, inst = _load_instance(args)
    _emit_json(args, {"instance": name, **form_json(inst.form)})
    return 0


def _cmd_check(args) -> int:
    name, inst = _load_instance(args)
    report = run_check(inst, name=name, max_len=args.max_len, budget=args.budget)
    _emit_json(args, report.to_json_dict())
    return 0 if report.ok else 1


def _cmd_gen(args) -> int:
    _emit(args, render_emg(spiral_instance(args.k).g))
    return 0


def _parse_k_range(text: str) -> list[int]:
    try:
        if ".." in text:
            lo, hi = text.split("..")
            ks = list(range(int(lo), int(hi) + 1))
        else:
            ks = [int(text)]
    except ValueError as exc:
        raise InputError(f"bad k range {text!r}; use A..B") from exc
    if not ks:
        raise InputError(f"empty k range {text!r}; use A..B with A <= B")
    return ks


def _cmd_survey(args) -> int:
    # each k is gated only when its row is due
    instances = ((f"spiral-k{k}", spiral_instance(k)) for k in _parse_k_range(args.k_range))
    _emit_json(args, run_survey(instances, max_len=args.max_len, budget=args.budget))
    return 0


def _cmd_render(args) -> int:
    from . import svg
    from .net import develop_net
    name, inst = _load_instance(args)
    r = inst.realize(_select_point(args, inst))
    _emit(args, svg.render_net(inst.g, r.surface, develop_net(r.surface),
                               triangles=args.triangles, vertex_colors=args.vertex_colors,
                               overlay_dual=args.overlay_dual, mesh=r.mesh))
    return 0 if r.identity.holds else 1


def _add_instance_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", help="path to an EMG file")
    p.add_argument("--family", choices=["spiral"], help="generate a family member instead")
    p.add_argument("--k", type=int, help="family parameter")
    p.add_argument("--bundled", choices=bundled_names(), help="load a bundled instance")


def _add_common_out(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="write output to this file (atomic)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="octacolor",
        description="Exact toolkit for nice colorings of flat cone octahedra.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_, point=False, lattice=False):
        p = sub.add_parser(name, help=help_)
        _add_instance_args(p)
        _add_common_out(p)
        if lattice or point:
            p.add_argument("--max-len", type=int, default=3, help="edge length bound")
            p.add_argument("--budget", type=int, default=ENUMERATION_BUDGET,
                           help="candidate budget for lattice enumeration")
        if point:
            p.add_argument("--point", help="index into the positive lattice points, or a comma vector")
        p.set_defaults(fn=fn)
        return p

    add("validate", _cmd_validate, "check the plausibility axioms")
    p_labels = add("labels", _cmd_labels, "assign direction exponents to blue edges")
    p_labels.add_argument("--seed-flag", help="vertex:edge pair anchoring exponent 0")
    add("solve", _cmd_solve, "closure system, rank, and exact kernel basis")
    add("rays", _cmd_rays, "extreme rays of the cone of positive solutions")
    add("lattice", _cmd_lattice, "enumerate integer points with bounded lengths", lattice=True)
    add("realize", _cmd_realize, "realize a lattice point as a triangulated sphere", point=True)
    add("qform", _cmd_qform, "global and restricted quadratic form with signature")
    add("check", _cmd_check, "full pipeline with every invariant verdict", lattice=True)

    p_gen = sub.add_parser("gen", help="generate a family member as an EMG file")
    p_gen.add_argument("--family", choices=["spiral"], required=True)
    p_gen.add_argument("--k", type=int, required=True)
    _add_common_out(p_gen)
    p_gen.set_defaults(fn=_cmd_gen)

    p_survey = sub.add_parser("survey", help="run the pipeline over a family range")
    p_survey.add_argument("--family", choices=["spiral"], required=True)
    p_survey.add_argument("--k-range", required=True, help="A..B inclusive")
    p_survey.add_argument("--max-len", type=int, default=0)
    p_survey.add_argument("--budget", type=int, default=ENUMERATION_BUDGET)
    _add_common_out(p_survey)
    p_survey.set_defaults(fn=_cmd_survey)

    p_render = add("render", _cmd_render, "emit an SVG of the net", point=True)
    p_render.add_argument("--triangles", action="store_true", help="draw the unit triangle grid")
    p_render.add_argument("--vertex-colors", action="store_true", help="draw 4-coloring dots")
    p_render.add_argument("--overlay-dual", action="store_true", help="overlay the red/blue multigraph")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "max_len", 0) < 0:
            raise InputError(f"--max-len must be >= 0, got {args.max_len}")
        if getattr(args, "budget", 0) < 0:
            raise InputError(f"--budget must be >= 0, got {args.budget}")
        return args.fn(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EnumerationBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvariantError as exc:
        print(f"invariant failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
