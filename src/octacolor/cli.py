"""Command-line interface: one subcommand per pipeline stage.

A stage subcommand loads a ``pipeline.Instance``, reads the one stage it
reports (stages are computed lazily) and emits ``{"instance": name,
**fragment}`` from that stage's ``pipeline.*_json`` function; ``check``
emits ``pipeline.run_check``'s report, built from the same fragments.

Exit status: 0 on success; 1 on an invariant failure, on a ``check`` that
realized no point and on an exceeded budget (``lattice`` still writes its
report; ``check`` and ``survey`` print only the error); 2 on input errors,
malformed option values included.  All JSON output encodes exact values
as integer or rational strings.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import linalg, svg
from .cone import EnumerationBudgetError
from .emg import EmgError, parse_emg, render_emg
from .families import (ConstructionError, bundled_names, gen_spiral,
                       load_bundled)
from .geometry import (AngleError, ClosureError, ColorError, GluingError,
                       MeshError, build_triangulation, develop_net, four_color)
from .labeling import BoundaryError, HolonomyError
from .pipeline import (Instance, cone_json, form_json, labeling_json,
                       lattice_points_json, lemmas_json, matrix_json,
                       realization_json, run_check, run_survey,
                       validation_json)


class InputError(Exception):
    pass


def _load_graph(args) -> tuple[str, object]:
    if getattr(args, "family", None):
        if args.k is None:
            raise InputError("--family spiral requires --k")
        return f"spiral-k{args.k}", _generate(args.k)
    if getattr(args, "bundled", None):
        try:
            return args.bundled, load_bundled(args.bundled)
        except KeyError as exc:
            raise InputError(str(exc)) from exc
    if getattr(args, "input", None):
        try:
            with open(args.input, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError(f"cannot read {args.input}: {exc}") from exc
        try:
            return os.path.basename(args.input), parse_emg(text)
        except EmgError as exc:
            raise InputError(f"{args.input}: {exc}") from exc
    raise InputError("no instance given; use --input, --family, or --bundled")


def _generate(k: int):
    """The spiral member for ``k``, the only family ``--family`` admits."""
    try:
        return gen_spiral(k)
    except (ConstructionError, ValueError) as exc:
        raise InputError(str(exc)) from exc


def _load_instance(args) -> tuple[str, Instance]:
    name, g = _load_graph(args)
    return name, Instance(g, _seed_flag(getattr(args, "seed_flag", None)))


def _seed_flag(text: str | None) -> tuple[int, int] | None:
    if not text:
        return None
    try:
        v, e = text.split(":")
        return int(v), int(e)
    except ValueError as exc:
        raise InputError(f"--seed-flag must be 'vertex:edge', got {text!r}") from exc


def _emit(args, payload: str) -> None:
    if getattr(args, "out", None):
        import tempfile  # only --out needs it; a cold start skips the import
        directory = os.path.dirname(os.path.abspath(args.out)) or "."
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".octacolor-")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(payload)
        os.replace(tmp, args.out)
    else:
        sys.stdout.write(payload)


def _emit_json(args, data: dict) -> None:
    _emit(args, json.dumps(data, indent=2, sort_keys=True) + "\n")


def _cmd_validate(args) -> int:
    name, inst = _load_instance(args)
    _emit_json(args, {"instance": name, **validation_json(inst.validation)})
    return 0 if inst.validation.plausible else 1


def _cmd_labels(args) -> int:
    name, inst = _load_instance(args)
    inst.boundaries  # a BoundaryError is an invariant failure, not bad input
    try:
        labeling = labeling_json(inst)
    except ValueError as exc:  # a seed flag that is not an incident pair
        raise InputError(str(exc)) from exc
    _emit_json(args, {"instance": name, **labeling})
    return 0 if labeling["consistent"] else 1


def _cmd_solve(args) -> int:
    name, inst = _load_instance(args)
    _emit_json(args, {"instance": name,
                      "matrix": matrix_json(inst.system.matrix),
                      "columns": list(inst.system.col_edges),
                      "kernel_basis": matrix_json(inst.kernel.basis),
                      **lemmas_json(inst.kernel, inst.lemmas)})
    return 0 if inst.lemmas.all_passed else 1


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
                      "columns": list(inst.kernel.col_edges),
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
    if "," in text:
        if len(vec) != len(inst.kernel.col_edges):
            raise InputError(f"--point vector needs {len(inst.kernel.col_edges)} entries")
        if min(vec) < 1:
            raise InputError("--point vector must be strictly positive")
        if any(linalg.mat_vec(inst.system.matrix, vec)):
            raise InputError("--point vector does not solve the closure system")
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
    surface = inst.develop(vec)
    tri = four_color(build_triangulation(surface))
    _emit_json(args, {"instance": name, **realization_json(vec, surface, tri)})
    return 0


def _cmd_qform(args) -> int:
    name, inst = _load_instance(args)
    _emit_json(args, {"instance": name, **form_json(inst.form)})
    return 0


def _cmd_check(args) -> int:
    name, g = _load_graph(args)
    report = run_check(g, name=name, max_len=args.max_len, budget=args.budget)
    _emit_json(args, report.to_json_dict())
    return 0 if report.ok else 1


def _cmd_gen(args) -> int:
    _emit(args, render_emg(_generate(args.k)))
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
    instances = []
    for k in _parse_k_range(args.k_range):
        try:
            instances.append((f"spiral-k{k}", _generate(k)))
        except InputError as exc:
            raise InputError(f"k={k}: {exc}") from exc
    _emit_json(args, run_survey(instances, max_len=args.max_len, budget=args.budget))
    return 0


def _cmd_render(args) -> int:
    name, inst = _load_instance(args)
    surface = inst.develop(_select_point(args, inst))
    _emit(args, svg.render_net(inst.g, surface, develop_net(surface),
                               triangles=args.triangles,
                               vertex_colors=args.vertex_colors,
                               overlay_dual=args.overlay_dual))
    return 0


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
            p.add_argument("--budget", type=int, default=10 ** 6,
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
    p_survey.add_argument("--budget", type=int, default=10 ** 6)
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
    except (InputError, EmgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EnumerationBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (HolonomyError, BoundaryError, ClosureError, GluingError,
            AngleError, MeshError, ColorError) as exc:
        print(f"invariant failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
