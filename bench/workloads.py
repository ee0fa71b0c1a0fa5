"""The benchmark's three workloads and their exact correctness gates.

Each workload names its operations, loads its inputs once (``load``, the
part timed as set-up), runs one operation through the library's public
entry point (``run``, the timed part) and checks its output against
reference values recorded here (``verify``).  ``verify`` returns the list
of mismatches and the exact counts the operation produced, which a traced
pass must reproduce.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from octacolor import emg, families, geometry, labeling, pipeline, shapesys, svg
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
FIXTURES = BENCH / "fixtures"
FIXTURE_KS = range(3, 11)
# the cached function itself, for cache_clear and cache_info even while a
# tracer has rebound the module attribute
GEN_SPIRAL = families.gen_spiral


def fixture_path(k: int) -> Path:
    return FIXTURES / f"spiral-k{k}.emg"


class Workload:
    name = ""
    smoke_op = ""

    def ops(self) -> list[str]:
        raise NotImplementedError

    def load(self) -> None:
        """Parse the inputs; this is the part of set-up that is timed."""

    def prepare(self) -> list[str]:
        """Untimed checks and hooks after loading; returns mismatches."""
        return []

    def run(self, op: str):
        raise NotImplementedError

    def verify(self, op: str, out) -> tuple[list[str], dict[str, int]]:
        raise NotImplementedError


class Gen(Workload):
    """``octacolor gen --family spiral --k k``: search plus EMG rendering,
    checked byte for byte against the committed fixtures."""

    name = "gen"
    smoke_op = "spiral-k3"
    KS = range(3, 9)
    # fixture k -> bundled instance it must be isomorphic to
    BUNDLED_TWINS = {3: "spiral-6", 4: "spiral-8", 5: "spiral-10"}

    def ops(self):
        return [f"spiral-k{k}" for k in self.KS]

    def load(self):
        self.expected = {f"spiral-k{k}": fixture_path(k).read_bytes() for k in self.KS}
        self.twins = {k: (emg.parse_emg(fixture_path(k).read_text()), families.load_bundled(name))
                      for k, name in self.BUNDLED_TWINS.items()}

    def prepare(self):
        return [f"fixture spiral-k{k} is not isomorphic to bundled {self.BUNDLED_TWINS[k]}"
                for k, (g, twin) in self.twins.items() if not families.isomorphic(g, twin)]

    def run(self, op):
        # gen_spiral is lru_cached: without clearing, every repetition after
        # the first would time a dict lookup
        GEN_SPIRAL.cache_clear()
        text = emg.render_emg(families.gen_spiral(int(op.removeprefix("spiral-k"))))
        return text, GEN_SPIRAL.cache_info()

    def verify(self, op, out):
        text, info = out
        errors = []
        if text.encode() != self.expected[op]:
            errors.append(f"{op}: rendered EMG differs from the fixture")
        if info.hits != 0 or info.misses != 1:
            errors.append(f"{op}: gen_spiral cache {info}, expected one miss and no hit")
        return errors, {"families.instances": 1}


class Check(Workload):
    """``octacolor check --max-len 5`` on the bundled instances, then one
    net of the first realized point rendered as SVG (``octacolor render``)."""

    name = "check"
    smoke_op = "spiral-8"
    MAX_LEN = 5
    # lattice points, strictly positive points, triangles summed over all
    # realizations, sha256 of the rendered net of the first positive point
    REFERENCE = {
        "hexagon-pair": (666, 325, 34580,
            "84d8e9c501d02d1b08728a13c8b6c6525e80352f5ea9f73407712e71567c48be"),
        "spiral-6": (322, 110, 23612,
            "536ee1c6142c39bc65ddb930e67cb38b073c5c01526d432366eba42bc06dfd19"),
        "spiral-8": (70, 2, 218,
            "450c9d7cb0e3781fed2ba4118d466e5850082f134db54637556a0daacbe5fa53"),
        "spiral-10": (142, 8, 1076,
            "63edd7fc830e23d2395730178b5fd339c08a69c7ca43859bd8f13c44f296fbed"),
    }

    def ops(self):
        return list(self.REFERENCE)

    def load(self):
        self.instances = {name: families.load_bundled(name) for name in self.REFERENCE}

    def run(self, op):
        g = self.instances[op]
        report = pipeline.run_check(g, name=op, max_len=self.MAX_LEN)
        payload = json.dumps(report.to_json_dict(), indent=2, sort_keys=True)
        net_svg = None
        if report.realizations:
            boundaries = labeling.polygon_boundaries(g)
            labels = labeling.assign_labels(g, boundaries)
            kernel = shapesys.kernel_basis(shapesys.build_constraints(g, boundaries, labels))
            vector = [int(x) for x in report.realizations[0]["vector"]]
            charts = geometry.realize_polygons(g, boundaries, labels, dict(zip(kernel.col_edges, vector)))
            surface = geometry.develop_surface(g, boundaries, charts)
            net_svg = svg.render_net(g, surface, geometry.develop_net(surface))
        return report, payload, net_svg

    def verify(self, op, out):
        report, payload, net_svg = out
        points, positive, triangles, svg_sha = self.REFERENCE[op]
        lattice, realized = report.lattice, report.realizations
        got_triangles = sum(r.get("triangles", 0) for r in realized)
        errors = []
        if not report.ok:
            errors.append(f"{op}: ok is false")
        if (lattice.get("count"), lattice.get("strictly_positive")) != (points, positive):
            errors.append(f"{op}: {lattice.get('count')} points, {lattice.get('strictly_positive')} "
                          f"positive; expected {points}, {positive}")
        if len(realized) != positive or not realized:
            errors.append(f"{op}: {len(realized)} realizations for {positive} positive points")
        bad = [r for r in realized if "error" in r or not r.get("identity_holds")]
        if bad:
            errors.append(f"{op}: {len(bad)} realizations fail or break the form identity")
        if got_triangles != triangles:
            errors.append(f"{op}: {got_triangles} triangles, expected {triangles}")
        if report.form.get("signature") != [1, 3, 0]:
            errors.append(f"{op}: signature {report.form.get('signature')}")
        if json.loads(payload)["lattice"]["count"] != points:
            errors.append(f"{op}: serialized report disagrees with the report")
        if net_svg is None or hashlib.sha256(net_svg.encode()).hexdigest() != svg_sha:
            errors.append(f"{op}: rendered net differs from the reference SVG")
        return errors, {"cone.points": lattice.get("count", 0),
                        "cone.points_positive": lattice.get("strictly_positive", 0),
                        "cone.rays": len(report.cone.get("rays", ())),
                        "geometry.realizations": len(realized),
                        "geometry.triangles": got_triangles}


class Survey(Workload):
    """``octacolor survey`` over the spiral fixtures, one instance per
    operation, at a larger length bound and with no realization."""

    name = "survey"
    smoke_op = "spiral-k4"
    MAX_LEN = 8
    # k -> (lattice points, strictly positive points, extreme rays)
    REFERENCE = {3: (1545, 756, 7), 4: (275, 28, 6),
                 **{k: (575, 100, 6) for k in range(5, 11)}}

    def ops(self):
        return [f"spiral-k{k}" for k in FIXTURE_KS]

    def load(self):
        self.instances = {f"spiral-k{k}": emg.parse_emg(fixture_path(k).read_text())
                          for k in FIXTURE_KS}

    def run(self, op):
        # a survey row does not report its point count, so count the points
        # the survey enumerates from outside, in untraced passes too
        with Tracer(only={"cone.enumerate_lattice_points"}) as points:
            survey = pipeline.run_survey([(op, self.instances[op])], max_len=self.MAX_LEN)
        counted = (points.counts["cone.points"], points.counts["cone.points_positive"])
        return survey, json.dumps(survey, indent=2, sort_keys=True), counted

    def verify(self, op, out):
        survey, payload, counted = out
        (row,) = survey["survey"]
        points, positive, rays = self.REFERENCE[int(op.removeprefix("spiral-k"))]
        e_b = len(self.instances[op].blue_edges())
        errors = []
        expected_row = {"instance": op, "plausible": True, "rank": e_b - 4, "dimension": 4,
                        "has_positive_point": True, "n_rays": rays, "signature": [1, 3, 0],
                        "signature_as_expected": True}
        for key, want in expected_row.items():
            if row.get(key) != want:
                errors.append(f"{op}: {key} is {row.get(key)!r}, expected {want!r}")
        if counted != (points, positive):
            errors.append(f"{op}: enumerated (points, positive) {counted}, expected {(points, positive)}")
        if json.loads(payload)["survey"][0]["rank"] != row["rank"]:
            errors.append(f"{op}: serialized survey disagrees with the survey")
        return errors, {"cone.points": counted[0], "cone.points_positive": counted[1],
                        "cone.rays": row.get("n_rays") or 0}


WORKLOADS = {w.name: w for w in (Gen, Check, Survey)}
