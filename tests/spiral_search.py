"""Reference implementation of the spiral completion: the backtracking search.

This is the search `gen_spiral` used before the completion became a closed
form.  It runs a deterministic three-stage search over one red edge per
face (stage 1), multisets of six parallel doublings (stage 2) and the face
side of each doubling (stage 3), and returns the first candidate in
canonical order that passes the full `_is_nice` validation gate.  Its cost
grows about tenfold per +2 in k, so tests run it only for small k, as the
oracle the closed form must reproduce byte for byte.
"""

from __future__ import annotations

import itertools

from octacolor.emg import EnhancedMultigraph, trace_faces
from octacolor.families import _apply_completion, _is_nice
from octacolor.pipeline import Instance


def complete_cell(cell: EnhancedMultigraph) -> EnhancedMultigraph | None:
    faces = trace_faces(cell)
    emap = cell.edge_map()
    rot_of = cell.rotation_map()
    face_list = [f for f in faces.faces]
    deficits = {vid: 6 - len(rot) for vid, rot in cell.rotations}

    face_edge_choices: list[list[int]] = []
    for f in face_list:
        seen: list[int] = []
        for eid in f.edge_ids():
            if eid not in seen:
                seen.append(eid)
        face_edge_choices.append(seen)

    incident_after: list[dict[int, int]] = [dict() for _ in range(len(face_list) + 1)]
    # incident_after[i][v]: faces with index >= i that can still place a red end at v
    counts: dict[int, int] = {}
    for i in range(len(face_list) - 1, -1, -1):
        touched = {v for eid in face_edge_choices[i] for v in emap[eid].endpoints}
        for v in touched:
            counts[v] = counts.get(v, 0) + 1
        incident_after[i] = dict(counts)

    used_r = {vid: 0 for vid in deficits}
    reds: list[int] = []

    def feasible(i: int) -> bool:
        short = 0
        for v, d in deficits.items():
            future = incident_after[i].get(v, 0) if i < len(face_list) else 0
            lower = d - used_r[v] - future
            if lower > 0:
                short += lower
        return short <= 12

    def stage2(p: dict[int, int]):
        """Multisets of 6 parallel doublings with endpoint degree vector p."""
        edge_ids = [eid for eid in sorted(emap)
                    if p[emap[eid].a] > 0 and p[emap[eid].b] > 0]

        def rec(idx: int, remaining: int, rem: dict[int, int]):
            if remaining == 0:
                if all(x == 0 for x in rem.values()):
                    yield []
                return
            if idx == len(edge_ids):
                return
            eid = edge_ids[idx]
            a, b = emap[eid].endpoints
            cap = min(rem[a], rem[b], remaining)
            for m in range(cap, -1, -1):
                rem[a] -= m
                rem[b] -= m
                for rest in rec(idx + 1, remaining - m, rem):
                    yield [eid] * m + rest
                rem[a] += m
                rem[b] += m

        yield from rec(0, 6, dict(p))

    def sides_of(eid: int) -> list[int]:
        d0 = (eid, 0)
        f_out = next(f.id for f in face_list if d0 in f.darts)
        f_in = faces.corner_owner[d0]
        return sorted({f_out, f_in})

    def stage3(doubles: list[int]):
        groups = [(eid, sum(1 for x in doubles if x == eid)) for eid in sorted(set(doubles))]
        options = [list(itertools.combinations_with_replacement(sides_of(eid), m)) for eid, m in groups]
        for combo in itertools.product(*options):
            assignment: list[tuple[int, int]] = []
            for (eid, _), side_choice in zip(groups, combo):
                assignment.extend((eid, fid) for fid in side_choice)
            yield assignment

    neighbors: dict[int, set[int]] = {vid: set() for vid, _ in cell.rotations}
    for e in cell.edges:
        neighbors[e.a].add(e.b)
        neighbors[e.b].add(e.a)

    def stage1(i: int):
        if i == len(face_list):
            p = {v: deficits[v] - used_r[v] for v in deficits}
            if any(x < 0 for x in p.values()) or sum(p.values()) != 12:
                return None
            # every doubling end needs a partner end across an existing edge
            if any(x > 0 and all(p[w] == 0 for w in neighbors[v]) for v, x in p.items()):
                return None
            for doubles in stage2(p):
                for assignment in stage3(doubles):
                    red_choice = {face_list[j].id: reds[j] for j in range(len(reds))}
                    g = _apply_completion(cell, faces, red_choice, assignment)
                    if _is_nice(Instance(g)):
                        return g
            return None
        for eid in face_edge_choices[i]:
            a, b = emap[eid].endpoints
            if used_r[a] + 1 > deficits[a] or used_r[b] + 1 > deficits[b]:
                continue
            used_r[a] += 1
            used_r[b] += 1
            reds.append(eid)
            if feasible(i + 1):
                found = stage1(i + 1)
                if found is not None:
                    return found
            reds.pop()
            used_r[a] -= 1
            used_r[b] -= 1
        return None

    return stage1(0)
