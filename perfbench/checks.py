"""Output checks written against the instance documents alone.

Everything here uses exact `Fraction` arithmetic and none of the package's
code, so a defect in the package cannot hide in its own checker.  Each
check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb


def candidates_in_package_order(doc: dict) -> list[tuple[str, tuple[Fraction, ...]]]:
    """(id, position) pairs in the index order that breaks distance ties:
    sorted by position in one dimension, as given otherwise."""
    cands = [(c["id"], tuple(Fraction(x) for x in c["position"])) for c in doc["candidates"]]
    if doc["dimension"] == 1:
        cands.sort(key=lambda c: c[1])
    return cands


def ranking_at(point, cands) -> tuple[str, ...]:
    """Candidate ids by squared distance from `point`, ties by index."""
    keyed = sorted(
        (sum((a - b) * (a - b) for a, b in zip(point, pos)), i) for i, (_, pos) in enumerate(cands)
    )
    return tuple(cands[i][0] for _, i in keyed)


def rankings_1d(cands, lo: Fraction, hi: Fraction) -> set[tuple[str, ...]]:
    """Every ranking over [lo, hi]: the ranking can change only at a
    midpoint of two candidates, so probing those midpoints and one point
    strictly between each consecutive pair of breakpoints finds them all."""
    mids = {(a[1][0] + b[1][0]) / 2 for a, b in itertools.combinations(cands, 2)}
    breaks = sorted({lo, hi} | {x for x in mids if lo <= x <= hi})
    probes = breaks + [(a + b) / 2 for a, b in zip(breaks, breaks[1:])]
    return {ranking_at((x,), cands) for x in probes}


def voter_bounds(doc: dict) -> dict[str, list[tuple[Fraction, Fraction]]]:
    return {v["id"]: [(Fraction(lo), Fraction(hi)) for lo, hi in v["bounds"]] for v in doc["voters"]}


def completion_count(doc: dict) -> int:
    """Size of the completion space of a one-dimensional profile."""
    cands = candidates_in_package_order(doc)
    total = 1
    for bounds in voter_bounds(doc).values():
        total *= len(rankings_1d(cands, *bounds[0]))
    return total


def check_rankings(doc: dict, payload: dict) -> list[str]:
    """Witnesses lie in their boxes and induce the ranking reported with
    them, no voter repeats a ranking, and in 1D no ranking is missing."""
    problems = []
    cands = candidates_in_package_order(doc)
    boxes = voter_bounds(doc)
    got = payload.get("rankings", {})
    if set(got) != set(boxes):
        return ["rankings: voter ids differ from the instance"]
    for vid, entries in got.items():
        seen = set()
        for entry in entries:
            point = tuple(Fraction(x) for x in entry["witness"])
            ranking = tuple(entry["ranking"])
            if len(point) != len(boxes[vid]) or not all(
                lo <= x <= hi for x, (lo, hi) in zip(point, boxes[vid])
            ):
                problems.append(f"rankings: {vid} witness {entry['witness']} outside its box")
            elif ranking_at(point, cands) != ranking:
                problems.append(f"rankings: {vid} witness does not induce {ranking}")
            if ranking in seen:
                problems.append(f"rankings: {vid} lists {ranking} twice")
            seen.add(ranking)
        if doc["dimension"] == 1 and seen != rankings_1d(cands, *boxes[vid][0]):
            problems.append(f"rankings: {vid} ranking set is incomplete")
    return problems


def check_winners(doc: dict, payload: dict, possible: bool) -> list[str]:
    """A winner set is a sorted list of candidate ids; possible winners are never empty."""
    ids = {c["id"] for c in doc["candidates"]}
    winners = payload.get("winners")
    if not isinstance(winners, list) or winners != sorted(set(winners)) or not set(winners) <= ids:
        return [f"winners: malformed set {winners!r}"]
    if possible and not winners:
        return ["winners: empty possible-winner set"]
    return []


def check_faces(doc: dict, payload: dict) -> list[str]:
    """The hyperplane count is the number of candidate pairs at distinct
    points, and the face count lies within sum_{i<=d} C(H, i)."""
    positions = [tuple(Fraction(x) for x in c["position"]) for c in doc["candidates"]]
    planes = sum(1 for a, b in itertools.combinations(positions, 2) if a != b)
    limit = sum(comb(planes, i) for i in range(doc["dimension"] + 1))
    if payload.get("num_hyperplanes") != planes:
        return [f"faces: {payload.get('num_hyperplanes')} hyperplanes, expected {planes}"]
    if not 1 <= payload.get("num_faces", 0) <= limit:
        return [f"faces: {payload.get('num_faces')} faces outside [1, {limit}]"]
    return []


def check_reduction(sched: dict, k: int, payload: dict) -> list[str]:
    """Each job becomes a voter whose x-interval runs between the centres of
    its first and last feasible window, on the line (length k) or at the
    target's height (length k-1); the target is the rule's sole target."""
    if payload.get("rule") != f"approval:{k}" or payload.get("target_candidate") != "cstar":
        return ["reduce-sched: wrong rule or target"]
    boxes = voter_bounds(payload)
    for job in sched["jobs"]:
        a, d, p = job["arrival"], job["deadline"], job["processing"]
        box = boxes.get(f"v_{job['id']}")
        if box is None or box[0] != (Fraction(2 * a + p, 2), Fraction(2 * d - p, 2)):
            return [f"reduce-sched: job {job['id']} maps to box {box}"]
        if (box[1][0] == 0) != (p == k):
            return [f"reduce-sched: job {job['id']} sits at the wrong height"]
    return []
