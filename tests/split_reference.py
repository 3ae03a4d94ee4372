"""Reference d-dimensional enumeration that decides every split by LFP, kept as a test oracle.

This is the face splitting `spatialvote.geometry.enumerate_rankings_dd` used
before it learned two shortcuts: faces of a box with one free coordinate are
intervals, split by bisection, and bisectors that miss the box are dropped
before any split.  Here every (face, bisector) pair costs two exact
Fourier-Motzkin calls, whatever the box.  Tests compare the package's
rankings and witnesses to it; the package never imports it.
"""

from __future__ import annotations

from typing import Sequence

from spatialvote.geometry import (
    RankingWithWitness,
    _lift,
    _restrict_to_free_dims,
    bisectors,
    box_inequalities,
)
from spatialvote.lfp import InequalitySystem, LinearInequality, feasible
from spatialvote.model import Candidate, Ranking, SpatialPoint, VoterBox, rank_from_point


def reference_split_faces(
    dimension: int,
    seed: tuple[LinearInequality, ...],
    witness: SpatialPoint,
    sides: Sequence[LinearInequality],
) -> list[tuple[tuple[LinearInequality, ...], SpatialPoint]]:
    """Faces of the arrangement of `sides` inside the seed region, with witnesses.

    Every face a side crosses is split: the closed part stays in place,
    witnessed by a point on the hyperplane, and the open part, if nonempty,
    is appended.
    """
    faces = [(seed, witness)]
    for closed in sides:
        opened = closed.negation()
        on_plane = (closed, LinearInequality(opened.coeffs, opened.constant, strict=False))
        added = []
        for idx, (ineqs, _) in enumerate(faces):
            point = feasible(InequalitySystem(dimension, ineqs + on_plane))
            if point is None:
                continue
            open_wit = feasible(InequalitySystem(dimension, ineqs + (opened,)))
            faces[idx] = (ineqs + (closed,), point)
            if open_wit is not None:
                added.append((ineqs + (opened,), open_wit))
        faces.extend(added)
    return faces


def reference_enumerate_rankings_dd(
    candidates: Sequence[Candidate], box: VoterBox
) -> list[RankingWithWitness]:
    """All distinct ranking completions of a box in d >= 2, sorted by ranking,
    each with the witness of the first face that induces it."""
    d = box.dimension
    if all(lo == hi for lo, hi in box.bounds):
        point = tuple(lo for lo, _ in box.bounds)
        return [RankingWithWitness(rank_from_point(point, candidates), point)]
    free = [i for i, (lo, hi) in enumerate(box.bounds) if lo < hi]
    fixed = {i: lo for i, (lo, hi) in enumerate(box.bounds) if lo == hi}

    def restrict(rows: Sequence[LinearInequality]) -> tuple[LinearInequality, ...]:
        restricted = (_restrict_to_free_dims(q, free, fixed) for q in rows)
        return tuple(q for q in restricted if any(q.coeffs))

    seed = restrict(box_inequalities(box))
    centre = tuple((box.bounds[i][0] + box.bounds[i][1]) / 2 for i in free)
    sides = restrict([plane.closed_side() for plane in bisectors(candidates)])
    out: list[RankingWithWitness] = []
    seen: set[Ranking] = set()
    for _, wit in reference_split_faces(len(free), seed, centre, sides):
        full = _lift(wit, free, fixed, d)
        r = rank_from_point(full, candidates)
        if r not in seen:
            seen.add(r)
            out.append(RankingWithWitness(r, full))
    out.sort(key=lambda rw: rw.ranking)
    return out
