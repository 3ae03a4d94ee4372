"""Enumerating the ranking completions of one voter's box.

In one dimension the ranking changes only at midpoints of candidate pairs,
so a sweep over those tie points suffices.  In higher dimensions the
candidate-pair bisector hyperplanes partition space into faces on which the
distance ranking is constant; the faces are built incrementally by splitting
every face a new hyperplane crosses, with feasibility (and witnesses) decided
by the exact rational LFP solver.

Boundary convention: every hyperplane's nonstrict side is the one containing
the lower-indexed candidate of its pair, so points on the hyperplane fall in
the face whose ranking matches index tie-breaking.  Two faces produced this
way never share a point.

Note on tie-point probes: a 1D tie point can carry a ranking that neither
neighbouring sub-interval has.  With candidates at 0, 4, 2, 6 (indices 0-3)
the ranking is (2, 1, 0, 3) just left of x=3, (1, 2, 0, 3) at x=3 and
(1, 2, 3, 0) just right of it.  When candidate indices follow position
order, as `PartialSpatialProfile` arranges in d=1, a tie point does repeat
the ranking to its left; `enumerate_rankings_1d` takes arbitrary candidate
sequences, so it probes every tie point inside the interval.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .errors import DimensionMismatch
from .lfp import InequalitySystem, LinearInequality, feasible
from .model import Candidate, Ranking, SpatialPoint, VoterBox, rank_from_point


@dataclass(frozen=True)
class Hyperplane:
    """The bisector of a candidate pair: points equidistant from both.

    ``coeffs . x = constant`` with coeffs = 2(x_c' - x_c) and constant
    |x_c'|^2 - |x_c|^2, where c is the lower-indexed candidate of `pair`.
    Points with ``coeffs . x < constant`` are strictly closer to c.
    """

    coeffs: tuple[Fraction, ...]
    constant: Fraction
    pair: tuple[int, int]

    def closed_side(self) -> LinearInequality:
        """The nonstrict side containing (and tying toward) the lower-indexed candidate."""
        return LinearInequality(self.coeffs, self.constant, strict=False)


@dataclass(frozen=True)
class Face:
    """A region of R^d given by linear inequalities, possibly over-specified,
    with a point that lies in it."""

    inequalities: tuple[LinearInequality, ...]
    witness: SpatialPoint


@dataclass(frozen=True)
class RankingWithWitness:
    ranking: Ranking
    witness: SpatialPoint


def tie_points_1d(
    candidates: Sequence[Candidate], interval: tuple[Fraction, Fraction]
) -> list[Fraction]:
    """All points of [lo, hi] equidistant from two or more candidates."""
    lo, hi = interval
    if lo > hi:
        raise ValueError("interval lower bound exceeds upper bound")
    points = set()
    for a, b in itertools.combinations(candidates, 2):
        if len(a.position) != 1 or len(b.position) != 1:
            raise DimensionMismatch("tie_points_1d needs 1-dimensional candidates")
        mid = (a.position[0] + b.position[0]) / 2
        if lo <= mid <= hi:
            points.add(mid)
    return sorted(points)


def enumerate_rankings_1d(
    candidates: Sequence[Candidate], interval: tuple[Fraction, Fraction]
) -> list[RankingWithWitness]:
    """One witness per distinct ranking over a 1D interval of ideal points.

    Probes every tie point and every midpoint between consecutive
    breakpoints; at most C(m,2)+1 distinct rankings come back.
    """
    lo, hi = Fraction(interval[0]), Fraction(interval[1])
    breaks = sorted({lo, hi} | set(tie_points_1d(candidates, (lo, hi))))
    probes: list[Fraction] = []
    for a, b in zip(breaks, breaks[1:]):
        probes.append(a)
        probes.append((a + b) / 2)
    probes.append(breaks[-1])
    out: list[RankingWithWitness] = []
    seen: set[Ranking] = set()
    for x in probes:
        r = rank_from_point((x,), candidates)
        if r not in seen:
            seen.add(r)
            out.append(RankingWithWitness(r, (x,)))
    return out


def bisectors(candidates: Sequence[Candidate]) -> list[Hyperplane]:
    """One bisector per unordered pair with distinct positions."""
    planes = []
    for i, j in itertools.combinations(range(len(candidates)), 2):
        pi, pj = candidates[i].position, candidates[j].position
        if pi == pj:
            continue  # permanently tied pair, ordered by index
        coeffs = tuple(2 * (b - a) for a, b in zip(pi, pj))
        constant = sum(b * b for b in pj) - sum(a * a for a in pi)
        planes.append(Hyperplane(coeffs, constant, (i, j)))
    return planes


def _split_faces(
    dimension: int,
    seed: tuple[LinearInequality, ...],
    witness: SpatialPoint,
    sides: Sequence[LinearInequality],
) -> list[tuple[tuple[LinearInequality, ...], SpatialPoint]]:
    """Faces of the arrangement of `sides` inside the seed region, with witnesses.

    Each side is a hyperplane's closed side.  Every face it crosses is split:
    the closed part stays in place, witnessed by a point on the hyperplane,
    and the open part, if nonempty, is appended.  `witness` must lie in the
    seed region; it stays the seed face's witness until a side crosses it.
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


def specify_faces(hyperplanes: Sequence[Hyperplane], dimension: int) -> list[Face]:
    """Incremental face construction over a hyperplane arrangement.

    Starts from all of R^d, witnessed by the origin, and splits every face
    crossed by each hyperplane in turn into its closed and open sides.  The
    output size is bounded by sum_{i<=d} C(|H|, i).
    """
    origin = (Fraction(0),) * dimension
    sides = [plane.closed_side() for plane in hyperplanes]
    return [Face(ineqs, wit) for ineqs, wit in _split_faces(dimension, (), origin, sides)]


def box_inequalities(box: VoterBox) -> list[LinearInequality]:
    """The 2d nonstrict inequalities describing an axis-parallel box."""
    d = box.dimension
    out = []
    for i, (lo, hi) in enumerate(box.bounds):
        unit = tuple(Fraction(int(j == i)) for j in range(d))
        out.append(LinearInequality(unit, hi, strict=False))
        out.append(LinearInequality(tuple(-u for u in unit), -lo, strict=False))
    return out


def _restrict_to_free_dims(
    q: LinearInequality, free: Sequence[int], fixed: dict[int, Fraction]
) -> LinearInequality:
    """Substitute the fixed coordinates, leaving coefficients on free dims."""
    const = q.constant - sum(q.coeffs[i] * v for i, v in fixed.items())
    return LinearInequality(tuple(q.coeffs[i] for i in free), const, q.strict)


def enumerate_rankings_dd(
    candidates: Sequence[Candidate], box: VoterBox
) -> list[RankingWithWitness]:
    """All distinct ranking completions of a d-dimensional box, with witnesses.

    Runs the `specify_faces` construction seeded with the box, so only faces
    meeting the box are ever materialized, and in the box's non-degenerate
    dimensions only.  The resulting ranking set is identical to intersecting
    the full-space faces with the box afterwards.
    """
    d = box.dimension
    if any(len(c.position) != d for c in candidates):
        raise DimensionMismatch("candidates and box disagree on dimension")
    if d == 1:
        return enumerate_rankings_1d(candidates, box.bounds[0])
    if box.is_degenerate():
        point = tuple(lo for lo, _ in box.bounds)
        return [RankingWithWitness(rank_from_point(point, candidates), point)]

    free = [i for i, (lo, hi) in enumerate(box.bounds) if lo < hi]
    fixed = {i: lo for i, (lo, hi) in enumerate(box.bounds) if lo == hi}

    def restrict(rows: Sequence[LinearInequality]) -> tuple[LinearInequality, ...]:
        # a row without free coefficients is constant over the box and splits nothing
        restricted = (_restrict_to_free_dims(q, free, fixed) for q in rows)
        return tuple(q for q in restricted if any(q.coeffs))

    seed = restrict(box_inequalities(box))
    centre = tuple((box.bounds[i][0] + box.bounds[i][1]) / 2 for i in free)
    sides = restrict([plane.closed_side() for plane in bisectors(candidates)])

    out: list[RankingWithWitness] = []
    seen: set[Ranking] = set()
    for _, wit in _split_faces(len(free), seed, centre, sides):
        full = _lift(wit, free, fixed, d)
        r = rank_from_point(full, candidates)
        if r not in seen:
            seen.add(r)
            out.append(RankingWithWitness(r, full))
    out.sort(key=lambda rw: rw.ranking)
    return out


def _lift(
    point: Sequence[Fraction], free: Sequence[int], fixed: dict[int, Fraction], d: int
) -> SpatialPoint:
    coords: list[Fraction] = [Fraction(0)] * d
    for pos, i in enumerate(free):
        coords[i] = point[pos]
    for i, v in fixed.items():
        coords[i] = v
    return tuple(coords)


@lru_cache(maxsize=65536)
def ranking_completions(
    candidates: tuple[Candidate, ...], box: VoterBox
) -> tuple[RankingWithWitness, ...]:
    """Cached per-voter enumeration; the workhorse for winners and oracle."""
    return tuple(enumerate_rankings_dd(candidates, box))
