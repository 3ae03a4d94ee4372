"""Enumerating the ranking completions of one voter's box.

In one dimension the ranking changes only at midpoints of candidate pairs:
the line cut at those tie points is Coombs' unfolding (C. Coombs, *A Theory
of Data*, 1964).  `_line_arrangement` builds it once per candidate tuple,
with the ranking on every open cell and at every tie point, in order along
the line.  An interval covers one contiguous run of those elements, found
by two bisections (`arrangement_run_1d`), and every voter's sweep over the
same candidates looks its probes up there instead of sorting distances.

In higher dimensions one pair table, `_precedence_rows`, holds every
candidate pair's bisector row.  The bisectors partition space into faces on
which the distance ranking is constant; the faces are built incrementally by
splitting every face a new hyperplane crosses, with feasibility (and
witnesses) decided by the exact rational LFP solver.  Inside a voter's box
two kinds of split need no LFP: a bisector that misses the box splits
nothing and is dropped, and with one free coordinate the faces are
intervals, so one bisection finds the single face a bisector cuts
(`_split_intervals`).  `place_sets` reads the same table to find which
candidates a box can rank first or last from the Voronoi cells alone,
without building the arrangement.

Boundary convention: every hyperplane's nonstrict side, the table's row
rows[i][j] with i < j, is the one containing the lower-indexed candidate of
its pair, so points on the hyperplane fall in the face whose ranking matches
index tie-breaking.  Two faces produced this way never share a point.

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
import math
from bisect import bisect_left, bisect_right
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .errors import DimensionMismatch
from .lfp import InequalitySystem, LinearInequality, feasible
from .model import Candidate, Ranking, SpatialPoint, VoterBox, rank_from_point


class Hyperplane(namedtuple("Hyperplane", "coeffs constant pair")):
    """The bisector of a candidate pair: points equidistant from both.

    ``coeffs . x = constant`` with coeffs = 2(x_c' - x_c) and constant
    |x_c'|^2 - |x_c|^2, where c is the lower-indexed candidate of `pair`.
    Points with ``coeffs . x < constant`` are strictly closer to c.
    """

    __slots__ = ()

    def closed_side(self) -> LinearInequality:
        """The nonstrict side containing (and tying toward) the lower-indexed candidate."""
        return LinearInequality(self.coeffs, self.constant, strict=False)


class Face(namedtuple("Face", "inequalities witness")):
    """A region of R^d given by `inequalities`, a tuple of `LinearInequality`
    that may be over-specified, with a point `witness` that lies in it."""

    __slots__ = ()


#: A `ranking` with a `witness` point that induces it.
RankingWithWitness = namedtuple("RankingWithWitness", "ranking witness")


#: A stand-in for a `Candidate` with an integer position, which
#: `rank_from_point` reads like the candidate itself.
_Scaled = namedtuple("_Scaled", "position")


@lru_cache(maxsize=1024)
def _line_arrangement(candidates: tuple[Candidate, ...]) -> tuple[tuple[Fraction, ...], tuple[Ranking, ...]]:
    """The 1D rankings of a candidate tuple, shared by every voter.

    Returns the sorted distinct pair midpoints `mids` and the rankings of
    the 2*len(mids)+1 elements of the line in order: element 2j is open cell
    j, the open interval just left of mids[j] (the last cell is the ray
    right of the last midpoint), and element 2j+1 is the tie point mids[j].
    Each pair's distance order flips only at its midpoint, so the ranking
    is constant on every open cell; this takes at most 2*C(m,2)+1 distance
    sorts.  `_element_1d` finds the element holding a point, and an interval
    covers the run of elements between those holding its ends.

    The sorts run on integers: positions and probes are scaled by 4L, L the
    common denominator of the positions, which makes every midpoint and
    every midpoint of consecutive midpoints whole.  A positive scale keeps
    every distance order and tie, so the rankings are those of the
    unscaled probes.
    """
    if any(len(c.position) != 1 for c in candidates):
        raise DimensionMismatch("the line arrangement needs 1-dimensional candidates")
    positions = [c.position[0] for c in candidates]
    scale = 4 * math.lcm(*(x.denominator for x in positions))
    scaled = [_Scaled((int(x * scale),)) for x in positions]
    ends = sorted({(a.position[0] + b.position[0]) // 2 for a, b in itertools.combinations(scaled, 2)})
    inside = [(a + b) // 2 for a, b in zip(ends, ends[1:])]
    cell_points = [ends[0] - scale, *inside, ends[-1] + scale] if ends else [0]
    probes = [x for pair in zip(cell_points, ends) for x in pair] + [cell_points[-1]]
    mids = tuple(Fraction(x, scale) for x in ends)
    return mids, tuple(rank_from_point((x,), scaled) for x in probes)


def _element_1d(mids: Sequence[Fraction], x: Fraction) -> int:
    """The index of the `_line_arrangement` element holding x: with
    j = bisect_left(mids, x), the tie point 2j+1 when mids[j] == x and the
    open cell 2j otherwise."""
    j = bisect_left(mids, x)
    return 2 * j + (j < len(mids) and mids[j] == x)


def _run_1d(
    candidates: Sequence[Candidate], interval: tuple[Fraction, Fraction]
) -> tuple[tuple[Fraction, ...], tuple[Ranking, ...], int, int]:
    """The candidates' arrangement and the first and last elements that
    the interval [lo, hi] covers."""
    lo, hi = interval
    if lo > hi:
        raise ValueError("interval lower bound exceeds upper bound")
    mids, rankings = _line_arrangement(tuple(candidates))
    return mids, rankings, _element_1d(mids, lo), _element_1d(mids, hi)


def arrangement_run_1d(
    candidates: Sequence[Candidate], interval: tuple[Fraction, Fraction]
) -> tuple[Ranking, ...]:
    """The rankings of the run of arrangement elements that [lo, hi]
    covers, in order along the line; a ranking can repeat.

    Every ranking of a point in the interval is here and nothing else, so
    the run's ranking set is the box's completion set, found with two
    bisections and one slice, without witnesses.
    """
    _, rankings, first, last = _run_1d(candidates, interval)
    return rankings[first : last + 1]


def enumerate_rankings_1d(
    candidates: Sequence[Candidate], interval: tuple[Fraction, Fraction]
) -> list[RankingWithWitness]:
    """One witness per distinct ranking over a 1D interval of ideal points.

    Probes every breakpoint and every midpoint between consecutive
    breakpoints, in order, and keeps the first witness of each ranking; at
    most C(m,2)+1 distinct rankings come back.  The breakpoints are lo, hi
    and the tie points of the interval's run (`_run_1d`), and a probe's
    ranking is that of its element (`_element_1d`) in the same shared
    `_line_arrangement`, so the ranking set is that of `arrangement_run_1d`;
    the probes are there for the witnesses.
    """
    lo, hi = Fraction(interval[0]), Fraction(interval[1])
    mids, rankings, first, last = _run_1d(candidates, (lo, hi))
    breaks = sorted({lo, hi, *mids[first // 2 : (last + 1) // 2]})
    probes: list[Fraction] = []
    for a, b in zip(breaks, breaks[1:]):
        probes.append(a)
        probes.append((a + b) / 2)
    probes.append(breaks[-1])
    out: list[RankingWithWitness] = []
    seen: set[Ranking] = set()
    for x in probes:
        r = rankings[_element_1d(mids, x)]
        if r not in seen:
            seen.add(r)
            out.append(RankingWithWitness(r, (x,)))
    return out


def bisectors(candidates: Sequence[Candidate]) -> list[Hyperplane]:
    """One bisector per unordered pair i < j with distinct positions, read
    from the pair table: its closed side is `_precedence_rows`' rows[i][j].
    A coincident pair's row is all zero; index tie-breaking orders it."""
    rows = _precedence_rows(tuple(candidates))
    return [
        Hyperplane(rows[i][j].coeffs, rows[i][j].constant, (i, j))
        for i, j in itertools.combinations(range(len(candidates)), 2)
        if any(rows[i][j].coeffs)
    ]


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


def _split_intervals(lo: Fraction, hi: Fraction, sides: Sequence[LinearInequality]) -> list[Fraction]:
    """`_split_faces` on the segment [lo, hi] of one free coordinate: the face
    witnesses, in the same order and with the same values, without the LFP.

    Every face is an interval and the faces partition the segment, so the
    one face holding a side's cut theta = b/a is the last, along the
    segment, whose left end lies at or before theta; bisection over the left
    ends finds it.  Its closed part keeps its place with witness theta, and
    its open part, if nonempty, is appended with its midpoint as witness,
    which is what Fourier-Motzkin back-substitution returns for these
    systems.  Every side's cut must lie in [lo, hi].
    """
    rights = [hi]  # per face, its right end
    witnesses = [(lo + hi) / 2]
    # left ends sorted along the segment, an open end after a closed one at
    # the same value, and the face each belongs to
    keys: list[tuple[Fraction, bool]] = [(lo, False)]
    order = [0]
    for side in sides:
        a = side.coeffs[0]
        theta = side.constant / a
        pos = bisect_right(keys, (theta, False)) - 1
        f = order[pos]
        witnesses[f] = theta
        if a > 0:  # closed part x <= theta keeps the left end
            right, rights[f] = rights[f], theta
            if theta < right:
                keys.insert(pos + 1, (theta, True))
                order.insert(pos + 1, len(rights))
                rights.append(right)
                witnesses.append((theta + right) / 2)
        else:  # closed part x >= theta; the open part keeps the left end
            left = keys[pos][0]
            if left < theta:
                order[pos] = len(rights)
                keys.insert(pos + 1, (theta, False))
                order.insert(pos + 1, f)
                rights.append(theta)
                witnesses.append((left + theta) / 2)
    return witnesses


def enumerate_rankings_dd(
    candidates: Sequence[Candidate], box: VoterBox
) -> list[RankingWithWitness]:
    """All distinct ranking completions of a d-dimensional box, with witnesses.

    Runs the `specify_faces` construction seeded with the box, so only faces
    meeting the box are ever materialized, and in the box's non-degenerate
    dimensions only.  The resulting ranking set is identical to intersecting
    the full-space faces with the box afterwards.  The bisectors' sides are
    the upper triangle rows[i][j], i < j, of the pair table
    `_precedence_rows`, in `itertools.combinations` order.  A coincident
    pair's all-zero row, and every side that misses the box, are dropped
    first, since they split no face, and a box with one free coordinate is
    split as intervals by `_split_intervals`, without the LFP; neither
    changes a face, a witness or their order.  A point box keeps no row, so
    its one face is lifted back to the point, again without the LFP.
    """
    d = box.dimension
    if any(len(c.position) != d for c in candidates):
        raise DimensionMismatch("candidates and box disagree on dimension")
    if d == 1:
        return enumerate_rankings_1d(candidates, box.bounds[0])

    free = [i for i, (lo, hi) in enumerate(box.bounds) if lo < hi]
    fixed = {i: lo for i, (lo, hi) in enumerate(box.bounds) if lo == hi}
    free_bounds = [box.bounds[i] for i in free]

    def restrict(rows: Sequence[LinearInequality]) -> tuple[LinearInequality, ...]:
        # a row without free coefficients is constant over the box and splits
        # nothing (every row of a point box), so it is dropped unsubstituted;
        # neither does a hyperplane that misses the box: over the box a.x
        # ranges between the sums of min and of max a_i*lo_i, a_i*hi_i
        out = []
        for q in rows:
            if any(q.coeffs[i] for i in free):
                q = _restrict_to_free_dims(q, free, fixed)
                spans = [(a * lo, a * hi) for a, (lo, hi) in zip(q.coeffs, free_bounds)]
                if sum(map(min, spans)) <= q.constant <= sum(map(max, spans)):
                    out.append(q)
        return tuple(out)

    rows = _precedence_rows(tuple(candidates))
    sides = restrict([rows[i][j] for i, j in itertools.combinations(range(len(candidates)), 2)])
    if len(free) == 1:
        ((lo, hi),) = free_bounds
        witnesses = [(x,) for x in _split_intervals(lo, hi, sides)]
    else:
        centre = tuple((lo + hi) / 2 for lo, hi in free_bounds)
        seed = restrict(box_inequalities(box))
        witnesses = [wit for _, wit in _split_faces(len(free), seed, centre, sides)]

    out: list[RankingWithWitness] = []
    seen: set[Ranking] = set()
    for wit in witnesses:
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


@lru_cache(maxsize=1024)
def _precedence_rows(candidates: tuple[Candidate, ...]) -> tuple[tuple[LinearInequality, ...], ...]:
    """The pair table: rows[a][b] holds exactly where candidate a is ranked
    before candidate b, 2(b - a).x <= |b|^2 - |a|^2, strict when b < a (index
    tie-breaking).  The only place a bisector row is computed: its upper
    triangle gives face splitting's sides and `bisectors`, and `place_sets`
    reads whole rows.  A coincident pair's row is all zero.

    Built once per candidate tuple.  Every `place_sets` box passes the rows
    themselves to the LFP, so those boxes share each row's `integer_row`;
    `enumerate_rankings_dd` substitutes a box's fixed coordinates into new
    rows (`restrict`), whose integer forms are computed per box.  rows[b][a]
    is the complement of rows[a][b], so the lower triangle is the upper one
    negated.
    """
    positions = [c.position for c in candidates]
    norms = [sum(x * x for x in p) for p in positions]
    rows = [[None] * len(positions) for _ in positions]
    for a, b in itertools.combinations_with_replacement(range(len(positions)), 2):
        coeffs = tuple(2 * (y - x) for x, y in zip(positions[a], positions[b]))
        rows[a][b] = LinearInequality(coeffs, norms[b] - norms[a], strict=False)
        rows[b][a] = rows[a][b].negation() if a < b else rows[a][b]
    return tuple(map(tuple, rows))


@lru_cache(maxsize=65536)
def place_sets(
    candidates: tuple[Candidate, ...], bounds: tuple[tuple[Fraction, Fraction], ...], last: bool
) -> frozenset[int]:
    """The candidates some point of the box ranks first (`last` false) or last.

    These are the candidates whose nearest-point (farthest-point) Voronoi
    cell meets the box (Aurenhammer, ACM Comput. Surv. 23(3), 1991), with
    ties broken by index: c is first at x iff, for every rival r,
    2(r - c).x < |r|^2 - |c|^2 when r < c and <= when r > c; c is last iff
    2(c - r).x <= |c|^2 - |r|^2 when r < c and < when r > c.  So each set
    costs m LFP calls on the 2d box rows plus m - 1 rival rows, whatever the
    size of the box's bisector arrangement.  A coincident rival's row is
    constant, strict or not, and `feasible` settles it.  Cached on the box's
    bounds like `ranking_completions`.
    """
    d = len(bounds)
    if any(len(c.position) != d for c in candidates):
        raise DimensionMismatch("candidates and box disagree on dimension")
    before = _precedence_rows(candidates)
    box = tuple(box_inequalities(VoterBox("", bounds)))
    m = len(candidates)
    out = set()
    for c in range(m):
        rivals = tuple(before[r][c] if last else before[c][r] for r in range(m) if r != c)
        if feasible(InequalitySystem(d, box + rivals)) is not None:
            out.add(c)
    return frozenset(out)


@lru_cache(maxsize=65536)
def ranking_completions(
    candidates: tuple[Candidate, ...], bounds: tuple[tuple[Fraction, Fraction], ...]
) -> tuple[RankingWithWitness, ...]:
    """Cached per-box enumeration, with witnesses.

    Read by the `rankings` command, the oracle, the reduction's check, the
    1D plurality and veto flows and the d >= 2 NW types; the other 1D
    routes read `arrangement_run_1d` instead.  Keyed on a box's bounds
    rather than on a voter, so voters with equal boxes share one entry.
    """
    return tuple(enumerate_rankings_dd(candidates, VoterBox("", bounds)))
