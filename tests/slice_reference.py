"""Reference ranking sets for boxes in any dimension by slice probes, kept as a test oracle.

The distance ranking, ties broken by index, is constant on every relatively
open face of the arrangement that the candidate-pair bisectors and the box's
facets cut inside the box.  Every such face's closure is a polytope whose
vertices are vertices of that arrangement, so its projection onto x_0 is
either one vertex's x_0 or an open interval between two of them.  Probing
the x_0 of every vertex and the midpoint between each consecutive two
therefore meets every face, and each slice x_0 = t meets a face in a face of
the slice's own arrangement, one dimension lower: recurse into it, as in
vertical decomposition (de Berg et al., *Computational Geometry*, ch. 6).
With every coordinate fixed, `rank_from_point` gives the face's ranking.

Vertices come from solving every set of k hyperplanes in the k free
coordinates by exact Gaussian elimination, keeping the unique solutions that
lie in the box.  There is no LFP and no face splitting here, and the
bisectors are derived from the candidates' positions directly, so nothing
is shared with `spatialvote.geometry` but `rank_from_point`.  Tests compare
`ranking_completions` to it; the package never imports it.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Optional, Sequence

from spatialvote.model import Candidate, Ranking, rank_from_point

#: One hyperplane a . x = b over the free coordinates, as (a, b).
Plane = tuple[tuple[Fraction, ...], Fraction]


def _solve(planes: Sequence[Plane]) -> Optional[tuple[Fraction, ...]]:
    """The unique point on every one of k planes in k unknowns, or None."""
    k = len(planes)
    rows = [list(a) + [b] for a, b in planes]
    for col in range(k):
        pivot = next((r for r in range(col, k) if rows[r][col] != 0), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(k):
            if r != col and rows[r][col] != 0:
                f = rows[r][col] / rows[col][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return tuple(rows[i][k] / rows[i][i] for i in range(k))


def _meeting(planes: Sequence[Plane], bounds: Sequence[tuple[Fraction, Fraction]]) -> set[Plane]:
    """The distinct planes that meet the box, each scaled so its first
    nonzero coefficient is 1: over the box a . x ranges between the sums of
    the smaller and of the larger of a_i*lo_i, a_i*hi_i."""
    out = set()
    for a, b in planes:
        spans = [(ai * lo, ai * hi) for ai, (lo, hi) in zip(a, bounds)]
        if any(a) and sum(map(min, spans)) <= b <= sum(map(max, spans)):
            lead = next(x for x in a if x != 0)
            out.add((tuple(x / lead for x in a), b / lead))
    return out


def _probe(
    candidates: Sequence[Candidate],
    prefix: tuple[Fraction, ...],
    bisectors: set[Plane],
    bounds: Sequence[tuple[Fraction, Fraction]],
    out: set[Ranking],
) -> None:
    """Add the ranking of every face of the slice that fixes the coordinates
    before x_k to `prefix`; `bisectors` and `bounds` are over x_k onward."""
    if not bounds:
        out.add(rank_from_point(prefix, candidates))
        return
    k = len(bounds)
    facets = {(tuple(Fraction(int(j == i)) for j in range(k)), end) for i, ends in enumerate(bounds) for end in ends}
    breaks = set()
    for chosen in itertools.combinations(bisectors | facets, k):
        vertex = _solve(chosen)
        if vertex is not None and all(lo <= x <= hi for x, (lo, hi) in zip(vertex, bounds)):
            breaks.add(vertex[0])
    breaks = sorted(breaks)
    for t in breaks + [(left + right) / 2 for left, right in zip(breaks, breaks[1:])]:
        sliced = _meeting([(a[1:], b - a[0] * t) for a, b in bisectors], bounds[1:])
        _probe(candidates, prefix + (t,), sliced, bounds[1:], out)


def slice_rankings(
    candidates: Sequence[Candidate], bounds: Sequence[tuple[Fraction, Fraction]]
) -> set[Ranking]:
    """Every ranking some point of the box induces."""
    # |x - p|^2 = |x - q|^2  <=>  2(q - p) . x = |q|^2 - |p|^2
    planes = [
        (tuple(2 * (y - x) for x, y in zip(p, q)), sum(y * y for y in q) - sum(x * x for x in p))
        for p, q in itertools.combinations((c.position for c in candidates), 2)
    ]
    out: set[Ranking] = set()
    _probe(tuple(candidates), (), _meeting(planes, bounds), tuple(bounds), out)
    return out
