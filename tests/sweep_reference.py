"""Reference 1D ranking sweep with one distance sort per probe, kept as a test oracle.

This is the sweep `spatialvote.geometry.enumerate_rankings_1d` replaced: it
computes the tie points pair by pair for each interval and calls
`rank_from_point` at every probe instead of looking the probe up in a shared
line arrangement.  Tests compare the package's rankings and witnesses to it;
the package never imports it.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence

from spatialvote.geometry import RankingWithWitness
from spatialvote.model import Candidate, Ranking, rank_from_point


def reference_tie_points_1d(
    candidates: Sequence[Candidate], interval: tuple[Fraction, Fraction]
) -> list[Fraction]:
    """All points of [lo, hi] equidistant from two or more candidates."""
    lo, hi = interval
    points = set()
    for a, b in itertools.combinations(candidates, 2):
        mid = (a.position[0] + b.position[0]) / 2
        if lo <= mid <= hi:
            points.add(mid)
    return sorted(points)


def reference_enumerate_rankings_1d(
    candidates: Sequence[Candidate], interval: tuple[Fraction, Fraction]
) -> list[RankingWithWitness]:
    """One witness per distinct ranking, first seen along the probe sequence
    lo, (midpoint, breakpoint)..., hi."""
    lo, hi = Fraction(interval[0]), Fraction(interval[1])
    breaks = sorted({lo, hi} | set(reference_tie_points_1d(candidates, (lo, hi))))
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
