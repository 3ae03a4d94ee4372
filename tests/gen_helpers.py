"""Shared random-instance generators for the test suite.

Everything is driven by an explicit `random.Random` so each test pins its
own seed.  Coordinates are kept on coarse grids: integer candidate positions
in one dimension make the dense-grid ranking oracle exact, and small ranges
everywhere keep brute-force completions affordable.
"""

from __future__ import annotations

import random
from fractions import Fraction

from spatialvote import Candidate, Job, PartialSpatialProfile, SchedulingInstance, VoterBox


def random_profile_1d(
    rng: random.Random, m: int, n: int, span: int = 8
) -> PartialSpatialProfile:
    """1D profile with distinct integer candidate positions and integer boxes."""
    positions = rng.sample(range(-span, span + 1), m)
    candidates = tuple(
        Candidate(f"c{i + 1}", (Fraction(x),)) for i, x in enumerate(sorted(positions))
    )
    voters = []
    for i in range(n):
        a, b = rng.randint(-span, span), rng.randint(-span, span)
        voters.append(VoterBox(f"v{i + 1}", ((Fraction(min(a, b)), Fraction(max(a, b))),)))
    return PartialSpatialProfile(1, candidates, tuple(voters))


def random_profile_2d(
    rng: random.Random,
    m: int,
    n: int,
    span: int = 4,
    denominator: int = 2,
    max_side: int | None = None,
) -> PartialSpatialProfile:
    """2D profile on a half-integer grid; duplicate positions are permitted.

    `max_side` caps the box edge length in grid steps, keeping the number of
    ranking completions per voter (and so brute-force cost) small.
    """

    def coord() -> Fraction:
        return Fraction(rng.randint(-span * denominator, span * denominator), denominator)

    candidates = tuple(
        Candidate(f"c{i + 1}", (coord(), coord())) for i in range(m)
    )
    voters = []
    for i in range(n):
        bounds = []
        for _ in range(2):
            a = coord()
            if max_side is None:
                b = coord()
                bounds.append((min(a, b), max(a, b)))
            else:
                width = Fraction(rng.randint(0, max_side), denominator)
                bounds.append((a, a + width))
        voters.append(VoterBox(f"v{i + 1}", tuple(bounds)))
    return PartialSpatialProfile(2, candidates, tuple(voters))


def random_equal_length_instance(
    rng: random.Random, max_jobs: int = 6, max_machines: int = 3, horizon: int = 12
) -> tuple[SchedulingInstance, int]:
    """Equal-length instance; the common length is returned alongside."""
    p = rng.randint(1, 4)
    n = rng.randint(1, max_jobs)
    jobs = []
    for i in range(n):
        arrival = rng.randint(1, max(1, horizon - p))
        deadline = rng.randint(arrival + 1, horizon)
        jobs.append(Job(f"j{i + 1}", arrival, deadline, p))
    return SchedulingInstance(tuple(jobs), rng.randint(1, max_machines)), p


def tight_prefix_instance(rng: random.Random, over: int) -> tuple[SchedulingInstance, int]:
    """Equal-length instance whose first arrival is 1 and whose jobs with
    latest start <= L number exactly cap(L) + `over`, for a drawn latest
    start L: cap(L) = t * ((L - 1) // p + 1) is how many jobs t machines
    idle from time 1 can start in [1, L].  Up to 10 jobs, half of the
    prefix's arriving at 1, with deadlines at most 22; the common length is
    returned alongside."""
    p = rng.randint(1, 3)
    t = rng.randint(1, 3)
    q = rng.randint(0, min(3, 6 // t - 1))
    last = 1 + q * p + rng.randrange(p)
    due = t * (q + 1) + over
    latests = [last] + [rng.randint(1, last) for _ in range(due - 1)]
    latests += [rng.randint(last + 1, last + 2 * p) for _ in range(rng.randint(0, 10 - due))]
    jobs = []
    for i, latest in enumerate(latests):
        arrival = 1 if i == 0 or (i < due and rng.random() < 0.5) else rng.randint(1, latest)
        jobs.append(Job(f"j{i + 1}", arrival, latest + p, p))
    rng.shuffle(jobs)
    return SchedulingInstance(tuple(jobs), t), p


def random_reduction_instance(
    rng: random.Random, k: int = 3, max_jobs: int = 4, d_max: int = 8
) -> SchedulingInstance:
    """Single-machine instance with lengths {k-1, k} and room for every job."""
    n = rng.randint(1, max_jobs)
    jobs = []
    for i in range(n):
        p = rng.choice((k - 1, k))
        arrival = rng.randint(1, d_max - p)
        deadline = rng.randint(arrival + p, d_max)
        jobs.append(Job(f"j{i + 1}", arrival, deadline, p))
    return SchedulingInstance(tuple(jobs), 1)


def grid_rankings_1d(profile: PartialSpatialProfile, box_index: int, step: Fraction):
    """All rankings hit by sampling the voter's interval at the given step."""
    from spatialvote import rank_from_point

    lo, hi = profile.voters[box_index].bounds[0]
    seen = set()
    x = lo
    while x <= hi:
        seen.add(rank_from_point((x,), profile.candidates))
        x += step
    seen.add(rank_from_point((hi,), profile.candidates))
    return seen


def check_winner_set(winner_set, m: int, expected: frozenset) -> None:
    """`winner_set(candidates)` must give `expected` for all of range(m) and
    {c} & expected for every singleton (c,)."""
    assert winner_set(range(m)) == expected
    for c in range(m):
        assert winner_set((c,)) == {c} & expected
