"""Reference oracles kept for the tests; the package never imports them.

`enumerate_completions` lists every ranking profile one by one, the naive
reference for the oracle's fold.  `reference_winner_sets` is the fold
`spatialvote.oracle._winner_sets` replaced: every score total and every
per-voter contribution is a tuple with one entry per candidate, and each
step adds them entry by entry.  Tests require the package's (union,
intersection) to equal its result, and its guard to raise at the same
values.
"""

from __future__ import annotations

from math import prod
from typing import Iterator

from spatialvote.model import PartialSpatialProfile, Ranking, ScoringRule, realize_score_vector, winners_of_scores
from spatialvote.oracle import DEFAULT_GUARD, _check_guard, completion_lists


def enumerate_completions(
    profile: PartialSpatialProfile, guard: int = DEFAULT_GUARD
) -> Iterator[tuple[Ranking, ...]]:
    """Yield every ranking profile exactly once, voter-major lexicographic."""
    lists = completion_lists(profile)
    _check_guard(prod(len(lst) for lst in lists), guard, "completions")
    n = len(lists)
    if n == 0:
        yield ()
        return
    idx = [0] * n
    while True:
        yield tuple(lists[i][idx[i]].ranking for i in range(n))
        j = n - 1
        while j >= 0 and idx[j] == len(lists[j]) - 1:
            idx[j] = 0
            j -= 1
        if j < 0:
            return
        idx[j] += 1


def _score_choices(profile: PartialSpatialProfile, rule: ScoringRule) -> list[list[tuple[int, ...]]]:
    """Per voter, the distinct per-candidate score contributions."""
    lists = completion_lists(profile)
    m = profile.num_candidates
    vec = realize_score_vector(rule, m)
    choices = []
    for lst in lists:
        seen = set()
        for rw in lst:
            contrib = [0] * m
            for pos, cand in enumerate(rw.ranking):
                contrib[cand] = vec[pos]
            seen.add(tuple(contrib))
        choices.append(sorted(seen))
    return choices


def reference_winner_sets(
    profile: PartialSpatialProfile, rule: ScoringRule, guard: int
) -> tuple[frozenset[int], frozenset[int]]:
    """(union, intersection) of the winner sets over every completion."""
    m = profile.num_candidates
    reachable = {(0,) * m}
    for contribs in _score_choices(profile, rule):
        _check_guard(len(reachable) * len(contribs), guard, "score-total pairs in one voter step")
        reachable = {tuple(a + b for a, b in zip(t, c)) for t in reachable for c in contribs}
    union, inter = frozenset(), frozenset(range(m))
    for totals in reachable:
        winners = winners_of_scores(totals)
        union |= winners
        inter &= winners
    return union, inter
