"""Reference oracles kept for the tests; the package never imports them.

`enumerate_completions` lists every ranking profile one by one, the naive
reference for the oracle's fold.  `reference_winner_sets` is the fold
`spatialvote.oracle._winner_sets` replaced: every score total and every
per-voter contribution is a tuple with one entry per candidate, and each
step adds them entry by entry.  Tests require the package's (union,
intersection) to equal its result, and its guard to raise at the same
values.  `contributions` and `fold_winner_sets` take rankings from any
source, so the d >= 2 slice reference's rankings are folded the same way.
"""

from __future__ import annotations

from math import prod
from typing import Iterable, Iterator, Sequence

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


def contributions(rankings: Iterable[Ranking], vec: Sequence[int]) -> list[tuple[int, ...]]:
    """The distinct per-candidate score contributions of one voter's rankings."""
    seen = set()
    for ranking in rankings:
        contrib = [0] * len(vec)
        for pos, cand in enumerate(ranking):
            contrib[cand] = vec[pos]
        seen.add(tuple(contrib))
    return sorted(seen)


def _score_choices(profile: PartialSpatialProfile, rule: ScoringRule) -> list[list[tuple[int, ...]]]:
    """Per voter, the distinct per-candidate score contributions."""
    lists = completion_lists(profile)
    vec = realize_score_vector(rule, profile.num_candidates)
    return [contributions((rw.ranking for rw in lst), vec) for lst in lists]


def fold_winner_sets(
    choices: Sequence[Sequence[tuple[int, ...]]], m: int, guard: int = DEFAULT_GUARD
) -> tuple[frozenset[int], frozenset[int]]:
    """(union, intersection) of the winner sets over every way of adding
    one contribution per voter; raises InstanceTooLarge once the (total,
    contribution) pairs of all steps so far pass the guard."""
    reachable, work = {(0,) * m}, 0
    for contribs in choices:
        work += len(reachable) * len(contribs)
        _check_guard(work, guard, "score-total pairs in the fold")
        reachable = {tuple(a + b for a, b in zip(t, c)) for t in reachable for c in contribs}
    union, inter = frozenset(), frozenset(range(m))
    for totals in reachable:
        winners = winners_of_scores(totals)
        union |= winners
        inter &= winners
    return union, inter


def reference_winner_sets(
    profile: PartialSpatialProfile, rule: ScoringRule, guard: int
) -> tuple[frozenset[int], frozenset[int]]:
    """(union, intersection) of the winner sets over every completion."""
    return fold_winner_sets(_score_choices(profile, rule), profile.num_candidates, guard)
