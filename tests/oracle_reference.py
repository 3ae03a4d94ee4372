"""Reference oracle fold over score-total tuples, kept as a test oracle.

This is the fold `spatialvote.oracle._winner_sets` replaced: every score
total and every per-voter contribution is a tuple with one entry per
candidate, and each step adds them entry by entry.  Tests require the
package's (union, intersection) to equal its result, and its guard to raise
at the same values; the package never imports it.
"""

from __future__ import annotations

from spatialvote.model import PartialSpatialProfile, ScoringRule, realize_score_vector, winners_of_scores
from spatialvote.oracle import _check_guard, completion_lists


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
