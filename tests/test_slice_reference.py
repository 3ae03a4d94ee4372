"""Face splitting in d >= 2 against the slice-probe reference, which shares
no code with it but `rank_from_point`.

`tests/split_reference.py` splits faces with the same bisector rows and the
same LFP as the package, so a ranking that both miss goes unseen there; the
slice reference finds every face from the arrangement's vertices instead.
"""

import random
from fractions import Fraction

from oracle_reference import contributions, fold_winner_sets
from slice_reference import slice_rankings

from spatialvote import (
    Candidate,
    PartialSpatialProfile,
    ScoringRule,
    VoterBox,
    brute_nw,
    brute_pw,
    necessary_winner,
    possible_winner,
    ranking_completions,
    realize_score_vector,
)


def random_instance(rng: random.Random, d: int, m: int, n: int) -> PartialSpatialProfile:
    """Candidates and n boxes on a grid of step 1 or 1/2 in [-2, 2]^d.  A
    candidate repeats an earlier one's position with probability 1/4, and
    each box coordinate is fixed with probability 1/4 (so point and segment
    boxes occur), spans one grid step with probability 1/4, or is random."""
    den = rng.choice([1, 2])

    def coord() -> Fraction:
        return Fraction(rng.randint(-2 * den, 2 * den), den)

    positions: list[tuple[Fraction, ...]] = []
    for _ in range(m):
        if positions and rng.random() < 0.25:
            positions.append(rng.choice(positions))
        else:
            positions.append(tuple(coord() for _ in range(d)))
    candidates = tuple(Candidate(f"c{i + 1}", p) for i, p in enumerate(positions))
    voters = []
    for v in range(n):
        bounds = []
        for _ in range(d):
            a, b = coord(), coord()
            kind = rng.random()
            if kind < 0.25:
                b = a
            elif kind < 0.5:
                b = a + Fraction(1, den)
            bounds.append((min(a, b), max(a, b)))
        voters.append(VoterBox(f"v{v + 1}", tuple(bounds)))
    return PartialSpatialProfile(d, candidates, tuple(voters))


class TestRankingSets:
    def test_matches_ranking_completions(self):
        rng = random.Random(2091)
        features: set[str] = set()
        boxes = 0
        for d, m_max, count in [(2, 6, 200), (3, 4, 100)]:
            for _ in range(count):
                profile = random_instance(rng, d, rng.randint(2, m_max), 1)
                (voter,) = profile.voters
                got = {rw.ranking for rw in ranking_completions(profile.candidates, voter.bounds)}
                assert got == slice_rankings(profile.candidates, voter.bounds), (profile.candidates, voter.bounds)
                boxes += 1
                free = sum(lo < hi for lo, hi in voter.bounds)
                if len({c.position for c in profile.candidates}) < len(profile.candidates):
                    features.add("coincident candidates")
                features.add({0: "point box", 1: "segment box"}.get(free, "full box"))
                if d == 3 and free == 2:
                    features.add("3D box with one fixed coordinate")
        assert boxes >= 300
        assert features == {
            "coincident candidates",
            "point box",
            "segment box",
            "full box",
            "3D box with one fixed coordinate",
        }


class TestWinners:
    """Winner sets folded from the slice rankings equal every d >= 2 route's."""

    def test_routes_match_the_slice_fold(self):
        rng = random.Random(2092)
        plurality, veto, borda = ScoringRule.plurality(), ScoringRule.veto(), ScoringRule.borda()
        for trial in range(24):
            d = 2 if trial % 2 == 0 else 3
            m = rng.randint(2, 5 if d == 2 else 4)
            profile = random_instance(rng, d, m, rng.randint(2, 3))
            rankings = [slice_rankings(profile.candidates, v.bounds) for v in profile.voters]
            everyone = range(m)
            for rule in (plurality, veto, borda):
                vec = realize_score_vector(rule, m)
                union, inter = fold_winner_sets([contributions(r, vec) for r in rankings], m)
                assert necessary_winner(profile, rule, everyone) == inter
                if rule is borda:
                    assert brute_pw(profile, rule) == union
                    assert brute_nw(profile, rule) == inter
                else:
                    assert possible_winner(profile, rule, everyone) == union
