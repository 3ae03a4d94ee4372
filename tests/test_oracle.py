import random
import time
from fractions import Fraction
from math import prod

import pytest

from gen_helpers import random_profile_1d, random_profile_2d
from oracle_reference import _score_choices as reference_score_choices
from oracle_reference import enumerate_completions, reference_winner_sets
from spatialvote import (
    Candidate,
    InstanceTooLarge,
    PartialSpatialProfile,
    RuleUndefinedAtM,
    ScoringRule,
    VoterBox,
    brute_nw,
    brute_pw,
    is_possible_winner,
    oracle,
    ranking_completions,
    realize_score_vector,
    winners_of_rankings,
)
from spatialvote.cli import generate_election
from spatialvote.model import winners_of_scores


def line_profile(positions, boxes):
    candidates = tuple(Candidate(f"c{i + 1}", (Fraction(x),)) for i, x in enumerate(positions))
    voters = tuple(
        VoterBox(f"v{i + 1}", ((Fraction(a), Fraction(b)),)) for i, (a, b) in enumerate(boxes)
    )
    return PartialSpatialProfile(1, candidates, voters)


REFERENCE = line_profile([1, 2, 3], [(1, 3)])


class TestEnumeration:
    def test_reference_instance_has_four_completions(self):
        assert sorted(r for (r,) in enumerate_completions(REFERENCE)) == [
            (0, 1, 2),
            (1, 0, 2),
            (1, 2, 0),
            (2, 1, 0),
        ]

    def test_count_is_the_product_of_per_voter_counts(self):
        rng = random.Random(71)
        for _ in range(20):
            profile = random_profile_1d(rng, rng.randint(2, 5), rng.randint(1, 3))
            per_voter = [
                len(ranking_completions(profile.candidates, v.bounds)) for v in profile.voters
            ]
            assert sum(1 for _ in enumerate_completions(profile)) == prod(per_voter)

    def test_no_voters_yields_one_empty_profile(self):
        profile = line_profile([0, 1], [])
        assert list(enumerate_completions(profile)) == [()]

    def test_guard(self):
        profile = line_profile(list(range(6)), [(0, 5)] * 4)
        with pytest.raises(InstanceTooLarge):
            list(enumerate_completions(profile, guard=10))
        with pytest.raises(InstanceTooLarge):
            brute_pw(profile, ScoringRule.plurality(), guard=10)

    @pytest.mark.parametrize(
        "rule, boxes, fold_work",
        [
            # steps of 6 + 36 + 126 + 336 pairs
            (ScoringRule.plurality(), [(0, 5)] * 4, 504),
            # steps of 6 + 42 + 390 + 1330 pairs
            (ScoringRule.borda(), [(0, 3), (2, 5), (0, 5), (1, 4)], 1768),
        ],
        ids=["plurality", "borda"],
    )
    def test_guard_counts_fold_work(self, rule, boxes, fold_work):
        # the guard bounds the pairs of all steps together; 10,000 and 2,940
        # completions: the product guard would reject both
        profile = line_profile(list(range(6)), boxes)
        with pytest.raises(InstanceTooLarge):
            list(enumerate_completions(profile, guard=fold_work))
        union: set[int] = set()
        inter = set(range(6))
        for rankings in enumerate_completions(profile, guard=10**4):
            w = winners_of_rankings(list(rankings), rule)
            union |= w
            inter &= w
        assert brute_pw(profile, rule, guard=fold_work) == frozenset(union)
        assert brute_nw(profile, rule, guard=fold_work) == frozenset(inter)
        with pytest.raises(InstanceTooLarge, match=f"^{fold_work} score-total pairs in the fold"):
            brute_pw(profile, rule, guard=fold_work - 1)

    def test_guard_bounds_a_slowly_growing_fold(self):
        # n equal boxes reach about n**2 / 2 totals, so each step stays far
        # under the guard while all steps together grow as n**3; a guard per
        # step let this fold run for a minute
        profile = line_profile([0, 10, 20, 30], [(0, 15)] * 1500)
        start = time.perf_counter()
        with pytest.raises(InstanceTooLarge, match="^1000125 score-total pairs in the fold exceed the guard of 1000000$"):
            brute_pw(profile, ScoringRule.borda())
        assert time.perf_counter() - start < 1


class TestWinnerSets:
    def test_reference_instance(self):
        assert brute_pw(REFERENCE, ScoringRule.plurality()) == frozenset({0, 1, 2})
        assert brute_nw(REFERENCE, ScoringRule.plurality()) == frozenset()

    def test_degenerate_profile_pw_equals_nw(self):
        profile = line_profile([0, 1, 2], [(0, 0), (2, 2)])
        rule = ScoringRule.borda()
        (rankings,) = [list(p) for p in enumerate_completions(profile)]
        expected = winners_of_rankings(rankings, rule)
        assert brute_pw(profile, rule) == brute_nw(profile, rule) == expected

    def test_no_voters_everyone_wins(self):
        profile = line_profile([0, 1], [])
        assert brute_pw(profile, ScoringRule.plurality()) == frozenset({0, 1})
        assert brute_nw(profile, ScoringRule.plurality()) == frozenset({0, 1})

    def test_sets_agree_with_direct_enumeration(self):
        rng = random.Random(73)
        rules = [ScoringRule.plurality(), ScoringRule.borda(), ScoringRule.fkt(2, 1)]
        for _ in range(20):
            if rng.random() < 0.5:
                profile = random_profile_1d(rng, rng.randint(3, 5), rng.randint(1, 3))
            else:
                profile = random_profile_2d(rng, rng.randint(3, 4), rng.randint(1, 3), max_side=1)
            for rule in rules:
                union: set[int] = set()
                inter = set(range(profile.num_candidates))
                for rankings in enumerate_completions(profile):
                    w = winners_of_rankings(list(rankings), rule)
                    union |= w
                    inter &= w
                assert brute_pw(profile, rule) == frozenset(union)
                assert brute_nw(profile, rule) == frozenset(inter)


class TestMembershipQueries:
    def test_consistent_with_winner_sets(self):
        rng = random.Random(79)
        rules = [ScoringRule.plurality(), ScoringRule.veto(), ScoringRule.borda()]
        for _ in range(25):
            profile = random_profile_1d(rng, rng.randint(2, 5), rng.randint(1, 3))
            for rule in rules:
                pw = brute_pw(profile, rule)
                nw = brute_nw(profile, rule)
                for c in range(profile.num_candidates):
                    assert is_possible_winner(profile, rule, c) == (c in pw)
                    assert c not in nw or c in pw


def random_rule(rng: random.Random, m: int) -> ScoringRule:
    """A rule of a random family; some are undefined at m, which both folds must report."""
    top = sorted((rng.randint(0, 9) for _ in range(m - 2)), reverse=True)
    return rng.choice(
        [
            ScoringRule.plurality(),
            ScoringRule.veto(),
            ScoringRule.borda(),
            ScoringRule.k_approval(rng.randint(1, m - 1)),
            ScoringRule.k_veto(rng.randint(1, m - 1)),
            ScoringRule.weighted_veto(5, [3, 1][: rng.randint(1, 2)]),
            ScoringRule.fkt(rng.randint(1, 2), rng.randint(1, 2)),
            # scores above 2**64: the packed fields are wider than a machine word
            ScoringRule.explicit([2**70 + rng.randint(0, 9), *top, 0]),
        ]
    )


def reference_fold_works(profile, rule) -> list[int]:
    """After each voter step of the reference fold, the (total, contribution)
    pairs it has combined so far: the values its guard is checked against."""
    reachable = {(0,) * profile.num_candidates}
    works = [0]
    for contribs in reference_score_choices(profile, rule):
        works.append(works[-1] + len(reachable) * len(contribs))
        reachable = {tuple(a + b for a, b in zip(t, c)) for t in reachable for c in contribs}
    return works[1:]


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the exception type is the outcome being compared
        return type(exc)


class TestMatchesReference:
    """The packed-integer fold reaches the same totals as the tuple fold, so
    it gives the same winner sets and its guard raises at the same values."""

    @pytest.mark.parametrize("dimension", [1, 2])
    def test_random_profiles(self, dimension):
        rng = random.Random(83 + dimension)
        for _ in range(80):
            m = rng.randint(2, 6 if dimension == 1 else 4)
            n = rng.randint(0, 4 if dimension == 1 else 3)
            if dimension == 1:
                profile = random_profile_1d(rng, m, n)
            else:
                profile = random_profile_2d(rng, m, n, max_side=1)
            rule = random_rule(rng, m)
            guards = [oracle.DEFAULT_GUARD]
            if outcome(realize_score_vector, rule, m) is not RuleUndefinedAtM:
                guards += [g for w in reference_fold_works(profile, rule) for g in (w, w - 1)]
            for guard in guards:
                expected = outcome(reference_winner_sets, profile, rule, guard)
                assert outcome(oracle._winner_sets, profile, rule, guard) == expected


def short_box_profile(seed: int, m: int, n: int):
    """m candidates at 0, 2, ..., 2m - 2 and n voters with integer boxes, a
    quarter of them one unit long and the rest points, so each voter has
    one or two completions and the fold stays small at fifty voters."""
    rng = random.Random(seed)
    starts = [rng.randint(0, 2 * m - 3) for _ in range(n)]
    return line_profile(range(0, 2 * m, 2), [(a, a + (rng.random() < 0.25)) for a in starts])


def wide_path_calls(monkeypatch) -> list:
    """Record every total the wide path unpacks; the byte path unpacks none."""
    calls = []

    def spy(scores):
        calls.append(scores)
        return winners_of_scores(scores)

    monkeypatch.setattr(oracle, "winners_of_scores", spy)
    return calls


class TestByteFields:
    """Totals below 256 per candidate are read one byte per candidate; the
    byte path and the shift-and-mask path agree with the tuple fold on
    either side of that bound, guards included."""

    @pytest.mark.parametrize(
        "rule, m, n, width",
        [
            (ScoringRule.explicit((255, 0)), 2, 1, 8),
            (ScoringRule.explicit((128, 0)), 2, 2, 9),
            (ScoringRule.borda(), 6, 51, 8),
            (ScoringRule.borda(), 6, 52, 9),
        ],
        ids=["255x1", "128x2", "borda-51", "borda-52"],
    )
    def test_either_side_of_one_byte(self, monkeypatch, rule, m, n, width):
        assert (n * realize_score_vector(rule, m)[0] < 256) == (width == 8)
        for seed in range(3):
            profile = short_box_profile(seed, m, n)
            assert oracle._score_choices(profile, rule)[1] == width
            calls = wide_path_calls(monkeypatch)
            assert oracle._winner_sets(profile, rule, oracle.DEFAULT_GUARD) == reference_winner_sets(
                profile, rule, oracle.DEFAULT_GUARD
            )
            assert bool(calls) == (width > 8)
            for guard in sorted({g for w in reference_fold_works(profile, rule) for g in (w, w - 1)}):
                expected = outcome(reference_winner_sets, profile, rule, guard)
                assert outcome(oracle._winner_sets, profile, rule, guard) == expected

    def test_benchmark_instance(self, monkeypatch):
        # the oracle-1d benchmark's election: 6 candidates, 7 voters, Borda
        profile = generate_election(4, 1, 6, 7)
        rule = ScoringRule.borda()
        union, inter = reference_winner_sets(profile, rule, oracle.DEFAULT_GUARD)
        assert oracle._score_choices(profile, rule)[1] == 8
        calls = wide_path_calls(monkeypatch)
        assert brute_pw(profile, rule) == union
        assert brute_nw(profile, rule) == inter
        assert calls == []
