import random
from fractions import Fraction

import pytest

from gen_helpers import random_profile_1d, random_profile_2d
from spatialvote import (
    Candidate,
    NoPolynomialAlgorithm,
    PartialSpatialProfile,
    RuleMismatch,
    ScoringRule,
    VoterBox,
    brute_nw,
    brute_pw,
    necessary_winner,
    possible_winner,
    pw_fkt_1d,
    pw_plurality,
    pw_two_valued_1d,
    pw_veto,
    pw_weighted_veto_1d,
    route_for,
)
from spatialvote.errors import DimensionMismatch
from spatialvote.geometry import ranking_completions, tie_points_1d
from spatialvote.winners import approval_windows_1d, restrict_profile


def line_profile(positions, boxes):
    candidates = tuple(Candidate(f"c{i + 1}", (Fraction(x),)) for i, x in enumerate(positions))
    voters = tuple(
        VoterBox(f"v{i + 1}", ((Fraction(a), Fraction(b)),)) for i, (a, b) in enumerate(boxes)
    )
    return PartialSpatialProfile(1, candidates, voters)


REFERENCE = line_profile([1, 2, 3], [(1, 3)])


class TestApprovalWindows:
    def test_reference_instance(self):
        assert [(w.lo, w.hi) for w in approval_windows_1d(REFERENCE, 1)] == [(0, 2)]
        assert [(w.lo, w.hi) for w in approval_windows_1d(REFERENCE, 2)] == [(0, 2)]

    def test_degenerate_voter(self):
        profile = line_profile([1, 2, 3], [(2, 2)])
        assert [(w.lo, w.hi) for w in approval_windows_1d(profile, 1)] == [(1, 1)]

    def test_restrict_pins_the_candidate(self):
        windows = approval_windows_1d(REFERENCE, 1)
        (w,) = restrict_profile(windows, 1, 2)
        assert (w.lo, w.hi) == (2, 2)

    def test_needs_1d(self):
        profile = PartialSpatialProfile(
            2, (Candidate("a", (0, 0)), Candidate("b", (1, 1))), ()
        )
        with pytest.raises(DimensionMismatch):
            approval_windows_1d(profile, 1)


class TestTwoValued1D:
    def test_reference_instance(self):
        for c in range(3):
            assert pw_two_valued_1d(REFERENCE, 1, c)
            assert pw_two_valued_1d(REFERENCE, 2, c)

    def test_no_supporters(self):
        profile = line_profile([0, 1, 10], [(0, 1), (0, 1)])
        assert not pw_two_valued_1d(profile, 1, 2)

    def test_no_voters(self):
        profile = line_profile([0, 1], [])
        assert pw_two_valued_1d(profile, 1, 0)

    def test_matches_oracle(self):
        rng = random.Random(41)
        for _ in range(80):
            m = rng.randint(2, 6)
            profile = random_profile_1d(rng, m, rng.randint(1, 4))
            k = rng.randint(1, m - 1)
            expected = brute_pw(profile, ScoringRule.k_approval(k))
            for c in range(m):
                assert pw_two_valued_1d(profile, k, c) == (c in expected)


class TestWeightedVeto1D:
    def test_middle_band_always_possible(self):
        profile = line_profile([0, 1, 2], [(0, 0)])
        rule = ScoringRule.weighted_veto(2, (1,))
        assert pw_weighted_veto_1d(profile, rule, 1)

    def test_rule_kind_checked(self):
        with pytest.raises(RuleMismatch):
            pw_weighted_veto_1d(REFERENCE, ScoringRule.borda(), 0)

    def test_matches_oracle(self):
        rng = random.Random(43)
        for _ in range(80):
            m = rng.randint(3, 6)
            profile = random_profile_1d(rng, m, rng.randint(1, 4))
            band = rng.randint(1, (m - 1) // 2)
            betas = tuple(sorted((rng.randint(0, 2) for _ in range(band)), reverse=True))
            rule = ScoringRule.weighted_veto(betas[0] + rng.randint(1, 2), betas)
            expected = brute_pw(profile, rule)
            for c in range(m):
                assert pw_weighted_veto_1d(profile, rule, c) == (c in expected)


class TestFkt1D:
    def test_requires_k_greater_than_t(self):
        with pytest.raises(RuleMismatch):
            pw_fkt_1d(REFERENCE, ScoringRule.fkt(1, 1), 0)

    def test_matches_oracle(self):
        rng = random.Random(47)
        for _ in range(80):
            m = rng.randint(3, 6)
            profile = random_profile_1d(rng, m, rng.randint(1, 4))
            while True:
                k = rng.randint(2, m - 1)
                t = rng.randint(1, k - 1)
                if k + t <= m:
                    break
            rule = ScoringRule.fkt(k, t)
            expected = brute_pw(profile, rule)
            for c in range(m):
                assert pw_fkt_1d(profile, rule, c) == (c in expected)

    def test_admissible_region_is_one_interval(self):
        # pw_fkt_1d shrinks each box to the span of its admissible witnesses;
        # that keeps exactly the admissible rankings only if they form one interval
        rng = random.Random(71)
        for _ in range(60):
            m = rng.randint(3, 7)
            profile = random_profile_1d(rng, m, 3)
            ties = tie_points_1d(profile.candidates, (Fraction(-8), Fraction(8)))
            boxes = list(profile.voters)
            for i, x in enumerate(rng.sample(ties, min(3, len(ties)))):
                other = Fraction(rng.randint(-8, 8))
                boxes.append(VoterBox(f"tie{i}", ((min(x, other), max(x, other)),)))
            for box in boxes:
                completions = ranking_completions(profile.candidates, box)
                for c in range(m):
                    for t in range(1, m):
                        admissible = [rw for rw in completions if rw.ranking.index(c) < m - t]
                        if not admissible:
                            continue
                        xs = [rw.witness[0] for rw in admissible]
                        shrunk = VoterBox(box.id, ((min(xs), max(xs)),))
                        kept = ranking_completions(profile.candidates, shrunk)
                        assert {rw.ranking for rw in kept} == {rw.ranking for rw in admissible}


class TestFlows:
    def test_plurality_matches_oracle_2d(self):
        rng = random.Random(53)
        for _ in range(60):
            profile = random_profile_2d(rng, rng.randint(2, 5), rng.randint(1, 4))
            expected = brute_pw(profile, ScoringRule.plurality())
            for c in range(profile.num_candidates):
                assert pw_plurality(profile, c) == (c in expected)

    def test_veto_matches_oracle_2d(self):
        rng = random.Random(59)
        for _ in range(60):
            profile = random_profile_2d(rng, rng.randint(2, 5), rng.randint(1, 4))
            expected = brute_pw(profile, ScoringRule.veto())
            for c in range(profile.num_candidates):
                assert pw_veto(profile, c) == (c in expected)

    def test_no_voters(self):
        profile = PartialSpatialProfile(
            2, (Candidate("a", (0, 0)), Candidate("b", (1, 1))), ()
        )
        assert pw_plurality(profile, 0) and pw_veto(profile, 1)


class TestNecessaryWinner:
    def test_matches_oracle(self):
        rng = random.Random(61)
        rules = [
            ScoringRule.plurality(),
            ScoringRule.veto(),
            ScoringRule.borda(),
            ScoringRule.k_approval(2),
            ScoringRule.fkt(2, 1),
        ]
        for _ in range(40):
            if rng.random() < 0.5:
                profile = random_profile_1d(rng, rng.randint(3, 5), rng.randint(1, 4))
            else:
                profile = random_profile_2d(rng, rng.randint(3, 5), rng.randint(1, 4), max_side=2)
            for rule in rules:
                expected = brute_nw(profile, rule)
                for c in range(profile.num_candidates):
                    assert necessary_winner(profile, rule, c) == (c in expected)

    def test_degenerate_profile(self):
        profile = line_profile([0, 1, 2], [(0, 0)])
        assert necessary_winner(profile, ScoringRule.plurality(), 0)
        assert not necessary_winner(profile, ScoringRule.plurality(), 1)


class TestDispatch:
    def test_routes(self):
        one_d = line_profile([0, 1, 2, 3], [(0, 3)])
        two_d = PartialSpatialProfile(
            2,
            tuple(Candidate(f"c{i}", (i, 0)) for i in range(4)),
            (VoterBox("v", ((0, 1), (0, 1))),),
        )
        assert route_for(one_d, ScoringRule.plurality()) == "plurality-flow"
        assert route_for(two_d, ScoringRule.explicit((5, 2, 2, 2))) == "plurality-flow"
        assert route_for(two_d, ScoringRule.k_veto(1)) == "veto-flow"
        assert route_for(one_d, ScoringRule.k_approval(2)) == "two-valued-1d"
        assert route_for(two_d, ScoringRule.k_approval(2)) == "oracle"
        # a single-beta weighted veto always canonicalizes to plain veto, so
        # the distinct weighted-veto route needs at least two betas
        five = line_profile([0, 1, 2, 3, 4], [(0, 4)])
        assert route_for(one_d, ScoringRule.weighted_veto(3, (1,))) == "veto-flow"
        assert route_for(five, ScoringRule.weighted_veto(3, (2, 1))) == "weighted-veto-1d"
        assert route_for(one_d, ScoringRule.fkt(2, 1)) == "fkt-1d"
        assert route_for(one_d, ScoringRule.fkt(1, 2)) == "oracle"
        assert route_for(one_d, ScoringRule.borda()) == "oracle"

    def test_guarded_fallback(self):
        with pytest.raises(NoPolynomialAlgorithm):
            possible_winner(REFERENCE, ScoringRule.borda(), 0)
        expected = brute_pw(REFERENCE, ScoringRule.borda())
        for c in range(3):
            assert possible_winner(
                REFERENCE, ScoringRule.borda(), c, allow_exponential=True
            ) == (c in expected)

    def test_dispatch_agrees_with_oracle_across_rules(self):
        rng = random.Random(67)
        for _ in range(40):
            m = rng.randint(5, 6)
            profile = random_profile_1d(rng, m, rng.randint(1, 3))
            rules = [
                ScoringRule.plurality(),
                ScoringRule.veto(),
                ScoringRule.k_approval(2),
                ScoringRule.weighted_veto(3, (2, 1)),
                ScoringRule.fkt(2, 1),
                ScoringRule.explicit((2,) + (0,) * (m - 1)),  # scaled plurality
            ]
            for rule in rules:
                expected = brute_pw(profile, rule)
                for c in range(m):
                    assert possible_winner(profile, rule, c) == (c in expected)
