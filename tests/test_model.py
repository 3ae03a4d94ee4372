from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spatialvote import (
    Candidate,
    DimensionMismatch,
    PartialSpatialProfile,
    RuleUndefinedAtM,
    ScoringRule,
    VoterBox,
    as_rational,
    rank_from_point,
    realize_score_vector,
    rule_from_text,
    rule_to_text,
    score_profile,
    winners_of_rankings,
)
from spatialvote.model import canonical_vector, winners_of_scores


class TestRationals:
    def test_parses_fraction_strings(self):
        assert as_rational("3/2") == Fraction(3, 2)
        assert as_rational("-7") == Fraction(-7)
        assert as_rational(4) == Fraction(4)

    def test_rejects_floats_and_bools(self):
        with pytest.raises(TypeError):
            as_rational(0.5)
        with pytest.raises(TypeError):
            as_rational(True)


class TestDomainTypes:
    def test_voter_box_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            VoterBox("v", ((Fraction(2), Fraction(1)),))

    def test_degenerate_box(self):
        assert VoterBox("v", ((1, 1), (2, 2))).is_degenerate()
        assert not VoterBox("v", ((1, 2),)).is_degenerate()

    def test_profile_sorts_candidates_in_1d(self):
        profile = PartialSpatialProfile(
            1,
            (Candidate("b", (3,)), Candidate("a", (1,))),
            (),
        )
        assert [c.id for c in profile.candidates] == ["a", "b"]
        assert profile.candidate_index("b") == 1

    def test_profile_rejects_duplicate_1d_positions(self):
        with pytest.raises(ValueError):
            PartialSpatialProfile(1, (Candidate("a", (1,)), Candidate("b", (1,))), ())

    def test_profile_allows_duplicate_positions_in_2d(self):
        profile = PartialSpatialProfile(
            2, (Candidate("a", (1, 1)), Candidate("b", (1, 1))), ()
        )
        assert profile.num_candidates == 2

    def test_profile_rejects_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            PartialSpatialProfile(2, (Candidate("a", (1,)), Candidate("b", (2, 2))), ())
        with pytest.raises(DimensionMismatch):
            PartialSpatialProfile(
                1,
                (Candidate("a", (1,)), Candidate("b", (2,))),
                (VoterBox("v", ((1, 2), (1, 2))),),
            )

    def test_profile_needs_two_candidates(self):
        with pytest.raises(ValueError):
            PartialSpatialProfile(1, (Candidate("a", (1,)),), ())


class TestScoreVectors:
    def test_standard_families(self):
        assert realize_score_vector(ScoringRule.plurality(), 4) == (1, 0, 0, 0)
        assert realize_score_vector(ScoringRule.veto(), 4) == (1, 1, 1, 0)
        assert realize_score_vector(ScoringRule.borda(), 4) == (3, 2, 1, 0)
        assert realize_score_vector(ScoringRule.k_approval(2), 5) == (1, 1, 0, 0, 0)
        assert realize_score_vector(ScoringRule.k_veto(2), 5) == (1, 1, 1, 0, 0)
        assert realize_score_vector(ScoringRule.weighted_veto(3, (2, 1)), 5) == (3, 3, 3, 2, 1)
        assert realize_score_vector(ScoringRule.fkt(2, 1), 5) == (2, 2, 1, 1, 0)
        assert realize_score_vector(ScoringRule.explicit((4, 2, 0)), 3) == (4, 2, 0)

    def test_undefined_at_m(self):
        with pytest.raises(RuleUndefinedAtM):
            realize_score_vector(ScoringRule.k_approval(3), 3)
        with pytest.raises(RuleUndefinedAtM):
            realize_score_vector(ScoringRule.weighted_veto(2, (1, 1)), 4)
        with pytest.raises(RuleUndefinedAtM):
            realize_score_vector(ScoringRule.fkt(3, 2), 4)
        with pytest.raises(RuleUndefinedAtM):
            realize_score_vector(ScoringRule.explicit((1, 0)), 3)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ScoringRule.weighted_veto(1, (1,))  # alpha must exceed beta_1
        with pytest.raises(ValueError):
            ScoringRule.weighted_veto(3, (1, 2))  # betas must be nonincreasing
        with pytest.raises(ValueError):
            ScoringRule.explicit((1, 1))  # constant vectors score nothing
        with pytest.raises(ValueError):
            ScoringRule.explicit((1, 2))


class TestRuleText:
    @pytest.mark.parametrize(
        "text",
        ["plurality", "veto", "borda", "approval:2", "kveto:3", "wveto:4:2,1", "fkt:2:1", "vector:3,1,0"],
    )
    def test_round_trip(self, text):
        assert rule_to_text(rule_from_text(text)) == text

    @pytest.mark.parametrize("text", ["", "approval", "approval:x", "plurality:1", "wveto:1", "nosuch"])
    def test_bad_descriptors(self, text):
        with pytest.raises(ValueError):
            rule_from_text(text)


class TestRankings:
    CANDS = (Candidate("a", (0,)), Candidate("b", (2,)), Candidate("c", (4,)))

    def test_rank_by_distance(self):
        assert rank_from_point((Fraction(1, 2),), self.CANDS) == (0, 1, 2)
        assert rank_from_point((4,), self.CANDS) == (2, 1, 0)

    def test_distance_ties_break_by_index(self):
        assert rank_from_point((1,), self.CANDS) == (0, 1, 2)
        assert rank_from_point((3,), self.CANDS) == (1, 2, 0)

    def test_score_profile_and_winners(self):
        rankings = [(0, 1, 2), (1, 0, 2), (1, 2, 0)]
        assert score_profile(rankings, ScoringRule.borda()) == (3, 5, 1)
        assert winners_of_rankings(rankings, ScoringRule.borda()) == frozenset({1})
        assert winners_of_rankings(rankings, ScoringRule.plurality()) == frozenset({1})

    def test_score_profile_rejects_non_permutations(self):
        with pytest.raises(ValueError):
            score_profile([(0, 0, 1)], ScoringRule.plurality())


class TestCanonicalVector:
    def test_examples(self):
        assert canonical_vector((5, 5, 3, 1)) == (2, 2, 1, 0)
        assert canonical_vector((1, 0, 0)) == (1, 0, 0)
        assert canonical_vector((3, 2, 1, 0)) == (3, 2, 1, 0)

    @given(st.lists(st.integers(0, 50), min_size=2, max_size=7))
    def test_idempotent_and_winner_preserving(self, scores):
        canon = canonical_vector(scores)
        assert canonical_vector(canon) == canon
        assert winners_of_scores(scores) == winners_of_scores(
            [s * 3 + 7 for s in scores]
        )
