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
from spatialvote import lfp
from spatialvote.geometry import Face, Hyperplane, RankingWithWitness
from spatialvote.lfp import InequalitySystem, LinearInequality
from spatialvote.model import _DESCRIPTORS, _LISTS, canonical_vector, squared_distance, winners_of_scores
from spatialvote.scheduling import Job, Schedule, SchedulingInstance


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
        with pytest.raises(ValueError, match=r"^voter 'v': lower > upper in dimension 1$"):
            VoterBox("v", ((0, 0), (Fraction(2), Fraction(1))))

    def test_candidate_rejects_floats(self):
        with pytest.raises(TypeError, match=r"^cannot interpret 0\.5 as a rational$"):
            Candidate("a", (1, 0.5))

    def test_profile_sorts_candidates_in_1d(self):
        profile = PartialSpatialProfile(
            1,
            (Candidate("b", (3,)), Candidate("a", (1,))),
            (),
        )
        assert [c.id for c in profile.candidates] == ["a", "b"]
        assert profile.candidate_index("b") == 1

    def test_profile_rejects_duplicate_1d_positions(self):
        with pytest.raises(ValueError, match=r"^duplicate candidate position in d=1: 'a' and 'b'$"):
            PartialSpatialProfile(1, (Candidate("a", (1,)), Candidate("b", (1,))), ())

    def test_profile_allows_duplicate_positions_in_2d(self):
        profile = PartialSpatialProfile(
            2, (Candidate("a", (1, 1)), Candidate("b", (1, 1))), ()
        )
        assert profile.num_candidates == 2

    def test_profile_rejects_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch, match=r"^candidate 'a' has 1 coordinates, expected 2$"):
            PartialSpatialProfile(2, (Candidate("a", (1,)), Candidate("b", (2, 2))), ())
        with pytest.raises(DimensionMismatch, match=r"^voter 'v' has 2 bounds, expected 1$"):
            PartialSpatialProfile(
                1,
                (Candidate("a", (1,)), Candidate("b", (2,))),
                (VoterBox("v", ((1, 2), (1, 2))),),
            )

    def test_profile_needs_two_candidates(self):
        with pytest.raises(ValueError, match=r"^an instance needs at least two candidates$"):
            PartialSpatialProfile(1, (Candidate("a", (1,)),), ())

    @pytest.mark.parametrize(
        "dimension, candidates, voters, message",
        [
            # the first failing check reports, in the order the checks run
            (0, ("a",), ("v", "v"), "dimension must be positive"),
            (1, ("a", "a"), ("v", "v"), "candidate ids must be unique"),
            (1, ("a", "b"), ("v", "v"), "voter ids must be unique"),
        ],
    )
    def test_profile_check_order(self, dimension, candidates, voters, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            PartialSpatialProfile(
                dimension,
                [Candidate(c, (i,)) for i, c in enumerate(candidates)],
                [VoterBox(v, ((0, 1),)) for v in voters],
            )


def _row():
    return LinearInequality((Fraction(1), Fraction(-1, 2)), Fraction(3), True)


#: Each record's fields in order, and a builder; each call builds a new, equal value.
RECORDS = {
    "Candidate": ("id position", lambda: Candidate("a", (1, "3/2"))),
    "VoterBox": ("id bounds", lambda: VoterBox("v", ((0, 1), ("1/2", "1/2")))),
    "PartialSpatialProfile": (
        "dimension candidates voters",
        lambda: PartialSpatialProfile(
            1, (Candidate("b", (2,)), Candidate("a", (1,))), (VoterBox("v", ((0, 3),)),)
        ),
    ),
    "ScoringRule": ("kind k t alpha betas vector", lambda: ScoringRule.weighted_veto(3, (2, 1))),
    "LinearInequality": ("coeffs constant strict", _row),
    "InequalitySystem": ("dimension inequalities", lambda: InequalitySystem(2, (_row(), _row().negation()))),
    "Hyperplane": (
        "coeffs constant pair",
        lambda: Hyperplane((Fraction(2), Fraction(0)), Fraction(3), (0, 1)),
    ),
    "Face": ("inequalities witness", lambda: Face((_row(),), (Fraction(0), Fraction(0)))),
    "RankingWithWitness": ("ranking witness", lambda: RankingWithWitness((1, 0), (Fraction(1, 2),))),
    "Job": ("id arrival deadline processing", lambda: Job("j", 1, 5, 2)),
    "SchedulingInstance": (
        "jobs machines",
        lambda: SchedulingInstance([Job("j", 1, 5, 2), Job("k", 2, 6, 2)], 1),
    ),
    "Schedule": ("assignments", lambda: Schedule({"j": (1, 0)})),
}


@pytest.mark.parametrize("name", RECORDS)
class TestRecords:
    """What every public record keeps: its fields in order, read-only, the
    keyword ``Name(field=value, ...)`` repr, value equality and a hash over
    the field values."""

    def test_fields_are_read_only(self, name):
        fields, build = RECORDS[name]
        record = build()
        assert type(record).__name__ == name
        assert type(record)(*(getattr(record, f) for f in fields.split())) == record
        for field in fields.split():
            with pytest.raises(AttributeError):
                setattr(record, field, getattr(record, field))
        assert record == build()

    def test_repr_names_every_field(self, name):
        fields, build = RECORDS[name]
        record = build()
        shown = ", ".join(f"{f}={getattr(record, f)!r}" for f in fields.split())
        assert repr(record) == f"{name}({shown})"

    def test_equal_values_hash_equal(self, name):
        fields, build = RECORDS[name]
        a, b = build(), build()
        assert a == b and a is not b
        if name == "Schedule":  # it holds a dict
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b) == hash(tuple(getattr(a, f) for f in fields.split()))


class TestRecordConstruction:
    def test_repr(self):
        assert repr(Candidate("a", (1,))) == "Candidate(id='a', position=(Fraction(1, 1),))"

    def test_keyword_construction(self):
        doc = {"id": "j", "arrival": 1, "deadline": 4, "processing": 2}
        assert Job(**doc) == Job("j", 1, 4, 2)
        assert Candidate(position=("1/2",), id="a").position == (Fraction(1, 2),)

    def test_scoring_rule_defaults(self):
        rule = ScoringRule("fkt", k=2, t=1)
        assert (rule.alpha, rule.betas, rule.vector) == (None, (), ())
        assert ScoringRule("plurality") == ScoringRule.plurality()
        assert ScoringRule.plurality() == ScoringRule("plurality", None, None, None, (), ())
        assert ScoringRule.k_approval(2) == ScoringRule(kind="k-approval", k=2)

    def test_linear_inequality_defaults_to_nonstrict(self):
        q = LinearInequality((Fraction(1),), Fraction(2))
        assert q.strict is False and q == LinearInequality((Fraction(1),), Fraction(2), False)

    def test_integer_row_is_computed_once_per_object(self, monkeypatch):
        calls = []
        primitive = lfp._primitive
        monkeypatch.setattr(lfp, "_primitive", lambda *a: calls.append(a) or primitive(*a))
        q = _row()
        first = q.integer_row
        assert q.integer_row is first and first == ((2, -1, 6), True)
        assert len(calls) == 1
        assert _row().integer_row == first and len(calls) == 2


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

    def test_weighted_veto_needs_a_beta(self):
        with pytest.raises(ValueError, match="^weighted veto needs at least one beta$"):
            ScoringRule.weighted_veto(3, ())

    def test_needs_two_candidates(self):
        with pytest.raises(RuleUndefinedAtM, match="^need at least two candidates$"):
            realize_score_vector(ScoringRule.plurality(), 1)


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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("approval:0", "bad rule descriptor 'approval:0': k-approval needs k >= 1"),
            ("wveto:1", "bad rule descriptor 'wveto:1'"),
            ("fkt:2:x", "bad rule descriptor 'fkt:2:x': invalid literal for int() with base 10: 'x'"),
            ("vector:3,,0", "bad rule descriptor 'vector:3,,0': invalid literal for int() with base 10: ''"),
            ("approval:1_0", "bad rule descriptor 'approval:1_0': '1_0' is not a canonical integer"),
            ("approval: 2", "bad rule descriptor 'approval: 2': ' 2' is not a canonical integer"),
            ("fkt:+2:1", "bad rule descriptor 'fkt:+2:1': '+2' is not a canonical integer"),
            ("vector:3, 1,0", "bad rule descriptor 'vector:3, 1,0': ' 1' is not a canonical integer"),
            ("approval:02", "bad rule descriptor 'approval:02': '02' is not a canonical integer"),
            ("vector:2,-0", "bad rule descriptor 'vector:2,-0': '-0' is not a canonical integer"),
        ],
    )
    def test_bad_descriptor_messages(self, text, message):
        with pytest.raises(ValueError) as info:
            rule_from_text(text)
        assert str(info.value) == message

    def test_kind_without_text(self):
        with pytest.raises(ValueError, match="has no textual form$"):
            rule_to_text(ScoringRule("nosuch"))

    # valid parameters of every rule kind: multi-digit values, several betas
    # and long vectors, each list nonincreasing
    NATURALS = st.lists(st.integers(0, 10**6), min_size=1, max_size=12).map(lambda xs: sorted(xs, reverse=True))
    KINDS = {
        "plurality": st.just(ScoringRule.plurality()),
        "veto": st.just(ScoringRule.veto()),
        "borda": st.just(ScoringRule.borda()),
        "k-approval": st.builds(ScoringRule.k_approval, st.integers(1, 10**6)),
        "k-veto": st.builds(ScoringRule.k_veto, st.integers(1, 10**6)),
        "weighted-veto": st.builds(
            lambda betas, gap: ScoringRule.weighted_veto(betas[0] + gap, betas), NATURALS, st.integers(1, 10**6)
        ),
        "fkt": st.builds(ScoringRule.fkt, st.integers(1, 10**6), st.integers(1, 10**6)),
        "vector": st.builds(
            lambda tail, gap: ScoringRule.explicit([tail[0] + gap] + tail), NATURALS, st.integers(1, 10**6)
        ),
    }

    @pytest.mark.parametrize("kind", sorted(KINDS))
    @given(data=st.data())
    def test_text_round_trip_of_every_kind(self, kind, data):
        rule = data.draw(self.KINDS[kind])
        assert rule.kind == kind
        assert rule_from_text(rule_to_text(rule)) == rule

    # one number as a user might type it: canonical, or with a sign, a
    # leading zero, an underscore or a space
    SPELLINGS = st.builds(
        "{}{}{}{}".format,
        st.sampled_from(["", "", " "]),
        st.sampled_from(["", "", "+", "-"]),
        st.sampled_from(["", "", "0"]),
        st.sampled_from(["0", "1", "2", "9", "10", "1_0"]),
    )

    @pytest.mark.parametrize("kind", sorted(_DESCRIPTORS))
    @given(data=st.data())
    def test_accepted_text_round_trips(self, kind, data):
        name, _, fields = _DESCRIPTORS[kind]
        params = [
            data.draw(st.lists(self.SPELLINGS, min_size=1, max_size=3).map(",".join) if f in _LISTS else self.SPELLINGS)
            for f in fields
        ]
        text = ":".join([name, *params])
        try:
            rule = rule_from_text(text)
        except ValueError:
            return
        assert rule_to_text(rule) == text


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

    def test_score_profile_needs_a_ranking(self):
        with pytest.raises(ValueError, match="^need at least one ranking$"):
            score_profile([], ScoringRule.plurality())

    def test_squared_distance_needs_equal_lengths(self):
        with pytest.raises(DimensionMismatch, match="^points of length 1 and 2$"):
            squared_distance((0,), (0, 0))


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
