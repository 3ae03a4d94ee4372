import hashlib
import json
import random
from collections import Counter
from fractions import Fraction
from functools import partial

import pytest

from gen_helpers import check_winner_set, random_profile_1d, random_profile_2d
from sweep_reference import reference_tie_points_1d
from spatialvote import (
    Candidate,
    NoPolynomialAlgorithm,
    PartialSpatialProfile,
    RuleMismatch,
    ScoringRule,
    UnknownCandidate,
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
    rule_from_text,
)
from spatialvote import geometry, oracle, winners
from spatialvote.cli import generate_election
from spatialvote.errors import DimensionMismatch, InstanceTooLarge, SelfCheckFailed
from spatialvote.geometry import ranking_completions
from spatialvote.model import realize_score_vector
from spatialvote.winners import _FlowNetwork, _voter_types, _window, approval_windows_1d


def line_profile(positions, boxes):
    candidates = tuple(Candidate(f"c{i + 1}", (Fraction(x),)) for i, x in enumerate(positions))
    voters = tuple(
        VoterBox(f"v{i + 1}", ((Fraction(a), Fraction(b)),)) for i, (a, b) in enumerate(boxes)
    )
    return PartialSpatialProfile(1, candidates, voters)


REFERENCE = line_profile([1, 2, 3], [(1, 3)])


def completion_window(candidates, k, bounds, admissible):
    """`winners._window` read from the completions: the consecutive window of
    the admissible top-k sets, None without any, "gap" if not consecutive."""
    approved = {
        cand for rw in ranking_completions(candidates, bounds) if admissible(rw.ranking) for cand in rw.ranking[:k]
    }
    if not approved:
        return None
    lo, hi = min(approved), max(approved)
    return (lo, hi) if len(approved) == hi - lo + 1 else "gap"


def run_window(candidates, k, bounds, admissible):
    try:
        return _window(candidates, k, bounds, admissible)
    except SelfCheckFailed:
        return "gap"


def completion_types(profile, vec):
    """The voter types of `winners._voter_types`, with each voter's
    completions scored."""
    types = Counter()
    for voter in profile.voters:
        scores = set()
        for rw in ranking_completions(profile.candidates, voter.bounds):
            score = [0] * len(vec)
            for pos, cand in enumerate(rw.ranking):
                score[cand] = vec[pos]
            scores.add(tuple(score))
        types[frozenset(scores)] += 1
    return types


def lead_loop_nw(profile, vec):
    """The necessary winners by the per-(type, c, rival) lead loop that
    `necessary_winner`'s fieldwise fold replaced, over completion-scored types."""
    m = len(vec)
    lead = {c: [0] * m for c in range(m)}
    for scores, n in completion_types(profile, vec).items():
        for c, total in lead.items():
            for r in range(m):
                total[r] += n * max(score[r] - score[c] for score in scores)
    return frozenset(c for c, total in lead.items() if max(total) <= 0)


def many_voters_on_few_boxes(rng, dimension, m=5, n=60, num_boxes=4):
    """`n` voters that share `num_boxes` distinct boxes on a half-integer grid."""
    base = (random_profile_1d if dimension == 1 else random_profile_2d)(rng, m, 0)
    boxes = []
    for _ in range(num_boxes):
        corner = [Fraction(rng.randint(-16, 16), 2) for _ in range(dimension)]
        boxes.append(tuple((x, x + Fraction(rng.randint(0, 8), 2)) for x in corner))
    voters = tuple(VoterBox(f"v{i + 1}", rng.choice(boxes)) for i in range(n))
    return PartialSpatialProfile(dimension, base.candidates, voters)


def nw_cross_check_instances(rng):
    """Seeded (profile, rules) pairs over d = 1 and 2 covering every rule
    family: 1D integer and shared-box profiles, small 2D boxes, point boxes
    (one-ranking voters) and every ninth profile with no voter."""
    for trial in range(120):
        d = 1 + trial % 2
        m = rng.randint(2, 7 if d == 1 else 5)
        n = 0 if trial % 9 == 0 else rng.randint(1, 6 if trial % 5 else 24)
        if d == 1 and trial % 4 == 1:
            profile = many_voters_on_few_boxes(rng, 1, m=m, n=n, num_boxes=rng.randint(1, 3))
        elif d == 1:
            profile = random_profile_1d(rng, m, n)
        else:
            profile = random_profile_2d(rng, m, n, max_side=rng.choice((1, 8)))
        if trial % 3 == 0:  # a point box has one ranking, so its type holds one vector
            voters = list(profile.voters)
            for i in rng.sample(range(n), n // 2):
                point = tuple((lo, lo) for lo, _ in voters[i].bounds)
                voters[i] = VoterBox(voters[i].id, point)
            profile = PartialSpatialProfile(d, profile.candidates, tuple(voters))
        vectors = [sorted(rng.sample(range(10), m), reverse=True)]
        repeats = sorted((rng.randint(0, 9) for _ in range(m)), reverse=True)
        if repeats[0] > repeats[-1]:
            vectors.append(repeats)
        rules = [
            ScoringRule.plurality(),
            ScoringRule.veto(),
            ScoringRule.borda(),
            *(ScoringRule.k_approval(k) for k in range(1, m)),
            *(ScoringRule.k_veto(k) for k in range(1, m)),
            *(ScoringRule.fkt(k, t) for k in range(1, m) for t in range(1, m - k + 1)),
            *(
                ScoringRule.weighted_veto(rng.randint(5, 7), sorted(rng.sample(range(5), b), reverse=True))
                for b in range(1, (m + 1) // 2)
            ),
            *(ScoringRule.explicit(vec) for vec in vectors),
        ]
        yield profile, rules


class TestApprovalWindows:
    def test_reference_instance(self):
        assert approval_windows_1d(REFERENCE, 1) == Counter({(0, 2): 1})
        assert approval_windows_1d(REFERENCE, 2) == Counter({(0, 2): 1})

    def test_degenerate_voter(self):
        profile = line_profile([1, 2, 3], [(2, 2)])
        assert approval_windows_1d(profile, 1) == Counter({(1, 1): 1})
        profile = line_profile([1, 2, 3], [(2, 2), (1, 3), (2, 2)])
        assert approval_windows_1d(profile, 1) == Counter({(1, 1): 2, (0, 2): 1})

    def test_needs_1d(self):
        profile = PartialSpatialProfile(
            2, (Candidate("a", (0, 0)), Candidate("b", (1, 1))), ()
        )
        with pytest.raises(DimensionMismatch):
            approval_windows_1d(profile, 1)

    @pytest.mark.parametrize("k", [0, 3, -1])
    def test_k_outside_two_valued_range(self, k):
        with pytest.raises(RuleMismatch):
            approval_windows_1d(REFERENCE, k)

    def test_run_window_matches_completion_window(self):
        """On 400 seeded boxes (ends on tie points, point boxes, boxes past
        the outermost midpoint, sorted and shuffled candidates), the window
        read off the arrangement run equals the one read off the completions
        for every k, unfiltered and under every F(k, t) admissible filter."""
        rng = random.Random(2301)
        outcomes, kinds = Counter(), Counter()
        for _ in range(100):
            m = rng.randint(2, 6)
            profile = random_profile_1d(rng, m, 2, span=6)
            candidates = list(profile.candidates)
            if rng.random() < 0.5:
                rng.shuffle(candidates)
            candidates = tuple(candidates)
            ties = reference_tie_points_1d(candidates, (Fraction(-6), Fraction(6)))
            tie, x = rng.choice(ties), Fraction(rng.randint(-40, 40), 4)
            boxes = [v.bounds for v in profile.voters] + [((tie, tie),), ((min(tie, x), max(tie, x)),)]
            filters = [lambda ranking: True] + [
                partial(lambda c, t, ranking: ranking.index(c) < m - t, c, t) for c in range(m) for t in range(1, m)
            ]
            for bounds in boxes:
                ((lo, hi),) = bounds
                kinds["point"] += lo == hi
                kinds["beyond"] += hi < ties[0] or lo > ties[-1]
                kinds["shuffled"] += candidates != profile.candidates
                for k in range(1, m):
                    for admissible in filters:
                        got = run_window(candidates, k, bounds, admissible)
                        assert got == completion_window(candidates, k, bounds, admissible)
                        outcomes[got if got in (None, "gap") else "window"] += 1
        assert set(outcomes) == {None, "gap", "window"}
        assert min(kinds.values()) > 0


class TestTwoValued1D:
    def test_reference_instance(self):
        for k in (1, 2):
            check_winner_set(lambda cs: pw_two_valued_1d(REFERENCE, k, cs), 3, {0, 1, 2})

    def test_no_supporters(self):
        profile = line_profile([0, 1, 10], [(0, 1), (0, 1)])
        check_winner_set(lambda cs: pw_two_valued_1d(profile, 1, cs), 3, {0, 1})

    def test_no_voters(self):
        profile = line_profile([0, 1], [])
        check_winner_set(lambda cs: pw_two_valued_1d(profile, 1, cs), 2, {0, 1})

    def test_matches_oracle(self):
        rng = random.Random(41)
        for _ in range(80):
            m = rng.randint(2, 6)
            profile = random_profile_1d(rng, m, rng.randint(1, 4))
            k = rng.randint(1, m - 1)
            expected = brute_pw(profile, ScoringRule.k_approval(k))
            check_winner_set(lambda cs: pw_two_valued_1d(profile, k, cs), m, expected)


class TestWeightedVeto1D:
    def test_middle_band_always_possible(self):
        profile = line_profile([0, 1, 2], [(0, 0)])
        rule = ScoringRule.weighted_veto(2, (1,))
        check_winner_set(lambda cs: pw_weighted_veto_1d(profile, rule, cs), 3, {0, 1})

    def test_rule_kind_checked(self):
        with pytest.raises(RuleMismatch):
            pw_weighted_veto_1d(REFERENCE, ScoringRule.borda(), (0,))

    def test_matches_oracle(self):
        rng = random.Random(43)
        for _ in range(80):
            m = rng.randint(3, 6)
            profile = random_profile_1d(rng, m, rng.randint(1, 4))
            band = rng.randint(1, (m - 1) // 2)
            betas = tuple(sorted((rng.randint(0, 2) for _ in range(band)), reverse=True))
            rule = ScoringRule.weighted_veto(betas[0] + rng.randint(1, 2), betas)
            expected = brute_pw(profile, rule)
            check_winner_set(lambda cs: pw_weighted_veto_1d(profile, rule, cs), m, expected)


class TestFkt1D:
    def test_requires_k_greater_than_t(self):
        with pytest.raises(RuleMismatch):
            pw_fkt_1d(REFERENCE, ScoringRule.fkt(1, 1), (0,))

    def test_rule_kind_checked(self):
        with pytest.raises(RuleMismatch):
            pw_fkt_1d(REFERENCE, ScoringRule.k_approval(2), (0,))

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
            check_winner_set(lambda cs: pw_fkt_1d(profile, rule, cs), m, expected)

    def test_admissible_region_is_one_interval(self):
        # pw_fkt_1d reads an edge candidate's approval window from the admissible
        # completions alone; that window is consecutive because those completions
        # are exactly the ones of one interval, the span of their witnesses
        rng = random.Random(71)
        for _ in range(60):
            m = rng.randint(3, 7)
            profile = random_profile_1d(rng, m, 3)
            ties = reference_tie_points_1d(profile.candidates, (Fraction(-8), Fraction(8)))
            boxes = list(profile.voters)
            for i, x in enumerate(rng.sample(ties, min(3, len(ties)))):
                other = Fraction(rng.randint(-8, 8))
                boxes.append(VoterBox(f"tie{i}", ((min(x, other), max(x, other)),)))
            for box in boxes:
                completions = ranking_completions(profile.candidates, box.bounds)
                for c in range(m):
                    for t in range(1, m):
                        admissible = [rw for rw in completions if rw.ranking.index(c) < m - t]
                        if not admissible:
                            continue
                        xs = [rw.witness[0] for rw in admissible]
                        shrunk = VoterBox(box.id, ((min(xs), max(xs)),))
                        kept = ranking_completions(profile.candidates, shrunk.bounds)
                        assert {rw.ranking for rw in kept} == {rw.ranking for rw in admissible}


class TestFlows:
    def test_plurality_matches_oracle_2d(self):
        rng = random.Random(53)
        for _ in range(60):
            profile = random_profile_2d(rng, rng.randint(2, 5), rng.randint(1, 4))
            expected = brute_pw(profile, ScoringRule.plurality())
            check_winner_set(lambda cs: pw_plurality(profile, cs), profile.num_candidates, expected)

    def test_veto_matches_oracle_2d(self):
        rng = random.Random(59)
        for _ in range(60):
            profile = random_profile_2d(rng, rng.randint(2, 5), rng.randint(1, 4))
            expected = brute_pw(profile, ScoringRule.veto())
            check_winner_set(lambda cs: pw_veto(profile, cs), profile.num_candidates, expected)

    def test_no_voters(self):
        profile = PartialSpatialProfile(
            2, (Candidate("a", (0, 0)), Candidate("b", (1, 1))), ()
        )
        check_winner_set(lambda cs: pw_plurality(profile, cs), 2, {0, 1})
        check_winner_set(lambda cs: pw_veto(profile, cs), 2, {0, 1})

    @pytest.mark.parametrize("dimension", [1, 2])
    @pytest.mark.parametrize(
        "rule, last", [(ScoringRule.plurality(), False), (ScoringRule.veto(), True)], ids=["plurality", "veto"]
    )
    def test_one_node_per_voter_type(self, monkeypatch, dimension, rule, last):
        sizes = []
        init = _FlowNetwork.__init__

        def record(net, num_nodes):
            sizes.append(num_nodes)
            init(net, num_nodes)

        monkeypatch.setattr(_FlowNetwork, "__init__", record)
        rng = random.Random(61 + dimension)
        networks = 0
        for _ in range(12):
            profile = many_voters_on_few_boxes(rng, dimension)
            sizes.clear()
            assert possible_winner(profile, rule, range(5)) == brute_pw(profile, rule, 10**100)
            # the distinct first- (last-) place sets, read here straight off
            # the completions in 1D and the Voronoi cells in 2D
            boxes = {v.bounds for v in profile.voters}
            if dimension == 1:
                pos = -1 if last else 0
                sets = {
                    frozenset(rw.ranking[pos] for rw in ranking_completions(profile.candidates, b))
                    for b in boxes
                }
            else:
                sets = {geometry.place_sets(profile.candidates, b, last) for b in boxes}
            assert all(size <= 2 + len(sets) + 5 for size in sizes)
            networks += len(sizes)
        assert networks > 0


class TestPlaceSetRoutes:
    """The flows, and NW under plurality and veto, read place sets off
    Voronoi cells in d >= 2, never the completions; in d = 1 the flows read
    them off the completions and NW reads the arrangement runs, never the
    LFP."""

    @pytest.mark.parametrize(
        "dimension, module, name",
        [(1, geometry, "feasible"), (2, winners, "ranking_completions"), (3, winners, "ranking_completions")],
    )
    def test_flows_take_one_path_per_dimension(self, monkeypatch, dimension, module, name):
        profiles = [generate_election(seed, dimension, 5, 4, 4, 2) for seed in range(6)]
        rules = (ScoringRule.plurality(), ScoringRule.veto())
        expected = [[(brute_pw(p, rule), brute_nw(p, rule)) for rule in rules] for p in profiles]

        def refuse(*args):
            raise AssertionError(f"a d={dimension} flow called {name}")

        monkeypatch.setattr(module, name, refuse)
        for profile, ((plurality, nw_plurality), (veto, nw_veto)) in zip(profiles, expected):
            assert pw_plurality(profile, range(5)) == plurality
            assert pw_veto(profile, range(5)) == veto
            assert necessary_winner(profile, rules[0], range(5)) == nw_plurality
            assert necessary_winner(profile, rules[1], range(5)) == nw_veto

    def test_necessary_winner_from_place_sets_matches_oracle(self):
        """Seeded 2D and 3D profiles, m = 2..5, with plurality and veto given
        by name and by scaled explicit vectors; every verdict occurs."""
        rng = random.Random(1805)
        verdicts = set()
        for _ in range(60):
            d, m = rng.choice((2, 3)), rng.randint(2, 5)
            profile = generate_election(rng.randrange(10**6), d, m, rng.randint(1, 4), 3, 2)
            rules = [
                ScoringRule.plurality(),
                ScoringRule.veto(),
                ScoringRule.explicit((5,) + (2,) * (m - 1)),
                ScoringRule.explicit((3,) * (m - 1) + (1,)),
            ]
            for rule in rules:
                nw = brute_nw(profile, rule)
                check_winner_set(lambda cs: necessary_winner(profile, rule, cs), m, nw)
                verdicts.add(bool(nw))
        assert verdicts == {False, True}


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
                check_winner_set(
                    lambda cs: necessary_winner(profile, rule, cs),
                    profile.num_candidates,
                    brute_nw(profile, rule),
                )

    def test_degenerate_profile(self):
        profile = line_profile([0, 1, 2], [(0, 0)])
        check_winner_set(
            lambda cs: necessary_winner(profile, ScoringRule.plurality(), cs), 3, {0}
        )

    def test_voter_types_keep_every_verdict(self):
        """Seeded d = 1..3 profiles whose voters repeat a few boxes, under
        plurality, veto, borda, approval:2, fkt:2:1 and scaled plurality and
        veto vectors.  Every verdict equals `brute_nw`'s, and the digest of
        all of them equals that of the per-voter loop this one replaced."""
        rng = random.Random(3)
        verdicts = []
        for _ in range(30):
            d, m = rng.choice((1, 2, 3)), rng.randint(4, 5)
            base = generate_election(rng.randrange(10**6), d, m, rng.randint(1, 3), 3, 2)
            boxes = [v.bounds for v in base.voters]
            voters = tuple(VoterBox(f"v{i + 1}", rng.choice(boxes)) for i in range(rng.randint(1, 12)))
            profile = PartialSpatialProfile(d, base.candidates, voters)
            rules = [
                ScoringRule.plurality(),
                ScoringRule.veto(),
                ScoringRule.borda(),
                ScoringRule.k_approval(2),
                ScoringRule.fkt(2, 1),
                ScoringRule.explicit((5,) + (2,) * (m - 1)),
                ScoringRule.explicit((3,) * (m - 1) + (1,)),
            ]
            for rule in rules:
                nw = necessary_winner(profile, rule, range(m))
                assert nw == brute_nw(profile, rule, 10**100)
                verdicts.append(sorted(nw))
        assert {bool(nw) for nw in verdicts} == {False, True}
        digest = hashlib.sha256(json.dumps(verdicts).encode()).hexdigest()
        assert digest == "44c34cb95ebf5bebb4a17ceef53a1dde3ffb5a9ea0b2fb9824a480b75b0770d2"

    def test_one_completion_lookup_per_distinct_box(self, monkeypatch):
        """In d = 1, NW under every rule, plurality and veto included,
        reads each distinct box's arrangement run once and enumerates no
        completion; in d = 2 it looks each distinct box's completions up
        once."""
        lookups, runs = [], []

        def counting(candidates, bounds):
            lookups.append(bounds)
            return ranking_completions(candidates, bounds)

        def counting_runs(candidates, interval):
            runs.append(interval)
            return geometry.arrangement_run_1d(candidates, interval)

        monkeypatch.setattr(winners, "ranking_completions", counting)
        monkeypatch.setattr(winners, "arrangement_run_1d", counting_runs)
        profile = many_voters_on_few_boxes(random.Random(1805), 1)
        boxes = {v.bounds for v in profile.voters}
        assert len(profile.voters) > len(boxes)
        rules = (
            ScoringRule.borda(),
            ScoringRule.k_approval(3),
            ScoringRule.k_veto(2),
            ScoringRule.plurality(),
            ScoringRule.veto(),
        )
        for rule in rules:
            lookups.clear()
            runs.clear()
            assert necessary_winner(profile, rule, range(5)) == brute_nw(profile, rule, 10**100)
            assert not lookups
            assert sorted(runs) == sorted(bounds[0] for bounds in boxes)
        # 20 voters keep `brute_nw`'s 2D Borda fold well under a second
        profile = many_voters_on_few_boxes(random.Random(1805), 2, n=20)
        boxes = {v.bounds for v in profile.voters}
        lookups.clear()
        runs.clear()
        borda = ScoringRule.borda()
        assert necessary_winner(profile, borda, range(5)) == brute_nw(profile, borda, 10**100)
        assert len(profile.voters) > len(boxes) == len(lookups) == len(set(lookups))
        assert not runs

    @pytest.mark.parametrize("kind", ["approval", "kveto", "borda", "fkt", "wveto", "vector"])
    def test_run_scored_types_match_completions(self, kind):
        """Under every rule of each family, plurality and veto included as
        approval:1 and kveto:1, the 1D voter types scored from the
        arrangement runs equal the completion-scored types, and NW equals
        `brute_nw`."""
        rng = random.Random(2302)
        sizes = set()
        most = 30 if kind in ("approval", "kveto") else 16  # `brute_nw`'s fold grows fast with n under many-valued rules
        for trial in range(40):
            m = rng.randint(3, 7)
            if trial % 2:
                profile = many_voters_on_few_boxes(rng, 1, m=m, n=rng.randint(2, most), num_boxes=rng.randint(1, 4))
            else:
                profile = random_profile_1d(rng, m, rng.randint(1, 4))
            rules = {
                "approval": [ScoringRule.k_approval(k) for k in range(1, m)],
                "kveto": [ScoringRule.k_veto(k) for k in range(1, m)],
                "borda": [ScoringRule.borda()],
                "fkt": [ScoringRule.fkt(k, t) for k in range(1, m) for t in range(1, m - k + 1)],
                "wveto": [
                    ScoringRule.weighted_veto(rng.randint(5, 7), sorted(rng.sample(range(5), b), reverse=True))
                    for b in range(1, (m + 1) // 2)
                ],
                "vector": [
                    ScoringRule.explicit(sorted(rng.sample(range(10), m), reverse=True)) for _ in range(3)
                ],
            }[kind]
            for rule in rules:
                vec = realize_score_vector(rule, m)
                assert _voter_types(profile, vec) == completion_types(profile, vec)
                nw = necessary_winner(profile, rule, range(m))
                assert nw == brute_nw(profile, rule, 10**100)
                sizes.add(len(nw))
        assert len(sizes) > 1

    def test_fieldwise_fold_matches_oracle_and_lead_loop(self):
        """Over 9,000+ seeded verdicts in d = 1 and 2, under every rule
        family, for range(m) and for every single candidate, the fieldwise
        fold equals `brute_nw` where its guard of 2,000 pairs over the whole
        fold allows and the per-(type, c, rival) lead loop elsewhere; with no
        voter every candidate wins."""
        rng = random.Random(2502)
        cases, kinds, type_sizes = 0, Counter(), set()
        for profile, rules in nw_cross_check_instances(rng):
            m = profile.num_candidates
            for rule in rules:
                vec = realize_score_vector(rule, m)
                try:
                    expected, kind = brute_nw(profile, rule, 2_000), "brute"
                except InstanceTooLarge:
                    expected, kind = lead_loop_nw(profile, vec), "loop"
                if not profile.voters:
                    assert expected == frozenset(range(m))
                    kind = "empty"
                assert necessary_winner(profile, rule, range(m)) == expected
                for c in range(m):
                    assert necessary_winner(profile, rule, (c,)) == {c} & expected
                cases += m + 1
                kinds[kind, profile.dimension] += 1
                type_sizes.update(len(scores) == 1 for scores in completion_types(profile, vec))
        assert cases >= 9000
        assert all(kinds[kind, d] for kind in ("brute", "loop", "empty") for d in (1, 2))
        assert type_sizes == {False, True}


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
            possible_winner(REFERENCE, ScoringRule.borda(), (0,))
        check_winner_set(
            lambda cs: possible_winner(REFERENCE, ScoringRule.borda(), cs, allow_exponential=True),
            3,
            brute_pw(REFERENCE, ScoringRule.borda()),
        )

    def test_one_oracle_pass_per_query(self, monkeypatch):
        passes = []
        winner_sets = oracle._winner_sets

        def counting(*args):
            passes.append(args)
            return winner_sets(*args)

        monkeypatch.setattr(oracle, "_winner_sets", counting)
        profile = line_profile([0, 1, 2, 3, 4], [(0, 4), (1, 2), (3, 4)])
        borda = ScoringRule.borda()
        got = possible_winner(profile, borda, range(5), allow_exponential=True)
        assert len(passes) == 1
        assert got == winner_sets(profile, borda, oracle.DEFAULT_GUARD)[0]
        with pytest.raises(UnknownCandidate):
            possible_winner(profile, borda, (5,), allow_exponential=True)
        with pytest.raises(UnknownCandidate):
            necessary_winner(profile, borda, (0, -1))
        routes = (
            pw_plurality,
            pw_veto,
            partial(pw_two_valued_1d, k=2),
            partial(pw_weighted_veto_1d, rule=ScoringRule.weighted_veto(3, (2, 1))),
            partial(pw_fkt_1d, rule=ScoringRule.fkt(2, 1)),
        )
        for route in routes:
            for bad in (5, -1):
                with pytest.raises(UnknownCandidate):
                    route(profile, candidates=(0, bad))

    @pytest.mark.parametrize(
        "rule, route",
        [
            ("plurality", "plurality-flow"),
            ("veto", "veto-flow"),
            ("approval:3", "two-valued-1d"),
            ("kveto:2", "two-valued-1d"),
            ("wveto:3:2,1", "weighted-veto-1d"),
            ("fkt:2:1", "fkt-1d"),
        ],
    )
    def test_one_completion_lookup_per_distinct_box(self, monkeypatch, rule, route):
        """The 1D flows look each distinct box's completions up once.  The
        window routes enumerate no completion: they read each distinct box's
        arrangement run once, and F(k, t) at most once more per edge
        candidate."""
        lookups, runs = [], []

        def counting(candidates, bounds):
            lookups.append(bounds)
            return ranking_completions(candidates, bounds)

        def counting_runs(candidates, interval):
            runs.append(interval)
            return geometry.arrangement_run_1d(candidates, interval)

        monkeypatch.setattr(winners, "ranking_completions", counting)
        monkeypatch.setattr(winners, "arrangement_run_1d", counting_runs)
        profile = many_voters_on_few_boxes(random.Random(73), 1)
        boxes = len({v.bounds for v in profile.voters})
        assert len(profile.voters) > boxes
        rule = rule_from_text(rule)
        assert route_for(profile, rule) == route
        assert possible_winner(profile, rule, range(5)) == brute_pw(profile, rule, 10**100)
        if route in ("plurality-flow", "veto-flow"):
            assert len(lookups) == boxes and not runs
        elif route == "fkt-1d":
            assert not lookups and 0 < len(runs) <= boxes * (1 + 2 * rule.t)
        else:
            assert not lookups and len(runs) == boxes

    @pytest.mark.parametrize("rule", [ScoringRule.plurality(), ScoringRule.veto()], ids=["plurality", "veto"])
    def test_one_place_set_per_distinct_box_2d(self, monkeypatch, rule):
        calls = []

        def counting(candidates, bounds, last):
            calls.append(bounds)
            return geometry.place_sets(candidates, bounds, last)

        monkeypatch.setattr(winners, "place_sets", counting)
        profile = many_voters_on_few_boxes(random.Random(79), 2)
        boxes = len({v.bounds for v in profile.voters})
        assert len(profile.voters) > boxes
        assert possible_winner(profile, rule, range(5)) == brute_pw(profile, rule, 10**100)
        assert len(calls) == boxes
        calls.clear()
        assert necessary_winner(profile, rule, range(5)) == brute_nw(profile, rule, 10**100)
        assert len(calls) == boxes

    def test_box_types_keep_every_verdict(self):
        """Seeded d = 1..3 profiles whose voters repeat a few boxes, under
        every polynomial possible-winner route.  Every verdict equals
        `brute_pw`'s, and the digest of all of them equals that of the
        per-voter loops the per-box counts replaced."""
        rng = random.Random(21)
        verdicts = []
        routes = set()
        for _ in range(30):
            d, m = rng.choice((1, 2, 3)), rng.randint(5, 6)
            base = generate_election(rng.randrange(10**6), d, m, rng.randint(1, 3), 3, 2)
            boxes = [v.bounds for v in base.voters]
            voters = tuple(VoterBox(f"v{i + 1}", rng.choice(boxes)) for i in range(rng.randint(1, 12)))
            profile = PartialSpatialProfile(d, base.candidates, voters)
            rules = [
                ScoringRule.plurality(),
                ScoringRule.veto(),
                ScoringRule.explicit((5,) + (2,) * (m - 1)),
                ScoringRule.explicit((3,) * (m - 1) + (1,)),
            ]
            if d == 1:
                rules += [
                    ScoringRule.k_approval(2),
                    ScoringRule.k_veto(2),
                    ScoringRule.weighted_veto(3, (2, 1)),
                    ScoringRule.fkt(2, 1),
                    ScoringRule.fkt(3, 1),
                ]
            for rule in rules:
                routes.add(route_for(profile, rule))
                pw = possible_winner(profile, rule, range(m))
                assert pw == brute_pw(profile, rule, 10**100)
                verdicts.append(sorted(pw))
        assert routes == {"plurality-flow", "veto-flow", "two-valued-1d", "weighted-veto-1d", "fkt-1d"}
        assert {len(pw) for pw in verdicts} == set(range(1, 7))
        digest = hashlib.sha256(json.dumps(verdicts).encode()).hexdigest()
        assert digest == "39d50ca5534252d81e3a13aca490f63af5268e8187fc73116cdc519eb6893a6b"

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
                check_winner_set(
                    lambda cs: possible_winner(profile, rule, cs), m, brute_pw(profile, rule)
                )
