"""Acceptance gate: one criterion per test, one PASS/FAIL line per criterion.

Every criterion is anchored on an independent oracle (dense grid sampling,
exhaustive completion enumeration, or exhaustive scheduling search) and runs
against freshly generated random instances with pinned seeds.  Criteria 4-6
record every instance they touch; criterion 9 replays structural invariants
over that shared pool.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from math import comb

from gen_helpers import (
    check_winner_set,
    grid_rankings_1d,
    random_equal_length_instance,
    random_profile_1d,
    random_profile_2d,
    random_reduction_instance,
)
from scheduling_reference import brute_force_schedule
from spatialvote import (
    Candidate,
    PartialSpatialProfile,
    ScoringRule,
    VoterBox,
    bisectors,
    brute_nw,
    brute_pw,
    enumerate_rankings_1d,
    enumerate_rankings_dd,
    feasible_equal_length,
    necessary_winner,
    possible_winner,
    pw_fkt_1d,
    pw_plurality,
    pw_two_valued_1d,
    pw_veto,
    pw_weighted_veto_1d,
    rank_from_point,
    reduce_scheduling_to_pw,
    specify_faces,
)
from spatialvote.geometry import Hyperplane, box_inequalities
from spatialvote.scheduling import check_schedule

#: (profile, rule, pw set, nw set) for every instance touched by criteria 4-6.
TOUCHED: list[tuple] = []


@contextmanager
def report(capsys, number: int, label: str, limit_s: float):
    """Time a criterion and print its verdict outside pytest's capture."""
    start = time.monotonic()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"FAIL criterion {number}: {label}")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < limit_s, f"criterion {number} took {elapsed:.1f}s, limit {limit_s}s"
    with capsys.disabled():
        print(f"PASS criterion {number}: {label} ({elapsed:.1f}s)")


def test_c1_reference_interval_rankings(capsys):
    with report(capsys, 1, "three candidates on a line, box [1,3], exactly four rankings", 1.0):
        candidates = (
            Candidate("c1", (Fraction(1),)),
            Candidate("c2", (Fraction(2),)),
            Candidate("c3", (Fraction(3),)),
        )
        out = enumerate_rankings_1d(candidates, (Fraction(1), Fraction(3)))
        assert [rw.ranking for rw in out] == [(0, 1, 2), (1, 0, 2), (1, 2, 0), (2, 1, 0)]


def test_c2_sweep_bound_and_grid_oracle(capsys):
    with report(capsys, 2, "1D sweep: count bound and dense-grid agreement, 500 instances", 30.0):
        rng = random.Random(1002)
        step = Fraction(1, 8)
        for _ in range(500):
            m = rng.randint(2, 8)
            profile = random_profile_1d(rng, m, 1)
            out = enumerate_rankings_1d(profile.candidates, profile.voters[0].bounds[0])
            assert len(out) <= comb(m, 2) + 1
            # integer positions and endpoints leave gaps of at least 1/2
            # between breakpoints, so a 1/8 grid hits every region
            assert {rw.ranking for rw in out} == grid_rankings_1d(profile, 0, step)


def test_c3_arrangement_bound(capsys):
    with report(capsys, 3, "2D arrangement: face-count bound and certified witnesses, 200 instances", 120.0):
        # three lines in general position split the plane into exactly 7 faces
        generic = [
            Hyperplane((Fraction(1), Fraction(0)), Fraction(0), (0, 1)),
            Hyperplane((Fraction(0), Fraction(1)), Fraction(0), (0, 1)),
            Hyperplane((Fraction(1), Fraction(1)), Fraction(3), (0, 1)),
        ]
        assert len(specify_faces(generic, 2)) == 7

        rng = random.Random(1003)
        for _ in range(200):
            m = rng.randint(2, 5)
            profile = random_profile_2d(rng, m, 1, max_side=4)
            h = m * (m - 1) // 2
            bound = sum(comb(h, i) for i in range(3))
            faces = specify_faces(bisectors(profile.candidates), 2)
            assert len(faces) <= bound
            box = profile.voters[0]
            inside = box_inequalities(box)
            completions = enumerate_rankings_dd(profile.candidates, box)
            assert len(completions) <= bound
            for rw in completions:
                assert rank_from_point(rw.witness, profile.candidates) == rw.ranking
                assert all(q.holds(rw.witness) for q in inside)


NW_RULES = [
    ScoringRule.plurality(),
    ScoringRule.veto(),
    ScoringRule.borda(),
    ScoringRule.k_approval(2),
    ScoringRule.fkt(2, 1),
]


def test_c4_necessary_winner_oracle_equivalence(capsys):
    with report(capsys, 4, "necessary winners match the completion oracle, 300 instances x 5 rules", 300.0):
        rng = random.Random(1004)
        for _ in range(300):
            m = rng.randint(3, 5)
            n = rng.randint(1, 4)
            if rng.random() < 0.5:
                profile = random_profile_1d(rng, m, n)
            else:
                profile = random_profile_2d(rng, m, n, max_side=2)
            for rule in NW_RULES:
                nw = brute_nw(profile, rule)
                pw = brute_pw(profile, rule)
                check_winner_set(lambda cs: necessary_winner(profile, rule, cs), m, nw)
                TOUCHED.append((profile, rule, pw, nw))


def test_c5_possible_winner_1d_oracle_equivalence(capsys):
    with report(capsys, 5, "1D possible-winner algorithms match the oracle, 300 instances", 300.0):
        rng = random.Random(1005)
        for _ in range(300):
            m = rng.randint(4, 6)
            profile = random_profile_1d(rng, m, rng.randint(1, 4))

            for k in (1, 2, 3):
                rule = ScoringRule.k_approval(k)
                pw = brute_pw(profile, rule)
                check_winner_set(lambda cs: pw_two_valued_1d(profile, k, cs), m, pw)
                TOUCHED.append((profile, rule, pw, brute_nw(profile, rule)))

            band = rng.randint(1, (m - 1) // 2)
            betas = tuple(sorted((rng.randint(0, 2) for _ in range(band)), reverse=True))
            wv = ScoringRule.weighted_veto(betas[0] + rng.randint(1, 2), betas)
            pw = brute_pw(profile, wv)
            check_winner_set(lambda cs: pw_weighted_veto_1d(profile, wv, cs), m, pw)
            TOUCHED.append((profile, wv, pw, brute_nw(profile, wv)))

            while True:
                k = rng.randint(2, m - 1)
                t = rng.randint(1, k - 1)
                if k + t <= m:
                    break
            fkt = ScoringRule.fkt(k, t)
            pw = brute_pw(profile, fkt)
            check_winner_set(lambda cs: pw_fkt_1d(profile, fkt, cs), m, pw)
            TOUCHED.append((profile, fkt, pw, brute_nw(profile, fkt)))


def test_c6_plurality_veto_flows_2d(capsys):
    """The 2D flows and `brute_pw` share no enumeration code: the flows read
    place sets off Voronoi cells (`geometry.place_sets`, one LFP per
    candidate), while `brute_pw` walks every completion that `_split_faces`
    builds from the box's bisector arrangement.  So this criterion checks
    two independent derivations against each other."""
    with report(capsys, 6, "plurality/veto flow algorithms match the oracle in 2D, 200 instances", 180.0):
        rng = random.Random(1006)
        for _ in range(200):
            m = rng.randint(2, 5)
            profile = random_profile_2d(rng, m, rng.randint(1, 4), max_side=3)
            for rule, algo in (
                (ScoringRule.plurality(), pw_plurality),
                (ScoringRule.veto(), pw_veto),
            ):
                pw = brute_pw(profile, rule)
                check_winner_set(lambda cs: algo(profile, cs), m, pw)
                TOUCHED.append((profile, rule, pw, brute_nw(profile, rule)))


def test_c7_equal_length_scheduling(capsys):
    with report(capsys, 7, "equal-length scheduler matches exhaustive search, 500 instances", 60.0):
        rng = random.Random(1007)
        for _ in range(500):
            instance, _ = random_equal_length_instance(rng)
            fast = feasible_equal_length(instance)
            slow = brute_force_schedule(instance, max_jobs=6, max_horizon=12)
            assert (fast is None) == (slow is None)
            if fast is not None:
                check_schedule(instance, fast)
                check_schedule(instance, slow)


def test_c8_scheduling_reduction_round_trip(capsys):
    with report(capsys, 8, "scheduling feasibility iff target is a 3-approval possible winner, 50 instances", 300.0):
        rng = random.Random(1008)
        for _ in range(50):
            instance = random_reduction_instance(rng, k=3, max_jobs=4, d_max=8)
            profile, target, rule = reduce_scheduling_to_pw(instance, 3)
            feasible = brute_force_schedule(instance) is not None
            possible = profile.candidate_index(target) in brute_pw(profile, rule)
            assert feasible == possible


def test_c9_structural_invariants(capsys):
    with report(capsys, 9, "NW subset of PW, PW nonempty, voter-permutation invariance", 600.0):
        assert TOUCHED, "criteria 4-6 must run first"
        for profile, rule, pw, nw in TOUCHED:
            assert nw <= pw
            assert pw
            reversed_profile = PartialSpatialProfile(
                profile.dimension, profile.candidates, tuple(reversed(profile.voters))
            )
            assert brute_pw(reversed_profile, rule) == pw
            assert brute_nw(reversed_profile, rule) == nw
            m = profile.num_candidates
            check_winner_set(lambda cs: necessary_winner(reversed_profile, rule, cs), m, nw)
            check_winner_set(
                lambda cs: possible_winner(reversed_profile, rule, cs, allow_exponential=True), m, pw
            )
