import random
from fractions import Fraction
from math import comb

import pytest

from gen_helpers import grid_rankings_1d, random_profile_1d, random_profile_2d
from spatialvote import (
    Candidate,
    Hyperplane,
    VoterBox,
    bisectors,
    enumerate_rankings_1d,
    enumerate_rankings_dd,
    rank_from_point,
    ranking_completions,
    specify_faces,
)
from spatialvote.geometry import box_inequalities, tie_points_1d


def line(a, b, c):
    """The hyperplane a*x + b*y = c, pair label unused."""
    return Hyperplane((Fraction(a), Fraction(b)), Fraction(c), (0, 1))


class TestTiePoints:
    CANDS = (Candidate("a", (1,)), Candidate("b", (2,)), Candidate("c", (3,)))

    def test_midpoints_inside_interval(self):
        assert tie_points_1d(self.CANDS, (Fraction(1), Fraction(3))) == [
            Fraction(3, 2),
            Fraction(2),
            Fraction(5, 2),
        ]

    def test_clipped_to_interval(self):
        assert tie_points_1d(self.CANDS, (Fraction(2), Fraction(3))) == [
            Fraction(2),
            Fraction(5, 2),
        ]

    def test_rejects_inverted_interval(self):
        with pytest.raises(ValueError):
            tie_points_1d(self.CANDS, (Fraction(3), Fraction(1)))


class TestEnumerate1D:
    CANDS = (Candidate("a", (1,)), Candidate("b", (2,)), Candidate("c", (3,)))
    # indices out of position order: the tie point x=3 has a ranking of its own
    UNSORTED = tuple(Candidate(f"c{i}", (x,)) for i, x in enumerate((0, 4, 2, 6)))

    def test_reference_instance(self):
        out = enumerate_rankings_1d(self.CANDS, (Fraction(1), Fraction(3)))
        assert [rw.ranking for rw in out] == [(0, 1, 2), (1, 0, 2), (1, 2, 0), (2, 1, 0)]
        out = enumerate_rankings_1d(self.UNSORTED, (Fraction(5, 2), Fraction(7, 2)))
        assert [(rw.ranking, rw.witness[0]) for rw in out] == [
            ((2, 1, 0, 3), Fraction(5, 2)),
            ((1, 2, 0, 3), Fraction(3)),
            ((1, 2, 3, 0), Fraction(13, 4)),
        ]

    def test_point_interval(self):
        out = enumerate_rankings_1d(self.CANDS, (Fraction(2), Fraction(2)))
        assert [rw.ranking for rw in out] == [(1, 0, 2)]

    def test_witnesses_certify_their_rankings(self):
        rng = random.Random(11)
        cases = [(self.UNSORTED, (Fraction(0), Fraction(6)))]
        for _ in range(50):
            profile = random_profile_1d(rng, rng.randint(2, 6), 1)
            cases.append((profile.candidates, profile.voters[0].bounds[0]))
        for candidates, (lo, hi) in cases:
            for rw in enumerate_rankings_1d(candidates, (lo, hi)):
                assert rank_from_point(rw.witness, candidates) == rw.ranking
                assert lo <= rw.witness[0] <= hi

    def test_ranking_count_bound(self):
        rng = random.Random(13)
        for _ in range(50):
            m = rng.randint(2, 8)
            profile = random_profile_1d(rng, m, 1)
            out = enumerate_rankings_1d(profile.candidates, profile.voters[0].bounds[0])
            assert len(out) <= comb(m, 2) + 1


class TestBisectors:
    def test_skips_coincident_candidates(self):
        cands = (Candidate("a", (1, 1)), Candidate("b", (1, 1)), Candidate("c", (0, 0)))
        assert len(bisectors(cands)) == 2

    def test_side_orientation(self):
        cands = (Candidate("a", (0, 0)), Candidate("b", (2, 0)))
        (plane,) = bisectors(cands)
        assert plane.closed_side().holds((0, 0))  # lower-indexed side
        assert not plane.closed_side().holds((2, 0))
        assert plane.closed_side().holds((1, 5))  # the plane itself is closed


class TestSpecifyFaces:
    def test_single_line_splits_the_plane(self):
        assert len(specify_faces([line(1, 0, 0)], 2)) == 2

    def test_two_crossing_lines(self):
        assert len(specify_faces([line(1, 0, 0), line(0, 1, 0)], 2)) == 4

    def test_three_generic_lines_make_seven_faces(self):
        planes = [line(1, 0, 0), line(0, 1, 0), line(1, 1, 3)]
        assert len(specify_faces(planes, 2)) == 7

    def test_three_concurrent_lines_make_six_faces(self):
        planes = [line(1, 0, 0), line(0, 1, 0), line(1, 1, 0)]
        assert len(specify_faces(planes, 2)) == 6

    def test_parallel_lines(self):
        planes = [line(1, 0, 0), line(1, 0, 2)]
        assert len(specify_faces(planes, 2)) == 3

    def test_faces_partition_the_plane(self):
        planes = [line(1, 0, 0), line(0, 1, 0), line(1, 1, 3), line(1, -2, 1)]
        faces = specify_faces(planes, 2)
        rng = random.Random(3)
        for _ in range(200):
            point = (
                Fraction(rng.randint(-40, 40), 4),
                Fraction(rng.randint(-40, 40), 4),
            )
            hits = [f for f in faces if all(q.holds(point) for q in f.inequalities)]
            assert len(hits) == 1


class TestEnumerateDD:
    def test_degenerate_box_single_ranking(self):
        cands = (Candidate("a", (0, 0)), Candidate("b", (2, 2)))
        out = enumerate_rankings_dd(cands, VoterBox("v", ((1, 1), (1, 1))))
        assert len(out) == 1
        assert out[0].ranking == (0, 1)

    def test_matches_1d_when_one_dimension_is_fixed(self):
        cands = (Candidate("a", (1, 0)), Candidate("b", (2, 0)), Candidate("c", (3, 0)))
        out = enumerate_rankings_dd(cands, VoterBox("v", ((1, 3), (0, 0))))
        assert sorted(rw.ranking for rw in out) == [(0, 1, 2), (1, 0, 2), (1, 2, 0), (2, 1, 0)]

    def test_witnesses_certify_and_lie_in_the_box(self):
        rng = random.Random(29)
        for _ in range(30):
            profile = random_profile_2d(rng, rng.randint(2, 5), 1)
            box = profile.voters[0]
            for rw in enumerate_rankings_dd(profile.candidates, box):
                assert rank_from_point(rw.witness, profile.candidates) == rw.ranking
                assert all(q.holds(rw.witness) for q in box_inequalities(box))

    def test_covers_every_grid_sampled_ranking(self):
        rng = random.Random(31)
        for _ in range(20):
            profile = random_profile_2d(rng, rng.randint(2, 4), 1)
            box = profile.voters[0]
            found = {rw.ranking for rw in enumerate_rankings_dd(profile.candidates, box)}
            (x0, x1), (y0, y1) = box.bounds
            step = Fraction(1, 8)
            x = x0
            while x <= x1:
                y = y0
                while y <= y1:
                    assert rank_from_point((x, y), profile.candidates) in found
                    y += step
                x += step

    def test_completions_cache_is_stable(self):
        cands = (Candidate("a", (0, 0)), Candidate("b", (1, 1)))
        box = VoterBox("v", ((0, 1), (0, 1)))
        assert ranking_completions(cands, box.bounds) is ranking_completions(cands, box.bounds)
