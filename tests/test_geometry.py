import itertools
import json
import os
import random
from collections import Counter
from fractions import Fraction
from math import comb, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gen_helpers import grid_rankings_1d, random_profile_1d, random_profile_2d
from split_reference import reference_enumerate_rankings_dd
from sweep_reference import reference_enumerate_rankings_1d, reference_tie_points_1d
from spatialvote import geometry
from spatialvote.cli import generate_election
from spatialvote import (
    Candidate,
    Hyperplane,
    Job,
    SchedulingInstance,
    VoterBox,
    bisectors,
    enumerate_rankings_1d,
    enumerate_rankings_dd,
    rank_from_point,
    ranking_completions,
    specify_faces,
)
from spatialvote.errors import DimensionMismatch
from spatialvote.geometry import arrangement_run_1d, box_inequalities, place_sets
from spatialvote.scheduling import reduce_scheduling_to_pw

SCHEDULING = os.path.join(os.path.dirname(__file__), "..", "instances", "two_jobs_one_machine.json")


def line(a, b, c):
    """The hyperplane a*x + b*y = c, pair label unused."""
    return Hyperplane((Fraction(a), Fraction(b)), Fraction(c), (0, 1))


def run_tie_points(candidates, interval):
    """The tie points inside [lo, hi], as `enumerate_rankings_1d` reads them
    off the interval's run of the line arrangement."""
    points, _, first, last = geometry._run_1d(candidates, interval)
    return list(points[first | 1 : last + 1 : 2])


class TestTiePoints:
    CANDS = (Candidate("a", (1,)), Candidate("b", (2,)), Candidate("c", (3,)))

    def test_midpoints_inside_interval(self):
        assert run_tie_points(self.CANDS, (Fraction(1), Fraction(3))) == [
            Fraction(3, 2),
            Fraction(2),
            Fraction(5, 2),
        ]

    def test_clipped_to_interval(self):
        assert run_tie_points(self.CANDS, (Fraction(2), Fraction(3))) == [
            Fraction(2),
            Fraction(5, 2),
        ]

    def test_rejects_inverted_interval(self):
        with pytest.raises(ValueError):
            run_tie_points(self.CANDS, (Fraction(3), Fraction(1)))
        with pytest.raises(ValueError):
            enumerate_rankings_1d(self.CANDS, (Fraction(3), Fraction(1)))


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


@st.composite
def line_instance(draw):
    """Candidates on a half-integer grid in any order, duplicates allowed, and
    an interval whose ends may be equal or sit on tie points."""
    halves = draw(st.lists(st.integers(-16, 16), min_size=1, max_size=7))
    candidates = tuple(Candidate(f"c{i}", (Fraction(x, 2),)) for i, x in enumerate(halves))
    ties = sorted({(a.position[0] + b.position[0]) / 2 for a, b in itertools.combinations(candidates, 2)})

    def endpoint():
        if ties and draw(st.booleans()):
            return draw(st.sampled_from(ties))
        return Fraction(draw(st.integers(-40, 40)), 4)

    a = endpoint()
    b = a if draw(st.booleans()) else endpoint()
    return candidates, (min(a, b), max(a, b))


def assert_same_as_reference(candidates, interval):
    got = enumerate_rankings_1d(candidates, interval)
    reference = reference_enumerate_rankings_1d(candidates, interval)
    assert got == reference
    assert all(type(rw.witness[0]) is Fraction for rw in got)
    assert run_tie_points(candidates, interval) == reference_tie_points_1d(candidates, interval)
    # the interval's run of the arrangement holds exactly the completions
    run = set(arrangement_run_1d(candidates, interval))
    assert run == {rw.ranking for rw in ranking_completions(tuple(candidates), (interval,))}
    assert run == {rw.ranking for rw in reference}


class TestSharedArrangement:
    """`enumerate_rankings_1d` reads one arrangement per candidate tuple; it
    must return exactly what a distance sort at every probe of the reference
    sweep does, and `arrangement_run_1d` the same ranking set from two
    bisections."""

    @settings(max_examples=400, deadline=None)
    @given(line_instance())
    def test_matches_per_probe_sweep(self, instance):
        assert_same_as_reference(*instance)

    @pytest.mark.parametrize(
        "positions, interval",
        [
            ((0, 4, 2, 6), (3, 3)),
            ((0, 4, 2, 6), (Fraction(5, 2), 3)),
            ((0, 4, 2, 6), (3, Fraction(7, 2))),
            ((0, 4, 2, 6), (-10, 10)),
            ((0, 4, 2, 6), (1, 5)),  # both ends on the outermost tie points
            ((0, 4, 2, 6), (-5, -1)),  # left of the first midpoint
            ((0, 4, 2, 6), (6, 9)),  # right of the last midpoint
            ((0, 4, 2, 6), (5, 5)),
            ((2, 2, 0), (0, 2)),
            ((2, 2, 0), (1, 1)),
            ((5, 5, 5), (-1, 9)),
            ((7,), (0, 1)),
        ],
    )
    def test_fixed_cases(self, positions, interval):
        candidates = tuple(Candidate(f"c{i}", (x,)) for i, x in enumerate(positions))
        assert_same_as_reference(candidates, tuple(map(Fraction, interval)))

    def test_random_profiles(self):
        rng = random.Random(17)
        for _ in range(100):
            profile = random_profile_1d(rng, rng.randint(2, 8), 3)
            order = list(profile.candidates)
            rng.shuffle(order)
            for voter in profile.voters:
                assert_same_as_reference(tuple(order), voter.bounds[0])

    def test_integer_arrangement_matches_fraction_probes(self):
        """On 3,000 seeded candidate tuples in arbitrary order, with
        denominators 1-5, coincident positions and m = 1, the arrangement
        ranked on integers over one common denominator holds the unscaled
        `Fraction` probes as its element points, and `rank_from_point` at
        each of them."""
        rng = random.Random(2501)
        sizes = Counter()
        for _ in range(3000):
            m = rng.randint(1, 8)
            pool = [Fraction(rng.randint(-40, 40), rng.randint(1, 5)) for _ in range(rng.randint(1, m))]
            positions = [rng.choice(pool) for _ in range(m)]
            candidates = tuple(Candidate(f"c{i + 1}", (x,)) for i, x in enumerate(positions))
            mids = sorted({(a + b) / 2 for a, b in itertools.combinations(positions, 2)})
            inside = [(a + b) / 2 for a, b in zip(mids, mids[1:])]
            cells = [mids[0] - 1, *inside, mids[-1] + 1] if mids else [Fraction(0)]
            probes = [x for pair in zip(cells, mids) for x in pair] + [cells[-1]]
            expected = (tuple(mids), tuple(probes), tuple(rank_from_point((x,), candidates) for x in probes))
            got = geometry._line_arrangement(candidates)
            assert got == expected
            assert all(type(x) is Fraction for x in got[1])
            sizes[m == 1, len(set(positions)) < m] += 1
        assert all(sizes[key] for key in ((True, False), (False, True), (False, False)))

    def test_arrangement_rejects_2d_candidates(self):
        for m in (1, 3):
            candidates = tuple(Candidate(f"c{i}", (i, 0)) for i in range(m))
            with pytest.raises(DimensionMismatch):
                geometry._line_arrangement(candidates)
        with pytest.raises(DimensionMismatch):
            geometry._run_1d((Candidate("a", (0,)), Candidate("b", (1, 1))), (Fraction(0), Fraction(1)))

    def test_one_arrangement_per_candidate_tuple(self, monkeypatch):
        geometry.ranking_completions.cache_clear()
        geometry._line_arrangement.cache_clear()
        calls = []

        def counting(point, candidates):
            calls.append(point)
            return rank_from_point(point, candidates)

        monkeypatch.setattr(geometry, "rank_from_point", counting)
        for seed in (31, 32):
            before = len(calls)
            profile = generate_election(seed, 1, 8, 200, 8, 1)
            for voter in profile.voters:
                geometry.ranking_completions(profile.candidates, voter.bounds)
            mids = reference_tie_points_1d(profile.candidates, (-9, 9))
            # one sort per tie point and per open cell, at most 2*C(8,2)+1
            assert len(calls) - before == 2 * len(mids) + 1 <= 2 * comb(8, 2) + 1
        # the arrangement outlives the per-box cache
        total = len(calls)
        geometry.ranking_completions.cache_clear()
        for voter in profile.voters:
            geometry.ranking_completions(profile.candidates, voter.bounds)
        assert len(calls) == total


def seeded_line_instances(seed, count):
    """`count` seeded (candidates, interval) pairs: m = 1-8 raw positions with
    denominators 1-4, in any order and possibly coincident, and interval ends
    that are often tie points and sometimes equal."""
    rng = random.Random(seed)
    for _ in range(count):
        m = rng.randint(1, 8)
        denominator = rng.randint(1, 4)
        pool = [Fraction(rng.randint(-20, 20), denominator) for _ in range(rng.randint(1, m))]
        candidates = tuple(Candidate(f"c{i + 1}", (rng.choice(pool),)) for i in range(m))
        ties = sorted({(a.position[0] + b.position[0]) / 2 for a, b in itertools.combinations(candidates, 2)})

        def end():
            if ties and rng.random() < 0.4:
                return rng.choice(ties)
            return Fraction(rng.randint(-50, 50), rng.randint(1, 4))

        a = end()
        b = a if rng.random() < 0.1 else end()
        yield candidates, ties, (min(a, b), max(a, b))


class TestRunView:
    """`enumerate_rankings_1d` reads its rankings and witnesses off the
    interval's run of the shared arrangement, with no probe of its own."""

    def test_matches_per_probe_sweep(self):
        cases = Counter()
        for candidates, ties, (lo, hi) in seeded_line_instances(3401, 6000):
            got = enumerate_rankings_1d(candidates, (lo, hi))
            assert repr(got) == repr(reference_enumerate_rankings_1d(candidates, (lo, hi)))
            positions = [c.position[0] for c in candidates]
            inside = [t for t in ties if lo <= t <= hi]
            cases["lo on a tie point"] += lo in ties
            cases["hi on a tie point"] += hi in ties
            cases["point box on a tie point"] += lo == hi and lo in ties
            cases["interval inside one open cell"] += bool(ties) and lo < hi and not inside
            cases["both end cells"] += bool(ties) and lo < ties[0] and ties[-1] < hi
            cases["unsorted candidates"] += positions != sorted(positions)
            cases["coincident candidates"] += len(set(positions)) < len(positions)
        assert len(cases) == 7 and all(cases.values()), cases

    def test_two_bisections_and_one_lookup_per_call(self, monkeypatch):
        """Each call bisects twice and looks the arrangement up once, however
        long its run: 1 to 2*C(m,2)+1 elements here."""
        elements, lookups = [], []
        element, arrangement = geometry._element_1d, geometry._line_arrangement

        def counting_element(mids, x):
            elements.append(x)
            return element(mids, x)

        def counting_arrangement(candidates):
            lookups.append(candidates)
            return arrangement(candidates)

        monkeypatch.setattr(geometry, "_element_1d", counting_element)
        monkeypatch.setattr(geometry, "_line_arrangement", counting_arrangement)
        # powers of two have distinct pair midpoints, so [-1, 200] covers 57 elements
        powers = tuple(Candidate(f"c{i}", (Fraction(2**i),)) for i in range(8))
        instances = [*seeded_line_instances(3402, 500), (powers, None, (Fraction(-1), Fraction(200)))]
        run_lengths = set()
        for candidates, _, interval in instances:
            del elements[:], lookups[:]
            enumerate_rankings_1d(candidates, interval)
            assert (len(elements), len(lookups)) == (2, 1)
            _, _, first, last = geometry._run_1d(candidates, interval)
            run_lengths.add(last - first + 1)
        assert {1, 2 * comb(8, 2) + 1} <= run_lengths


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

    @pytest.mark.parametrize(
        "positions", [((0,), (1,)), ((0, 0), (1, 1, 1)), ((0, 0, 0), (1, 1, 1))], ids=["1d", "2d-and-3d", "3d"]
    )
    def test_dimension_mismatch(self, positions):
        cands = tuple(Candidate(f"c{i}", p) for i, p in enumerate(positions))
        with pytest.raises(DimensionMismatch):
            enumerate_rankings_dd(cands, VoterBox("v", ((0, 1), (0, 1))))


def split_case(rng):
    """Candidates and a box in d = 2 or 3, m = 2..6, with 1..d free coordinates.

    Positions lie on an integer or half-integer grid and box sides run from
    half a grid step to two steps, so bisectors pass through box corners
    and along edges, and small boxes often sit between all of them; in a
    quarter of the cases a candidate copies an earlier one's position.
    Returns the case and the features it has, read off each bisector's
    values at the box's corners.
    """
    d, m, den = rng.choice((2, 3)), rng.randint(2, 6), rng.choice((1, 2))

    def coord():
        return Fraction(rng.randint(-3 * den, 3 * den), den)

    positions = [tuple(coord() for _ in range(d)) for _ in range(m)]
    coincident = rng.random() < 0.25
    if coincident:
        positions[rng.randrange(1, m)] = positions[rng.randrange(m - 1)]
    candidates = tuple(Candidate(f"c{i}", p) for i, p in enumerate(positions))
    free = rng.sample(range(d), rng.randint(1, d))
    bounds = tuple(
        (x, x + Fraction(rng.randint(1, 4), 2 * den)) if i in free else (x, x)
        for i, x in enumerate(coord() for _ in range(d))
    )
    features = {f"{len(free)} free of d={d}"} | ({"coincident"} if coincident else set())
    met = []
    for plane in bisectors(candidates):
        values = [sum(a * x for a, x in zip(plane.coeffs, corner)) for corner in itertools.product(*bounds)]
        low, high = min(values), max(values)
        met.append(low <= plane.constant <= high)
        if low < high and plane.constant in (low, high):
            features.add("touched")
    if met and not any(met):
        features.add("missed")
    return candidates, bounds, features


def point_box(candidates, bounds):
    """The point box at the low corner of `bounds`, and its features."""
    coincident = len({c.position for c in candidates}) < len(candidates)
    features = {f"0 free of d={len(bounds)}"} | ({f"coincident, d={len(bounds)}"} if coincident else set())
    return VoterBox("v", tuple((lo, lo) for lo, _ in bounds)), features


class TestSplitShortcuts:
    """Interval faces for one free coordinate, point boxes with none, and
    dropped bisectors that miss the box must give exactly the LFP-only
    enumeration, witnesses included, without calling the LFP where they
    apply."""

    def test_matches_lfp_reference(self):
        # the reference ranks each Fraction witness with model.rank_from_point,
        # so this also checks the integer ranking, index tie-breaks included:
        # witnesses on a bisector, and finer than the candidates' grid, occur
        rng = random.Random(1806)
        seen = Counter()
        for _ in range(500):
            candidates, bounds, features = split_case(rng)
            point, point_features = point_box(candidates, bounds)
            seen.update(features | point_features)
            planes = bisectors(candidates)
            scale = lcm(*(x.denominator for c in candidates for x in c.position))
            for box in (VoterBox("v", bounds), point):
                out = enumerate_rankings_dd(candidates, box)
                assert repr(out) == repr(reference_enumerate_rankings_dd(candidates, box))
                for rw in out:
                    seen["on a bisector"] += any(
                        sum(a * x for a, x in zip(p.coeffs, rw.witness)) == p.constant for p in planes
                    )
                    seen["finer than the candidates"] += any(scale % x.denominator for x in rw.witness)
        wanted = {f"{k} free of d={d}" for d in (2, 3) for k in range(d + 1)}
        wanted |= {f"coincident, d={d}" for d in (2, 3)}
        wanted |= {"coincident", "missed", "touched", "on a bisector", "finer than the candidates"}
        assert all(seen[w] for w in wanted), seen

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(2, 3).flatmap(
            lambda d: st.tuples(
                st.lists(st.tuples(*[st.integers(-6, 6)] * d), min_size=2, max_size=6),
                st.integers(0, d - 1),
                st.tuples(*[st.integers(-6, 6)] * d),
                st.integers(1, 8),
            )
        )
    )
    def test_segments_match_lfp_reference(self, case):
        positions, axis, start, length = case
        candidates = tuple(
            Candidate(f"c{i}", tuple(Fraction(x, 2) for x in p)) for i, p in enumerate(positions)
        )
        bounds = tuple(
            (Fraction(x, 2), Fraction(x + length * (i == axis), 2)) for i, x in enumerate(start)
        )
        box = VoterBox("v", bounds)
        assert repr(enumerate_rankings_dd(candidates, box)) == repr(
            reference_enumerate_rankings_dd(candidates, box)
        )

    @pytest.mark.parametrize(
        "positions, bounds",
        [
            # x = 1 runs along the box's left edge
            ([(0, 0), (2, 0), (0, 9)], [(1, 2), (0, 1)]),
            # x + y = 2 touches the box's corner (1, 1)
            ([(0, 0), (2, 2)], [(1, 2), (1, 2)]),
            # x = 1 touches the segment's end
            ([(0, 0), (2, 0), (5, 5)], [(1, 3), (0, 0)]),
        ],
    )
    def test_bisector_touching_the_box_boundary(self, positions, bounds):
        candidates = tuple(Candidate(f"c{i}", p) for i, p in enumerate(positions))
        box = VoterBox("v", tuple((Fraction(lo), Fraction(hi)) for lo, hi in bounds))
        out = enumerate_rankings_dd(candidates, box)
        assert repr(out) == repr(reference_enumerate_rankings_dd(candidates, box))
        # index tie-breaking ranks c0 first on its bisector with c1
        assert any(rw.ranking[:2] == (0, 1) for rw in out)

    def test_no_lfp_where_the_split_is_decided_without_it(self, monkeypatch):
        rng = random.Random(1807)
        segments, points, seen = [], [], set()
        while len(segments) < 40:
            candidates, bounds, features = split_case(rng)
            if any(f.startswith("1 free") for f in features):
                box = VoterBox("v", bounds)
                segments.append((candidates, box, reference_enumerate_rankings_dd(candidates, box)))
            point, point_features = point_box(candidates, bounds)
            points.append((candidates, point, reference_enumerate_rankings_dd(candidates, point)))
            seen |= point_features
        assert {f"coincident, d={d}" for d in (2, 3)} <= seen
        # every bisector misses the box [-1, -1/2] x [-3, -2]
        between = (Candidate("a", (0, 0)), Candidate("b", (4, 0)), Candidate("c", (0, 4)))
        missed = VoterBox("v", ((Fraction(-1), Fraction(-1, 2)), (Fraction(-3), Fraction(-2))))
        with open(SCHEDULING) as f:
            jobs = json.load(f)["jobs"]
        horizon_60 = SchedulingInstance(tuple(Job(**{**job, "deadline": 60}) for job in jobs), 1)

        def refuse(*args):
            raise AssertionError("the LFP was called")

        monkeypatch.setattr(geometry, "feasible", refuse)
        for candidates, box, expected in segments + points:
            assert repr(enumerate_rankings_dd(candidates, box)) == repr(expected)
        assert [rw.ranking for rw in enumerate_rankings_dd(between, missed)] == [(0, 1, 2)]
        # `_validate_reduction` checks every job voter's approval windows
        profile, target, _ = reduce_scheduling_to_pw(horizon_60, 3)
        assert target == "cstar" and profile.num_candidates == 61


def place_set_case(rng):
    """Candidates and a box in d = 2 or 3, m = 2..7, on a small grid.

    Coordinates are integers in three cases of four (halves otherwise), so
    bisectors run through box corners and along edges.  The box is full, a
    segment (one free coordinate) or a point; in a third of the cases it is
    centred on a candidate, and in a quarter a candidate copies an earlier
    one's position.  Returns the case and the features it has.
    """
    d = rng.choice((2, 3))
    m = rng.randint(2, 7)
    den = 2 if rng.random() < 0.25 else 1

    def coord():
        return Fraction(rng.randint(-3 * den, 3 * den), den)

    positions = [tuple(coord() for _ in range(d)) for _ in range(m)]
    coincident = rng.random() < 0.25
    if coincident:
        positions[rng.randrange(1, m)] = positions[rng.randrange(m - 1)]
    candidates = tuple(Candidate(f"c{i}", p) for i, p in enumerate(positions))
    inside = rng.random() < 1 / 3
    centre = rng.choice(positions) if inside else tuple(coord() for _ in range(d))
    kind = rng.choice(("full", "segment", "point"))
    free = {"full": range(d), "segment": (rng.randrange(d),), "point": ()}[kind]
    bounds = tuple(
        (x - Fraction(rng.randint(0, 2), den), x + Fraction(rng.randint(1, 2), den)) if i in free else (x, x)
        for i, x in enumerate(centre)
    )
    flags = {"coincident": coincident, "inside": inside, "integer": den == 1}
    features = {kind, f"d={d}", f"m={m}"} | {name for name, flag in flags.items() if flag}
    return candidates, bounds, features


class TestPlaceSets:
    """`place_sets` reads first and last places off the Voronoi cells; they
    must be exactly the first and last places of the box's completions."""

    def test_matches_completions(self):
        rng = random.Random(1601)
        seen = set()
        for _ in range(500):
            candidates, bounds, features = place_set_case(rng)
            seen |= features
            completions = ranking_completions(candidates, bounds)
            assert place_sets(candidates, bounds, False) == {rw.ranking[0] for rw in completions}
            assert place_sets(candidates, bounds, True) == {rw.ranking[-1] for rw in completions}
        wanted = {"full", "segment", "point", "coincident", "inside", "integer", "d=2", "d=3"}
        assert wanted | {f"m={m}" for m in range(2, 8)} <= seen

    def test_index_tie_breaking_on_a_bisector(self):
        # the box is the segment x = 0, on the bisector of c0 and c1
        cands = (Candidate("c0", (-1, 0)), Candidate("c1", (1, 0)), Candidate("c2", (0, 9)))
        bounds = ((Fraction(0), Fraction(0)), (Fraction(-1), Fraction(1)))
        assert place_sets(cands, bounds, False) == {0}
        assert place_sets(cands, bounds, True) == {2}

    def test_dimension_mismatch(self):
        cands = (Candidate("a", (0, 0)), Candidate("b", (1, 1, 1)))
        with pytest.raises(DimensionMismatch):
            place_sets(cands, ((Fraction(0), Fraction(1)),) * 2, False)
