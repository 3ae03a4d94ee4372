from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfp_reference import reference_feasible
from spatialvote import geometry
from spatialvote.cli import generate_election
from spatialvote.lfp import InequalitySystem, LinearInequality, feasible


def ineq(coeffs, constant, strict=False):
    return LinearInequality(tuple(Fraction(a) for a in coeffs), Fraction(constant), strict)


class TestBasics:
    def test_empty_system_yields_origin(self):
        assert feasible(InequalitySystem(2, ())) == (0, 0)

    def test_single_halfspace(self):
        point = feasible(InequalitySystem(1, (ineq((1,), 5),)))
        assert point is not None and point[0] <= 5

    def test_bounded_interval_midpoint(self):
        system = InequalitySystem(1, (ineq((1,), 4), ineq((-1,), -2)))
        assert feasible(system) == (3,)

    def test_strict_vs_nonstrict_contradiction(self):
        closed = InequalitySystem(1, (ineq((1,), 0), ineq((-1,), 0)))
        assert feasible(closed) == (0,)
        open_ = InequalitySystem(1, (ineq((1,), 0, strict=True), ineq((-1,), 0)))
        assert feasible(open_) is None

    def test_equality_via_two_rows(self):
        system = InequalitySystem(
            2,
            (
                ineq((1, 1), 3),
                ineq((-1, -1), -3),  # x + y = 3
                ineq((1, -1), 1),
                ineq((-1, 1), -1),  # x - y = 1
            ),
        )
        assert feasible(system) == (2, 1)

    def test_infeasible_after_elimination(self):
        # x <= 0, y <= 0, x + y >= 1
        system = InequalitySystem(2, (ineq((1, 0), 0), ineq((0, 1), 0), ineq((-1, -1), -1)))
        assert feasible(system) is None

    def test_dimension_check(self):
        with pytest.raises(ValueError, match="^inequality has 1 coefficients, expected 2$"):
            InequalitySystem(2, (ineq((1,), 0),))

    def test_negation_flips_the_halfspace(self):
        q = ineq((2, -1), 3)
        n = q.negation()
        for point in [(0, 0), (5, 0), (Fraction(3, 2), 0)]:
            assert q.holds(point) != n.holds(point)


class TestWitnesses:
    def test_strict_open_box(self):
        system = InequalitySystem(
            2,
            (
                ineq((1, 0), 1, strict=True),
                ineq((-1, 0), 0, strict=True),
                ineq((0, 1), 1, strict=True),
                ineq((0, -1), 0, strict=True),
            ),
        )
        x, y = feasible(system)
        assert 0 < x < 1 and 0 < y < 1

    def test_unbounded_direction(self):
        point = feasible(InequalitySystem(2, (ineq((-1, 0), -10),)))
        assert point is not None and point[0] >= 10


coeff = st.integers(-4, 4).map(Fraction)


@st.composite
def feasible_system(draw):
    """A system built to hold at a known target point, with known slacks."""
    d = draw(st.integers(1, 3))
    target = tuple(draw(st.fractions(min_value=-5, max_value=5, max_denominator=4)) for _ in range(d))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        coeffs = tuple(draw(coeff) for _ in range(d))
        slack = draw(st.fractions(min_value=0, max_value=3, max_denominator=2))
        lhs = sum(a * x for a, x in zip(coeffs, target))
        strict = slack > 0 and draw(st.booleans())
        rows.append(LinearInequality(coeffs, lhs + slack, strict))
    return InequalitySystem(d, tuple(rows)), target


@st.composite
def arbitrary_system(draw):
    d = draw(st.integers(1, 3))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        coeffs = tuple(draw(coeff) for _ in range(d))
        constant = draw(st.fractions(min_value=-6, max_value=6, max_denominator=4))
        rows.append(LinearInequality(coeffs, constant, draw(st.booleans())))
    return InequalitySystem(d, tuple(rows))


class TestProperties:
    @settings(max_examples=200, deadline=None)
    @given(feasible_system())
    def test_complete_on_constructed_feasible_systems(self, pair):
        system, target = pair
        point = feasible(system)
        assert point is not None
        assert all(q.holds(point) for q in system.inequalities)
        assert all(q.holds(target) for q in system.inequalities)

    @settings(max_examples=200, deadline=None)
    @given(arbitrary_system())
    def test_sound_on_arbitrary_systems(self, system):
        point = feasible(system)
        if point is not None:
            assert all(q.holds(point) for q in system.inequalities)

    @settings(max_examples=100, deadline=None)
    @given(arbitrary_system())
    def test_deterministic(self, system):
        assert feasible(system) == feasible(system)


def assert_same_as_reference(system):
    """Same verdict and the same witness as the Fraction solver, all of it exact."""
    point = feasible(system)
    assert point == reference_feasible(system)
    if point is not None:
        assert all(type(x) is Fraction for x in point)
        assert all(q.holds(point) for q in system.inequalities)


class TestMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(arbitrary_system())
    def test_arbitrary_systems(self, system):
        assert_same_as_reference(system)

    @settings(max_examples=200, deadline=None)
    @given(feasible_system())
    def test_constructed_feasible_systems(self, pair):
        assert_same_as_reference(pair[0])

    def test_empty_system_witness_is_fractions(self):
        assert_same_as_reference(InequalitySystem(3, ()))

    @pytest.mark.parametrize("dimension, m", [(2, 5), (3, 4)])
    def test_box_and_bisector_systems(self, monkeypatch, dimension, m):
        systems = []

        def record(system):
            systems.append(system)
            return feasible(system)

        monkeypatch.setattr(geometry, "feasible", record)
        # six profiles, since bisectors that miss a box never reach the LFP
        # and three d = 3 profiles make only 91 systems
        for seed in range(6):
            profile = generate_election(seed, dimension, m, 2, 8, 4)
            for voter in profile.voters:
                geometry.enumerate_rankings_dd(profile.candidates, voter)
        assert len(systems) > 100
        for system in systems:
            assert_same_as_reference(system)
