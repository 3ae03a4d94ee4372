import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfp_reference import reference_feasible
from spatialvote import geometry, lfp
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


def lifted(dimension, bounds):
    """Rows in `dimension` variables whose only bounds on x_0, the last
    variable eliminated, are `bounds`: each (sign, c, strict) reads
    sign * x_0 + x_1 + ... + x_{d-1} <= c (or <), and x_i >= 0 for i >= 1,
    so eliminating x_{d-1} .. x_1 leaves exactly sign * x_0 <= c (or <)."""
    rest = (1,) * (dimension - 1)
    rows = [ineq((sign, *rest), c, strict) for sign, c, strict in bounds]
    for i in range(1, dimension):
        rows.append(ineq(tuple(-1 if j == i else 0 for j in range(dimension)), 0))
    return InequalitySystem(dimension, tuple(rows))


def decide(monkeypatch, system):
    """`feasible(system)`, and whether it found the system empty only at x_0:
    every other empty verdict comes from a constant row failing
    `_constant_ok`, while x_0's interval is tested without it."""
    refuted = []
    constant_ok = lfp._constant_ok

    def probe(b, strict):
        ok = constant_ok(b, strict)
        refuted.append(not ok)
        return ok

    with monkeypatch.context() as m:
        m.setattr(lfp, "_constant_ok", probe)
        point = feasible(system)
    return point, point is None and not any(refuted)


class TestLastVariable:
    """Systems whose bounds on x_0 appear only at the last stage, in d = 1, 2, 3."""

    CASES = {
        # name: (bounds on x_0, the witness's x_0 or None)
        "touching, closed": ([(1, 2, False), (-1, -2, False)], Fraction(2)),
        "touching, upper strict": ([(1, 2, True), (-1, -2, False)], None),
        "touching, lower strict": ([(1, 2, False), (-1, -2, True)], None),
        "strict upper between closed": ([(-1, -1, False), (1, 3, False), (1, 2, True)], Fraction(3, 2)),
        "strict lower between closed": ([(-1, -1, False), (1, 3, False), (-1, -2, True)], Fraction(5, 2)),
        "lower bounds only": ([(-1, -1, False), (-1, -3, False), (-1, -3, True)], Fraction(4)),
        "upper bounds only": ([(1, -1, False), (1, 2, True)], Fraction(-2)),
        "crossed": ([(1, 1, False), (-1, -2, False)], None),
    }

    @pytest.mark.parametrize("dimension", [1, 2, 3])
    @pytest.mark.parametrize("name", list(CASES))
    def test_interval_of_x0(self, monkeypatch, dimension, name):
        bounds, x0 = self.CASES[name]
        system = lifted(dimension, bounds)
        point, empty_at_x0 = decide(monkeypatch, system)
        assert point == reference_feasible(system)
        if x0 is None:
            assert point is None and empty_at_x0
        else:
            assert point[0] == x0
            assert all(q.holds(point) for q in system.inequalities)


def random_system(rng):
    """Up to 12 rows in d = 1..4 with rational coefficients and constants,
    about 40% of them feasible.  About half of the coefficients are zero:
    with 80% nonzero, some d = 4 systems keep the `Fraction` reference
    solver busy for seconds."""

    def value():
        return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6)))

    d = rng.randint(1, 4)
    rows = []
    for _ in range(rng.randint(0, 12)):
        coeffs = tuple(value() if rng.random() < 0.5 else Fraction(0) for _ in range(d))
        rows.append(LinearInequality(coeffs, value(), rng.random() < 0.5))
    return InequalitySystem(d, tuple(rows))


coeff = st.integers(-4, 4).map(Fraction)
rational = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def rational_row(draw, d):
    return LinearInequality(tuple(draw(rational) for _ in range(d)), draw(rational), draw(st.booleans()))


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


class TestIntegerRecheck:
    """The witness is re-checked as integers W / den against each row's
    `integer_row`; that is exact only if `integer_row` is a positive multiple
    of the row and the integer test agrees with `holds`."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 4).flatmap(rational_row))
    def test_integer_row_is_a_positive_multiple(self, q):
        vec, strict = q.integer_row
        entries = (*q.coeffs, q.constant)
        assert strict == q.strict and len(vec) == len(entries)
        assert all(type(v) is int for v in vec)
        pivot = next((k for k, x in enumerate(entries) if x != 0), None)
        if pivot is None:
            assert not any(vec)
        else:
            scale = vec[pivot] / entries[pivot]
            assert scale > 0
            assert all(v == scale * x for v, x in zip(vec, entries))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_integer_test_agrees_with_holds(self, data):
        d = data.draw(st.integers(1, 4))
        q = data.draw(rational_row(d))
        point = tuple(data.draw(rational) for _ in range(d))
        if data.draw(st.booleans()):  # put the point on the row's hyperplane
            q = q._replace(constant=sum(a * x for a, x in zip(q.coeffs, point)))
        # any positive common denominator, not only the least one
        den = lcm(*(x.denominator for x in point)) * data.draw(st.integers(1, 3))
        W = [int(x * den) for x in point]
        assert lfp._holds(q.integer_row, W, den) == q.holds(point)


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

    def test_seeded_rational_systems(self, monkeypatch):
        rng = random.Random(19)
        feasible_count = 0
        empty_at_x0 = {d: 0 for d in range(1, 5)}
        for _ in range(5000):
            system = random_system(rng)
            point, at_x0 = decide(monkeypatch, system)
            assert point == reference_feasible(system)
            feasible_count += point is not None
            empty_at_x0[system.dimension] += at_x0
        assert feasible_count > 1000
        assert min(empty_at_x0.values()) > 50, empty_at_x0

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
