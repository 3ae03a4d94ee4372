"""Exact rational linear feasibility via Fourier-Motzkin elimination.

Decides whether a system of strict and nonstrict linear inequalities in d
variables has a solution, and if so returns a rational witness.  Variables
are eliminated from the highest index down to x_1; the witness is rebuilt by
back-substitution, taking the midpoint of each variable's feasible interval
(or an interior point offset by 1 when one side is open).  The last
variable, x_0, is settled as one interval: every row left then bounds x_0
alone, so instead of combining all P x N pairs of upper and lower bounds,
back-substitution takes the tightest of each, and an empty interval means
the system is infeasible.

Elimination is fraction-free, in the spirit of Bareiss (Math. Comp. 22,
1968): each input row is scaled by the lcm of its denominators to an
integer vector (coefficients and constant), once per `LinearInequality`
object however many systems share it, and every row, input or combined,
is divided by the gcd of its entries.  The resulting primitive
vector is the one integer representative of its halfspace under positive
scaling, so it doubles as the key that drops duplicate rows.
Back-substitution is in integers too: the witness is an integer vector over
one common denominator, each bound an integer pair compared by
cross-multiplying, and the exact re-check of the witness against every
input row tests that row's integer vector.  `Fraction` appears only in the
returned witness.

The number of variables in this package is the spatial dimension d, which is
tiny and fixed, so the elimination blowup is bounded in practice.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Optional, Sequence

from .errors import SelfCheckFailed

class LinearInequality(namedtuple("LinearInequality", "coeffs constant strict", defaults=(False,))):
    """``coeffs . x < constant`` (`strict`) or ``coeffs . x <= constant``, with
    `coeffs` a tuple of Fractions and `constant` a Fraction."""

    # no __slots__: `integer_row` caches its value in the instance __dict__

    def holds(self, point: Sequence[Fraction]) -> bool:
        lhs = sum(a * x for a, x in zip(self.coeffs, point))
        return lhs < self.constant if self.strict else lhs <= self.constant

    @cached_property
    def integer_row(self) -> tuple[tuple[int, ...], bool]:
        """This row as a primitive integer vector (coeffs..., constant) with
        its denominators cleared; computed once per object, because face
        splitting passes the same box and bisector rows to many systems."""
        entries = (*self.coeffs, self.constant)
        den = lcm(*(x.denominator for x in entries))
        return _primitive([x.numerator * (den // x.denominator) for x in entries], self.strict)

    def negation(self) -> "LinearInequality":
        """The complementary halfspace: a.x <= b  <->  -a.x < -b."""
        return LinearInequality(
            tuple(-a for a in self.coeffs), -self.constant, not self.strict
        )


class InequalitySystem(namedtuple("InequalitySystem", "dimension inequalities")):
    """The conjunction of `inequalities`, a tuple of `LinearInequality`, in
    `dimension` variables."""

    __slots__ = ()

    def __new__(cls, dimension: int, inequalities: Sequence[LinearInequality]) -> "InequalitySystem":
        for q in inequalities:
            if len(q.coeffs) != dimension:
                raise ValueError(f"inequality has {len(q.coeffs)} coefficients, expected {dimension}")
        return super().__new__(cls, dimension, inequalities)


def _primitive(values: Sequence[int], strict: bool) -> tuple[tuple[int, ...], bool]:
    """The row divided by the gcd of its entries: one key per halfspace.  An
    all-zero row (gcd 0) stays as it is."""
    g = gcd(*values)
    if g > 1:
        values = [v // g for v in values]
    return (tuple(values), strict)


def feasible(system: InequalitySystem) -> Optional[tuple[Fraction, ...]]:
    """A rational witness satisfying every inequality, or None.

    Deterministic for a fixed input order; the empty system yields the
    origin.  Any returned witness is re-checked exactly before returning.
    """
    d = system.dimension
    rows = []
    for q in system.inequalities:
        if any(q.coeffs):
            rows.append(q.integer_row)
        elif not _constant_ok(q.constant, q.strict):
            return None
    rows = list(dict.fromkeys(rows))

    # A row at stage `var` is (a_0, ..., a_var, b): the coefficients of the
    # variables eliminated before it are zero and are dropped.
    stages: list[tuple[int, list]] = []
    for var in range(d - 1, -1, -1):
        keep, pos, neg = [], [], []
        for row in rows:
            a = row[0][var]
            if a > 0:
                pos.append(row)
            elif a < 0:
                neg.append(row)
            else:
                keep.append(row)
        stages.append((var, pos + neg))
        if var == 0:
            # every row bounds x_0 alone: back-substitution's interval test
            # decides the P x N pairs at once
            rows = keep
            break
        combined = {}
        for pv, ps in pos:
            for nv, ns in neg:
                # multiply the pos row by -nv[var] > 0 and the neg row by
                # pv[var] > 0; the sum has a zero coefficient on `var`.
                mp, mn = -nv[var], pv[var]
                vec = [mp * x + mn * y for x, y in zip(pv, nv)]
                del vec[var]
                strict = ps or ns
                if any(vec[:-1]):
                    combined[_primitive(vec, strict)] = None
                elif not _constant_ok(vec[-1], strict):
                    return None
        rows = [(v[:var] + v[var + 1 :], s) for v, s in keep] + list(combined)

    if rows:
        raise SelfCheckFailed("rows remain after eliminating every variable")

    # The witness is W / den with integer W and den > 0; a bound on x_var is
    # num / pos with pos > 0, and bounds compare by cross-multiplying.
    W = [0] * d
    den = 1
    for var, vrows in reversed(stages):
        lb = None  # (num, pos, strict)
        ub = None
        for vec, strict in vrows:
            a = vec[var]
            num = vec[-1] * den - sum(vec[i] * W[i] for i in range(var))
            pos = a * den
            if a > 0:  # x <= num / pos (or <)
                if ub is None or num * ub[1] < ub[0] * pos or (num * ub[1] == ub[0] * pos and strict):
                    ub = (num, pos, strict)
            else:  # x >= num / pos (or >) once the signs flip
                num, pos = -num, -pos
                if lb is None or num * lb[1] > lb[0] * pos or (num * lb[1] == lb[0] * pos and strict):
                    lb = (num, pos, strict)
        if lb is None and ub is None:
            num, pos = 0, 1
        elif lb is None:
            num, pos = ub[0] - ub[1], ub[1]
        elif ub is None:
            num, pos = lb[0] + lb[1], lb[1]
        else:
            low, high = lb[0] * ub[1], ub[0] * lb[1]
            if not (low < high or (low == high and not lb[2] and not ub[2])):
                if var == 0:
                    return None
                raise SelfCheckFailed("back-substitution hit an empty interval on a feasible system")
            num, pos = low + high, 2 * lb[1] * ub[1]
        g = gcd(num, pos)
        num, pos = num // g, pos // g
        new_den = lcm(den, pos)
        if new_den != den:
            scale = new_den // den
            W = [w * scale for w in W]
            den = new_den
        W[var] = num * (den // pos)

    point = tuple(Fraction(w, den) for w in W)
    if not all(_holds(q.integer_row, W, den) for q in system.inequalities):
        raise SelfCheckFailed(f"witness {point} violates the system it certifies")
    return point


def _holds(row: tuple[tuple[int, ...], bool], W: Sequence[int], den: int) -> bool:
    """Whether the integer row (a', b') holds at the point W / den, den > 0:
    a'.W against b'.den, which for a positive multiple of a row decides the
    row itself."""
    vec, strict = row
    lhs = sum(a * w for a, w in zip(vec, W))
    return lhs < vec[-1] * den if strict else lhs <= vec[-1] * den


def _constant_ok(b, strict: bool) -> bool:
    """Whether ``0 < b`` (strict) or ``0 <= b`` holds."""
    return b > 0 if strict else b >= 0
