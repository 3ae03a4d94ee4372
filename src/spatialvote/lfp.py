"""Exact rational linear feasibility via Fourier-Motzkin elimination.

Decides whether a system of strict and nonstrict linear inequalities in d
variables has a solution, and if so returns a rational witness.  Variables
are eliminated from the highest index down; the witness is rebuilt by
back-substitution, taking the midpoint of each variable's feasible interval
(or an interior point offset by 1 when one side is open).

The number of variables in this package is the spatial dimension d, which is
tiny and fixed, so the elimination blowup is bounded in practice.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import SelfCheckFailed

_ZERO = Fraction(0)


@dataclass(frozen=True)
class LinearInequality:
    """``coeffs . x < constant`` (strict) or ``coeffs . x <= constant``."""

    coeffs: tuple[Fraction, ...]
    constant: Fraction
    strict: bool = False

    def holds(self, point: Sequence[Fraction]) -> bool:
        lhs = sum(a * x for a, x in zip(self.coeffs, point))
        return lhs < self.constant if self.strict else lhs <= self.constant

    def negation(self) -> "LinearInequality":
        """The complementary halfspace: a.x <= b  <->  -a.x < -b."""
        return LinearInequality(
            tuple(-a for a in self.coeffs), -self.constant, not self.strict
        )


@dataclass(frozen=True)
class InequalitySystem:
    dimension: int
    inequalities: tuple[LinearInequality, ...]

    def __post_init__(self) -> None:
        for q in self.inequalities:
            if len(q.coeffs) != self.dimension:
                raise ValueError(f"inequality has {len(q.coeffs)} coefficients, expected {self.dimension}")


def _normalize(coeffs: tuple, constant: Fraction, strict: bool):
    """Scale a row so its largest absolute coefficient is 1 (for dedup)."""
    scale = max((abs(a) for a in coeffs if a != 0), default=None)
    if scale is None or scale == 1:
        return (coeffs, constant, strict)
    return (tuple(a / scale for a in coeffs), constant / scale, strict)


def feasible(system: InequalitySystem) -> Optional[tuple[Fraction, ...]]:
    """A rational witness satisfying every inequality, or None.

    Deterministic for a fixed input order; the empty system yields the
    origin.  Any returned witness is re-checked exactly before returning.
    """
    d = system.dimension
    rows = []
    for q in system.inequalities:
        row = (tuple(Fraction(a) for a in q.coeffs), Fraction(q.constant), q.strict)
        if all(a == 0 for a in row[0]):
            if not _constant_ok(row):
                return None
        else:
            rows.append(_normalize(*row))
    rows = list(dict.fromkeys(rows))

    stages: list[tuple[int, list]] = []
    for var in range(d - 1, -1, -1):
        keep, pos, neg = [], [], []
        for coeffs, b, strict in rows:
            a = coeffs[var]
            if a > 0:
                pos.append((coeffs, b, strict))
            elif a < 0:
                neg.append((coeffs, b, strict))
            else:
                keep.append((coeffs, b, strict))
        stages.append((var, pos + neg))
        combined = {}
        for pc, pb, ps in pos:
            for nc, nb, ns in neg:
                # multiply the pos row by -nc[var] > 0 and the neg row by
                # pc[var] > 0; the sum has a zero coefficient on `var`.
                mp, mn = -nc[var], pc[var]
                coeffs = tuple(mp * a + mn * b2 for a, b2 in zip(pc, nc))
                b = mp * pb + mn * nb
                strict = ps or ns
                row = (coeffs, b, strict)
                if all(a == 0 for a in coeffs):
                    if not _constant_ok(row):
                        return None
                else:
                    combined[_normalize(*row)] = None
        rows = keep + list(combined)

    if rows:
        raise SelfCheckFailed("rows remain after eliminating every variable")

    witness: list[Optional[Fraction]] = [None] * d
    for var, vrows in reversed(stages):
        lb = None  # (value, strict)
        ub = None
        for coeffs, b, strict in vrows:
            a = coeffs[var]
            rest = sum(coeffs[i] * witness[i] for i in range(var) if coeffs[i] != 0)
            bound = (b - rest) / a
            if a > 0:  # x <= bound (or <)
                if ub is None or bound < ub[0] or (bound == ub[0] and strict):
                    ub = (bound, strict)
            else:  # x >= bound (or >)
                if lb is None or bound > lb[0] or (bound == lb[0] and strict):
                    lb = (bound, strict)
        if lb is None and ub is None:
            witness[var] = _ZERO
        elif lb is None:
            witness[var] = ub[0] - 1
        elif ub is None:
            witness[var] = lb[0] + 1
        else:
            if not (lb[0] < ub[0] or (lb[0] == ub[0] and not lb[1] and not ub[1])):
                raise SelfCheckFailed("back-substitution hit an empty interval on a feasible system")
            witness[var] = (lb[0] + ub[0]) / 2

    point = tuple(witness)
    if not all(q.holds(point) for q in system.inequalities):
        raise SelfCheckFailed(f"witness {point} violates the system it certifies")
    return point


def _constant_ok(row) -> bool:
    _, b, strict = row
    return b > 0 if strict else b >= 0
