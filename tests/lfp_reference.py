"""Reference Fourier-Motzkin solver on `Fraction` rows, kept as a test oracle.

This is the solver `spatialvote.lfp.feasible` replaced: every row is scaled
so its largest absolute coefficient is 1, and elimination and
back-substitution run in `Fraction` throughout.  Tests compare the integer
solver's verdicts and witnesses to it; the package never imports it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from spatialvote.errors import SelfCheckFailed
from spatialvote.lfp import InequalitySystem

_ZERO = Fraction(0)


def _unit_scale(coeffs: tuple, constant: Fraction, strict: bool):
    """Scale a row so its largest absolute coefficient is 1 (for dedup)."""
    scale = max((abs(a) for a in coeffs if a != 0), default=None)
    if scale is None or scale == 1:
        return (coeffs, constant, strict)
    return (tuple(a / scale for a in coeffs), constant / scale, strict)


def reference_feasible(system: InequalitySystem) -> Optional[tuple[Fraction, ...]]:
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
            rows.append(_unit_scale(*row))
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
                    combined[_unit_scale(*row)] = None
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
