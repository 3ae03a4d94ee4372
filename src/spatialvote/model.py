"""Core domain types for spatial elections with box-shaped voter uncertainty.

Candidates sit at exact rational points in R^d.  Each voter is known only up
to an axis-parallel box of possible ideal points; a concrete choice of point
induces a ranking of the candidates by Euclidean distance.  All arithmetic is
exact: coordinates are `fractions.Fraction` and distances are compared via
squared distances, so no square roots are ever taken.

Ties in distance are broken by ascending candidate index, uniformly across
the whole package.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence, Union

from .errors import DimensionMismatch, RuleUndefinedAtM, UnknownCandidate

#: Exact rational scalar used for every coordinate and coefficient.
Rational = Fraction

RationalLike = Union[int, str, Fraction]


def as_rational(value: RationalLike) -> Fraction:
    """Convert an int, Fraction, or string like ``"3/2"`` to a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not valid coordinates")
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a rational")


@dataclass(frozen=True)
class Candidate:
    """A candidate with a string id and an exact position in R^d."""

    id: str
    position: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "position", tuple(as_rational(x) for x in self.position))


@dataclass(frozen=True)
class VoterBox:
    """Per-dimension closed interval bounds on one voter's ideal point."""

    id: str
    bounds: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self) -> None:
        norm = []
        for i, (lo, hi) in enumerate(self.bounds):
            lo, hi = as_rational(lo), as_rational(hi)
            if lo > hi:
                raise ValueError(f"voter {self.id!r}: lower > upper in dimension {i}")
            norm.append((lo, hi))
        object.__setattr__(self, "bounds", tuple(norm))

    @property
    def dimension(self) -> int:
        return len(self.bounds)

    def is_degenerate(self) -> bool:
        """True when the box is a single point."""
        return all(lo == hi for lo, hi in self.bounds)


#: A strict total order over candidates, best first, as a tuple of indices.
Ranking = tuple[int, ...]

#: A concrete ideal point (spatial completion of one voter).
SpatialPoint = tuple[Fraction, ...]


@dataclass(frozen=True)
class PartialSpatialProfile:
    """A spatial election instance: candidates plus per-voter boxes.

    In one dimension the candidates are stored sorted by strictly increasing
    position (duplicate positions are rejected); rankings and windows always
    refer to this sorted order.  In higher dimensions the given order is kept
    and duplicate positions are permitted.
    """

    dimension: int
    candidates: tuple[Candidate, ...]
    voters: tuple[VoterBox, ...]

    def __post_init__(self) -> None:
        d = self.dimension
        if d < 1:
            raise ValueError("dimension must be positive")
        candidates = tuple(self.candidates)
        voters = tuple(self.voters)
        if len(candidates) < 2:
            raise ValueError("an instance needs at least two candidates")
        if len({c.id for c in candidates}) != len(candidates):
            raise ValueError("candidate ids must be unique")
        if len({v.id for v in voters}) != len(voters):
            raise ValueError("voter ids must be unique")
        for c in candidates:
            if len(c.position) != d:
                raise DimensionMismatch(f"candidate {c.id!r} has {len(c.position)} coordinates, expected {d}")
        for v in voters:
            if v.dimension != d:
                raise DimensionMismatch(f"voter {v.id!r} has {v.dimension} bounds, expected {d}")
        if d == 1:
            candidates = tuple(sorted(candidates, key=lambda c: c.position[0]))
            for a, b in zip(candidates, candidates[1:]):
                if a.position[0] == b.position[0]:
                    raise ValueError(f"duplicate candidate position in d=1: {a.id!r} and {b.id!r}")
        object.__setattr__(self, "candidates", candidates)
        object.__setattr__(self, "voters", voters)

    @property
    def num_candidates(self) -> int:
        return len(self.candidates)

    def candidate_index(self, candidate_id: str) -> int:
        for i, c in enumerate(self.candidates):
            if c.id == candidate_id:
                return i
        raise UnknownCandidate(f"no candidate with id {candidate_id!r}")

    def with_voters(self, voters: Iterable[VoterBox]) -> "PartialSpatialProfile":
        return PartialSpatialProfile(self.dimension, self.candidates, tuple(voters))


@dataclass(frozen=True)
class ScoringRule:
    """A positional scoring rule: a family of nonincreasing score vectors.

    Use the classmethod constructors; ``realize_score_vector`` produces the
    concrete vector for a given number of candidates m.  For two-valued rules
    the approval count may be a constant k, the k-veto form m-k, or a linear
    closed form a*m+b (rejected at m if the result leaves [1, m-1]).
    """

    kind: str
    k: int | None = None
    t: int | None = None
    alpha: int | None = None
    betas: tuple[int, ...] = ()
    vector: tuple[int, ...] = ()
    k_linear: tuple[int, int] | None = None

    @classmethod
    def plurality(cls) -> "ScoringRule":
        return cls("plurality")

    @classmethod
    def veto(cls) -> "ScoringRule":
        return cls("veto")

    @classmethod
    def borda(cls) -> "ScoringRule":
        return cls("borda")

    @classmethod
    def k_approval(cls, k: int) -> "ScoringRule":
        if k < 1:
            raise ValueError("k-approval needs k >= 1")
        return cls("k-approval", k=k)

    @classmethod
    def k_approval_linear(cls, a: int, b: int) -> "ScoringRule":
        """Two-valued rule approving a*m+b candidates at each m."""
        return cls("k-approval", k_linear=(a, b))

    @classmethod
    def k_veto(cls, k: int) -> "ScoringRule":
        if k < 1:
            raise ValueError("k-veto needs k >= 1")
        return cls("k-veto", k=k)

    @classmethod
    def weighted_veto(cls, alpha: int, betas: Sequence[int]) -> "ScoringRule":
        betas = tuple(betas)
        if not betas:
            raise ValueError("weighted veto needs at least one beta")
        if any(b < 0 for b in betas) or alpha < 0:
            raise ValueError("scores must be naturals")
        if not alpha > betas[0]:
            raise ValueError("weighted veto needs alpha > beta_1")
        if any(a < b for a, b in zip(betas, betas[1:])):
            raise ValueError("betas must be nonincreasing")
        return cls("weighted-veto", alpha=alpha, betas=betas)

    @classmethod
    def fkt(cls, k: int, t: int) -> "ScoringRule":
        if k < 1 or t < 1:
            raise ValueError("F(k,t) needs k >= 1 and t >= 1")
        return cls("fkt", k=k, t=t)

    @classmethod
    def explicit(cls, vector: Sequence[int]) -> "ScoringRule":
        vector = tuple(vector)
        if len(vector) < 2:
            raise ValueError("an explicit vector needs length >= 2")
        if any(s < 0 for s in vector):
            raise ValueError("scores must be naturals")
        if any(a < b for a, b in zip(vector, vector[1:])):
            raise ValueError("score vector must be nonincreasing")
        if not vector[0] > vector[-1]:
            raise ValueError("score vector needs s(1) > s(m)")
        return cls("vector", vector=vector)


def realize_score_vector(rule: ScoringRule, m: int) -> tuple[int, ...]:
    """Concrete m-candidate score vector of `rule`; raises RuleUndefinedAtM."""
    if m < 2:
        raise RuleUndefinedAtM("need at least two candidates")
    if rule.kind == "plurality":
        vec = (1,) + (0,) * (m - 1)
    elif rule.kind == "veto":
        vec = (1,) * (m - 1) + (0,)
    elif rule.kind == "borda":
        vec = tuple(range(m - 1, -1, -1))
    elif rule.kind == "k-approval":
        if rule.k_linear is not None:
            a, b = rule.k_linear
            k = a * m + b
        else:
            k = rule.k
        if not 1 <= k <= m - 1:
            raise RuleUndefinedAtM(f"k-approval with k={k} undefined for m={m}")
        vec = (1,) * k + (0,) * (m - k)
    elif rule.kind == "k-veto":
        k = rule.k
        if not 1 <= k <= m - 1:
            raise RuleUndefinedAtM(f"k-veto with k={k} undefined for m={m}")
        vec = (1,) * (m - k) + (0,) * k
    elif rule.kind == "weighted-veto":
        k = len(rule.betas)
        if not 2 * k < m:
            raise RuleUndefinedAtM(f"weighted veto with {k} betas needs m > {2 * k}")
        vec = (rule.alpha,) * (m - k) + rule.betas
    elif rule.kind == "fkt":
        if rule.k + rule.t > m:
            raise RuleUndefinedAtM(f"F({rule.k},{rule.t}) needs m >= {rule.k + rule.t}")
        vec = (2,) * rule.k + (1,) * (m - rule.k - rule.t) + (0,) * rule.t
    elif rule.kind == "vector":
        if len(rule.vector) != m:
            raise RuleUndefinedAtM(f"explicit vector has length {len(rule.vector)}, not {m}")
        vec = rule.vector
    else:  # pragma: no cover - constructors prevent this
        raise RuleUndefinedAtM(f"unknown rule kind {rule.kind!r}")
    assert all(a >= b for a, b in zip(vec, vec[1:])) and vec[0] > vec[-1]
    return vec


def rule_from_text(text: str) -> ScoringRule:
    """Parse a textual rule descriptor such as ``approval:2`` or ``fkt:2:1``."""
    parts = text.split(":")
    name = parts[0]
    try:
        if name == "plurality" and len(parts) == 1:
            return ScoringRule.plurality()
        if name == "veto" and len(parts) == 1:
            return ScoringRule.veto()
        if name == "borda" and len(parts) == 1:
            return ScoringRule.borda()
        if name == "approval" and len(parts) == 2:
            return ScoringRule.k_approval(int(parts[1]))
        if name == "kveto" and len(parts) == 2:
            return ScoringRule.k_veto(int(parts[1]))
        if name == "wveto" and len(parts) == 3:
            return ScoringRule.weighted_veto(int(parts[1]), [int(x) for x in parts[2].split(",")])
        if name == "fkt" and len(parts) == 3:
            return ScoringRule.fkt(int(parts[1]), int(parts[2]))
        if name == "vector" and len(parts) == 2:
            return ScoringRule.explicit([int(x) for x in parts[1].split(",")])
    except ValueError as exc:
        raise ValueError(f"bad rule descriptor {text!r}: {exc}") from exc
    raise ValueError(f"bad rule descriptor {text!r}")


def rule_to_text(rule: ScoringRule) -> str:
    if rule.kind in ("plurality", "veto", "borda"):
        return rule.kind
    if rule.kind == "k-approval" and rule.k is not None:
        return f"approval:{rule.k}"
    if rule.kind == "k-veto":
        return f"kveto:{rule.k}"
    if rule.kind == "weighted-veto":
        return f"wveto:{rule.alpha}:{','.join(str(b) for b in rule.betas)}"
    if rule.kind == "fkt":
        return f"fkt:{rule.k}:{rule.t}"
    if rule.kind == "vector":
        return f"vector:{','.join(str(s) for s in rule.vector)}"
    raise ValueError(f"rule {rule!r} has no textual form")


def squared_distance(p: Sequence[Fraction], q: Sequence[Fraction]) -> Fraction:
    if len(p) != len(q):
        raise DimensionMismatch(f"points of length {len(p)} and {len(q)}")
    return sum((a - b) * (a - b) for a, b in zip(p, q))


def rank_from_point(point: Sequence[Fraction], candidates: Sequence[Candidate]) -> Ranking:
    """Ranking induced by Euclidean distance from `point`, ties by index."""
    keyed = []
    for i, c in enumerate(candidates):
        keyed.append((squared_distance(point, c.position), i))
    keyed.sort()
    return tuple(i for _, i in keyed)


def score_profile(rankings: Sequence[Ranking], rule: ScoringRule) -> tuple[int, ...]:
    """Exact total score per candidate index over a list of rankings."""
    if not rankings:
        raise ValueError("need at least one ranking")
    m = len(rankings[0])
    vec = realize_score_vector(rule, m)
    scores = [0] * m
    for r in rankings:
        if len(r) != m or sorted(r) != list(range(m)):
            raise ValueError(f"not a permutation of [{m}]: {r}")
        for pos, cand in enumerate(r):
            scores[cand] += vec[pos]
    return tuple(scores)


def winners_of_rankings(rankings: Sequence[Ranking], rule: ScoringRule) -> frozenset[int]:
    """Argmax candidate set under `rule`; never empty."""
    scores = score_profile(rankings, rule)
    best = max(scores)
    return frozenset(i for i, s in enumerate(scores) if s == best)


def winners_of_scores(scores: Sequence[int]) -> frozenset[int]:
    best = max(scores)
    return frozenset(i for i, s in enumerate(scores) if s == best)


def canonical_vector(vec: Sequence[int]) -> tuple[int, ...]:
    """Shift-and-scale normal form: subtract the minimum, divide by the gcd.

    Winner sets are invariant under this transformation, so dispatch matches
    rule families on the canonical form.
    """
    lo = min(vec)
    shifted = [s - lo for s in vec]
    g = 0
    for s in shifted:
        g = gcd(g, s)
    if g > 1:
        shifted = [s // g for s in shifted]
    return tuple(shifted)
