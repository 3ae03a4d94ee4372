"""Core domain types for spatial elections with box-shaped voter uncertainty.

Candidates sit at exact rational points in R^d.  Each voter is known only up
to an axis-parallel box of possible ideal points; a concrete choice of point
induces a ranking of the candidates by Euclidean distance.  All arithmetic is
exact: coordinates are `fractions.Fraction` and distances are compared via
squared distances, so no square roots are ever taken.

Ties in distance are broken by ascending candidate index, uniformly across
the whole package.  The records are immutable named tuples that validate
their fields when built; each docstring names the fields in order.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd
from typing import Sequence, Union

from .errors import DimensionMismatch, RuleUndefinedAtM, SelfCheckFailed, UnknownCandidate

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


class Candidate(namedtuple("Candidate", "id position")):
    """A candidate: a string `id` and its exact `position` in R^d (Fractions)."""

    __slots__ = ()

    def __new__(cls, id: str, position: Sequence[RationalLike]) -> "Candidate":
        return super().__new__(cls, id, tuple(as_rational(x) for x in position))


class VoterBox(namedtuple("VoterBox", "id bounds")):
    """A voter's string `id` and `bounds`, one closed interval (lo, hi) per dimension."""

    __slots__ = ()

    def __new__(cls, id: str, bounds: Sequence[tuple[RationalLike, RationalLike]]) -> "VoterBox":
        norm = []
        for i, (lo, hi) in enumerate(bounds):
            lo, hi = as_rational(lo), as_rational(hi)
            if lo > hi:
                raise ValueError(f"voter {id!r}: lower > upper in dimension {i}")
            norm.append((lo, hi))
        return super().__new__(cls, id, tuple(norm))

    @property
    def dimension(self) -> int:
        return len(self.bounds)


#: A strict total order over candidates, best first, as a tuple of indices.
Ranking = tuple[int, ...]

#: A concrete ideal point (spatial completion of one voter).
SpatialPoint = tuple[Fraction, ...]


class PartialSpatialProfile(namedtuple("PartialSpatialProfile", "dimension candidates voters")):
    """A spatial election instance: a positive `dimension` d, a tuple of
    `candidates` and a tuple of `voters` (boxes), all d-dimensional.

    In one dimension the candidates are stored sorted by strictly increasing
    position (duplicate positions are rejected); rankings and windows always
    refer to this sorted order.  In higher dimensions the given order is kept
    and duplicate positions are permitted.
    """

    __slots__ = ()

    def __new__(
        cls, dimension: int, candidates: Sequence[Candidate], voters: Sequence[VoterBox]
    ) -> "PartialSpatialProfile":
        if dimension < 1:
            raise ValueError("dimension must be positive")
        candidates = tuple(candidates)
        voters = tuple(voters)
        if len(candidates) < 2:
            raise ValueError("an instance needs at least two candidates")
        if len({c.id for c in candidates}) != len(candidates):
            raise ValueError("candidate ids must be unique")
        if len({v.id for v in voters}) != len(voters):
            raise ValueError("voter ids must be unique")
        for c in candidates:
            if len(c.position) != dimension:
                raise DimensionMismatch(f"candidate {c.id!r} has {len(c.position)} coordinates, expected {dimension}")
        for v in voters:
            if v.dimension != dimension:
                raise DimensionMismatch(f"voter {v.id!r} has {v.dimension} bounds, expected {dimension}")
        if dimension == 1:
            candidates = tuple(sorted(candidates, key=lambda c: c.position[0]))
            for a, b in zip(candidates, candidates[1:]):
                if a.position[0] == b.position[0]:
                    raise ValueError(f"duplicate candidate position in d=1: {a.id!r} and {b.id!r}")
        return super().__new__(cls, dimension, candidates, voters)

    @property
    def num_candidates(self) -> int:
        return len(self.candidates)

    def candidate_index(self, candidate_id: str) -> int:
        for i, c in enumerate(self.candidates):
            if c.id == candidate_id:
                return i
        raise UnknownCandidate(f"no candidate with id {candidate_id!r}")


class ScoringRule(
    namedtuple("ScoringRule", "kind k t alpha betas vector", defaults=(None, None, None, (), ()))
):
    """A positional scoring rule: a family of nonincreasing score vectors.

    Use the classmethod constructors; ``realize_score_vector`` produces the
    concrete vector for a given number of candidates m.  Two-valued rules
    approve a constant k (k-approval) or m-k (k-veto) candidates; either is
    rejected at m if the count leaves [1, m-1].

    Fields: `kind` (the family's name), then its parameters `k`, `t`,
    `alpha` (None when unused), `betas` and `vector` (() when unused).
    """

    __slots__ = ()

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
    if not (all(a >= b for a, b in zip(vec, vec[1:])) and vec[0] > vec[-1]):
        raise SelfCheckFailed(f"score vector {vec} is not nonincreasing and nonconstant")
    return vec


#: Each rule kind's descriptor: its name, its constructor and the record
#: fields listed after the name, `betas` and `vector` as comma lists.  Both
#: `rule_from_text` and `rule_to_text` read it, so parsing a printed rule
#: gives the rule back.
_DESCRIPTORS = {
    "plurality": ("plurality", ScoringRule.plurality, ()),
    "veto": ("veto", ScoringRule.veto, ()),
    "borda": ("borda", ScoringRule.borda, ()),
    "k-approval": ("approval", ScoringRule.k_approval, ("k",)),
    "k-veto": ("kveto", ScoringRule.k_veto, ("k",)),
    "weighted-veto": ("wveto", ScoringRule.weighted_veto, ("alpha", "betas")),
    "fkt": ("fkt", ScoringRule.fkt, ("k", "t")),
    "vector": ("vector", ScoringRule.explicit, ("vector",)),
}
_LISTS = ("betas", "vector")


def _number(text: str) -> int:
    """The integer `text` spells in canonical form: no sign but a leading
    minus, no leading zeros, spaces or underscores, so printing it back
    gives `text` again."""
    value = int(text)
    if str(value) != text:
        raise ValueError(f"{text!r} is not a canonical integer")
    return value


def rule_from_text(text: str) -> ScoringRule:
    """Parse a textual rule descriptor such as ``approval:2`` or ``fkt:2:1``."""
    name, *params = text.split(":")
    for entry, make, fields in _DESCRIPTORS.values():
        if (entry, len(fields)) == (name, len(params)):
            try:
                return make(*([_number(x) for x in p.split(",")] if f in _LISTS else _number(p) for f, p in zip(fields, params)))
            except ValueError as exc:
                raise ValueError(f"bad rule descriptor {text!r}: {exc}") from exc
    raise ValueError(f"bad rule descriptor {text!r}")


def rule_to_text(rule: ScoringRule) -> str:
    if rule.kind not in _DESCRIPTORS:
        raise ValueError(f"rule {rule!r} has no textual form")
    name, _, fields = _DESCRIPTORS[rule.kind]
    values = [getattr(rule, f) for f in fields]
    return ":".join([name] + [",".join(map(str, v)) if f in _LISTS else str(v) for f, v in zip(fields, values)])


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
    return winners_of_scores(score_profile(rankings, rule))


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
