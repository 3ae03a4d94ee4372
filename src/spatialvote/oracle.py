"""Brute-force ground truth over all ranking completions of a profile.

The completion space is the Cartesian product of each voter's ranking
completions; `tests/oracle_reference.py` lists it one profile at a time as
the naive reference.  The winner-set queries never visit a completion:
winners depend only on the candidates' score totals, so one iterative fold
over the voters builds the set of totals that some completion reaches (per
voter, every reached total plus every distinct score vector the voter can
contribute), and the possible and necessary winners are the union and
intersection of the winner sets of those totals.  Each score vector is one
packed `int` with a fixed-width bit field per candidate, wide enough that
no field carries into the next, so a step adds plain integers; every
reached total is read once, after the fold.  When every total fits in a
byte per candidate, the fields are bytes and each total's winners are read
at C speed: `int.to_bytes` gives its fields, `max` its top score and
`bytes.translate` its 0/1 winner pattern.  Wider totals are unpacked field
by field with shifts and masks.  The guard bounds the whole fold's work:
before each voter's step, the (total, contribution) pairs of every step so
far, that one included, a count that packing leaves unchanged.
"""

from __future__ import annotations

from .errors import DEFAULT_GUARD, _check_guard
from .geometry import ranking_completions
from .model import (
    PartialSpatialProfile,
    ScoringRule,
    realize_score_vector,
    winners_of_scores,
)


def completion_lists(profile: PartialSpatialProfile) -> list[tuple]:
    """Per-voter deduplicated ranking completions (with witnesses)."""
    return [ranking_completions(profile.candidates, v.bounds) for v in profile.voters]


def _score_choices(profile: PartialSpatialProfile, rule: ScoringRule) -> tuple[list[set[int]], int]:
    """Per voter, the distinct per-candidate score contributions, packed.

    Returns the packed contributions and the field width w: candidate c's
    score sits in bits [c*w, (c+1)*w) of one `int`.  With n voters no
    candidate's total exceeds n * vec[0] < 2**w, and scores are naturals, so
    adding packed values adds every field on its own and nothing carries
    into the next.  Each distinct contribution is one distinct `int`, so the
    fold's reached sets, and the guard's counts, are those of the per-
    candidate tuples, whatever w is.

    w is 8 whenever n * vec[0] < 256, so `_winner_sets` can read each total
    as one byte per candidate; otherwise w is the bit length of n * vec[0].
    `bytes.translate` reads one-byte fields only, so larger totals, up to
    explicit vectors with scores such as 2**70, keep the shift-and-mask
    unpack.
    """
    lists = completion_lists(profile)
    vec = realize_score_vector(rule, profile.num_candidates)
    bits = max(1, (len(lists) * vec[0]).bit_length())
    width = 8 if bits <= 8 else bits
    choices = [
        {sum(vec[pos] << (cand * width) for pos, cand in enumerate(rw.ranking)) for rw in lst}
        for lst in lists
    ]
    return choices, width


def _winner_sets(
    profile: PartialSpatialProfile, rule: ScoringRule, guard: int
) -> tuple[frozenset[int], frozenset[int]]:
    """(union, intersection) of the winner sets over every completion."""
    m = profile.num_candidates
    choices, width = _score_choices(profile, rule)
    reachable, work = {0}, 0
    for contribs in choices:
        work += len(reachable) * len(contribs)
        _check_guard(work, guard, "score-total pairs in the fold")
        reachable = {t + c for t in reachable for c in contribs}
    if width == 8:
        # eq[mx] maps byte mx to 1 and every other byte to 0, so translating
        # a total's bytes by the table of its largest byte gives its winners'
        # 0/1 pattern; built here, not at import, so other commands skip it
        eq = [bytes(mx) + b"\1" + bytes(255 - mx) for mx in range(256)]
        patterns = {(b := t.to_bytes(m, "little")).translate(eq[max(b)]) for t in reachable}
        winner_sets = (frozenset(c for c, hit in enumerate(p) if hit) for p in patterns)
    else:
        mask = (1 << width) - 1
        shifts = range(0, m * width, width)
        winner_sets = (winners_of_scores([(t >> s) & mask for s in shifts]) for t in reachable)
    union, inter = frozenset(), frozenset(range(m))
    for winners in winner_sets:
        union |= winners
        inter &= winners
    return union, inter


def brute_pw(
    profile: PartialSpatialProfile, rule: ScoringRule, guard: int = DEFAULT_GUARD
) -> frozenset[int]:
    """Union of winner sets over every completion."""
    return _winner_sets(profile, rule, guard)[0]


def brute_nw(
    profile: PartialSpatialProfile, rule: ScoringRule, guard: int = DEFAULT_GUARD
) -> frozenset[int]:
    """Intersection of winner sets over every completion; may be empty."""
    return _winner_sets(profile, rule, guard)[1]


def is_possible_winner(
    profile: PartialSpatialProfile,
    rule: ScoringRule,
    candidate: int,
    guard: int = DEFAULT_GUARD,
) -> bool:
    """Whether `candidate` wins some completion."""
    return candidate in _winner_sets(profile, rule, guard)[0]

