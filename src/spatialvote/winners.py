"""Necessary- and possible-winner sets for partial spatial profiles.

`necessary_winner` and `possible_winner` take the candidate indices to decide
(`range(m)` for the whole set, `(c,)` for one verdict) and return the winners
among them.  Necessary winners: every positional scoring rule and every fixed
dimension, in one pass per voter over its completions.  Possible winners, in
polynomial time: plurality and veto in any dimension (bipartite flows over the
first/last-place-capable candidate sets, one node per voter type); in one
dimension, all two-valued rules (reduction to equal-length scheduling),
weighted veto rules, and the three-valued rules F(k, t) with k > t.
Everything else falls back, behind an explicit opt-in flag, to one exhaustive
oracle pass for all the candidates.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from . import oracle
from .errors import (
    DimensionMismatch,
    NoPolynomialAlgorithm,
    RuleMismatch,
    SelfCheckFailed,
    UnknownCandidate,
)
from .geometry import ranking_completions
from .model import (
    PartialSpatialProfile,
    ScoringRule,
    VoterBox,
    canonical_vector,
    rank_from_point,  # noqa: F401 -- unused, kept because perfbench/tracer.py patches it
    realize_score_vector,
)
from .scheduling import Job, SchedulingInstance, feasible_equal_length


@dataclass(frozen=True)
class ApprovalWindow:
    """The consecutive candidate range a 1D voter can approve from.

    Every approval completion of the voter is a length-k substring of
    candidates lo..hi (inclusive, 0-based indices into the sorted order).
    """

    voter_id: str
    lo: int
    hi: int


# ---------------------------------------------------------------------------
# Necessary winners (every rule, every fixed d)
# ---------------------------------------------------------------------------


def _candidate_set(profile: PartialSpatialProfile, candidates: Iterable[int]) -> frozenset[int]:
    wanted = frozenset(candidates)
    if not wanted <= frozenset(range(profile.num_candidates)):
        raise UnknownCandidate(f"candidates {sorted(wanted)} not all in range({profile.num_candidates})")
    return wanted


def necessary_winner(
    profile: PartialSpatialProfile, rule: ScoringRule, candidates: Iterable[int]
) -> frozenset[int]:
    """The members of `candidates` that win in every ranking completion.

    A rival r ends strictly ahead of c in some completion iff the sum over
    the (independent) voters of each voter's largest score(r) - score(c) is
    positive (Xia & Conitzer, JAIR 41, 2011).  One pass over each voter's
    completions yields that largest difference for every requested c and
    every rival at once.
    """
    wanted = _candidate_set(profile, candidates)
    m = profile.num_candidates
    vec = realize_score_vector(rule, m)
    lead = {c: [0] * m for c in wanted}
    for voter in profile.voters:
        scores = set()
        for rw in ranking_completions(profile.candidates, voter.bounds):
            score = [0] * m
            for pos, cand in enumerate(rw.ranking):
                score[cand] = vec[pos]
            scores.add(tuple(score))
        if not scores:
            raise SelfCheckFailed(f"voter {voter.id!r} has no ranking completion")
        for c, total in lead.items():
            for r in range(m):
                total[r] += max(score[r] - score[c] for score in scores)
    return frozenset(c for c, total in lead.items() if max(total) <= 0)


# ---------------------------------------------------------------------------
# Two-valued rules in one dimension (scheduling reduction)
# ---------------------------------------------------------------------------


def approval_windows_1d(profile: PartialSpatialProfile, k: int) -> list[ApprovalWindow]:
    """Per voter, the consecutive candidate range its top-k sets draw from."""
    _require_1d(profile)
    m = profile.num_candidates
    if not 1 <= k <= m - 1:
        raise RuleMismatch(f"k={k} is not a two-valued rule at m={m}")
    windows = []
    for voter in profile.voters:
        approved: set[int] = set()
        for rw in ranking_completions(profile.candidates, voter.bounds):
            approved.update(rw.ranking[:k])
        lo, hi = min(approved), max(approved)
        if len(approved) != hi - lo + 1:
            raise SelfCheckFailed(f"voter {voter.id!r}: approved set is not consecutive")
        windows.append(ApprovalWindow(voter.id, lo, hi))
    return windows


def restrict_profile(
    windows: Sequence[ApprovalWindow], k: int, c: int
) -> list[ApprovalWindow]:
    """Shrink windows so each voter either always or never approves `c`.

    Voters whose window misses `c` are untouched; a voter whose window
    contains `c` keeps only [max(lo, c-k+1), min(hi, c+k-1)], inside which
    every length-k substring contains `c`.  This preserves whether `c` is a
    possible winner.
    """
    out = []
    for w in windows:
        if w.lo <= c <= w.hi:
            out.append(ApprovalWindow(w.voter_id, max(w.lo, c - k + 1), min(w.hi, c + k - 1)))
        else:
            out.append(w)
    return out


def pw_two_valued_1d(profile: PartialSpatialProfile, k: int, c: int) -> bool:
    """Possible winner under k-approval in one dimension.

    After restricting windows around `c`, each voter becomes an equal-length
    job (window lo..hi maps to arrival lo+1, deadline hi+2, length k) and
    the machine count is the number of voters that necessarily approve `c`;
    `c` can win exactly when the jobs admit a feasible schedule.
    """
    windows = approval_windows_1d(profile, k)
    if not windows:
        return True
    supporters = sum(1 for w in windows if w.lo <= c <= w.hi)
    if supporters == 0:
        return False
    restricted = restrict_profile(windows, k, c)
    jobs = tuple(
        Job(id=f"j{i}", arrival=w.lo + 1, deadline=w.hi + 2, processing=k)
        for i, w in enumerate(restricted)
    )
    instance = SchedulingInstance(jobs, machines=supporters)
    return feasible_equal_length(instance, k) is not None


# ---------------------------------------------------------------------------
# Weighted veto and F(k, t) in one dimension
# ---------------------------------------------------------------------------


def pw_weighted_veto_1d(profile: PartialSpatialProfile, rule: ScoringRule, c: int) -> bool:
    """Possible winner under a weighted veto rule (alpha, ..., alpha, betas)."""
    _require_1d(profile)
    if rule.kind != "weighted-veto":
        raise RuleMismatch(f"expected a weighted veto rule, got {rule.kind}")
    m = profile.num_candidates
    realize_score_vector(rule, m)  # validates 2*len(betas) < m
    band = len(rule.betas)
    if band <= c <= m - band - 1:
        return True  # middle candidates always reach the maximal score
    # an edge candidate must collect alpha from every voter
    top = m - band
    for voter in profile.voters:
        if not any(
            rw.ranking.index(c) < top
            for rw in ranking_completions(profile.candidates, voter.bounds)
        ):
            return False
    return True


def pw_fkt_1d(profile: PartialSpatialProfile, rule: ScoringRule, c: int) -> bool:
    """Possible winner under F(k, t) with k > t in one dimension.

    Middle-band candidates win under F(k, t) exactly when they win under
    plain k-approval.  An edge candidate must additionally never score zero,
    so each voter's box is first shrunk to the region where the candidate
    stays out of the bottom t positions.

    That region is a single interval, so shrinking the box to the span of
    the witnesses of its admissible rankings keeps exactly those rankings.
    Proof: each rival r ranks above c on a ray of ideal points (ties at the
    r-c midpoint go by index).  If r sits left of c, the ray comes from
    -infinity and ends at the midpoint, before c's position; if r sits right
    of c, the ray starts after c's position.  So the number of rivals above
    c is non-increasing up to c's position and non-decreasing after it, and
    each of its sublevel sets, "fewer than m - t rivals above c" among them,
    is an interval.
    """
    _require_1d(profile)
    if rule.kind != "fkt":
        raise RuleMismatch(f"expected an F(k,t) rule, got {rule.kind}")
    k, t = rule.k, rule.t
    if not k > t:
        raise RuleMismatch(f"F({k},{t}) needs k > t for the polynomial algorithm")
    m = profile.num_candidates
    realize_score_vector(rule, m)
    if t <= c <= m - t - 1:
        return pw_two_valued_1d(profile, k, c)

    voters = []
    for voter in profile.voters:
        xs = [
            rw.witness[0]
            for rw in ranking_completions(profile.candidates, voter.bounds)
            if rw.ranking.index(c) < m - t
        ]
        if not xs:
            return False
        voters.append(VoterBox(voter.id, ((min(xs), max(xs)),)))
    return pw_two_valued_1d(profile.with_voters(voters), k, c)


# ---------------------------------------------------------------------------
# Plurality and veto in any dimension (bipartite flows)
# ---------------------------------------------------------------------------


class _FlowNetwork:
    """Plain BFS-augmenting max flow on small integer-capacity graphs."""

    def __init__(self, num_nodes: int):
        self.adj: list[list[list[int]]] = [[] for _ in range(num_nodes)]

    def add_edge(self, u: int, v: int, cap: int) -> None:
        self.adj[u].append([v, cap, len(self.adj[v])])
        self.adj[v].append([u, 0, len(self.adj[u]) - 1])

    def max_flow(self, s: int, t: int) -> int:
        total = 0
        while True:
            parent: dict[int, tuple[int, int]] = {}
            queue = deque([s])
            while queue and t not in parent:
                u = queue.popleft()
                for ei, (v, cap, _) in enumerate(self.adj[u]):
                    if cap > 0 and v != s and v not in parent:
                        parent[v] = (u, ei)
                        queue.append(v)
            if t not in parent:
                return total
            path = []
            node = t
            while node != s:
                u, ei = parent[node]
                path.append((u, ei))
                node = u
            bottleneck = min(self.adj[u][ei][1] for u, ei in path)
            for u, ei in path:
                edge = self.adj[u][ei]
                edge[1] -= bottleneck
                self.adj[edge[0]][edge[2]][1] += bottleneck
            total += bottleneck


def first_place_sets(profile: PartialSpatialProfile) -> list[frozenset[int]]:
    """Per voter, the candidates rankable first in some completion."""
    return [
        frozenset(rw.ranking[0] for rw in ranking_completions(profile.candidates, v.bounds))
        for v in profile.voters
    ]


def last_place_sets(profile: PartialSpatialProfile) -> list[frozenset[int]]:
    """Per voter, the candidates rankable last in some completion."""
    return [
        frozenset(rw.ranking[-1] for rw in ranking_completions(profile.candidates, v.bounds))
        for v in profile.voters
    ]


def pw_plurality(profile: PartialSpatialProfile, c: int) -> bool:
    """Possible winner under plurality, any fixed dimension.

    Every voter able to rank `c` first does so; the rest must distribute
    their first places so no rival exceeds `c`'s score, which is a bipartite
    flow with per-rival capacities (Betzler & Dorn, JCSS 76(8), 2010).
    Voters with equal first-place sets form one voter type, a single node
    whose edges carry the type's multiplicity, so the network has at most
    2 + (distinct sets) + m nodes whatever the number of voters.
    """
    types = Counter(first_place_sets(profile))
    score = sum(n for f, n in types.items() if c in f)
    rest = {f: n for f, n in types.items() if c not in f}
    if not rest:
        return True
    if score == 0:
        return False
    return _typed_flow(profile.num_candidates, c, rest, score) == sum(rest.values())


def pw_veto(profile: PartialSpatialProfile, c: int) -> bool:
    """Possible winner under veto, any fixed dimension.

    Voters that can only veto `c` do; each rival then needs at least that
    many vetoes, a flow problem with per-rival lower bounds realized as
    saturating capacities.  As in `pw_plurality`, voters with equal
    last-place sets share one type node carrying their multiplicity.
    """
    only_c = frozenset({c})
    types = Counter(last_place_sets(profile))
    forced = types.get(only_c, 0)
    if forced == 0:
        return True
    free = {l: n for l, n in types.items() if l != only_c}
    m = profile.num_candidates
    return _typed_flow(m, c, free, forced) == (m - 1) * forced


def _typed_flow(m: int, c: int, types: dict[frozenset[int], int], cap: int) -> int:
    """Max flow from voter types to the rivals of `c`, each rival capped at `cap`.

    Source -> type has the type's multiplicity as capacity, and so has every
    type -> rival edge for the rivals in the type's set.
    """
    source, sink = 0, 1
    cand_node = 2 + len(types)
    net = _FlowNetwork(cand_node + m)
    for node, (places, n) in enumerate(types.items(), start=2):
        net.add_edge(source, node, n)
        for q in places:
            if q != c:
                net.add_edge(node, cand_node + q, n)
    for q in range(m):
        if q != c:
            net.add_edge(cand_node + q, sink, cap)
    return net.max_flow(source, sink)


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------


def _route(
    profile: PartialSpatialProfile, rule: ScoringRule
) -> tuple[str, Callable[[int], bool] | None]:
    """The possible-winner route for this rule/dimension and its per-candidate
    decider; the oracle route has no decider.

    Rule families are matched on the canonical vector, which is
    nonincreasing, ends in 0 and starts above 0.
    """
    m = profile.num_candidates
    canon = canonical_vector(realize_score_vector(rule, m))
    if canon == (1,) + (0,) * (m - 1):
        return "plurality-flow", lambda c: pw_plurality(profile, c)
    if canon == (1,) * (m - 1) + (0,):
        return "veto-flow", lambda c: pw_veto(profile, c)
    if profile.dimension == 1:
        if set(canon) == {0, 1}:
            k = canon.count(1)
            return "two-valued-1d", lambda c: pw_two_valued_1d(profile, k, c)
        band = m - canon.count(canon[0])
        if 2 * band < m:
            wveto = ScoringRule.weighted_veto(canon[0], canon[m - band :])
            return "weighted-veto-1d", lambda c: pw_weighted_veto_1d(profile, wveto, c)
        k, t = canon.count(2), canon.count(0)
        if set(canon) == {0, 1, 2} and k > t:
            fkt = ScoringRule.fkt(k, t)
            return "fkt-1d", lambda c: pw_fkt_1d(profile, fkt, c)
    return "oracle", None


def route_for(profile: PartialSpatialProfile, rule: ScoringRule) -> str:
    """Which algorithm `possible_winner` would use for this rule/dimension."""
    return _route(profile, rule)[0]


def possible_winner(
    profile: PartialSpatialProfile,
    rule: ScoringRule,
    candidates: Iterable[int],
    allow_exponential: bool = False,
    guard: int = oracle.DEFAULT_GUARD,
) -> frozenset[int]:
    """The members of `candidates` that win in some ranking completion.

    Each candidate is decided by the route's polynomial algorithm when one
    exists; otherwise, behind the flag, one exhaustive oracle pass answers
    for all of them.
    """
    wanted = _candidate_set(profile, candidates)
    _, decide = _route(profile, rule)
    if decide is not None:
        return frozenset(c for c in wanted if decide(c))
    if not allow_exponential:
        raise NoPolynomialAlgorithm(
            f"no polynomial possible-winner algorithm for this rule in d={profile.dimension}; "
            "pass allow_exponential to use the oracle"
        )
    return oracle.brute_pw(profile, rule, guard) & wanted


def _require_1d(profile: PartialSpatialProfile) -> None:
    if profile.dimension != 1:
        raise DimensionMismatch("this algorithm needs a one-dimensional profile")
