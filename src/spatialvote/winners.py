"""Necessary- and possible-winner algorithms for partial spatial profiles.

Necessary winners are decided for every positional scoring rule and every
fixed dimension by maximizing per-voter score differences over the
enumerated ranking completions.  Possible winners are decided in polynomial
time for plurality and veto in any dimension (via bipartite flows over the
first/last-place-capable candidate sets), and in one dimension for all
two-valued rules (via a reduction to equal-length scheduling), weighted veto
rules, and the three-valued rules F(k, t) with k > t.  Everything else falls
back to the exhaustive oracle behind an explicit opt-in flag.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

from . import oracle
from .errors import DimensionMismatch, NoPolynomialAlgorithm, RuleMismatch
from .geometry import ranking_completions
from .model import (
    Candidate,
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


def max_score_diff_voter(
    voter: VoterBox,
    candidates: tuple[Candidate, ...],
    rule: ScoringRule,
    c: int,
    rival: int,
) -> int:
    """max over the voter's completions of score(rival) - score(c)."""
    if c == rival:
        raise ValueError("candidates must differ")
    vec = realize_score_vector(rule, len(candidates))
    best = None
    for rw in ranking_completions(candidates, voter):
        diff = vec[rw.ranking.index(rival)] - vec[rw.ranking.index(c)]
        if best is None or diff > best:
            best = diff
    assert best is not None
    return best


def necessary_winner(profile: PartialSpatialProfile, rule: ScoringRule, c: int) -> bool:
    """True iff `c` wins in every ranking completion of the profile."""
    m = profile.num_candidates
    for rival in range(m):
        if rival == c:
            continue
        total = sum(
            max_score_diff_voter(v, profile.candidates, rule, c, rival)
            for v in profile.voters
        )
        if total > 0:
            return False
    return True


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
        for rw in ranking_completions(profile.candidates, voter):
            approved.update(rw.ranking[:k])
        lo, hi = min(approved), max(approved)
        assert len(approved) == hi - lo + 1, "approved set is not consecutive"
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
            for rw in ranking_completions(profile.candidates, voter)
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
            for rw in ranking_completions(profile.candidates, voter)
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
        frozenset(rw.ranking[0] for rw in ranking_completions(profile.candidates, v))
        for v in profile.voters
    ]


def last_place_sets(profile: PartialSpatialProfile) -> list[frozenset[int]]:
    """Per voter, the candidates rankable last in some completion."""
    return [
        frozenset(rw.ranking[-1] for rw in ranking_completions(profile.candidates, v))
        for v in profile.voters
    ]


def pw_plurality(profile: PartialSpatialProfile, c: int) -> bool:
    """Possible winner under plurality, any fixed dimension.

    Every voter able to rank `c` first does so; the rest must distribute
    their first places so no rival exceeds `c`'s score, which is a bipartite
    flow with per-rival capacities.
    """
    firsts = first_place_sets(profile)
    score = sum(1 for f in firsts if c in f)
    rest = [i for i, f in enumerate(firsts) if c not in f]
    if not rest:
        return True
    if score == 0:
        return False
    m = profile.num_candidates
    source, sink = 0, 1
    voter_node = {i: 2 + j for j, i in enumerate(rest)}
    cand_node = {q: 2 + len(rest) + q for q in range(m)}
    net = _FlowNetwork(2 + len(rest) + m)
    for i in rest:
        net.add_edge(source, voter_node[i], 1)
        for q in firsts[i]:
            net.add_edge(voter_node[i], cand_node[q], 1)
    for q in range(m):
        if q != c:
            net.add_edge(cand_node[q], sink, score)
    return net.max_flow(source, sink) == len(rest)


def pw_veto(profile: PartialSpatialProfile, c: int) -> bool:
    """Possible winner under veto, any fixed dimension.

    Voters that can only veto `c` do; each rival then needs at least that
    many vetoes, a flow problem with per-rival lower bounds realized as
    saturating capacities.
    """
    lasts = last_place_sets(profile)
    forced = sum(1 for l in lasts if l == frozenset({c}))
    if forced == 0:
        return True
    free = [i for i, l in enumerate(lasts) if l != frozenset({c})]
    m = profile.num_candidates
    source, sink = 0, 1
    voter_node = {i: 2 + j for j, i in enumerate(free)}
    cand_node = {q: 2 + len(free) + q for q in range(m)}
    net = _FlowNetwork(2 + len(free) + m)
    for i in free:
        net.add_edge(source, voter_node[i], 1)
        for q in lasts[i]:
            if q != c:
                net.add_edge(voter_node[i], cand_node[q], 1)
    for q in range(m):
        if q != c:
            net.add_edge(cand_node[q], sink, forced)
    return net.max_flow(source, sink) == (m - 1) * forced


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------


def _two_valued_k(canon: tuple[int, ...]) -> int | None:
    if set(canon) == {0, 1}:
        return canon.count(1)
    return None


def _weighted_veto_band(canon: tuple[int, ...]) -> int | None:
    m = len(canon)
    top = canon[0]
    lead = 0
    while lead < m and canon[lead] == top:
        lead += 1
    band = m - lead
    if band >= 1 and 2 * band < m:
        return band
    return None


def _fkt_params(canon: tuple[int, ...]) -> tuple[int, int] | None:
    if max(canon) != 2 or not set(canon) <= {0, 1, 2}:
        return None
    k = canon.count(2)
    t = canon.count(0)
    if canon != (2,) * k + (1,) * (len(canon) - k - t) + (0,) * t:
        return None
    if k >= 1 and t >= 1:
        return (k, t)
    return None


def route_for(profile: PartialSpatialProfile, rule: ScoringRule) -> str:
    """Which algorithm `possible_winner` would use for this rule/dimension."""
    m = profile.num_candidates
    canon = canonical_vector(realize_score_vector(rule, m))
    if canon == (1,) + (0,) * (m - 1):
        return "plurality-flow"
    if canon == (1,) * (m - 1) + (0,):
        return "veto-flow"
    if profile.dimension == 1:
        if _two_valued_k(canon) is not None:
            return "two-valued-1d"
        if _weighted_veto_band(canon) is not None:
            return "weighted-veto-1d"
        params = _fkt_params(canon)
        if params is not None and params[0] > params[1]:
            return "fkt-1d"
    return "oracle"


def possible_winner(
    profile: PartialSpatialProfile,
    rule: ScoringRule,
    c: int,
    allow_exponential: bool = False,
    guard: int = oracle.DEFAULT_GUARD,
) -> bool:
    """Decide whether `c` is a possible winner, using the matching polynomial
    algorithm when one exists, else the exhaustive oracle behind the flag."""
    route = route_for(profile, rule)
    if route == "plurality-flow":
        return pw_plurality(profile, c)
    if route == "veto-flow":
        return pw_veto(profile, c)
    m = profile.num_candidates
    canon = canonical_vector(realize_score_vector(rule, m))
    if route == "two-valued-1d":
        return pw_two_valued_1d(profile, _two_valued_k(canon), c)
    if route == "weighted-veto-1d":
        band = _weighted_veto_band(canon)
        betas = canon[m - band :]
        return pw_weighted_veto_1d(profile, ScoringRule.weighted_veto(canon[0], betas), c)
    if route == "fkt-1d":
        k, t = _fkt_params(canon)
        return pw_fkt_1d(profile, ScoringRule.fkt(k, t), c)
    if not allow_exponential:
        raise NoPolynomialAlgorithm(
            f"no polynomial possible-winner algorithm for this rule in d={profile.dimension}; "
            "pass allow_exponential to use the oracle"
        )
    return oracle.is_possible_winner(profile, rule, c, guard)


def _require_1d(profile: PartialSpatialProfile) -> None:
    if profile.dimension != 1:
        raise DimensionMismatch("this algorithm needs a one-dimensional profile")
