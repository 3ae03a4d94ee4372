"""Necessary- and possible-winner sets for partial spatial profiles.

`necessary_winner` and `possible_winner` take the candidate indices to decide
(`range(m)` for the whole set, `(c,)` for one verdict) and return the winners
among them.  A voter's possible contributions depend only on its box, so
every route reads one per-box voter count (`_box_types`): each distinct box
is summarized once per call, and every candidate is decided from the counts.
Necessary winners: every positional scoring rule and every fixed dimension,
in one pass over the voter types, the distinct sets of score vectors a
voter can contribute.  Possible winners, in polynomial time: plurality and veto in
any dimension (bipartite flows over the first/last-place sets, one node per
voter type, read in d >= 2 off the Voronoi cells by `geometry.place_sets`);
in one dimension, all two-valued rules (equal-length scheduling over the
approval windows), weighted veto rules (an intersection of those windows)
and the three-valued rules F(k, t) with k > t.  Everything else falls back,
behind an explicit opt-in flag, to one exhaustive oracle pass.

In one dimension the approval windows, and the NW types under every rule,
are read off each box's run of the shared line arrangement
(`geometry.arrangement_run_1d`), so those routes enumerate no completion;
only the 1D plurality and veto flows read their place sets off
`ranking_completions`.
"""

from __future__ import annotations

from collections import Counter, deque
from functools import partial
from typing import TYPE_CHECKING, Callable, Hashable, Iterable, Sequence

from .errors import (
    DEFAULT_GUARD,
    DimensionMismatch,
    NoPolynomialAlgorithm,
    RuleMismatch,
    SelfCheckFailed,
    UnknownCandidate,
)
from .geometry import arrangement_run_1d, place_sets, ranking_completions
from .model import (
    PartialSpatialProfile,
    ScoringRule,
    canonical_vector,
    rank_from_point,  # noqa: F401 -- unused, kept because perfbench/tracer.py patches it
    realize_score_vector,
)

if TYPE_CHECKING:
    from .scheduling import Schedule, SchedulingInstance


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
    positive (Xia & Conitzer, JAIR 41, 2011).  That largest difference
    depends only on the set of score vectors a voter can contribute, its
    type (`_voter_types`).  Each distinct score vector s gets one difference
    row, row[c*m + r] = s[r] - s[c]; a type's largest differences, for every
    (c, r) at once, are the fieldwise max of its vectors' rows, and the
    type's multiplicity times that adds into one m*m lead table.  Candidate
    c is a necessary winner iff no entry of its block of m leads is
    positive; `candidates` only filters the result.
    """
    wanted = _candidate_set(profile, candidates)
    m = profile.num_candidates
    lead = [0] * (m * m)
    rows: dict[tuple[int, ...], list[int]] = {}
    for scores, n in _voter_types(profile, realize_score_vector(rule, m)).items():
        own = []
        for s in scores:
            if s not in rows:
                rows[s] = [y - x for x in s for y in s]
            own.append(rows[s])
        most = own[0] if len(own) == 1 else map(max, *own)
        lead = [total + n * d for total, d in zip(lead, most)]
    return frozenset(c for c in wanted if max(lead[c * m : (c + 1) * m]) <= 0)


def _box_types(profile: PartialSpatialProfile, summary: Callable[[tuple], Hashable | None]) -> Counter | None:
    """The voters counted by `summary(bounds)` of their box, called once per
    distinct box; None, without a further call, at the first box whose
    summary is None."""
    types: Counter = Counter()
    for bounds, n in Counter(v.bounds for v in profile.voters).items():
        key = summary(bounds)
        if key is None:
            return None
        types[key] += n
    return types


def _voter_types(
    profile: PartialSpatialProfile, vec: Sequence[int]
) -> Counter[frozenset[tuple[int, ...]]]:
    """The voters counted by the set of score vectors each can contribute.

    In d >= 2, under plurality and veto a vector is fixed by its first or
    last place, so the types come from the place sets (`_place_types`),
    which never enumerate completions.  Otherwise each distinct box's
    rankings are read once: in d = 1, under every rule, those of its run of
    the shared line arrangement (`geometry.arrangement_run_1d`, two
    bisections and no witness), in d >= 2 its completions; each distinct
    ranking is scored once per call, however many boxes share it.
    """
    m = len(vec)
    canon = canonical_vector(vec)
    if profile.dimension > 1 and canon in ((1,) + (0,) * (m - 1), (1,) * (m - 1) + (0,)):
        last = canon[1] == 1
        placed, other = (vec[-1], vec[0]) if last else (vec[0], vec[-1])
        return Counter({
            frozenset(tuple(placed if q == p else other for q in range(m)) for p in places): n
            for places, n in _place_types(profile, last).items()
        })

    scored: dict[tuple[int, ...], tuple[int, ...]] = {}  # ranking -> score vector

    def score(ranking: tuple[int, ...]) -> tuple[int, ...]:
        vector = scored.get(ranking)
        if vector is None:
            points = [0] * m
            for pos, cand in enumerate(ranking):
                points[cand] = vec[pos]
            vector = scored[ranking] = tuple(points)
        return vector

    def scores(bounds: tuple) -> frozenset[tuple[int, ...]]:
        if profile.dimension == 1:
            rankings = arrangement_run_1d(profile.candidates, bounds[0])
        else:
            rankings = [rw.ranking for rw in ranking_completions(profile.candidates, bounds)]
        if not rankings:
            raise SelfCheckFailed(f"box {bounds} has no ranking completion")
        return frozenset(map(score, rankings))

    return _box_types(profile, scores)


# ---------------------------------------------------------------------------
# Two-valued rules in one dimension (scheduling reduction)
# ---------------------------------------------------------------------------


def approval_windows_1d(profile: PartialSpatialProfile, k: int) -> Counter[tuple[int, int]]:
    """The voters counted by the window (lo, hi) of consecutive candidates
    (indices into the sorted order) that their box's top-k sets draw from.

    Each distinct box's window is read off its run of the shared line
    arrangement (`_window`), so no completion is enumerated.  The box's
    top-k sets are exactly the blocks of k consecutive candidates inside
    its window, by the one-step block lemma: positions strictly increase,
    so p_s + p_{s+k} < p_{s+1} + p_{s+k+1}; as the ideal point moves right
    the top-k block moves one candidate at a time, at the midpoint of p_s
    and p_{s+k}, where index tie-breaking keeps the left block, so a box's
    top-k sets are every block between those of its ends.
    """
    _require_1d(profile)
    m = profile.num_candidates
    if not 1 <= k <= m - 1:
        raise RuleMismatch(f"k={k} is not a two-valued rule at m={m}")
    return _box_types(profile, partial(_window, profile.candidates, k))


def _window(candidates: Sequence, k: int, bounds: tuple, admissible=lambda ranking: True) -> tuple[int, int] | None:
    """The window of the top-k sets of the box's admissible completions, or
    None if it has none.

    The completions are the rankings of the 1D box's run of the shared line
    arrangement (`geometry.arrangement_run_1d`): two bisections and a slice
    per box, with no witness built.  The window is consecutive by the
    one-step block lemma (`approval_windows_1d`), and under an admissible
    filter by the interval argument of `pw_fkt_1d`; a window that is not
    raises.
    """
    approved = {
        cand
        for ranking in arrangement_run_1d(candidates, bounds[0])
        if admissible(ranking)
        for cand in ranking[:k]
    }
    if not approved:
        return None
    lo, hi = min(approved), max(approved)
    if len(approved) != hi - lo + 1:
        raise SelfCheckFailed(f"box {bounds}: approved set is not consecutive")
    return lo, hi


def feasible_equal_length(instance: SchedulingInstance) -> Schedule | None:
    """`scheduling.feasible_equal_length`, whose module loads on the first
    call; the routes call it through this attribute, which perfbench's
    tracer wraps."""
    from .scheduling import feasible_equal_length

    return feasible_equal_length(instance)


def _schedulable(windows: Counter[tuple[int, int]], k: int, c: int) -> bool:
    """Whether `c` can win k-approval when each voter approves k consecutive
    candidates inside its window; `windows` counts the voters per window.

    A window containing `c` shrinks to [max(lo, c-k+1), min(hi, c+k-1)],
    where every choice approves `c`; this keeps whether `c` can win.  Each
    voter's window lo..hi becomes an equal-length job (arrival lo+1,
    deadline hi+2, length k), one machine per voter that approves `c`, and
    `c` can win exactly when the jobs admit a feasible schedule.
    """
    from .scheduling import Job, SchedulingInstance

    jobs = []
    supporters = 0
    for (lo, hi), n in windows.items():
        if lo <= c <= hi:
            supporters += n
            lo, hi = max(lo, c - k + 1), min(hi, c + k - 1)
        for _ in range(n):
            jobs.append(Job(id=f"j{len(jobs)}", arrival=lo + 1, deadline=hi + 2, processing=k))
    if supporters == 0:
        return not windows
    instance = SchedulingInstance(tuple(jobs), machines=supporters)
    return feasible_equal_length(instance) is not None


def pw_two_valued_1d(
    profile: PartialSpatialProfile, k: int, candidates: Iterable[int]
) -> frozenset[int]:
    """The possible winners among `candidates` under k-approval in one
    dimension: one pass over the distinct boxes counts the voters per
    approval window, then one scheduling instance per candidate decides it."""
    wanted = _candidate_set(profile, candidates)
    windows = approval_windows_1d(profile, k)
    return frozenset(c for c in wanted if _schedulable(windows, k, c))


# ---------------------------------------------------------------------------
# Weighted veto and F(k, t) in one dimension
# ---------------------------------------------------------------------------


def pw_weighted_veto_1d(
    profile: PartialSpatialProfile, rule: ScoringRule, candidates: Iterable[int]
) -> frozenset[int]:
    """The possible winners among `candidates` under a weighted veto rule
    (alpha, ..., alpha, betas) in one dimension.

    A candidate wins iff every voter can rank it above the bottom band, that
    is, inside the top-(m - len(betas)) approval window of its box.  The
    bottom band always holds the farthest candidates, which sit at the ends
    of the line, so every middle candidate is in every window (it scores
    the maximal n * alpha in every completion) and only edge candidates,
    the len(betas) leftmost and rightmost, can fail.
    """
    _require_1d(profile)
    if rule.kind != "weighted-veto":
        raise RuleMismatch(f"expected a weighted veto rule, got {rule.kind}")
    wanted = _candidate_set(profile, candidates)
    m = profile.num_candidates
    realize_score_vector(rule, m)  # validates 2*len(betas) < m
    windows = approval_windows_1d(profile, m - len(rule.betas))
    lo = max((lo for lo, _ in windows), default=0)
    hi = min((hi for _, hi in windows), default=m - 1)
    return wanted & frozenset(range(lo, hi + 1))


def pw_fkt_1d(
    profile: PartialSpatialProfile, rule: ScoringRule, candidates: Iterable[int]
) -> frozenset[int]:
    """The possible winners among `candidates` under F(k, t) with k > t in
    one dimension.

    Middle-band candidates win under F(k, t) exactly when they win under
    plain k-approval, and one `pw_two_valued_1d` call decides all of them.
    An edge candidate c must additionally never score zero, so each box is
    kept to its admissible completions, those that rank c above the bottom
    t positions, and its approval window is read from them; c loses at the
    first box with none.

    The admissible completions are those of a single interval of ideal
    points, so their top-k sets still form one consecutive window.  Proof:
    each rival r ranks above c on a ray of ideal points (ties at the r-c
    midpoint go by index).  If r sits left of c, the ray comes from
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
    wanted = _candidate_set(profile, candidates)
    m = profile.num_candidates
    realize_score_vector(rule, m)
    middle = wanted & frozenset(range(t, m - t))
    won = set(pw_two_valued_1d(profile, k, middle)) if middle else set()
    for c in wanted - middle:
        window = partial(_window, profile.candidates, k, admissible=lambda ranking: ranking.index(c) < m - t)
        windows = _box_types(profile, window)
        if windows is not None and _schedulable(windows, k, c):
            won.add(c)
    return frozenset(won)


# ---------------------------------------------------------------------------
# Plurality and veto in any dimension (bipartite flows)
# ---------------------------------------------------------------------------
#
# A flow needs only each box's first-place (plurality) or last-place (veto)
# set: in d >= 2 the candidates whose nearest- (farthest-) point Voronoi cell
# meets the box (`geometry.place_sets`, m LFP calls per distinct box); in
# d = 1 those of its completions, read off the shared line arrangement.


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


def _place_types(profile: PartialSpatialProfile, last: bool) -> Counter[frozenset[int]]:
    """The voters counted by the candidates their box can rank first (last
    if `last`): those whose nearest- (farthest-) point Voronoi cell meets it
    in d >= 2 (`place_sets`), the first (last) places of its completions in
    d = 1.  The flows read both; NW under plurality and veto reads only the
    d >= 2 sets (`_voter_types`)."""
    if profile.dimension > 1:
        return _box_types(profile, partial(place_sets, profile.candidates, last=last))
    pos = -1 if last else 0
    return _box_types(
        profile,
        lambda bounds: frozenset(rw.ranking[pos] for rw in ranking_completions(profile.candidates, bounds)),
    )


def pw_plurality(profile: PartialSpatialProfile, candidates: Iterable[int]) -> frozenset[int]:
    """The possible winners among `candidates` under plurality, any fixed
    dimension.

    Every voter able to rank `c` first does so; the rest must distribute
    their first places so no rival exceeds `c`'s score, which is a bipartite
    flow with per-rival capacities (Betzler & Dorn, JCSS 76(8), 2010).
    Voters with equal first-place sets form one voter type, a single node
    whose edges carry the type's multiplicity, so the network has at most
    2 + (distinct sets) + m nodes whatever the number of voters.  The types
    are counted once per call, one place set per distinct box, and shared
    by every candidate's flow.
    """
    wanted = _candidate_set(profile, candidates)
    types = _place_types(profile, last=False)
    m = profile.num_candidates
    won = set()
    for c in wanted:
        score = sum(n for f, n in types.items() if c in f)
        rest = {f: n for f, n in types.items() if c not in f}
        if not rest or (score > 0 and _typed_flow(m, c, rest, score) == sum(rest.values())):
            won.add(c)
    return frozenset(won)


def pw_veto(profile: PartialSpatialProfile, candidates: Iterable[int]) -> frozenset[int]:
    """The possible winners among `candidates` under veto, any fixed
    dimension.

    Voters that can only veto `c` do; each rival then needs at least that
    many vetoes, a flow problem with per-rival lower bounds realized as
    saturating capacities.  As in `pw_plurality`, voters with equal
    last-place sets share one type node carrying their multiplicity, and
    the types are counted once per call.
    """
    wanted = _candidate_set(profile, candidates)
    types = _place_types(profile, last=True)
    m = profile.num_candidates
    won = set()
    for c in wanted:
        only_c = frozenset({c})
        forced = types.get(only_c, 0)
        free = {l: n for l, n in types.items() if l != only_c}
        if forced == 0 or _typed_flow(m, c, free, forced) == (m - 1) * forced:
            won.add(c)
    return frozenset(won)


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
) -> tuple[str, Callable[..., frozenset[int]] | None]:
    """The possible-winner route for this rule/dimension and its winner-set
    function, called as `winner_set(profile, candidates=...)`; the oracle
    route has none.

    Rule families are matched on the canonical vector, which is
    nonincreasing, ends in 0 and starts above 0.
    """
    m = profile.num_candidates
    canon = canonical_vector(realize_score_vector(rule, m))
    if canon == (1,) + (0,) * (m - 1):
        return "plurality-flow", pw_plurality
    if canon == (1,) * (m - 1) + (0,):
        return "veto-flow", pw_veto
    if profile.dimension == 1:
        if set(canon) == {0, 1}:
            return "two-valued-1d", partial(pw_two_valued_1d, k=canon.count(1))
        band = m - canon.count(canon[0])
        if 2 * band < m:
            wveto = ScoringRule.weighted_veto(canon[0], canon[m - band :])
            return "weighted-veto-1d", partial(pw_weighted_veto_1d, rule=wveto)
        k, t = canon.count(2), canon.count(0)
        if set(canon) == {0, 1, 2} and k > t:
            return "fkt-1d", partial(pw_fkt_1d, rule=ScoringRule.fkt(k, t))
    return "oracle", None


def route_for(profile: PartialSpatialProfile, rule: ScoringRule) -> str:
    """Which algorithm `possible_winner` would use for this rule/dimension."""
    return _route(profile, rule)[0]


def possible_winner(
    profile: PartialSpatialProfile,
    rule: ScoringRule,
    candidates: Iterable[int],
    allow_exponential: bool = False,
    guard: int = DEFAULT_GUARD,
) -> frozenset[int]:
    """The members of `candidates` that win in some ranking completion.

    The route's polynomial algorithm answers for all of them in one call
    when one exists; otherwise, behind the flag, one exhaustive oracle pass
    does.
    """
    wanted = _candidate_set(profile, candidates)
    _, winner_set = _route(profile, rule)
    if winner_set is not None:
        return winner_set(profile, candidates=wanted)
    if not allow_exponential:
        raise NoPolynomialAlgorithm(
            f"no polynomial possible-winner algorithm for this rule in d={profile.dimension}; "
            "pass allow_exponential to use the oracle"
        )
    from .oracle import brute_pw

    return brute_pw(profile, rule, guard) & wanted


def _require_1d(profile: PartialSpatialProfile) -> None:
    if profile.dimension != 1:
        raise DimensionMismatch("this algorithm needs a one-dimensional profile")
