"""Non-preemptive scheduling with arrival times and deadlines.

The equal-length feasibility solver used by the possible-winner algorithms,
the schedule checker, and the translator from single-machine scheduling
instances to 2D spatial possible-winner instances.  The exhaustive scheduler
that the tests use as an oracle lives in `tests/scheduling_reference.py`.

All times are integers.  A job with arrival a, deadline d, and processing
time p must start at some integer s with a <= s <= d - p; a machine runs at
most one job at a time, with jobs occupying the half-open interval [s, s+p).

The solver's search state counts jobs instead of naming them: jobs of equal
(deadline, arrival) are interchangeable, so it keeps one count of unstarted
jobs per such class and one count of running jobs per end time, each a bit
field of an int.  This is the earliest-deadline-first search over job sets
with its states relabelled; it is still exponential in the worst case, but
a state's size grows with the number of classes, not of jobs.

Before branching from a state, the search checks a deadline-prefix bound:
for each latest start L, the unstarted jobs that must start by L cannot
outnumber the starts the machines have room for in [time, L].  The bound
ignores arrivals, so it only refuses states with no schedule; the search
memoizes those as failed and otherwise visits states in the same order as
without it, so it returns the same schedules with fewer failed states.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from heapq import heappop, heappush
from itertools import accumulate
from math import comb
from operator import or_
from typing import Optional, Sequence

from .errors import DEFAULT_GUARD, MixedProcessingTimes, PreconditionViolated, SelfCheckFailed, _check_guard
from .geometry import ranking_completions
from .model import Candidate, PartialSpatialProfile, ScoringRule, VoterBox


class Job(namedtuple("Job", "id arrival deadline processing")):
    """A job with a string `id` and positive integer `arrival`, `deadline`
    and `processing` time; a `bool` is not an integer here."""

    __slots__ = ()

    def __new__(cls, id: str, arrival: int, deadline: int, processing: int) -> "Job":
        if not (type(arrival) is int and type(deadline) is int and type(processing) is int):
            raise ValueError(f"job {id!r}: times must be integers")
        if arrival < 1:
            raise ValueError(f"job {id!r}: arrival must be >= 1")
        if processing < 1:
            raise ValueError(f"job {id!r}: processing time must be >= 1")
        if deadline < 1:
            raise ValueError(f"job {id!r}: deadline must be >= 1")
        return super().__new__(cls, id, arrival, deadline, processing)


class SchedulingInstance(namedtuple("SchedulingInstance", "jobs machines")):
    """A tuple of `jobs` with distinct ids and the integer (not `bool`)
    number of `machines`."""

    __slots__ = ()

    def __new__(cls, jobs: Sequence[Job], machines: int) -> "SchedulingInstance":
        if type(machines) is not int:
            raise ValueError("the number of machines must be an integer")
        if machines < 1:
            raise ValueError("need at least one machine")
        if len({j.id for j in jobs}) != len(jobs):
            raise ValueError("job ids must be unique")
        return super().__new__(cls, tuple(jobs), machines)


class Schedule(namedtuple("Schedule", "assignments")):
    """`assignments` maps each job id to its (start, machine)."""

    __slots__ = ()


def check_schedule(instance: SchedulingInstance, schedule: Schedule) -> None:
    """Raise SelfCheckFailed unless the schedule satisfies all invariants.
    Starts and machines are integers, and, as in `Job`, a `bool` is not."""
    if set(schedule.assignments) != {j.id for j in instance.jobs}:
        raise SelfCheckFailed("the schedule does not assign exactly the instance's jobs")
    per_machine: dict[int, list[tuple[int, int]]] = {}
    for job in instance.jobs:
        start, machine = schedule.assignments[job.id]
        if type(start) is not int:
            raise SelfCheckFailed(f"job {job.id!r} starts at non-integer time {start!r}")
        if not job.arrival <= start <= job.deadline - job.processing:
            raise SelfCheckFailed(f"job {job.id!r} starts at {start}, outside its window")
        if type(machine) is not int or not 0 <= machine < instance.machines:
            raise SelfCheckFailed(f"job {job.id!r} runs on nonexistent machine {machine!r}")
        per_machine.setdefault(machine, []).append((start, start + job.processing))
    for machine, intervals in per_machine.items():
        intervals.sort()
        for (_, end), (start, _) in zip(intervals, intervals[1:]):
            if start < end:
                raise SelfCheckFailed(f"overlapping jobs on machine {machine}")


def _assign_machines(
    jobs: Sequence[Job], starts: dict[str, int], machines: int
) -> dict[str, tuple[int, int]]:
    """Greedy interval coloring; succeeds whenever the overlap stays <= machines.

    Jobs are taken in (start, id) order and each gets the lowest-numbered
    machine that is free at its start.  A heap holds the freed machines and
    another the busy ones by end time; machines never used yet are numbered
    above every used one, so they are handed out from a counter."""
    free: list[int] = []
    busy: list[tuple[int, int]] = []  # (end, machine)
    fresh = 0
    assignments = {}
    for job in sorted(jobs, key=lambda j: (starts[j.id], j.id)):
        start = starts[job.id]
        while busy and busy[0][0] <= start:
            heappush(free, heappop(busy)[1])
        if free:
            h = heappop(free)
        elif fresh < machines:
            h, fresh = fresh, fresh + 1
        else:  # pragma: no cover - caller guarantees bounded overlap
            raise SelfCheckFailed("machine assignment failed")
        heappush(busy, (start + job.processing, h))
        assignments[job.id] = (start, h)
    return assignments


def feasible_equal_length(instance: SchedulingInstance) -> Optional[Schedule]:
    """Feasibility of `instance`, the one argument, whose jobs must all share
    the first job's length p (MixedProcessingTimes otherwise).

    Earliest-deadline-first over integer time with backtracking: whenever a
    machine is free and jobs are available, either the available job with the
    earliest deadline starts now, or nothing starts at this time unit.  For
    equal-length jobs a standard exchange argument makes this complete.

    Jobs are numbered in (deadline, arrival, id) order, and jobs of equal
    (deadline, arrival) form a class of consecutive numbers.  EDF starts the
    lowest-numbered available job, so the started jobs of a class are always
    a prefix of it.  So the unstarted jobs are one int `remaining` with a
    W-bit field per class holding its unstarted count, W bits being enough
    for all the jobs: its lowest set bit lies in the class with the
    earliest latest start, and the lowest set bit of its arrived fields in
    the class EDF picks, both read from tables indexed by bit position.
    Every running job ends in (time, time + p], so the running jobs are one
    int `ends` with a field per end time time + 1 .. time + p, each wide
    enough to count t jobs.  On the states the search reaches, (time, ends,
    remaining) and (time, end times, set of unstarted jobs) determine each
    other, so this search visits the same states in the same order as one
    over job sets and memoizes the same failed ones, on a key whose size
    grows with the number of classes, not of jobs.  The number of running
    jobs and the index of the next arrival ride beside the state.

    Each state that passes the latest-start test and the memo must also
    pass a deadline-prefix bound.  Let L - time = q * p + r with 0 <= r < p
    for a latest start L >= time.  A machine free from time f starts at most
    (L - f) // p + 1 jobs in [f, L]: q + 1 for the idle machines (f = time)
    and for the running jobs ending by time + r, q for the others.  So at
    most cap(L) = t * q + idle + (running jobs ending by time + r) unstarted
    jobs may have latest start <= L.  Classes are numbered by deadline, so
    one multiplication gives every class prefix of `remaining`, and the
    count for L is the prefix up to L's last class.  The distinct latest
    starts are walked upward from the earliest unstarted one, and the walk
    stops at the first L whose cap(L) holds every unstarted job, as cap
    never shrinks with L.  A state that fails the
    bound is memoized as failed, so the guard counts it and a revisit costs
    one lookup.  The bound ignores arrivals, so it relaxes the instance:
    it only cuts subtrees with no schedule, the search visits every other
    state in the same order as without it, and the schedule it returns is
    the same.

    The search runs on an explicit stack, one entry per state it branched
    from, so no number of jobs meets Python's recursion limit.  Its cost is
    still exponential in the worst case: it raises InstanceTooLarge once it
    would memoize more failed states than the default work guard allows.
    """
    jobs = instance.jobs
    if not jobs:
        return Schedule({})
    p = jobs[0].processing
    for job in jobs:
        if job.processing != p:
            raise MixedProcessingTimes(f"job {job.id!r} has length {job.processing}, expected {p}")
    if any(job.arrival > job.deadline - p for job in jobs):
        return None

    t = instance.machines
    guard = DEFAULT_GUARD
    classes: dict[tuple[int, int], list[str]] = {}
    for job in sorted(jobs, key=lambda job: (job.deadline, job.arrival, job.id)):
        classes.setdefault((job.deadline, job.arrival), []).append(job.id)
    width = len(jobs).bit_length()  # bits per class
    field = (1 << width) - 1
    below = sum(1 << (c * width) for c in range(len(classes)))
    top = (len(classes) - 1) * width
    # (remaining * below) holds in field c the unstarted jobs of classes
    # 0 .. c: at most every job, so no field carries into the next
    remaining = 0
    lates: list[int] = []  # the distinct latest starts, ascending
    lasts: list[int] = []  # by latest start: the bit offset of its last class
    late_at: list[int] = []  # by bit position: the index of the class's latest start
    unit_at: list[int] = []  # by bit position: one job of the class
    arriving: dict[int, int] = {}
    for c, ((deadline, arrival), ids) in enumerate(classes.items()):
        if not lates or lates[-1] != deadline - p:
            lates.append(deadline - p)
            lasts.append(0)
        lasts[-1] = c * width  # the last class so far of this latest start
        remaining |= len(ids) << (c * width)
        late_at += [len(lates) - 1] * width
        unit_at += [1 << (c * width)] * width
        arriving[arrival] = arriving.get(arrival, 0) | field << (c * width)
    arrivals = sorted(arriving)
    arrived = [0, *accumulate(map(arriving.__getitem__, arrivals), or_)]  # classes arriving by arrivals[i - 1]
    # time never passes the last deadline, so this sentinel is never reached
    arrivals.append(max(job.deadline for job in jobs) + 1)

    slot = t.bit_length()  # bits per end time; at most t jobs end at one time
    slot_mask = (1 << slot) - 1
    newest = 1 << (slot * (p - 1))  # one job ending at time + p
    ones = sum(1 << (slot * i) for i in range(p))
    # (x * ones) >> (slot * (p - 1)) sums the fields of x: each partial sum
    # is at most t, so no field carries into the next

    failed: set[tuple[int, int, int]] = set()
    # (state, class unit started from it or 0, running, idx); a nonzero unit
    # means idling one unit from the state is still to be tried
    stack: list[tuple] = []
    time, ends, running, idx = arrivals[0], 0, 0, 1  # idx: arrivals[:idx] are <= time
    while remaining:
        state = (time, ends, remaining)
        j = late_at[(remaining & -remaining).bit_length() - 1]  # the earliest unstarted latest start
        if lates[j] >= time and state not in failed:
            # The deadline-prefix bound, with cap(L) = t * (q + 1) - running
            # + (running jobs ending by time + r).  The walk stops at the
            # first cap(L) that holds every unstarted job, at the latest on
            # the last L, whose prefix is every unstarted job.
            due = remaining * below  # field c: unstarted jobs of classes 0 .. c
            total = due >> top & field
            ended = ends * ones << slot  # field r: running jobs ending by time + r
            while True:
                q, r = divmod(lates[j] - time, p)
                cap = t * (q + 1) - running + (ended >> (slot * r) & slot_mask)
                if not due >> lasts[j] & field <= cap < total:
                    break
                j += 1
            if cap >= total:
                ready = remaining & arrived[idx]
                if ready and running < t:
                    # Start the EDF pick now, else idle one unit.  Every
                    # running job started by now, so time + p is the latest
                    # end time.
                    pick = unit_at[(ready & -ready).bit_length() - 1]
                    stack.append((state, pick, running, idx))
                    ends += newest
                    remaining -= pick
                    running += 1
                    continue
                # Nothing can start: jump to the next arrival, whose jobs are
                # all pending (no job arriving later than now has started),
                # or, with every machine busy, the next end time, whichever
                # comes first.
                if running < t:
                    nxt = arrivals[idx]
                else:
                    nxt = min(time + 1 + ((ends & -ends).bit_length() - 1) // slot, arrivals[idx])
                stack.append((state, 0, 0, 0))
                ends >>= slot * (nxt - time)
                running = (ends * ones) >> (slot * (p - 1)) & slot_mask
                time = nxt
                if arrivals[idx] == time:
                    idx += 1
                continue
            stack.append((state, 0, 0, 0))  # a prefix cannot fit: memoized as failed below
        while stack:
            state, pick, running, idx = stack.pop()
            if pick:
                stack.append((state, 0, 0, 0))
                time, ends, remaining = state
                running -= ends & slot_mask
                ends >>= slot
                time += 1
                if arrivals[idx] == time:
                    idx += 1
                break
            failed.add(state)
            if len(failed) > guard:
                _check_guard(len(failed), guard, "memoized failed scheduler states")
        else:
            return None

    queues = [iter(ids) for ids in classes.values()]
    starts = {next(queues[(pick.bit_length() - 1) // width]): state[0] for state, pick, _, _ in stack if pick}
    schedule = Schedule(_assign_machines(jobs, starts, t))
    check_schedule(instance, schedule)
    return schedule


def reduce_scheduling_to_pw(
    instance: SchedulingInstance, k: int
) -> tuple[PartialSpatialProfile, str, ScoringRule]:
    """Translate a single-machine instance with lengths {k-1, k} into a 2D
    spatial election in which the target candidate is a possible winner under
    k-approval exactly when the instance is feasible.

    One far-off target candidate sits at (0, 3*D) and D line candidates at
    (i + 1/2, 0).  A length-k job becomes a voter at height 0 whose box
    spans exactly the approval windows between its arrival and deadline; a
    length-(k-1) job becomes such a voter at height 3*D (those voters always
    approve the target as well).  Filler voters with no uncertainty bring
    every line candidate up to the same baseline approval count.

    Every job voter's box is a segment (its height is fixed), so the check
    of the built election splits it as intervals, at most one bisection
    per bisector and no LFP call.  Raises InstanceTooLarge when that check would
    split more bisectors (job voters times candidate pairs) than the
    default work guard allows.
    """
    if instance.machines != 1:
        raise PreconditionViolated("the reduction needs exactly one machine")
    if k < 3:
        raise PreconditionViolated("the reduction needs k >= 3")
    if not instance.jobs:
        raise PreconditionViolated("the reduction needs at least one job")
    for job in instance.jobs:
        if job.processing not in (k - 1, k):
            raise PreconditionViolated(f"job {job.id!r} has length {job.processing}, expected {k - 1} or {k}")
        if job.deadline - job.arrival < job.processing:
            raise PreconditionViolated(
                f"job {job.id!r} cannot fit between its arrival and deadline"
            )

    d_max = max(job.deadline for job in instance.jobs)
    span = -(-(d_max - 1) // k) * k  # smallest multiple of k that is >= d_max - 1

    jobs = list(instance.jobs)
    if not any(job.processing == k - 1 for job in jobs):
        # the target candidate is approved only by length-(k-1) job voters, so
        # it needs at least one; add a padding job in a fresh block past every
        # deadline, where it schedules trivially and conflicts with nothing.
        pad_id = "pad"
        while any(job.id == pad_id for job in jobs):
            pad_id += "_"
        jobs.append(Job(pad_id, span + 1, span + k, k - 1))
        span += k

    # before any candidate is built: `_validate_reduction` splits each job
    # voter's segment by the bisectors of all span + 1 candidates, each one
    # bisection at most, so this bounds the work actually done
    _check_guard(len(jobs) * comb(span + 1, 2), DEFAULT_GUARD, "bisectors to split in the reduction")

    target = Candidate("cstar", (Fraction(0), Fraction(3 * span)))
    line = [
        Candidate(f"c{i}", (Fraction(2 * i + 1, 2), Fraction(0))) for i in range(1, span + 1)
    ]
    candidates = (target, *line)

    voters: list[VoterBox] = []
    short_jobs = [job for job in jobs if job.processing == k - 1]
    for job in jobs:
        p = job.processing
        y = Fraction(0) if p == k else Fraction(3 * span)
        # window starts range over [arrival, deadline - p]; the voter box in x
        # runs between the centers of the first and last window.
        lo = Fraction(2 * job.arrival + p, 2)
        hi = Fraction(2 * job.deadline - p, 2)
        voters.append(VoterBox(f"v_{job.id}", ((lo, hi), (y, y))))
    baseline = len(short_jobs) - 1
    if baseline > 0:
        for block in range(span // k):
            center = Fraction(2 * (block * k + 1) + k, 2)
            for rep in range(baseline):
                voters.append(
                    VoterBox(f"fill_{block}_{rep}", ((center, center), (Fraction(0), Fraction(0))))
                )

    profile = PartialSpatialProfile(2, candidates, tuple(voters))
    _validate_reduction(profile, jobs, k)
    return profile, "cstar", ScoringRule.k_approval(k)


def _validate_reduction(profile: PartialSpatialProfile, jobs: Sequence[Job], k: int) -> None:
    """Check that every job voter realizes exactly the intended approval windows."""
    target_idx = 0  # cstar is listed first
    by_id = {v.id: v for v in profile.voters}
    for job in jobs:
        p = job.processing
        voter = by_id[f"v_{job.id}"]
        approvals = set()
        for rw in ranking_completions(profile.candidates, voter.bounds):
            approvals.add(frozenset(rw.ranking[:k]))
        expected = set()
        for start in range(job.arrival, job.deadline - p + 1):
            window = frozenset(range(start, start + p))
            if p == k - 1:
                window = window | {target_idx}
            expected.add(window)
        if approvals != expected:
            raise PreconditionViolated(
                f"voter for job {job.id!r} realizes unexpected approval windows"
            )
