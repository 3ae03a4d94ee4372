"""Non-preemptive scheduling with arrival times and deadlines.

The equal-length feasibility solver used by the possible-winner algorithms,
the schedule checker, and the translator from single-machine scheduling
instances to 2D spatial possible-winner instances.  The exhaustive scheduler
that the tests use as an oracle lives in `tests/scheduling_reference.py`.

All times are integers.  A job with arrival a, deadline d, and processing
time p must start at some integer s with a <= s <= d - p; a machine runs at
most one job at a time, with jobs occupying the half-open interval [s, s+p).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import namedtuple
from fractions import Fraction
from itertools import accumulate
from math import comb
from operator import or_
from typing import Optional, Sequence

from .errors import DEFAULT_GUARD, MixedProcessingTimes, PreconditionViolated, SelfCheckFailed, _check_guard
from .geometry import ranking_completions
from .model import Candidate, PartialSpatialProfile, ScoringRule, VoterBox


class Job(namedtuple("Job", "id arrival deadline processing")):
    """A job with a string `id` and positive integer `arrival`, `deadline`
    and `processing` time."""

    __slots__ = ()

    def __new__(cls, id: str, arrival: int, deadline: int, processing: int) -> "Job":
        if not (isinstance(arrival, int) and isinstance(deadline, int) and isinstance(processing, int)):
            raise ValueError(f"job {id!r}: times must be integers")
        if arrival < 1:
            raise ValueError(f"job {id!r}: arrival must be >= 1")
        if processing < 1:
            raise ValueError(f"job {id!r}: processing time must be >= 1")
        if deadline < 1:
            raise ValueError(f"job {id!r}: deadline must be >= 1")
        return super().__new__(cls, id, arrival, deadline, processing)


class SchedulingInstance(namedtuple("SchedulingInstance", "jobs machines")):
    """A tuple of `jobs` with distinct ids and the number of `machines`."""

    __slots__ = ()

    def __new__(cls, jobs: Sequence[Job], machines: int) -> "SchedulingInstance":
        if machines < 1:
            raise ValueError("need at least one machine")
        if len({j.id for j in jobs}) != len(jobs):
            raise ValueError("job ids must be unique")
        return super().__new__(cls, tuple(jobs), machines)


class Schedule(namedtuple("Schedule", "assignments")):
    """`assignments` maps each job id to its (start, machine)."""

    __slots__ = ()


def check_schedule(instance: SchedulingInstance, schedule: Schedule) -> None:
    """Raise SelfCheckFailed unless the schedule satisfies all invariants."""
    if set(schedule.assignments) != {j.id for j in instance.jobs}:
        raise SelfCheckFailed("the schedule does not assign exactly the instance's jobs")
    per_machine: dict[int, list[tuple[int, int]]] = {}
    for job in instance.jobs:
        start, machine = schedule.assignments[job.id]
        if not isinstance(start, int):
            raise SelfCheckFailed(f"job {job.id!r} starts at non-integer time {start!r}")
        if not job.arrival <= start <= job.deadline - job.processing:
            raise SelfCheckFailed(f"job {job.id!r} starts at {start}, outside its window")
        if not 0 <= machine < instance.machines:
            raise SelfCheckFailed(f"job {job.id!r} runs on nonexistent machine {machine}")
        per_machine.setdefault(machine, []).append((start, start + job.processing))
    for machine, intervals in per_machine.items():
        intervals.sort()
        for (_, end), (start, _) in zip(intervals, intervals[1:]):
            if start < end:
                raise SelfCheckFailed(f"overlapping jobs on machine {machine}")


def _assign_machines(
    jobs: Sequence[Job], starts: dict[str, int], machines: int
) -> dict[str, tuple[int, int]]:
    """Greedy interval coloring; succeeds whenever the overlap stays <= machines."""
    free = [0] * machines
    assignments = {}
    for job in sorted(jobs, key=lambda j: (starts[j.id], j.id)):
        start = starts[job.id]
        for h in range(machines):
            if free[h] <= start:
                free[h] = start + job.processing
                assignments[job.id] = (start, h)
                break
        else:  # pragma: no cover - caller guarantees bounded overlap
            raise SelfCheckFailed("machine assignment failed")
    return assignments


def feasible_equal_length(instance: SchedulingInstance) -> Optional[Schedule]:
    """Feasibility of `instance`, the one argument, whose jobs must all share
    the first job's length p (MixedProcessingTimes otherwise).

    Earliest-deadline-first over integer time with backtracking: whenever a
    machine is free and jobs are available, either the available job with the
    earliest deadline starts now, or nothing starts at this time unit.  For
    equal-length jobs a standard exchange argument makes this complete.

    Jobs are numbered in (deadline, arrival, id) order and the unstarted ones
    are kept as an int bitmask, so its lowest set bit is the job with the
    earliest latest start, and the lowest set bit of the jobs arrived by now
    is the job EDF picks.  Every running job ends in (time, time + p], so a
    search state is (time, the number of running jobs ending at each of
    time + 1 .. time + p, bitmask), whose size does not grow with the number
    of machines; failed states are memoized on it.  The search
    runs on an explicit stack, one entry per state it branched from, so no
    number of jobs meets Python's recursion limit.  Its cost is still
    exponential in the worst case: it raises InstanceTooLarge once it would
    memoize more failed states than the default work guard allows.
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
    order = sorted(jobs, key=lambda job: (job.deadline, job.arrival, job.id))
    latest = [job.deadline - p for job in order]
    arrivals = sorted({job.arrival for job in jobs})
    arriving = [0] * len(arrivals)
    for bit, job in enumerate(order):
        arriving[bisect_left(arrivals, job.arrival)] |= 1 << bit
    arrived = list(accumulate(arriving, or_))  # jobs with arrival <= arrivals[i]

    failed: set[tuple] = set()
    stack: list[tuple] = []  # (state, job started from it or 0, state to try if that fails)
    idle = (0,) * p
    state = (arrivals[0], idle, arrived[-1])
    while True:
        time, ends, remaining = state
        if not remaining:
            break
        if latest[(remaining & -remaining).bit_length() - 1] >= time and state not in failed:
            idx = bisect_right(arrivals, time)
            ready = remaining & arrived[idx - 1]
            running = sum(ends)
            if ready and running < t:
                # Start the EDF pick now, else idle one unit.  Every running
                # job started by now, so time + p is the latest end time.
                pick = ready & -ready
                stack.append((state, pick, (time + 1, ends[1:] + (0,), remaining)))
                state = (time, ends[:-1] + (ends[-1] + 1,), remaining ^ pick)
                continue
            # Nothing can start: jump to the next arrival, whose jobs are all
            # pending, or, with every machine busy, the next end time,
            # whichever comes first.
            pending = remaining ^ ready
            nxt = time + 1 + next(i for i, n in enumerate(ends) if n) if running else None
            if pending:
                nxt = arrivals[idx] if running < t else min(nxt, arrivals[idx])
            shift = min(nxt - time, p)
            stack.append((state, 0, None))
            state = (nxt, ends[shift:] + idle[:shift], remaining)
            continue
        while stack:
            parent, pick, alternative = stack.pop()
            if alternative is not None:
                stack.append((parent, 0, None))
                state = alternative
                break
            failed.add(parent)
            _check_guard(len(failed), DEFAULT_GUARD, "memoized failed scheduler states")
        else:
            return None

    starts = {order[pick.bit_length() - 1].id: parent[0] for parent, pick, _ in stack if pick}
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
