"""Reference schedulers kept as test oracles; the package imports none of them.

`reference_feasible_equal_length` is the search
`spatialvote.scheduling.feasible_equal_length` replaced: the same
earliest-deadline-first backtracking, written as a recursive `dfs` whose memo
is keyed on a `frozenset` of remaining job indices and whose every node scans
the remaining jobs.  Tests require the package's schedules to equal its
schedules, and, with its deadline-prefix bound stated machine by machine,
the package's memoized failed states to equal its own in number.

`brute_force_schedule` tries every integer start time of every job, for any
mix of processing times; it anchors acceptance criterion 7.

`scan_assign_machines` is the machine assignment
`spatialvote.scheduling._assign_machines` replaced: it scans every machine
for every job.  Tests require the package's assignments to equal its
assignments.
"""

from __future__ import annotations

from typing import Optional, Sequence

from spatialvote.errors import InstanceTooLarge, MixedProcessingTimes, SelfCheckFailed
from spatialvote.scheduling import Job, Schedule, SchedulingInstance, _assign_machines, check_schedule


def reference_feasible_equal_length(
    instance: SchedulingInstance, p: int, prefix_bound: bool = False, failed: Optional[set] = None
) -> Optional[Schedule]:
    """Feasibility for jobs that all share processing time p.

    Earliest-deadline-first over integer time with backtracking: whenever a
    machine is free and jobs are available, either the available job with the
    earliest deadline starts now, or nothing starts at this time unit.  For
    equal-length jobs a standard exchange argument makes this complete.
    Failed states are memoized in `failed`, which a caller may pass to read
    them afterwards.

    With `prefix_bound`, a state also fails, and is memoized, when for some
    latest start L more unstarted jobs must start by L than the machines
    can start: a machine free from time f starts at most (L - f) // p + 1
    jobs in [f, L].
    """
    jobs = instance.jobs
    for job in jobs:
        if job.processing != p:
            raise MixedProcessingTimes(f"job {job.id!r} has length {job.processing}, expected {p}")
    if not jobs:
        return Schedule({})
    if any(job.arrival > job.deadline - p for job in jobs):
        return None

    t = instance.machines
    latest = {i: job.deadline - p for i, job in enumerate(jobs)}
    order_key = {i: (job.deadline, job.arrival, job.id) for i, job in enumerate(jobs)}
    starts: dict[int, int] = {}
    failed = set() if failed is None else failed

    def prefixes_fit(time: int, busy: tuple[int, ...], remaining: frozenset) -> bool:
        free_from = busy + (time,) * (t - len(busy))
        for bound in {latest[i] for i in remaining}:
            due = sum(latest[i] <= bound for i in remaining)
            if due > sum((bound - f) // p + 1 for f in free_from if f <= bound):
                return False
        return True

    def dfs(time: int, busy: tuple[int, ...], remaining: frozenset) -> bool:
        if not remaining:
            return True
        if min(latest[i] for i in remaining) < time:
            return False
        key = (time, busy, remaining)
        if key in failed:
            return False
        if prefix_bound and not prefixes_fit(time, busy, remaining):
            failed.add(key)
            return False
        available = [i for i in remaining if jobs[i].arrival <= time]
        if available and len(busy) < t:
            pick = min(available, key=order_key.__getitem__)
            starts[pick] = time
            if dfs(time, tuple(sorted(busy + (time + p,))), remaining - {pick}):
                return True
            del starts[pick]
            nxt = time + 1
            if dfs(nxt, tuple(b for b in busy if b > nxt), remaining):
                return True
        else:
            events = []
            if busy and len(busy) >= t:
                events.append(busy[0])
            future = [jobs[i].arrival for i in remaining if jobs[i].arrival > time]
            if future:
                events.append(min(future))
            if events:
                nxt = min(events)
                if dfs(nxt, tuple(b for b in busy if b > nxt), remaining):
                    return True
        failed.add(key)
        return False

    first = min(job.arrival for job in jobs)
    if not dfs(first, (), frozenset(range(len(jobs)))):
        return None
    by_id = {jobs[i].id: s for i, s in starts.items()}
    schedule = Schedule(_assign_machines(jobs, by_id, t))
    check_schedule(instance, schedule)
    return schedule


def scan_assign_machines(
    jobs: Sequence[Job], starts: dict[str, int], machines: int
) -> dict[str, tuple[int, int]]:
    """Greedy interval coloring: jobs in (start, id) order, each on the
    lowest-numbered machine free at its start."""
    free = [0] * machines
    assignments = {}
    for job in sorted(jobs, key=lambda j: (starts[j.id], j.id)):
        start = starts[job.id]
        for h in range(machines):
            if free[h] <= start:
                free[h] = start + job.processing
                assignments[job.id] = (start, h)
                break
        else:
            raise SelfCheckFailed("machine assignment failed")
    return assignments


def brute_force_schedule(
    instance: SchedulingInstance, max_jobs: int = 10, max_horizon: int = 20
) -> Optional[Schedule]:
    """Exhaustive search over integer start times; exact at desk scale."""
    jobs = instance.jobs
    if not jobs:
        return Schedule({})
    horizon = max(job.deadline for job in jobs)
    if len(jobs) > max_jobs or horizon > max_horizon:
        raise InstanceTooLarge(
            f"{len(jobs)} jobs / horizon {horizon} exceed the brute-force guard "
            f"({max_jobs} jobs, horizon {max_horizon})"
        )
    t = instance.machines
    order = sorted(range(len(jobs)), key=lambda i: (jobs[i].arrival, jobs[i].deadline, jobs[i].id))
    load = [0] * (horizon + 1)
    starts: dict[str, int] = {}

    def dfs(pos: int) -> bool:
        if pos == len(order):
            return True
        job = jobs[order[pos]]
        for s in range(job.arrival, job.deadline - job.processing + 1):
            span = range(s, s + job.processing)
            if all(load[x] < t for x in span):
                for x in span:
                    load[x] += 1
                starts[job.id] = s
                if dfs(pos + 1):
                    return True
                del starts[job.id]
                for x in span:
                    load[x] -= 1
        return False

    if not dfs(0):
        return None
    schedule = Schedule(_assign_machines(jobs, starts, t))
    check_schedule(instance, schedule)
    return schedule
