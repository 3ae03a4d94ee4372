import os
import random
import subprocess
import sys
import textwrap
import tracemalloc
from fractions import Fraction

import pytest

from gen_helpers import random_equal_length_instance, random_reduction_instance, tight_prefix_instance
from scheduling_reference import brute_force_schedule, reference_feasible_equal_length, scan_assign_machines
from spatialvote import (
    Job,
    MixedProcessingTimes,
    SchedulingInstance,
    brute_pw,
    feasible_equal_length,
    necessary_winner,
    possible_winner,
    reduce_scheduling_to_pw,
    scheduling,
    winners,
)
from spatialvote.cli import generate_election
from spatialvote.errors import InstanceTooLarge, PreconditionViolated, SelfCheckFailed
from spatialvote.model import rule_from_text
from spatialvote.scheduling import Schedule, _assign_machines, check_schedule


def possible_winner_instances(monkeypatch, text, candidates=range(8)):
    """The scheduling instances `possible_winner` builds under the rule
    `text` on approval-1d's profile, in the order it builds them."""
    built = []

    def record(instance):
        built.append(instance)
        return feasible_equal_length(instance)

    with monkeypatch.context() as patch:
        patch.setattr(winners, "feasible_equal_length", record)
        possible_winner(generate_election(6, 1, 8, 80, 8, 4), rule_from_text(text), candidates)
    return built


class TestJobs:
    def test_validation(self):
        # the first failing check reports, in the order the checks run
        for times, message in [
            ((1, 3, Fraction(1)), "times must be integers"),
            ((0, 0, 0), "arrival must be >= 1"),
            ((1, 0, 0), "processing time must be >= 1"),
            ((1, 0, 1), "deadline must be >= 1"),
        ]:
            with pytest.raises(ValueError, match=f"^job 'j': {message}$"):
                Job("j", *times)
        with pytest.raises(TypeError):
            Job("j", 1, 4)

    def test_rejects_booleans(self):
        # `bool` is an `int` subclass; a document's true/false is not a time
        for times in [(True, 4, 2), (1, True, 1), (1, 4, True)]:
            with pytest.raises(ValueError, match="^job 'a': times must be integers$"):
                Job("a", *times)

    @pytest.mark.parametrize("machines", [2.5, True, "2", Fraction(2)], ids=["float", "bool", "str", "fraction"])
    def test_machines_must_be_an_integer(self, machines):
        with pytest.raises(ValueError, match="^the number of machines must be an integer$"):
            SchedulingInstance((Job("a", 1, 4, 2),), machines)

    def test_unique_ids(self):
        twins = (Job("j", 1, 3, 1), Job("j", 1, 3, 1))
        with pytest.raises(ValueError, match="^need at least one machine$"):
            SchedulingInstance(twins, 0)
        with pytest.raises(ValueError, match="^job ids must be unique$"):
            SchedulingInstance(twins, 1)


class TestEqualLengthSolver:
    def test_trivial_cases(self):
        assert feasible_equal_length(SchedulingInstance((), 1)) is not None
        tight = SchedulingInstance((Job("a", 1, 3, 2),), 1)
        assert feasible_equal_length(tight) is not None
        impossible = SchedulingInstance((Job("a", 1, 2, 2),), 1)
        assert feasible_equal_length(impossible) is None

    def test_rejects_mixed_lengths(self):
        instance = SchedulingInstance((Job("a", 1, 4, 2), Job("b", 1, 4, 3)), 1)
        with pytest.raises(MixedProcessingTimes, match="^job 'b' has length 3, expected 2$"):
            feasible_equal_length(instance)

    def test_requires_idling(self):
        # Starting the earliest-arriving job immediately blocks the tighter
        # one; the machine has to stay idle at time 1.
        instance = SchedulingInstance((Job("a", 1, 6, 2), Job("b", 2, 4, 2)), 1)
        schedule = feasible_equal_length(instance)
        assert schedule is not None
        assert schedule.assignments["b"][0] == 2

    def test_multiple_machines(self):
        jobs = tuple(Job(f"j{i}", 1, 3, 2) for i in range(3))
        assert feasible_equal_length(SchedulingInstance(jobs, 3)) is not None
        assert feasible_equal_length(SchedulingInstance(jobs, 2)) is None

    def test_memo_guard(self, monkeypatch):
        # Infeasible only after backtracking (gen_helpers'
        # random_equal_length_instance at seed 1353): the search memoizes 11
        # failed states, one more than a guard of 10 allows.
        times = [(11, 13), (9, 11), (7, 11), (2, 7), (11, 14)]
        jobs = tuple(Job(f"j{i + 1}", a, d, 2) for i, (a, d) in enumerate(times))
        instance = SchedulingInstance(jobs, 1)
        monkeypatch.setattr(scheduling, "DEFAULT_GUARD", 11)
        assert feasible_equal_length(instance) is None
        monkeypatch.setattr(scheduling, "DEFAULT_GUARD", 10)
        with pytest.raises(InstanceTooLarge, match="11 memoized failed scheduler states"):
            feasible_equal_length(instance)

    @pytest.mark.parametrize(
        "text, counts",
        [
            ("approval:3", [1, 1, 0, 0, 0, 0, 2370, 6338]),
            ("kveto:2", [1, 1, 0, 0, 0, 0, 1, 1]),
            ("fkt:3:1", [1, 0, 0, 0, 0, 2370]),
        ],
    )
    def test_failed_state_counts(self, monkeypatch, text, counts):
        # Pins the search's work on approval-1d's instances: each memoizes
        # exactly `count` failed states, so a guard of `count` lets it
        # finish and one less stops it.
        instances = possible_winner_instances(monkeypatch, text)
        assert len(instances) == len(counts)
        for instance, count in zip(instances, counts):
            monkeypatch.setattr(scheduling, "DEFAULT_GUARD", count)
            feasible_equal_length(instance)
            if count:
                monkeypatch.setattr(scheduling, "DEFAULT_GUARD", count - 1)
                with pytest.raises(InstanceTooLarge, match=f"^{count} memoized failed scheduler states"):
                    feasible_equal_length(instance)

    def test_state_size_does_not_grow_with_copies(self, monkeypatch):
        # A state holds one count per job class, so copying every job (and
        # machine) 50 times adds a few bits per state, not 50 times the bits.
        [instance] = possible_winner_instances(monkeypatch, "approval:3", [7])
        monkeypatch.setattr(scheduling, "DEFAULT_GUARD", 5_000)
        peaks = []
        for copies in (1, 50):
            jobs = tuple(Job(f"{job.id}_{c}", *job[1:]) for job in instance.jobs for c in range(copies))
            tracemalloc.start()
            try:
                with pytest.raises(InstanceTooLarge, match="^5001 memoized failed scheduler states"):
                    feasible_equal_length(SchedulingInstance(jobs, instance.machines * copies))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0]

    def test_kveto_at_5000_voters(self):
        # 5,000 voters: the one scheduling instance per candidate is settled
        # well under the default guard, where the search without the
        # deadline-prefix bound memoized more failed states than it allows
        profile = generate_election(31, 1, 8, 5000, 8, 1)
        rule = rule_from_text("kveto:2")
        pw = possible_winner(profile, rule, range(8))
        assert pw == {2, 3, 4, 5}
        assert necessary_winner(profile, rule, range(8)) <= pw

    def test_agrees_with_brute_force(self):
        rng = random.Random(17)
        for _ in range(200):
            instance, _ = random_equal_length_instance(rng)
            fast = feasible_equal_length(instance)
            slow = brute_force_schedule(instance, max_jobs=6, max_horizon=16)
            assert (fast is None) == (slow is None)
            if fast is not None:
                check_schedule(instance, fast)
                check_schedule(instance, slow)


class TestPrefixBound:
    """The deadline-prefix bound refuses exactly the states where some
    prefix overflows, no fewer and no more."""

    def test_tight_prefixes(self, monkeypatch):
        # one prefix holds exactly cap(L) jobs, or cap(L) + 1; the package
        # must keep the reference's schedules and brute force's verdicts,
        # and memoize as many failed states as the reference does with the
        # bound stated machine by machine
        rng = random.Random(67)
        feasible_at_cap = 0
        for trial in range(1600):
            over = trial % 2
            instance, p = tight_prefix_instance(rng, over)
            failed = set()
            bounded = reference_feasible_equal_length(instance, p, prefix_bound=True, failed=failed)
            monkeypatch.setattr(scheduling, "DEFAULT_GUARD", len(failed))
            assert_same_as_reference(instance, p)
            slow = brute_force_schedule(instance, max_jobs=10, max_horizon=22)
            assert (bounded is None) == (slow is None)
            if failed:
                monkeypatch.setattr(scheduling, "DEFAULT_GUARD", len(failed) - 1)
                with pytest.raises(InstanceTooLarge, match=f"^{len(failed)} memoized failed scheduler states"):
                    feasible_equal_length(instance)
            if over:
                # no machine is busy at the first arrival, so the root is refused
                assert bounded is None and len(failed) == 1
            else:
                feasible_at_cap += bounded is not None
        assert feasible_at_cap > 200


def assert_same_as_reference(instance, p):
    fast = feasible_equal_length(instance)
    slow = reference_feasible_equal_length(instance, p)
    assert (fast is None) == (slow is None)
    if fast is not None:
        assert fast.assignments == slow.assignments


class TestMatchesReference:
    """The class-count search walks the reference's search tree in the same
    order, so it must find the very same schedules."""

    def test_random_instances(self):
        rng = random.Random(29)
        for _ in range(3000):
            instance, p = random_equal_length_instance(
                rng, max_jobs=rng.randint(1, 14), horizon=rng.randint(4, 20)
            )
            assert_same_as_reference(instance, p)

    def test_repeated_windows(self):
        # few distinct (arrival, deadline) windows, each repeated, so that
        # job classes hold many jobs, as in the possible-winner instances
        rng = random.Random(41)
        merged = 0
        for _ in range(500):
            p = rng.randint(1, 4)
            jobs = []
            for _ in range(rng.randint(1, 5)):
                arrival = rng.randint(1, 6)
                deadline = arrival + p + rng.randint(-1, 5)
                for _ in range(rng.randint(1, 8)):
                    jobs.append(Job(f"j{len(jobs)}", arrival, max(deadline, 1), p))
            rng.shuffle(jobs)
            merged += len({(job.arrival, job.deadline) for job in jobs}) < len(jobs)
            assert_same_as_reference(SchedulingInstance(tuple(jobs), rng.randint(1, 10)), p)
        assert merged > 400

    def test_possible_winner_instances(self, monkeypatch):
        built = possible_winner_instances(monkeypatch, "approval:3")
        assert len(built) == 8
        for instance in built:
            assert_same_as_reference(instance, 3)


class TestAssignMachines:
    def test_matches_scan(self):
        # random starts of mixed lengths, machines at least the peak overlap
        rng = random.Random(53)
        wide = 0
        for trial in range(300):
            jobs, starts = [], {}
            for i in range(rng.randint(1, 60 if trial % 3 else 500)):
                start, length = rng.randint(1, 30), rng.randint(1, 8)
                jobs.append(Job(f"j{i}", start, start + length, length))
                starts[f"j{i}"] = start
            overlap = max(sum(s <= x < s + j.processing for j, s in zip(jobs, starts.values())) for x in range(1, 39))
            machines = overlap + rng.randint(0, 3)
            assert _assign_machines(jobs, starts, machines) == scan_assign_machines(jobs, starts, machines)
            wide += overlap >= 50
        assert wide > 50
        with pytest.raises(SelfCheckFailed, match="^machine assignment failed$"):
            _assign_machines(jobs, starts, overlap - 1)


class TestCheckSchedule:
    def test_overlap_raises_under_optimization(self):
        # `python -O` strips `assert` statements; the check must survive it.
        script = textwrap.dedent(
            """
            from spatialvote import Job, SchedulingInstance, SelfCheckFailed
            from spatialvote.scheduling import Schedule, check_schedule

            instance = SchedulingInstance((Job("a", 1, 5, 2), Job("b", 1, 5, 2)), 1)
            try:
                check_schedule(instance, Schedule({"a": (1, 0), "b": (2, 0)}))
            except SelfCheckFailed as exc:
                print(exc)
            """
        )
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "overlapping jobs on machine 0"

    @pytest.mark.parametrize(
        "assignments, message",
        [
            ({"a": (1, 0)}, "the schedule does not assign exactly the instance's jobs"),
            ({"a": (Fraction(1), 0), "b": (3, 0)}, "job 'a' starts at non-integer time Fraction(1, 1)"),
            ({"a": (1, 0), "b": (4, 0)}, "job 'b' starts at 4, outside its window"),
            ({"a": (1, 0), "b": (3, 1)}, "job 'b' runs on nonexistent machine 1"),
            ({"a": (1, 0), "b": (2, 0)}, "overlapping jobs on machine 0"),
            ({"a": (True, 0), "b": (3, 0)}, "job 'a' starts at non-integer time True"),
            ({"a": (1, 0), "b": (1, 0.5)}, "job 'b' runs on nonexistent machine 0.5"),
            ({"a": (1, 0), "b": (3, False)}, "job 'b' runs on nonexistent machine False"),
        ],
        ids=["job-set", "non-integer", "window", "machine", "overlap", "bool-start", "fractional-machine", "bool-machine"],
    )
    def test_each_invariant_raises(self, assignments, message):
        instance = SchedulingInstance((Job("a", 1, 5, 2), Job("b", 1, 5, 2)), 1)
        check_schedule(instance, Schedule({"a": (1, 0), "b": (3, 0)}))
        with pytest.raises(SelfCheckFailed) as info:
            check_schedule(instance, Schedule(assignments))
        assert str(info.value) == message


class TestBruteForce:
    def test_guard(self):
        jobs = tuple(Job(f"j{i}", 1, 30, 1) for i in range(3))
        with pytest.raises(InstanceTooLarge):
            brute_force_schedule(SchedulingInstance(jobs, 1))

    def test_small_infeasible(self):
        instance = SchedulingInstance((Job("a", 1, 4, 3), Job("b", 1, 4, 3)), 1)
        assert brute_force_schedule(instance) is None

    def test_no_jobs(self):
        assert brute_force_schedule(SchedulingInstance((), 2)) == Schedule({})


class TestReduction:
    def test_preconditions(self):
        good = SchedulingInstance((Job("a", 1, 5, 3),), 1)
        with pytest.raises(PreconditionViolated):
            reduce_scheduling_to_pw(SchedulingInstance(good.jobs, 2), 3)
        with pytest.raises(PreconditionViolated):
            reduce_scheduling_to_pw(good, 2)
        with pytest.raises(PreconditionViolated):
            reduce_scheduling_to_pw(SchedulingInstance((Job("a", 1, 5, 1),), 1), 3)
        with pytest.raises(PreconditionViolated):
            reduce_scheduling_to_pw(SchedulingInstance((Job("a", 1, 3, 3),), 1), 3)

    def test_structure(self):
        instance = SchedulingInstance((Job("a", 1, 5, 3), Job("b", 1, 6, 2)), 1)
        profile, target, rule = reduce_scheduling_to_pw(instance, 3)
        assert profile.dimension == 2
        assert profile.candidates[profile.candidate_index(target)].id == "cstar"
        assert rule.kind == "k-approval" and rule.k == 3
        # one voter per job; no fillers needed with a single short job
        assert len(profile.voters) == 2

    def test_unexpected_windows_are_rejected(self, monkeypatch):
        # job "a" has two windows; its voter's last ranking is the only one
        # that approves the second, so dropping it leaves one window
        complete = scheduling.ranking_completions
        monkeypatch.setattr(scheduling, "ranking_completions", lambda cands, bounds: complete(cands, bounds)[:-1])
        instance = SchedulingInstance((Job("a", 1, 5, 3), Job("b", 1, 6, 2)), 1)
        with pytest.raises(PreconditionViolated, match="^voter for job 'a' realizes unexpected approval windows$"):
            reduce_scheduling_to_pw(instance, 3)

    def test_padding_job_id_avoids_existing_ids(self):
        # without a length-(k-1) job a padding job is added; "pad" is taken
        instance = SchedulingInstance((Job("pad", 1, 5, 3), Job("pad_x", 2, 6, 3)), 1)
        profile, _, _ = reduce_scheduling_to_pw(instance, 3)
        assert [v.id for v in profile.voters] == ["v_pad", "v_pad_x", "v_pad_"]

    def test_round_trip_sample(self):
        rng = random.Random(23)
        for _ in range(10):
            instance = random_reduction_instance(rng)
            profile, target, rule = reduce_scheduling_to_pw(instance, 3)
            feasible = brute_force_schedule(instance) is not None
            possible = profile.candidate_index(target) in brute_pw(profile, rule)
            assert feasible == possible
