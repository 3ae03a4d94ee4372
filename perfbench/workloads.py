"""The benchmark's workloads: fixed instance families and their query lists.

Every instance is made by `spatialvote.cli.generate_election` or
`generate_scheduling` from the generator parameters below.  The run's
`--seed` then moves each election by a rigid integer translation and
shuffles the jobs of each scheduling instance.  Both preserve every
distance comparison and every job window, so the rankings, verdicts and
work counts are the same for every seed and only the bytes of the inputs
and outputs change.  Fresh random instances per seed would not do: the
scheduler's cost varies more than tenfold between random 60-voter profiles
(0.08 s to 1.1 s in-process), far beyond any bound a run-to-run comparison
can use.  Why each workload exists is stated in BENCHMARK.json and
README.md.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

DEFAULT_SEED = 31


@dataclass(frozen=True)
class Election:
    gen_seed: int
    dimension: int
    num_candidates: int
    num_voters: int
    coord_range: int = 8
    denominator: int = 4


@dataclass(frozen=True)
class Scheduling:
    gen_seed: int
    num_jobs: int
    horizon: int
    k: int  # only jobs of length k-1 or k are kept, as reduce-sched requires


@dataclass(frozen=True)
class Workload:
    instances: dict  # key -> Election | Scheduling
    queries: tuple  # (instance key, CLI arguments after the instance)
    dominant: str  # the layer that must have the largest self time
    zero_calls: tuple  # per-layer call counters that must stay 0


def _per_instance(keys, *queries):
    return tuple((key, q) for key in keys for q in queries)


RANKINGS = ("rankings", "--format", "json")

WORKLOADS = {
    "electorate-1d": Workload(
        instances={"e": Election(31, 1, 8, 200, coord_range=8, denominator=1)},
        queries=_per_instance(
            ["e"],
            RANKINGS,
            ("pw", "--rule", "plurality", "--format", "json"),
            ("pw", "--rule", "veto", "--format", "json"),
            ("nw", "--rule", "borda", "--format", "json"),
        ),
        dominant="geometry",
        zero_calls=("lfp.feasible.calls", "scheduling.feasible_equal_length.calls", "oracle.calls"),
    ),
    "approval-1d": Workload(
        instances={"a": Election(6, 1, 8, 80)},
        queries=_per_instance(
            ["a"],
            ("pw", "--rule", "approval:3", "--format", "json"),
            ("pw", "--rule", "kveto:2", "--format", "json"),
            ("pw", "--rule", "fkt:3:1", "--format", "json"),
            ("nw", "--rule", "approval:3", "--format", "json"),
            ("nw", "--rule", "kveto:2", "--format", "json"),
            ("nw", "--rule", "fkt:3:1", "--format", "json"),
        ),
        dominant="scheduling",
        zero_calls=("lfp.feasible.calls", "oracle.calls"),
    ),
    "arrangement-2d": Workload(
        instances={
            "p": Election(1, 2, 6, 3),
            "q": Election(2, 2, 7, 2),
            "s": Election(1, 3, 5, 2),
            "j": Scheduling(5, 8, 9, 3),
        },
        queries=_per_instance(
            ["p", "q", "s"],
            RANKINGS,
            ("nw", "--rule", "borda", "--format", "json"),
            ("pw", "--rule", "plurality", "--format", "json"),
            ("pw", "--rule", "veto", "--format", "json"),
        )
        + (("p", ("faces", "--format", "json")), ("j", ("reduce-sched", "--k", "3"))),
        dominant="lfp",
        zero_calls=("scheduling.feasible_equal_length.calls", "oracle.calls"),
    ),
    "oracle-1d": Workload(
        instances={"o": Election(4, 1, 6, 7)},
        queries=_per_instance(
            ["o"],
            ("oracle", "pw", "--rule", "borda", "--format", "json"),
            ("oracle", "nw", "--rule", "borda", "--format", "json"),
            ("pw", "--rule", "borda", "--allow-exponential", "--format", "json"),
            ("nw", "--rule", "borda", "--format", "json"),
        ),
        dominant="oracle",
        zero_calls=("lfp.feasible.calls", "scheduling.feasible_equal_length.calls"),
    ),
}


def make_documents(workload: Workload, seed: int) -> dict:
    """Instance documents of a workload, moved by the seed's transformation."""
    from spatialvote import cli

    rng = random.Random(seed)
    docs = {}
    for key, spec in workload.instances.items():
        if isinstance(spec, Election):
            profile = cli.generate_election(
                spec.gen_seed, spec.dimension, spec.num_candidates, spec.num_voters,
                spec.coord_range, spec.denominator,
            )
            offset = [rng.randint(-40, 40) for _ in range(spec.dimension)]
            doc = cli.election_to_document(profile)
            for cand in doc["candidates"]:
                cand["position"] = [str(Fraction(x) + o) for x, o in zip(cand["position"], offset)]
            for voter in doc["voters"]:
                voter["bounds"] = [
                    [str(Fraction(lo) + o), str(Fraction(hi) + o)]
                    for (lo, hi), o in zip(voter["bounds"], offset)
                ]
        else:
            instance = cli.generate_scheduling(spec.gen_seed, spec.num_jobs, 1, spec.horizon, spec.k)
            doc = cli.scheduling_to_document(instance)
            doc["jobs"] = [j for j in doc["jobs"] if j["processing"] in (spec.k - 1, spec.k)]
            rng.shuffle(doc["jobs"])
        docs[key] = doc
    return docs
