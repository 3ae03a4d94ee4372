"""Smoke test for the benchmark's per-layer tracer.

`perfbench/tracer.py` wraps package functions by module attribute name, so a
renamed or removed attribute breaks traced benchmark runs with an
AttributeError.  Running it on the bundled instance catches that.
"""

import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")
TRACER = os.path.join(ROOT, "perfbench", "tracer.py")
ELECTION = os.path.join(ROOT, "instances", "three_candidates_line.json")
SCHEDULING = os.path.join(ROOT, "instances", "two_jobs_one_machine.json")
# Four candidates keep approval:2 two-valued and fkt:2:1 at (2, 2, 1, 0) (on
# three they are veto), so `pw` reaches the two-valued route and the
# equal-length scheduler.
FOUR_ON_A_LINE = {
    "schema_version": 1,
    "kind": "election",
    "dimension": 1,
    "candidates": [{"id": f"c{j + 1}", "position": [str(j)]} for j in range(4)],
    "voters": [{"id": "v1", "bounds": [["0", "3"]]}, {"id": "v2", "bounds": [["1", "1"]]}],
}
# Two voters share a box, so the per-box routes look up two completion lists.
REPEATED_BOX = {
    **FOUR_ON_A_LINE,
    "voters": [
        {"id": "v1", "bounds": [["0", "3"]]},
        {"id": "v2", "bounds": [["1", "1"]]},
        {"id": "v3", "bounds": [["0", "3"]]},
    ],
}
# A 2D profile, so `pw --rule veto` and `nw --rule plurality` read their
# place sets off Voronoi cells.
FOUR_IN_THE_PLANE = {
    "schema_version": 1,
    "kind": "election",
    "dimension": 2,
    "candidates": [
        {"id": f"c{j + 1}", "position": [str(x), str(y)]}
        for j, (x, y) in enumerate([(0, 0), (4, 0), (0, 4), (3, 3)])
    ],
    "voters": [
        {"id": "v1", "bounds": [["0", "4"], ["0", "4"]]},
        {"id": "v2", "bounds": [["1", "1"], ["0", "2"]]},
        {"id": "v3", "bounds": [["3", "3"], ["1", "1"]]},
    ],
}


@pytest.mark.parametrize(
    "command",
    [
        ["rankings"],
        ["faces"],
        ["pw", "--rule", "fkt:2:1"],
        pytest.param(["oracle", "pw", "--rule", "borda"], id="oracle-pw"),
        pytest.param(["pw", "--rule", "borda", "--allow-exponential"], id="pw-allow-exponential"),
        pytest.param(["pw", "--rule", "plurality"], id="pw-plurality"),
        pytest.param(["pw", "--rule", "approval:2"], id="pw-approval"),
        pytest.param(["pw", "--rule", "veto"], id="pw-veto-2d"),
        pytest.param(["nw", "--rule", "plurality"], id="nw-plurality-2d"),
        pytest.param(["reduce-sched", "--k", "3"], id="reduce-sched"),
    ],
    ids=lambda c: c[0],
)
def test_tracer_runs_cli_commands(tmp_path, command):
    instance = ELECTION
    if "approval:2" in command or "fkt:2:1" in command:
        instance = tmp_path / "four.json"
        instance.write_text(json.dumps(FOUR_ON_A_LINE))
    if "veto" in command or command[0] == "nw":
        instance = tmp_path / "plane.json"
        instance.write_text(json.dumps(FOUR_IN_THE_PLANE))
    if command[0] == "reduce-sched":
        instance = SCHEDULING
    spans = _trace(tmp_path, command, instance)["spans"]
    names = {span[0] for span in spans}
    assert "cli.main" in names
    if command[0] == "faces":
        assert "lfp.feasible" in names
    if "borda" in command:
        # One span per oracle query: an oracle entry point never calls another.
        oracle_spans = [span for span in spans if span[0] == "oracle"]
        assert oracle_spans
        assert all(spans[parent][0] != "oracle" for *_, parent in oracle_spans if parent >= 0)
    if command[0] == "pw" and "plurality" in command:
        # One flow call decides every candidate of the query.
        assert [span[0] for span in spans].count("winners.flow") == 1
    if "veto" in command:
        # In 2D the flow reads Voronoi cells through the LFP, never the arrangement.
        assert "lfp.feasible" in names
        assert "geometry.enumerate_rankings_dd" not in names
        assert [span[0] for span in spans].count("winners.flow") == 1
    if command[0] == "nw":
        # In 2D, NW under plurality reads the same Voronoi place sets.
        assert "winners.necessary_winner" in names
        assert "lfp.feasible" in names
        assert "geometry.enumerate_rankings_dd" not in names
    if "approval:2" in command:
        # approval-1d's scheduler counts are read through this span.
        assert "scheduling.feasible_equal_length" in names
    if "fkt:2:1" in command:
        assert "winners.two_valued" in names
    if command[0] == "reduce-sched":
        # arrangement-2d's `reduce_s` is read through this span; the job
        # voters' boxes are segments, split as intervals without the LFP.
        assert "scheduling.reduce_scheduling_to_pw" in names
        assert "geometry.enumerate_rankings_dd" in names
        assert "lfp.feasible" not in names


def test_tracer_counts_one_completion_lookup_per_distinct_box(tmp_path):
    instance = tmp_path / "repeated.json"
    instance.write_text(json.dumps(REPEATED_BOX))
    spans = _trace(tmp_path, ["pw", "--rule", "plurality"], instance)["spans"]
    boxes = {tuple(map(tuple, voter["bounds"])) for voter in REPEATED_BOX["voters"]}
    assert len(REPEATED_BOX["voters"]) > len(boxes)
    assert [span[0] for span in spans].count("geometry.ranking_completions") == len(boxes)


def _load_workloads():
    """`perfbench/workloads.py`, loaded from its file without putting
    `perfbench/` on `sys.path`."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # where `dataclass` looks it up
    spec.loader.exec_module(module)
    return module


# The benchmark's work counts at its default seed, summed over each
# workload's queries, so a geometry, scheduler, LFP or oracle work regression
# fails here without any timing.  electorate-1d's 342 completion lookups are
# 114 distinct boxes for each of `rankings`, `pw plurality` and `pw veto`;
# `rankings` looked up every one of its 200 voters (428 in all) before it
# came to look up each distinct box once.
WORK_COUNTS = {
    "electorate-1d": {
        "geometry.enumerate_rankings_1d": 342,
        "model.rank_from_point": 172,
        "geometry.ranking_completions": 342,
    },
    "approval-1d": {"scheduling.feasible_equal_length": 22, "scheduling.jobs": 1760},
    "arrangement-2d": {"lfp.feasible": 1250},
    "oracle-1d": {"oracle": 3},
}


@pytest.mark.parametrize("name", WORK_COUNTS)
def test_workload_work_counts(tmp_path, name):
    workloads = _load_workloads()
    workload = workloads.WORKLOADS[name]
    paths = {}
    for key, doc in workloads.make_documents(workload, workloads.DEFAULT_SEED).items():
        paths[key] = tmp_path / f"{key}.json"
        paths[key].write_text(json.dumps(doc))
    work = Counter()
    for key, argv in workload.queries:
        trace = _trace(tmp_path, argv, paths[key])
        work.update(span[0] for span in trace["spans"])
        work.update(trace["counts"])
    assert {key: work[key] for key in WORK_COUNTS[name]} == WORK_COUNTS[name]


def _trace(tmp_path, command, instance):
    """Run one CLI command under the tracer and return its spans and counts."""
    spans_out = tmp_path / "spans.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, TRACER, str(spans_out), "--", *command, "--instance", str(instance)],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(spans_out.read_text())
