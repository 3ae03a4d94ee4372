"""Smoke test for the benchmark's per-layer tracer.

`perfbench/tracer.py` wraps package functions by module attribute name, so a
renamed or removed attribute breaks traced benchmark runs with an
AttributeError.  Running it on the bundled instance catches that.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")
TRACER = os.path.join(ROOT, "perfbench", "tracer.py")
ELECTION = os.path.join(ROOT, "instances", "three_candidates_line.json")


@pytest.mark.parametrize(
    "command", [["rankings"], ["faces"], ["pw", "--rule", "fkt:2:1"]], ids=lambda c: c[0]
)
def test_tracer_runs_cli_commands(tmp_path, command):
    spans_out = tmp_path / "spans.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, TRACER, str(spans_out), "--", *command, "--instance", ELECTION],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    names = {span[0] for span in json.loads(spans_out.read_text())["spans"]}
    assert "cli.main" in names
    if command[0] == "faces":
        assert "lfp.feasible" in names
