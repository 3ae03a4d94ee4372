import json
import os

import pytest

from spatialvote.cli import (
    election_to_document,
    generate_election,
    generate_scheduling,
    main,
    parse_document,
    scheduling_to_document,
    serialize,
)
from spatialvote.errors import InvalidInstance

HERE = os.path.dirname(__file__)
ELECTION = os.path.join(HERE, "..", "instances", "three_candidates_line.json")
SCHEDULING = os.path.join(HERE, "..", "instances", "two_jobs_one_machine.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_doc(tmp_path, doc, name="instance.json"):
    path = tmp_path / name
    path.write_text(serialize(doc))
    return str(path)


class TestDocuments:
    def test_election_round_trip(self):
        for seed in range(5):
            profile = generate_election(seed, dimension=2, num_candidates=4, num_voters=3)
            doc = election_to_document(profile)
            assert parse_document(json.loads(serialize(doc))) == profile

    def test_scheduling_round_trip(self):
        for seed in range(5):
            instance = generate_scheduling(seed, num_jobs=4)
            doc = scheduling_to_document(instance)
            assert parse_document(json.loads(serialize(doc))) == instance

    def test_integer_coordinates_are_accepted(self):
        doc = {
            "schema_version": 1,
            "kind": "election",
            "dimension": 1,
            "candidates": [{"id": "a", "position": [1]}, {"id": "b", "position": ["3/2"]}],
            "voters": [{"id": "v", "bounds": [[0, "2"]]}],
        }
        profile = parse_document(doc)
        assert profile.voters[0].bounds == ((0, 2),)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.pop("kind"),
            lambda d: d.update(schema_version=99),
            lambda d: d.update(kind="nonsense"),
            lambda d: d["candidates"][0].pop("position"),
            lambda d: d["candidates"][0].update(position=[0.5]),
            lambda d: d["voters"][0].update(bounds=[["2", "1"]]),
        ],
    )
    def test_field_addressed_errors(self, mutate):
        doc = json.loads(serialize(election_to_document(generate_election(1, 1, 3, 1))))
        mutate(doc)
        with pytest.raises(InvalidInstance):
            parse_document(doc)


class TestCommands:
    def test_pw_plurality_on_bundled_instance(self, capsys):
        code, out, _ = run(
            capsys, "pw", "--instance", ELECTION, "--rule", "plurality", "--format", "json"
        )
        assert code == 0
        assert json.loads(out) == {"winners": ["c1", "c2", "c3"]}

    def test_nw_on_degenerate_instance(self, capsys, tmp_path):
        doc = {
            "schema_version": 1,
            "kind": "election",
            "dimension": 1,
            "candidates": [{"id": "a", "position": ["0"]}, {"id": "b", "position": ["4"]}],
            "voters": [{"id": "v", "bounds": [["1", "1"]]}],
        }
        path = write_doc(tmp_path, doc)
        code, out, _ = run(capsys, "nw", "--instance", path, "--rule", "plurality", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"winners": ["a"]}

    def test_membership_verdict(self, capsys):
        code, out, _ = run(
            capsys, "pw", "--instance", ELECTION, "--rule", "approval:1", "--candidate", "c2"
        )
        assert code == 0 and out.strip() == "true"

    def test_rankings_listing(self, capsys):
        code, out, _ = run(capsys, "rankings", "--instance", ELECTION, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert [e["ranking"] for e in payload["rankings"]["v1"]] == [
            ["c1", "c2", "c3"],
            ["c2", "c1", "c3"],
            ["c2", "c3", "c1"],
            ["c3", "c2", "c1"],
        ]

    def test_oracle_agrees_with_pw(self, capsys):
        _, fast, _ = run(capsys, "pw", "--instance", ELECTION, "--rule", "veto", "--format", "json")
        _, slow, _ = run(capsys, "oracle", "pw", "--instance", ELECTION, "--rule", "veto", "--format", "json")
        assert fast == slow

    def test_gen_is_deterministic(self, capsys):
        _, first, _ = run(capsys, "gen", "--seed", "9", "--dimension", "2")
        _, second, _ = run(capsys, "gen", "--seed", "9", "--dimension", "2")
        assert first == second

    def test_reduce_sched_output_parses(self, capsys):
        code, out, _ = run(capsys, "reduce-sched", "--instance", SCHEDULING, "--k", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["target_candidate"] == "cstar"
        assert doc["rule"] == "approval:3"
        profile = parse_document(doc)
        assert profile.dimension == 2

    def test_faces(self, capsys):
        code, out, _ = run(capsys, "faces", "--instance", ELECTION, "--format", "json")
        assert code == 0
        assert json.loads(out) == {"num_faces": 4, "num_hyperplanes": 3}


class TestExitCodes:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "pw", "--instance", "/no/such/file.json", "--rule", "plurality")
        assert code == 1
        assert json.loads(err)["error"]["type"] == "InvalidInstance"

    def test_bad_rule(self, capsys):
        code, _, err = run(capsys, "pw", "--instance", ELECTION, "--rule", "approval:zero")
        assert code == 1 and "error" in json.loads(err)

    def test_rule_undefined_at_m(self, capsys):
        code, _, err = run(capsys, "nw", "--instance", ELECTION, "--rule", "approval:5")
        assert code == 1
        assert json.loads(err)["error"]["type"] == "RuleUndefinedAtM"

    def test_no_polynomial_algorithm(self, capsys):
        code, _, err = run(capsys, "pw", "--instance", ELECTION, "--rule", "borda")
        assert code == 1
        assert json.loads(err)["error"]["type"] == "NoPolynomialAlgorithm"

    def test_allow_exponential_unblocks(self, capsys):
        code, out, _ = run(
            capsys, "pw", "--instance", ELECTION, "--rule", "borda",
            "--allow-exponential", "--format", "json",
        )
        assert code == 0 and json.loads(out)["winners"]

    def test_guard_violation_exits_2(self, capsys):
        code, _, err = run(
            capsys, "oracle", "pw", "--instance", ELECTION, "--rule", "plurality", "--guard", "1"
        )
        assert code == 2
        assert json.loads(err)["error"]["type"] == "InstanceTooLarge"

    def test_env_guard(self, capsys, monkeypatch):
        monkeypatch.setenv("SVK_GUARD", "1")
        code, _, _ = run(capsys, "oracle", "pw", "--instance", ELECTION, "--rule", "plurality")
        assert code == 2
        monkeypatch.setenv("SVK_GUARD", "1000")
        code, _, _ = run(capsys, "oracle", "pw", "--instance", ELECTION, "--rule", "plurality")
        assert code == 0

    def test_unknown_voter(self, capsys):
        code, _, err = run(capsys, "rankings", "--instance", ELECTION, "--voter", "nobody")
        assert code == 1 and json.loads(err)["error"]["type"] == "InvalidInstance"

    @pytest.mark.parametrize("command", ["pw", "nw"])
    def test_unknown_candidate(self, capsys, command):
        code, out, err = run(
            capsys, command, "--instance", ELECTION, "--rule", "plurality", "--candidate", "nope"
        )
        assert code == 1 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "UnknownCandidate" and "'nope'" in error["message"]
