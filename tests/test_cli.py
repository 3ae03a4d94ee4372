import contextlib
import copy
import gc
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankings_reference import reference_rankings_output
from spatialvote import Candidate, PartialSpatialProfile, VoterBox, cli, gen, scheduling
from spatialvote.cli import (
    _describe,
    _rational,
    election_to_document,
    generate_election,
    generate_scheduling,
    load_document,
    main,
    parse_document,
    scheduling_to_document,
    serialize,
)
from spatialvote.errors import InvalidInstance
from spatialvote.geometry import ranking_completions

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
            lambda d: d.update(candidates=5),
            lambda d: d["candidates"][0].update(position=5),
            lambda d: d.update(voters=7),
            lambda d: d["voters"][0].update(bounds=5),
            lambda d: d.update(kind="scheduling", machines=1, jobs=3),
            lambda d: d["candidates"][0].update(id=1),
            lambda d: d["voters"][0].update(id=1),
            lambda d: d.update(dimension=True),
            lambda d: d.update(
                kind="scheduling",
                machines=True,
                jobs=[{"id": "j1", "arrival": 1, "deadline": 4, "processing": 3}],
            ),
            lambda d: d.update(schema_version=True),
            lambda d: d.update(schema_version=1.0),
            lambda d: d["candidates"][0].update(position=["1e2000000"]),
            *(
                lambda d, text=text: d["candidates"][0].update(position=[text])
                for text in ("1.5", "+1", "1e3", " 1", "1_000", "1/-2", "1/0", "1" * 5000)
            ),
        ],
    )
    def test_field_addressed_errors(self, mutate):
        doc = json.loads(serialize(election_to_document(generate_election(1, 1, 3, 1))))
        mutate(doc)
        with pytest.raises(InvalidInstance, match=r"^(document|election|scheduling)\b"):
            parse_document(doc)

    def test_repeated_bad_bound_is_reported_at_its_first_voter(self):
        doc = json.loads(serialize(election_to_document(generate_election(1, 1, 3, 4))))
        for voter in doc["voters"][1:]:
            voter["bounds"] = [["0", "1.5"]]
        with pytest.raises(InvalidInstance) as info:
            parse_document(doc)
        _, message = parse_outcome(reference_rational, "1.5")
        assert str(info.value) == f"election.voters[1].bounds[0][1]: {message}"

    def test_equal_bound_strings_share_one_conversion(self):
        doc = json.loads(serialize(election_to_document(generate_election(1, 1, 3, 3))))
        for voter in doc["voters"]:
            voter["bounds"] = [["1", "5/2"]]
        profile = parse_document(doc)
        assert len({id(x) for v in profile.voters for x in v.bounds[0]}) == 2
        # a boolean never reads the entry of the equal integer string "1"
        doc["voters"][2]["bounds"] = [[True, "5/2"]]
        with pytest.raises(InvalidInstance, match=r"^election\.voters\[2\]\.bounds\[0\]\[0\]: .* got True$"):
            parse_document(doc)


def reference_rational(value):
    """`cli._rational` as it read coordinates with `Fraction(str)`, which
    parses the text a second time."""
    if type(value) is int or (isinstance(value, str) and re.fullmatch(r"-?[0-9]+(/[0-9]+)?", value)):
        return Fraction(value)
    raise ValueError(f'expected an integer or a string like "-3/2", got {_describe(value)}')


def parse_outcome(parse, value):
    try:
        result = parse(value)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)
    return type(result), result


ACCEPTED_RATIONALS = {"-0/3": Fraction(0), "007": Fraction(7), "-6/4": Fraction(-3, 2), 7: Fraction(7)}
REJECTED_RATIONALS = ["1/0", "+1", " 1", "1.5", "1e3", "1/-2", "\u0663", "1/\u0663", True]


class TestRationalParsing:
    @pytest.mark.parametrize("value", [*ACCEPTED_RATIONALS, *REJECTED_RATIONALS], ids=repr)
    def test_same_verdicts_and_diagnostics(self, value):
        kind, result = parse_outcome(_rational, value)
        assert (kind, result) == parse_outcome(reference_rational, value)
        if value in ACCEPTED_RATIONALS:
            assert kind is Fraction and result == ACCEPTED_RATIONALS[value]
        else:
            assert kind is (ZeroDivisionError if value == "1/0" else ValueError)

    def test_fuzzed_values(self):
        """2,000 seeded short strings over digits, signs, slashes, spaces,
        exponents, underscores and a non-ASCII digit, and other JSON values."""
        rng = random.Random(2503)
        values = ["".join(rng.choices("0123456789-/+ .e_\u0663", k=rng.randint(0, 6))) for _ in range(2000)]
        values += ["1" * 5000, "-" + "1" * 4300, "1/" + "0" * 4301, "-0/0", -3, 0, False, None, 1.5, [], {}]
        outcomes = [parse_outcome(_rational, v) for v in values]
        assert outcomes == [parse_outcome(reference_rational, v) for v in values]
        assert {kind for kind, _ in outcomes} == {Fraction, ValueError, ZeroDivisionError}

    @pytest.mark.parametrize("value", REJECTED_RATIONALS, ids=repr)
    def test_rejected_on_the_command_line(self, capsys, tmp_path, value):
        _, message = parse_outcome(reference_rational, value)
        doc = load_document(ELECTION)
        doc["candidates"][0]["position"] = [value]
        code, out, err = run(capsys, "rankings", "--instance", write_doc(tmp_path, doc))
        assert code == 1 and out == ""
        error = json.loads(err)["error"]
        assert error == {"type": "InvalidInstance", "message": f"election.candidates[0].position[0]: {message}"}


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

    def test_membership_verdict(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "pw", "--instance", ELECTION, "--rule", "approval:1", "--candidate", "c2"
        )
        assert code == 0 and out.strip() == "true"

        # every --candidate verdict equals membership in the full winner set
        profile = generate_election(15, dimension=1, num_candidates=6, num_voters=4)
        path = write_doc(tmp_path, election_to_document(profile))
        verdicts = set()
        for rule, pw_flags in [
            ("plurality", []),
            ("veto", []),
            ("approval:2", []),
            ("wveto:3:2,1", []),
            ("fkt:2:1", []),
            ("borda", ["--allow-exponential"]),
        ]:
            for command, flags in (("pw", pw_flags), ("nw", [])):
                query = [command, "--instance", path, "--rule", rule, *flags]
                code, out, _ = run(capsys, *query, "--format", "json")
                assert code == 0
                winners = set(json.loads(out)["winners"])
                for candidate in profile.candidates:
                    code, out, _ = run(capsys, *query, "--candidate", candidate.id)
                    assert code == 0
                    assert out.strip() == str(candidate.id in winners).lower()
                    verdicts.add(out.strip())
        assert verdicts == {"true", "false"}

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

    def test_gen_scheduling_output_parses(self, capsys):
        code, out, _ = run(capsys, "gen", "--seed", "4", "--kind", "scheduling", "--num-jobs", "5", "--machines", "2")
        assert code == 0
        instance = parse_document(json.loads(out))
        assert instance == generate_scheduling(4, 5, 2)
        assert len(instance.jobs) == 5 and instance.machines == 2

    def test_reduce_sched_output_parses(self, capsys):
        code, out, _ = run(capsys, "reduce-sched", "--instance", SCHEDULING, "--k", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["target_candidate"] == "cstar"
        assert doc["rule"] == "approval:3"
        profile = parse_document(doc)
        assert profile.dimension == 2

    @pytest.mark.parametrize(
        "command, rule, expected",
        [
            pytest.param(["oracle", "pw"], "borda", ["c1"], id="oracle pw"),
            pytest.param(["oracle", "nw"], "borda", ["c1"], id="oracle nw"),
            pytest.param(["pw", "--allow-exponential"], "borda", ["c1"], id="pw --allow-exponential"),
            # The scheduler starts one job per voter along its search path.
            pytest.param(["pw"], "approval:2", ["c1", "c2"], id="pw approval:2"),
            pytest.param(["pw"], "fkt:2:1", ["c1", "c2"], id="pw fkt:2:1"),
        ],
    )
    def test_oracle_scales_to_thousands_of_voters(self, capsys, tmp_path, command, rule, expected):
        doc = {
            "schema_version": 1,
            "kind": "election",
            "dimension": 1,
            "candidates": [{"id": f"c{j + 1}", "position": [str(10 * j)]} for j in range(4)],
            "voters": [{"id": f"v{i + 1}", "bounds": [[str(i % 4)] * 2]} for i in range(1500)],
        }
        path = write_doc(tmp_path, doc)
        code, out, _ = run(
            capsys, *command, "--instance", path, "--rule", rule, "--format", "json"
        )
        assert code == 0
        assert json.loads(out) == {"winners": expected}

    def test_equal_boxes_share_the_cache(self, capsys, tmp_path):
        doc = load_document(ELECTION)
        doc["voters"] = [{"id": vid, "bounds": [["1/2", "5/2"]]} for vid in ("a", "b")]
        path = write_doc(tmp_path, doc)
        ranking_completions.cache_clear()
        code, out, _ = run(capsys, "rankings", "--instance", path, "--format", "json")
        info = ranking_completions.cache_info()
        # `rankings` looks up each distinct box once, so the second voter
        # reuses the first one's entries without a second lookup.
        assert code == 0 and (info.misses, info.hits) == (1, 0)
        rankings = json.loads(out)["rankings"]
        assert rankings["a"] == rankings["b"] and len(rankings["a"]) > 1

    def test_faces(self, capsys):
        code, out, _ = run(capsys, "faces", "--instance", ELECTION, "--format", "json")
        assert code == 0
        assert json.loads(out) == {"num_faces": 4, "num_hyperplanes": 3}


# Quotes, backslashes, control characters and non-ASCII ones, astral too:
# each is escaped by `json.dumps`.
ESCAPED = '"\\\n\t\x00\x1f\u00e9\u20ac\u2028\U0001f600'
IDS = st.text(alphabet=st.one_of(st.sampled_from(ESCAPED), st.characters()), max_size=4)


@st.composite
def rankings_queries(draw):
    """A profile in d = 1, 2 or 3 whose voters share at most three boxes,
    and the `--voter` to restrict to, or None."""
    d = draw(st.integers(1, 3))
    m = draw(st.integers(2, 4 if d < 3 else 3))
    coord = st.integers(-4, 4).map(lambda x: Fraction(x, 2))
    positions = draw(st.lists(st.tuples(*[coord] * d), min_size=m, max_size=m, unique=True))
    candidate_ids = draw(st.lists(IDS, min_size=m, max_size=m, unique=True))
    interval = st.tuples(coord, coord).map(lambda pair: tuple(sorted(pair)))
    boxes = draw(st.lists(st.tuples(*[interval] * d), min_size=1, max_size=3))
    voter_ids = draw(st.lists(IDS, max_size=6, unique=True))
    profile = PartialSpatialProfile(
        d,
        [Candidate(cid, position) for cid, position in zip(candidate_ids, positions)],
        [VoterBox(vid, draw(st.sampled_from(boxes))) for vid in voter_ids],
    )
    return profile, draw(st.none() | st.sampled_from(voter_ids)) if voter_ids else None


def rankings_stdout(path, fmt, voter=None):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["rankings", "--instance", path, "--format", fmt, *([f"--voter={voter}"] if voter is not None else [])])
    assert code == 0
    return out.getvalue()


class TestRankingsOutput:
    @settings(max_examples=150, deadline=None)
    @given(query=rankings_queries())
    def test_same_bytes_as_the_per_voter_payload(self, tmp_path_factory, query):
        profile, voter = query
        path = write_doc(tmp_path_factory.mktemp("rankings"), election_to_document(profile))
        voters = [v for v in profile.voters if voter in (None, v.id)]
        for fmt in ("json", "text"):
            assert rankings_stdout(path, fmt, voter) == reference_rankings_output(profile, voters, fmt)

    def test_no_voters(self, tmp_path):
        doc = load_document(ELECTION)
        doc["voters"] = []
        path = write_doc(tmp_path, doc)
        assert rankings_stdout(path, "json") == '{\n  "rankings": {}\n}\n' == serialize({"rankings": {}})
        assert rankings_stdout(path, "text") == ""

    def test_thousands_of_voters(self, tmp_path):
        profile = generate_election(31, 1, 8, 2000, 8, 1)
        path = write_doc(tmp_path, election_to_document(profile))
        for fmt in ("json", "text"):
            assert rankings_stdout(path, fmt) == reference_rankings_output(profile, profile.voters, fmt)


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_closed_stdout_exits_without_a_traceback(tmp_path, fmt):
    """A reader that stops after one line, as `| head -n 1` does: the CLI
    exits 141 and writes nothing to stderr."""
    path = write_doc(tmp_path, election_to_document(generate_election(31, 1, 8, 5000, 8, 1)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (os.path.join(HERE, "..", "src"), env.get("PYTHONPATH")) if p)
    command = [sys.executable, "-m", "spatialvote.cli", "rankings", "--instance", path, "--format", fmt]
    proc = subprocess.Popen(command, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 141 and err == b""


class TestExitCodes:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "pw", "--instance", "/no/such/file.json", "--rule", "plurality")
        assert code == 1
        assert json.loads(err)["error"]["type"] == "InvalidInstance"

    def test_bad_rule(self, capsys):
        code, _, err = run(capsys, "pw", "--instance", ELECTION, "--rule", "approval:zero")
        assert code == 1 and "error" in json.loads(err)

    @pytest.mark.parametrize("voters", ["bundled", "no-voters"])
    @pytest.mark.parametrize("command", [["pw"], ["nw"], ["oracle", "nw"]], ids="-".join)
    def test_rule_undefined_at_m(self, capsys, tmp_path, command, voters):
        instance = ELECTION
        if voters == "no-voters":
            doc = load_document(ELECTION)
            doc["voters"] = []
            instance = write_doc(tmp_path, doc)
        code, out, err = run(capsys, *command, "--instance", instance, "--rule", "approval:5")
        assert code == 1 and out == ""
        assert json.loads(err)["error"]["type"] == "RuleUndefinedAtM"

    @pytest.mark.parametrize(
        "rule",
        ["approval:0", "kveto:0", "fkt:0:1", "vector:5", "vector:2,-1", "wveto:3:-1"]
        # numbers spelled other than as the descriptor prints them
        + ["approval:1_0", "approval: 2", "fkt:+2:1", "vector:3, 1,0", "approval:02", "vector:2,-0"],
    )
    def test_rule_parameters_out_of_range(self, capsys, rule):
        code, out, err = run(capsys, "pw", "--instance", ELECTION, "--rule", rule)
        assert code == 1 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "ValueError" and error["message"].startswith(f"bad rule descriptor {rule!r}: ")

    def test_kveto_undefined_at_three_candidates(self, capsys):
        code, out, err = run(capsys, "pw", "--instance", ELECTION, "--rule", "kveto:3")
        assert code == 1 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "RuleUndefinedAtM" and error["message"] == "k-veto with k=3 undefined for m=3"

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

    @pytest.mark.parametrize("deadline", [10**7, 10**30], ids=["1e7", "1e30"])
    def test_reduce_sched_far_deadline_exits_2(self, capsys, tmp_path, deadline):
        # one line candidate per time slot: refused before any is built
        with open(SCHEDULING) as fh:
            doc = json.load(fh)
        for job in doc["jobs"]:
            job["deadline"] = deadline
        code, _, err = run(capsys, "reduce-sched", "--instance", write_doc(tmp_path, doc), "--k", "3")
        assert code == 2
        assert json.loads(err)["error"]["type"] == "InstanceTooLarge"

    @pytest.mark.parametrize(
        "guard, expected",
        [("1", 2), ("1000", 0), ("0", 2), ("-3", 1)],  # 0 is valid: it allows no work
    )
    def test_guard_values(self, capsys, guard, expected):
        code, out, err = run(
            capsys, "oracle", "pw", "--instance", ELECTION, "--rule", "plurality", "--guard", guard
        )
        assert code == expected
        if code:
            assert out == ""
            error = json.loads(err)["error"]
            assert error["type"] == ("InstanceTooLarge" if code == 2 else "InvalidInstance")

    def test_oracle_guard_bounds_the_whole_fold(self, capsys, tmp_path):
        # each voter step stays under the default guard; the fold does not
        candidates = tuple(Candidate(f"c{i}", (10 * i,)) for i in range(4))
        voters = tuple(VoterBox(f"v{i}", ((0, 15),)) for i in range(1500))
        path = write_doc(tmp_path, election_to_document(PartialSpatialProfile(1, candidates, voters)))
        code, out, err = run(capsys, "oracle", "pw", "--instance", path, "--rule", "borda")
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "InstanceTooLarge"

    def test_scheduler_guard_exits_2(self, capsys, tmp_path, monkeypatch):
        # The equal-length scheduler memoizes at most 7 failed states per
        # instance on this profile; below that guard `pw` exits 2 instead of
        # growing.
        path = write_doc(tmp_path, election_to_document(generate_election(3, 1, 6, 12, 8, 1)))
        monkeypatch.setattr(scheduling, "DEFAULT_GUARD", 7)
        code, out, _ = run(capsys, "pw", "--instance", path, "--rule", "approval:3")
        assert code == 0 and out
        monkeypatch.setattr(scheduling, "DEFAULT_GUARD", 6)
        code, out, err = run(capsys, "pw", "--instance", path, "--rule", "approval:3")
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "InstanceTooLarge"

    def test_env_guard(self, capsys, monkeypatch):
        # --guard is the guard's only source; the environment is not read.
        monkeypatch.setenv("SVK_GUARD", "1")
        code, out, _ = run(capsys, "oracle", "pw", "--instance", ELECTION, "--rule", "plurality")
        assert code == 0 and out

    @pytest.mark.parametrize(
        "command",
        [
            ["pw", "--rule", "borda", "--allow-exponential", "--guard", "-5"],
            ["oracle", "pw", "--rule", "plurality", "--guard", "-1"],
        ],
        ids=" ".join,
    )
    def test_negative_guard_is_rejected(self, capsys, command):
        code, out, err = run(capsys, *command, "--instance", ELECTION)
        assert code == 1 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "InvalidInstance" and error["message"].startswith("--guard: ")

    @pytest.mark.parametrize(
        "field, value, where",
        [
            ("candidates", 5, "election.candidates"),
            ("voters", [{"id": 1, "bounds": [[0, 1]]}], "election.voters[0].id"),
            ("dimension", True, "election.dimension"),
            ("schema_version", True, "document"),
            (
                "candidates",
                [{"id": f"c{i + 1}", "position": [x]} for i, x in enumerate(["1e2000000", "2", "3"])],
                "election.candidates[0].position[0]",
            ),
        ],
        ids=["candidates", "voter-id", "dimension-bool", "schema-version-bool", "exponent"],
    )
    def test_malformed_document(self, capsys, tmp_path, field, value, where):
        doc = load_document(ELECTION)
        doc[field] = value
        code, out, err = run(capsys, "rankings", "--instance", write_doc(tmp_path, doc))
        assert code == 1 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "InvalidInstance" and error["message"].startswith(where + ":")

    def test_truncated_document(self, capsys, tmp_path):
        path = tmp_path / "truncated.json"
        path.write_text(serialize(load_document(ELECTION))[:40])
        code, out, err = run(capsys, "rankings", "--instance", str(path))
        assert code == 1 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "InvalidInstance"
        assert re.fullmatch(re.escape(str(path)) + r":\d+:\d+: \S.*", error["message"])

    def test_reduce_sched_without_jobs(self, capsys, tmp_path):
        doc = load_document(SCHEDULING)
        doc["jobs"] = []
        code, out, err = run(capsys, "reduce-sched", "--instance", write_doc(tmp_path, doc), "--k", "3")
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == {
            "type": "PreconditionViolated", "message": "the reduction needs at least one job"
        }

    def test_deeply_nested_document(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        code, out, err = run(capsys, "rankings", "--instance", str(path))
        assert code == 1 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "InvalidInstance" and error["message"].endswith(": nesting too deep")

    def test_unknown_voter(self, capsys):
        code, _, err = run(capsys, "rankings", "--instance", ELECTION, "--voter", "nobody")
        assert code == 1 and json.loads(err)["error"]["type"] == "InvalidInstance"

    @pytest.mark.parametrize(
        "extra",
        [
            ["--coord-range", "0", "--num-candidates", "2"],
            ["--coord-range", "1", "--num-candidates", "10"],
            ["--dimension", "0"],
            ["--num-voters", "-2"],
            ["--coord-range", "-1"],
            ["--dimension", "2", "--coord-range", "-1"],
            ["--kind", "scheduling", "--num-jobs", "-3"],
            ["--kind", "scheduling", "--horizon", "0"],
            ["--kind", "scheduling", "--horizon", "-4"],
        ],
        ids=" ".join,
    )
    def test_gen_rejects_impossible_requests(self, capsys, extra):
        code, out, err = run(capsys, "gen", "--seed", "1", *extra)
        assert code == 1 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "ValueError"
        assert "randrange" not in error["message"]

    @pytest.mark.parametrize(
        "generate, kwargs, message",
        [
            (generate_election, {"dimension": 2, "denominator": 0}, "denominator must be at least 1, got 0"),
            (generate_election, {"dimension": 1, "denominator": -2}, "denominator must be at least 1, got -2"),
            (generate_scheduling, {"max_processing": 0}, "max_processing must be at least 1, got 0"),
        ],
        ids=["denominator 0", "negative denominator", "max_processing 0"],
    )
    def test_generators_name_the_bad_parameter(self, generate, kwargs, message):
        # library callers reach these parameters, which `gen` never sets
        sizes = {"num_candidates": 3, "num_voters": 4} if generate is generate_election else {"num_jobs": 3}
        with pytest.raises(ValueError) as info:
            generate(1, **sizes, **kwargs)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["--rule", "plurality"], id="flag before the command"),
            pytest.param(["vote"], id="unknown command"),
            pytest.param(["pw", "--rule", "plurality", "--verbose"], id="unknown flag"),
            pytest.param(["pw", "--rul", "plurality"], id="abbreviated flag"),
            pytest.param(["pw"], id="missing required flag"),
            pytest.param(["pw", "--rule"], id="flag without value at the end"),
            pytest.param(["pw", "--candidate", "--rule", "plurality"], id="flag without value"),
            pytest.param(["pw", "--rule", "plurality", "--format", "xml"], id="bad choice"),
            pytest.param(["pw", "--rule", "plurality", "--allow-exponential=yes"], id="value for a flag"),
            pytest.param(["oracle", "pw", "--rule", "plurality", "--guard", "1e6"], id="non-integer guard"),
            pytest.param(["oracle", "pw", "--rule", "plurality", "--guard="], id="empty guard"),
            # integers are taken only as they print, as in rule descriptors
            *(
                pytest.param(["oracle", "pw", "--rule", "plurality", "--guard", text], id=f"guard {text!r}")
                for text in ("1_000", " 7", "7 ", "+3", "\u0663", "007", "-0")
            ),
            pytest.param(["oracle", "--rule", "plurality"], id="oracle without pw|nw"),
            pytest.param(["oracle", "both", "--rule", "plurality"], id="oracle with a bad positional"),
            pytest.param(["oracle", "pw", "nw", "--rule", "plurality"], id="oracle with two positionals"),
            pytest.param(["nw", "pw", "--rule", "plurality"], id="positional for nw"),
        ],
    )
    def test_usage_errors_exit_1(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--instance", ELECTION)
        assert code == 1 and out == ""
        assert json.loads(err)["error"]["type"] == "UsageError"

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param([], id="no command"),
            pytest.param(["reduce-sched", "--instance", SCHEDULING, "--k", "three"], id="non-integer k"),
            pytest.param(["gen", "--seed", "1.5"], id="non-integer seed"),
            pytest.param(["reduce-sched", "--instance", SCHEDULING, "--k", "+3"], id="signed k"),
            pytest.param(["gen", "--seed", "\u0663"], id="non-ASCII seed"),
            pytest.param(["gen", "--seed", "1", "--num-voters", " 3"], id="spaced count"),
            pytest.param(["gen", "--seed", "1", "--kind", "graph"], id="bad kind"),
        ],
    )
    def test_usage_errors_without_an_instance_exit_1(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert json.loads(err)["error"]["type"] == "UsageError"

    def test_flag_equals_value(self, capsys):
        spaced = run(capsys, "oracle", "pw", "--instance", ELECTION, "--rule", "veto", "--format", "json")
        joined = run(capsys, "oracle", f"--instance={ELECTION}", "--rule=veto", "pw", "--format=json")
        assert spaced == joined and spaced[0] == 0

    @pytest.mark.parametrize("argv", [["--help"], ["-h"], ["pw", "--help"], ["oracle", "-h"], ["gen", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        assert out.startswith(f"usage: spatialvote {argv[0] if len(argv) > 1 else 'COMMAND'} ")
        if argv[0] == "pw":
            assert "--allow-exponential" in out and "--instance INSTANCE" in out

    @pytest.mark.parametrize("command", ["pw", "nw"])
    def test_unknown_candidate(self, capsys, command):
        code, out, err = run(
            capsys, command, "--instance", ELECTION, "--rule", "plurality", "--candidate", "nope"
        )
        assert code == 1 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "UnknownCandidate" and "'nope'" in error["message"]


FUZZ_COMMANDS = [
    ["rankings"],
    ["pw", "--rule", "plurality"],
    ["nw", "--rule", "borda"],
    ["faces"],
    ["oracle", "pw", "--rule", "plurality"],
    ["reduce-sched", "--k", "3"],
]


def _random_value(rng, depth=0):
    """A small JSON value; integers stay in [-2, 12] so no mutant builds a large profile."""
    kind = rng.choice(("int", "bool", "float", "str", "null", "array", "object")[: 7 if depth < 2 else 5])
    if kind == "int":
        return rng.randint(-2, 12)
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "float":
        return rng.choice((0.5, -1.0, 2.0, 1e300))
    if kind == "str":
        return rng.choice(("", "1", "-3/2", "7/0", "1e3", "x", "election", "scheduling"))
    if kind == "null":
        return None
    if kind == "array":
        return [_random_value(rng, depth + 1) for _ in range(rng.randint(0, 2))]
    return {rng.choice(("id", "bounds", "kind", "jobs")): _random_value(rng, depth + 1)}


def _slots(node):
    """Every (container, key) pair inside a JSON document, in document order."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    slots = []
    for key, child in items:
        slots.append((node, key))
        slots.extend(_slots(child))
    return slots


def _mutate(rng, doc, actions):
    """Drop, retype, renumber, duplicate or nest one field or array element of `doc`."""
    container, key = rng.choice(_slots(doc))
    value = container[key]
    action = rng.choice(actions)
    if action == "drop":
        del container[key]
    elif action == "retype":
        container[key] = _random_value(rng)
    elif action == "renumber":
        number = rng.randint(-2, 12)
        container[key] = rng.choice((number, str(number), f"{number}/{rng.randint(0, 3)}"))
    elif action == "duplicate" and isinstance(container, list):
        twin = copy.deepcopy(value)
        if isinstance(twin, dict) and isinstance(twin.get("id"), str):
            twin["id"] += "'"  # a second voter, candidate or job rather than a clash
        container.insert(key, twin)
    elif action == "duplicate":
        container[rng.choice(list(container))] = copy.deepcopy(value)
    else:
        container[key] = [value] if rng.random() < 0.5 else {"id": value}


def test_mutated_documents_never_raise(capsys, tmp_path):
    """Every command on every mutant exits 0, 1 or 2, and each nonzero exit
    writes exactly one JSON diagnostic to stderr."""
    rng = random.Random(20231)
    originals = [load_document(ELECTION), load_document(SCHEDULING)]
    path = str(tmp_path / "mutant.json")
    for trial in range(120):
        doc = copy.deepcopy(originals[trial % 2])
        # half the mutants only renumber or duplicate, so more of them parse and reach the queries
        actions = ("renumber", "duplicate") if trial % 4 < 2 else ("drop", "retype", "renumber", "duplicate", "nest")
        for _ in range(rng.choice((1, 1, 2, 3))):
            _mutate(rng, doc, actions)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        for command in FUZZ_COMMANDS:
            code, _, err = run(capsys, *command, "--instance", path)
            context = f"{command} on {json.dumps(doc)}"
            assert code in (0, 1, 2), context
            if code:
                error = json.loads(err)["error"]
                assert set(error) == {"type", "message"}, context
            else:
                assert err == "", context


def fresh_python(script):
    """The stdout of `script` run by a fresh interpreter that imports this
    checkout's package."""
    src = os.path.join(HERE, "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_start_up_avoids_heavy_imports():
    # Each query is a fresh process, so every module the CLI imports is paid
    # for on every query; the first five come with `dataclasses` and cost
    # ~10 ms, and `argparse` with `gettext` costs 2-3 ms.
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize", "argparse", "gettext")
    script = f"import spatialvote.cli, sys; print(sorted(m for m in {heavy!r} if m in sys.modules))"
    assert fresh_python(script).strip() == "[]"


def run_as_program(argv, before="", after=""):
    """A script that runs `argv` as `python -m spatialvote.cli` does, between
    the lines `before` and `after` (which see the `SystemExit` code)."""
    return (
        f"import gc, runpy, sys\n{before}\n"
        f"sys.argv = ['spatialvote', *{list(argv)!r}]\n"
        "try:\n"
        "    runpy.run_module('spatialvote.cli', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        f"{after}\n"
    )


# The modules every command loads.  `lfp` loads on the first LFP call, which
# `faces` makes in any dimension and the other commands only in d >= 2; `gen`
# loads only under the `gen` command.
CORE_MODULES = {"errors", "model", "geometry"}


@pytest.mark.parametrize(
    "command, modules",
    [
        ("rankings --instance {election}", set()),
        ("faces --instance {election}", {"lfp"}),
        ("gen --seed 3", {"gen"}),
        ("nw --instance {m5} --rule borda", {"winners"}),
        ("nw --instance {m5} --rule approval:2", {"winners"}),
        ("pw --instance {m5} --rule plurality", {"winners"}),
        ("pw --instance {m5} --rule veto", {"winners"}),
        ("pw --instance {m5} --rule approval:2", {"winners", "scheduling"}),
        ("pw --instance {m5} --rule fkt:2:1", {"winners", "scheduling"}),
        ("pw --instance {m5} --rule borda --allow-exponential", {"winners", "oracle"}),
        ("oracle pw --instance {election} --rule borda", {"oracle"}),
        ("oracle nw --instance {election} --rule plurality", {"oracle"}),
        ("reduce-sched --instance {scheduling} --k 3", {"scheduling"}),
        ("gen --seed 3 --kind scheduling", {"gen", "scheduling"}),
        ("rankings --instance {d2}", {"lfp"}),
        ("faces --instance {d2}", {"lfp"}),
        ("nw --instance {d2} --rule borda", {"winners", "lfp"}),
        ("pw --instance {d2} --rule plurality", {"winners", "lfp"}),
    ],
)
def test_each_command_loads_only_the_modules_it_calls(tmp_path, command, modules):
    # as `python -m spatialvote.cli` runs it: the package is imported and the
    # module's code runs as __main__, so `spatialvote.cli` itself is not
    # loaded; at m = 5 in 1D, borda takes the oracle route, approval:2 the
    # scheduler and fkt:2:1 the F(k, t) route; only the 2D document reaches
    # the LFP solver, as `reduce-sched`'s one-free-coordinate boxes never do
    m5 = write_doc(tmp_path, election_to_document(generate_election(4, 1, 5, 6)))
    d2 = write_doc(tmp_path, election_to_document(generate_election(5, 2, 4, 5)), "d2.json")
    argv = [arg.format(election=ELECTION, scheduling=SCHEDULING, m5=m5, d2=d2) for arg in command.split()]
    after = "print(code, sorted(m for m in sys.modules if m.startswith('spatialvote.')))"
    last = fresh_python(run_as_program(argv, after=after)).splitlines()[-1]
    expected = sorted(f"spatialvote.{name}" for name in CORE_MODULES | modules)
    assert last == f"0 {expected}"


def test_console_script_is_the_program_entry():
    # read by regex, as tomllib is new in 3.11: the installed `spatialvote`
    # calls what `python -m spatialvote.cli` calls
    with open(os.path.join(HERE, "..", "pyproject.toml")) as f:
        module, function = re.search(r'^spatialvote = "([\w.]+):(\w+)"$', f.read(), re.M).groups()
    with open(cli.__file__) as f:
        called = re.search(r'^if __name__ == "__main__":.*\n    (\w+)\(\)$', f.read(), re.M).group(1)
    assert module == "spatialvote.cli" and getattr(cli, function) is getattr(cli, called) is cli.run


def test_program_exit_freezes_and_still_runs_atexit():
    # the exit's collections skip the frozen objects; handlers registered
    # before the CLI ran still run after it, and the exit code holds
    before = "import atexit\natexit.register(print, 'atexit ran')"
    after = "print(code, gc.get_freeze_count() > 0)"
    script = run_as_program(["pw", "--instance", ELECTION, "--rule", "plurality"], before, after)
    assert fresh_python(script).splitlines()[-2:] == ["0 True", "atexit ran"]


def test_program_output_matches_main(tmp_path, capsys):
    # stdout written before the exit reaches the reader whole, also past a
    # pipe buffer (the 2,000-voter `rankings`)
    big = write_doc(tmp_path, election_to_document(generate_election(7, 1, 5, 2000)))
    for argv in (
        ["pw", "--instance", ELECTION, "--rule", "plurality", "--format", "json"],
        ["nw", "--instance", ELECTION, "--rule", "borda"],
        ["rankings", "--instance", big, "--format", "json"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert fresh_python(run_as_program(argv, after="sys.exit(code)")) == out, argv
    assert len(out) > 1 << 16


def test_main_does_not_freeze(capsys):
    frozen = gc.get_freeze_count()
    assert run(capsys, "pw", "--instance", ELECTION, "--rule", "plurality")[0] == 0
    assert gc.get_freeze_count() == frozen


# `gen` stdout at fixed seeds, recorded while the generators were defined
# in `cli`, with the generator calls that make the same documents.
GEN_OUTPUTS = [
    ("--seed 3", lambda: election_to_document(cli.generate_election(3, 1, 3, 3)),
     "acde5de7e54fac8eecc3b28ce0ae5239ddf436efc3347995532906035b20bf6d"),
    ("--seed 11 --dimension 2 --num-candidates 5 --num-voters 7",
     lambda: election_to_document(cli.generate_election(11, 2, 5, 7)),
     "e7b538e00d58da91daba81b60f0d8985b5a4a5f7b2620e0d85373ac1e5f5f458"),
    ("--seed 5 --kind scheduling --num-jobs 6 --machines 2",
     lambda: scheduling_to_document(cli.generate_scheduling(5, 6, 2)),
     "69d9fbb6fcfd72832a38e215a4cf69861059864b4c7ceaccf3b53e1010baf7e5"),
]


def test_generators_resolve_through_cli(capsys):
    # perfbench's workloads and these tests call the generators as `cli`
    # attributes; `cli` forwards them from `gen`, where they live
    assert cli.generate_election is gen.generate_election is generate_election
    assert cli.generate_scheduling is gen.generate_scheduling is generate_scheduling
    for args, make, digest in GEN_OUTPUTS:
        code, out, err = run(capsys, "gen", *args.split())
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest, args
        assert serialize(make()) == out, args
    for name in ("no_such_name", "generate_elections", "gen"):
        with pytest.raises(AttributeError, match=f"has no attribute {name!r}"):
            getattr(cli, name)


def test_package_loads_its_names_on_first_use():
    # `import spatialvote` binds no submodule; using one loads only it and
    # what it imports
    script = textwrap.dedent(
        """
        import sys
        import spatialvote
        from importlib import import_module

        print(sorted(m for m in sys.modules if m.startswith("spatialvote.")))
        print(spatialvote.winners.__name__, "spatialvote.oracle" in sys.modules)
        for name in spatialvote.__all__:
            home = import_module(f"spatialvote.{spatialvote._HOME[name]}")
            assert getattr(spatialvote, name) is getattr(home, name), name
        names = {}
        exec("from spatialvote import *", names)
        assert set(spatialvote.__all__) <= set(names), set(spatialvote.__all__) - set(names)
        assert all(names[name] is getattr(spatialvote, name) for name in spatialvote.__all__)
        for name in ("no_such_name", "oracles"):
            try:
                getattr(spatialvote, name)
            except AttributeError as exc:
                assert exc.__context__ is None and str(exc).endswith(f"attribute {name!r}"), exc
            else:
                raise AssertionError(name)
        print(hasattr(spatialvote, "no_such_name"))
        """
    )
    assert fresh_python(script).splitlines() == ["[]", "spatialvote.winners False", "False"]
