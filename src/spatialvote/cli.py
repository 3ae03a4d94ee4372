"""Command-line front end: instance file I/O, generation, and batch queries.

Instance documents are JSON with a `schema_version` field and a `kind` of
either "election" or "scheduling".  Every rational number is carried as a
string of the form `-?[0-9]+(/[0-9]+)?` ("3/2", "-1", "2") so no value ever
passes through binary floats; plain JSON integers are accepted on input and
normalized on output.  Output is deterministic: keys sorted, candidate sets
sorted by id, identical invocations byte-identical.

Exit codes: 0 success (also for -h/--help), 1 structured diagnostic (usage
error, bad input, undefined rule, no polynomial algorithm without
--allow-exponential), 2 guard violation, 141 without a diagnostic when
stdout closes early (as under `| head`; a shell's status for SIGPIPE).
Integer flags take canonical decimals only: `+3`, `007`, `1_000` exit 1.

Each query imports only the modules its command calls: `rankings` and
`faces` load none beyond `errors`, `model` and `geometry`; `gen` adds `gen`;
`nw` and `pw` add `winners`, which adds `scheduling` on the two-valued and
F(k, t) routes and `oracle` on the exponential one; `oracle` adds `oracle`;
`reduce-sched` and `gen --kind scheduling` add `scheduling`.  The solver,
`lfp`, loads on its first call: `faces` makes one in any dimension, the
other commands only on a d >= 2 document, and `reduce-sched`, whose boxes
have one free coordinate, never.

Run as a program (`python -m spatialvote.cli`, or the installed
`spatialvote`), the CLI enters through `run`, which calls `gc.freeze()`
after `main` returns, so the full collections at exit skip every object the
imports and the query left behind; `main` leaves the process as it was.
"""

from __future__ import annotations

import gc
import json
import os
import re
import sys
from fractions import Fraction
from functools import lru_cache, partial
from itertools import starmap
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional, Sequence

from .errors import DEFAULT_GUARD, InstanceTooLarge, InvalidInstance, SpatialVoteError, UsageError
from .geometry import bisectors, ranking_completions, specify_faces
from .model import Candidate, PartialSpatialProfile, ScoringRule, VoterBox, _number, rule_from_text, rule_to_text

if TYPE_CHECKING:
    from .scheduling import SchedulingInstance

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# Documents
# ---------------------------------------------------------------------------

_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _describe(value: Any) -> str:
    """A bounded description of a JSON value for a diagnostic; containers are
    named, not printed, since printing a deeply nested one recurses."""
    if isinstance(value, (dict, list)):
        return "an object" if isinstance(value, dict) else "an array"
    text = repr(value)
    return text if len(text) <= 40 else text[:37] + "..."


def _any(value: Any) -> Any:
    return value


def _integer(value: Any) -> int:
    if type(value) is int:  # not `bool`: true/false are not counts
        return value
    raise ValueError(f"expected an integer, got {_describe(value)}")


def _string(value: Any) -> str:
    if isinstance(value, str):
        return value
    raise ValueError(f"expected a string, got {_describe(value)}")


def _rational(value: Any) -> Fraction:
    if type(value) is int:
        return Fraction(value)
    match = _RATIONAL.fullmatch(value) if isinstance(value, str) else None
    if match:  # the groups are ASCII digits, which `int` reads as `Fraction(value)` would
        numerator, denominator = match.groups()
        return Fraction(int(numerator), int(denominator or 1))
    raise ValueError(f'expected an integer or a string like "-3/2", got {_describe(value)}')


# A schema is a leaf converter, an object {field: schema} (unknown fields are
# ignored), an array [schema] of any length, or a fixed-length array
# (schema, ...); `_walk` returns every container as a tuple, an object's
# fields in the schema's order.  `kind` selects the body's table.
_HEADER = {"kind": _string, "schema_version": _any}
_BODIES = {
    "election": {
        "dimension": _integer,
        "candidates": [{"id": _string, "position": [_rational]}],
        "voters": [{"id": _string, "bounds": [(_rational, _rational)]}],
    },
    "scheduling": {
        "machines": _integer,
        "jobs": [{"id": _string, "arrival": _integer, "deadline": _integer, "processing": _integer}],
    },
}
_CONTAINERS = {dict, list, tuple}


def _where(path: Any) -> str:
    """A field path that `_walk` carries as nested (parent, key) pairs, as text."""
    if isinstance(path, str):
        return path
    return _where(path[0]) + (f".{path[1]}" if isinstance(path[1], str) else f"[{path[1]}]")


def _walk(schema: Any, value: Any, where: Any, rationals: Callable[[str], Fraction]) -> tuple:
    """Check `value` against a container `schema`, converting its leaves in
    the loop rather than in calls of their own; the recursion follows the
    schema, so its depth does not depend on the input."""
    if type(schema) is dict:
        if not isinstance(value, dict):
            raise InvalidInstance(f"{_where(where)}: expected an object, got {_describe(value)}")
        subs = schema.items()
    elif not isinstance(value, list) or (type(schema) is tuple and len(value) != len(schema)):
        shape = "an array" if type(schema) is list else f"an array of {len(schema)}"
        raise InvalidInstance(f"{_where(where)}: expected {shape}, got {_describe(value)}")
    else:
        subs = enumerate(schema * len(value) if type(schema) is list else schema)
    out = []
    for key, sub in subs:
        if type(key) is str and key not in value:
            raise InvalidInstance(f"{_where(where)}: missing field {key!r}")
        item = value[key]
        if type(sub) in _CONTAINERS:
            out.append(_walk(sub, item, (where, key), rationals))
            continue
        try:  # only strings key the memo: `True == 1` would share 1's entry, and a list is unhashable
            out.append(rationals(item) if sub is _rational and type(item) is str else sub(item))
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInstance(f"{_where((where, key))}: {exc}") from exc
    return tuple(out)


def parse_document(doc: Any) -> PartialSpatialProfile | SchedulingInstance:
    rationals = lru_cache(None)(_rational)  # one `Fraction` per distinct string in this document
    kind, version = _walk(_HEADER, doc, "document", rationals)
    if type(version) is not int or version != SCHEMA_VERSION:
        raise InvalidInstance(f"document: unsupported schema_version {_describe(version)}")
    if kind not in _BODIES:
        raise InvalidInstance(f"document: unknown kind {_describe(kind)}")
    if kind == "election":
        doc = {"voters": [], **doc}
    body = _walk(_BODIES[kind], doc, kind, rationals)
    try:
        if kind == "election":
            dimension, candidates, voters = body
            return PartialSpatialProfile(dimension, tuple(starmap(Candidate, candidates)), tuple(starmap(VoterBox, voters)))
        from .scheduling import Job, SchedulingInstance

        machines, jobs = body
        return SchedulingInstance(tuple(starmap(Job, jobs)), machines)
    except (ValueError, SpatialVoteError) as exc:
        raise InvalidInstance(f"{kind}: {exc}") from exc


def election_to_document(profile: PartialSpatialProfile) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "election",
        "dimension": profile.dimension,
        "candidates": [
            {"id": c.id, "position": [str(x) for x in c.position]} for c in profile.candidates
        ],
        "voters": [
            {"id": v.id, "bounds": [[str(lo), str(hi)] for lo, hi in v.bounds]}
            for v in profile.voters
        ],
    }


def scheduling_to_document(instance: SchedulingInstance) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "scheduling",
        "machines": instance.machines,
        "jobs": [
            {"id": j.id, "arrival": j.arrival, "deadline": j.deadline, "processing": j.processing}
            for j in instance.jobs
        ],
    }


def serialize(payload: Any) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def load_document(path: str) -> Any:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise InvalidInstance(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except (OSError, ValueError) as exc:  # also undecodable bytes and over-long integers
        raise InvalidInstance(f"{path}: {exc}") from exc
    except RecursionError as exc:
        raise InvalidInstance(f"{path}: nesting too deep") from exc


def _load(path: str, kind: str) -> Any:
    doc = load_document(path)
    instance = parse_document(doc)
    if doc["kind"] != kind:
        raise InvalidInstance(f"{path}: expected a document of kind {kind!r}")
    return instance


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _write(text: str) -> None:
    """Write `text` to stdout in 8 KiB pieces: one large write that a closed pipe
    cuts short returns quietly, while the next piece raises `BrokenPipeError`."""
    sys.stdout.writelines(text[i:i + 8192] for i in range(0, len(text), 8192))


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    _write(serialize(payload) if args.format == "json" else "".join(line + "\n" for line in text_lines))


def _emit_winners(args, profile: PartialSpatialProfile, members: Iterable[int]) -> None:
    ids = sorted(profile.candidates[i].id for i in members)
    _emit(args, {"winners": ids}, [" ".join(ids) if ids else "(none)"])


def _json_block(brackets: str, items: list[str], indent: str) -> str:
    """`items`, each already JSON text, in `brackets` ("[]" or "{}") laid out
    as `json.dumps(..., indent=2)` lays out a container whose closing bracket
    sits at `indent`."""
    if not items:
        return brackets
    inner = "\n" + indent + "  "
    return f"{brackets[0]}{inner}{(',' + inner).join(items)}\n{indent}{brackets[1]}"


def cmd_rankings(args) -> int:
    """Each distinct box is looked up and written once; the JSON is `serialize`'s bytes
    for {"rankings": {voter id: [{"ranking": [...], "witness": [...]}, ...]}}."""
    profile = _load(args.instance, "election")
    voters = profile.voters
    if args.voter is not None:
        voters = tuple(v for v in voters if v.id == args.voter)
        if not voters:
            raise InvalidInstance(f"no voter with id {args.voter!r}")
    index: dict = {}  # each distinct box's number, in order of first appearance; a box is hashed only here
    which = [index.setdefault(v.bounds, len(index)) for v in voters]
    completions = [ranking_completions(profile.candidates, b) for b in index]
    if args.format == "text":
        ids = [c.id for c in profile.candidates]
        tails = [[f": {' > '.join(ids[i] for i in rw.ranking)}  (at {', '.join(map(str, rw.witness))})" for rw in rws]
                 for rws in completions]
        _write("".join(f"{v.id}{tail}\n" for v, k in zip(voters, which) for tail in tails[k]))
        return 0
    quote = encode_basestring_ascii  # the escaping `json.dumps` gives every string
    names = [quote(c.id) for c in profile.candidates]
    array = lru_cache(None)(lambda r: _json_block("[]", [names[i] for i in r], " " * 8))  # once per distinct ranking
    slots = ["%s"] * profile.dimension  # one entry's layout, made once, with %s for its strings
    entry = _json_block("{}", ['"ranking": %s', f'"witness": {_json_block("[]", slots, " " * 8)}'], " " * 6)
    lists = [
        _json_block("[]", [entry % (array(rw.ranking), *[quote(str(x)) for x in rw.witness]) for rw in rws], " " * 4)
        for rws in completions
    ]
    entries = [f"{quote(v.id)}: {lists[k]}" for v, k in sorted(zip(voters, which), key=lambda vk: vk[0].id)]
    _write(f'{{\n  "rankings": {_json_block("{}", entries, "  ")}\n}}\n')
    return 0


def _membership_command(args, winner_set) -> int:
    profile = _load(args.instance, "election")
    rule = rule_from_text(args.rule)
    if args.candidate is not None:
        c = profile.candidate_index(args.candidate)
        verdict = c in winner_set(profile, rule, (c,))
        _emit(args, {"candidate": args.candidate, "member": verdict}, [str(verdict).lower()])
    else:
        _emit_winners(args, profile, winner_set(profile, rule, range(profile.num_candidates)))
    return 0


# `winners`, `scheduling` and `oracle` are imported inside the commands that
# call them (see the module docstring).  The two stand-ins below keep
# `necessary_winner` and `reduce_scheduling_to_pw` attributes of this module,
# where perfbench's tracer wraps them.


def necessary_winner(profile: PartialSpatialProfile, rule: ScoringRule, candidates: Iterable[int]) -> frozenset[int]:
    from .winners import necessary_winner

    return necessary_winner(profile, rule, candidates)


def reduce_scheduling_to_pw(instance: SchedulingInstance, k: int) -> tuple[PartialSpatialProfile, str, ScoringRule]:
    from .scheduling import reduce_scheduling_to_pw

    return reduce_scheduling_to_pw(instance, k)


def cmd_nw(args) -> int:
    return _membership_command(args, necessary_winner)


def cmd_pw(args) -> int:
    from .winners import possible_winner

    guard = _guard_value(args)
    return _membership_command(args, partial(possible_winner, allow_exponential=args.allow_exponential, guard=guard))


def cmd_oracle(args) -> int:
    from . import oracle

    profile = _load(args.instance, "election")
    rule = rule_from_text(args.rule)
    fn = oracle.brute_pw if args.which == "pw" else oracle.brute_nw
    _emit_winners(args, profile, fn(profile, rule, _guard_value(args)))
    return 0


def cmd_reduce_sched(args) -> int:
    instance = _load(args.instance, "scheduling")
    profile, target, rule = reduce_scheduling_to_pw(instance, args.k)
    doc = {**election_to_document(profile), "target_candidate": target, "rule": rule_to_text(rule)}
    _write(serialize(doc))
    return 0


def cmd_gen(args) -> int:
    from . import gen

    if args.kind == "election":
        profile = gen.generate_election(
            args.seed, args.dimension, args.num_candidates, args.num_voters, args.coord_range
        )
        _write(serialize(election_to_document(profile)))
    else:
        instance = gen.generate_scheduling(args.seed, args.num_jobs, args.machines, args.horizon)
        _write(serialize(scheduling_to_document(instance)))
    return 0


def __getattr__(name: str):
    """`gen`'s generators, where perfbench's workloads call them (PEP 562)."""
    if name in ("generate_election", "generate_scheduling"):
        from . import gen

        return getattr(gen, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def cmd_faces(args) -> int:
    profile = _load(args.instance, "election")
    planes = bisectors(profile.candidates)
    faces = specify_faces(planes, profile.dimension)
    payload = {"num_hyperplanes": len(planes), "num_faces": len(faces)}
    _emit(args, payload, [f"{len(faces)} faces over {len(planes)} hyperplanes"])
    return 0


def _guard_value(args) -> int:
    if args.guard < 0:
        raise InvalidInstance(f"--guard: the guard must be at least 0, got {args.guard}")
    return args.guard


# ---------------------------------------------------------------------------
# Argument parsing and entry point
# ---------------------------------------------------------------------------

# An option is (flag, kind, default, help): kind is str, int, a tuple of
# choices, or bool for a flag without a value; a default of ... makes it
# required.  `which` is a positional, the rest are flags; no abbreviation is
# accepted.  A command is (handler, help, options).
_INSTANCE = ("--instance", str, ..., "path to an instance JSON document")
_RULE = ("--rule", str, ..., "rule descriptor, e.g. plurality, approval:2, fkt:2:1")
_CANDIDATE = ("--candidate", str, None, "restrict to a membership verdict for this candidate id")
_GUARD = ("--guard", int, DEFAULT_GUARD, "oracle work guard on the whole fold")
_FORMAT = ("--format", ("json", "text"), "text", "output format")
COMMANDS = {
    "rankings": (cmd_rankings, "ranking completions per voter, with witnesses",
                 (_INSTANCE, ("--voter", str, None, "restrict to one voter id"), _FORMAT)),
    "nw": (cmd_nw, "necessary winners", (_INSTANCE, _RULE, _CANDIDATE, _FORMAT)),
    "pw": (cmd_pw, "possible winners", (_INSTANCE, _RULE, _CANDIDATE, _GUARD, _FORMAT, (
        "--allow-exponential", bool, False, "fall back to the oracle when no polynomial algorithm applies"))),
    "oracle": (cmd_oracle, "exact brute-force possible/necessary winner sets", (
        ("which", ("pw", "nw"), ..., "the possible or the necessary winners"), _INSTANCE, _RULE, _GUARD, _FORMAT)),
    "reduce-sched": (cmd_reduce_sched, "translate a scheduling instance to a possible-winner instance", (
        ("--instance", str, ..., "path to a scheduling JSON document"),
        ("--k", int, ..., "approval count (jobs must have lengths k-1 or k)"))),
    "gen": (cmd_gen, "generate a random instance (deterministic per seed)", (
        ("--seed", int, ..., "random seed"), ("--kind", ("election", "scheduling"), "election", "document kind"),
        ("--dimension", int, 1, "election dimension"), ("--num-candidates", int, 3, "election candidates"),
        ("--num-voters", int, 3, "election voters"), ("--coord-range", int, 8, "election coordinate bound"),
        ("--num-jobs", int, 3, "scheduling jobs"), ("--machines", int, 1, "scheduling machines"),
        ("--horizon", int, 10, "scheduling horizon"))),
    "faces": (cmd_faces, "size of the bisector arrangement of an instance", (_INSTANCE, _FORMAT)),
}


def _usage(args) -> int:
    lines = [f"usage: spatialvote {args.command or 'COMMAND'} [OPTION ...]"]
    if args.command is None:
        lines += [f"  {name:14s}{help}" for name, (_, help, _) in COMMANDS.items()]
    else:
        for flag, kind, default, text in COMMANDS[args.command][2]:
            value = "" if kind is bool else f" {{{','.join(kind)}}}" if isinstance(kind, tuple) else f" {flag[2:].upper()}"
            note = " (required)" if default is ... else "" if default in (None, False) else f" (default {default})"
            lines.append(f"  {flag + value:24s}  {text}{note}")
    print("\n".join(lines))
    return 0


def parse_args(argv: Sequence[str]) -> SimpleNamespace:
    """`args.fn`, the command's handler (`_usage` under -h/--help), and
    `args.<flag>` for each option, with dashes as underscores."""
    command = argv[0] if argv else None
    if {"-h", "--help"} & set(argv):  # anywhere, as with argparse
        return SimpleNamespace(fn=_usage, command=command if command in COMMANDS else None)
    if command not in COMMANDS:
        raise UsageError(f"expected a command, one of {', '.join(COMMANDS)}; got {' '.join(argv[:1]) or 'none'}")
    fn, _, options = COMMANDS[command]
    kinds = {flag: kind for flag, kind, _, _ in options}
    values = {flag: default for flag, _, default, _ in options}
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, text = token.partition("=")
        if not token.startswith("-"):  # the positional `which`, given once
            flag, eq, text = ("which" if values.get("which") is ... else None), "=", token
        kind = kinds.get(flag)
        if kind is None or (kind is bool and eq):
            raise UsageError(f"{command}: unexpected {token!r}")
        if kind is not bool and not eq:
            text = next(tokens, "--")
            if text.startswith("--"):
                raise UsageError(f"{command}: {flag} needs a value")
        try:  # tuple.index and _number raise ValueError on a bad value
            values[flag] = (
                True if kind is bool else kind[kind.index(text)] if isinstance(kind, tuple)
                else _number(text) if kind is int else text
            )
        except ValueError:
            wanted = f"one of {', '.join(kind)}" if isinstance(kind, tuple) else "an integer"
            raise UsageError(f"{command}: {flag} needs {wanted}, got {text!r}") from None
    missing = [flag for flag, value in values.items() if value is ...]
    if missing:
        raise UsageError(f"{command}: missing {', '.join(missing)}")
    return SimpleNamespace(fn=fn, **{flag.lstrip("-").replace("-", "_"): value for flag, value in values.items()})


def _diagnostic(exc: Exception) -> str:
    return serialize({"error": {"type": type(exc).__name__, "message": str(exc)}})


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        code = args.fn(args)
        sys.stdout.flush()  # so a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:  # the reader stopped early, as `| head` does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # the exit flush then writes nowhere
        return 141
    except InstanceTooLarge as exc:
        sys.stderr.write(_diagnostic(exc))
        return 2
    except (SpatialVoteError, ValueError) as exc:
        sys.stderr.write(_diagnostic(exc))
        return 1


def run() -> None:
    """The program's entry: `main`, then exit with its code."""
    code = main()
    gc.freeze()  # exit still flushes stdio and runs atexit handlers
    sys.exit(code)


if __name__ == "__main__":  # pragma: no cover
    run()
