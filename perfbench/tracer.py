"""Run one spatialvote CLI query with timing wrappers on its layers.

Usage: python3 perfbench/tracer.py SPANS_OUT -- CLI_ARG...

The wrappers replace the package's public functions at the module
attributes through which the package itself calls them, so the package's
source is never touched.  Each wrapped call records a span (name, start,
end, parent span); a few functions are only counted.  Spans and counts stay
in memory and are written as JSON to SPANS_OUT after `cli.main` returns.
The exit code is the CLI's.
"""

from __future__ import annotations

import json
import sys
import time

from spatialvote import cli, geometry, oracle, scheduling, winners

_clock = time.perf_counter
spans: list[list] = []  # [name, start, end, parent index or -1]
stack: list[int] = []
counts: dict[str, int] = {}


def bump(key: str, by: int = 1) -> None:
    counts[key] = counts.get(key, 0) + by


def traced(name, fn, after=None):
    def wrapper(*args, **kwargs):
        idx = len(spans)
        spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
        stack.append(idx)
        start = _clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            spans[idx][2] = _clock()
            spans[idx][1] = start
            stack.pop()
        if after is not None:
            after(args, result)
        return result

    return wrapper


def counted(key, fn):
    def wrapper(*args, **kwargs):
        bump(key)
        return fn(*args, **kwargs)

    return wrapper


def _after_feasible(args, result):
    bump("lfp.rows", len(args[0].inequalities))
    if result is None:
        bump("lfp.empty")


def _after_enumerate(args, result):
    bump("geometry.enumerations")
    bump("geometry.rankings", len(result))


def _after_schedule(args, result):
    bump("scheduling.jobs", len(args[0].jobs))
    if result is not None:
        bump("scheduling.feasible")


def install() -> None:
    """Wrap every layer boundary at its import site."""
    geometry.feasible = traced("lfp.feasible", geometry.feasible, _after_feasible)
    geometry.enumerate_rankings_1d = traced("geometry.enumerate_rankings_1d", geometry.enumerate_rankings_1d)
    geometry.enumerate_rankings_dd = traced(
        "geometry.enumerate_rankings_dd", geometry.enumerate_rankings_dd, _after_enumerate
    )
    for module in (geometry, winners):
        module.rank_from_point = counted("model.rank_from_point", module.rank_from_point)
    for module in (winners, oracle, cli, scheduling):
        module.ranking_completions = traced("geometry.ranking_completions", module.ranking_completions)
    winners.feasible_equal_length = traced(
        "scheduling.feasible_equal_length", winners.feasible_equal_length, _after_schedule
    )
    for name in ("pw_plurality", "pw_veto"):
        setattr(winners, name, traced("winners.flow", getattr(winners, name)))
    for name in ("pw_two_valued_1d", "pw_fkt_1d", "approval_windows_1d"):
        setattr(winners, name, traced("winners.two_valued", getattr(winners, name)))
    for name in ("brute_pw", "brute_nw", "is_possible_winner"):
        setattr(oracle, name, traced("oracle", getattr(oracle, name)))
    cli.specify_faces = traced("geometry.specify_faces", cli.specify_faces)
    cli.necessary_winner = traced("winners.necessary_winner", cli.necessary_winner)
    cli.reduce_scheduling_to_pw = traced("scheduling.reduce_scheduling_to_pw", cli.reduce_scheduling_to_pw)
    cli.load_document = traced("cli.parse", cli.load_document)
    cli.parse_document = traced("cli.parse", cli.parse_document)
    cli.serialize = traced("cli.serialize", cli.serialize)


def main() -> int:
    out_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_OUT -- CLI_ARG...")
    cache = geometry.ranking_completions  # the lru_cache object itself
    install()
    code = traced("cli.main", cli.main)(argv)
    info = cache.cache_info()
    counts["geometry.cache_hits"] = info.hits
    counts["geometry.cache_misses"] = info.misses
    sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": spans, "counts": counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
