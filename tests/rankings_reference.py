"""The `rankings` command's output built the way it was first written: one
completion lookup and one payload entry per voter, and the whole payload
through `serialize`.  The command now writes each distinct box once by hand;
tests compare its stdout with this, byte for byte.
"""

from spatialvote.cli import serialize
from spatialvote.geometry import ranking_completions


def reference_rankings_payload(profile, voters):
    """{"rankings": {voter id: [{"ranking": ids, "witness": strings}, ...]}}."""
    rankings = {}
    for voter in voters:
        rankings[voter.id] = [
            {"ranking": [profile.candidates[i].id for i in rw.ranking], "witness": [str(x) for x in rw.witness]}
            for rw in ranking_completions(profile.candidates, voter.bounds)
        ]
    return {"rankings": rankings}


def reference_rankings_output(profile, voters, fmt):
    """The command's stdout under `--format fmt` for these voters."""
    payload = reference_rankings_payload(profile, voters)
    if fmt == "json":
        return serialize(payload)
    return "".join(
        f"{vid}: {' > '.join(e['ranking'])}  (at {', '.join(e['witness'])})\n"
        for vid, entries in payload["rankings"].items()
        for e in entries
    )
