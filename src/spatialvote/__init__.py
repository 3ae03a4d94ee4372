"""Possible and necessary winners for spatial elections with box uncertainty.

Importing the package loads no submodule: each name of `__all__`, and each
library submodule, is loaded the first time it is used (PEP 562), so a
command line query pays only for the modules it calls.
"""

from importlib import import_module

# The package's public names, by the submodule that defines each.
_EXPORTS = {
    "errors": (
        "DimensionMismatch", "InstanceTooLarge", "InvalidInstance", "MixedProcessingTimes", "NoPolynomialAlgorithm",
        "PreconditionViolated", "RuleMismatch", "RuleUndefinedAtM", "SelfCheckFailed", "SpatialVoteError",
        "UnknownCandidate",
    ),
    "geometry": (
        "Face", "Hyperplane", "RankingWithWitness", "bisectors", "enumerate_rankings_1d", "enumerate_rankings_dd",
        "ranking_completions", "specify_faces",
    ),
    "model": (
        "Candidate", "PartialSpatialProfile", "Ranking", "Rational", "ScoringRule", "SpatialPoint", "VoterBox",
        "as_rational", "rank_from_point", "realize_score_vector", "rule_from_text", "rule_to_text", "score_profile",
        "winners_of_rankings",
    ),
    "oracle": ("brute_nw", "brute_pw", "is_possible_winner"),
    "scheduling": ("Job", "Schedule", "SchedulingInstance", "feasible_equal_length", "reduce_scheduling_to_pw"),
    "winners": (
        "necessary_winner", "possible_winner", "pw_fkt_1d", "pw_plurality", "pw_two_valued_1d", "pw_veto",
        "pw_weighted_veto_1d", "route_for",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"lfp"}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """A submodule, or a name of `__all__` from its submodule, loaded on
    first use and then bound here, so later lookups skip this hook."""
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)  # the import binds it as an attribute
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value
