"""Exception hierarchy shared across the package."""


class SpatialVoteError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(SpatialVoteError):
    """A point, box, or candidate has the wrong number of coordinates."""


class RuleUndefinedAtM(SpatialVoteError):
    """The scoring rule has no valid score vector for this number of candidates."""


class RuleMismatch(SpatialVoteError):
    """The rule passed to a specialized algorithm is not of the expected family."""


class InstanceTooLarge(SpatialVoteError):
    """An exhaustive computation would exceed its size guard."""


class NoPolynomialAlgorithm(SpatialVoteError):
    """No polynomial algorithm is known for this rule/dimension combination."""


class MixedProcessingTimes(SpatialVoteError):
    """The equal-length scheduling solver received jobs of differing lengths."""


class PreconditionViolated(SpatialVoteError):
    """A structural precondition of a reduction or algorithm does not hold."""


class UnknownCandidate(SpatialVoteError):
    """No candidate of the profile has the requested id."""


class InvalidInstance(SpatialVoteError):
    """An instance document failed to parse or validate."""
