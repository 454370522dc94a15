"""Exception types shared across the package."""


class JBStarError(Exception):
    """Base class for all package-specific errors."""


# numeric kernel
class DegenerateInput(JBStarError):
    pass


class RankDeficient(JBStarError):
    pass


# algebra construction
class SizeOutOfRange(JBStarError):
    pass


class EmptyParts(JBStarError):
    pass


class AlgebraMismatch(JBStarError):
    pass


# Jordan calculus
class NotSelfAdjoint(JBStarError):
    pass


class IllConditioned(JBStarError):
    pass


class VerificationFailed(JBStarError):
    pass


# tripotents and Peirce structure
class NotTripotent(JBStarError):
    pass


# unitary lab
class NotUnitary(JBStarError):
    pass


class BranchAmbiguity(JBStarError):
    pass


class NotProjection(JBStarError):
    pass


# preserver harness
class SamplerViolation(JBStarError):
    pass


class NonUnitaryImage(JBStarError):
    pass


class Inconsistent(JBStarError):
    pass


class PreconditionFailed(JBStarError):
    pass


class NotAFactor(JBStarError):
    pass


class HypothesisFailed(JBStarError):
    pass


class ParamOutOfRange(JBStarError):
    pass


# measure lab
class AdditivityViolation(JBStarError):
    pass


class ProjectionsDoNotSpan(JBStarError):
    pass


class TypeI2Present(JBStarError):
    pass
