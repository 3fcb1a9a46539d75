"""Exception types shared across the package."""


class FrameForgeError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(FrameForgeError):
    pass


class EmptySequence(FrameForgeError):
    pass


class DependentGroup(FrameForgeError):
    def __init__(self, group_index, message=None):
        self.group_index = group_index
        super().__init__(message or f"component sequences of group {group_index} are linearly dependent")


class WrongRank(FrameForgeError):
    pass


class PairingNotOne(FrameForgeError):
    pass


class LengthMismatch(FrameForgeError):
    pass


class NotAnInverse(FrameForgeError):
    pass


class BadNormalization(FrameForgeError):
    pass


class NonDivisorLattice(FrameForgeError):
    pass


class BadRefinement(FrameForgeError):
    pass


class DependentModulates(FrameForgeError):
    pass


class ConditionViolated(FrameForgeError):
    pass


class ZeroShift(FrameForgeError):
    pass


class NonFiniteData(FrameForgeError):
    pass


class OutOfFloatRange(FrameForgeError):
    pass


class DrawFailed(FrameForgeError):
    pass
