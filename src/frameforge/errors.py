"""Exception types shared across the package; the CLI exits 2 on each."""


class FrameForgeError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(FrameForgeError):
    """Shapes, lengths or counts that do not fit together, or an empty input."""


class ConditionViolated(FrameForgeError):
    """A hypothesis fails: a divisor lattice, a pairing of 1, an inverse,
    lattice-aligned shifts, a rank the check needs."""


class DependentGroup(FrameForgeError):
    """Group ``group_index`` of a minimal sum is linearly dependent."""

    def __init__(self, group_index):
        self.group_index = group_index
        super().__init__(f"component sequences of group {group_index} are linearly dependent")


class NonFiniteData(FrameForgeError):
    """A NaN or inf given as input."""


class OutOfFloatRange(FrameForgeError):
    """Finite inputs whose result leaves the float range."""


class DrawFailed(FrameForgeError):
    """No random instance with the asked-for properties exists or was found."""
