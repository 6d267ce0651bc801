"""Exception hierarchy for the mtra package.

Input problems (bad files, malformed instances) and guard violations
(queries too large to decide exactly) are kept distinct so the CLI can
map them to different exit codes.
"""


class MtraError(Exception):
    """Base class for all package-specific errors."""


class ParseError(MtraError):
    """An input document is syntactically or referentially malformed."""


class DuplicateItemName(ParseError):
    """An item or type name is declared more than once."""


class TypeSizeMismatch(ParseError):
    """A type does not declare exactly one item per agent."""


class MissingPreference(ParseError):
    """The number of preferences differs from the number of agents."""


class CyclicDependency(ParseError):
    """A CP-net dependency graph contains a cycle."""


class IncompleteCPT(ParseError):
    """A conditional preference table is missing or malformed rows."""


class InconsistentOrder(ParseError):
    """An explicit preference edge list is cyclic (not a strict order)."""


class DimensionMismatch(MtraError):
    """An assignment matrix does not match the instance dimensions."""


class UniverseMismatch(MtraError):
    """Two allocation rows range over different bundle universes."""


class NothingAvailable(MtraError):
    """No bundle in a linear order is fully available."""


class GuardViolation(MtraError):
    """A query exceeds the size limits of an exact decision procedure."""


class TooManyAgentsForExact(GuardViolation):
    """Exact priority-order enumeration is limited to small agent counts."""


class InstanceTooLargeToDecide(GuardViolation):
    """Discrete-assignment enumeration is limited to small instances."""


class MisreportSpaceTooLarge(GuardViolation):
    """A misreport space cannot be enumerated at this instance size."""


class SoundnessError(AssertionError):
    """An internal result failed its own verification (an LP witness or
    certificate, a mechanism invariant).  This signals a defect in mtra,
    not bad input, so it is deliberately not an :class:`MtraError`; it is
    raised explicitly and therefore still fires under ``python -O``."""
