"""Exception hierarchy shared by all modules."""


class RigidliftError(Exception):
    """Base class for all library errors."""


# -- graph construction ------------------------------------------------------

class LoopEdge(RigidliftError):
    pass


class Disconnected(RigidliftError):
    pass


class DuplicateEdgeId(RigidliftError):
    pass


class MissingBaseEdge(RigidliftError):
    pass


class NotTwoEdgeConnected(RigidliftError):
    pass


class NotTwoConnected(RigidliftError):
    pass


class BaseEdgeInArch(RigidliftError):
    pass


class NoCommonCycle(RigidliftError):
    pass


# -- divisors ----------------------------------------------------------------

class EnumerationBoundExceeded(RigidliftError):
    """An enumeration found `reached` items, more than its bound `limit`;
    `what` names the items."""

    def __init__(self, limit, reached, what="classes"):
        super().__init__(limit, reached)
        self.limit = limit
        self.reached = reached
        self.what = what

    def __str__(self):
        return f"more than {self.limit} {self.what}"


class WrongDegree(RigidliftError):
    pass


# -- homology ----------------------------------------------------------------

class NotInCycleSpace(RigidliftError):
    pass


class NonIntegralClass(RigidliftError):
    pass


# -- orientations ------------------------------------------------------------

class BiorientedPresent(RigidliftError):
    pass


class InvalidMove(RigidliftError):
    pass


class DegreeMismatch(RigidliftError):
    pass


class DegreeTooHigh(RigidliftError):
    pass


class QIsEffective(RigidliftError):
    pass


# -- morphisms ---------------------------------------------------------------

class NotBijection(RigidliftError):
    pass


class BaseNotPreserved(RigidliftError):
    pass


class InvalidCyclicBijection(RigidliftError):
    pass


class GenusTooSmall(RigidliftError):
    pass


class MorphismIsRigid(RigidliftError):
    pass


class MorphismNotRigid(RigidliftError):
    pass


class NoSeriesFixingLift(RigidliftError):
    """A rigid morphism with no series-fixing correction to an isomorphism."""


class CompositionMismatch(RigidliftError):
    pass


# -- i/o ---------------------------------------------------------------------

class ParseError(RigidliftError):
    pass


class ValidationError(RigidliftError):
    pass


class InternalError(RigidliftError):
    """A verified invariant failed; indicates a bug, not bad input."""
