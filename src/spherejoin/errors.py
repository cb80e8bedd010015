"""Exception types shared across the package."""


class SphereJoinError(Exception):
    """Base class for all errors raised by this library."""


class IndexOutOfRangeError(SphereJoinError):
    """A vertex index lies outside the declared vertex range."""


class UncoveredVertexError(SphereJoinError):
    """Some declared vertex appears in no face."""


class NotAFaceError(SphereJoinError):
    """The given simplex is not a face of the complex."""


class InvalidDimensionError(SphereJoinError):
    """The operation is undefined at this dimension."""


class NotMaximalError(SphereJoinError):
    """The given face is not a maximal face of the complex."""


class CapExceededError(SphereJoinError):
    """A subset sweep would exceed the configured vertex cap."""


class NotSimpleError(SphereJoinError):
    """The polytope data does not describe a simple polytope."""


class RedundantInequalityError(SphereJoinError):
    """An inequality does not support a genuine facet."""


class InfeasibleVertexError(SphereJoinError):
    """A listed vertex violates one of the inequalities."""


class PreconditionViolatedError(SphereJoinError):
    """The input does not satisfy the operation's stated precondition."""


class InvalidParameterError(SphereJoinError):
    """A generator or command parameter is out of range or malformed."""


class InternalInvariantError(Exception):
    """A construction or criterion broke an invariant it guarantees.

    This is a defect in the library, never a verdict about the input, so it
    deliberately does not derive from ``SphereJoinError``.
    """
