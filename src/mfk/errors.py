"""Exception types raised by mfk operations."""


class MfkError(Exception):
    """Base class for all mfk errors."""


class CardinalityMismatch(MfkError):
    """Basis candidates do not all have the same size."""


class ExchangeViolation(MfkError):
    """Basis-exchange axiom fails; carries the offending triple."""

    def __init__(self, base_a, base_b, element):
        self.base_a = base_a
        self.base_b = base_b
        self.element = element
        super().__init__(
            f"exchange fails for B={sorted(base_a)}, B'={sorted(base_b)}, "
            f"x={element}"
        )


class ParameterOutOfRange(MfkError):
    """A numeric parameter violates its documented range."""


class LoopsPresent(MfkError):
    """Operation requires a loop-free matroid."""


class Disconnected(MfkError):
    """Operation requires a connected matroid."""


class NotAFace(MfkError):
    """Vertex subset is not a face of the polytope."""


class EmptyInterval(MfkError):
    """Order interval contains no elements strictly between its ends."""


class DimensionMismatch(MfkError):
    """Operands live in different ambient dimensions."""


class NotFlats(MfkError):
    """Input sets are not all flats of the matroid."""


class NotACircuit(MfkError):
    """Given element set is not a circuit of the realization."""


class InvalidBuildingSet(MfkError):
    """Given flat collection is not a building set."""


class UnknownName(MfkError):
    """No corpus entry under the requested name."""


class InvalidInput(MfkError):
    """An input file is missing, unreadable or not of the expected form."""


class UnwritableOutput(MfkError):
    """The artifact cannot be written to the requested output path."""


class SingularSample(MfkError):
    """Sampling repeatedly hit the hyperplane union."""
