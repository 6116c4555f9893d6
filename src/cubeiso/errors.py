"""Exception types shared across the package."""


class CubeIsoError(Exception):
    """Base class for all cubeiso errors."""


class DimensionMismatchError(CubeIsoError):
    """Operands or boxes do not share the same dimension."""


class UnitCubeError(CubeIsoError):
    """A box or coordinate lies outside the unit cube."""


class DomainError(CubeIsoError):
    """An argument is outside the operation's domain (e.g. a one-sided
    limit taken at the cube wall, or a volume outside (0, 1/2])."""


class AlignmentError(CubeIsoError):
    """A coordinate is not a multiple of the requested grid step."""

    def __init__(self, coordinate, resolution):
        self.coordinate = coordinate
        self.resolution = resolution
        super().__init__(
            f"coordinate {coordinate} is not a multiple of 1/{resolution}"
        )


class RationalParseError(CubeIsoError):
    """A 'p/q' string could not be parsed; carries the offending location."""

    def __init__(self, text, where=""):
        self.text = text
        self.where = where
        suffix = f" at {where}" if where else ""
        super().__init__(f"invalid rational {text!r}{suffix}")


class FormatError(CubeIsoError):
    """A set or voxel file lacks a field or holds one of the wrong type."""


class NotSymmetrizedError(CubeIsoError):
    """The operation requires a fixed point of all Steiner symmetrizations."""


class NonSingularError(CubeIsoError):
    """The requested position is not a singular point of the set."""


class EventError(CubeIsoError):
    """A slice translation was requested past its event horizon."""

    def __init__(self, event, requested):
        self.event = event
        self.requested = requested
        super().__init__(
            f"translation by {requested} reaches the {event.kind} event "
            f"at distance {event.distance}"
        )


class PreconditionError(CubeIsoError):
    """A merge/improve step was invoked with the wrong first-variation
    relationship between its slices."""


class NotSpecialError(CubeIsoError):
    """The set does not satisfy the special-set conditions."""


class InconsistentFamilyError(CubeIsoError):
    """A special set's face pattern does not match any known family
    (impossible for genuinely special inputs; indicates a bug upstream)."""


class ResolutionCapError(CubeIsoError):
    """An exhaustive enumeration was requested above its hard resolution cap."""


class NoCompetitorError(CubeIsoError):
    """No better competitor exists for this family at stationary parameters."""


class InternalCheckError(CubeIsoError):
    """An exactness assertion failed inside a variation step (a bug)."""
