class SmallCutsError(Exception):
    """Base class for all library errors."""


class InvalidParameterError(SmallCutsError):
    """Bad parameters, malformed instances, or invalid cuts."""


class InfeasibleError(SmallCutsError):
    """No feasible cover exists, or feasibility was required and absent."""


class BoundExceededError(SmallCutsError):
    """The instance exceeds a configured enumeration bound; refusing to degrade."""


class ConstructionError(SmallCutsError):
    """A generated instance failed its construction-time validation."""


class VerificationError(SmallCutsError):
    """A verifier assertion did not hold."""


def require_int(value: object, what: str) -> int:
    """Return `value` if it is a plain int; bool and float are rejected."""
    if type(value) is not int:
        raise InvalidParameterError(f"{what} must be an integer, got {value!r}")
    return value
