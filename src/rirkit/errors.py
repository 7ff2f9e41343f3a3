"""Exception types shared across the package."""


class RirkitError(Exception):
    """Base class for all rirkit errors."""


class ImproperTransferError(RirkitError, ValueError):
    """Numerator degree exceeds denominator degree."""


class PoleOnCircleError(RirkitError, ValueError):
    """A pole sits on (or numerically on) the unit circle."""


class ZeroOnCircleError(RirkitError, ValueError):
    """Evaluation or phase sweep hit a zero on the unit circle."""


class NotInGClassError(RirkitError, ValueError):
    """The system does not belong to the required unstable class."""


class PreconditionError(RirkitError, ValueError):
    """An operation precondition is not met."""


class DegenerateCrossingError(RirkitError, RuntimeError):
    """A Nyquist crossing lies on 1+j0 to rounding and cannot be classified."""


class SynthesisVerificationError(RirkitError, RuntimeError):
    """Post-hoc verification of a synthesized perturbation failed."""
