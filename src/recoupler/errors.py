"""Exception hierarchy. CLI maps RecouplerError subclasses to exit code 2."""


class RecouplerError(Exception):
    """Base class for all recoupler errors."""


class DimensionError(RecouplerError):
    """Operands defined on different spin counts."""


class CapacityError(RecouplerError):
    """Dense realization would exceed the configured spin maximum."""


class ValidationError(RecouplerError):
    """Inconsistent model, schedule, or input data."""


class ControllabilityError(RecouplerError):
    """A pulse handle the platform's controllability registry does not allow."""


class ConnectivityError(RecouplerError):
    """A pulse handle references a pair the hardware does not couple."""


class SectorError(RecouplerError):
    """The construction does not act on the requested code sector."""


class DegenerateSpectrumError(RecouplerError):
    """The single-particle splitting needed for an encoded z rotation vanishes."""


class UnsupportedGeneratorError(RecouplerError):
    """Symbolic conjugation requires a single +/-1-phased Pauli string."""
