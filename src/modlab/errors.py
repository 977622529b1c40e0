"""Exception and warning types shared across the package.

ArgumentError marks a bad argument or configuration value and
NumericalGuardError a runtime numerical guard that tripped; the CLI maps each
to its own exit code.
"""


class ModlabError(Exception):
    """Base class for all package errors."""


class ArgumentError(ModlabError, ValueError):
    """An argument or configuration value is out of its documented range."""


class NumericalGuardError(ModlabError):
    """A numerical guard tripped at run time."""


# grid construction and transforms
class NonPowerOfTwo(ArgumentError):
    pass


class NonPositiveDomain(ArgumentError):
    pass


class GridMismatch(ModlabError):
    pass


# state constructors
class EdgeMargin(ModlabError):
    pass


class ResolutionGuard(ModlabError):
    pass


class DisjointnessViolated(ModlabError):
    pass


class ZeroState(ModlabError):
    pass


class BadInterval(ModlabError):
    pass


# time evolution
class NonFiniteAmplitude(NumericalGuardError):
    pass


class PhaseWrapWarning(UserWarning):
    """Kinetic phase advance per step exceeded the wrap guard."""


# observables
class InternalInconsistency(NumericalGuardError):
    """Two independent computations of the same quantity disagree."""


class PeriodUnderResolved(NumericalGuardError):
    pass


class DegreeCap(ArgumentError):
    pass


class NonUniformSampling(ModlabError):
    pass


class OffLatticeL(ModlabError):
    pass


class NoPeaks(ModlabError):
    pass


class DegreeOverflowWarning(UserWarning):
    """A series term exceeded the representable range; series truncated."""


# operator matrices
class DimCap(ModlabError):
    pass


class NonDifferentiableV(ModlabError):
    pass


# flux-line scattering
class OutOfEnvelope(ModlabError):
    pass


class TruncationTooSmall(NumericalGuardError):
    pass


# experiment runner
class UnknownExperiment(ArgumentError):
    pass


class SchemaViolation(ArgumentError):
    pass


class IoFailure(ModlabError):
    pass


class RegimeViolation(NumericalGuardError):
    pass
