"""Exception types shared across the package."""


class BesovTransferError(Exception):
    """Base class for all package errors."""


class CapacityError(BesovTransferError):
    """A requested grid or basis exceeds the configured cell budget."""


class CellNotFoundError(BesovTransferError):
    """No grid cell satisfies the requested containment condition."""


class ParamsError(BesovTransferError):
    """Exponent parameters violate a required inequality.

    The message names the violated inequality verbatim so callers can
    surface it.
    """


class ResolutionError(BesovTransferError):
    """A decomposition left more residual mass than the grid can explain."""


class ContainmentError(BesovTransferError):
    """A cell was expected to lie inside a branch image but does not."""


class MapSpecError(BesovTransferError):
    """A map specification is malformed or describes a non-expanding piece."""


class InfeasibleFitError(BesovTransferError):
    """No admissible constant pair fits the sampled data."""


class AtomBudgetError(BesovTransferError):
    """An input atom exceeds its coefficient-norm budget."""


class NormOverflowError(BesovTransferError):
    """A coefficient norm evaluated to a non-finite value."""


class AssumptionError(BesovTransferError):
    """A structural assumption failed (integrability or exponent box)."""


class ModeMismatchError(BesovTransferError):
    """Analytic and numeric transfer outputs disagree beyond tolerance."""


class ConvergenceError(BesovTransferError):
    """An iterative solver did not reach the requested tolerance."""


class DegenerateFitError(BesovTransferError):
    """Too few usable samples to fit a rate."""


class GapCollapseError(BesovTransferError):
    """The spectral gap of a perturbed operator closed on the sample grid."""


class ConfigError(BesovTransferError):
    """A run configuration failed validation; message carries the field path."""
