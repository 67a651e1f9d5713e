"""Exception types shared across the solver."""


class PenaltyflowError(Exception):
    """Base class for all solver errors."""


class ConfigError(PenaltyflowError):
    pass


class CollarTooWide(PenaltyflowError):
    pass


class ExtensionTraceError(PenaltyflowError):
    """Boundary trace incompatible with the extension construction."""


class ExtensionDivergenceNegative(PenaltyflowError):
    pass


class ErosionEmpty(PenaltyflowError):
    pass


class InvalidShape(PenaltyflowError):
    pass


class KernelUnresolved(PenaltyflowError):
    pass


class CflViolation(PenaltyflowError):
    pass


class LinearSolveDiverged(PenaltyflowError):
    pass


class MassBudgetError(PenaltyflowError):
    """A step's relative mass budget residual exceeded its limit."""


class NegativeDensity(PenaltyflowError):
    pass


class VacuumCell(PenaltyflowError):
    pass


class HistoryTooShort(PenaltyflowError):
    pass


class MarkerEscaped(PenaltyflowError):
    pass


class DegenerateMarkers(PenaltyflowError):
    pass


class InvalidMargin(PenaltyflowError):
    pass


class ProbeOutside(PenaltyflowError):
    pass
