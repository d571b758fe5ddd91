"""Exception types shared across the package."""


class PhyrecError(Exception):
    """Base class for all package-specific errors."""


class InvalidModelError(PhyrecError):
    """A rate matrix / stationary distribution pair failed validation.

    Carries a list of human-readable diagnostics, one per violated
    condition, in ``self.diagnostics``.
    """

    def __init__(self, diagnostics):
        if isinstance(diagnostics, str):
            diagnostics = [diagnostics]
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(self.diagnostics))


class NewickError(PhyrecError, ValueError):
    """Malformed Newick input.  ``pos`` is a character offset when known."""

    def __init__(self, message, pos=None):
        self.pos = pos
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(message)


class EnumerationTooLargeError(PhyrecError):
    """An exact enumeration was requested beyond the configured size guard."""


class CalibrationError(PhyrecError):
    """No dilution parameter satisfied the calibration inequalities.

    ``table`` holds one ``(l, eps_hat, fp_hat)`` row per attempted l.
    """

    def __init__(self, message, table=()):
        self.table = list(table)
        super().__init__(message)


class ReconstructionError(PhyrecError):
    """Topology reconstruction failed at some level of the tree.

    Attributes
    ----------
    level : int or None
        The level (0 = leaves) at which the failure occurred.
    candidates : list
        Machine-readable candidate-pair table at the failing level.
    """

    def __init__(self, message, level=None, candidates=()):
        self.level = level
        self.candidates = list(candidates)
        super().__init__(message)


class CherryMatchingError(ReconstructionError):
    """The candidate cherry pairs did not form a unique perfect matching."""
