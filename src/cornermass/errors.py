"""Exception hierarchy shared by all cornermass modules."""


class CornerMassError(Exception):
    """Base class for all package errors."""


class DomainError(CornerMassError):
    """A radius (or coordinate) fell outside a patch or the data set."""


class IntegrationDivergedError(CornerMassError):
    """ODE state became non-finite; carries the last radius with a finite state."""

    def __init__(self, message, last_good_radius=None):
        super().__init__(message)
        self.last_good_radius = last_good_radius


class SingularFactorError(CornerMassError):
    """Factoring a linear operator found it singular: a zero pivot, a
    complex or defective angular spectrum."""


class PicardStagnationError(CornerMassError):
    """Outer Picard iteration hit its cap; carries the change history."""

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = list(history) if history is not None else []


class HypothesisError(CornerMassError):
    """A mathematical hypothesis of the requested quantity fails on this data."""


class ConfigError(CornerMassError):
    """Malformed run configuration; carries a line/field diagnostic."""

    def __init__(self, message, line=None, field=None):
        super().__init__(message)
        self.line = line
        self.field = field
