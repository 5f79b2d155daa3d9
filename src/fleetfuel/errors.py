"""Exception types shared across the package."""


class FleetFuelError(Exception):
    """Base class for all errors raised by this package."""


class FeedFormatError(FleetFuelError):
    """Raw feed or config table does not match its expected schema."""


class DataError(FleetFuelError):
    """Input values violate a precondition (bad ratio, empty sample, ...).

    ``record`` is the record at fault, when there is one.
    """

    def __init__(self, message: str = "", record=None):
        super().__init__(message)
        self.record = record


class InsufficientSupportError(DataError):
    """Too few observations to compute a statistic."""


class MissingFeatureError(DataError):
    """A record lacks a feature the model requires."""


class MissingStageError(FleetFuelError):
    """A pipeline stage was invoked before its prerequisites ran."""

    def __init__(self, stage: str):
        super().__init__(f"missing stage: {stage}")
        self.stage = stage
