"""Exception types shared across the package."""


class FleetFuelError(Exception):
    """Base class for all errors raised by this package."""


class FeedFormatError(FleetFuelError):
    """Raw feed or config table does not match its expected schema."""


class DataError(FleetFuelError):
    """Input values violate a precondition (bad ratio, empty sample, ...)."""


class InsufficientSupportError(DataError):
    """Too few observations to compute a statistic."""


class MissingFeatureError(DataError):
    """A vehicle-day lacks a feature the model requires."""


class MissingStageError(FleetFuelError):
    """A pipeline stage was invoked before its prerequisites ran."""

    def __init__(self, stage: str):
        super().__init__(f"missing stage: {stage}")
        self.stage = stage
