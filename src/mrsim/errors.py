"""Exception types shared across the simulator."""


class MrSimError(Exception):
    """Base class for all simulator errors."""


class InvalidParameter(MrSimError):
    """A numeric argument is outside its admissible range."""


class TimingInfeasible(MrSimError):
    """A sequence builder was asked for intervals that come out negative."""


class ParseError(MrSimError):
    """A description file violates the grammar.

    Carries the 1-based line number where parsing failed.
    """

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class UnitError(ParseError):
    """A description-file key is missing its unit suffix."""


class SpinBudgetExceeded(MrSimError):
    """Rasterization would produce more spins than the configured cap."""


class IncommensurateMoments(MrSimError):
    """No common gradient-moment unit exists within tolerance."""


class ComplexOrderZero(MrSimError):
    """The order-0 longitudinal population of a configuration set went
    complex; it is the mean Mz and must stay real."""


class OutOfGrid(MrSimError):
    """A sampled field grid was evaluated outside its coverage."""


class TrajectoryMismatch(MrSimError):
    """Echo records and trajectory metadata disagree in shape."""


class FitDiverged(MrSimError):
    """The exponential fit failed to converge (decay outside observable range)."""


class WorkerPanic(MrSimError):
    """A worker failed while processing a spin block."""

    def __init__(self, block_index, cause):
        self.block_index = block_index
        super().__init__(f"worker failed on block {block_index}: {cause}")
