"""Exception types shared across the toolkit.

Plain ValueError is used for invalid arguments; the classes here mark
failure modes that callers may want to catch and handle separately
(widening a parameter box, restarting a training run).
"""


class EmptyMatrixError(ValueError):
    """An assembly was requested over an empty triangle or edge set."""


class NotCoerciveError(RuntimeError):
    """A full-order or reduced operator is not SPD (lost coercivity)."""


class MapDegenerateError(RuntimeError):
    """The geometry map produced a non-positive Jacobian determinant."""


class StagnationError(RuntimeError):
    """Greedy enrichment rejected a dependent snapshot while above tolerance."""


class EmptySpaceError(ValueError):
    """A basis construction received only zero snapshots."""


class TrainingDivergedError(RuntimeError):
    """The training loss became NaN or Inf."""

    def __init__(self, epoch, message=None):
        self.epoch = epoch
        super().__init__(message or f"loss diverged at epoch {epoch}")
