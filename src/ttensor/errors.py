"""Exception types shared across the package."""


class TtensorError(Exception):
    """Base class for all errors raised by this package."""


class ShapeMismatchError(TtensorError):
    """Operands have incompatible dimensions."""


class ConjugateSymmetryError(TtensorError):
    """Fourier slice data has no real preimage.

    Carries the offending slice pair and the symmetry residual so the caller
    can see which slices broke the conjugate pairing.
    """

    def __init__(self, slice_a: int, slice_b: int, residual: float, tolerance: float):
        self.slice_a = slice_a
        self.slice_b = slice_b
        self.residual = residual
        self.tolerance = tolerance
        super().__init__(
            f"conjugate symmetry violated between slices {slice_a} and {slice_b}: "
            f"residual {residual:.3e} exceeds tolerance {tolerance:.3e}"
        )


class SingularTensorError(TtensorError):
    """A Fourier slice is numerically singular."""

    def __init__(self, slice_index: int, condition: float, message: str = ""):
        self.slice_index = slice_index
        self.condition = condition
        text = message or (
            f"slice {slice_index} is numerically singular "
            f"(condition estimate {condition:.3e})"
        )
        super().__init__(text)


class NotSymmetricError(TtensorError):
    """Operation requires a symmetric tensor and the residual is too large."""


class NotTPSDError(TtensorError):
    """Operation requires a positive semidefinite tensor."""


class EigenConvergenceError(TtensorError):
    """An iterative eigensolver failed to converge within its sweep budget,
    or was handed a non-finite matrix, on which no iteration converges."""


class HypothesisViolationError(TtensorError):
    """A certifier was handed an instance that fails the theorem hypotheses."""


class UnknownTheoremError(TtensorError):
    """Requested theorem id is not in the registry."""
