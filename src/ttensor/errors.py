"""Exception types shared across the package, and the hypothesis gate.

:func:`_require` and :func:`_require_each` are the only code that raises
:class:`HypothesisViolationError`: every certifier checks its theorem's
hypotheses (positive semidefiniteness, symmetry, normality, f-diagonality,
conjugate exponents, ...) through them before it evaluates either side, so a
failed hypothesis raises this error, not the :class:`NotSymmetricError` or
``ValueError`` that ``is_t_psd`` and ``t_power`` raise for their own inputs.
:func:`_require_tol` is the one check of a ``tol`` argument: every public
function that takes one calls it before any gate or solve.
"""

import math

__all__ = [
    "TtensorError",
    "ShapeMismatchError",
    "ConjugateSymmetryError",
    "SingularTensorError",
    "NotSymmetricError",
    "NotTPSDError",
    "EigenConvergenceError",
    "HypothesisViolationError",
    "UnknownTheoremError",
]


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


def _require(condition: bool, message: str) -> None:
    """Raise :class:`HypothesisViolationError` with ``message`` unless ``condition``."""
    if not condition:
        raise HypothesisViolationError(message)


def _require_each(reasons, message: str) -> None:
    """Raise :class:`HypothesisViolationError` at the first non-empty reason,
    with ``message.format(reason)``: ``reasons`` are a predicate's per-member
    failure reasons, ``""`` for a member that passes, in member order."""
    for reason in reasons:
        if reason:
            raise HypothesisViolationError(message.format(reason))


def _require_tol(tol: float) -> None:
    """Raise :class:`ValueError` unless ``tol`` is a finite number ``>= 0``:
    a NaN, infinite or negative tolerance makes every verdict against it
    wrong."""
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be a finite number >= 0, got {tol}")
