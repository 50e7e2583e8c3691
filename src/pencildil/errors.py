"""Exception types shared across the package."""


class PencilError(Exception):
    """Base class for all errors raised by this package."""


class ShapeMismatch(PencilError):
    """Matrix operands have incompatible shapes."""


class DimensionMismatch(PencilError):
    """A vector or operator does not match the expected space dimensions."""


class ContainmentViolation(PencilError):
    """A subspace claimed to be contained in another is not."""


class NotHermitian(PencilError):
    """A matrix required to be self-adjoint is not, beyond tolerance."""


class NotPSD(PencilError):
    """A matrix or trigonometric symbol fails positive semidefiniteness."""


class NotContractive(PencilError):
    """The pencil is not contractive on the unit circle."""


class NotIsometric(PencilError):
    """The pencil (or its core block) is not an isometric pencil."""


class NotADilation(PencilError):
    """An object claimed to dilate a pencil fails the dilation identity."""


class FactorMismatch(PencilError):
    """A spectral factor does not reproduce the defect of the pencil."""


class NoConvergence(PencilError):
    """An iteration failed to converge; carries the last residual."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual
